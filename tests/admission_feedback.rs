//! Integration: explicit admission-rejection feedback (§4.3's
//! expected-wait-time notice) end to end.

use taq::{TaqConfig, TaqPair};
use taq_sim::{Bandwidth, DumbbellConfig, NodeId, SimDuration, SimTime};
use taq_tcp::{new_flow_log, ClientHost, Request, TcpConfig};
use taq_workloads::{DumbbellSpec, TopoScenario};

/// Attaches `node` on the client side (router 1) of the scenario's
/// topology.
fn attach_client(sc: &mut TopoScenario, node: NodeId) {
    sc.topo.attach_host(&mut sc.sim, node, 1);
}

/// Drives heavy synthetic loss into the meter, then opens a client and
/// measures how it learns about rejection.
fn run(feedback: bool) -> (u64, u64, bool) {
    let rate = Bandwidth::from_kbps(600);
    let mut cfg = TaqConfig::for_link(rate).with_admission_control();
    cfg.reject_feedback = feedback;
    cfg.admission_twait = SimDuration::from_secs(2);
    let pair = TaqPair::new(cfg);
    let state = pair.state.clone();
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let mut sc = DumbbellSpec::new(topo).build_with_reverse(
        3,
        Box::new(pair.forward),
        Box::new(pair.reverse),
    );

    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
    client.push_request(Request {
        tag: 1,
        bytes: 10_000,
    });
    let node = sc.sim.add_agent(Box::new(client));
    attach_client(&mut sc, node);
    // Pin the admission meter at heavy loss just before the SYN
    // arrives (the external-loss entry point; the admission example
    // exercises the organic overload path).
    {
        let mut st = state.lock().unwrap();
        for _ in 0..200 {
            st.record_external_loss(SimTime::ZERO);
        }
    }
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(30));

    let client_ref = sc.sim.agent::<ClientHost>(node).unwrap();
    let rejections = client_ref.rejections_seen;
    let st = state.lock().unwrap();
    let done = log
        .lock()
        .unwrap()
        .records
        .iter()
        .any(|r| r.completed_at.is_some());
    (st.stats.syns_rejected, rejections, done)
}

#[test]
fn feedback_notices_reach_the_client_and_it_still_completes() {
    let (rejected, seen, done) = run(true);
    assert!(rejected > 0, "the first SYN is rejected");
    assert!(
        seen > 0,
        "the client received explicit rejection notices ({rejected} rejected)"
    );
    assert!(done, "the transfer completes after the Twait window");
}

#[test]
fn without_feedback_rejection_is_silent() {
    let (rejected, seen, done) = run(false);
    assert!(rejected > 0);
    assert_eq!(seen, 0, "no notices without the feedback option");
    assert!(done, "blind retries still get in eventually");
}
