//! Integration: persistent connections with pipelined requests
//! (HTTP/1.1 keep-alive), end to end over the simulator.

use taq::{FlowState, TaqConfig, TaqPair};
use taq_queues::DropTail;
use taq_sim::{Bandwidth, DumbbellConfig, NodeId, SimTime};
use taq_tcp::{new_flow_log, ClientHost, Request, ServerHost, TcpConfig};
use taq_workloads::{DumbbellScenario, DumbbellSpec, TopoScenario};

fn spec() -> DumbbellSpec {
    DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600)))
}

/// A 600 Kbps DropTail dumbbell with its server, no clients yet.
fn setup() -> DumbbellScenario {
    spec().build(21, Box::new(DropTail::with_packets(30)))
}

/// Attaches `node` on the client side (router 1) of the scenario's
/// topology.
fn attach_client(sc: &mut TopoScenario, node: NodeId) {
    sc.topo.attach_host(&mut sc.sim, node, 1);
}

#[test]
fn pipelined_objects_complete_in_order_on_one_connection() {
    let mut sc = setup();
    let log = new_flow_log();
    let mut client =
        ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone()).with_pipelining();
    for tag in 0..6 {
        client.push_request(Request { tag, bytes: 8_000 });
    }
    let node = sc.sim.add_agent(Box::new(client));
    attach_client(&mut sc, node);
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(120));

    let log = log.lock().unwrap();
    let done: Vec<_> = log
        .records
        .iter()
        .filter(|r| r.completed_at.is_some())
        .collect();
    assert_eq!(done.len(), 6, "all pipelined objects complete");
    // One connection: every record shares the client port.
    let ports: std::collections::HashSet<u16> = done.iter().map(|r| r.client_port).collect();
    assert_eq!(ports.len(), 1, "a single keep-alive connection: {ports:?}");
    // In-order completion by tag.
    let mut tags: Vec<u64> = done.iter().map(|r| r.tag).collect();
    let sorted = {
        let mut t = tags.clone();
        t.sort_unstable();
        t
    };
    assert_eq!(tags, sorted, "pipelined objects finish in request order");
    tags.dedup();
    assert_eq!(tags.len(), 6);
    // The server accepted exactly one connection.
    let srv = sc.sim.agent::<ServerHost>(sc.server).unwrap();
    assert_eq!(srv.accepted, 1);
}

#[test]
fn scheduled_requests_reuse_idle_keepalive_connections() {
    let mut sc = setup();
    let log = new_flow_log();
    let mut client =
        ClientHost::new(TcpConfig::default(), sc.server, 80, 2, log.clone()).with_pipelining();
    client.push_request(Request {
        tag: 0,
        bytes: 5_000,
    });
    // A second burst arrives long after the first object finished: the
    // idle keep-alive connection must pick it up without a new SYN.
    client.schedule_request(
        SimTime::from_secs(30),
        Request {
            tag: 1,
            bytes: 5_000,
        },
    );
    client.schedule_request(
        SimTime::from_secs(30),
        Request {
            tag: 2,
            bytes: 5_000,
        },
    );
    let node = sc.sim.add_agent(Box::new(client));
    attach_client(&mut sc, node);
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(120));

    let log = log.lock().unwrap();
    let done = log
        .records
        .iter()
        .filter(|r| r.completed_at.is_some())
        .count();
    assert_eq!(done, 3, "burst after idle completes");
    let srv = sc.sim.agent::<ServerHost>(sc.server).unwrap();
    // Reuse means at most 2 connections ever (the pool limit), not 3.
    assert!(
        srv.accepted <= 2,
        "idle connection reused: {}",
        srv.accepted
    );
    // The later objects completed after their scheduled time.
    let r1 = log.records.iter().find(|r| r.tag == 1).unwrap();
    assert!(r1.completed_at.unwrap() >= SimTime::from_secs(30));
}

#[test]
fn idle_keepalive_connection_tracks_as_dummy_silence_at_taq() {
    // The traffic pattern pipelining creates — an established flow that
    // simply has nothing to send — is exactly what TAQ's DummySilence
    // state exists to distinguish from a timeout.
    let pair = TaqPair::new(TaqConfig::for_link(Bandwidth::from_kbps(600)));
    let state = pair.state.clone();
    let mut sc = spec().build_with_reverse(33, Box::new(pair.forward), Box::new(pair.reverse));
    let log = new_flow_log();
    let mut client =
        ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone()).with_pipelining();
    client.push_request(Request {
        tag: 0,
        bytes: 20_000,
    });
    let node = sc.sim.add_agent(Box::new(client));
    attach_client(&mut sc, node);
    sc.sim.schedule_start(node, SimTime::ZERO);
    // Run past completion so idle epochs accumulate (but well short of
    // the tracker's GC horizon), then roll the tracker's clock forward.
    sc.sim.run_until(SimTime::from_secs(5));
    state
        .lock()
        .unwrap()
        .flows
        .tick(SimTime::from_secs(5), |_| false);

    let st = state.lock().unwrap();
    let states: Vec<FlowState> = st.flows.iter().map(|f| f.state).collect();
    assert!(
        states.contains(&FlowState::DummySilence),
        "idle keep-alive flow classified as dummy silence, got {states:?}"
    );
}
