//! End-to-end integration: TCP hosts over the simulated dumbbell.

use taq_sim::{Bandwidth, DumbbellConfig, NodeId, SimTime};
use taq_tcp::{new_flow_log, ClientHost, Request, TcpConfig, Variant};
use taq_workloads::{DumbbellScenario, DumbbellSpec, QdiscSpec, TopoScenario};

/// Builds a one-server DropTail dumbbell with no clients yet.
fn setup(seed: u64, rate_kbps: u64, buffer_pkts: usize, tcp: TcpConfig) -> DumbbellScenario {
    let cfg = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(rate_kbps));
    DumbbellSpec::new(cfg)
        .tcp(tcp)
        .build(seed, &QdiscSpec::DropTail { buffer_pkts })
}

/// Attaches `node` on the client side (router 1) of the scenario's
/// topology.
fn attach_client(sc: &mut TopoScenario, node: NodeId) {
    sc.topo.attach_host(&mut sc.sim, node, 1);
}

#[test]
fn single_download_completes_uncongested() {
    let mut sc = setup(7, 1000, 50, TcpConfig::default());
    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
    client.push_request(Request {
        tag: 1,
        bytes: 50_000,
    });
    let client_node = sc.sim.add_agent(Box::new(client));
    attach_client(&mut sc, client_node);
    sc.sim.schedule_start(client_node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(60));

    let log = log.lock().unwrap();
    assert_eq!(log.records.len(), 1, "one transfer recorded");
    let rec = &log.records[0];
    assert_eq!(rec.bytes, 50_000);
    assert!(rec.completed_at.is_some(), "transfer finished");
    let dl = rec.download_time().unwrap().as_secs_f64();
    // 50 KB at 1 Mbps is ~0.43 s of serialization; slow start from IW=2
    // over a 200 ms RTT needs ~7 round trips, so a couple of seconds.
    assert!(dl > 0.4 && dl < 10.0, "download time {dl}");
    // No losses on an uncongested link.
    assert_eq!(sc.sim.link_stats(sc.db.bottleneck).dropped_pkts, 0);
}

#[test]
fn parallel_pool_respects_limit_and_finishes() {
    let mut sc = setup(7, 1000, 50, TcpConfig::default());
    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 4, log.clone());
    for tag in 0..10 {
        client.push_request(Request { tag, bytes: 20_000 });
    }
    let client_node = sc.sim.add_agent(Box::new(client));
    attach_client(&mut sc, client_node);
    sc.sim.schedule_start(client_node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(120));

    let log = log.lock().unwrap();
    assert_eq!(log.records.len(), 10, "all ten objects downloaded");
    assert!(log.records.iter().all(|r| r.completed_at.is_some()));
    // Tags must cover 0..10 (completion order may vary).
    let mut tags: Vec<u64> = log.records.iter().map(|r| r.tag).collect();
    tags.sort_unstable();
    assert_eq!(tags, (0..10).collect::<Vec<_>>());
}

#[test]
fn congested_link_loses_packets_but_transfers_complete() {
    // 40 clients sharing 400 Kbps: fair share ~10 Kbps = ~2.5 pkts/RTT —
    // inside the small packet regime.
    let buffer = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(400)).buffer_pkts();
    let mut sc = setup(11, 400, buffer, TcpConfig::default());

    let log = new_flow_log();
    let mut clients = Vec::new();
    for i in 0..40 {
        let mut c = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
        c.push_request(Request {
            tag: i,
            bytes: 30_000,
        });
        let node = sc.sim.add_agent(Box::new(c));
        attach_client(&mut sc, node);
        // Stagger starts over the first second.
        sc.sim.schedule_start(node, SimTime::from_millis(25 * i));
        clients.push(node);
    }
    sc.sim.run_until(SimTime::from_secs(600));

    let stats = sc.sim.link_stats(sc.db.bottleneck);
    assert!(stats.dropped_pkts > 0, "congestion should cause drops");
    let done: Vec<_> = log
        .lock()
        .unwrap()
        .records
        .iter()
        .filter_map(|r| r.completed_at)
        .collect();
    assert!(
        done.len() >= 35,
        "most transfers complete eventually: {}/40",
        done.len()
    );
    // Link utilization should be high while the transfers were running
    // (paper: >90% even under pathological sharing); measure over the
    // busy period, i.e. until the last completion.
    let busy_end = done.iter().copied().max().unwrap();
    let util = stats.utilization(busy_end.saturating_since(SimTime::ZERO));
    assert!(util > 0.7, "utilization {util}");
}

#[test]
fn sack_variant_also_completes_under_loss() {
    let tcp = TcpConfig {
        variant: Variant::Sack,
        ..TcpConfig::default()
    };
    let mut sc = setup(13, 400, 10, tcp.clone());
    let log = new_flow_log();
    for i in 0..10 {
        let mut c = ClientHost::new(tcp.clone(), sc.server, 80, 1, log.clone());
        c.push_request(Request {
            tag: i,
            bytes: 40_000,
        });
        let node = sc.sim.add_agent(Box::new(c));
        attach_client(&mut sc, node);
        sc.sim.schedule_start(node, SimTime::from_millis(10 * i));
    }
    sc.sim.run_until(SimTime::from_secs(300));
    let done = log
        .lock()
        .unwrap()
        .records
        .iter()
        .filter(|r| r.completed_at.is_some())
        .count();
    assert_eq!(done, 10, "all SACK transfers complete");
}

#[test]
fn determinism_same_seed_same_flow_log() {
    let run = || {
        let mut sc = setup(7, 600, 30, TcpConfig::default());
        let log = new_flow_log();
        for i in 0..5 {
            let mut c = ClientHost::new(TcpConfig::default(), sc.server, 80, 2, log.clone());
            c.push_request(Request {
                tag: i,
                bytes: 25_000,
            });
            let node = sc.sim.add_agent(Box::new(c));
            attach_client(&mut sc, node);
            sc.sim.schedule_start(node, SimTime::ZERO);
        }
        sc.sim.run_until(SimTime::from_secs(120));
        let out: Vec<_> = log
            .lock()
            .unwrap()
            .records
            .iter()
            .map(|r| (r.tag, r.completed_at))
            .collect();
        out
    };
    assert_eq!(run(), run());
}
