//! The headline result, end-to-end: in a small packet regime TAQ
//! improves short-term fairness and nearly eliminates stalled flows
//! relative to DropTail, without sacrificing utilization.

use taq::{TaqConfig, TaqPair};
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_queues::DropTail;
use taq_sim::{Bandwidth, DumbbellConfig, Qdisc, SimDuration, SimTime};
use taq_telemetry::{shared_sink, RingBufferSink, Telemetry};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

struct RunResult {
    short_term_jain: f64,
    stalled_fraction: f64,
    utilization: f64,
}

/// Runs `flows` long-lived flows over a `rate_kbps` bottleneck for
/// `secs`, measuring 20 s-slice fairness and flow evolution.
fn run(qdisc: Box<dyn Qdisc>, seed: u64, rate_kbps: u64, flows: usize, secs: u64) -> RunResult {
    let rate = Bandwidth::from_kbps(rate_kbps);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let mut sc = DumbbellSpec::new(topo).build(seed, qdisc);
    let bottleneck = sc.db.bottleneck;
    let slices = sc.sim.add_monitor(Box::new(SliceThroughput::new(
        bottleneck,
        SimDuration::from_secs(20),
    )));
    let evo = sc.sim.add_monitor(Box::new(EvolutionTracker::new(
        bottleneck,
        SimDuration::from_secs(2),
    )));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
    sc.run_until(SimTime::from_secs(secs));

    // Skip the first two slices (startup transient).
    let n_slices = (secs / 20) as usize;
    let slices = sc
        .sim
        .monitor::<SliceThroughput>(slices)
        .expect("slice monitor");
    let short_term_jain = slices.mean_jain(2, n_slices, flows);
    let series = sc
        .sim
        .monitor::<EvolutionTracker>(evo)
        .expect("evolution monitor")
        .series();
    let from = series.len() / 4;
    let (mut stalled, mut total) = (0usize, 0usize);
    for c in &series[from..] {
        stalled += c.stalled;
        total += c.total();
    }
    let stalled_fraction = if total == 0 {
        0.0
    } else {
        stalled as f64 / total as f64
    };
    let stats = sc.sim.link_stats(bottleneck);
    RunResult {
        short_term_jain,
        stalled_fraction,
        utilization: stats.utilization(SimDuration::from_secs(secs)),
    }
}

#[test]
fn taq_beats_droptail_on_short_term_fairness() {
    // 600 Kbps shared by 60 flows: fair share 10 Kbps ≈ 1 pkt/RTT —
    // deep in the sub-packet regime (paper Figure 2 vs Figure 8).
    let rate = Bandwidth::from_kbps(600);
    let flows = 60;
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let dt = run(
        Box::new(DropTail::with_packets(buffer)),
        42,
        600,
        flows,
        300,
    );
    let pair = TaqPair::new(TaqConfig::for_link(rate));
    // Telemetry rides along: its counters must agree with TaqStats.
    let telemetry = Telemetry::new();
    let (ring, erased) = shared_sink(RingBufferSink::new(1024));
    telemetry.add_shared_sink(erased);
    pair.state.lock().unwrap().attach_telemetry(telemetry);
    let tq = run(Box::new(pair.forward), 42, 600, flows, 300);

    // The stats snapshot and the sink-observed event stream are two
    // views of the same run: one Classified event per offered packet,
    // one Dropped event per drop, drop_rate consistent with both.
    {
        let st = pair.state.lock().unwrap();
        let ring = ring.lock().unwrap();
        assert_eq!(st.stats.offered, ring.count("classified"));
        assert_eq!(st.stats.dropped, ring.count("dropped"));
        let snapshot = st.stats.snapshot();
        assert_eq!(
            snapshot.get("offered").and_then(|v| v.as_u64()),
            Some(st.stats.offered)
        );
        assert_eq!(
            snapshot.get("dropped").and_then(|v| v.as_u64()),
            Some(st.stats.dropped)
        );
        let rate = snapshot.get("drop_rate").and_then(|v| v.as_f64()).unwrap();
        assert!((rate - st.stats.drop_rate()).abs() < 1e-9);
        assert!(st.stats.dropped > 0, "the contended link drops packets");
    }

    assert!(
        tq.short_term_jain > dt.short_term_jain + 0.1,
        "TAQ {:.3} must clearly beat DropTail {:.3}",
        tq.short_term_jain,
        dt.short_term_jain
    );
    assert!(
        tq.short_term_jain > 0.8,
        "TAQ short-term JFI {:.3} (paper: mostly > 0.8)",
        tq.short_term_jain
    );
    assert!(
        tq.utilization > 0.85,
        "TAQ keeps the link busy: {:.3}",
        tq.utilization
    );
    assert!(
        dt.utilization > 0.85,
        "DropTail link utilization is high too: {:.3}",
        dt.utilization
    );
}

#[test]
fn taq_nearly_eliminates_stalled_flows() {
    // The Figure 9 claim at a sub-packet operating point: 90 flows over
    // 600 Kbps (fair share ≈ 6.7 Kbps ≈ 0.7 packets/RTT). At the
    // paper's most extreme point (180 flows, 0.17 pkts/RTT) our
    // RFC-6298-compliant senders are past the breaking point where the
    // paper itself says no queueing policy suffices without admission
    // control; the Fig 9 bench reports both points.
    let rate = Bandwidth::from_kbps(600);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let dt = run(Box::new(DropTail::with_packets(buffer)), 7, 600, 90, 240);
    let pair = TaqPair::new(TaqConfig::for_link(rate));
    let tq = run(Box::new(pair.forward), 7, 600, 90, 240);

    assert!(
        dt.stalled_fraction > 0.2,
        "DropTail leaves many flows stalled: {:.3}",
        dt.stalled_fraction
    );
    assert!(
        tq.stalled_fraction < dt.stalled_fraction / 2.0,
        "TAQ at least halves stalls: {:.3} vs {:.3}",
        tq.stalled_fraction,
        dt.stalled_fraction
    );
}
