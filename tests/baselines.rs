//! Integration: the §2.4 baseline comparison and trace-based
//! diagnostics, end to end.

use taq_bench::{fairness_run, Discipline, FairnessRunConfig};
use taq_sim::{Bandwidth, DumbbellConfig, PacketTrace, SimDuration, SimTime};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

/// §2.4: in the sub-packet regime RED offers only marginal gains over
/// DropTail and nothing approaching TAQ. (Our SFQ implementation, with
/// per-bucket longest-queue drops, genuinely behaves like per-flow FQ
/// and does better than the paper's ns2 SFQ — a documented deviation —
/// so the assertion pins the RED ≈ DT part and TAQ's dominance.)
#[test]
fn red_is_close_to_droptail_and_taq_dominates() {
    let cfg = FairnessRunConfig::new(42, Bandwidth::from_kbps(600), 60, SimTime::from_secs(240));
    let dt = fairness_run(&cfg, Discipline::DropTail);
    let red = fairness_run(&cfg, Discipline::Red);
    let taq = fairness_run(&cfg, Discipline::Taq);
    assert!(
        (red.short_term_jain - dt.short_term_jain).abs() < 0.45,
        "RED stays in DropTail's neighbourhood: {:.3} vs {:.3}",
        red.short_term_jain,
        dt.short_term_jain
    );
    assert!(
        taq.short_term_jain > dt.short_term_jain + 0.3
            && taq.short_term_jain > red.short_term_jain + 0.15,
        "TAQ dominates both baselines: taq {:.3}, red {:.3}, dt {:.3}",
        taq.short_term_jain,
        red.short_term_jain,
        dt.short_term_jain
    );
    // All disciplines keep the link busy (the paper: utilization stays
    // high even as fairness collapses).
    for (name, r) in [("dt", &dt), ("red", &red), ("taq", &taq)] {
        assert!(r.utilization > 0.9, "{name} utilization {}", r.utilization);
    }
}

/// The paper's pcap-style diagnosis, mechanized: under DropTail in the
/// sub-packet regime, flow traces show long silences and heavy
/// retransmission; the same trace under TAQ shows bounded silences.
#[test]
fn packet_traces_expose_silences_and_retransmissions() {
    let run = |discipline: Discipline| {
        let rate = Bandwidth::from_kbps(600);
        let built = discipline.spec(30).build(rate, 7);
        let topo = DumbbellConfig::with_rtt_200ms(rate);
        let mut sc = DumbbellSpec::new(topo).build_with_reverse(7, built.forward, built.reverse);
        let bottleneck = sc.db.bottleneck;
        let trace = sc
            .sim
            .add_monitor(Box::new(PacketTrace::new(Some(bottleneck), 2_000_000)));
        sc.add_bulk_clients(60, BULK_BYTES, SimDuration::from_secs(2));
        sc.run_until(SimTime::from_secs(120));
        let trace = sc.sim.monitor::<PacketTrace>(trace).expect("trace monitor");
        assert!(!trace.truncated(), "capture buffer sized generously");
        trace.flow_summaries()
    };
    let dt = run(Discipline::DropTail);
    let taq = run(Discipline::Taq);

    let worst_silence = |summaries: &std::collections::HashMap<_, taq_sim::FlowTraceSummary>| {
        summaries
            .values()
            .map(|s| s.longest_silence)
            .max()
            .unwrap_or(SimDuration::ZERO)
    };
    let dt_worst = worst_silence(&dt);
    let taq_worst = worst_silence(&taq);
    assert!(
        dt_worst > SimDuration::from_secs(8),
        "DropTail traces show long silences: {dt_worst}"
    );
    assert!(
        taq_worst < dt_worst,
        "TAQ bounds the worst silence: {taq_worst} vs {dt_worst}"
    );
    // Retransmissions are visible in both traces (the regime is lossy).
    let retx: u64 = dt.values().map(|s| s.retransmissions).sum();
    assert!(retx > 100, "DropTail retransmissions visible: {retx}");
    // Every long-lived flow appears in the trace.
    assert_eq!(dt.len(), 60);
}
