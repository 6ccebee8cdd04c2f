//! Integration: the §2.4 baseline comparison and trace-based
//! diagnostics, end to end.

use std::collections::HashMap;
use taq_bench::{fairness_run, Discipline, FairnessRunConfig};
use taq_sim::{
    seq_reuse_is_retransmission, Bandwidth, DumbbellConfig, EventRecorder, FlowKey, LinkId, NodeId,
    RecordedEvent, RecordedKind, SimDuration, SimTime,
};
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

/// What one flow's transmissions on a link look like from outside.
#[derive(Debug, Default, PartialEq)]
struct FlowSummary {
    /// Longest gap between consecutive data transmissions.
    longest_silence: SimDuration,
    /// Data packets re-offering already-transmitted sequence space.
    retransmissions: u64,
    last_tx: Option<SimTime>,
    high_water: u64,
}

/// Per-flow summaries over the events recorded on `link`: every flow
/// seen there gets an entry, data transmits fill it in.
fn flow_summaries(events: &[RecordedEvent], link: LinkId) -> HashMap<FlowKey, FlowSummary> {
    let mut out: HashMap<FlowKey, FlowSummary> = HashMap::new();
    for e in events.iter().filter(|e| e.link == link) {
        let s = out.entry(e.flow).or_default();
        if e.kind != RecordedKind::Transmit || !e.is_data {
            continue;
        }
        s.retransmissions += u64::from(seq_reuse_is_retransmission(e.seq_end, s.high_water));
        s.high_water = s.high_water.max(e.seq_end);
        if let Some(last) = s.last_tx {
            s.longest_silence = s.longest_silence.max(e.at.saturating_since(last));
        }
        s.last_tx = Some(e.at);
    }
    out
}

fn flow(dst_port: u16) -> FlowKey {
    FlowKey {
        src: NodeId(0),
        src_port: 80,
        dst: NodeId(1),
        dst_port,
    }
}

/// A recorded event of flow `dst_port`, `ms` into the run.
fn event(ms: u64, link: u32, kind: RecordedKind, dst_port: u16, seq_end: u64) -> RecordedEvent {
    RecordedEvent {
        at: SimTime::from_millis(ms),
        link: LinkId(link),
        packet_id: 0,
        kind,
        flow: flow(dst_port),
        seq_end,
        is_data: true,
    }
}

/// A flow sends two segments, loses a third, and re-sends the first
/// after a 5 s silence; another link's traffic adds nothing.
#[test]
fn flow_summaries_detect_retransmissions_and_silences() {
    use RecordedKind::{Drop, Transmit};
    let events = [
        event(0, 0, Transmit, 1, 461),
        event(20, 0, Transmit, 1, 921),
        event(25, 0, Drop, 1, 1_381),
        event(40, 7, Transmit, 1, 461),
        event(5_020, 0, Transmit, 1, 461),
    ];
    let summaries = flow_summaries(&events, LinkId(0));
    assert_eq!(summaries.len(), 1);
    let s = &summaries[&flow(1)];
    assert_eq!(s.retransmissions, 1);
    assert_eq!(s.longest_silence, SimDuration::from_millis(5_000));
    assert_eq!(s.last_tx, Some(SimTime::from_millis(5_020)));
}

#[test]
fn pure_acks_do_not_count_as_data() {
    let ack = RecordedEvent {
        is_data: false,
        ..event(1, 0, RecordedKind::Transmit, 1, 0)
    };
    let summaries = flow_summaries(&[ack.clone(), ack], LinkId(0));
    assert_eq!(summaries[&flow(1)], FlowSummary::default());
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
        let trace = sc.sim.add_monitor(Box::<EventRecorder>::default());
        sc.add_bulk_clients(60, BULK_BYTES, SimDuration::from_secs(2));
        sc.run_until(SimTime::from_secs(120));
        let trace = sc.sim.monitor::<EventRecorder>(trace).expect("recorder");
        let sent = |e: &&RecordedEvent| e.link == bottleneck && e.kind == RecordedKind::Transmit;
        assert_eq!(
            trace.events.iter().filter(sent).count() as u64,
            sc.sim.link_stats(bottleneck).transmitted_pkts,
            "the recording holds every bottleneck transmit"
        );
        flow_summaries(&trace.events, bottleneck)
    };
    let dt = run(Discipline::DropTail);
    let taq = run(Discipline::Taq);

    let worst_silence = |summaries: &HashMap<FlowKey, FlowSummary>| {
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
