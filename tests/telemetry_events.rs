//! The telemetry layer end-to-end: the exact transition sequence a
//! scripted flow produces, the completeness of a full simulation's JSONL
//! trace, and the agreement between the `telemetry_report` summary
//! aggregates and the raw event stream.

use taq::{FlowTable, TaqConfig};
use taq_bench::{telemetry_report, TelemetryReportConfig};
use taq_sim::{Bandwidth, FlowKey, NodeId, PacketBuilder, SimTime};
use taq_telemetry::{jsonl_event_kind, shared_sink, Event, RingBufferSink, Telemetry};

fn key() -> FlowKey {
    FlowKey {
        src: NodeId(1),
        src_port: 80,
        dst: NodeId(2),
        dst_port: 7_000,
    }
}

fn data(seq: u64) -> taq_sim::Packet {
    PacketBuilder::new(key()).seq(seq).payload(460).build()
}

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Scripted lifecycle (the paper's Figure 7 walked edge by edge): a flow
/// ramps up, takes a local drop, falls silent through its RTO, repairs
/// with a retransmission, and resumes — and the `RingBufferSink`
/// captures exactly the transition sequence the state machine defines.
#[test]
fn scripted_flow_emits_exact_transition_sequence() {
    let mut tab = FlowTable::new(TaqConfig::for_link(Bandwidth::from_kbps(600)));
    let telemetry = Telemetry::new();
    let (ring, erased) = shared_sink(RingBufferSink::new(256));
    telemetry.add_shared_sink(erased);
    tab.set_telemetry(telemetry);

    // Three steady epochs (100 ms each): slow start settles into Normal
    // at the second epoch boundary.
    let mut seq = 1;
    for epoch in 0..3u64 {
        for i in 0..3u64 {
            tab.observe_forward(&data(seq), t(epoch * 100 + i * 20));
            seq += 460;
        }
    }
    // The queue drops one of its packets: explicit loss recovery.
    let id = tab.id_of(&key()).unwrap();
    tab.on_drop_id(id, false, t(310));
    // One fully silent epoch with the repair outstanding: the sender is
    // waiting out its RTO.
    tab.tick(t(450), |_| false);
    // The retransmission arrives — timeout recovery, immediately.
    let obs = tab.observe_forward(&data(seq - 460), t(460));
    assert!(obs.retransmission);
    // A clean epoch of fresh data completes the recovery into SlowStart.
    tab.observe_forward(&data(seq), t(560));

    let ring = ring.lock().unwrap();
    let transitions: Vec<(&str, &str, &str)> = ring
        .events()
        .filter_map(|(_, e)| match e {
            Event::FlowStateChanged {
                from, to, trigger, ..
            } => Some((*from, *to, *trigger)),
            _ => None,
        })
        .collect();
    assert_eq!(
        transitions,
        vec![
            ("SlowStart", "Normal", "active-epoch"),
            ("Normal", "ExplicitLossRecovery", "local-drop"),
            ("ExplicitLossRecovery", "TimeoutSilence", "silent-epoch"),
            (
                "TimeoutSilence",
                "TimeoutRecovery",
                "retransmit-after-silence"
            ),
            ("TimeoutRecovery", "SlowStart", "active-epoch"),
        ],
        "exact transition sequence"
    );
    // The repair was also surfaced as a retransmission event crediting
    // this queue's drop.
    let retransmits: Vec<bool> = ring
        .events()
        .filter_map(|(_, e)| match e {
            Event::Retransmit {
                repairs_local_drop, ..
            } => Some(*repairs_local_drop),
            _ => None,
        })
        .collect();
    assert_eq!(retransmits, vec![true]);
}

/// Acceptance: one instrumented TAQ simulation produces a JSONL trace
/// containing flow state transitions, classification decisions,
/// admission decisions, and queue-depth samples — and the summary /
/// ring-buffer aggregates agree with each other and with `TaqStats`.
#[test]
fn telemetry_report_trace_is_complete_and_consistent() {
    let cfg = TelemetryReportConfig::small_packet(42, SimTime::from_secs(40));
    let report = telemetry_report(&cfg);
    let taq = &report.taq;

    // JSONL completeness.
    assert!(!taq.jsonl.is_empty());
    let kinds: std::collections::BTreeSet<String> = taq
        .jsonl
        .iter()
        .filter_map(|l| jsonl_event_kind(l).map(str::to_string))
        .collect();
    for required in [
        "flow_state",
        "classified",
        "admission",
        "queue_depth",
        "link",
    ] {
        assert!(kinds.contains(required), "JSONL has {required}: {kinds:?}");
    }

    // Every sink saw the same stream: the ring buffer's exact per-kind
    // counts equal the summary sink's, and the totals line up.
    assert_eq!(taq.ring_total, taq.summary.total_events());
    for (kind, n) in &taq.ring_counts {
        assert_eq!(
            taq.summary.counts_by_kind.get(kind.as_str()),
            Some(n),
            "summary count for {kind}"
        );
    }
    // The JSONL sink too (one line per event).
    assert_eq!(taq.jsonl.len() as u64, taq.ring_total);

    // The middlebox's own counters match the sink-observed events.
    let snapshot = taq.stats_snapshot.as_ref().expect("taq run has a snapshot");
    let dropped = snapshot.get("dropped").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(dropped, taq.summary.total_drops());
    assert_eq!(dropped, *taq.ring_counts.get("dropped").unwrap_or(&0));
    let offered = snapshot.get("offered").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(offered, *taq.ring_counts.get("classified").unwrap_or(&0));

    // DropTail ran through the identical harness: link events and the
    // engine summary are present, but no middlebox internals.
    assert!(report.droptail.ring_counts.contains_key("link"));
    assert!(report.droptail.ring_counts.contains_key("engine_summary"));
    assert!(!report.droptail.ring_counts.contains_key("flow_state"));
    assert!(report.droptail.stats_snapshot.is_none());

    // And TAQ actually did something in this regime.
    assert!(dropped > 0, "a contended 600 kbps link drops packets");
    assert!(
        taq.summary.state_entries.values().any(|n| *n > 0),
        "state transitions observed"
    );
}

/// One TAQ offer's records reach the sinks in a fixed order: the
/// tracker's own (here, the state change a drop causes), then
/// `classified`, then `dropped` with its eviction stage, then the
/// `queue_depth` sample (every 32nd offer from the first). The trace
/// collector's span assembly relies on the middle two. A scripted
/// `TaqPair` run through a two-packet buffer drops at the NewFlow cap,
/// then evicts on every offer, and pins the whole sequence.
#[test]
fn taq_offer_emits_tracker_classified_dropped_depth_in_order() {
    use taq_sim::{PacketArena, Qdisc};

    let mut cfg = TaqConfig::for_link(Bandwidth::from_kbps(600));
    cfg.buffer_pkts = 2;
    cfg.newflow_cap_pkts = 1;
    let pair = taq::TaqPair::new(cfg);
    let telemetry = Telemetry::new();
    let (ring, erased) = shared_sink(RingBufferSink::new(256));
    telemetry.add_shared_sink(erased);
    pair.attach_telemetry(telemetry);
    let mut q = pair.forward;
    let mut arena = PacketArena::new();
    // ((destination port, seq), ms): flow 1's first packet, flow 2's
    // first, then 31 more of flow 2's, one offer per millisecond.
    let offers = [(1, 1), (2, 1)]
        .into_iter()
        .chain((1..32).map(|i| (2, 1 + i * 460)))
        .zip(0..);
    for ((port, seq), ms) in offers {
        let flow = FlowKey {
            dst_port: port,
            ..key()
        };
        let pkt = arena.insert(PacketBuilder::new(flow).seq(seq).payload(460).build());
        for dropped in q.enqueue(pkt, &mut arena, t(ms)).dropped {
            arena.remove(dropped);
        }
    }

    let seen: Vec<(&str, u16, Option<u8>)> = ring
        .lock()
        .unwrap()
        .events()
        .map(|(_, e)| match e {
            Event::FlowStateChanged { flow, .. } | Event::Classified { flow, .. } => {
                (e.kind(), flow.dst_port, None)
            }
            Event::Dropped { flow, stage, .. } => (e.kind(), flow.dst_port, Some(*stage)),
            _ => (e.kind(), 0, None),
        })
        .collect();
    let mut want = vec![
        // Offer 1 queues flow 1's first packet and takes a depth sample.
        ("classified", 1, None),
        ("queue_depth", 0, None),
        // Offer 2 meets the NewFlow cap: the drop takes flow 2 out of
        // slow start before the offer's own records.
        ("flow_state", 2, None),
        ("classified", 2, None),
        ("dropped", 2, Some(7)),
        // Offer 3 queues.
        ("classified", 2, None),
        // Offer 4 overflows the buffer, and stage 3 evicts flow 1's
        // NewFlow packet: the victim's state change comes first.
        ("flow_state", 1, None),
        ("classified", 2, None),
        ("dropped", 1, Some(3)),
    ];
    // Offers 5 to 33 each evict one of flow 2's packets (stage 5:
    // OverPenalized), and offer 33 samples the depth after its drop.
    for _ in 5..=33 {
        want.extend([("classified", 2, None), ("dropped", 2, Some(5))]);
    }
    want.push(("queue_depth", 0, None));
    assert_eq!(seen, want, "per-offer event order");
}
