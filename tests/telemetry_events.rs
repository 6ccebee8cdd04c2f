//! The telemetry layer end-to-end: the exact transition sequence a
//! scripted flow produces, the completeness of a full simulation's JSONL
//! trace, and the agreement between the `telemetry_report` summary
//! aggregates and the raw event stream.

use taq::{FlowState, FlowTable, TaqConfig};
use taq_bench::{telemetry_report, TelemetryReportConfig};
use taq_sim::{Bandwidth, FlowKey, NodeId, PacketBuilder, SimTime};
use taq_telemetry::{
    jsonl_event_kind, shared_sink, AdmissionDecision, Event, FaultKind, QueueClass, RingBufferSink,
    Telemetry,
};

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

    use FlowState::*;
    let ring = ring.lock().unwrap();
    let transitions: Vec<(FlowState, FlowState, &str)> = ring
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
            (SlowStart, Normal, "active-epoch"),
            (Normal, ExplicitLossRecovery, "local-drop"),
            (ExplicitLossRecovery, TimeoutSilence, "silent-epoch"),
            (TimeoutSilence, TimeoutRecovery, "retransmit-after-silence"),
            (TimeoutRecovery, SlowStart, "active-epoch"),
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

/// The TAQ half of `telemetry_report` at seed 42 over the shortest
/// horizon whose trace holds every event kind the 60 s run writes, as
/// committed, with the engine summary's wall-clock fields zeroed.
const GOLDEN_TAQ_SEED42: &str = include_str!("golden/telemetry_taq_seed42.jsonl");

/// The JSONL trace is pinned byte for byte: every event kind, field
/// order and number formatting. When a change moves it on purpose, the
/// failing test writes the fresh trace under cargo's
/// `CARGO_TARGET_TMPDIR` and names it: copy that file over the golden
/// one and say why in CHANGES.md.
#[test]
fn telemetry_jsonl_matches_golden() {
    let cfg = TelemetryReportConfig::small_packet(42, SimTime::from_millis(1_200));
    let mut jsonl = String::new();
    for line in telemetry_report(&cfg).taq.jsonl {
        let line = if jsonl_event_kind(&line) == Some("engine_summary") {
            zero_field(&zero_field(&line, "wall_ns"), "virtual_time_rate")
        } else {
            line
        };
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    if jsonl == GOLDEN_TAQ_SEED42 {
        return;
    }
    let fresh =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_taq_seed42.jsonl");
    std::fs::write(&fresh, &jsonl).expect("write the fresh trace");
    let (mut got, mut want) = (jsonl.lines(), GOLDEN_TAQ_SEED42.lines());
    let mut line = 1;
    loop {
        match (got.next(), want.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => panic!(
                "the seed-42 TAQ trace differs from tests/golden/telemetry_taq_seed42.jsonl at line {line}\n  \
                 fresh:  {}\n  golden: {}\nfresh trace: {}",
                a.unwrap_or("<end of trace>"),
                b.unwrap_or("<end of file>"),
                fresh.display()
            ),
        }
    }
}

/// Every value of the four vocabularies renders to the name the JSONL
/// has always carried, through `name()`, `Display` and an event's JSON.
/// The golden run covers every state and class; this covers what it
/// cannot reach: fault kinds and a rejected SYN.
#[test]
fn vocabularies_render_their_names() {
    assert_eq!(
        FlowState::ALL.map(FlowState::name),
        [
            "SlowStart",
            "Normal",
            "ExplicitLossRecovery",
            "TimeoutSilence",
            "TimeoutRecovery",
            "ExtendedSilence",
            "DummySilence",
        ]
    );
    assert_eq!(
        QueueClass::ALL.map(QueueClass::name),
        [
            "Recovery",
            "NewFlow",
            "OverPenalized",
            "BelowFairShare",
            "AboveFairShare",
        ]
    );
    assert_eq!(
        AdmissionDecision::ALL.map(AdmissionDecision::name),
        ["admit", "reject"]
    );
    assert_eq!(
        FaultKind::ALL.map(FaultKind::name),
        [
            "burst_loss",
            "reorder",
            "duplicate",
            "corrupt",
            "blackout",
            "rate_change",
            "delay_change",
            "restart",
        ]
    );
    let terminal: Vec<_> = FaultKind::ALL
        .into_iter()
        .filter(|k| k.is_terminal())
        .collect();
    assert_eq!(
        terminal,
        [
            FaultKind::BurstLoss,
            FaultKind::Corrupt,
            FaultKind::Blackout
        ]
    );

    let field = |event: Event, field: &str| {
        let value = event.to_value(0);
        value
            .get(field)
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    for state in FlowState::ALL {
        assert_eq!(state.to_string(), state.name());
        let event = Event::FlowStateChanged {
            flow: taq_sim::telemetry_flow_id(&key()),
            from: state,
            to: state,
            trigger: "epoch-roll",
        };
        assert_eq!(field(event, "to").as_deref(), Some(state.name()));
    }
    for class in QueueClass::ALL {
        assert_eq!(class.to_string(), class.name());
        let event = Event::Classified {
            packet: 1,
            flow: taq_sim::telemetry_flow_id(&key()),
            class,
            retransmission: false,
        };
        assert_eq!(field(event, "class").as_deref(), Some(class.name()));
    }
    for decision in AdmissionDecision::ALL {
        assert_eq!(decision.to_string(), decision.name());
        let event = Event::Admission {
            src: 1,
            decision,
            loss_rate: 0.5,
        };
        assert_eq!(field(event, "decision").as_deref(), Some(decision.name()));
    }
    for kind in FaultKind::ALL {
        assert_eq!(kind.to_string(), kind.name());
        let event = Event::Fault {
            link: 0,
            kind,
            packet: None,
            flow: None,
            value: 0.0,
        };
        assert_eq!(field(event, "kind").as_deref(), Some(kind.name()));
    }
    let depth = Event::QueueDepth {
        pkts: 15,
        bytes: 7_500,
        per_class: [1, 2, 3, 4, 5],
    };
    assert!(depth.to_value(0).to_json().ends_with(
        r#""per_class":{"Recovery":1,"NewFlow":2,"OverPenalized":3,"BelowFairShare":4,"AboveFairShare":5}}"#
    ));
}

/// Replaces the number after `"key":` in one JSON line with `0`.
fn zero_field(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\":");
    let Some(at) = line.find(&tag) else {
        return line.to_string();
    };
    let start = at + tag.len();
    let len = line[start..].find([',', '}']).unwrap_or(line.len() - start);
    format!("{}0{}", &line[..start], &line[start + len..])
}
