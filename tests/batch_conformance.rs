//! Batch-execution conformance: the slot-batch drain in
//! `Simulator::run_until` and the batched qdisc drains are pure
//! mechanical optimizations — every observable must match the
//! one-event-at-a-time reference exactly.
//!
//! Two angles:
//!
//! - whole-engine: random topologies run to quiescence once through the
//!   batched `run_until` and once through a manual [`Simulator::step`]
//!   loop, comparing the full recorded event trace (order included),
//!   the flow log, per-link counters, TAQ statistics and the event
//!   count;
//! - qdisc-level: a TAQ pair under random enqueue/drain churn must hand
//!   out the identical packet sequence from `dequeue_batch` as from
//!   repeated `dequeue`, with identical end-of-run statistics.

use taq::{TaqConfig, TaqPair};
use taq_sim::{
    Bandwidth, EventRecorder, FlowKey, LinkStats, NodeId, PacketArena, PacketBuilder, PacketId,
    Qdisc, RecordedEvent, SimDuration, SimRng, SimTime,
};
use taq_tcp::FlowRecord;
use taq_workloads::{PipeSpec, QdiscSpec, TopologySpec};

/// Everything a serial run exposes, including the exact monitor trace.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<RecordedEvent>,
    records: Vec<FlowRecord>,
    links: Vec<LinkStats>,
    taq: Vec<Option<taq::TaqStats>>,
    processed: u64,
}

/// Draws a connected spanning tree over 3–5 routers with mixed
/// disciplines (TAQ included), kept small enough to run to quiescence
/// quickly.
fn random_spec(rng: &mut SimRng) -> TopologySpec {
    let routers = 3 + rng.next_below(3) as usize; // 3..=5
    let rates = [400u64, 600, 800];
    let delays = [10u64, 24, 48];
    let mut pipes = Vec::new();
    for i in 1..routers {
        let parent = rng.next_below(i as u64) as usize;
        let rate = Bandwidth::from_kbps(rates[rng.next_below(3) as usize]);
        let delay = SimDuration::from_millis(delays[rng.next_below(3) as usize]);
        let buffer = rate.packets_per(SimDuration::from_millis(200), 500).max(8);
        let qdisc = match rng.next_below(3) {
            0 => QdiscSpec::DropTail {
                buffer_pkts: buffer,
            },
            1 => QdiscSpec::Sfq {
                buffer_pkts: buffer,
            },
            _ => QdiscSpec::taq(buffer),
        };
        pipes.push(PipeSpec::new(parent, i, rate, delay, qdisc));
    }
    TopologySpec::new(routers, pipes)
}

/// Far enough out that every transfer in the fixture completes long
/// before it — both drivers run the event queue dry.
const HORIZON: SimTime = SimTime::from_secs(600);

/// Runs `spec` to quiescence and fingerprints it. When `batched`, the
/// engine's own `run_until` (the slot-batch drain) does all the work;
/// otherwise a manual `step` loop pre-drains the queue one event at a
/// time and `run_until` only performs the end-of-run bookkeeping
/// (client flush, clock advance) on an empty queue.
fn run_case(spec: &TopologySpec, batched: bool, seed: u64) -> Trace {
    let mut sc = spec.build(seed);
    let recorder = sc.sim.add_monitor(Box::new(EventRecorder::default()));
    for r in 1..spec.routers {
        sc.add_bulk_clients_at(r, 2, 150_000, SimDuration::from_secs(1));
    }
    if !batched {
        while sc.sim.step() {}
        assert!(
            sc.sim.now() < HORIZON,
            "fixture must quiesce before the horizon for the comparison to be fair"
        );
    }
    sc.run_until(HORIZON);
    let log = std::mem::take(&mut *sc.log.lock().unwrap());
    let links = (0..spec.pipes.len())
        .flat_map(|i| [sc.pipe_link(i), sc.pipe_reverse(i)])
        .map(|l| sc.sim.link_stats(l).clone())
        .collect();
    let taq = sc
        .taq_states
        .iter()
        .map(|s| s.as_ref().map(|s| s.lock().unwrap().stats.clone()))
        .collect();
    Trace {
        events: sc
            .sim
            .monitor::<EventRecorder>(recorder)
            .expect("recorder present")
            .events
            .clone(),
        records: log.records,
        links,
        taq,
        processed: sc.sim.events_processed(),
    }
}

#[test]
fn batched_run_matches_step_loop() {
    let mut rng = SimRng::new(0xBA7C4);
    for case in 0..3u64 {
        let spec = random_spec(&mut rng);
        let seed = 100 + case;
        let stepped = run_case(&spec, false, seed);
        let batched = run_case(&spec, true, seed);
        assert!(
            stepped.processed > 1_000,
            "case {case}: fixture too small to exercise batching ({} events)",
            stepped.processed
        );
        assert_eq!(
            stepped, batched,
            "case {case}: batched run diverged from step loop"
        );
    }
}

/// One scripted churn round: enqueue a burst, then drain some packets.
/// `DRAIN[i]` of 0 models a timer tick that only advances the clock.
const BURSTS: usize = 200;

fn key(port: u16) -> FlowKey {
    FlowKey {
        src: NodeId(1),
        src_port: 80,
        dst: NodeId(2),
        dst_port: port,
    }
}

fn data(arena: &mut PacketArena, port: u16, seq: u64, id: u64) -> PacketId {
    let mut p = PacketBuilder::new(key(port)).seq(seq).payload(460).build();
    p.id = id;
    arena.insert(p)
}

/// Drives one TAQ pair with the scripted churn, draining via `drain`,
/// and returns the dequeued packet ids in order plus the final stats.
fn churn_taq(
    drain: impl Fn(&mut taq::TaqQdisc, &mut PacketArena, SimTime, usize) -> Vec<PacketId>,
) -> (Vec<u64>, taq::TaqStats) {
    let mut cfg = TaqConfig::for_link(Bandwidth::from_kbps(600));
    cfg.buffer_pkts = 24;
    cfg.newflow_cap_pkts = 12;
    let pair = TaqPair::new(cfg);
    let mut q = pair.forward;
    let mut arena = PacketArena::new();
    let mut rng = SimRng::new(0xD0_D0);
    let mut next_id = 1u64;
    let mut out = Vec::new();
    for round in 0..BURSTS as u64 {
        let now = SimTime::from_millis(round * 7);
        let burst = 1 + rng.next_below(6);
        for _ in 0..burst {
            let port = 1000 + rng.next_below(8) as u16;
            let pkt = data(&mut arena, port, 1 + next_id * 460, next_id);
            next_id += 1;
            let outcome = q.enqueue(pkt, &mut arena, now);
            for dropped in outcome.dropped {
                arena.remove(dropped);
            }
        }
        let want = rng.next_below(8) as usize;
        for id in drain(&mut q, &mut arena, now, want) {
            out.push(arena.get(id).id);
            arena.remove(id);
        }
    }
    // Final full drain so both scripts see the queue empty.
    let now = SimTime::from_secs(60);
    loop {
        let got = drain(&mut q, &mut arena, now, 16);
        if got.is_empty() {
            break;
        }
        for id in got {
            out.push(arena.get(id).id);
            arena.remove(id);
        }
    }
    assert_eq!(q.len(), 0);
    let stats = pair.state.lock().unwrap().stats.clone();
    (out, stats)
}

#[test]
fn taq_dequeue_batch_matches_repeated_dequeue() {
    let (serial, serial_stats) = churn_taq(|q, arena, now, want| {
        let mut got = Vec::new();
        for _ in 0..want {
            match q.dequeue(arena, now) {
                Some(id) => got.push(id),
                None => break,
            }
        }
        got
    });
    let (batched, batched_stats) = churn_taq(|q, arena, now, want| {
        let mut got = Vec::new();
        q.dequeue_batch(arena, now, &mut got, want);
        got
    });
    assert!(
        serial.len() > 300,
        "churn script too light ({} packets forwarded)",
        serial.len()
    );
    assert_eq!(serial, batched, "dequeue_batch reordered the packet stream");
    assert_eq!(serial_stats, batched_stats, "stats diverged under batching");
}
