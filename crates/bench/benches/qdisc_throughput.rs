//! Microbenchmark: enqueue/dequeue throughput of each discipline under a
//! steady multi-flow packet stream, plus the telemetry-overhead check —
//! TAQ with no telemetry attached vs an attached hub with no sinks vs a
//! live ring-buffer sink vs a live trace collector vs the summary sink
//! and trace collector together (the pair every attached run in the
//! repo carries). The "no sinks" column is the cost the instrumentation
//! adds to every deployment whether or not anyone is listening —
//! tracing included, since the trace collector is just another sink;
//! the bench *asserts* it stays under 3% over the detached baseline (one
//! retry to damp scheduler noise; `-- --ungated` prints it unchecked).
//! The fan-out rows after it time `Telemetry::emit` alone, per
//! emission, into one sink and into two.
//!
//! The ring-length ladder at the end holds 64 / 512 / 4096 single-packet
//! flows resident in TAQ (half of them in the Recovery class) and times
//! `dequeue` and an evicting `enqueue` against that standing population:
//! the rows are flat in the flow count when no per-packet decision walks
//! a class. The re-key ladder after it holds 64 / 512 / 4096 flows four
//! packets deep in BelowFairShare and alternates an enqueue to a live
//! flow with a dequeue, so every call re-keys the flow's entries in the
//! class's two victim heaps and nothing evicts: it prices the heap
//! update alone, growing with the heaps' depth.
//!
//! Every ladder asserts its own set-up (buffer exactly full, half
//! classified Recovery, every enqueue evicted, every call re-keys), so
//! a run checks the scenarios as well as timing them.
//!
//! Run with `cargo bench -p taq-bench --bench qdisc_throughput`.

use std::time::{Duration, Instant};
use taq::{QueueClass, TaqConfig, TaqPair};
use taq_bench::{measure, Discipline};
use taq_sim::{
    Bandwidth, FlowKey, NodeId, Packet, PacketArena, PacketBuilder, PacketId, Qdisc, SimTime,
};
use taq_telemetry::{shared_sink, Event, FlowId, RingBufferSink, SummarySink, Telemetry};
use taq_trace::{TraceCollector, TraceConfig};
use taq_workloads::BuiltPipe;

fn packets(n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let mut p = PacketBuilder::new(FlowKey {
                src: NodeId(0),
                src_port: 80,
                dst: NodeId(1),
                dst_port: (i % 64) as u16 + 1_000,
            })
            .seq(1 + (i as u64 / 64) * 460)
            .payload(460)
            .build();
            p.id = i as u64;
            p
        })
        .collect()
}

/// One batch: 1 000 packets enqueued with a dequeue every third tick,
/// then a full drain.
fn drive(mut built: BuiltPipe, pkts: Vec<Packet>) {
    let mut arena = PacketArena::new();
    let mut t = 0u64;
    for pkt in pkts {
        t += 4_000_000; // 4 ms per packet at 1 Mbps.
        let now = SimTime::from_nanos(t);
        let id = arena.insert(pkt);
        for victim in built.forward.enqueue(id, &mut arena, now).dropped {
            arena.remove(victim);
        }
        if t.is_multiple_of(3) {
            if let Some(out) = built.forward.dequeue(&mut arena, now) {
                arena.remove(out);
            }
        }
    }
    while let Some(out) = built.forward.dequeue(&mut arena, SimTime::from_nanos(t)) {
        arena.remove(out);
    }
}

fn bench_discipline(d: Discipline, suffix: &str, telemetry: Option<&Telemetry>) -> f64 {
    let label = format!("{}{suffix}/batch_1000", d.name());
    measure(&label, 10, 60, || {
        let built = d.spec(64).build(Bandwidth::from_mbps(1), 1);
        if let (Some(t), Some(state)) = (telemetry, &built.taq) {
            state.lock().unwrap().attach_telemetry(t.clone());
        }
        drive(built, packets(1_000));
    })
}

/// Mean ns per `Telemetry::emit` of a `classified` event (one per
/// bottleneck packet in a run) into whatever sinks `telemetry` holds:
/// the hub lock and the fan-out, with no qdisc under them.
fn emit_ns(label: &str, telemetry: &Telemetry) -> f64 {
    const EMITS: u32 = 100_000;
    let per_batch = measure(label, 2, 20, || {
        for i in 0..u64::from(EMITS) {
            telemetry.emit(i, || Event::Classified {
                packet: i,
                flow: FlowId {
                    src: 1,
                    src_port: 80,
                    dst: 2,
                    dst_port: i as u16,
                },
                class: "BelowFairShare",
                retransmission: false,
            });
        }
    });
    per_batch / f64::from(EMITS)
}

/// A TAQ forward queue with a standing population of `flows` flows,
/// driven through the public `Qdisc` interface only.
struct Resident {
    taq: TaqPair,
    arena: PacketArena,
    now_ns: u64,
    /// Next never-used flow number.
    next_flow: u32,
}

impl Resident {
    fn with_config(cfg: TaqConfig, flows: u32) -> Resident {
        Resident {
            taq: TaqPair::new(cfg),
            arena: PacketArena::new(),
            now_ns: 0,
            next_flow: flows,
        }
    }

    /// Single-packet flows in a buffer of exactly `flows` packets, half
    /// of them classified Recovery.
    fn new(flows: u32) -> Resident {
        let mut cfg = TaqConfig::for_link(Bandwidth::from_mbps(10));
        cfg.buffer_pkts = flows as usize;
        cfg.newflow_cap_pkts = flows as usize;
        let mut r = Resident::with_config(cfg, flows);
        let half = flows / 2;
        // Each flow of the first half sends three segments into a
        // buffer that holds two apiece: the third makes it the deepest
        // backlog, so the eviction takes its own head and the queue
        // owes every one of them a repair.
        for seg in 0..3 {
            for f in 0..half {
                let pkt = r.segment(f, 1 + seg * 460);
                r.enqueue(pkt);
            }
        }
        while let Some(out) = r.dequeue() {
            r.arena.remove(out);
        }
        // The repairs ride the Recovery class; the second half are
        // first packets of fresh flows.
        for f in 0..flows {
            let pkt = r.segment(f, 1);
            r.enqueue(pkt);
        }
        assert_eq!(r.taq.forward.len(), flows as usize, "buffer exactly full");
        let in_recovery = r
            .taq
            .state
            .lock()
            .unwrap()
            .stats
            .class_count(QueueClass::Recovery);
        assert_eq!(in_recovery, u64::from(half), "half classified Recovery");
        r
    }

    /// Four packets per flow in a buffer with room for one more, in
    /// plain-FQ mode: every flow classifies BelowFairShare, the one
    /// class that keeps both victim heaps.
    fn backlogged(flows: u32) -> Resident {
        let mut cfg = TaqConfig::for_link(Bandwidth::from_mbps(10));
        cfg.fq_mode = true;
        cfg.buffer_pkts = 4 * flows as usize + 1;
        let mut r = Resident::with_config(cfg, flows);
        for seg in 0..4 {
            for f in 0..flows {
                let pkt = r.segment(f, 1 + seg * 460);
                r.enqueue(pkt);
            }
        }
        assert_eq!(
            r.taq.forward.len(),
            4 * flows as usize,
            "four packets per flow"
        );
        r
    }

    fn key(flow: u32) -> FlowKey {
        FlowKey {
            src: NodeId(0),
            src_port: (flow >> 16) as u16,
            dst: NodeId(1),
            dst_port: flow as u16,
        }
    }

    fn segment(&mut self, flow: u32, seq: u64) -> PacketId {
        self.arena.insert(
            PacketBuilder::new(Self::key(flow))
                .seq(seq)
                .payload(460)
                .build(),
        )
    }

    /// One microsecond per operation: the whole set-up and measurement
    /// sit inside one tracker epoch.
    fn tick(&mut self) -> SimTime {
        self.now_ns += 1_000;
        SimTime::from_nanos(self.now_ns)
    }

    fn enqueue(&mut self, pkt: PacketId) {
        let now = self.tick();
        for victim in self.taq.forward.enqueue(pkt, &mut self.arena, now).dropped {
            self.arena.remove(victim);
        }
    }

    fn dequeue(&mut self) -> Option<PacketId> {
        let now = self.tick();
        self.taq.forward.dequeue(&mut self.arena, now)
    }
}

/// Mean ns per `dequeue` and per evicting `enqueue` with `flows` flows
/// resident. Each block rebuilds the population, times `flows / 8`
/// enqueues of never-seen flows (each evicts one NewFlow packet, so the
/// population stands) and then as many dequeues, so the class lists stay
/// within an eighth of their nominal length while timed.
fn resident_row(flows: u32) -> (f64, f64) {
    let batch = flows / 8;
    let blocks = 65_536 / flows;
    let (mut enq, mut deq) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..blocks {
        let mut r = Resident::new(flows);
        let arrivals: Vec<PacketId> = (0..batch)
            .map(|_| {
                r.next_flow += 1;
                r.segment(r.next_flow, 1)
            })
            .collect();
        let start = Instant::now();
        for pkt in arrivals {
            r.enqueue(pkt);
        }
        enq += start.elapsed();
        assert_eq!(r.taq.forward.len(), flows as usize, "every enqueue evicted");
        let start = Instant::now();
        for _ in 0..batch {
            let out = r.dequeue().expect("resident");
            r.arena.remove(out);
        }
        deq += start.elapsed();
    }
    let per_op = |d: Duration| d.as_nanos() as f64 / f64::from(batch * blocks);
    let (deq, enq) = (per_op(deq), per_op(enq));
    println!("taq/resident_{flows:<5} {deq:>10.0} ns/dequeue {enq:>10.0} ns/evicting enqueue");
    (deq, enq)
}

/// Mean ns per call with `flows` flows four packets deep in
/// BelowFairShare. An enqueue to each flow in turn alternates with a
/// dequeue, which serves the flow just pushed, so every call re-keys a
/// live flow in both victim heaps and nothing drains, migrates or
/// evicts.
fn rekey_row(flows: u32) -> f64 {
    const PAIRS: u32 = 32_768;
    let rounds = PAIRS / flows;
    let mut r = Resident::backlogged(flows);
    let mut served = Vec::with_capacity(flows as usize);
    let mut elapsed = Duration::ZERO;
    for round in 0..rounds {
        let seq = 1 + u64::from(4 + round) * 460;
        let arrivals: Vec<PacketId> = (0..flows).map(|f| r.segment(f, seq)).collect();
        let start = Instant::now();
        for pkt in arrivals {
            r.enqueue(pkt);
            served.push(r.dequeue().expect("backlogged"));
        }
        elapsed += start.elapsed();
        for (f, out) in (0..flows).zip(served.drain(..)) {
            assert_eq!(
                r.arena.remove(out).flow,
                Resident::key(f),
                "every call re-keys: the dequeue serves the flow just pushed"
            );
        }
    }
    let state = r.taq.state.lock().unwrap();
    assert_eq!(state.stats.dropped, 0, "nothing evicts");
    assert_eq!(
        state.stats.class_count(QueueClass::BelowFairShare),
        u64::from(4 * flows + rounds * flows),
        "every enqueue classified BelowFairShare"
    );
    let ns = elapsed.as_nanos() as f64 / f64::from(2 * rounds * flows);
    println!("taq/rekey_{flows:<5} {ns:>13.0} ns/call (enqueue and dequeue alternated)");
    ns
}

fn main() {
    println!("# qdisc_throughput — 1000-packet enqueue/dequeue batches");
    for d in [
        Discipline::DropTail,
        Discipline::Red,
        Discipline::Sfq,
        Discipline::Taq,
    ] {
        bench_discipline(d, "", None);
    }

    println!("# ring-length ladder (TAQ) — resident single-packet flows, half in Recovery");
    let rows = [64, 512, 4096].map(resident_row);
    println!(
        "# 4096 / 64 flows: dequeue x{:.2}, evicting enqueue x{:.2}",
        rows[2].0 / rows[0].0,
        rows[2].1 / rows[0].1
    );
    println!(
        "# re-key ladder (TAQ) — four-packet BelowFairShare flows, enqueue/dequeue alternated"
    );
    let rekey = [64, 512, 4096].map(rekey_row);
    println!("# 4096 / 64 flows: x{:.2} per call", rekey[2] / rekey[0]);

    println!("# telemetry overhead (TAQ) — acceptance bar: nosink < 3% over detached");
    let mut baseline = bench_discipline(Discipline::Taq, "", None);
    // A hub with no sinks: every emission is one atomic load and its
    // event closure never runs. This is the tracing-disabled path: a
    // TraceCollector never attached costs the same single atomic check
    // as any other absent sink.
    let nosink = Telemetry::new();
    let mut nosink_ns = bench_discipline(Discipline::Taq, "+hub_nosink", Some(&nosink));
    // A live ring sink: full event construction and delivery.
    let live = Telemetry::new();
    let (_ring, erased) = shared_sink(RingBufferSink::new(1 << 14));
    live.add_shared_sink(erased);
    let live_ns = bench_discipline(Discipline::Taq, "+ring_sink", Some(&live));
    // A live trace collector: spans assembled from the same stream.
    let traced = Telemetry::new();
    let (_collector, erased) = shared_sink(TraceCollector::new(TraceConfig::default()));
    traced.add_shared_sink(erased);
    let traced_ns = bench_discipline(Discipline::Taq, "+trace_collector", Some(&traced));
    // What an attached run actually carries: both at once.
    let both = Telemetry::new();
    both.add_sink(SummarySink::new());
    both.add_sink(TraceCollector::new(TraceConfig::default()));
    let both_ns = bench_discipline(Discipline::Taq, "+summary+trace", Some(&both));

    let pct = |x: f64, base: f64| (x / base - 1.0) * 100.0;
    println!(
        "# overhead: nosink {:+.2}%   live ring sink {:+.2}%   live trace {:+.2}%   summary+trace {:+.2}%",
        pct(nosink_ns, baseline),
        pct(live_ns, baseline),
        pct(traced_ns, baseline),
        pct(both_ns, baseline)
    );

    println!("# emit fan-out — 100 000 classified events per batch");
    let one = Telemetry::new();
    one.add_sink(SummarySink::new());
    let one_ns = emit_ns("emit/summary", &one);
    let two_ns = emit_ns("emit/summary+trace", &both);
    println!("# per emission: one sink {one_ns:.1} ns   two sinks {two_ns:.1} ns");

    // The disabled-path budget is a tracked acceptance criterion, not
    // just a printout. Microbenchmark noise can fake a failure, so one
    // clean re-measure of both sides earns a second opinion. A shared
    // runner swings further than the budget between phases, so the
    // scripted run (`scripts/verify.sh execution_conformance`) passes
    // `--ungated`: the set-up asserts above still hold it, the timing
    // is printed and not checked.
    if std::env::args().any(|arg| arg == "--ungated") {
        let overhead = pct(nosink_ns, baseline);
        println!("# disabled-path overhead {overhead:+.2}% (ungated)");
        return;
    }
    if pct(nosink_ns, baseline) >= 3.0 {
        println!("# nosink over budget; re-measuring once to rule out noise");
        baseline = bench_discipline(Discipline::Taq, "", None);
        nosink_ns = bench_discipline(Discipline::Taq, "+hub_nosink", Some(&nosink));
    }
    let overhead = pct(nosink_ns, baseline);
    assert!(
        overhead < 3.0,
        "telemetry-disabled overhead {overhead:+.2}% breaches the <3% budget"
    );
    println!("# disabled-path overhead {overhead:+.2}% — within the <3% budget");
}
