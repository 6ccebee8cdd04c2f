//! Microbenchmark: enqueue/dequeue throughput of each discipline under a
//! steady multi-flow packet stream, plus the telemetry-overhead check —
//! TAQ with no telemetry attached vs an attached hub with no sinks vs a
//! live ring-buffer sink vs a live trace collector. The "no sinks"
//! column is the cost the instrumentation adds to every deployment
//! whether or not anyone is listening — tracing included, since the
//! trace collector is just another sink; the bench *asserts* it stays
//! under 3% over the detached baseline (one retry to damp scheduler
//! noise).
//!
//! Run with `cargo bench --bench qdisc_throughput`.

use taq_bench::{measure, Discipline};
use taq_sim::{Bandwidth, FlowKey, NodeId, Packet, PacketArena, PacketBuilder, SimTime};
use taq_telemetry::{shared_sink, RingBufferSink, Telemetry};
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

    println!("# telemetry overhead (TAQ) — acceptance bar: nosink < 3% over detached");
    let mut baseline = bench_discipline(Discipline::Taq, "", None);
    // A hub with no sinks: handles are registered but event closures are
    // skipped; only the latency histograms are recorded. This is the
    // tracing-disabled path: a TraceCollector never attached costs the
    // same single atomic check as any other absent sink.
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

    let pct = |x: f64, base: f64| (x / base - 1.0) * 100.0;
    println!(
        "# overhead: nosink {:+.2}%   live ring sink {:+.2}%   live trace {:+.2}%",
        pct(nosink_ns, baseline),
        pct(live_ns, baseline),
        pct(traced_ns, baseline)
    );

    // The disabled-path budget is a tracked acceptance criterion, not
    // just a printout. Microbenchmark noise can fake a failure, so one
    // clean re-measure of both sides earns a second opinion.
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
