//! Tracing determinism: attaching the packet-lifecycle tracer neither
//! perturbs a run nor produces scheduling-dependent output.
//!
//! Two properties are pinned:
//!
//! 1. **Observation is free of side effects** — a traced run's
//!    `FlowLog` records and `TaqStats` counters are byte-identical to
//!    the same (seed, config) run with telemetry fully disabled.
//! 2. **The trace itself is deterministic** — the full span dump
//!    (every packet lifecycle through the bottleneck, plus the
//!    sim-time series) is byte-identical across sweep thread counts
//!    (1/2/4).

use taq_bench::{sweep_seeds, Discipline};
use taq_faults::{FaultPlan, GilbertElliott};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime, TelemetryBridge};
use taq_tcp::FlowRecord;
use taq_telemetry::{shared_sink, Telemetry};
use taq_trace::{TraceCollector, TraceConfig};
use taq_workloads::DumbbellSpec;

struct TracedRun {
    records: Vec<FlowRecord>,
    taq: taq::TaqStats,
    /// Full JSONL span dump; empty for untraced runs.
    dump: String,
}

/// Runs the faulty bulk-flow workload, optionally with the tracer
/// riding the bottleneck, and returns every comparable output.
fn run_traced(seed: u64, traced: bool) -> TracedRun {
    let rate = Bandwidth::from_kbps(400);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, seed);
    let plan = FaultPlan::none()
        .with_burst_loss(GilbertElliott::bursts(0.02, 6.0))
        .with_duplicate(0.02);
    let mut spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).faults(plan);

    let collector = if traced {
        let telemetry = Telemetry::new();
        let (collector, erased) = shared_sink(TraceCollector::new(TraceConfig::default()));
        telemetry.add_shared_sink(erased);
        if let Some(state) = &built.taq {
            state.lock().unwrap().attach_telemetry(telemetry.clone());
        }
        spec = spec.telemetry(telemetry.clone());
        Some((telemetry, collector))
    } else {
        None
    };

    let mut sc = spec.build_with_reverse(seed, built.forward, built.reverse);
    if let Some((telemetry, _)) = &collector {
        let bridge = TelemetryBridge::new(telemetry.clone()).only(sc.db.bottleneck);
        sc.sim.add_monitor(Box::new(bridge));
    }
    sc.add_bulk_clients(10, 40_000, SimDuration::from_secs(1));
    sc.run_until(SimTime::from_secs(40));

    let records = sc.log.lock().unwrap().records.clone();
    let taq = built.taq.expect("taq run").lock().unwrap().stats.clone();
    let dump = match &collector {
        Some((telemetry, collector)) => {
            telemetry.flush();
            collector.lock().unwrap().dump_string()
        }
        None => String::new(),
    };
    TracedRun { records, taq, dump }
}

/// Property 1: the tracer is a pure observer. Same seeds, with and
/// without the collector attached — the flow log and the TAQ counters
/// must not move by a single byte.
#[test]
fn tracing_leaves_flow_log_and_taq_stats_byte_identical() {
    for seed in [3u64, 11] {
        let plain = run_traced(seed, false);
        let traced = run_traced(seed, true);
        assert!(
            !plain.records.is_empty() && plain.taq.offered > 0,
            "seed {seed} produced work"
        );
        assert_eq!(
            plain.records, traced.records,
            "seed {seed}: tracing perturbed the flow log"
        );
        assert_eq!(
            plain.taq, traced.taq,
            "seed {seed}: tracing perturbed TaqStats"
        );
        // And the observation was real, not a disabled hub.
        assert!(
            traced.dump.contains(r#""record":"span""#),
            "seed {seed}: traced run produced no spans"
        );
    }
}

/// Property 2: the span dump is a function of (seed, config) only —
/// byte-identical across sweep thread counts.
#[test]
fn span_dump_is_byte_identical_across_threads() {
    let seeds = [3u64, 11];
    let reference: Vec<String> = seeds
        .iter()
        .map(|&seed| run_traced(seed, true).dump)
        .collect();
    for (dump, seed) in reference.iter().zip(seeds) {
        assert!(
            dump.contains(r#""record":"span""#),
            "seed {seed}: reference run produced no spans"
        );
    }
    // Distinct seeds genuinely differ — the comparisons below are not
    // between trivially identical dumps.
    assert_ne!(reference[0], reference[1]);

    for threads in [1usize, 2, 4] {
        let dumps = sweep_seeds(&seeds, threads, |seed| run_traced(seed, true).dump);
        for ((dump, expected), seed) in dumps.iter().zip(&reference).zip(seeds) {
            assert_eq!(
                dump, expected,
                "seed {seed} threads {threads}: span dump diverged"
            );
        }
    }
}
