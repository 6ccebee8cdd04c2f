//! `bench_report` — the tracked hot-path benchmark. Writes
//! `BENCH_sim.json` with the numbers that bound experiment runtime.
//!
//! Two canonical scenarios:
//!
//! * **fig01_weblog_churn** — the Figure 1 campus web-log replay
//!   (scaled to 5 simulated minutes) with TAQ on the bottleneck. Heavy
//!   flow churn: exercises flow-id interning, table GC, and the NewFlow
//!   path.
//! * **fig08_manyflow** — the Figure 8 many-flow fairness point
//!   (600 kbps, 2 kbps fair share → 300 long-lived flows, 60 simulated
//!   seconds). Steady-state small-packet regime: exercises
//!   classification, the class rings, and eviction.
//!
//! Each scenario runs twice. The telemetry-off pass measures the hot
//! path exactly as experiments run it (wall-clock, events/second, best
//! of `--iters` runs). The telemetry-on pass attaches a metric registry
//! and reads the `taq_enqueue_ns` / `taq_classify_ns` histograms and the
//! peak sampled queue depth.
//!
//! Usage: `bench_report [--out PATH] [--iters N] [--no-baseline] [--check]`
//!
//! The emitted JSON carries a `baseline` section with the same
//! scenarios measured at the pre-overhaul commit (binary-heap event
//! queue, `HashMap<FlowKey, _>` state) so regressions are visible in
//! review; `--no-baseline` drops it (e.g. when re-baselining).
//!
//! A third row, **fig01_weblog_attached**, reruns the fig01 scenario
//! with `SummarySink` and `TraceCollector` on the hub, a
//! `TelemetryBridge` on every link and the TAQ state attached — the
//! configuration the repo benchmark's `weblog_attached` workload runs.
//!
//! `--check` turns the artifact into a gate: instead of rewriting the
//! report, the freshly measured scenarios are compared against the
//! committed one at `--out` and the process exits non-zero if any
//! scenario's events/s fell more than 10% below it. A missing
//! committed report skips the gate (first run on a new branch). Two
//! absolute gates ride along: steady-state allocations per event under
//! `ALLOC_EPSILON` on every scenario, and attached events/s over
//! sinkless events/s at or above `ATTACHED_RATIO_FLOOR`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use taq_bench::Discipline;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime, TelemetryBridge};
use taq_telemetry::{shared_sink, Event, SummarySink, Telemetry, TelemetrySink, Value};
use taq_trace::{TraceCollector, TraceConfig};
use taq_workloads::{flows_for_fair_share, weblog, DumbbellSpec, BULK_BYTES};

/// Heap allocations since process start (alloc + realloc + alloc_zeroed
/// calls; frees are not counted). Each scenario snapshots this counter
/// around the *run phase only* — scenario construction and workload
/// generation are excluded — so the delta divided by the event count is
/// the steady-state `allocs_per_event` metric. The arena/SoA hot path
/// is supposed to run allocation-free; the residue is one-time buffer
/// growth (event-queue slots, per-flow state) that amortizes to near
/// zero over millions of events, and a new allocation on the per-event
/// path shows up as a step change.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed side effect.
#[allow(unsafe_code)] // denied workspace-wide; `GlobalAlloc` has no safe form
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Sink tracking the maximum sampled queue depth.
struct PeakDepth {
    peak: u64,
}

impl TelemetrySink for PeakDepth {
    fn emit(&mut self, _at_ns: u64, event: &Event) {
        if let Event::QueueDepth { pkts, .. } = event {
            self.peak = self.peak.max(*pkts);
        }
    }
}

/// One scenario's measurements.
struct ScenarioResult {
    name: &'static str,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    ns_per_enqueue: f64,
    ns_per_classify: f64,
    ns_per_dequeue: f64,
    allocs_per_event: f64,
    peak_queue_depth: u64,
}

impl ScenarioResult {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("name", Value::Str(self.name.to_string())),
            ("wall_ms", Value::Float(self.wall_ms)),
            ("events", Value::UInt(self.events)),
            ("events_per_sec", Value::Float(self.events_per_sec)),
            ("ns_per_enqueue", Value::Float(self.ns_per_enqueue)),
            ("ns_per_classify", Value::Float(self.ns_per_classify)),
            ("ns_per_dequeue", Value::Float(self.ns_per_dequeue)),
            ("allocs_per_event", Value::Float(self.allocs_per_event)),
            ("peak_queue_depth", Value::UInt(self.peak_queue_depth)),
        ])
    }
}

/// What one scenario run produced: the total event count, plus the
/// allocation and event deltas over the run's second half. The halves
/// split the *steady state* from warmup: first-half growth (event-queue
/// slots, per-flow state, TCP windows) is one-time and scenario-sized,
/// while a second-half allocation is evidence of a per-event allocation
/// on the hot path.
struct RunOutcome {
    events: u64,
    steady_allocs: u64,
    steady_events: u64,
}

/// Runs one scenario body. `telemetry` is attached to the TAQ state
/// and, through a [`TelemetryBridge`] monitor, to every link — the
/// attached configuration observes the full per-packet
/// enqueue/transmit/drop/deliver stream, not just qdisc aggregates.
fn run_scenario(name: &str, telemetry: Option<&Telemetry>) -> RunOutcome {
    let rate = if name == "fig01_weblog_churn" {
        Bandwidth::from_mbps(2)
    } else {
        Bandwidth::from_kbps(600)
    };
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, 42);
    if let (Some(t), Some(state)) = (telemetry, &built.taq) {
        state.lock().unwrap().attach_telemetry(t.clone());
    }
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let mut spec = DumbbellSpec::new(topo);
    if let Some(t) = telemetry {
        spec = spec.telemetry(t.clone());
    }
    let mut sc = spec.build(42, built.forward);
    if let Some(t) = telemetry {
        sc.sim
            .add_monitor(Box::new(TelemetryBridge::new(t.clone())));
    }
    let run_end = match name {
        "fig01_weblog_churn" => {
            // Figure 1's campus trace, scaled 24× down to 5 simulated
            // minutes (same offered load per second, fewer requests).
            let cfg = weblog::WebLogConfig::campus_two_hour(24);
            let mut rng = SimRng::new(42 ^ 7);
            let log = weblog::generate(&cfg, &mut rng);
            for (_client, entries) in weblog::by_client(&log) {
                sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
            }
            SimTime::ZERO + cfg.duration + SimDuration::from_secs(60)
        }
        "fig08_manyflow" => {
            let flows = flows_for_fair_share(rate, 2_000).clamp(4, 400);
            sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
            SimTime::from_secs(60)
        }
        other => panic!("unknown scenario {other}"),
    };
    // First half = warmup; allocations are only charged against the
    // second half. (`sc.run_until` also flushes unfinished transfers,
    // so the midpoint leg goes straight to the engine.)
    let mid = SimTime::from_nanos(run_end.as_nanos() / 2);
    sc.sim.run_until(mid);
    let mid_events = sc.sim.events_processed();
    let mid_allocs = ALLOCS.load(Ordering::Relaxed);
    sc.run_until(run_end);
    let events = sc.sim.events_processed();
    RunOutcome {
        events,
        steady_allocs: ALLOCS.load(Ordering::Relaxed) - mid_allocs,
        steady_events: events - mid_events,
    }
}

/// Measures one scenario: best-of-`iters` telemetry-off pass for
/// wall-clock and throughput, one telemetry-on pass for histograms and
/// peak depth.
fn measure_scenario(name: &'static str, iters: u32) -> ScenarioResult {
    // Hot-path pass: telemetry fully detached, exactly as experiments run.
    let mut best_ns = f64::INFINITY;
    let mut least_alloc_rate = f64::INFINITY;
    let mut events = 0;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let outcome = run_scenario(name, None);
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64);
        events = outcome.events;
        least_alloc_rate = least_alloc_rate
            .min(outcome.steady_allocs as f64 / outcome.steady_events.max(1) as f64);
    }
    // Instrumented pass: histograms and depth samples.
    let telemetry = Telemetry::new();
    let (peak, erased) = shared_sink(PeakDepth { peak: 0 });
    telemetry.add_shared_sink(erased);
    let enq = telemetry.histogram("taq_enqueue_ns");
    let cls = telemetry.histogram("taq_classify_ns");
    let deq = telemetry.histogram("taq_dequeue_ns");
    run_scenario(name, Some(&telemetry));
    let enq_h = telemetry.histogram_value(enq);
    let cls_h = telemetry.histogram_value(cls);
    let deq_h = telemetry.histogram_value(deq);
    let result = ScenarioResult {
        name,
        wall_ms: best_ns / 1e6,
        events,
        events_per_sec: events as f64 / (best_ns / 1e9),
        ns_per_enqueue: enq_h.mean(),
        ns_per_classify: cls_h.mean(),
        ns_per_dequeue: deq_h.mean(),
        allocs_per_event: least_alloc_rate,
        peak_queue_depth: peak.lock().unwrap().peak,
    };
    println!(
        "{:<22} {:>10.1} ms  {:>9} events  {:>12.0} events/s  {:>8.0} ns/enq  {:>6.0} ns/cls  {:>6.0} ns/deq  {:>6.4} allocs/ev  depth {}",
        result.name,
        result.wall_ms,
        result.events,
        result.events_per_sec,
        result.ns_per_enqueue,
        result.ns_per_classify,
        result.ns_per_dequeue,
        result.allocs_per_event,
        result.peak_queue_depth
    );
    result
}

/// A hub with both shipped aggregating sinks attached — what the repo
/// benchmark's `weblog_attached` workload attaches. [`run_scenario`]
/// adds the rest of that configuration (the `TelemetryBridge` monitor
/// and `TaqState::attach_telemetry`).
fn attached_hub() -> Telemetry {
    let telemetry = Telemetry::new();
    telemetry.add_sink(SummarySink::new());
    telemetry.add_sink(TraceCollector::new(TraceConfig::default()));
    telemetry
}

/// Measures the fig01 workload with a live [`SummarySink`] and
/// [`TraceCollector`] attached — the observer-on configuration
/// experiments run when they want aggregates and packet spans. The
/// timed window runs to the flush: every event must have reached the
/// sinks before the clock stops.
fn measure_attached(iters: u32) -> ScenarioResult {
    let mut best_ns = f64::INFINITY;
    let mut least_alloc_rate = f64::INFINITY;
    let mut events = 0;
    for _ in 0..iters.max(1) {
        let telemetry = attached_hub();
        let start = Instant::now();
        let outcome = run_scenario("fig01_weblog_churn", Some(&telemetry));
        telemetry.flush();
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64);
        events = outcome.events;
        least_alloc_rate = least_alloc_rate
            .min(outcome.steady_allocs as f64 / outcome.steady_events.max(1) as f64);
    }
    // Untimed instrumented pass for the per-op histograms, so histogram
    // recording stays out of the timed pass. The sinks make the hub
    // listen (scoped timers only record with a sink attached) and match
    // the configuration the timed pass measures.
    let telemetry = attached_hub();
    let enq = telemetry.histogram("taq_enqueue_ns");
    let cls = telemetry.histogram("taq_classify_ns");
    let deq = telemetry.histogram("taq_dequeue_ns");
    run_scenario("fig01_weblog_churn", Some(&telemetry));
    let result = ScenarioResult {
        name: "fig01_weblog_attached",
        wall_ms: best_ns / 1e6,
        events,
        events_per_sec: events as f64 / (best_ns / 1e9),
        ns_per_enqueue: telemetry.histogram_value(enq).mean(),
        ns_per_classify: telemetry.histogram_value(cls).mean(),
        ns_per_dequeue: telemetry.histogram_value(deq).mean(),
        allocs_per_event: least_alloc_rate,
        peak_queue_depth: 0,
    };
    println!(
        "{:<22} {:>10.1} ms  {:>9} events  {:>12.0} events/s",
        result.name, result.wall_ms, result.events, result.events_per_sec
    );
    result
}

/// Dispatches a scenario name to its measurement routine — the
/// `--check` retry path re-measures by name.
fn measure_named(name: &'static str, iters: u32) -> ScenarioResult {
    if name == "fig01_weblog_attached" {
        measure_attached(iters)
    } else {
        measure_scenario(name, iters)
    }
}

/// Pre-overhaul numbers for the same scenarios, measured at the parent
/// commit of the hot-path overhaul (binary-heap event queue,
/// `HashMap<FlowKey, _>` flow state, per-call config/telemetry clones)
/// with this same binary, `--iters 5`, on the CI container class.
/// Fields: (name, wall_ms, events, events/s, ns/enqueue, ns/classify,
/// peak depth).
const BASELINE: &[(&str, f64, u64, f64, f64, f64, u64)] = &[
    (
        "fig01_weblog_churn",
        730.7,
        2_492_028,
        3_410_253.0,
        1056.0,
        41.0,
        100,
    ),
    (
        "fig08_manyflow",
        99.4,
        149_015,
        1_498_981.0,
        2811.0,
        55.0,
        30,
    ),
];

fn baseline_value() -> Value {
    let scenarios = BASELINE
        .iter()
        .map(|&(name, wall_ms, events, eps, enq, cls, depth)| {
            Value::object(vec![
                ("name", Value::Str(name.to_string())),
                ("wall_ms", Value::Float(wall_ms)),
                ("events", Value::UInt(events)),
                ("events_per_sec", Value::Float(eps)),
                ("ns_per_enqueue", Value::Float(enq)),
                ("ns_per_classify", Value::Float(cls)),
                ("peak_queue_depth", Value::UInt(depth)),
            ])
        })
        .collect();
    Value::object(vec![
        (
            "label",
            Value::Str("pre-overhaul: binary-heap queue, HashMap flow state".to_string()),
        ),
        ("scenarios", Value::Array(scenarios)),
    ])
}

/// Allowed per-metric drift vs the committed report before the gate
/// trips: generous enough for CI scheduling noise on a best-of-N
/// measurement, tight enough to catch a real hot-path regression.
const CHECK_TOLERANCE: f64 = 0.10;

/// Exit code for a throughput (events/s) regression.
const EXIT_THROUGHPUT: i32 = 2;
/// Exit code for a hot-path latency metric regression
/// (`ns_per_enqueue` / `ns_per_classify` / `ns_per_dequeue`). Distinct
/// from [`EXIT_THROUGHPUT`] so `verify.sh bench_gate` can say which
/// kind of metric moved without re-parsing the log.
const EXIT_LATENCY: i32 = 3;

/// Exit code for an allocation-rate failure: a scenario allocated more
/// than [`ALLOC_EPSILON`] times per event, meaning something started
/// allocating on the per-event path.
const EXIT_ALLOC: i32 = 4;

/// Exit code for an attached-path failure: the attached run fell below
/// [`ATTACHED_RATIO_FLOOR`] of the sinkless one.
const EXIT_ATTACHED_RATIO: i32 = 5;

/// Floor for `fig01_weblog_attached` events/s ÷ `fig01_weblog_churn`
/// events/s — the same input (2 495 130 events each), with and without
/// the sinks, measured in this one process, so the ratio does not swing
/// with the host the way either events/s figure does. Absolute, like
/// the allocation ceiling: the attached path has a budget (ROADMAP
/// item 3), not a drift band. Set about a tenth under the lowest ratio
/// measured at the last change that moved it (see CHANGES.md): PR 18
/// made the sinks allocation- and string-free (0.56–0.65, floor 0.50);
/// PR 19 made the sinkless run ~1.7× faster through the event queue,
/// which lowers the ratio with the sinks' cost per event unchanged
/// (0.41–0.53 over nine runs).
const ATTACHED_RATIO_FLOOR: f64 = 0.36;

/// Ceiling for steady-state `allocs_per_event` on every scenario
/// (second half of the run; warmup growth is excluded by
/// [`run_scenario`]). The per-event path itself is allocation-free
/// (arena packets, SoA flow slabs, reused scratch buffers); what
/// remains at steady state is per-*request* bookkeeping — flow-log
/// entries as transfers complete, roughly one allocation per ~20-50
/// events (measured 0.02-0.05). The ceiling sits above that residue
/// with headroom but far below 1.0, so a single new allocation on the
/// per-event path still fails loudly. Absolute, not relative to the
/// committed report: "started allocating per packet" is a bug class,
/// not a drift.
const ALLOC_EPSILON: f64 = 0.08;

/// One metric that fell outside tolerance on one scenario.
#[derive(Clone)]
struct Regression {
    scenario: &'static str,
    metric: &'static str,
}

/// The gated metrics: (field name, true when larger is better).
const GATED_METRICS: [(&str, bool); 4] = [
    ("events_per_sec", true),
    ("ns_per_enqueue", false),
    ("ns_per_classify", false),
    ("ns_per_dequeue", false),
];

fn metric_of(s: &ScenarioResult, metric: &str) -> f64 {
    match metric {
        "events_per_sec" => s.events_per_sec,
        "ns_per_enqueue" => s.ns_per_enqueue,
        "ns_per_classify" => s.ns_per_classify,
        "ns_per_dequeue" => s.ns_per_dequeue,
        other => unreachable!("ungated metric {other}"),
    }
}

/// The absolute allocation-rate gate (the attached scenario included:
/// neither `SummarySink` nor `TraceCollector` allocates per event).
/// Returns the offenders.
fn check_alloc_rate(scenarios: &[ScenarioResult]) -> Vec<&'static str> {
    let mut failing = Vec::new();
    for s in scenarios {
        let ok = s.allocs_per_event <= ALLOC_EPSILON;
        println!(
            "# --check {:<22} allocs_per_event {:>8.4} (ceiling {ALLOC_EPSILON}) {}",
            s.name,
            s.allocs_per_event,
            if ok { "ok" } else { "ALLOC REGRESSION" }
        );
        if !ok {
            failing.push(s.name);
        }
    }
    failing
}

/// The attached-path gate: attached events/s over sinkless events/s on
/// the fig01 input. `None` when either scenario is missing.
fn attached_ratio(scenarios: &[ScenarioResult]) -> Option<f64> {
    let eps = |name: &str| {
        scenarios
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.events_per_sec)
    };
    Some(eps("fig01_weblog_attached")? / eps("fig01_weblog_churn")?)
}

/// Compares fresh measurements against the committed report at `path`,
/// metric by metric, and returns every (scenario, metric) pair that
/// regressed past tolerance. Prints a before/after table either way.
/// Missing file: gate skipped — empty result (there is nothing to
/// regress against); unparseable file: gate fails (a corrupted baseline
/// should not pass silently).
fn check_against_committed(path: &str, scenarios: &[ScenarioResult]) -> Vec<Regression> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => {
            println!("# --check: no committed report at {path}; gate skipped");
            return Vec::new();
        }
    };
    let committed = match Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("# --check: {path} is not valid JSON ({e}); failing the gate");
            std::process::exit(1);
        }
    };
    let committed_metric = |name: &str, metric: &str| -> Option<f64> {
        committed
            .get("scenarios")?
            .as_array()?
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(name))?
            .get(metric)?
            .as_f64()
    };
    let mut failing = Vec::new();
    println!(
        "# --check {:<20} {:<16} {:>12} {:>12} {:>7}  verdict",
        "scenario", "metric", "committed", "fresh", "ratio"
    );
    for s in scenarios {
        for (metric, larger_is_better) in GATED_METRICS {
            let Some(base) = committed_metric(s.name, metric) else {
                println!(
                    "# --check {:<20} {:<16} not in committed report; skipped",
                    s.name, metric
                );
                continue;
            };
            let fresh = metric_of(s, metric);
            let ratio = if base > 0.0 { fresh / base } else { 1.0 };
            let regressed = if larger_is_better {
                ratio < 1.0 - CHECK_TOLERANCE
            } else {
                ratio > 1.0 + CHECK_TOLERANCE
            };
            let verdict = if regressed {
                failing.push(Regression {
                    scenario: s.name,
                    metric,
                });
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "# --check {:<20} {:<16} {:>12.0} {:>12.0} {:>6.2}x  {verdict}",
                s.name, metric, base, fresh, ratio
            );
        }
    }
    failing
}

/// The `--check` gate with a one-retry noise damper: a scenario that
/// regresses on the first measurement is re-measured from scratch, and
/// only a repeat offender fails the gate — a short scenario's wall
/// clock on a shared runner can dip well past the tolerance on a
/// single unlucky pass. Exits [`EXIT_LATENCY`] when any hot-path
/// latency metric regressed, [`EXIT_THROUGHPUT`] for throughput-only
/// regressions, so callers can report the failing metric class.
fn run_check_gate(path: &str, scenarios: Vec<ScenarioResult>, iters: u32) {
    let mut failing = check_against_committed(path, &scenarios);
    if !failing.is_empty() {
        println!("# --check: regression suspected; re-measuring once to rule out noise");
        let mut suspects: Vec<&'static str> = failing.iter().map(|r| r.scenario).collect();
        suspects.dedup();
        let rerun: Vec<ScenarioResult> = suspects
            .into_iter()
            .map(|name| measure_named(name, iters))
            .collect();
        failing = check_against_committed(path, &rerun);
    }
    let alloc_failing = check_alloc_rate(&scenarios);
    if !alloc_failing.is_empty() {
        eprintln!(
            "# --check: allocations-per-event exceeded {ALLOC_EPSILON} on {} — \
             something is allocating on the per-event path",
            alloc_failing.join(", ")
        );
        std::process::exit(EXIT_ALLOC);
    }
    let mut ratio = attached_ratio(&scenarios);
    if ratio.is_some_and(|r| r < ATTACHED_RATIO_FLOOR) {
        println!("# --check: attached ratio under its floor; re-measuring once to rule out noise");
        ratio = attached_ratio(&[
            measure_named("fig01_weblog_churn", iters),
            measure_named("fig01_weblog_attached", iters),
        ]);
    }
    if let Some(ratio) = ratio {
        let ok = ratio >= ATTACHED_RATIO_FLOOR;
        println!(
            "# --check attached/sinkless events/s {ratio:.3} (floor {ATTACHED_RATIO_FLOOR}) {}",
            if ok { "ok" } else { "ATTACHED-PATH REGRESSION" }
        );
        if !ok {
            eprintln!(
                "# --check: fig01_weblog_attached runs at {ratio:.3} of fig01_weblog_churn, \
                 under the {ATTACHED_RATIO_FLOOR} floor — the sinks or the emit path got slower"
            );
            std::process::exit(EXIT_ATTACHED_RATIO);
        }
    }
    if !failing.is_empty() {
        let summary: Vec<String> = failing
            .iter()
            .map(|r| format!("{}/{}", r.scenario, r.metric))
            .collect();
        let latency = failing.iter().any(|r| r.metric != "events_per_sec");
        eprintln!(
            "# --check: metrics drifted more than {:.0}% past {path} twice ({}); \
             if intentional, re-run bench_report to refresh the baseline",
            CHECK_TOLERANCE * 100.0,
            summary.join(", ")
        );
        std::process::exit(if latency {
            EXIT_LATENCY
        } else {
            EXIT_THROUGHPUT
        });
    }
    println!(
        "# --check passed (tolerance {:.0}%, per-metric)",
        CHECK_TOLERANCE * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().position(|a| a == name);
    let out_path = flag("--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let iters: u32 = flag("--iters")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let with_baseline = flag("--no-baseline").is_none();
    let check = flag("--check").is_some();

    println!("# bench_report — TAQ hot-path benchmark (best of {iters})");
    let scenarios = [
        measure_scenario("fig01_weblog_churn", iters),
        measure_scenario("fig08_manyflow", iters),
        measure_attached(iters),
    ];

    if check {
        run_check_gate(&out_path, scenarios.into(), iters);
        return;
    }

    let mut pairs = vec![
        ("schema", Value::Str("taq-bench-report-v1".to_string())),
        (
            "label",
            Value::Str("timer-wheel queue, interned flow ids".to_string()),
        ),
        ("iters", Value::UInt(u64::from(iters))),
        (
            "scenarios",
            Value::Array(scenarios.iter().map(ScenarioResult::to_value).collect()),
        ),
    ];
    if with_baseline {
        pairs.push(("baseline", baseline_value()));
        for s in &scenarios {
            if let Some(&(_, _, _, base_eps, ..)) =
                BASELINE.iter().find(|(name, ..)| *name == s.name)
            {
                println!(
                    "#   {}: {:.2}x events/s vs pre-overhaul baseline",
                    s.name,
                    s.events_per_sec / base_eps
                );
            }
        }
    }
    let json = Value::object(pairs).to_json();
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("# wrote {out_path}");
}
