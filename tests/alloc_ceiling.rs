//! The allocation ceiling: the simulator's per-event path does not
//! allocate, with or without telemetry sinks attached.
//!
//! Four inputs run under a counting `#[global_allocator]` scoped to
//! this test binary: the Figure 1 web-log replay through TAQ (flow
//! churn), the Figure 8 many-flow point (steady small-packet regime),
//! and the replay twice more with a hub wired everywhere (a
//! `TelemetryBridge` on every link and the TAQ state attached): once
//! with no sink on it, once with `SummarySink` + `TraceCollector`. The
//! sinkless run must match the detached one exactly, allocations
//! included: telemetry that nobody listens to costs nothing.
//! Allocations are charged against the run's second half only, so
//! one-time growth (event-queue slots, per-flow state, TCP windows) is
//! warmup and what is left is the steady state.
//!
//! A run is seeded and single-threaded and the counter is per thread,
//! so the steady-state count is a function of the code alone: no wall
//! clock, no host noise, the same number in debug and release. The test
//! asserts that by running every scenario twice and requiring equal
//! counts, and that determinism is what lets the ceiling sit in tier-1
//! rather than behind a tolerance band.
#![allow(unsafe_code)] // denied workspace-wide; `GlobalAlloc` has no safe form

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use taq_bench::Discipline;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime, TelemetryBridge};
use taq_telemetry::{SummarySink, Telemetry};
use taq_trace::{TraceCollector, TraceConfig};
use taq_workloads::{flows_for_fair_share, weblog, DumbbellSpec, BULK_BYTES};

thread_local! {
    /// Heap allocations made by this thread (alloc + realloc +
    /// alloc_zeroed calls; frees are not counted). Per thread so the
    /// test harness's own threads cannot reach the count; `const`-
    /// initialised and without a destructor, so reading it inside the
    /// allocator neither allocates nor outlives the thread's storage.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a thread-local side effect that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling for steady-state allocations per simulator event. The
/// per-event path itself is allocation-free (arena packets, SoA flow
/// slabs, reused scratch buffers, integer-only sinks, out-of-order
/// ranges merged in place); what remains at steady state follows
/// *losses*. Counted over the measured half:
///
/// - every enqueue that drops allocates its `EnqueueOutcome::dropped`
///   list — TAQ drops 9 206 packets on the replay and 2 493 on the
///   many-flow point, one per dropping enqueue (85 % and 98 % of the
///   residue);
/// - connection set-up and tear-down in the client hosts, and the flow
///   log's end-of-run flush (8 allocations for the many-flow point's
///   300 unfinished records — it completes none before), make up the
///   rest: 1 576 on the replay, 55 on the many-flow point;
/// - attached, the replay adds 3 596: the per-class `Vec` of each
///   sampled `queue_depth` event (about 3 000) and the trace
///   collector's windows and flight recorder.
///
/// That is 10 782, 2 548 and 14 378 allocations over 1 119 279, 60 707
/// and 1 119 279 steady-state events: 0.00963, 0.04197 and 0.01285 per
/// event on the three scenarios. While `TcpReceiver::insert_ooo` built a
/// fresh merged `Vec` for every out-of-order segment they were 24 320,
/// 3 406 and 27 916 (0.02173, 0.05611 and 0.02494 per event; 0.01882,
/// 0.04904 and 0.02161 while a cancelled timer still surfaced and
/// counted as an event, 13 % more events). The ceiling sits above that
/// residue and below what one new allocation per packet costs: a `Vec`
/// in `TaqState::enqueue_forward` reads 0.0995 on the replay, where
/// about one event in eleven is a bottleneck enqueue.
const ALLOCS_PER_EVENT_CEILING: f64 = 0.08;

#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Figure 1's campus trace scaled 24× down to 5 simulated minutes
    /// (same offered load per second, fewer requests) at 2 Mbps.
    WeblogChurn,
    /// Figure 8's many-flow point: 600 kbps at a 2 kbps fair share,
    /// 300 long-lived flows, 60 simulated seconds.
    ManyFlow,
}

/// What one run produced: the total event count, plus the allocation
/// and event deltas over the run's second half.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: u64,
    steady_allocs: u64,
    steady_events: u64,
}

/// What a run's telemetry hub carries.
#[derive(Debug, Clone, Copy)]
enum Wiring {
    /// No hub at all.
    Detached,
    /// A hub wired everywhere with no sink on it.
    Sinkless,
    /// A hub with both shipped aggregating sinks attached, what the
    /// repo benchmark's `weblog_attached` workload attaches.
    Attached,
}

impl Wiring {
    fn hub(self) -> Option<Telemetry> {
        match self {
            Wiring::Detached => None,
            Wiring::Sinkless => Some(Telemetry::new()),
            Wiring::Attached => {
                let telemetry = Telemetry::new();
                telemetry.add_sink(SummarySink::new());
                telemetry.add_sink(TraceCollector::new(TraceConfig::default()));
                Some(telemetry)
            }
        }
    }
}

/// Runs one scenario. `telemetry`, when given, is attached to the TAQ
/// state and, through a [`TelemetryBridge`] monitor, to every link, so
/// the sinks see the full per-packet enqueue/transmit/drop/deliver
/// stream and not just qdisc aggregates.
fn run(scenario: Scenario, telemetry: Option<&Telemetry>) -> Outcome {
    let rate = match scenario {
        Scenario::WeblogChurn => Bandwidth::from_mbps(2),
        Scenario::ManyFlow => Bandwidth::from_kbps(600),
    };
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, 42);
    if let (Some(t), Some(state)) = (telemetry, &built.taq) {
        state.lock().unwrap().attach_telemetry(t.clone());
    }
    let mut spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate));
    if let Some(t) = telemetry {
        spec = spec.telemetry(t.clone());
    }
    let mut sc = spec.build(42, built.forward);
    if let Some(t) = telemetry {
        sc.sim
            .add_monitor(Box::new(TelemetryBridge::new(t.clone())));
    }
    let run_end = match scenario {
        Scenario::WeblogChurn => {
            let cfg = weblog::WebLogConfig::campus_two_hour(24);
            let mut rng = SimRng::new(42 ^ 7);
            let log = weblog::generate(&cfg, &mut rng);
            for (_client, entries) in weblog::by_client(&log) {
                sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
            }
            SimTime::ZERO + cfg.duration + SimDuration::from_secs(60)
        }
        Scenario::ManyFlow => {
            let flows = flows_for_fair_share(rate, 2_000).clamp(4, 400);
            sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
            SimTime::from_secs(60)
        }
    };
    // First half = warmup. (`sc.run_until` also flushes unfinished
    // transfers, so the midpoint leg goes straight to the engine.)
    let mid = SimTime::from_nanos(run_end.as_nanos() / 2);
    sc.sim.run_until(mid);
    let mid_events = sc.sim.events_processed();
    let mid_allocs = allocs();
    sc.run_until(run_end);
    let events = sc.sim.events_processed();
    Outcome {
        events,
        steady_allocs: allocs() - mid_allocs,
        steady_events: events - mid_events,
    }
}

#[test]
fn steady_state_allocations_per_event_stay_under_the_ceiling() {
    let measure = |scenario: Scenario, wiring: Wiring| {
        let once = || run(scenario, wiring.hub().as_ref());
        let outcome = once();
        assert_eq!(
            outcome,
            once(),
            "{scenario:?} {wiring:?}: two runs of one input must count the same"
        );
        let rate = outcome.steady_allocs as f64 / outcome.steady_events as f64;
        println!(
            "{scenario:?} {wiring:?}: {} events, {} steady-state allocations over {} \
             steady-state events, {rate:.5} per event",
            outcome.events, outcome.steady_allocs, outcome.steady_events
        );
        assert!(
            rate <= ALLOCS_PER_EVENT_CEILING,
            "{scenario:?} {wiring:?}: {rate:.4} allocations per event in steady state \
             (ceiling {ALLOCS_PER_EVENT_CEILING}): something allocates on the per-event path"
        );
        outcome
    };
    let churn = measure(Scenario::WeblogChurn, Wiring::Detached);
    measure(Scenario::ManyFlow, Wiring::Detached);
    // Telemetry-off is free: a hub nobody listens to never builds an
    // event, so the run is the detached one, allocation for allocation.
    let sinkless = measure(Scenario::WeblogChurn, Wiring::Sinkless);
    assert_eq!(
        sinkless, churn,
        "a sinkless hub changed the event count or the steady-state allocations"
    );
    let attached = measure(Scenario::WeblogChurn, Wiring::Attached);
    // Telemetry observes, never steers: the same input takes exactly as
    // many simulator events with the sinks listening as without.
    assert_eq!(
        attached.events, churn.events,
        "attaching sinks changed the simulation"
    );
}
