//! The allocation ceiling: the simulator's per-event path does not
//! allocate, with or without telemetry sinks attached.
//!
//! Five inputs run under a counting `#[global_allocator]` scoped to
//! this test binary: the Figure 1 web-log replay through TAQ (flow
//! churn), the Figure 8 many-flow point (steady small-packet regime),
//! a few SACK flows over a lossy wire (SACK blocks on most ACKs), and
//! the replay twice more with a hub wired everywhere (a
//! `TelemetryBridge` on every link and the TAQ state attached): once
//! with no sink on it, once with `SummarySink` + `TraceCollector`. The
//! sinkless run must match the detached one exactly, allocations
//! included: telemetry that nobody listens to costs nothing.
//! Allocations are charged against the run's second half only, so
//! one-time growth (event-queue slots, per-flow state, TCP windows) is
//! warmup and what is left is the steady state.
//!
//! The same allocator also counts the heap bytes each thread holds, and
//! the many-flow point must end its run holding no more than a ceiling
//! per flow: what a flow costs is what bounds the flow count a run can
//! reach.
//!
//! A run is seeded and single-threaded and the counters are per
//! thread, so the steady-state count and the bytes held are a function
//! of the code alone: no wall clock, no host noise, the same number in
//! debug and release. The test asserts that by running every scenario
//! twice and requiring equal counts, and that determinism is what lets
//! the ceilings sit in tier-1 rather than behind a tolerance band.
#![allow(unsafe_code)] // denied workspace-wide; `GlobalAlloc` has no safe form

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use taq_bench::Discipline;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime, TelemetryBridge};
use taq_tcp::{TcpConfig, Variant};
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
    /// Heap bytes this thread holds: allocated minus freed, a realloc
    /// counting its size difference. Signed, since a thread may free
    /// what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Charges `calls` allocation calls and a change of `bytes` in the
/// bytes held to this thread.
fn count(calls: u64, bytes: i64) {
    ALLOCS.with(|n| n.set(n.get() + calls));
    LIVE.with(|n| n.set(n.get() + bytes));
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a thread-local side effect that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling for steady-state allocations per simulator event. The
/// per-event path itself is allocation-free (arena packets, SoA flow
/// slabs, one pooled cell per packet TAQ buffers, FIFO queues linked
/// through the arena, reused scratch buffers, integer-only sinks,
/// out-of-order ranges merged in place and held inline); what remains
/// at steady state follows *losses*. Counted over the measured half:
///
/// - every enqueue that drops allocates its `EnqueueOutcome::dropped`
///   list — TAQ drops 9 206 packets on the replay and 2 493 on the
///   many-flow point, one per dropping enqueue (99 % and 99.6 % of the
///   residue);
/// - connection set-up and tear-down in the client hosts (a client's
///   receiver lives in its connection slot, its first two out-of-order
///   ranges inline, so set-up boxes nothing), and the flow log's
///   end-of-run flush (8 allocations for the many-flow point's 300
///   unfinished records — it completes none before), make up the rest:
///   108 on the replay, 9 on the many-flow point;
/// - attached, the replay adds 227: the trace collector's windows and
///   flight recorder.
///
/// That is 9 314, 2 502 and 9 541 allocations over 1 119 279, 60 707
/// and 1 119 279 steady-state events: 0.00832, 0.04121 and 0.00852 per
/// event on the three scenarios. While each receiver kept its
/// out-of-order ranges in a `Vec` of its own and a scheduled request's
/// timer collected the due requests into a fresh `Vec`, they were
/// 10 060, 2 540 and 10 287 (0.00899, 0.04184 and 0.00919); while TAQ
/// kept a packet deque per flow and every FIFO link a buffer of its
/// own, growing as new flows first buffered, 10 316, 2 544 and 10 543;
/// while `TcpReceiver::insert_ooo` built a fresh merged `Vec` for every
/// out-of-order segment, 24 320, 3 406 and 27 916 (0.02173, 0.05611
/// and 0.02494). The ceiling sits above that residue and below what
/// one new allocation per packet costs: a `Vec` in
/// `TaqState::enqueue_forward` reads 0.0995 on the replay, where about
/// one event in eleven is a bottleneck enqueue. A buffer released and
/// regrown on every loss episode would show here too. The SACK point
/// makes 9 allocations over 67 298 steady-state events (0.00013);
/// while `TcpReceiver::sack_blocks` collected each ACK's blocks into a
/// `Vec` and `TcpSender::mark_sacked` rebuilt its scoreboard into a
/// fresh one for every block, 12 324 (0.18313).
const ALLOCS_PER_EVENT_CEILING: f64 = 0.08;

/// Ceiling for the heap bytes the many-flow point holds per flow at the
/// end of its run, everything the scenario built included (simulator,
/// TAQ state, hosts, flow log), 1 % above what it holds: 2 397. Each
/// bulk client is two allocations, its 152 B host (its one request
/// waited inline) and one 216 B connection slot with its receiver and
/// the receiver's first two out-of-order ranges inline; its two access
/// links are 144 B each with their FIFO inline; the server holds a
/// 264 B sender per connection and TAQ's flows share one packet pool.
/// While a client also kept a 96 B request queue and a 64 B range
/// buffer, each access link boxed its FIFO, and hosts and TCP
/// endpoints copied the TCP configuration and padded their optional
/// fields, it held 2 978; while every link carried a FIFO buffer and a
/// wire-loss rate and stream, and TAQ a packet deque per flow, 3 368;
/// while a client also grew a four-slot table, kept a port map and
/// boxed its receiver, 3 892. This ceiling refuses each of them.
const HELD_BYTES_PER_FLOW_CEILING: i64 = 2_420;

#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Figure 1's campus trace scaled 24× down to 5 simulated minutes
    /// (same offered load per second, fewer requests) at 2 Mbps.
    WeblogChurn,
    /// Figure 8's many-flow point: 600 kbps at a 2 kbps fair share,
    /// 300 long-lived flows, 60 simulated seconds.
    ManyFlow,
    /// SACK senders and receivers: 4 long-lived flows with windows of
    /// up to 20 segments over 2 Mbps and 5 % Bernoulli wire loss on the
    /// bottleneck, 60 simulated seconds. The flows fit the pipe, so the
    /// queue drops nothing, and a loss leaves holes for SACK blocks to
    /// report.
    Sack,
}

/// What one run produced: the total event count, plus the allocation
/// and event deltas over the run's second half.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: u64,
    steady_allocs: u64,
    steady_events: u64,
}

/// What a run holds: the heap bytes live at its end, counted from just
/// before its scenario was built, and the flows it ran (bulk flows, or
/// the replay's clients).
#[derive(Debug, PartialEq)]
struct Footprint {
    held_bytes: i64,
    flows: usize,
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
fn run(scenario: Scenario, telemetry: Option<&Telemetry>) -> (Outcome, Footprint) {
    let rate = match scenario {
        Scenario::WeblogChurn | Scenario::Sack => Bandwidth::from_mbps(2),
        Scenario::ManyFlow => Bandwidth::from_kbps(600),
    };
    let live_before = live_bytes();
    let mut spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate));
    if let Scenario::Sack = scenario {
        spec = spec.tcp(TcpConfig {
            variant: Variant::Sack,
            max_window_segments: 20,
            ..TcpConfig::default()
        });
    }
    if let Some(t) = telemetry {
        spec = spec.telemetry(t.clone());
    }
    let mut sc = spec.build(42, &Discipline::Taq.spec(spec.topo.buffer_pkts()));
    if let Some(t) = telemetry {
        let state = sc.taq_state(0).expect("TAQ state");
        state.lock().unwrap().attach_telemetry(t.clone());
        sc.sim
            .add_monitor(Box::new(TelemetryBridge::new(t.clone())));
    }
    let (flows, run_end) = match scenario {
        Scenario::WeblogChurn => {
            let cfg = weblog::WebLogConfig::campus_two_hour(24);
            let mut rng = SimRng::new(42 ^ 7);
            let log = weblog::generate(&cfg, &mut rng);
            let clients = weblog::by_client(&log);
            for entries in clients.values() {
                sc.add_scheduled_client(entries, 4, SimTime::ZERO);
            }
            (
                clients.len(),
                SimTime::ZERO + cfg.duration + SimDuration::from_secs(60),
            )
        }
        Scenario::ManyFlow => {
            let flows = flows_for_fair_share(rate, 2_000).clamp(4, 400);
            sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
            (flows, SimTime::from_secs(60))
        }
        Scenario::Sack => {
            let bottleneck = sc.db.bottleneck;
            sc.sim.set_link_loss(bottleneck, 0.05);
            sc.add_bulk_clients(4, BULK_BYTES, SimDuration::from_secs(2));
            (4, SimTime::from_secs(60))
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
    let outcome = Outcome {
        events,
        steady_allocs: allocs() - mid_allocs,
        steady_events: events - mid_events,
    };
    let footprint = Footprint {
        held_bytes: live_bytes() - live_before,
        flows,
    };
    (outcome, footprint)
}

#[test]
fn steady_state_allocations_per_event_stay_under_the_ceiling() {
    let measure = |scenario: Scenario, wiring: Wiring| {
        let once = || run(scenario, wiring.hub().as_ref());
        let first = once();
        assert_eq!(
            first,
            once(),
            "{scenario:?} {wiring:?}: two runs of one input must count the same"
        );
        let (outcome, footprint) = first;
        let rate = outcome.steady_allocs as f64 / outcome.steady_events as f64;
        println!(
            "{scenario:?} {wiring:?}: {} events, {} steady-state allocations over {} \
             steady-state events, {rate:.5} per event; {} B held at the end by {} flows",
            outcome.events,
            outcome.steady_allocs,
            outcome.steady_events,
            footprint.held_bytes,
            footprint.flows
        );
        assert!(
            rate <= ALLOCS_PER_EVENT_CEILING,
            "{scenario:?} {wiring:?}: {rate:.4} allocations per event in steady state \
             (ceiling {ALLOCS_PER_EVENT_CEILING}): something allocates on the per-event path"
        );
        (outcome, footprint)
    };
    let (churn, _) = measure(Scenario::WeblogChurn, Wiring::Detached);
    let (_, many) = measure(Scenario::ManyFlow, Wiring::Detached);
    measure(Scenario::Sack, Wiring::Detached);
    let per_flow = many.held_bytes / many.flows as i64;
    println!("ManyFlow Detached: {per_flow} held bytes per flow");
    assert!(
        per_flow <= HELD_BYTES_PER_FLOW_CEILING,
        "ManyFlow: {per_flow} B held per flow at the end of the run \
         (ceiling {HELD_BYTES_PER_FLOW_CEILING}): per-flow state grew"
    );
    // Telemetry-off is free: a hub nobody listens to never builds an
    // event, so the run is the detached one, allocation for allocation.
    let (sinkless, _) = measure(Scenario::WeblogChurn, Wiring::Sinkless);
    assert_eq!(
        sinkless, churn,
        "a sinkless hub changed the event count or the steady-state allocations"
    );
    let (attached, _) = measure(Scenario::WeblogChurn, Wiring::Attached);
    // Telemetry observes, never steers: the same input takes exactly as
    // many simulator events with the sinks listening as without.
    assert_eq!(
        attached.events, churn.events,
        "attaching sinks changed the simulation"
    );
}
