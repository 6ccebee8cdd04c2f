//! Unified telemetry for the TAQ reproduction: structured events, a
//! metric registry, and pluggable sinks, shared by the middlebox core,
//! the discrete-event simulator, and the real-time testbed.
//!
//! Everything is hand-rolled (the build is fully offline), in the same
//! spirit as `taq-sim`'s own RNG. The design constraints, in order:
//!
//! 1. **Free when off.** A [`Telemetry`] handle with no sinks is a
//!    single `Option` check on the hot path; events are built inside
//!    closures that never run, and scoped timers skip the clock read.
//! 2. **One stream, three layers.** The [`Event`] taxonomy covers flow
//!    state transitions, classification, drops, admission, queue depth,
//!    and link/engine aggregates, so a simulator run and a testbed run
//!    produce directly comparable JSONL.
//! 3. **Sinks stay dumb.** A sink sees `(timestamp, &Event)` and
//!    nothing else; the ring buffer, JSONL writer, and summary table
//!    are each ~100 lines. An aggregating sink's `emit` runs once per
//!    event, millions of times a run, so the per-event rule is: no
//!    allocation, no formatting, no string-keyed lookup. Names resolve
//!    to a slot once ([`NameTable`], matched by pointer), counts live
//!    in fixed slots, and sorted, string-keyed views are built when
//!    somebody reads them.
//! 4. **One transport, one lock.** The hub owns its sinks. Every
//!    emission takes the hub mutex — and no other lock — and calls each
//!    sink in turn with it held, so every sink sees every event in
//!    emission order. A harness reads a sink back by checking it out of
//!    the hub through its [`SinkHandle`], which never holds the hub
//!    lock while the caller looks.
//!
//! ```
//! use taq_telemetry::{shared_sink, Event, RingBufferSink, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! // The erased half moves the sink into the hub; the typed half
//! // reads it back.
//! let (ring, erased) = shared_sink(RingBufferSink::new(64));
//! telemetry.add_shared_sink(erased);
//! telemetry.emit(5, || Event::PoolWaiting { src: 9 });
//! assert_eq!(ring.lock().unwrap().count("pool_waiting"), 1);
//! ```

mod event;
mod fx;
mod names;
mod registry;
mod sink;
mod value;

pub use event::{Event, FlowId};
pub use fx::{FxBuildHasher, FxHasher};
pub use names::NameTable;
pub use registry::{CounterId, GaugeId, HistogramId, LogHistogram, MetricRegistry};
pub use sink::{
    jsonl_event_kind, shared_sink, JsonlSink, RingBufferSink, SharedSink, SinkCheckedOut,
    SinkGuard, SinkHandle, SummarySink, SummaryStats, TelemetrySink,
};
pub use value::{ParseError, Value};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks the hub (or a shared sink's slot) even if an earlier holder
/// panicked. A sink that panics inside `emit` poisons the hub mutex,
/// which is held across the fan-out; telemetry must never take down the
/// data path, so the next per-packet `emit` takes the guard anyway. That
/// is sound here because sinks and the hub hold only counters and
/// buffers — the worst a torn update leaves behind is one miscounted
/// event, never invalid state.
fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One sink's place in the hub's fan-out.
struct Seat {
    /// `None` while the sink is checked out through its
    /// [`SinkHandle`](sink::SinkHandle).
    sink: Option<Box<dyn TelemetrySink>>,
    /// What was emitted while the sink was out, in emission order.
    missed: Vec<(u64, Event)>,
    /// A `flush` arrived while the sink was out.
    flush_missed: bool,
}

impl Seat {
    #[inline]
    fn emit(&mut self, at_ns: u64, event: &Event) {
        match &mut self.sink {
            Some(sink) => sink.emit(at_ns, event),
            None => self.missed.push((at_ns, event.clone())),
        }
    }

    fn flush(&mut self) {
        match &mut self.sink {
            Some(sink) => sink.flush(),
            None => self.flush_missed = true,
        }
    }
}

struct Hub {
    seats: Vec<Seat>,
    registry: MetricRegistry,
}

/// The shared half behind a [`Telemetry`] handle: the mutex-guarded hub
/// plus a lock-free mirror of "does any sink listen?" so the per-packet
/// `emit`/`scoped` calls on a sinkless hub cost one atomic load, not a
/// mutex acquisition.
struct HubShared {
    has_sinks: AtomicBool,
    hub: Mutex<Hub>,
}

impl HubShared {
    /// Appends a seat (empty when its sink is checked out right now)
    /// and returns its index.
    fn add_seat(&self, sink: Option<Box<dyn TelemetrySink>>) -> usize {
        let mut hub = lock_unpoisoned(&self.hub);
        hub.seats.push(Seat {
            sink,
            missed: Vec::new(),
            flush_missed: false,
        });
        self.has_sinks.store(true, Ordering::Release);
        hub.seats.len() - 1
    }

    /// Takes the sink out of `seat`; `None` if it is out already.
    fn check_out(&self, seat: usize) -> Option<Box<dyn TelemetrySink>> {
        lock_unpoisoned(&self.hub).seats[seat].sink.take()
    }

    /// Puts a checked-out sink back, first handing it what it missed.
    /// All under the hub lock, so no emission can slip between the
    /// replay and the sink being live again.
    fn check_in(&self, seat: usize, sink: Box<dyn TelemetrySink>) {
        let mut hub = lock_unpoisoned(&self.hub);
        let seat = &mut hub.seats[seat];
        // Seated before the replay: a sink that panics on a replayed
        // event is still at home for the next emission.
        let sink = seat.sink.insert(sink);
        for (at_ns, event) in seat.missed.drain(..) {
            sink.emit(at_ns, &event);
        }
        if std::mem::take(&mut seat.flush_missed) {
            sink.flush();
        }
    }
}

/// Cheaply clonable handle to a telemetry hub, or to nothing at all.
///
/// The disabled handle ([`Telemetry::disabled`], also the `Default`) is
/// what instrumented components hold when nobody is listening: every
/// operation short-circuits on one `Option` check, and event
/// constructors (passed as closures) are never invoked. Attaching is
/// explicit — components expose an `attach_telemetry`-style seam and
/// default to disabled, keeping the data path honest about its costs.
///
/// Handles are `Arc`-based and `Send`: a fully-wired hub (sinks and
/// all) can be built on one thread and moved into a sweep worker along
/// with the simulator that feeds it. Each run still drives its hub from
/// a single thread, so the mutex is uncontended; see DESIGN.md's
/// "Concurrency model".
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<HubShared>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("active", &self.is_active())
            .finish()
    }
}

impl Telemetry {
    /// An active hub with no sinks yet.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(HubShared {
                has_sinks: AtomicBool::new(false),
                hub: Mutex::new(Hub {
                    seats: Vec::new(),
                    registry: MetricRegistry::new(),
                }),
            })),
        }
    }

    /// The no-op handle: all emission paths reduce to an `Option`
    /// check.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// `true` when a hub is attached (it may still have zero sinks;
    /// metrics are recorded either way).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Locks the hub. The lock never crosses a user callback except the
    /// sink `emit`/`flush` calls, and sinks never call back into the
    /// hub, so this cannot deadlock (std mutexes are not reentrant).
    #[inline]
    fn hub(&self) -> Option<MutexGuard<'_, Hub>> {
        self.inner
            .as_ref()
            .map(|shared| lock_unpoisoned(&shared.hub))
    }

    /// Lock-free "would an emit reach anyone?" check — the fast path
    /// for the per-packet calls. `Acquire` pairs with the `Release`
    /// store in [`add_shared_sink`](Self::add_shared_sink); in the
    /// common single-threaded-per-run discipline it is simply a cached
    /// load. Public so hot paths can gate event *construction* (e.g.
    /// batching events for a deferred [`emit_batch`](Self::emit_batch))
    /// on the same check `emit` uses.
    #[inline]
    pub fn listening(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|shared| shared.has_sinks.load(Ordering::Acquire))
    }

    /// Attaches a sink nobody needs to read back. No-op on a disabled
    /// handle.
    pub fn add_sink<S: TelemetrySink>(&self, sink: S) {
        if let Some(shared) = &self.inner {
            shared.add_seat(Some(Box::new(sink)));
        }
    }

    /// Moves a shared sink into the hub (keep the typed half of
    /// [`shared_sink`] to inspect it later). On a disabled handle the
    /// sink stays where it is, still readable through its typed half.
    pub fn add_shared_sink(&self, sink: SharedSink) {
        if let Some(shared) = &self.inner {
            sink.seat_in(shared);
        }
    }

    /// Emits an event to every sink. The closure only runs when the
    /// handle is active *and* at least one sink is attached, so building
    /// the event costs nothing when telemetry is off or nobody listens.
    #[inline]
    pub fn emit(&self, at_ns: u64, build: impl FnOnce() -> Event) {
        if !self.listening() {
            return;
        }
        let event = build();
        if let Some(mut hub) = self.hub() {
            for seat in &mut hub.seats {
                seat.emit(at_ns, &event);
            }
        }
    }

    /// Emits a pre-built batch of timestamped events and clears the
    /// buffer. One hub lock covers the whole batch (each `emit` takes
    /// it once per event), so a hot path can gather the events one
    /// packet produces — gated on [`listening`](Self::listening) so
    /// nothing is built for nobody — and fan them out once, outside its
    /// own timed section. Every sink sees the batch in push order,
    /// exactly as if each event had been emitted individually.
    pub fn emit_batch(&self, events: &mut Vec<(u64, Event)>) {
        if self.listening() {
            if let Some(mut hub) = self.hub() {
                for seat in &mut hub.seats {
                    for (at_ns, event) in events.iter() {
                        seat.emit(*at_ns, event);
                    }
                }
            }
        }
        events.clear();
    }

    /// Sets several gauges under one hub lock (no-op when disabled) —
    /// the batched form of [`set_gauge`](Self::set_gauge) for callers
    /// refreshing a family of related gauges together.
    pub fn set_gauges(&self, values: &[(GaugeId, f64)]) {
        if let Some(mut hub) = self.hub() {
            for &(id, v) in values {
                hub.registry.set(id, v);
            }
        }
    }

    /// Flushes every sink (one that is checked out, when it returns).
    pub fn flush(&self) {
        if let Some(mut hub) = self.hub() {
            for seat in &mut hub.seats {
                seat.flush();
            }
        }
    }

    /// Registers (or finds) a counter. Returns a dead handle on a
    /// disabled hub — `inc` on it is a no-op.
    pub fn counter(&self, name: &'static str) -> CounterId {
        match self.hub() {
            Some(mut hub) => hub.registry.counter(name),
            None => MetricRegistry::new().counter(name),
        }
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&self, name: &'static str) -> GaugeId {
        match self.hub() {
            Some(mut hub) => hub.registry.gauge(name),
            None => MetricRegistry::new().gauge(name),
        }
    }

    /// Registers (or finds) a labeled gauge.
    pub fn gauge_with(&self, name: &'static str, labels: &[(&'static str, &str)]) -> GaugeId {
        match self.hub() {
            Some(mut hub) => hub.registry.gauge_with(name, labels),
            None => MetricRegistry::new().gauge_with(name, labels),
        }
    }

    /// Registers (or finds) a histogram.
    pub fn histogram(&self, name: &'static str) -> HistogramId {
        match self.hub() {
            Some(mut hub) => hub.registry.histogram(name),
            None => MetricRegistry::new().histogram(name),
        }
    }

    /// Registers (or finds) a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> HistogramId {
        match self.hub() {
            Some(mut hub) => hub.registry.histogram_with(name, labels),
            None => MetricRegistry::new().histogram_with(name, labels),
        }
    }

    /// Adds to a counter (no-op when disabled).
    #[inline]
    pub fn inc(&self, id: CounterId, by: u64) {
        if let Some(mut hub) = self.hub() {
            hub.registry.inc(id, by);
        }
    }

    /// Sets a gauge (no-op when disabled).
    #[inline]
    pub fn set_gauge(&self, id: GaugeId, v: f64) {
        if let Some(mut hub) = self.hub() {
            hub.registry.set(id, v);
        }
    }

    /// Records a histogram sample (no-op when disabled).
    #[inline]
    pub fn record(&self, id: HistogramId, v: u64) {
        if let Some(mut hub) = self.hub() {
            hub.registry.record(id, v);
        }
    }

    /// Starts a scoped wall-clock timer that records elapsed
    /// nanoseconds into `id` when dropped. The guard is inert — no
    /// clock reads at all — unless a hub with at least one sink is
    /// attached: the timers exist to profile the hot path for a
    /// listener, and two `Instant::now()` calls per packet are exactly
    /// the cost an idle deployment must not pay.
    #[inline]
    pub fn scoped(&self, id: HistogramId) -> ScopedTimer {
        ScopedTimer {
            // Clone the handle *before* reading the clock: the Arc
            // refcount bump is bookkeeping for the guard, not part of
            // the caller's measured window.
            armed: self.listening().then(|| {
                let handle = self.clone();
                (Instant::now(), handle, id)
            }),
        }
    }

    /// Reads a counter's current value (0 when disabled).
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match self.hub() {
            Some(hub) => hub.registry.counter_value(id),
            None => 0,
        }
    }

    /// Clones out a histogram's current state (empty when disabled).
    pub fn histogram_value(&self, id: HistogramId) -> LogHistogram {
        match self.hub() {
            Some(hub) => hub.registry.histogram_value(id),
            None => LogHistogram::new(),
        }
    }

    /// Serializes the whole metric registry (Null when disabled).
    pub fn metrics_snapshot(&self) -> Value {
        match self.hub() {
            Some(hub) => hub.registry.snapshot(),
            None => Value::Null,
        }
    }
}

/// Guard returned by [`Telemetry::scoped`]; records the elapsed time on
/// drop. Inert (no clock reads, no handle clone) when telemetry is
/// disabled or sinkless — the guard owns its handle only while someone
/// is listening, so callers holding `&mut self` state never need a
/// per-call `Telemetry` clone just to satisfy the borrow checker.
pub struct ScopedTimer {
    armed: Option<(Instant, Telemetry, HistogramId)>,
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((start, telemetry, id)) = self.armed.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            telemetry.record(id, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_active());
        let mut built = false;
        t.emit(0, || {
            built = true;
            Event::PoolWaiting { src: 1 }
        });
        assert!(!built, "event closure must not run when disabled");
        let c = t.counter("x");
        t.inc(c, 5);
        assert_eq!(t.counter_value(c), 0);
        let h = t.histogram("y");
        drop(t.scoped(h));
        assert_eq!(t.histogram_value(h).count(), 0);
        assert_eq!(t.metrics_snapshot(), Value::Null);
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let t = Telemetry::new();
        let (ring_a, erased) = shared_sink(RingBufferSink::new(8));
        t.add_shared_sink(erased);
        let (ring_b, erased) = shared_sink(RingBufferSink::new(8));
        t.add_shared_sink(erased);
        // Call order, not timestamp order, through `emit` and
        // `emit_batch` alike.
        t.emit(3, || Event::PoolAdmitted { src: 7 });
        t.emit_batch(&mut vec![
            (9, Event::PoolWaiting { src: 7 }),
            (1, Event::PoolWaiting { src: 7 }),
        ]);
        t.emit(2, || Event::PoolAdmitted { src: 7 });
        for ring in [ring_a, ring_b] {
            let ring = ring.lock().unwrap();
            assert_eq!(ring.count("pool_admitted"), 2);
            let stamps: Vec<u64> = ring.events().map(|(at, _)| *at).collect();
            assert_eq!(stamps, vec![3, 9, 1, 2]);
        }
    }

    #[test]
    fn wired_hub_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let t = Telemetry::new();
        t.add_sink(RingBufferSink::new(8));
        assert_send(&t);
        std::thread::scope(|s| {
            s.spawn(|| t.emit(1, || Event::PoolWaiting { src: 2 }));
        });
    }

    #[test]
    fn poisoned_sink_and_hub_keep_the_data_path_alive() {
        let t = Telemetry::new();
        let (summary, erased) = shared_sink(SummarySink::new());
        t.add_shared_sink(erased);
        t.emit(1, || Event::PoolWaiting { src: 1 });
        // A harness thread dies holding its typed guard, with the run
        // still emitting: unwinding returns the sink to its seat.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = summary.lock().unwrap();
                t.emit(2, || Event::PoolWaiting { src: 1 });
                panic!("harness assertion failed");
            })
            .join()
        });
        assert!(died.is_err());
        // The per-packet path carries on, and nothing counted is lost.
        t.emit_batch(&mut vec![(3, Event::PoolAdmitted { src: 1 })]);
        t.flush();
        let stats = summary.lock().expect("back in its seat").stats();
        assert_eq!(stats.pools_waited, 2);
        assert_eq!(stats.total_events(), 3);

        // A sink that panics inside `emit` poisons the hub (its lock is
        // held across the fan-out); the hub keeps serving regardless.
        struct Exploding;
        impl TelemetrySink for Exploding {
            fn emit(&mut self, _at_ns: u64, _event: &Event) {
                panic!("sink bug");
            }
        }
        let t = Telemetry::new();
        let (ring, erased) = shared_sink(RingBufferSink::new(4));
        t.add_shared_sink(erased);
        t.add_sink(Exploding);
        let died = std::thread::scope(|s| {
            s.spawn(|| t.emit(1, || Event::PoolWaiting { src: 1 }))
                .join()
        });
        assert!(died.is_err());
        let c = t.counter("pkts");
        t.inc(c, 2);
        assert_eq!(t.counter_value(c), 2, "the hub still serves metrics");
        assert_eq!(ring.lock().unwrap().total(), 1);
    }

    /// Logs what reaches it, flushes included.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl TelemetrySink for Recorder {
        fn emit(&mut self, at_ns: u64, event: &Event) {
            self.0.push(format!("{}@{at_ns}", event.kind()));
        }

        fn flush(&mut self) {
            self.0.push("flush".to_string());
        }
    }

    #[test]
    fn guards_of_two_sinks_are_held_together() {
        let t = Telemetry::new();
        let (a, erased) = shared_sink(RingBufferSink::new(8));
        t.add_shared_sink(erased);
        let (b, erased) = shared_sink(Recorder::default());
        t.add_shared_sink(erased);
        t.emit(1, || Event::PoolWaiting { src: 1 });
        // The repo benchmark's shape: both guards are temporaries of
        // one tuple expression, alive until the statement ends. A guard
        // that held the hub lock would deadlock on the second.
        let counts = (
            a.lock().expect("ring").total(),
            b.lock().expect("recorder").0.len(),
        );
        assert_eq!(counts, (1, 1));
    }

    #[test]
    fn checked_out_sink_catches_up_in_emission_order() {
        let t = Telemetry::new();
        let (away, erased) = shared_sink(Recorder::default());
        t.add_shared_sink(erased);
        let (home, erased) = shared_sink(Recorder::default());
        t.add_shared_sink(erased);
        t.emit(5, || Event::PoolWaiting { src: 1 });
        let want = [
            "pool_waiting@5",
            "pool_admitted@9",
            "pool_waiting@4",
            "pool_admitted@2",
            "flush",
            "pool_waiting@7",
        ];

        let guard = away.lock().unwrap();
        t.emit(9, || Event::PoolAdmitted { src: 1 });
        t.emit_batch(&mut vec![
            (4, Event::PoolWaiting { src: 1 }),
            (2, Event::PoolAdmitted { src: 1 }),
        ]);
        t.flush();
        // The seated sink saw each of them as it was emitted; the
        // checked-out one is exactly as the guard found it.
        assert_eq!(home.lock().unwrap().0, want[..5]);
        assert_eq!(guard.0, want[..1]);
        drop(guard);
        t.emit(7, || Event::PoolWaiting { src: 1 });

        assert_eq!(away.lock().unwrap().0, want);
        assert_eq!(home.lock().unwrap().0, want);
    }

    #[test]
    fn second_lock_of_a_checked_out_sink_is_an_error() {
        let t = Telemetry::new();
        let (ring, erased) = shared_sink(RingBufferSink::new(8));
        t.add_shared_sink(erased);
        let mut guard = ring.lock().unwrap();
        assert_eq!(ring.lock().err(), Some(SinkCheckedOut));
        assert!(SinkCheckedOut.to_string().contains("checked out"));
        // The guard is the sink itself, writable.
        guard.emit(1, &Event::PoolWaiting { src: 1 });
        drop(guard);
        assert_eq!(ring.lock().unwrap().total(), 1);
    }

    #[test]
    fn sink_outside_a_hub_stays_readable() {
        // Offered to a disabled handle: nothing owns it but its slot.
        let (ring, erased) = shared_sink(RingBufferSink::new(8));
        Telemetry::disabled().add_shared_sink(erased);
        assert_eq!(ring.lock().unwrap().total(), 0);
        assert_eq!(ring.lock().unwrap().total(), 0, "the guard put it back");

        // Attached while checked out: the seat collects until the guard
        // drops, and the sink then comes home to the hub.
        let t = Telemetry::new();
        let (ring, erased) = shared_sink(RingBufferSink::new(8));
        let guard = ring.lock().unwrap();
        t.add_shared_sink(erased);
        t.emit(1, || Event::PoolWaiting { src: 1 });
        drop(guard);
        t.emit(2, || Event::PoolWaiting { src: 1 });
        assert_eq!(ring.lock().unwrap().total(), 2);
        // The handle keeps the hub (and so the sink) alive by itself.
        drop(t);
        assert_eq!(ring.lock().unwrap().total(), 2);
    }

    #[test]
    fn scoped_timer_records() {
        let t = Telemetry::new();
        let (_ring, erased) = shared_sink(RingBufferSink::new(1));
        t.add_shared_sink(erased);
        let h = t.histogram("latency_ns");
        {
            let _guard = t.scoped(h);
            std::hint::black_box(1 + 1);
        }
        let hist = t.histogram_value(h);
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn scoped_timer_inert_without_sinks() {
        // An attached hub with no sinks must not pay for clock reads:
        // the guard stays disarmed and the histogram stays empty.
        let t = Telemetry::new();
        let h = t.histogram("latency_ns");
        drop(t.scoped(h));
        assert_eq!(t.histogram_value(h).count(), 0);
    }

    #[test]
    fn metrics_shared_across_clones() {
        let t = Telemetry::new();
        let t2 = t.clone();
        let c = t.counter("pkts");
        let c2 = t2.counter("pkts");
        assert_eq!(c, c2);
        t.inc(c, 2);
        t2.inc(c2, 3);
        assert_eq!(t.counter_value(c), 5);
    }
}
