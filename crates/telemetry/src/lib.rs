//! Unified telemetry for the TAQ reproduction: structured events and
//! pluggable sinks, shared by the middlebox core, the discrete-event
//! simulator, and the real-time testbed.
//!
//! Everything is hand-rolled (the build is fully offline), in the same
//! spirit as `taq-sim`'s own RNG. The design constraints, in order:
//!
//! 1. **Free when off.** A [`Telemetry`] handle with no sinks is a
//!    single `Option` check on the hot path; events are built inside
//!    closures that never run.
//! 2. **One stream, three layers.** The [`Event`] taxonomy covers flow
//!    state transitions, classification, drops, admission, queue depth,
//!    and link/engine aggregates, so a simulator run and a testbed run
//!    produce directly comparable JSONL.
//! 3. **Sinks stay dumb.** A sink sees `(timestamp, &Event)` and
//!    nothing else; the ring buffer, JSONL writer, and summary table
//!    are each ~100 lines. An aggregating sink's `emit` runs once per
//!    event, millions of times a run, so the per-event rule is: no
//!    allocation, no formatting, no string-keyed lookup. Names resolve
//!    to a slot once (a first-seen table matched by pointer), counts live
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
mod histogram;
mod names;
mod sink;
mod value;

pub use event::{Event, FlowId};
pub use fx::{FxBuildHasher, FxHasher};
pub use histogram::LogHistogram;
pub use names::NameTable;
pub use sink::{
    jsonl_event_kind, shared_sink, JsonlSink, RingBufferSink, SharedSink, SinkCheckedOut,
    SinkGuard, SinkHandle, SummarySink, SummaryStats, TelemetrySink,
};
pub use value::{ParseError, Value};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// The shared half behind a [`Telemetry`] handle: the mutex-guarded
/// seats plus a lock-free mirror of "does any sink listen?" so the
/// per-packet `emit` calls on a sinkless hub cost one atomic load, not a
/// mutex acquisition.
struct HubShared {
    has_sinks: AtomicBool,
    seats: Mutex<Vec<Seat>>,
}

impl HubShared {
    /// Appends a seat (empty when its sink is checked out right now)
    /// and returns its index.
    fn add_seat(&self, sink: Option<Box<dyn TelemetrySink>>) -> usize {
        let mut seats = lock_unpoisoned(&self.seats);
        seats.push(Seat {
            sink,
            missed: Vec::new(),
            flush_missed: false,
        });
        self.has_sinks.store(true, Ordering::Release);
        seats.len() - 1
    }

    /// Takes the sink out of `seat`; `None` if it is out already.
    fn check_out(&self, seat: usize) -> Option<Box<dyn TelemetrySink>> {
        lock_unpoisoned(&self.seats)[seat].sink.take()
    }

    /// Puts a checked-out sink back, first handing it what it missed.
    /// All under the hub lock, so no emission can slip between the
    /// replay and the sink being live again.
    fn check_in(&self, seat: usize, sink: Box<dyn TelemetrySink>) {
        let mut seats = lock_unpoisoned(&self.seats);
        let seat = &mut seats[seat];
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
            .field("active", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// An active hub with no sinks yet.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(HubShared {
                has_sinks: AtomicBool::new(false),
                seats: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op handle: all emission paths reduce to an `Option`
    /// check.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Locks the hub's seats. The lock never crosses a user callback
    /// except the sink `emit`/`flush` calls, and sinks never call back
    /// into the hub, so this cannot deadlock (std mutexes are not
    /// reentrant).
    #[inline]
    fn seats(&self) -> Option<MutexGuard<'_, Vec<Seat>>> {
        self.inner
            .as_ref()
            .map(|shared| lock_unpoisoned(&shared.seats))
    }

    /// Lock-free "would an emit reach anyone?" check — the fast path
    /// for the per-packet calls. `Acquire` pairs with the `Release`
    /// store in [`add_shared_sink`](Self::add_shared_sink); in the
    /// common single-threaded-per-run discipline it is simply a cached
    /// load.
    #[inline]
    fn listening(&self) -> bool {
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
        if let Some(mut seats) = self.seats() {
            for seat in seats.iter_mut() {
                seat.emit(at_ns, &event);
            }
        }
    }

    /// Flushes every sink (one that is checked out, when it returns).
    pub fn flush(&self) {
        if let Some(mut seats) = self.seats() {
            for seat in seats.iter_mut() {
                seat.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        // A detached handle and a hub no sink was ever added to: the
        // telemetry-off path every unwired deployment takes.
        for t in [Telemetry::disabled(), Telemetry::new()] {
            assert!(!t.listening());
            let mut built = false;
            t.emit(0, || {
                built = true;
                Event::PoolWaiting { src: 1 }
            });
            assert!(!built, "event closure must not run without a sink");
        }
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let t = Telemetry::new();
        let (ring_a, erased) = shared_sink(RingBufferSink::new(8));
        t.add_shared_sink(erased);
        let (ring_b, erased) = shared_sink(RingBufferSink::new(8));
        t.add_shared_sink(erased);
        // Call order, not timestamp order.
        t.emit(3, || Event::PoolAdmitted { src: 7 });
        t.emit(9, || Event::PoolWaiting { src: 7 });
        t.emit(1, || Event::PoolWaiting { src: 7 });
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
        t.emit(3, || Event::PoolAdmitted { src: 1 });
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
        t.emit(4, || Event::PoolWaiting { src: 1 });
        t.emit(2, || Event::PoolAdmitted { src: 1 });
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
}
