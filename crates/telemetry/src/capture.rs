//! Capture-and-merge for sharded runs.
//!
//! Every shard thread's components hold clones of the same
//! [`Telemetry`] hub; emitting straight into it would interleave sink
//! output by thread scheduling. Instead each shard thread [`arm`]s a
//! capture: emissions made while an engine event dispatches are
//! buffered with that event's order key (`(time, class, origin, seq)`,
//! the total order the event queue pops in, set by [`stamp`]) and their
//! index within the event. The join concatenates the buffers and
//! [`replay`]s them: the key is content-derived, so one sort by
//! `(key, index)` *is* the serial emission order.
//!
//! A serial run never arms and pays one relaxed load per emission.

use crate::{Event, Telemetry};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Canonical engine order of a dispatched event.
type OrderKey = (u64, u8, u32, u64);

/// One buffered emission: what, into which hub, and where it sorts.
pub struct Captured {
    order: OrderKey,
    /// Emission index within the stamped engine event.
    sub: u32,
    at_ns: u64,
    hub: Telemetry,
    event: Event,
}

#[derive(Default)]
struct Capture {
    /// Key of the event dispatching here; `None` until the first [`stamp`].
    stamp: Option<OrderKey>,
    sub: u32,
    entries: Vec<Captured>,
}

/// Threads currently armed; lets [`capturing`] skip the thread-local on
/// serial runs. Publishes nothing, and a thread sees its own `arm`: `Relaxed`.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CAPTURE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// The calling thread's capture; disarms on drop. Not `Send`: the
/// buffer lives in the arming thread's local storage.
pub struct Armed(PhantomData<*const ()>);

/// Starts capturing this thread's stamped emissions.
pub fn arm() -> Armed {
    let previous = CAPTURE.with(|c| c.borrow_mut().replace(Capture::default()));
    assert!(previous.is_none(), "thread is already capturing");
    ARMED.fetch_add(1, Ordering::Relaxed);
    Armed(PhantomData)
}

impl Armed {
    /// Disarms and returns what this thread captured, in emission order.
    pub fn finish(self) -> Vec<Captured> {
        CAPTURE.with(|c| std::mem::take(&mut c.borrow_mut().as_mut().expect("armed").entries))
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        CAPTURE.with(|c| *c.borrow_mut() = None);
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Records the order key of the engine event this thread is about to
/// dispatch; emissions until the next stamp carry it. No-op when unarmed.
#[inline]
pub fn stamp(time: u64, class: u8, origin: u32, seq: u64) {
    CAPTURE.with(|c| {
        if let Some(capture) = c.borrow_mut().as_mut() {
            capture.stamp = Some((time, class, origin, seq));
            capture.sub = 0;
        }
    });
}

/// `true` when the calling thread is armed and inside a stamped engine
/// event: its emissions belong in the capture ([`push`]), not the hub.
/// Armed but not yet stamped still goes straight to the hub.
#[inline]
pub(crate) fn capturing() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
        && CAPTURE.with(|c| c.borrow().as_ref().is_some_and(|c| c.stamp.is_some()))
}

/// Buffers one emission aimed at `hub`. Only valid while [`capturing`].
pub(crate) fn push(hub: &Telemetry, at_ns: u64, event: Event) {
    CAPTURE.with(|c| {
        let mut slot = c.borrow_mut();
        let capture = slot.as_mut().expect("push outside a capture");
        capture.entries.push(Captured {
            order: capture.stamp.expect("push outside a stamped event"),
            sub: capture.sub,
            at_ns,
            hub: hub.clone(),
            event,
        });
        capture.sub += 1;
    });
}

/// Emits one run's concatenated captures into the hubs they were aimed
/// at, in serial order. Call from a thread that is not armed.
pub fn replay(mut entries: Vec<Captured>) {
    // Keys are unique per engine event and `sub` orders within one; each
    // thread's slice is already sorted, so this is a merge of runs.
    entries.sort_by_key(|e| (e.order, e.sub));
    for e in entries {
        e.hub.emit(e.at_ns, || e.event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shared_sink, RingBufferSink};
    use std::sync::{Arc, Mutex};

    fn hub_with_sink() -> (Telemetry, Arc<Mutex<RingBufferSink>>) {
        let telemetry = Telemetry::new();
        let (sink, erased) = shared_sink(RingBufferSink::new(4096));
        telemetry.add_shared_sink(erased);
        (telemetry, sink)
    }

    /// The `at_ns` stamps a sink received, in arrival order.
    fn arrival_order(sink: &Arc<Mutex<RingBufferSink>>) -> Vec<u64> {
        sink.lock().unwrap().events().map(|(at, _)| *at).collect()
    }

    #[test]
    fn captures_from_real_threads_merge_to_global_order() {
        let (telemetry, sink) = hub_with_sink();
        let captured: Vec<Captured> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3u32)
                .map(|shard| {
                    let telemetry = telemetry.clone();
                    scope.spawn(move || {
                        let armed = arm();
                        // Shard s emits at times s, s+3, s+6, ... — the
                        // merged order interleaves all three shards.
                        for i in 0..40u64 {
                            let t = u64::from(shard) + 3 * i;
                            stamp(t, 3, shard, i);
                            telemetry.emit(t, || Event::PoolWaiting { src: shard });
                        }
                        armed.finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(captured.len(), 120);
        assert!(arrival_order(&sink).is_empty(), "nothing emits live");
        replay(captured);
        assert_eq!(arrival_order(&sink), (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn unstamped_emissions_go_straight_to_the_hub() {
        let (telemetry, sink) = hub_with_sink();
        let armed = arm();
        // No stamp yet: the emission happens outside any engine event
        // and must not be buffered.
        telemetry.emit(7, || Event::PoolWaiting { src: 7 });
        assert_eq!(arrival_order(&sink), vec![7]);
        assert!(armed.finish().is_empty());
    }

    #[test]
    fn emissions_within_one_event_replay_in_push_order_to_their_own_hub() {
        let (hub_a, sink_a) = hub_with_sink();
        let (hub_b, sink_b) = hub_with_sink();
        let armed = arm();
        stamp(5, 0, 0, 0);
        hub_a.emit(2, || Event::PoolWaiting { src: 0 });
        hub_b.emit(9, || Event::PoolWaiting { src: 0 });
        hub_a.emit_batch(&mut vec![
            (1, Event::PoolWaiting { src: 0 }),
            (0, Event::PoolWaiting { src: 0 }),
        ]);
        replay(armed.finish());
        // Push order within the event, not timestamp order.
        assert_eq!(arrival_order(&sink_a), vec![2, 1, 0]);
        assert_eq!(arrival_order(&sink_b), vec![9]);
    }
}
