//! The deterministic event queue.
//!
//! Events are totally ordered by `(time, key)` where the key is a
//! *content-derived* [`EventKey`] — event class, originating entity
//! (node or link), and that entity's own event counter — rather than a
//! global schedule-order sequence number. Content-derived keys give two
//! events at the same instant an order that depends only on *what* they
//! are, not on the order callbacks happened to schedule them in. The
//! total order removes the nondeterminism a plain binary heap would
//! introduce for equal keys and is what makes whole-simulation runs
//! reproducible.
//!
//! The queue is a hierarchical timer wheel bucketing events by
//! quantized `SimTime` tick. Push is O(1) (a shift, a mask, a `Vec`
//! push); pop amortizes the per-level cascades over every event's
//! lifetime. Slot vectors are recycled, so steady-state operation
//! performs no per-event allocation. The wheel only changes *how* the
//! minimum is found, never *which* event is the minimum: this module's
//! tests pin it, pop for pop, against a plain `BinaryHeap` under random
//! churn.

use crate::arena::PacketId;
use crate::packet::{LinkId, NodeId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A handle to a scheduled timer; see [`crate::engine::Ctx::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl TimerId {
    /// Fabricates a timer id outside any engine, for mock environments
    /// (e.g. `taq_tcp::MockIo`). Synthetic ids must never be passed to a
    /// real [`crate::Ctx::cancel_timer`].
    pub fn synthetic(n: u32) -> TimerId {
        TimerId {
            slot: n,
            generation: u32::MAX,
        }
    }
}

/// Canonical identity of a scheduled event.
///
/// Same-timestamp events order by `(class, origin, seq)`:
///
/// - `class` ranks the event kind (`Start < Timer < LinkFree <
///   Arrival`);
/// - `origin` is the entity the event belongs to — the node for
///   `Start`/`Timer`, the link for `LinkFree`/`Arrival`;
/// - `seq` is that entity's own monotone counter: the global start
///   counter for `Start` (all scheduled before the run), the node's
///   timer counter for `Timer`, and the link's transmission counter for
///   `LinkFree`/`Arrival` (both events of one transmission share it).
///
/// Every component is derived from simulation content, so the order of
/// two same-instant events never depends on which was scheduled first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct EventKey {
    pub class: u8,
    pub origin: u32,
    pub seq: u64,
}

impl EventKey {
    pub const CLASS_START: u8 = 0;
    pub const CLASS_TIMER: u8 = 1;
    pub const CLASS_LINK_FREE: u8 = 2;
    pub const CLASS_ARRIVAL: u8 = 3;

    pub fn start(node: NodeId, seq: u64) -> Self {
        EventKey {
            class: Self::CLASS_START,
            origin: node.0,
            seq,
        }
    }

    pub fn timer(node: NodeId, seq: u64) -> Self {
        EventKey {
            class: Self::CLASS_TIMER,
            origin: node.0,
            seq,
        }
    }

    pub fn link_free(link: LinkId, seq: u64) -> Self {
        EventKey {
            class: Self::CLASS_LINK_FREE,
            origin: link.0,
            seq,
        }
    }

    pub fn arrival(link: LinkId, seq: u64) -> Self {
        EventKey {
            class: Self::CLASS_ARRIVAL,
            origin: link.0,
            seq,
        }
    }
}

/// What a fired event does.
///
/// `Arrival` carries an arena handle, not the packet itself: event
/// payloads are 16 bytes regardless of packet size, and the wheel's
/// slot vectors move ids, never packet bodies.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver the packet behind `pkt` to `node` (it finished
    /// propagating over a link).
    Arrival { node: NodeId, pkt: PacketId },
    /// A node timer fired; `token` is the node's own cookie.
    Timer {
        node: NodeId,
        timer: TimerId,
        token: u64,
    },
    /// `link` finished serializing a packet: poll its queue again.
    LinkFree { link: LinkId },
    /// Deliver the start callback to `node`.
    Start { node: NodeId },
}

#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub key: EventKey,
    pub kind: EventKind,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest first.
        (other.time, other.key).cmp(&(self.time, self.key))
    }
}

/// Nanoseconds per wheel tick, as a shift: 2^16 ns ≈ 65.5 µs. Fine
/// enough that few unrelated events share a tick, coarse enough that a
/// multi-second RTO lands within the wheel's six levels.
const GRANULARITY_SHIFT: u32 = 16;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; together they cover `2^(6*6)` ticks ≈ 52 days of
/// simulated time ahead of the cursor. Events beyond that horizon go to
/// the overflow heap (e.g. sentinel timers at `SimTime::MAX`).
const LEVELS: usize = 6;

/// The tick an absolute time falls into.
fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> GRANULARITY_SHIFT
}

/// Hierarchical timer wheel, keyed by quantized tick.
///
/// Invariants (see DESIGN.md §11 and §16 for the full argument):
///
/// - `current_tick` never trails the tick of any event in `ready` or
///   `near`, and every slot-resident event's tick strictly exceeds it;
/// - every event stored at level `l` agrees with `current_tick` on all
///   bits above `6·(l+1)` of its tick, and its level-`l` slot index is
///   strictly greater than the cursor's — so a forward scan of the
///   occupancy bitmaps finds the earliest slot without wraparound;
/// - `ready` holds slot-drained events (tick `<= current_tick`), sorted
///   by `(time, key)` descending so bulk pops are `Vec::pop`;
/// - `near` holds events *pushed* at or behind the cursor after the
///   batch executor drained ahead (intrusions). It is a max-heap under
///   [`ScheduledEvent`]'s reversed `Ord`, so `peek` is the earliest.
///   Because every slot event's tick exceeds the cursor's while every
///   `near`/`ready` event's tick does not, the global minimum is always
///   `min(ready.last(), near.peek())` — no slot scan needed while
///   either is non-empty;
/// - the cursor only ever advances onto a slot *boundary* (cascade) or
///   an exact level-0 tick, both of which empty the slot they land on.
#[derive(Debug)]
struct TimerWheel {
    current_tick: u64,
    /// Due events, sorted descending by `(time, key)`; pop from the back.
    ready: Vec<ScheduledEvent>,
    /// Events pushed at/behind the cursor; earliest at `peek()`.
    near: BinaryHeap<ScheduledEvent>,
    levels: Vec<Vec<Vec<ScheduledEvent>>>,
    /// Per-level slot-occupancy bitmaps (bit `s` = slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<ScheduledEvent>,
    /// Recycled slot buffer for cascades (allocation pooling).
    scratch: Vec<ScheduledEvent>,
    len: usize,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            current_tick: 0,
            ready: Vec::new(),
            near: BinaryHeap::new(),
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            len: 0,
        }
    }

    /// Sorted insert into the descending `ready` buffer (overflow
    /// catch-up only — the hot push path uses the `near` heap).
    fn ready_insert(&mut self, ev: ScheduledEvent) {
        let key = (ev.time, ev.key);
        // Descending order: find the first element strictly smaller.
        let pos = self.ready.partition_point(|e| (e.time, e.key) > key);
        self.ready.insert(pos, ev);
    }

    /// Places an event relative to the current cursor.
    fn place(&mut self, ev: ScheduledEvent) {
        let t = tick_of(ev.time);
        if t <= self.current_tick {
            // A push at or behind the cursor: O(log n) heap insert, no
            // memmove. This is the common case while the batch executor
            // runs ahead of the cursor (self-paced arrivals, short
            // serialization completions).
            self.near.push(ev);
            return;
        }
        let diff = t ^ self.current_tick;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(ev);
            return;
        }
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(ev);
        self.occupied[level] |= 1 << slot;
    }

    fn push(&mut self, ev: ScheduledEvent) {
        self.place(ev);
        self.len += 1;
    }

    /// Smallest occupied slot index strictly above `above`, if any.
    fn next_slot(bitmap: u64, above: u64) -> Option<u32> {
        let mask = if above >= 63 {
            0
        } else {
            bitmap & !((1u64 << (above + 1)) - 1)
        };
        (mask != 0).then(|| mask.trailing_zeros())
    }

    /// Ensures the earliest pending event is visible at a buffer tail
    /// (or the wheel is empty), advancing the cursor and cascading as
    /// needed. While `ready` or `near` is non-empty this is two
    /// branches: their events all tick at or behind the cursor, so no
    /// slot or overflow event can precede them.
    fn advance(&mut self) {
        if !self.ready.is_empty() || !self.near.is_empty() {
            return;
        }
        loop {
            // Overflow events become due when the cursor catches up.
            while self
                .overflow
                .peek()
                .is_some_and(|e| tick_of(e.time) <= self.current_tick)
            {
                let ev = self.overflow.pop().expect("peeked");
                self.ready_insert(ev);
            }
            if !self.ready.is_empty() || self.len == 0 {
                return;
            }
            // Find the earliest candidate: an exact level-0 tick, the
            // base of a higher-level slot (a lower bound on its
            // contents), or the overflow minimum. Distinct levels can
            // never tie (their bases differ in the level's own bit
            // range), so `min` by (tick, level) picks a unique action;
            // preferring the wheel over overflow on a tie is handled by
            // the cursor advance plus the loop-top overflow drain.
            let mut best: Option<(u64, usize, u32)> = None;
            for level in 0..LEVELS {
                let cur_slot =
                    (self.current_tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1);
                if let Some(s) = Self::next_slot(self.occupied[level], cur_slot) {
                    let shift = SLOT_BITS * level as u32;
                    let upper = self.current_tick >> (shift + SLOT_BITS);
                    let tick = ((upper << SLOT_BITS) | u64::from(s)) << shift;
                    if best.is_none_or(|(t, _, _)| tick < t) {
                        best = Some((tick, level, s));
                    }
                }
            }
            if let Some(ov) = self.overflow.peek() {
                let t = tick_of(ov.time);
                if best.is_none_or(|(bt, _, _)| t < bt) {
                    // Jump the cursor; the loop top drains the overflow.
                    self.current_tick = t;
                    continue;
                }
            }
            let Some((tick, level, slot)) = best else {
                // Only possible if len drifted; treat as empty.
                return;
            };
            self.current_tick = tick;
            let slot = slot as usize;
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // Every event in a level-0 slot shares the exact tick
                // the cursor just reached: move them all to `ready`.
                let bucket = &mut self.levels[0][slot];
                self.ready.append(bucket);
                self.ready
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.key)));
            } else {
                // Cascade: re-place the slot's events now that the
                // cursor shares their upper bits. The buffer swap keeps
                // both vectors' capacity alive across cascades.
                let mut buf = std::mem::replace(
                    &mut self.levels[level][slot],
                    std::mem::take(&mut self.scratch),
                );
                for ev in buf.drain(..) {
                    self.place(ev);
                }
                self.scratch = buf;
            }
        }
    }

    /// True when the next event comes from `near` rather than `ready`.
    /// Call only after `advance()`; `None` means the wheel is empty.
    fn next_from_near(&self) -> Option<bool> {
        match (self.ready.last(), self.near.peek()) {
            (None, None) => None,
            (None, Some(_)) => Some(true),
            (Some(_), None) => Some(false),
            (Some(r), Some(h)) => Some((h.time, h.key) < (r.time, r.key)),
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        self.advance();
        let ev = match self.next_from_near()? {
            true => self.near.pop().expect("peeked"),
            false => self.ready.pop().expect("peeked"),
        };
        self.len -= 1;
        Some(ev)
    }

    fn peek_entry(&mut self) -> Option<(SimTime, EventKey)> {
        self.advance();
        let e = match self.next_from_near()? {
            true => self.near.peek().expect("peeked"),
            false => self.ready.last().expect("peeked"),
        };
        Some((e.time, e.key))
    }

    /// Drains up to `max` events with `time <= cap` into `out`, in pop
    /// order. One cursor advance serves a whole level-0 slot (and any
    /// same-window overflow merge), instead of the peek+pop pair the
    /// one-at-a-time path pays per event; `near` intrusions interleave
    /// through a two-way tail merge.
    fn pop_run(&mut self, cap: SimTime, out: &mut Vec<ScheduledEvent>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            self.advance();
            let Some(from_near) = self.next_from_near() else {
                return n;
            };
            let ev = if from_near {
                let e = self.near.peek().expect("peeked");
                if e.time > cap {
                    return n;
                }
                self.near.pop().expect("peeked")
            } else {
                let e = self.ready.last().expect("peeked");
                if e.time > cap {
                    return n;
                }
                self.ready.pop().expect("peeked")
            };
            out.push(ev);
            self.len -= 1;
            n += 1;
        }
        n
    }
}

/// Min-queue of pending events keyed by `(time, key)`.
#[derive(Debug)]
pub(crate) struct EventQueue {
    wheel: TimerWheel,
    /// Set by every `push`, cleared by [`EventQueue::take_pushed`]. The
    /// batch executor uses it to skip the per-event intrusion peek when
    /// nothing has been scheduled since it last looked — in a drained
    /// batch the residual queue is entirely later than the batch, so
    /// only a fresh push can introduce an intruder.
    pushed: bool,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            pushed: false,
        }
    }

    /// Schedules `kind` at absolute time `at` under the caller-computed
    /// canonical `key` (see [`EventKey`]).
    pub fn push(&mut self, at: SimTime, key: EventKey, kind: EventKind) {
        self.pushed = true;
        self.wheel.push(ScheduledEvent {
            time: at,
            key,
            kind,
        });
    }

    /// Returns whether any push happened since the last call, clearing
    /// the flag.
    #[inline]
    pub fn take_pushed(&mut self) -> bool {
        std::mem::replace(&mut self.pushed, false)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.wheel.pop()
    }

    /// Drains up to `max` events with `time <= cap` into `out`, in pop
    /// order. Equivalent to repeated `pop` guarded by a peek at the
    /// minimum's time, but the wheel advances its cursor once per
    /// drained slot instead of once per peek+pop pair.
    pub fn pop_run(&mut self, cap: SimTime, out: &mut Vec<ScheduledEvent>, max: usize) -> usize {
        self.wheel.pop_run(cap, out, max)
    }

    /// Full `(time, key)` order position of the earliest pending event.
    /// The batch executor compares this against its next scratch entry
    /// to decide whether a freshly scheduled event has intruded ahead of
    /// the drained run. (`&mut` because the wheel may advance its
    /// cursor to locate the minimum; the set of pending events is
    /// unchanged. The wheel keeps its `ready` buffer populated between
    /// pops, so the steady-state cost is one `Vec` tail read.)
    pub fn peek_entry(&mut self) -> Option<(SimTime, EventKey)> {
        self.wheel.peek_entry()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.wheel.len == 0
    }
}

/// Timer liveness table.
///
/// Timers fire as queued events, which cannot be removed from the middle
/// of the wheel; cancellation instead bumps a per-slot
/// generation counter so the stale event is discarded when it surfaces.
/// Slots are recycled through a free list, keeping the table size
/// proportional to the number of *live* timers, not the number ever
/// created.
#[derive(Debug, Default)]
pub(crate) struct TimerTable {
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl TimerTable {
    pub fn new() -> Self {
        TimerTable::default()
    }

    /// Allocates a live timer id.
    pub fn allocate(&mut self) -> TimerId {
        if let Some(slot) = self.free.pop() {
            TimerId {
                slot,
                generation: self.generations[slot as usize],
            }
        } else {
            let slot = self.generations.len() as u32;
            self.generations.push(0);
            TimerId {
                slot,
                generation: 0,
            }
        }
    }

    /// Cancels a timer; returns `true` if it was still live.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if self.is_live(id) {
            self.generations[id.slot as usize] = self.generations[id.slot as usize].wrapping_add(1);
            self.free.push(id.slot);
            true
        } else {
            false
        }
    }

    /// Marks a timer consumed as it fires; returns `true` if it was live
    /// (i.e. not previously cancelled).
    pub fn fire(&mut self, id: TimerId) -> bool {
        self.cancel(id)
    }

    /// `true` if the timer has neither fired nor been cancelled.
    pub fn is_live(&self, id: TimerId) -> bool {
        self.generations
            .get(id.slot as usize)
            .is_some_and(|&g| g == id.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{LinkId, NodeId};
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    /// The wheel's oracle: a plain binary heap over [`ScheduledEvent`]'s
    /// reversed `Ord`, obviously correct and nothing else.
    #[derive(Default)]
    struct RefHeap(BinaryHeap<ScheduledEvent>);

    impl RefHeap {
        fn push(&mut self, time: SimTime, key: EventKey, kind: EventKind) {
            self.0.push(ScheduledEvent { time, key, kind });
        }

        fn pop(&mut self) -> Option<ScheduledEvent> {
            self.0.pop()
        }

        fn peek_entry(&self) -> Option<(SimTime, EventKey)> {
            self.0.peek().map(|e| (e.time, e.key))
        }
    }

    /// Pushes a `Start` for node `n` keyed by its canonical event key.
    fn push_start(q: &mut EventQueue, at: SimTime, n: u32) {
        q.push(
            at,
            EventKey::start(NodeId(n), 0),
            EventKind::Start { node: NodeId(n) },
        );
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        push_start(&mut q, SimTime::from_secs(3), 3);
        push_start(&mut q, SimTime::from_secs(1), 1);
        push_start(&mut q, SimTime::from_secs(2), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_event_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // Pushed in reverse to prove the order comes from the key,
        // not the insertion sequence.
        for n in (0..10).rev() {
            push_start(&mut q, t, n);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_by_class_before_origin() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        // A LinkFree on link 0 must still fire before an Arrival on
        // link 0 and after a Timer on node 9 at the same instant.
        q.push(
            t,
            EventKey::arrival(LinkId(0), 0),
            EventKind::LinkFree { link: LinkId(0) },
        );
        q.push(
            t,
            EventKey::link_free(LinkId(0), 0),
            EventKind::LinkFree { link: LinkId(0) },
        );
        q.push(
            t,
            EventKey::timer(NodeId(9), 3),
            EventKind::Start { node: NodeId(9) },
        );
        let classes: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| e.key.class)
            .collect();
        assert_eq!(
            classes,
            vec![
                EventKey::CLASS_TIMER,
                EventKey::CLASS_LINK_FREE,
                EventKey::CLASS_ARRIVAL
            ]
        );
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_entry().is_none());
        push_start(&mut q, SimTime::from_secs(5), 0);
        assert_eq!(q.peek_entry().map(|(t, _)| t), Some(SimTime::from_secs(5)));
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_handles_far_future_and_sentinel_times() {
        let mut q = EventQueue::new();
        // Beyond the wheel horizon (> 52 days) and the MAX sentinel.
        push_start(&mut q, SimTime::MAX, 9);
        push_start(&mut q, SimTime::from_secs(100 * 24 * 3600), 2);
        push_start(&mut q, SimTime::from_millis(5), 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 9]);
    }

    #[test]
    fn wheel_cascades_across_levels() {
        let mut q = EventQueue::new();
        // Spread events across every level: 1 tick ≈ 65.5 µs, so these
        // spans hit levels 0 through 4 plus overflow.
        let times = [
            SimDuration::from_micros(70),
            SimDuration::from_millis(3),
            SimDuration::from_millis(400),
            SimDuration::from_secs(20),
            SimDuration::from_secs(1_500),
            SimDuration::from_secs(90_000),
            SimDuration::from_secs(7_000_000),
        ];
        for (i, d) in times.iter().enumerate() {
            push_start(&mut q, SimTime::ZERO + *d, i as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..times.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        // Pops interleaved with pushes near the cursor: the regression
        // shape for cursor-advance bugs (same-tick inserts must join the
        // ready buffer in (time, key) position).
        let mut q = EventQueue::new();
        push_start(&mut q, SimTime::from_micros(100), 0);
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::from_micros(100));
        // Same tick as the popped event, later time.
        push_start(&mut q, SimTime::from_micros(110), 1);
        // Same tick, even later; then a far one.
        push_start(&mut q, SimTime::from_micros(115), 2);
        push_start(&mut q, SimTime::from_secs(2), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    /// Absolute time of wheel tick `n`.
    fn at_tick(n: u64) -> SimTime {
        SimTime::from_nanos(n << GRANULARITY_SHIFT)
    }

    fn drain_nodes(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start { node } => node.0,
                _ => unreachable!(),
            })
            .collect()
    }

    /// Events exactly at the level-0/level-1 slot boundary (tick 64 =
    /// `SLOTS`) and the level-1/level-2 boundary (tick 4096 = `SLOTS²`):
    /// the slot index of a boundary tick is 0 at the lower level, so an
    /// off-by-one in the level pick or the cursor scan would misfile or
    /// skip these. Includes times offset *within* a boundary tick and a
    /// same-tick key tie.
    #[test]
    fn wheel_slot_boundary_events_fire_in_order() {
        let mut q = EventQueue::new();
        // Last level-0 slot, both level-1 boundary ticks, one offset
        // inside the boundary tick, and the level-2 boundary.
        push_start(&mut q, at_tick(SLOTS as u64 - 1), 0); // tick 63, level 0
        push_start(&mut q, at_tick(SLOTS as u64), 1); // tick 64: first level-1 slot
        push_start(
            &mut q,
            at_tick(SLOTS as u64) + SimDuration::from_nanos(17),
            2,
        ); // same tick, later time
        push_start(&mut q, at_tick(SLOTS as u64), 10); // tick 64 again: key tie with node 1
        push_start(&mut q, at_tick(SLOTS as u64 + 1), 3); // tick 65
        push_start(&mut q, at_tick((SLOTS * SLOTS) as u64 - 1), 4); // tick 4095, level 1
        push_start(&mut q, at_tick((SLOTS * SLOTS) as u64), 5); // tick 4096: first level-2 slot
                                                                // Same-time events tie-break by key: node 1 before 10.
        assert_eq!(drain_nodes(&mut q), vec![0, 1, 10, 2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    /// Events on either side of the 6-level horizon (tick `2^36`): one
    /// tick below lands in level 5, the boundary tick and everything
    /// past it land in the overflow heap, and both drain in time order.
    #[test]
    fn wheel_horizon_boundary_splits_into_overflow() {
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32); // 2^36 ticks
        let mut q = EventQueue::new();
        push_start(&mut q, at_tick(horizon), 1); // first overflow tick
        push_start(&mut q, at_tick(horizon - 1), 0); // last wheel tick (level 5)
        push_start(&mut q, at_tick(horizon + 1), 2); // clearly past the horizon
        push_start(&mut q, at_tick(horizon) + SimDuration::from_nanos(3), 10); // inside the boundary tick
        assert_eq!(drain_nodes(&mut q), vec![0, 1, 10, 2]);
        assert!(q.is_empty());
    }

    /// A wheel drain and an overflow drain colliding at the same
    /// timestamp must still pop in key order. The far event enters the
    /// overflow heap; after the cursor advances to within horizon range,
    /// a second event is pushed at the *exact same time* and lands in a
    /// level-0 wheel slot. When that slot drains, the loop-top overflow
    /// drain merges the far event into `ready`, and the smaller key
    /// must surface first.
    #[test]
    fn overflow_and_wheel_drain_tie_break_at_same_timestamp() {
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32);
        let far = horizon + 5;
        let mut q = EventQueue::new();
        push_start(&mut q, at_tick(far), 1); // overflow
        push_start(&mut q, at_tick(horizon + 1), 0); // overflow
                                                     // Popping the nearer event jumps the cursor to tick horizon+1.
        let first = q.pop().unwrap();
        assert_eq!(first.time, at_tick(horizon + 1));
        // Same absolute time as the far event, but now within wheel
        // range of the cursor: lands in a level-0 slot. Key 2 > key 1.
        push_start(&mut q, at_tick(far), 2);
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!(a.time, b.time, "both events share the timestamp");
        assert!(a.key < b.key, "smaller key pops first");
        assert!(matches!(a.kind, EventKind::Start { node: NodeId(1) }));
        assert!(matches!(b.kind, EventKind::Start { node: NodeId(2) }));
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_matches_heap_under_random_churn() {
        // Drive the wheel and the reference heap with an identical
        // random push/pop script and require the exact same pop
        // sequence — the wheel must be indistinguishable from the heap.
        let mut rng = SimRng::new(0xBEE5);
        let mut wheel = EventQueue::new();
        let mut heap = RefHeap::default();
        let mut now = 0u64;
        for step in 0..20_000u64 {
            if rng.chance(0.6) {
                // Mostly near-future, occasionally far-future pushes.
                let delta = if rng.chance(0.02) {
                    rng.range_u64(0, 1 << 53)
                } else {
                    rng.range_u64(0, 200_000_000)
                };
                let at = SimTime::from_nanos(now + delta);
                let node = NodeId(step as u32);
                let key = EventKey::start(node, step);
                wheel.push(at, key, EventKind::Start { node });
                heap.push(at, key, EventKind::Start { node });
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.key), (y.time, y.key), "step {step}");
                        now = x.time.as_nanos();
                    }
                    (None, None) => {}
                    _ => panic!("wheel and heap disagree on emptiness at step {step}"),
                }
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => assert_eq!((x.time, x.key), (y.time, y.key)),
                (None, None) => break,
                _ => panic!("wheel and heap disagree on drain length"),
            }
        }
    }

    #[test]
    fn pop_run_matches_guarded_pop_on_both_backends() {
        // pop_run(cap) on the wheel must yield exactly the sequence
        // that repeated peek-guarded pops on the reference heap would.
        let mut rng = SimRng::new(0xA11CE);
        let mut batched = EventQueue::new();
        let mut serial = RefHeap::default();
        let mut now = 0u64;
        for step in 0..5_000u64 {
            if rng.chance(0.7) {
                let delta = if rng.chance(0.02) {
                    rng.range_u64(0, 1 << 50)
                } else {
                    rng.range_u64(0, 50_000_000)
                };
                let at = SimTime::from_nanos(now + delta);
                let node = NodeId(step as u32);
                let key = EventKey::start(node, step);
                batched.push(at, key, EventKind::Start { node });
                serial.push(at, key, EventKind::Start { node });
            } else {
                let cap = SimTime::from_nanos(now + rng.range_u64(0, 100_000_000));
                let mut run = Vec::new();
                batched.pop_run(cap, &mut run, 32);
                for got in run {
                    let want = serial.pop().expect("reference heap has the event");
                    assert_eq!((got.time, got.key), (want.time, want.key));
                    assert!(got.time <= cap, "pop_run exceeded cap");
                    now = got.time.as_nanos();
                }
                // Whatever the batch left behind is past the cap.
                if let Some(next) = serial.peek_entry() {
                    assert!(next.0 > cap || batched.peek_entry() == Some(next));
                }
            }
        }
        loop {
            let mut run = Vec::new();
            batched.pop_run(SimTime::MAX, &mut run, 64);
            if run.is_empty() {
                break;
            }
            for got in run {
                let want = serial.pop().expect("reference drain matches");
                assert_eq!((got.time, got.key), (want.time, want.key));
            }
        }
        assert!(serial.pop().is_none(), "batched drain was short");
    }

    #[test]
    fn peek_entry_tracks_the_minimum_across_pushes_on_both_backends() {
        let mut q = EventQueue::new();
        let mut heap = RefHeap::default();
        let mut push = |q: &mut EventQueue, at: SimTime, n: u32| {
            push_start(q, at, n);
            heap.push(
                at,
                EventKey::start(NodeId(n), 0),
                EventKind::Start { node: NodeId(n) },
            );
            assert_eq!(q.peek_entry(), heap.peek_entry());
        };
        assert_eq!(q.peek_entry(), None, "empty queue");
        push(&mut q, SimTime::from_millis(5), 0);
        let late = (SimTime::from_millis(5), EventKey::start(NodeId(0), 0));
        assert_eq!(q.peek_entry(), Some(late));
        // An earlier push takes over the minimum immediately, even
        // after the wheel's cursor located the previous one.
        push(&mut q, SimTime::from_micros(40), 1);
        let early = (SimTime::from_micros(40), EventKey::start(NodeId(1), 0));
        assert_eq!(q.peek_entry(), Some(early));
        // Peeking is non-destructive and agrees with pop order.
        let got = q.pop().expect("two events queued");
        assert_eq!((got.time, got.key), early);
        assert_eq!(q.peek_entry(), Some(late));
    }

    #[test]
    fn timer_lifecycle() {
        let mut t = TimerTable::new();
        let a = t.allocate();
        assert!(t.is_live(a));
        assert!(t.cancel(a));
        assert!(!t.is_live(a));
        assert!(!t.cancel(a), "double cancel is a no-op");
        // Slot is recycled with a new generation.
        let b = t.allocate();
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.generation, a.generation);
        assert!(t.is_live(b));
        assert!(!t.is_live(a), "stale handle stays dead");
        assert!(t.fire(b));
        assert!(!t.fire(b), "timer fires at most once");
    }

    #[test]
    fn many_timers_unique_until_cancelled() {
        let mut t = TimerTable::new();
        let ids: Vec<TimerId> = (0..100).map(|_| t.allocate()).collect();
        for id in &ids {
            assert!(t.is_live(*id));
        }
        for id in &ids {
            assert!(t.cancel(*id));
        }
        for id in &ids {
            assert!(!t.is_live(*id));
        }
    }
}
