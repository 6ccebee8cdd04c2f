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
//! quantized `SimTime` tick: a near level of 4096 one-tick slots
//! (268 ms) under four 64-slot levels, then an overflow heap. Events
//! live in one slab of nodes and each wheel slot is the head of a
//! doubly index-linked list through it; freed nodes are recycled LIFO,
//! so steady-state operation performs no per-event allocation.
//! Everything a hop schedules at the paper's RTTs — `LinkFree`,
//! `Arrival`, the delayed-ACK timer — falls within the near level, where
//! a push links the node into the slot of its own tick and the drain
//! reads it once: it is filed once and never cascades. Only far timers
//! (RTOs) enter an upper level and are relinked into the near one when
//! their slot comes due — and most never do: cancelling a timer unlinks
//! its node on the spot ([`EventQueue::cancel_timer`]), so a re-armed
//! RTO leaves nothing behind to walk, relink or pop. A timer is nothing
//! but its queued event: its [`TimerId`] is the cell and key of that
//! event, and a handle whose event fired or was cancelled matches no
//! event, whatever its cell holds next. Near-slot occupancy is a
//! 64-word bitmap under one summary word, so finding the next occupied
//! slot is at most two `trailing_zeros`.
//!
//! The cursor only moves when the minimum is asked for and stops at the
//! minimum's tick, so it never passes the event being executed and the
//! events that event schedules land in slots ahead of it. The wheel
//! only changes *how* the minimum is found, never *which* event is the
//! minimum: this module's tests pin it, pop for pop, against a plain
//! ordered set under random pushes, pops and cancellations.

use crate::arena::PacketId;
use crate::packet::{LinkId, NodeId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A handle to a scheduled timer; see [`crate::engine::Ctx::set_timer`].
///
/// It is the slab cell of the timer's event and the event key's `seq`,
/// the node's own timer counter. A node's timer seqs never repeat
/// within a run, so a handle names exactly one event ever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    cell: u32,
    seq: u64,
}

impl TimerId {
    /// Fabricates a timer id outside any engine, for mock environments
    /// (e.g. `taq_tcp::MockIo`). A synthetic id matches no event: a real
    /// [`crate::Ctx::cancel_timer`] returns `false` for it.
    pub fn synthetic(n: u32) -> TimerId {
        TimerId {
            cell: NIL,
            seq: u64::from(n),
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
/// The three fields pack into one word — class in the top 2 bits, then
/// 24 bits of origin, then 38 bits of seq — so the tuple order is one
/// integer compare. A field that does not fit panics in every build
/// profile: a wrapped field would silently reorder events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct EventKey(u64);

impl EventKey {
    pub const CLASS_START: u8 = 0;
    pub const CLASS_TIMER: u8 = 1;
    pub const CLASS_LINK_FREE: u8 = 2;
    pub const CLASS_ARRIVAL: u8 = 3;

    const ORIGIN_BITS: u32 = 24;
    const SEQ_BITS: u32 = 38;

    fn pack(class: u8, origin: u32, seq: u64) -> Self {
        assert!(class <= Self::CLASS_ARRIVAL, "event class out of range");
        assert!(
            origin < 1 << Self::ORIGIN_BITS,
            "event origin overflowed its 24-bit field"
        );
        assert!(
            seq < 1 << Self::SEQ_BITS,
            "event seq overflowed its 38-bit field"
        );
        let origin = u64::from(origin) << Self::SEQ_BITS;
        let class = u64::from(class) << (Self::SEQ_BITS + Self::ORIGIN_BITS);
        EventKey(class | origin | seq)
    }

    pub fn start(node: NodeId, seq: u64) -> Self {
        Self::pack(Self::CLASS_START, node.0, seq)
    }

    pub fn timer(node: NodeId, seq: u64) -> Self {
        Self::pack(Self::CLASS_TIMER, node.0, seq)
    }

    pub fn link_free(link: LinkId, seq: u64) -> Self {
        Self::pack(Self::CLASS_LINK_FREE, link.0, seq)
    }

    pub fn arrival(link: LinkId, seq: u64) -> Self {
        Self::pack(Self::CLASS_ARRIVAL, link.0, seq)
    }
}

/// What a fired event does.
///
/// `Arrival` carries an arena handle, not the packet itself: event
/// payloads are a few words regardless of packet size, and the wheel
/// moves slab indices, never events or packet bodies. The id stays
/// valid across router hops: the engine forwards it, not the packet.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// The packet behind `pkt` finished propagating to `node`: deliver
    /// it to the agent there, or forward it if `node` is a router.
    Arrival { node: NodeId, pkt: PacketId },
    /// A node timer fired; `token` is the node's own cookie.
    Timer { node: NodeId, token: u64 },
    /// `link` finished serializing a packet: poll its queue again.
    LinkFree { link: LinkId },
    /// Deliver the start callback to `node`.
    Start { node: NodeId },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub key: EventKey,
    pub kind: EventKind,
}

/// Nanoseconds per wheel tick, as a shift: 2^16 ns ≈ 65.5 µs. Fine
/// enough that few unrelated events share a tick, coarse enough that a
/// multi-second RTO lands one level above the near wheel.
const GRANULARITY_SHIFT: u32 = 16;
/// log2 of the near level's slots. Each spans one tick, so 2^12 of them
/// cover 268 ms: every `LinkFree`, `Arrival` and delayed-ACK timer at
/// the paper's 200 ms RTT is filed here directly and never cascades.
const NEAR_BITS: u32 = 12;
/// Slots of the near level (level 0).
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
/// Words of the near level's occupancy bitmap; one summary word has a
/// bit per word.
const NEAR_WORDS: usize = NEAR_SLOTS / 64;
/// log2 of the slots per upper level.
const SLOT_BITS: u32 = 6;
/// Slots per upper level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels above the near one: upper level `u` (`0..UPPER_LEVELS`) is
/// the wheel's level `u + 1`.
const UPPER_LEVELS: usize = 4;
/// Tick bits the wheel resolves: `2^36` ticks ≈ 52 days of simulated
/// time ahead of the cursor. Events beyond that horizon go to the
/// overflow heap (e.g. sentinel timers at `SimTime::MAX`).
const HORIZON_BITS: u32 = NEAR_BITS + SLOT_BITS * UPPER_LEVELS as u32;
/// Slot heads: the near level's, then each upper level's in turn.
const HEADS: usize = NEAR_SLOTS + UPPER_LEVELS * SLOTS;
/// End-of-list marker for slab links, slot heads and the free list.
const NIL: u32 = u32::MAX;
/// Tag of a node's `prev` when the node is first on its slot list: the
/// low bits are the slot's index into `heads`. Cell indices stay below
/// it.
const HEAD: u32 = 1 << 31;
/// `prev` of a node in the overflow heap.
const OVERFLOWED: u32 = NIL - 1;
/// `prev` of a recycled cell: what no pending event's is.
const FREE: u32 = NIL - 2;

/// The tick an absolute time falls into.
fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> GRANULARITY_SHIFT
}

/// Lowest tick bit of upper level `u`'s digit.
fn upper_shift(u: usize) -> u32 {
    NEAR_BITS + SLOT_BITS * u as u32
}

/// Index into `heads` of upper level `u`'s slot `slot`.
fn upper_head(u: usize, slot: usize) -> usize {
    NEAR_SLOTS + u * SLOTS + slot
}

/// A slab cell: one pending event and its links. `next` is the next
/// cell of whichever list it is on (a wheel slot's, or the free list);
/// `prev` is the cell before it on its slot list, `HEAD | slot` for a
/// list's first cell, `OVERFLOWED`, or `FREE` once the cell is
/// recycled. A pending cell in `ready` is known by its tick, not its
/// links, which are then stale.
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: ScheduledEvent,
    next: u32,
    prev: u32,
}

// A cell is a 32-byte event (its kind 16 bytes) and two links.
const _: () = assert!(std::mem::size_of::<Node>() == 40);

/// An event's order position plus its slab index: what `ready` and the
/// overflow heap hold in place of the event itself.
type Entry = (SimTime, EventKey, u32);

/// Min-queue of pending events keyed by `(time, key)`: a hierarchical
/// timer wheel over quantized ticks whose first digit is 12 bits wide
/// (the one-tick near level) and whose other four are 6 bits each.
///
/// Invariants (DESIGN.md §11.1 has the full argument):
///
/// - the cursor `current_tick` moves only inside [`EventQueue::refill`]
///   and stops at the tick of the earliest pending event, so it never
///   passes an event that has not been popped;
/// - `ready` holds exactly the pending events whose tick is at or
///   behind the cursor, sorted by `(time, key)` descending so a pop is
///   `Vec::pop`; every slot-resident event's tick strictly exceeds the
///   cursor's, so while `ready` is non-empty its tail is the global
///   minimum and no slot needs scanning;
/// - every event linked at level `l` agrees with `current_tick` on all
///   tick bits above level `l`'s digit (bits `12..` for the near level,
///   bits `12 + 6·l..` for upper level `l`), and its level-`l` digit is
///   strictly greater than the cursor's — so a forward scan of the
///   occupancy bitmaps finds the earliest slot without wraparound, and
///   the base tick of a level's first such slot precedes that of every
///   higher level's;
/// - a near slot is one tick, so an event filed there is linked once
///   and read once; only an event more than 4095 ticks out is filed at
///   an upper level and relinked when its slot comes due;
/// - a slot's occupancy bit is set exactly when its list is non-empty,
///   so `remove` clears it when it unlinks a list's last node.
#[derive(Debug)]
pub(crate) struct EventQueue {
    current_tick: u64,
    /// Due events, sorted descending by `(time, key)`; pop from the back.
    ready: Vec<Entry>,
    /// Every pending event, plus recycled cells.
    nodes: Vec<Node>,
    /// Head of the LIFO list of recycled cells.
    free: u32,
    /// List heads into `nodes`: the near level's, indexed by the tick's
    /// low 12 bits, then the upper levels' ([`upper_head`]) — 17 KB,
    /// the queue's one up-front allocation.
    heads: Box<[u32; HEADS]>,
    /// Near-level slot occupancy (bit `s % 64` of word `s / 64` = slot
    /// `s` non-empty).
    near_occupied: [u64; NEAR_WORDS],
    /// Bit `w` = `near_occupied[w]` is non-zero.
    near_summary: u64,
    /// Upper-level slot-occupancy bitmaps (bit `s` = slot `s` non-empty).
    upper_occupied: [u64; UPPER_LEVELS],
    /// Events beyond the wheel horizon, earliest at `peek()`.
    overflow: BinaryHeap<Reverse<Entry>>,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            current_tick: 0,
            ready: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; HEADS]
                .into_boxed_slice()
                .try_into()
                .expect("HEADS heads"),
            near_occupied: [0; NEAR_WORDS],
            near_summary: 0,
            upper_occupied: [0; UPPER_LEVELS],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Schedules `node`'s timer number `seq` (the node's own timer
    /// counter) at `at`, returning the handle that names its event.
    pub fn push_timer(&mut self, at: SimTime, node: NodeId, seq: u64, token: u64) -> TimerId {
        let cell = self.push(
            at,
            EventKey::timer(node, seq),
            EventKind::Timer { node, token },
        );
        TimerId { cell, seq }
    }

    /// Unschedules `node`'s timer `id` if its event is still pending:
    /// the cell `id` names is not free and holds exactly
    /// `EventKey::timer(node, id.seq)`. Returns whether it was.
    pub fn cancel_timer(&mut self, node: NodeId, id: TimerId) -> bool {
        let pending = self
            .nodes
            .get(id.cell as usize)
            .is_some_and(|n| n.prev != FREE && n.ev.key == EventKey::timer(node, id.seq));
        if pending {
            self.remove(id.cell);
        }
        pending
    }

    /// Schedules `kind` at absolute time `at` under the caller-computed
    /// canonical `key` (see [`EventKey`]). Returns the event's slab
    /// cell, which holds the event until it is popped or removed.
    #[inline]
    pub fn push(&mut self, at: SimTime, key: EventKey, kind: EventKind) -> u32 {
        let node = Node {
            ev: ScheduledEvent {
                time: at,
                key,
                kind,
            },
            next: NIL,
            prev: NIL,
        };
        let idx = match self.free {
            NIL => {
                let idx = u32::try_from(self.nodes.len()).unwrap_or(HEAD);
                assert!(idx < HEAD, "event slab full");
                self.nodes.push(node);
                idx
            }
            idx => {
                self.free = std::mem::replace(&mut self.nodes[idx as usize], node).next;
                idx
            }
        };
        self.place(idx);
        self.len += 1;
        idx
    }

    /// Files the slab cell `idx` relative to the current cursor: into
    /// `ready` when its tick is at or behind it (a same-tick push, or
    /// one made after a peek moved the cursor on), else onto the list
    /// of the wheel slot, or into the overflow heap, its tick selects.
    /// The level is that of the highest tick bit in which the event and
    /// the cursor differ.
    fn place(&mut self, idx: u32) {
        let ScheduledEvent { time, key, .. } = self.nodes[idx as usize].ev;
        let t = tick_of(time);
        if t <= self.current_tick {
            let entry = (time, key, idx);
            // Descending order: the first element strictly smaller.
            let pos = self.ready.partition_point(|e| *e > entry);
            self.ready.insert(pos, entry);
            return;
        }
        let diff = t ^ self.current_tick;
        let slot = if diff < NEAR_SLOTS as u64 {
            let slot = t as usize % NEAR_SLOTS;
            self.near_occupied[slot / 64] |= 1 << (slot % 64);
            self.near_summary |= 1 << (slot / 64);
            slot
        } else if diff < 1 << HORIZON_BITS {
            let u = ((63 - diff.leading_zeros() - NEAR_BITS) / SLOT_BITS) as usize;
            let slot = (t >> upper_shift(u)) as usize % SLOTS;
            self.upper_occupied[u] |= 1 << slot;
            upper_head(u, slot)
        } else {
            self.nodes[idx as usize].prev = OVERFLOWED;
            self.overflow.push(Reverse((time, key, idx)));
            return;
        };
        let next = std::mem::replace(&mut self.heads[slot], idx);
        if next != NIL {
            self.nodes[next as usize].prev = idx;
        }
        let node = &mut self.nodes[idx as usize];
        node.next = next;
        node.prev = HEAD | slot as u32;
    }

    /// Clears the occupancy bit of slot `slot` (an index into `heads`),
    /// whose list has just emptied.
    fn vacate(&mut self, slot: usize) {
        if let Some(upper) = slot.checked_sub(NEAR_SLOTS) {
            self.upper_occupied[upper / SLOTS] &= !(1 << (upper % SLOTS));
        } else {
            self.near_occupied[slot / 64] &= !(1 << (slot % 64));
            if self.near_occupied[slot / 64] == 0 {
                self.near_summary &= !(1 << (slot / 64));
            }
        }
    }

    /// Unschedules the pending event in slab cell `cell` (as returned by
    /// [`EventQueue::push`]) and recycles the cell: O(1) from a wheel
    /// slot's list, a binary search and a shift from `ready`, a linear
    /// filter from the overflow heap (far past any timer the engine
    /// re-arms). The cell must hold a pending event.
    fn remove(&mut self, cell: u32) {
        let Node { ev, next, prev } = self.nodes[cell as usize];
        if tick_of(ev.time) <= self.current_tick {
            // Due: in `ready`, and only there (the first invariant).
            let entry = (ev.time, ev.key, cell);
            let pos = self
                .ready
                .binary_search_by(|e| entry.cmp(e))
                .expect("a due event is in ready");
            self.ready.remove(pos);
        } else if prev == OVERFLOWED {
            self.overflow.retain(|Reverse(e)| e.2 != cell);
        } else {
            if next != NIL {
                self.nodes[next as usize].prev = prev;
            }
            if prev & HEAD == 0 {
                self.nodes[prev as usize].next = next;
            } else {
                let slot = (prev & !HEAD) as usize;
                self.heads[slot] = next;
                if next == NIL {
                    self.vacate(slot);
                }
            }
        }
        self.recycle(cell);
    }

    /// Puts the cell of an event leaving the queue on the free list,
    /// marked `FREE` so no handle matches it until it is reused.
    fn recycle(&mut self, cell: u32) {
        let node = &mut self.nodes[cell as usize];
        node.next = std::mem::replace(&mut self.free, cell);
        node.prev = FREE;
        self.len -= 1;
    }

    /// Smallest set bit of `bitmap` strictly above bit `above`, if any.
    fn next_bit(bitmap: u64, above: usize) -> Option<usize> {
        // Two shifts: `above` may be 63.
        let mask = bitmap & ((!0u64 << above) << 1);
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// Smallest occupied near slot strictly above the cursor's: the
    /// rest of the cursor's bitmap word, else the first bit of the next
    /// non-zero word the summary names.
    fn next_near_slot(&self) -> Option<usize> {
        let cur = self.current_tick as usize % NEAR_SLOTS;
        let word = cur / 64;
        if let Some(bit) = Self::next_bit(self.near_occupied[word], cur % 64) {
            return Some(word * 64 + bit);
        }
        let word = Self::next_bit(self.near_summary, word)?;
        Some(word * 64 + self.near_occupied[word].trailing_zeros() as usize)
    }

    /// Lowest upper level with an occupied slot above the cursor's, as
    /// `(upper level, slot, base tick of the slot)`.
    fn next_upper_slot(&self) -> Option<(usize, usize, u64)> {
        (0..UPPER_LEVELS).find_map(|u| {
            let shift = upper_shift(u);
            let cur = (self.current_tick >> shift) as usize % SLOTS;
            let slot = Self::next_bit(self.upper_occupied[u], cur)?;
            let above = self.current_tick >> (shift + SLOT_BITS);
            Some((u, slot, ((above << SLOT_BITS) | slot as u64) << shift))
        })
    }

    /// Ensures the earliest pending event is at `ready`'s tail (or the
    /// queue is empty). While `ready` is non-empty this is one branch:
    /// its events all tick at or behind the cursor, so no slot or
    /// overflow event can precede them.
    #[inline]
    fn advance(&mut self) {
        if self.ready.is_empty() && self.len > 0 {
            self.refill();
        }
    }

    /// Moves the cursor to the tick of the earliest pending event and
    /// files every event of that tick in `ready`. Call only with
    /// `ready` empty and the queue not.
    ///
    /// The wheel's earliest slot is the near level's first occupied one
    /// above the cursor, else that of the lowest upper level that has
    /// one: a level's events differ from the cursor in a more
    /// significant digit than any lower level's. Overflow events are
    /// due once the cursor reaches their tick.
    fn refill(&mut self) {
        let over = self.overflow.peek().map(|Reverse(e)| tick_of(e.0));
        let limit = over.unwrap_or(u64::MAX);
        if let Some(slot) = self.next_near_slot() {
            let tick = (self.current_tick & !(NEAR_SLOTS as u64 - 1)) | slot as u64;
            if tick <= limit {
                // A near list shares one tick: all of it is due.
                self.vacate(slot);
                let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
                while idx != NIL {
                    let Node { ev, next, .. } = &self.nodes[idx as usize];
                    self.ready.push((ev.time, ev.key, idx));
                    idx = *next;
                }
            }
            self.current_tick = tick.min(limit);
        } else if let Some((u, slot, _)) =
            self.next_upper_slot().filter(|&(_, _, base)| base <= limit)
        {
            let slot = upper_head(u, slot);
            self.vacate(slot);
            let head = std::mem::replace(&mut self.heads[slot], NIL);
            // An upper slot spans many ticks: find the earliest
            // actually present.
            let mut first = limit;
            let mut idx = head;
            while idx != NIL {
                let node = &self.nodes[idx as usize];
                first = first.min(tick_of(node.ev.time));
                idx = node.next;
            }
            // The cursor stops on the minimum's own tick, not on the
            // slot boundary before it: the slot's other events agree
            // with it above the slot's digit, so they relink at lower
            // levels.
            self.current_tick = first;
            let mut idx = head;
            while idx != NIL {
                let Node { ev, next, .. } = self.nodes[idx as usize];
                if tick_of(ev.time) == first {
                    self.ready.push((ev.time, ev.key, idx));
                } else {
                    self.place(idx);
                }
                idx = next;
            }
        } else {
            // The overflow minimum precedes the wheel's earliest slot,
            // or the wheel is empty. The check is hard in every profile:
            // with nothing in overflow either, `pop` would answer `None`
            // and a release run would end early with a plausible result.
            assert!(
                over.is_some(),
                "event queue len drifted: {} events lost",
                self.len
            );
            self.current_tick = limit;
        }
        let cursor = self.current_tick;
        while let Some(&Reverse(entry)) = self.overflow.peek() {
            if tick_of(entry.0) > cursor {
                break;
            }
            self.overflow.pop();
            self.ready.push(entry);
        }
        if self.ready.len() > 1 {
            self.ready.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.advance();
        let (_, _, idx) = self.ready.pop()?;
        self.recycle(idx);
        Some(self.nodes[idx as usize].ev)
    }

    /// Full `(time, key)` order position of the earliest pending event.
    /// (`&mut` because the wheel may advance its cursor to locate the
    /// minimum; the set of pending events is unchanged. `ready` stays
    /// populated between pops, so the steady-state cost is one `Vec`
    /// tail read.)
    pub fn peek_entry(&mut self) -> Option<(SimTime, EventKey)> {
        self.advance();
        self.ready.last().map(|&(time, key, _)| (time, key))
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::{FlowKey, LinkId, NodeId, PacketBuilder};
    use crate::rng::SimRng;
    use crate::time::SimDuration;
    use std::collections::{BTreeSet, HashMap, HashSet};

    /// The wheel's oracle: an ordered set of `(time, key)` order
    /// positions, obviously correct and nothing else.
    #[derive(Default)]
    struct RefSet(BTreeSet<(SimTime, EventKey)>);

    impl RefSet {
        fn push(&mut self, time: SimTime, key: EventKey) {
            assert!(self.0.insert((time, key)), "keys are unique");
        }

        fn pop(&mut self) -> Option<(SimTime, EventKey)> {
            self.0.pop_first()
        }

        fn remove(&mut self, time: SimTime, key: EventKey) {
            assert!(self.0.remove(&(time, key)), "removed a pending event");
        }

        fn peek_entry(&self) -> Option<(SimTime, EventKey)> {
            self.0.first().copied()
        }
    }

    /// Where a pending cell is held: 0 `ready`, 1 a near slot, `2 + u`
    /// upper level `u`, `2 + UPPER_LEVELS` the overflow heap.
    fn residence(q: &EventQueue, cell: u32) -> usize {
        let node = q.nodes[cell as usize];
        if tick_of(node.ev.time) <= q.current_tick {
            assert!(q.ready.iter().any(|e| e.2 == cell), "due but not ready");
            return 0;
        }
        if node.prev == OVERFLOWED {
            assert!(q.overflow.iter().any(|Reverse(e)| e.2 == cell));
            return 2 + UPPER_LEVELS;
        }
        let mut prev = node.prev;
        while prev & HEAD == 0 {
            prev = q.nodes[prev as usize].prev;
        }
        match (prev & !HEAD) as usize {
            slot if slot < NEAR_SLOTS => 1,
            slot => 2 + (slot - NEAR_SLOTS) / SLOTS,
        }
    }

    /// Every queue structure is empty and every cell of the slab is on
    /// the free list, once.
    fn assert_drained(q: &EventQueue) {
        assert!(q.is_empty());
        assert!(q.ready.is_empty() && q.overflow.is_empty());
        assert_eq!(q.near_occupied, [0; NEAR_WORDS]);
        assert_eq!(q.near_summary, 0);
        assert_eq!(q.upper_occupied, [0; UPPER_LEVELS]);
        assert!(q.heads.iter().all(|&h| h == NIL));
        let mut free = 0;
        let mut idx = q.free;
        while idx != NIL {
            free += 1;
            assert!(free <= q.nodes.len(), "free list cycles");
            idx = q.nodes[idx as usize].next;
        }
        assert_eq!(free, q.nodes.len(), "a cell is missing from the free list");
    }

    /// Unpacks a key into its `(class, origin, seq)` fields.
    fn fields(key: EventKey) -> (u8, u32, u64) {
        (
            (key.0 >> (EventKey::SEQ_BITS + EventKey::ORIGIN_BITS)) as u8,
            (key.0 >> EventKey::SEQ_BITS) as u32 & ((1 << EventKey::ORIGIN_BITS) - 1),
            key.0 & ((1 << EventKey::SEQ_BITS) - 1),
        )
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
            .map(|e| fields(e.key).0)
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
        // spans hit the near level (twice), upper levels 1 through 4
        // and the overflow heap.
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

    /// Events exactly at the near/upper boundary (ticks 4095 and 4096 =
    /// `NEAR_SLOTS`) and at the first slot of the second upper level
    /// (tick 2^18): the digit of a boundary tick is 0 at the lower
    /// level, so an off-by-one in the level pick or the cursor scan
    /// would misfile or skip these. Includes times offset *within* a
    /// boundary tick and a same-tick key tie.
    #[test]
    fn wheel_slot_boundary_events_fire_in_order() {
        let near = NEAR_SLOTS as u64;
        let second_upper = 1u64 << upper_shift(1);
        assert_eq!((near, second_upper), (4096, 1 << 18));
        let mut q = EventQueue::new();
        push_start(&mut q, at_tick(near - 1), 0); // tick 4095: last near slot
        push_start(&mut q, at_tick(near), 1); // tick 4096: first upper slot
        push_start(&mut q, at_tick(near) + SimDuration::from_nanos(17), 2); // same tick, later time
        push_start(&mut q, at_tick(near), 10); // tick 4096 again: key tie with node 1
        push_start(&mut q, at_tick(near + 1), 3); // tick 4097
        push_start(&mut q, at_tick(second_upper - 1), 4); // last level-1 tick
        push_start(&mut q, at_tick(second_upper), 5); // first level-2 slot
        assert_eq!(q.near_summary.count_ones(), 1, "only tick 4095 is near");
        assert_eq!(
            q.upper_occupied.map(u64::count_ones),
            [2, 1, 0, 0],
            "ticks 4096 and 4097 share a level-1 slot; 2^18 - 1 has the last"
        );
        // Same-time events tie-break by key: node 1 before 10.
        assert_eq!(drain_nodes(&mut q), vec![0, 1, 10, 2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    /// Events on either side of the wheel's horizon (tick `2^36`): one
    /// tick below lands in the top upper level, the boundary tick and
    /// everything past it land in the overflow heap, and both drain in
    /// time order.
    #[test]
    fn wheel_horizon_boundary_splits_into_overflow() {
        let horizon = 1u64 << HORIZON_BITS;
        let mut q = EventQueue::new();
        push_start(&mut q, at_tick(horizon), 1); // first overflow tick
        push_start(&mut q, at_tick(horizon - 1), 0); // last wheel tick (top level)
        push_start(&mut q, at_tick(horizon + 1), 2); // clearly past the horizon
        push_start(&mut q, at_tick(horizon) + SimDuration::from_nanos(3), 10); // inside the boundary tick
        assert_eq!(q.overflow.len(), 3);
        assert_eq!(q.upper_occupied, [0, 0, 0, 1 << (SLOTS - 1)]);
        assert_eq!(drain_nodes(&mut q), vec![0, 1, 10, 2]);
        assert!(q.is_empty());
    }

    /// The "filed once" property: an event pushed 1..=4095 ticks ahead
    /// of a cursor at a near-level origin is linked at the near level
    /// and nowhere else, so draining never relinks it.
    #[test]
    fn near_events_never_touch_an_upper_level() {
        let mut q = EventQueue::new();
        // Walk the cursor onto a multiple of 4096 that is not tick 0.
        push_start(&mut q, at_tick(3 * NEAR_SLOTS as u64), 0);
        assert!(q.pop().is_some());
        let cursor = q.current_tick;
        assert_eq!(cursor, 3 * NEAR_SLOTS as u64);
        for ahead in 1..NEAR_SLOTS as u64 {
            push_start(&mut q, at_tick(cursor + ahead), ahead as u32);
        }
        assert_eq!(q.upper_occupied, [0; UPPER_LEVELS]);
        assert!(q.overflow.is_empty() && q.ready.is_empty());
        assert_eq!(q.near_summary, !0);
        assert_eq!(q.near_occupied[0], !1, "the cursor's own slot stays empty");
        assert!(q.near_occupied[1..].iter().all(|&w| w == !0));
        let popped = drain_nodes(&mut q);
        assert_eq!(popped, (1..NEAR_SLOTS as u32).collect::<Vec<_>>());
        assert_eq!(q.upper_occupied, [0; UPPER_LEVELS]);
    }

    /// A drifted `len` must not end a run quietly: with nothing on the
    /// wheel and nothing in overflow, `pop` panics in every profile.
    #[test]
    #[should_panic(expected = "len drifted")]
    fn drifted_len_panics_in_every_profile() {
        let mut q = EventQueue::new();
        push_start(&mut q, SimTime::from_millis(1), 0);
        assert!(q.pop().is_some());
        q.len = 1;
        let _ = q.pop();
    }

    /// A wheel drain and an overflow drain colliding at the same
    /// timestamp must still pop in key order. The far event enters the
    /// overflow heap; after the cursor advances to within horizon range,
    /// a second event is pushed at the *exact same time* and lands in a
    /// near wheel slot. When that slot drains, the overflow drain merges
    /// the far event into `ready`, and the smaller key must surface
    /// first.
    #[test]
    fn overflow_and_wheel_drain_tie_break_at_same_timestamp() {
        let horizon = 1u64 << HORIZON_BITS;
        let far = horizon + 5;
        let mut q = EventQueue::new();
        push_start(&mut q, at_tick(far), 1); // overflow
        push_start(&mut q, at_tick(horizon + 1), 0); // overflow
                                                     // Popping the nearer event jumps the cursor to tick horizon+1.
        let first = q.pop().unwrap();
        assert_eq!(first.time, at_tick(horizon + 1));
        // Same absolute time as the far event, but now within wheel
        // range of the cursor: lands in a near slot. Key 2 > key 1.
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
        // Drive the wheel and the reference set with an identical random
        // push/pop/peek/cancel script and require the exact same pop
        // sequence — the wheel must be indistinguishable from the set.
        struct Churn {
            wheel: EventQueue,
            set: RefSet,
            /// Per event id (the key's seq): its cell while pending.
            cells: Vec<Option<u32>>,
        }

        impl Churn {
            fn push(&mut self, at: u64) {
                let at = SimTime::from_nanos(at);
                let id = self.cells.len() as u64;
                let node = NodeId((id & 0xFF_FFFF) as u32);
                let key = EventKey::start(node, id);
                let cell = self.wheel.push(at, key, EventKind::Start { node });
                self.cells.push(Some(cell));
                self.set.push(at, key);
            }

            fn pop(&mut self) -> Option<(SimTime, EventKey)> {
                let got = self.wheel.pop().map(|e| (e.time, e.key));
                assert_eq!(got, self.set.pop());
                if let Some((_, key)) = got {
                    self.cells[fields(key).2 as usize] = None;
                }
                got
            }

            /// Cancels pending event `id`, returning the residence it
            /// left.
            fn cancel(&mut self, id: usize) -> usize {
                let cell = self.cells[id].take().expect("cancelled a pending event");
                let ScheduledEvent { time, key, .. } = self.wheel.nodes[cell as usize].ev;
                let from = residence(&self.wheel, cell);
                self.wheel.remove(cell);
                self.set.remove(time, key);
                assert_eq!(self.wheel.len, self.set.0.len());
                from
            }
        }

        let mut rng = SimRng::new(0xBEE5);
        let mut q = Churn {
            wheel: EventQueue::new(),
            set: RefSet::default(),
            cells: Vec::new(),
        };
        let mut now = 0u64;
        let mut peeked_earlier = 0u32;
        // Cancellations per residence (see `residence`).
        let mut cancelled = [0u32; 3 + UPPER_LEVELS];
        for step in 0..40_000u64 {
            let roll = rng.next_f64();
            if roll < 0.55 {
                // Mostly near-future pushes; two classes drawn ±64 ticks
                // around the near/upper boundary and the level-1/level-2
                // boundary; and far ones, log-uniform up to past the
                // horizon, so every upper level and the overflow heap
                // hold events.
                let around = |rng: &mut SimRng, ticks: u64| {
                    rng.range_u64(ticks - 64, ticks + 64) << GRANULARITY_SHIFT
                };
                let class = rng.next_f64();
                let delta = if class < 0.10 {
                    let bits = rng.range_u64(20, 56);
                    rng.range_u64(0, 1 << bits)
                } else if class < 0.17 {
                    around(&mut rng, NEAR_SLOTS as u64)
                } else if class < 0.21 {
                    around(&mut rng, 1 << upper_shift(1))
                } else {
                    rng.range_u64(0, 200_000_000)
                };
                q.push(now + delta);
            } else if roll < 0.60 {
                // Peek (the cursor moves to the minimum's tick), then
                // push strictly earlier than what the peek found: the
                // one push-behind-the-cursor case the engine can make
                // (`schedule_start` between two `run_until` chunks).
                let min = q.wheel.peek_entry();
                assert_eq!(min, q.set.peek_entry(), "step {step}");
                if let Some((t, _)) = min {
                    if t.as_nanos() > now {
                        q.push(rng.range_u64(now, t.as_nanos() - 1));
                        peeked_earlier += 1;
                        assert_eq!(q.wheel.peek_entry(), q.set.peek_entry(), "step {step}");
                    }
                }
            } else if roll < 0.601 {
                // A same-tick burst: 1000 events inside the tick the
                // cursor is about to reach (or already stands on).
                let base = q.wheel.peek_entry().map_or(now, |(t, _)| t.as_nanos());
                for _ in 0..1_000 {
                    q.push(base + rng.range_u64(0, (1 << GRANULARITY_SHIFT) - 1));
                }
            } else if roll < 0.70 {
                // Cancel a pending event — half the time one of the
                // last 64 pushed, like an RTO re-arm, else one drawn
                // from every id pushed so far — then check the minimum.
                let pushed = q.cells.len() as u64;
                let span = if rng.chance(0.5) {
                    pushed.min(64)
                } else {
                    pushed
                };
                let pending = (0..64)
                    .map(|_| pushed.saturating_sub(1 + rng.next_below(span.max(1))) as usize)
                    .find(|&id| q.cells.get(id).is_some_and(Option::is_some));
                if let Some(id) = pending {
                    cancelled[q.cancel(id)] += 1;
                    assert_eq!(q.wheel.peek_entry(), q.set.peek_entry(), "step {step}");
                }
            } else if let Some((t, _)) = q.pop() {
                now = t.as_nanos();
            }
        }
        assert!(
            peeked_earlier > 500,
            "script made {peeked_earlier} earlier pushes"
        );
        assert!(
            cancelled.iter().all(|&n| n >= 10),
            "cancellations per residence (ready, near, upper 0-3, overflow): {cancelled:?}"
        );
        while q.pop().is_some() {}
        assert_drained(&q.wheel);
    }

    #[test]
    fn packed_key_orders_like_the_field_tuple() {
        let mut rng = SimRng::new(0x9AC7);
        // Small ranges next to full-width ones, so ties in the leading
        // fields are common and the trailing fields decide.
        let draw = |rng: &mut SimRng| {
            let class = rng.next_below(4) as u8;
            let origin = if rng.chance(0.5) {
                rng.next_below(3) as u32
            } else {
                rng.next_below(1 << EventKey::ORIGIN_BITS) as u32
            };
            let seq = if rng.chance(0.5) {
                rng.next_below(3)
            } else {
                rng.next_below(1 << EventKey::SEQ_BITS)
            };
            (class, origin, seq)
        };
        for _ in 0..100_000 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let (ka, kb) = (EventKey::pack(a.0, a.1, a.2), EventKey::pack(b.0, b.1, b.2));
            assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a:?} vs {b:?}");
            assert_eq!(fields(ka), a, "round trip");
        }
        // The largest value of every field still fits.
        let top = (
            3,
            (1 << EventKey::ORIGIN_BITS) - 1,
            (1 << EventKey::SEQ_BITS) - 1,
        );
        assert_eq!(fields(EventKey::pack(top.0, top.1, top.2)), top);
    }

    #[test]
    #[should_panic(expected = "event class out of range")]
    fn packed_key_class_overflow_panics() {
        EventKey::pack(4, 0, 0);
    }

    #[test]
    #[should_panic(expected = "event origin overflowed")]
    fn packed_key_origin_overflow_panics() {
        EventKey::timer(NodeId(1 << EventKey::ORIGIN_BITS), 0);
    }

    #[test]
    #[should_panic(expected = "event seq overflowed")]
    fn packed_key_seq_overflow_panics() {
        EventKey::arrival(LinkId(0), 1 << EventKey::SEQ_BITS);
    }

    #[test]
    fn slab_recycles_nodes_at_steady_population() {
        // 10^6 rounds at a fixed population, with the delay mix the
        // engine produces (same tick, next tick, 1 ms, 96 ms, 1 s), each
        // a pop and a push, then — the RTO re-arm — a cancel of a random
        // pending event and a push in its place: every freed cell must
        // be reused, so the slab never grows past the population.
        const POPULATION: usize = 512;
        let delays = [0u64, 43_000, 432_000, 1_000_000, 96_000_000, 1_000_000_000];
        let mut rng = SimRng::new(0x51AB);
        let mut q = EventQueue::new();
        // Pending events' cells by key seq.
        let mut pending: HashMap<u64, u32> = HashMap::new();
        let mut seq = 0u64;
        let mut push =
            |q: &mut EventQueue, pending: &mut HashMap<u64, u32>, rng: &mut SimRng, now: u64| {
                let at = SimTime::from_nanos(now + delays[rng.next_below(6) as usize]);
                let cell = q.push(
                    at,
                    EventKey::timer(NodeId(0), seq),
                    EventKind::Start { node: NodeId(0) },
                );
                pending.insert(seq, cell);
                seq += 1;
                seq
            };
        for _ in 0..POPULATION {
            push(&mut q, &mut pending, &mut rng, 0);
        }
        assert_eq!(q.nodes.len(), POPULATION);
        let mut last = SimTime::ZERO;
        let mut cancels = 0;
        for _ in 0..1_000_000 {
            let ev = q.pop().expect("population is steady");
            assert!(ev.time >= last, "time went backwards");
            last = ev.time;
            pending.remove(&fields(ev.key).2);
            let pushed = push(&mut q, &mut pending, &mut rng, last.as_nanos());
            let victim = (0..64)
                .map(|_| pushed - 1 - rng.next_below(pushed.min(4 * POPULATION as u64)))
                .find_map(|s| pending.remove(&s));
            if let Some(cell) = victim {
                q.remove(cell);
                push(&mut q, &mut pending, &mut rng, last.as_nanos());
                cancels += 1;
            }
            assert_eq!(q.len, POPULATION);
        }
        assert!(cancels > 900_000, "{cancels} re-arms");
        assert_eq!(q.nodes.len(), POPULATION, "slab grew at steady population");
        while q.pop().is_some() {}
        assert_drained(&q);
    }

    #[test]
    fn peek_entry_tracks_the_minimum_across_pushes_on_both_backends() {
        let mut q = EventQueue::new();
        let mut set = RefSet::default();
        let mut push = |q: &mut EventQueue, at: SimTime, n: u32| {
            push_start(q, at, n);
            set.push(at, EventKey::start(NodeId(n), 0));
            assert_eq!(q.peek_entry(), set.peek_entry());
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

    /// Node `node`'s timer number `seq`, due at `at`, set the way
    /// `Ctx::set_timer` sets one; the token is the seq.
    fn set_timer(q: &mut EventQueue, at: SimTime, node: u32, seq: u64) -> TimerId {
        q.push_timer(at, NodeId(node), seq, seq)
    }

    #[test]
    fn a_handle_cancels_its_pending_event_once() {
        let mut q = EventQueue::new();
        let n = NodeId(0);
        let a = set_timer(&mut q, SimTime::from_secs(1), 0, 0);
        let b = set_timer(&mut q, SimTime::from_secs(2), 0, 1);
        assert!(q.cancel_timer(n, a), "a live handle cancels");
        assert!(!q.cancel_timer(n, a), "a second cancel is a no-op");
        let fired = q.pop().expect("the other timer is still queued");
        assert_eq!(fired.key, EventKey::timer(n, 1));
        assert!(!q.cancel_timer(n, b), "a timer that fired cancels nothing");
        assert_drained(&q);
    }

    /// A handle whose cell was recycled, after its timer fired or was
    /// cancelled, matches nothing and leaves the cell's new occupant
    /// queued: the same node's next timer, another node's timer of the
    /// same seq, a `LinkFree` or an `Arrival`.
    #[test]
    fn a_recycled_cell_keeps_its_new_occupant() {
        let at = SimTime::from_secs(1);
        let flow = FlowKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        };
        let pkt = PacketArena::new().insert(PacketBuilder::new(flow).build());
        let (n0, n1, link) = (NodeId(0), NodeId(1), LinkId(0));
        let occupants = [
            (
                EventKey::timer(n0, 1),
                EventKind::Timer { node: n0, token: 1 },
            ),
            (
                EventKey::timer(n1, 0),
                EventKind::Timer { node: n1, token: 0 },
            ),
            (EventKey::link_free(link, 0), EventKind::LinkFree { link }),
            (
                EventKey::arrival(link, 0),
                EventKind::Arrival { node: n1, pkt },
            ),
        ];
        for (key, kind) in occupants {
            for fired in [false, true] {
                let mut q = EventQueue::new();
                let old = set_timer(&mut q, at, 0, 0);
                if fired {
                    assert!(q.pop().is_some());
                } else {
                    assert!(q.cancel_timer(n0, old));
                }
                assert_eq!(q.push(at, key, kind), old.cell, "the cell is reused");
                assert!(!q.cancel_timer(n0, old), "{key:?}, fired: {fired}");
                assert_eq!(q.pop().map(|e| e.key), Some(key), "the occupant stays");
                assert_drained(&q);
            }
        }
    }

    /// A timer already due in `ready` (a peek moved the cursor onto its
    /// tick) leaves it when cancelled and never fires.
    #[test]
    fn a_due_timer_cancels_out_of_ready() {
        let mut q = EventQueue::new();
        let t = set_timer(&mut q, at_tick(5) + SimDuration::from_nanos(9), 0, 0);
        push_start(&mut q, at_tick(5), 1);
        assert_eq!(q.peek_entry().map(|(at, _)| at), Some(at_tick(5)));
        assert_eq!(residence(&q, t.cell), 0, "the timer is in ready");
        assert!(q.cancel_timer(NodeId(0), t));
        assert_eq!(drain_nodes(&mut q), vec![1]);
        assert_drained(&q);
    }

    /// Only the node that set a timer cancels it, and no synthetic id
    /// matches an event, not even one whose number is a live timer's
    /// cell or seq.
    #[test]
    fn foreign_and_synthetic_handles_match_nothing() {
        let mut q = EventQueue::new();
        let ids: Vec<TimerId> = (0..4)
            .map(|s| set_timer(&mut q, SimTime::from_secs(1 + s), 0, s))
            .collect();
        for &id in &ids {
            assert!(!q.cancel_timer(NodeId(1), id), "another node's handle");
        }
        for n in [0, 1, 3, u32::MAX] {
            assert!(!q.cancel_timer(NodeId(0), TimerId::synthetic(n)));
        }
        let fired: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| fields(e.key).2)
            .collect();
        assert_eq!(fired, [0, 1, 2, 3]);
    }

    /// 100 live handles are distinct, and each cancels its own event
    /// exactly once, in an order unrelated to when they were set.
    #[test]
    fn many_live_handles_each_cancel_once() {
        let mut q = EventQueue::new();
        let ids: Vec<TimerId> = (0..100)
            .map(|s| set_timer(&mut q, SimTime::from_millis(1 + 10 * s), 0, s))
            .collect();
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 100);
        for i in 0..100 {
            assert!(q.cancel_timer(NodeId(0), ids[i * 37 % 100]));
        }
        for &id in &ids {
            assert!(!q.cancel_timer(NodeId(0), id));
        }
        assert_drained(&q);
    }
}
