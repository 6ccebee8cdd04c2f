//! TAQ's multi-class priority queues and 3-level scheduler (paper §4.2).
//!
//! Five classes share one buffer:
//!
//! - **Recovery** — flows currently retransmitting, served as a strict
//!   priority queue ordered by the flow's preceding silence (longer
//!   silence first: a retransmission ending an extended silence must
//!   win, because losing it doubles the flow's timer again);
//! - **NewFlow** — brand-new flows in slow start, with its own capacity
//!   cap (this is also where connection-admission pressure is applied);
//! - **OverPenalized** — flows that already took multiple drops
//!   recently, or are mid-recovery (don't kick a flow while it's down:
//!   one more drop likely means a timeout);
//! - **BelowFairShare** / **AboveFairShare** — flows under / over their
//!   fair share.
//!
//! Packets are queued **per flow**, and a flow belongs to exactly one
//! class at a time (its queue migrates wholesale when the classification
//! changes). This guarantees the middlebox never reorders packets
//! within a flow — a split-per-packet design would let a later segment
//! overtake an earlier one across class queues and manufacture spurious
//! duplicate ACKs at the receiver. Within each class, flows are served
//! round-robin: TAQ explicitly "aims to achieve a Fair Queuing-like
//! fairness model".
//!
//! Scheduling levels: (1) Recovery, strict but rate-capped by a token
//! bucket so retransmissions cannot starve the link; (2) BelowFairShare,
//! NewFlow and OverPenalized at equal priority, served proportionally to
//! demand (the paper: "proportionally allocate resources based on the
//! queue demands"); (3) AboveFairShare strictly last. The discipline is
//! work-conserving: if only rate-capped recovery flows remain, they are
//! served anyway (the cap protects other traffic, not the link).
//!
//! Victim selection on overflow drops where a timeout is least likely:
//! the above-share flow with the biggest recent window first (it can
//! repair by fast retransmit), always from the *head* of the flow's
//! queue (the hole appears early, so the packets still buffered behind
//! it produce the duplicate ACKs fast retransmit needs), sparing
//! handshake packets while alternatives exist, and touching a
//! recovering flow's packets only when nothing else is buffered.
//!
//! ## Layout
//!
//! The buffer stores [`QueuedPkt`] handles — the arena [`PacketId`]
//! plus the few fields the scheduler ever reads (wire length, SYN-ACK
//! bit, observational id) — so the hot path never chases the packet
//! body. The handles of every flow share one pool of cells recycled
//! through a free list, each flow's queue a chain of cells from its
//! head to its tail, so the buffer costs one cell per packet buffered
//! and nothing per flow that drained. Per-flow scheduling metadata
//! lives in parallel slabs indexed by the dense [`FlowId`]
//! (structure-of-arrays), and the per-class packet counts are
//! maintained incrementally in a cache-line-aligned scheduler header,
//! making `class_len` O(1).
//!
//! No per-packet decision walks a class. Each class keeps its flows on
//! an intrusive doubly-linked list threaded through the slabs' `prev` /
//! `next` columns, in round-robin order: append, rotate-to-tail and
//! unlink (drain, migrate, evict) are O(1) and preserve the order a
//! ring would have. Every pick the policy makes by comparing flows is
//! the maximum of a binary max-heap over exactly the compared key,
//! packed into one integer, most significant field first, above the
//! complement of the flow id in the low 32 bits — so a comparison is
//! one integer compare, every key is unique, a full tie breaks towards
//! the *smallest* id, and the key alone names its flow:
//!
//! - Recovery, service order: `silence << 96 | !last_normal_at << 32 |
//!   !id`. Its maximum is the flow Level 1 serves;
//! - Recovery, victim order: `!silence << 96 | last_normal_at << 32 |
//!   !id`. Its maximum is the last-resort eviction victim — shortest
//!   silence, then most recent normal transmission, then (like the
//!   service order) smallest id;
//! - OverPenalized, BelowFairShare, AboveFairShare: `score << 96 |
//!   backlog << 32 | !id`, maximum = eviction victim by window;
//! - NewFlow, BelowFairShare: `backlog << 32 | !id` (one `u64`; the
//!   others are `u128`), maximum = eviction victim by backlog (and "does
//!   any ordinary flow hold a burst" is that maximum's backlog being at
//!   least 2).
//!
//! A heap entry knows its slot. A flow sits in exactly one class, so two
//! slab columns serve every heap: `pos_a` holds the flow's position in
//! its class's score heap or Recovery's service heap, `pos_b` in the
//! backlog heap or Recovery's victim heap. A flow enters its class's
//! heaps on arrival and after a migration, and leaves them on drain and
//! before a migration. In between, every mutation of a keyed column
//! re-keys it — the new key overwrites the old in place and sifts up or
//! down, O(log n) with nothing removed and reinserted: a `push` to a
//! live flow rewrites score, silence, last-normal time and backlog;
//! every pop and eviction changes backlog. A pop that leaves a Recovery
//! flow backlogged skips the re-key, since neither Recovery key reads
//! backlog.

use crate::tracker::Observation;
use taq_sim::{Bandwidth, FlowId, Packet, PacketId, SimTime};
use taq_telemetry::QueueClass;

/// Classifies a packet's flow given its observation, the flow's
/// currently buffered backlog, and the fair share (paper §4.2's queue
/// definitions).
///
/// True repairs of drops we inflicted ride the priority class, as do
/// any retransmissions of a flow already in a timeout (losing those
/// doubles its timer); spurious go-back-N resends from a healthy flow
/// do not get to jump the line. Flows recovering from losses (or
/// already dropped-on twice) are shielded in OverPenalized: one more
/// loss likely means a (repetitive) timeout.
///
/// Above-share detection uses two signals, either sufficing: the
/// smoothed rate estimate exceeding the share, or the buffered backlog
/// reaching `share_backlog_pkts` (the number of packets one fair share
/// amounts to per epoch, floored at 1). The backlog signal is the sharp
/// one in the sub-packet regime, where the fair share is under a packet
/// per RTT and any flow keeping several packets buffered is by
/// definition claiming more than its share.
///
/// The rules form one fixed priority chain: Recovery, then the
/// plain-FQ ablation's single class, then NewFlow, OverPenalized and
/// AboveFairShare, with BelowFairShare as the default.
pub fn classify(
    obs: &Observation,
    backlog_pkts: usize,
    share_backlog_pkts: usize,
    fair_share_bps: f64,
) -> QueueClass {
    if obs.repairs_our_drop || (obs.retransmission && obs.protected) {
        QueueClass::Recovery
    } else if obs.fq_only {
        QueueClass::BelowFairShare
    } else if obs.is_new {
        QueueClass::NewFlow
    } else if obs.protected || obs.recent_drops >= 2 {
        QueueClass::OverPenalized
    } else if obs.rate_bps > fair_share_bps || backlog_pkts >= share_backlog_pkts.max(1) {
        QueueClass::AboveFairShare
    } else {
        QueueClass::BelowFairShare
    }
}

/// A buffered packet handle: the arena id plus the only per-packet
/// fields the scheduler reads, cached at enqueue so the hot path never
/// dereferences the packet body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedPkt {
    /// Arena handle; ownership transfers with the `QueuedPkt`.
    pub pid: PacketId,
    /// The packet's observational `Packet::id` (diagnostics, tests).
    pub pkt_id: u64,
    /// Dense flow id this packet belongs to.
    pub flow: FlowId,
    /// Cached wire length in bytes.
    pub wire: u32,
    /// Cached `syn && ack` (handshake packets are spared on eviction).
    pub synack: bool,
}

impl QueuedPkt {
    /// Builds the handle from a packet body (one arena read).
    pub fn from_packet(pid: PacketId, flow: FlowId, pkt: &Packet) -> Self {
        QueuedPkt {
            pid,
            pkt_id: pkt.id,
            flow,
            wire: pkt.wire_len(),
            synack: pkt.flags.syn && pkt.flags.ack,
        }
    }
}

/// Vacant marker in the per-flow `class` slab.
const NO_CLASS: u8 = u8::MAX;

/// End-of-list marker in the `prev` / `next` slabs and the class list
/// ends. Never a live id: the slabs are dense in the id.
const NIL: FlowId = FlowId(u32::MAX);

const RECOVERY: usize = QueueClass::Recovery.index();

/// End-of-queue marker in a [`FlowChain`]'s ends and the pool's
/// `next` links. Never a cell: the pool holds fewer cells than this.
const NO_CELL: u32 = u32::MAX;

/// Per-flow scheduling state in structure-of-arrays form, indexed by
/// the dense [`FlowId`]. A flow is live iff `class[i] != NO_CLASS`.
#[derive(Debug, Default)]
struct FlowSlabs {
    /// Current [`QueueClass`] index, or [`NO_CLASS`].
    class: Vec<u8>,
    /// Recent window estimate (eviction score: bigger pays first).
    score: Vec<u32>,
    /// Silence preceding the current recovery (Recovery priority:
    /// longer is served first, dropped last).
    silence: Vec<u32>,
    /// Last normal-state transmission (Recovery tie-break).
    last_normal_at: Vec<SimTime>,
    /// Buffered wire bytes of the flow.
    bytes: Vec<usize>,
    /// The flow's buffered packets: its chain of [`PacketPool`] cells.
    chains: Vec<FlowChain>,
    /// Neighbours on the flow's class list ([`NIL`] at the ends);
    /// meaningful only while the flow is live.
    prev: Vec<FlowId>,
    next: Vec<FlowId>,
    /// The flow's slot in its class's score heap or Recovery's service
    /// heap, [`ABSENT`] while it is in neither.
    pos_a: Vec<u32>,
    /// The flow's slot in its class's backlog heap or Recovery's victim
    /// heap, [`ABSENT`] while it is in neither.
    pos_b: Vec<u32>,
}

impl FlowSlabs {
    fn ensure(&mut self, idx: usize) {
        if idx >= self.class.len() {
            self.class.resize(idx + 1, NO_CLASS);
            self.score.resize(idx + 1, 0);
            self.silence.resize(idx + 1, 0);
            self.last_normal_at.resize(idx + 1, SimTime::ZERO);
            self.bytes.resize(idx + 1, 0);
            self.chains.resize(idx + 1, FlowChain::EMPTY);
            self.prev.resize(idx + 1, NIL);
            self.next.resize(idx + 1, NIL);
            self.pos_a.resize(idx + 1, ABSENT);
            self.pos_b.resize(idx + 1, ABSENT);
        }
    }

    // The heap keys of flow `id`, as its columns stand right now.

    /// Recovery service order: longest silence, then least-recent
    /// normal transmission, then lowest id.
    fn recovery_key(&self, id: FlowId) -> u128 {
        let idx = id.index();
        let last_normal_ns = self.last_normal_at[idx].as_nanos();
        pack_wide(self.silence[idx], !last_normal_ns, id)
    }

    /// Recovery victim order: shortest silence, then most-recent normal
    /// transmission, then lowest id.
    fn victim_key(&self, id: FlowId) -> u128 {
        let idx = id.index();
        let last_normal_ns = self.last_normal_at[idx].as_nanos();
        pack_wide(!self.silence[idx], last_normal_ns, id)
    }

    /// Eviction by window: biggest score, then deepest backlog, then
    /// lowest id.
    fn score_key(&self, id: FlowId) -> u128 {
        let idx = id.index();
        pack_wide(self.score[idx], u64::from(self.chains[idx].backlog), id)
    }

    /// Eviction by backlog: deepest backlog, then lowest id.
    fn backlog_key(&self, id: FlowId) -> u64 {
        pack_backlog(self.chains[id.index()].backlog as usize, id)
    }
}

/// One flow's queue in the [`PacketPool`]: its oldest and newest cells
/// ([`NO_CELL`] while it buffers nothing) and how many it holds. Its
/// packets, in arrival order, are the cells linked from `head` through
/// the pool's `next`. The three share a slab entry because every push
/// and removal reads or writes all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlowChain {
    head: u32,
    tail: u32,
    backlog: u32,
}

impl FlowChain {
    const EMPTY: FlowChain = FlowChain {
        head: NO_CELL,
        tail: NO_CELL,
        backlog: 0,
    };
}

/// One [`PacketPool`] cell: a buffered packet and the next cell of its
/// flow's queue, or of the free list while the cell is vacant.
#[derive(Debug, Clone, Copy)]
struct PoolCell {
    qp: QueuedPkt,
    next: u32,
}

/// Every buffered packet of every flow, one cell each. Cells are
/// recycled through a free list, so the pool only grows past the most
/// packets ever buffered at once (`buffer_pkts + 1`: a push lands
/// before the eviction it causes), however many flows come and go.
#[derive(Debug)]
struct PacketPool {
    cells: Vec<PoolCell>,
    /// First vacant cell ([`NO_CELL`] if none), the rest linked through
    /// `next`.
    free: u32,
}

impl Default for PacketPool {
    fn default() -> Self {
        PacketPool {
            cells: Vec::new(),
            free: NO_CELL,
        }
    }
}

impl PacketPool {
    /// Stores `qp` in a vacant cell (a new one only if none is vacant)
    /// as the end of a queue, and returns the cell.
    fn alloc(&mut self, qp: QueuedPkt) -> u32 {
        let cell = PoolCell { qp, next: NO_CELL };
        if self.free == NO_CELL {
            // Invariant: the pool holds at most the packets buffered at
            // once, which the configured `buffer_pkts` caps far below
            // `NO_CELL`, whatever the headers.
            let at = u32::try_from(self.cells.len())
                .ok()
                .filter(|&at| at != NO_CELL)
                .expect("packet pool outgrew its 32-bit cell index");
            self.cells.push(cell);
            at
        } else {
            let at = self.free;
            self.free = self.cells[at as usize].next;
            self.cells[at as usize] = cell;
            at
        }
    }

    /// Vacates cell `at` and returns the packet it held.
    fn release(&mut self, at: u32) -> QueuedPkt {
        let cell = &mut self.cells[at as usize];
        cell.next = self.free;
        self.free = at;
        cell.qp
    }

    /// The cells of the chain starting at `head`, in link order.
    fn chain(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        let live = |at: u32| (at != NO_CELL).then_some(at);
        std::iter::successors(live(head), move |&at| live(self.cells[at as usize].next))
    }
}

/// `hi << 96 | mid << 32 | !id`. Every field has its full width, so
/// nothing can overflow.
fn pack_wide(hi: u32, mid: u64, id: FlowId) -> u128 {
    u128::from(hi) << 96 | u128::from(mid) << 32 | u128::from(!id.0)
}

/// `backlog << 32 | !id`. A backlog past 32 bits panics in every build
/// profile: a wrapped field would silently reorder the victims.
fn pack_backlog(backlog: usize, id: FlowId) -> u64 {
    // Invariant: a backlog is at most the configured `buffer_pkts`, whatever the headers.
    let backlog = u32::try_from(backlog).expect("backlog overflowed its 32-bit key field");
    u64::from(backlog) << 32 | u64::from(!id.0)
}

/// A packed heap key (see the module docs): compared fields above the
/// flow id's complement in the low 32 bits.
trait PackedKey: Copy + Ord {
    /// The flow the key belongs to.
    fn flow(self) -> FlowId;
}

impl PackedKey for u64 {
    fn flow(self) -> FlowId {
        FlowId(!(self as u32))
    }
}

impl PackedKey for u128 {
    fn flow(self) -> FlowId {
        FlowId(!(self as u32))
    }
}

/// Slot-column marker: the flow has no entry in the heap the column
/// serves. Never a position: a heap holds at most one entry per live
/// flow, and `NIL`'s id is never live.
const ABSENT: u32 = u32::MAX;

/// How a flow's heap entries change.
#[derive(Debug, Clone, Copy)]
enum Reindex {
    /// Arrival, or the end of a migration: a new entry.
    Enter,
    /// Drain, or the start of a migration: the entry goes.
    Leave,
    /// A keyed column changed: the entry takes its new key in place.
    Rekey,
}

/// A binary max-heap of packed keys whose entries know their slot: the
/// entry of flow `id` sits at `pos[id]` of the slab column the caller
/// passes with every operation, so a re-key or a removal finds it in
/// O(1) and only sifts.
#[derive(Debug)]
struct SlotHeap<K> {
    keys: Vec<K>,
}

impl<K> Default for SlotHeap<K> {
    fn default() -> Self {
        SlotHeap { keys: Vec::new() }
    }
}

impl<K: PackedKey> SlotHeap<K> {
    fn max(&self) -> Option<K> {
        self.keys.first().copied()
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Applies `op` to the entry of `key`'s flow; `key` is the flow's
    /// current key (a `Leave` reads only its flow).
    fn apply(&mut self, op: Reindex, pos: &mut [u32], key: K) {
        match op {
            Reindex::Enter => {
                self.keys.push(key);
                self.sift_up(pos, self.keys.len() - 1, key);
            }
            Reindex::Leave => {
                let at = std::mem::replace(&mut pos[key.flow().index()], ABSENT) as usize;
                // Invariant: only a flow on this heap leaves it, so it is non-empty.
                let last = self.keys.pop().expect("leaving an empty heap");
                if at < self.keys.len() {
                    let gone = std::mem::replace(&mut self.keys[at], last);
                    self.resift(pos, at, gone, last);
                }
            }
            Reindex::Rekey => {
                let at = pos[key.flow().index()] as usize;
                let old = std::mem::replace(&mut self.keys[at], key);
                self.resift(pos, at, old, key);
            }
        }
    }

    /// Restores heap order after the entry at `at` changed from `old`
    /// to `new`.
    fn resift(&mut self, pos: &mut [u32], at: usize, old: K, new: K) {
        if new > old {
            self.sift_up(pos, at, new);
        } else {
            self.sift_down(pos, at, new);
        }
    }

    /// Moves `key`, meant for slot `at`, up past every smaller parent.
    fn sift_up(&mut self, pos: &mut [u32], mut at: usize, key: K) {
        while at > 0 {
            let parent = (at - 1) / 2;
            let above = self.keys[parent];
            if above > key {
                break;
            }
            self.place(pos, at, above);
            at = parent;
        }
        self.place(pos, at, key);
    }

    /// Moves `key`, meant for slot `at`, down past every greater child,
    /// always trading places with the greater of two.
    fn sift_down(&mut self, pos: &mut [u32], mut at: usize, key: K) {
        let n = self.keys.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.keys[child + 1] > self.keys[child] {
                child += 1;
            }
            let below = self.keys[child];
            if below < key {
                break;
            }
            self.place(pos, at, below);
            at = child;
        }
        self.place(pos, at, key);
    }

    fn place(&mut self, pos: &mut [u32], at: usize, key: K) {
        self.keys[at] = key;
        pos[key.flow().index()] = at as u32;
    }

    /// `true` if `key`'s flow's slot holds exactly `key`.
    fn holds(&self, pos: &[u32], key: K) -> bool {
        self.keys.get(pos[key.flow().index()] as usize) == Some(&key)
    }

    /// Panics unless every entry is no greater than its parent.
    fn check_order(&self) {
        for at in 1..self.keys.len() {
            assert!(
                self.keys[at] < self.keys[(at - 1) / 2],
                "heap entry {at} above its parent"
            );
        }
    }
}

/// Which classes the eviction policy picks from by score / by backlog
/// (priority order, as [`QueueClass::ALL`]); only those keep the heap.
const BY_SCORE: [bool; 5] = [false, false, true, true, true];
const BY_BACKLOG: [bool; 5] = [false, true, false, true, false];

/// One class: its flows in round-robin order (an intrusive list through
/// the slabs' `prev` / `next` columns) and the victim heaps the
/// eviction policy reads for it.
#[derive(Debug)]
struct ClassList {
    head: FlowId,
    tail: FlowId,
    flows: usize,
    by_score: SlotHeap<u128>,
    by_backlog: SlotHeap<u64>,
}

impl Default for ClassList {
    fn default() -> Self {
        ClassList {
            head: NIL,
            tail: NIL,
            flows: 0,
            by_score: SlotHeap::default(),
            by_backlog: SlotHeap::default(),
        }
    }
}

/// Scheduler header: the per-class packet counts and level-1/level-2
/// rotation state, grouped on one cache line so a `pop` touches a
/// single hot line before it picks a flow.
#[derive(Debug)]
#[repr(align(64))]
struct SchedState {
    /// Packets buffered per class (priority order), maintained
    /// incrementally — `class_len` is O(1).
    class_pkts: [usize; 5],
    // Level-2 rotation pointer (tie-breaking among equal demands).
    rr_next: u8,
    // Level-1 token bucket.
    recovery_tokens: f64,
    recovery_rate_bps: f64,
    token_cap: f64,
    last_refill: SimTime,
}

/// The five queues plus scheduler state. Flows are identified by their
/// dense [`FlowId`] (handed out by the flow table's interner) and live
/// in the SoA slabs indexed by it — the queue layer never hashes a
/// flow key and never touches a packet body.
#[derive(Debug)]
pub struct TaqQueues {
    flows: FlowSlabs,
    /// The buffered packets of every flow.
    pool: PacketPool,
    /// Per class, in priority order: round-robin list and victim
    /// heaps.
    lists: [ClassList; 5],
    /// Level-1 service heap over the Recovery class (slots in `pos_a`).
    recovery: SlotHeap<u128>,
    /// Last-resort victim heap over the Recovery class (slots in
    /// `pos_b`).
    recovery_victims: SlotHeap<u128>,
    len: usize,
    bytes: usize,
    sched: SchedState,
}

impl TaqQueues {
    /// Creates the queue set; the Recovery class may use at most
    /// `recovery_fraction` of `link_rate`.
    pub fn new(link_rate: Bandwidth, recovery_fraction: f64) -> Self {
        let rate = link_rate.bps() as f64 * recovery_fraction;
        TaqQueues {
            flows: FlowSlabs::default(),
            pool: PacketPool::default(),
            lists: Default::default(),
            recovery: SlotHeap::default(),
            recovery_victims: SlotHeap::default(),
            len: 0,
            bytes: 0,
            sched: SchedState {
                class_pkts: [0; 5],
                rr_next: 0,
                recovery_tokens: 0.0,
                recovery_rate_bps: rate,
                // Allow a burst of a few packets' worth of recovery
                // traffic.
                token_cap: 3.0 * 1500.0 * 8.0,
                last_refill: SimTime::ZERO,
            },
        }
    }

    /// Total packets buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes buffered.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// The flow's live class index, if it buffers anything.
    fn class_of(&self, id: FlowId) -> Option<usize> {
        match self.flows.class.get(id.index()) {
            Some(&c) if c != NO_CLASS => Some(c as usize),
            _ => None,
        }
    }

    /// `true` while `id` has packets buffered here — the flow table's
    /// GC must not recycle the id as long as this holds.
    pub fn holds(&self, id: FlowId) -> bool {
        self.class_of(id).is_some()
    }

    /// Buffered packets of one flow.
    pub fn flow_backlog(&self, id: FlowId) -> usize {
        if self.holds(id) {
            self.flows.chains[id.index()].backlog as usize
        } else {
            0
        }
    }

    /// Packets buffered under a given class. O(1): the scheduler
    /// header tracks per-class counts incrementally.
    pub fn class_len(&self, class: QueueClass) -> usize {
        self.sched.class_pkts[class.index()]
    }

    /// Flows currently assigned to a class.
    pub fn class_flows(&self, class: QueueClass) -> usize {
        self.lists[class.index()].flows
    }

    /// Packet counts per class in priority order, shaped for the
    /// telemetry `QueueDepth` event.
    pub fn depth_per_class(&self) -> [u64; QueueClass::ALL.len()] {
        QueueClass::ALL.map(|c| self.class_len(c) as u64)
    }

    /// The flows of `class` in round-robin order.
    fn class_iter(&self, class: usize) -> impl Iterator<Item = FlowId> + '_ {
        let live = |id: FlowId| (id != NIL).then_some(id);
        std::iter::successors(live(self.lists[class].head), move |id| {
            live(self.flows.next[id.index()])
        })
    }

    /// Appends `id` to the tail of `class`'s list.
    fn link_back(&mut self, id: FlowId, class: usize) {
        let list = &mut self.lists[class];
        self.flows.prev[id.index()] = list.tail;
        self.flows.next[id.index()] = NIL;
        if list.tail == NIL {
            list.head = id;
        } else {
            self.flows.next[list.tail.index()] = id;
        }
        list.tail = id;
        list.flows += 1;
    }

    /// Takes `id` out of `class`'s list, wherever it sits.
    fn unlink(&mut self, id: FlowId, class: usize) {
        let list = &mut self.lists[class];
        let (prev, next) = (self.flows.prev[id.index()], self.flows.next[id.index()]);
        if prev == NIL {
            list.head = next;
        } else {
            self.flows.next[prev.index()] = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.flows.prev[next.index()] = prev;
        }
        list.flows -= 1;
    }

    /// Applies `op` to live flow `id`'s entries in the heaps its class
    /// keeps, under the keys its slab columns spell right now: `Enter`
    /// and `Rekey` after the keyed columns (score, silence, last-normal
    /// time, backlog) are written, `Leave` while `class` still names the
    /// class being left.
    fn reindex(&mut self, id: FlowId, op: Reindex) {
        let class = self.flows.class[id.index()] as usize;
        let f = &mut self.flows;
        if class == RECOVERY {
            let (serve, victim) = (f.recovery_key(id), f.victim_key(id));
            self.recovery.apply(op, &mut f.pos_a, serve);
            self.recovery_victims.apply(op, &mut f.pos_b, victim);
            return;
        }
        let list = &mut self.lists[class];
        if BY_SCORE[class] {
            let key = f.score_key(id);
            list.by_score.apply(op, &mut f.pos_a, key);
        }
        if BY_BACKLOG[class] {
            let key = f.backlog_key(id);
            list.by_backlog.apply(op, &mut f.pos_b, key);
        }
    }

    /// Enqueues a packet, assigning (or migrating) its flow to `class`.
    /// The caller has already applied buffer-capacity policy.
    ///
    /// A flow already in Recovery is *not* demoted by later non-recovery
    /// packets while its retransmissions are still buffered — the
    /// paper's protection extends to "existing packets within the
    /// sliding window" that follow a retransmission.
    pub fn push(&mut self, class: QueueClass, qp: QueuedPkt, obs: &Observation) {
        let id = qp.flow;
        let idx = id.index();
        let wire = qp.wire as usize;
        self.flows.ensure(idx);
        let mut to = class.index();
        let op = if self.flows.class[idx] != NO_CLASS {
            let cur = self.flows.class[idx] as usize;
            self.flows.score[idx] = obs.window_estimate;
            if class == QueueClass::Recovery {
                self.flows.silence[idx] = self.flows.silence[idx].max(obs.silent_epochs);
            }
            self.flows.last_normal_at[idx] = obs.last_normal_at;
            self.flows.bytes[idx] += wire;
            if cur == RECOVERY {
                to = cur;
            }
            if to == cur {
                Reindex::Rekey
            } else {
                // The whole per-flow queue migrates, to the tail of its
                // new class.
                self.reindex(id, Reindex::Leave);
                let moved = self.flows.chains[idx].backlog as usize;
                self.sched.class_pkts[cur] -= moved;
                self.sched.class_pkts[to] += moved;
                self.unlink(id, cur);
                self.flows.class[idx] = to as u8;
                self.link_back(id, to);
                Reindex::Enter
            }
        } else {
            self.flows.class[idx] = to as u8;
            self.flows.score[idx] = obs.window_estimate;
            self.flows.silence[idx] = obs.silent_epochs;
            self.flows.last_normal_at[idx] = obs.last_normal_at;
            self.flows.bytes[idx] = wire;
            self.link_back(id, to);
            Reindex::Enter
        };
        let cell = self.pool.alloc(qp);
        let chain = &mut self.flows.chains[idx];
        match chain.tail {
            NO_CELL => chain.head = cell,
            tail => self.pool.cells[tail as usize].next = cell,
        }
        chain.tail = cell;
        chain.backlog += 1;
        self.sched.class_pkts[to] += 1;
        self.reindex(id, op);
        self.len += 1;
        self.bytes += wire;
    }

    fn refill_tokens(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.sched.last_refill).as_secs_f64();
        self.sched.last_refill = now;
        self.sched.recovery_tokens = (self.sched.recovery_tokens
            + dt * self.sched.recovery_rate_bps)
            .min(self.sched.token_cap);
    }

    /// Pops the head packet of `id`'s queue, cleaning up if drained.
    fn pop_head(&mut self, id: FlowId) -> QueuedPkt {
        self.remove_after(id, NO_CELL)
    }

    /// Removes the packet behind cell `prev` in live flow `id`'s queue,
    /// or its head when `prev` is [`NO_CELL`]; a drained flow leaves its
    /// class list and heaps. Callers pass `NO_CELL` or a cell
    /// [`TaqQueues::before_first_data`] just found, never the tail.
    fn remove_after(&mut self, id: FlowId, prev: u32) -> QueuedPkt {
        let idx = id.index();
        let class = self.flows.class[idx] as usize;
        let chain = &mut self.flows.chains[idx];
        let at = match prev {
            NO_CELL => chain.head,
            prev => self.pool.cells[prev as usize].next,
        };
        let next = self.pool.cells[at as usize].next;
        match prev {
            NO_CELL => chain.head = next,
            prev => self.pool.cells[prev as usize].next = next,
        }
        if chain.tail == at {
            chain.tail = prev;
        }
        chain.backlog -= 1;
        let drained = chain.backlog == 0;
        let qp = self.pool.release(at);
        let wire = qp.wire as usize;
        self.flows.bytes[idx] -= wire;
        self.sched.class_pkts[class] -= 1;
        if drained {
            self.reindex(id, Reindex::Leave);
            self.unlink(id, class);
            self.flows.class[idx] = NO_CLASS;
        } else if class != RECOVERY {
            // Backlog is the only keyed column a removal changes, and
            // neither Recovery key reads it.
            self.reindex(id, Reindex::Rekey);
        }
        self.len -= 1;
        self.bytes -= wire;
        qp
    }

    /// The Recovery flow with the highest priority: longest silence,
    /// then least-recent normal transmission, then lowest id.
    fn best_recovery(&self) -> Option<FlowId> {
        self.recovery.max().map(PackedKey::flow)
    }

    /// The Recovery flow to sacrifice when nothing else is buffered:
    /// shortest silence, then most-recent normal transmission, then
    /// lowest id.
    fn recovery_victim(&self) -> Option<FlowId> {
        self.recovery_victims.max().map(PackedKey::flow)
    }

    /// Serves the next flow of `class` in rotation.
    fn pop_rr(&mut self, class: QueueClass) -> Option<QueuedPkt> {
        let class = class.index();
        let id = self.lists[class].head;
        if id == NIL {
            return None;
        }
        let qp = self.pop_head(id);
        // Still backlogged: to the back of the rotation.
        if self.holds(id) {
            self.unlink(id, class);
            self.link_back(id, class);
        }
        Some(qp)
    }

    /// Removes the next packet to transmit under the 3-level policy.
    pub fn pop(&mut self, now: SimTime) -> Option<QueuedPkt> {
        self.refill_tokens(now);
        let recovery_pkts = self.class_len(QueueClass::Recovery);
        // Level 1: recovery, if within its rate budget (or alone).
        if recovery_pkts > 0 {
            // Invariant: a packet in the recovery class is some flow's, and
            // every flow in the class is on the recovery heap.
            let id = self.best_recovery().expect("non-empty");
            let head = self.flows.chains[id.index()].head;
            let bits = f64::from(self.pool.cells[head as usize].qp.wire) * 8.0;
            let others_waiting = self.len > recovery_pkts;
            if self.sched.recovery_tokens >= bits || !others_waiting {
                self.sched.recovery_tokens = (self.sched.recovery_tokens - bits).max(0.0);
                return Some(self.pop_head(id));
            }
            // Rate-capped and other classes have packets: fall through.
        }
        // Level 2: serve the most-backlogged of BelowFairShare /
        // NewFlow / OverPenalized (demand-proportional), rotation
        // breaking ties; per-flow round-robin inside. The pick is
        // branchless: with backlogs `b` laid out in rotation order,
        // `pick01` keeps index 0 unless index 1 is STRICTLY deeper, and
        // the final select keeps that unless index 2 is strictly deeper
        // still — ties always resolve to the earliest rotation
        // position, exactly the order a guarded scan would visit.
        const ROT: [[QueueClass; 3]; 3] = [
            [
                QueueClass::BelowFairShare,
                QueueClass::NewFlow,
                QueueClass::OverPenalized,
            ],
            [
                QueueClass::NewFlow,
                QueueClass::OverPenalized,
                QueueClass::BelowFairShare,
            ],
            [
                QueueClass::OverPenalized,
                QueueClass::BelowFairShare,
                QueueClass::NewFlow,
            ],
        ];
        let rot = &ROT[self.sched.rr_next as usize];
        let b = [
            self.class_len(rot[0]),
            self.class_len(rot[1]),
            self.class_len(rot[2]),
        ];
        let pick01 = usize::from(b[1] > b[0]);
        let pick = if b[2] > b[pick01] { 2 } else { pick01 };
        if b[pick] > 0 {
            self.sched.rr_next = (self.sched.rr_next + 1) % 3;
            return self.pop_rr(rot[pick]);
        }
        // Level 3: above fair share.
        if let Some(qp) = self.pop_rr(QueueClass::AboveFairShare) {
            return Some(qp);
        }
        None
    }

    /// Where the first non-SYN-ACK packet of `id`'s queue sits: the
    /// cell before it, [`NO_CELL`] if it is the head; `None` if the
    /// flow buffers only SYN-ACKs. What [`TaqQueues::remove_after`]
    /// takes.
    fn before_first_data(&self, id: FlowId) -> Option<u32> {
        let mut prev = NO_CELL;
        for at in self.pool.chain(self.flows.chains[id.index()].head) {
            if !self.pool.cells[at as usize].qp.synack {
                return Some(prev);
            }
            prev = at;
        }
        None
    }

    /// Victim flow within `class` by maximum score, ties by backlog
    /// then id.
    fn victim_by_score(&self, class: QueueClass) -> Option<FlowId> {
        debug_assert!(BY_SCORE[class.index()], "{class} keeps no score heap");
        let best = self.lists[class.index()].by_score.max();
        best.map(PackedKey::flow)
    }

    /// Victim flow within `class` by maximum backlog.
    fn victim_by_backlog(&self, class: QueueClass) -> Option<FlowId> {
        debug_assert!(BY_BACKLOG[class.index()], "{class} keeps no backlog heap");
        let best = self.lists[class.index()].by_backlog.max();
        best.map(PackedKey::flow)
    }

    /// `true` if some BelowFairShare flow buffers a burst (two packets
    /// or more).
    fn below_burst(&self) -> bool {
        let deepest = self.lists[QueueClass::BelowFairShare.index()]
            .by_backlog
            .max();
        // The backlog is the key's high word.
        deepest.is_some_and(|key| key >> 32 >= 2)
    }

    /// Evicts one packet from `class` (head of the victim flow, sparing
    /// SYN-ACKs when `spare_synack` and alternatives exist).
    fn evict_from(
        &mut self,
        class: QueueClass,
        by_score: bool,
        spare_synack: bool,
    ) -> Option<QueuedPkt> {
        let id = if by_score {
            self.victim_by_score(class)?
        } else {
            self.victim_by_backlog(class)?
        };
        if spare_synack {
            if let Some(prev) = self.before_first_data(id) {
                return Some(self.remove_after(id, prev));
            }
            // This flow holds only SYN-ACKs; look for any flow in the
            // class with data before sacrificing a handshake.
            let fallback = self
                .class_iter(class.index())
                .find_map(|k| Some((k, self.before_first_data(k)?)));
            if let Some((k, prev)) = fallback {
                return Some(self.remove_after(k, prev));
            }
        }
        Some(self.pop_head(id))
    }

    /// Chooses and removes a victim to make room, per the policy in the
    /// module docs. Returns the evicted packet, whether it came from a
    /// Recovery-class flow, and the policy stage (1-6) that produced it.
    pub fn evict_staged(&mut self) -> Option<(QueuedPkt, bool, u8)> {
        // 1. Above fair share: biggest recent window pays first.
        if let Some(qp) = self.evict_from(QueueClass::AboveFairShare, true, false) {
            return Some((qp, false, 1));
        }
        // 2. Multi-packet backlogs of ordinary flows: trimming a burst
        //    leaves the flow alive.
        if self.below_burst() {
            if let Some(qp) = self.evict_from(QueueClass::BelowFairShare, false, true) {
                return Some((qp, false, 2));
            }
        }
        // 3. New flows' data (spare handshake packets).
        if let Some(qp) = self.evict_from(QueueClass::NewFlow, false, true) {
            return Some((qp, false, 3));
        }
        // 4. Ordinary flows' singletons.
        if let Some(qp) = self.evict_from(QueueClass::BelowFairShare, true, true) {
            return Some((qp, false, 4));
        }
        // 5. Flows already hurting.
        if let Some(qp) = self.evict_from(QueueClass::OverPenalized, true, true) {
            return Some((qp, false, 5));
        }
        // 6. Recovery last; the *least* protected flow (shortest
        //    silence) pays first.
        let victim = self.recovery_victim();
        victim.map(|id| (self.pop_head(id), true, 6))
    }

    /// Internal consistency check used by tests and debug assertions.
    /// Linear in flows plus buffered packets.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let f = &self.flows;
        // Every pool cell is in exactly one chain: a flow's or the free
        // list. A cell met twice fails here, so no walk can cycle.
        let mut seen = vec![false; self.pool.cells.len()];
        let mut claim = |at: u32| {
            let first = !std::mem::replace(&mut seen[at as usize], true);
            assert!(first, "pool cell {at} linked twice");
        };
        let mut len = 0;
        let mut bytes = 0;
        let mut per_class = [0usize; 5];
        let mut flows_per_class = [0usize; 5];
        for (idx, &class) in f.class.iter().enumerate() {
            let id = FlowId(idx as u32);
            if class == NO_CLASS {
                assert_eq!(
                    f.chains[idx],
                    FlowChain::EMPTY,
                    "vacant flow {id} holds packets"
                );
                assert_eq!(
                    (f.pos_a[idx], f.pos_b[idx]),
                    (ABSENT, ABSENT),
                    "vacant flow {id} holds a heap slot"
                );
                continue;
            }
            let class = class as usize;
            // The chain from `head` is `backlog` cells of this flow's,
            // none seen before, ending at `tail`.
            let (mut pkts, mut flow_bytes, mut last) = (0, 0, NO_CELL);
            let chain = f.chains[idx];
            for at in self.pool.chain(chain.head) {
                claim(at);
                let qp = self.pool.cells[at as usize].qp;
                assert_eq!(qp.flow, id, "flow {id} chains another flow's cell");
                pkts += 1;
                flow_bytes += qp.wire as usize;
                last = at;
            }
            assert!(pkts > 0, "empty flow {id} retained");
            assert_eq!(pkts, chain.backlog as usize, "flow {id}'s chain vs backlog");
            assert_eq!(last, chain.tail, "flow {id}'s tail");
            assert_eq!(f.bytes[idx], flow_bytes);
            len += pkts;
            bytes += f.bytes[idx];
            per_class[class] += pkts;
            flows_per_class[class] += 1;
            // Each slot column points at an entry holding the flow's
            // current key in the heap its class keeps there, and is
            // `ABSENT` where the class keeps none; with the size checks
            // below, no stale entry can sit beside it.
            let (held_a, held_b) = if class == RECOVERY {
                (
                    Some(self.recovery.holds(&f.pos_a, f.recovery_key(id))),
                    Some(self.recovery_victims.holds(&f.pos_b, f.victim_key(id))),
                )
            } else {
                let list = &self.lists[class];
                (
                    BY_SCORE[class].then(|| list.by_score.holds(&f.pos_a, f.score_key(id))),
                    BY_BACKLOG[class].then(|| list.by_backlog.holds(&f.pos_b, f.backlog_key(id))),
                )
            };
            for (held, slot, column) in [
                (held_a, f.pos_a[idx], "pos_a"),
                (held_b, f.pos_b[idx], "pos_b"),
            ] {
                match held {
                    Some(held) => assert!(held, "flow {id}'s {column} slot holds a stale key"),
                    None => assert_eq!(
                        slot, ABSENT,
                        "flow {id} holds a {column} slot its class keeps no heap for"
                    ),
                }
            }
        }
        assert_eq!(len, self.len);
        assert_eq!(bytes, self.bytes);
        self.pool.chain(self.pool.free).for_each(&mut claim);
        assert!(seen.iter().all(|&s| s), "pool cell leaked");
        assert_eq!(
            per_class, self.sched.class_pkts,
            "incremental class counts drifted"
        );
        for (class, list) in self.lists.iter().enumerate() {
            // One walk: `prev` mirrors `next` (which also rules out a
            // cycle), every member carries this class, and the ends and
            // the count agree. Members are then distinct flows of this
            // class, as many as there are — so exactly its flows.
            let mut walked = 0;
            let mut prev = NIL;
            let mut cur = list.head;
            while cur != NIL {
                assert_eq!(self.flows.prev[cur.index()], prev, "list links of {cur}");
                assert_eq!(
                    self.flows.class[cur.index()] as usize,
                    class,
                    "flow {cur} on another class's list"
                );
                walked += 1;
                assert!(walked <= list.flows, "class list longer than its count");
                prev = cur;
                cur = self.flows.next[cur.index()];
            }
            assert_eq!(list.tail, prev, "class list tail");
            assert_eq!(walked, list.flows, "class list shorter than its count");
            assert_eq!(list.flows, flows_per_class[class], "list membership");
            let expect = |used: bool| if used { list.flows } else { 0 };
            assert_eq!(list.by_score.len(), expect(BY_SCORE[class]));
            assert_eq!(list.by_backlog.len(), expect(BY_BACKLOG[class]));
            list.by_score.check_order();
            list.by_backlog.check_order();
        }
        for heap in [&self.recovery, &self.recovery_victims] {
            assert_eq!(heap.len(), self.lists[RECOVERY].flows);
            heap.check_order();
        }
    }
}

/// Computes the per-flow fair share in bits/sec: fair queuing, every
/// active flow gets `C / N` (paper §4.2).
pub fn fair_share_bps(link_rate: Bandwidth, active_flows: usize) -> f64 {
    link_rate.bps() as f64 / active_flows.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::{HashMap, VecDeque};
    use taq_sim::{FlowKey, NodeId, PacketArena, PacketBuilder, SimDuration, TcpFlags};

    fn key(port: u16) -> FlowKey {
        FlowKey {
            src: NodeId(1),
            src_port: 80,
            dst: NodeId(2),
            dst_port: port,
        }
    }

    /// Tests identify flows by port; the dense id mirrors it directly
    /// (no interner in the loop, ordering matches key order).
    fn fid(port: u16) -> FlowId {
        FlowId(u32::from(port))
    }

    fn pkt(a: &mut PacketArena, port: u16, id: u64) -> QueuedPkt {
        let mut p = PacketBuilder::new(key(port)).payload(460).build();
        p.id = id;
        let pid = a.insert(p);
        QueuedPkt::from_packet(pid, fid(port), a.get(pid))
    }

    fn synack(a: &mut PacketArena, port: u16, id: u64) -> QueuedPkt {
        let mut p = PacketBuilder::new(key(port))
            .flags(TcpFlags::SYN_ACK)
            .build();
        p.id = id;
        let pid = a.insert(p);
        QueuedPkt::from_packet(pid, fid(port), a.get(pid))
    }

    fn obs(retx: bool, silence: u32) -> Observation {
        Observation {
            id: FlowId(0),
            retransmission: retx,
            repairs_our_drop: retx,
            state: taq_telemetry::FlowState::Normal,
            silent_epochs: silence,
            is_new: false,
            recent_drops: 0,
            rate_bps: 0.0,
            epoch_len: SimDuration::from_millis(200),
            last_normal_at: SimTime::ZERO,
            window_estimate: 0,
            protected: false,
            fq_only: false,
        }
    }

    fn obs_win(window: u32) -> Observation {
        Observation {
            window_estimate: window,
            ..obs(false, 0)
        }
    }

    fn queues() -> TaqQueues {
        TaqQueues::new(Bandwidth::from_kbps(600), 0.2)
    }

    #[test]
    fn classify_matches_paper_rules() {
        let mk = |retx, is_new, drops, rate| Observation {
            retransmission: retx,
            is_new,
            recent_drops: drops,
            rate_bps: rate,
            ..obs(false, 0)
        };
        let fs = 10_000.0;
        let repairing = Observation {
            repairs_our_drop: true,
            ..mk(true, true, 5, 0.0)
        };
        assert_eq!(classify(&repairing, 0, 1, fs), QueueClass::Recovery);
        // A retransmission of a flow in a timeout state is protected
        // even if this queue owes it nothing.
        let timeout_retx = Observation {
            retransmission: true,
            protected: true,
            ..mk(false, false, 0, 0.0)
        };
        assert_eq!(classify(&timeout_retx, 0, 1, fs), QueueClass::Recovery);
        // A spurious retransmission from a healthy flow does not jump
        // the line; it classifies like its flow's normal traffic.
        let spurious = mk(true, false, 0, 0.0);
        assert_eq!(classify(&spurious, 0, 1, fs), QueueClass::BelowFairShare);
        assert_eq!(
            classify(&mk(false, true, 0, 0.0), 0, 1, fs),
            QueueClass::NewFlow
        );
        assert_eq!(
            classify(&mk(false, false, 2, 0.0), 0, 1, fs),
            QueueClass::OverPenalized
        );
        let protected = Observation {
            protected: true,
            ..mk(false, false, 0, 0.0)
        };
        assert_eq!(classify(&protected, 0, 1, fs), QueueClass::OverPenalized);
        assert_eq!(
            classify(&mk(false, false, 0, 5_000.0), 0, 1, fs),
            QueueClass::BelowFairShare
        );
        assert_eq!(
            classify(&mk(false, false, 0, 50_000.0), 0, 1, fs),
            QueueClass::AboveFairShare
        );
        // The backlog signal alone flags a hog; the threshold floors
        // at 1.
        assert_eq!(
            classify(&mk(false, false, 0, 5_000.0), 1, 1, fs),
            QueueClass::AboveFairShare
        );
        assert_eq!(
            classify(&mk(false, false, 0, 5_000.0), 2, 0, fs),
            QueueClass::AboveFairShare
        );
        assert_eq!(
            classify(&mk(false, false, 0, 5_000.0), 2, 3, fs),
            QueueClass::BelowFairShare
        );
        // Plain-FQ ablation: every non-recovery flow shares one class,
        // whatever else it would be.
        let fq_hog = Observation {
            fq_only: true,
            ..mk(false, true, 2, 50_000.0)
        };
        assert_eq!(classify(&fq_hog, 9, 1, fs), QueueClass::BelowFairShare);
    }

    #[test]
    fn lut_agrees_with_reference_branches() {
        // Exhaustive check over all 32 combinations of the five
        // predicates (recovery, fq-only, new, over-penalized, above-share),
        // each raised through every observation signal that can raise it,
        // against the written-out priority chain.
        let fs = 10_000.0;
        for bits in 0..32u32 {
            let (recovery, fq, new, over, above) = (
                bits & 16 != 0,
                bits & 8 != 0,
                bits & 4 != 0,
                bits & 2 != 0,
                bits & 1 != 0,
            );
            let expect = if recovery {
                QueueClass::Recovery
            } else if fq {
                QueueClass::BelowFairShare
            } else if new {
                QueueClass::NewFlow
            } else if over {
                QueueClass::OverPenalized
            } else if above {
                QueueClass::AboveFairShare
            } else {
                QueueClass::BelowFairShare
            };
            for way in 0..2 {
                let mut o = Observation {
                    fq_only: fq,
                    is_new: new,
                    rate_bps: 5_000.0,
                    ..obs(false, 0)
                };
                if recovery {
                    if way == 0 {
                        o.repairs_our_drop = true;
                    } else {
                        o.retransmission = true;
                        o.protected = true;
                    }
                }
                if over {
                    if way == 0 {
                        o.recent_drops = 2;
                    } else {
                        o.protected = true;
                    }
                }
                let (backlog, share_backlog) = match (above, way) {
                    (true, 0) => {
                        o.rate_bps = 50_000.0;
                        (0, 1)
                    }
                    (true, _) => (3, 3),
                    (false, _) => (0, 1),
                };
                assert_eq!(
                    classify(&o, backlog, share_backlog, fs),
                    expect,
                    "bits {bits:05b} way {way}"
                );
            }
        }
    }

    #[test]
    fn recovery_has_strict_priority_within_budget() {
        let mut a = PacketArena::new();
        let mut q = queues();
        let p1 = pkt(&mut a, 1, 1);
        q.push(QueueClass::BelowFairShare, p1, &obs(false, 0));
        let p2 = pkt(&mut a, 2, 2);
        q.push(QueueClass::Recovery, p2, &obs(true, 1));
        let first = q.pop(SimTime::from_secs(1)).unwrap();
        assert_eq!(first.pkt_id, 2, "recovery packet served first");
        assert_eq!(q.pop(SimTime::from_secs(1)).unwrap().pkt_id, 1);
        q.check_invariants();
    }

    #[test]
    fn recovery_ordered_by_silence_length() {
        let mut a = PacketArena::new();
        let mut q = queues();
        let p1 = pkt(&mut a, 1, 1);
        q.push(QueueClass::Recovery, p1, &obs(true, 1));
        let p2 = pkt(&mut a, 2, 2);
        q.push(QueueClass::Recovery, p2, &obs(true, 5));
        let p3 = pkt(&mut a, 3, 3);
        q.push(QueueClass::Recovery, p3, &obs(true, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(SimTime::from_secs(10)))
            .map(|qp| qp.pkt_id)
            .collect();
        assert_eq!(order, vec![2, 3, 1], "longest silence first");
    }

    #[test]
    fn recovery_rate_cap_yields_to_level_two() {
        let mut a = PacketArena::new();
        let mut q = TaqQueues::new(Bandwidth::from_kbps(600), 0.05);
        for i in 0..20 {
            let p = pkt(&mut a, (i % 4) as u16, i);
            q.push(QueueClass::Recovery, p, &obs(true, 1));
        }
        for i in 20..25 {
            let p = pkt(&mut a, 10, i);
            q.push(QueueClass::BelowFairShare, p, &obs(false, 0));
        }
        let mut popped = Vec::new();
        for _ in 0..10 {
            popped.push(q.pop(SimTime::from_millis(1)).unwrap().pkt_id);
        }
        assert!(
            popped.iter().any(|&id| id >= 20),
            "level 2 must not starve behind capped recovery: {popped:?}"
        );
    }

    #[test]
    fn work_conserving_when_only_recovery_remains() {
        let mut a = PacketArena::new();
        let mut q = TaqQueues::new(Bandwidth::from_kbps(600), 0.0);
        let p = pkt(&mut a, 1, 7);
        q.push(QueueClass::Recovery, p, &obs(true, 2));
        assert_eq!(q.pop(SimTime::ZERO).unwrap().pkt_id, 7);
        assert!(q.is_empty());
    }

    #[test]
    fn per_flow_order_is_preserved_across_reclassification() {
        let mut a = PacketArena::new();
        let mut q = queues();
        // Flow 1's first packet lands in AboveFairShare; its second in
        // OverPenalized (protection kicked in). Despite OverPenalized's
        // higher service level, packet 1 must still leave first.
        let p1 = pkt(&mut a, 1, 1);
        q.push(QueueClass::AboveFairShare, p1, &obs(false, 0));
        let protected = Observation {
            protected: true,
            ..obs(false, 0)
        };
        let p2 = pkt(&mut a, 1, 2);
        q.push(QueueClass::OverPenalized, p2, &protected);
        let order: Vec<u64> = (0..2)
            .map(|_| q.pop(SimTime::ZERO).unwrap().pkt_id)
            .collect();
        assert_eq!(order, vec![1, 2], "no intra-flow reordering");
        q.check_invariants();
    }

    #[test]
    fn recovery_class_is_sticky_until_drained() {
        let mut a = PacketArena::new();
        let mut q = queues();
        let p1 = pkt(&mut a, 1, 1);
        q.push(QueueClass::Recovery, p1, &obs(true, 3));
        // New data of the same flow arrives classified Below: the flow
        // stays in Recovery (protection extends to in-window packets).
        let p2 = pkt(&mut a, 1, 2);
        q.push(QueueClass::BelowFairShare, p2, &obs(false, 0));
        assert_eq!(q.class_len(QueueClass::Recovery), 2);
        assert_eq!(q.class_len(QueueClass::BelowFairShare), 0);
        // Once drained, a fresh packet lands in its new class.
        q.pop(SimTime::from_secs(1));
        q.pop(SimTime::from_secs(1));
        let p3 = pkt(&mut a, 1, 3);
        q.push(QueueClass::BelowFairShare, p3, &obs(false, 0));
        assert_eq!(q.class_len(QueueClass::BelowFairShare), 1);
        q.check_invariants();
    }

    #[test]
    fn level_two_serves_demand_proportionally() {
        let mut a = PacketArena::new();
        let mut q = queues();
        // OverPenalized has 6 packets; Below has 2.
        for i in 0..6 {
            let p = pkt(&mut a, 1, i);
            q.push(QueueClass::OverPenalized, p, &obs(false, 0));
        }
        for i in 6..8 {
            let p = pkt(&mut a, 2, i);
            q.push(QueueClass::BelowFairShare, p, &obs(false, 0));
        }
        let first = q.pop(SimTime::ZERO).unwrap();
        assert_eq!(first.flow, fid(1), "most-backlogged class is served first");
    }

    #[test]
    fn flows_within_a_class_round_robin() {
        let mut a = PacketArena::new();
        let mut q = queues();
        for i in 0..4 {
            let p = pkt(&mut a, 1, i);
            q.push(QueueClass::BelowFairShare, p, &obs(false, 0));
        }
        for i in 4..6 {
            let p = pkt(&mut a, 2, i);
            q.push(QueueClass::BelowFairShare, p, &obs(false, 0));
        }
        let order: Vec<FlowId> = (0..6).map(|_| q.pop(SimTime::ZERO).unwrap().flow).collect();
        assert_eq!(
            &order[..4],
            &[fid(1), fid(2), fid(1), fid(2)],
            "per-flow RR: {order:?}"
        );
    }

    #[test]
    fn above_fair_share_served_last() {
        let mut a = PacketArena::new();
        let mut q = queues();
        let p1 = pkt(&mut a, 1, 1);
        q.push(QueueClass::AboveFairShare, p1, &obs(false, 0));
        let p2 = pkt(&mut a, 2, 2);
        q.push(QueueClass::BelowFairShare, p2, &obs(false, 0));
        let p3 = pkt(&mut a, 3, 3);
        q.push(QueueClass::NewFlow, p3, &obs(false, 0));
        let order: Vec<u64> = (0..3)
            .map(|_| q.pop(SimTime::ZERO).unwrap().pkt_id)
            .collect();
        assert_eq!(*order.last().unwrap(), 1, "hog drains last: {order:?}");
    }

    #[test]
    fn eviction_prefers_biggest_window_hog() {
        let mut a = PacketArena::new();
        let mut q = queues();
        for i in 0..2 {
            let p = pkt(&mut a, 1, i);
            q.push(QueueClass::AboveFairShare, p, &obs_win(5));
        }
        let p2 = pkt(&mut a, 2, 99);
        q.push(QueueClass::AboveFairShare, p2, &obs_win(1));
        let p3 = pkt(&mut a, 3, 100);
        q.push(QueueClass::Recovery, p3, &obs(true, 4));
        let (victim, was_retx, _) = q.evict_staged().unwrap();
        assert!(!was_retx);
        assert_eq!(
            victim.flow,
            fid(1),
            "the flow most able to fast-retransmit pays"
        );
        assert_eq!(victim.pkt_id, 0, "head drop: the hole appears early");
        assert_eq!(q.len(), 3);
        q.check_invariants();
    }

    #[test]
    fn eviction_trims_bursts_before_singletons() {
        let mut a = PacketArena::new();
        let mut q = queues();
        for i in 0..3 {
            let p = pkt(&mut a, 1, i);
            q.push(QueueClass::BelowFairShare, p, &obs(false, 0));
        }
        let p2 = pkt(&mut a, 2, 9);
        q.push(QueueClass::BelowFairShare, p2, &obs(false, 0));
        let (victim, ..) = q.evict_staged().unwrap();
        assert_eq!(victim.flow, fid(1), "burst trimmed first");
        assert_eq!(victim.pkt_id, 0, "head drop");
    }

    #[test]
    fn eviction_spares_synacks_while_data_exists() {
        let mut a = PacketArena::new();
        let mut q = queues();
        let s = synack(&mut a, 1, 1);
        q.push(QueueClass::NewFlow, s, &obs(false, 0));
        let p2 = pkt(&mut a, 1, 2);
        q.push(QueueClass::NewFlow, p2, &obs(false, 0));
        let p3 = pkt(&mut a, 1, 3);
        q.push(QueueClass::NewFlow, p3, &obs(false, 0));
        let (victim, ..) = q.evict_staged().unwrap();
        assert_eq!(
            victim.pkt_id, 2,
            "first data packet evicted, SYN-ACK spared"
        );
        let (victim, ..) = q.evict_staged().unwrap();
        assert_eq!(victim.pkt_id, 3);
        // Only the SYN-ACK remains: it must still be evictable.
        let (victim, ..) = q.evict_staged().unwrap();
        assert_eq!(victim.pkt_id, 1);
        assert!(q.evict_staged().is_none());
        q.check_invariants();

        // The deepest flow holds only SYN-ACKs, so the data behind
        // another flow's SYN-ACK pays, from the middle of its queue; the
        // rest leave in arrival order, through recycled pool cells.
        for id in 10..13 {
            let s = synack(&mut a, 4, id);
            q.push(QueueClass::NewFlow, s, &obs(false, 0));
        }
        for (id, data) in [(20, false), (21, true), (22, true)] {
            let p = if data {
                pkt(&mut a, 5, id)
            } else {
                synack(&mut a, 5, id)
            };
            q.push(QueueClass::NewFlow, p, &obs(false, 0));
        }
        let (victim, ..) = q.evict_staged().unwrap();
        assert_eq!(victim.pkt_id, 21, "data behind a SYN-ACK, not a handshake");
        q.check_invariants();
        assert_eq!(q.pool.cells.len(), 6, "cells reused, none added");
        let mut left: Vec<(FlowId, u64)> = std::iter::from_fn(|| q.pop(SimTime::ZERO))
            .map(|qp| (qp.flow, qp.pkt_id))
            .collect();
        left.sort_by_key(|&(flow, _)| flow);
        assert_eq!(
            left,
            [
                (fid(4), 10),
                (fid(4), 11),
                (fid(4), 12),
                (fid(5), 20),
                (fid(5), 22)
            ]
        );
    }

    #[test]
    fn eviction_takes_recovery_only_as_last_resort() {
        let mut a = PacketArena::new();
        let mut q = queues();
        let p1 = pkt(&mut a, 1, 1);
        q.push(QueueClass::Recovery, p1, &obs(true, 5));
        let p2 = pkt(&mut a, 2, 2);
        q.push(QueueClass::Recovery, p2, &obs(true, 1));
        let (victim, was_retx, _) = q.evict_staged().unwrap();
        assert!(was_retx);
        assert_eq!(victim.pkt_id, 2, "shortest-silence flow dropped first");
        let (victim2, ..) = q.evict_staged().unwrap();
        assert_eq!(victim2.pkt_id, 1);
        assert!(q.evict_staged().is_none());
        assert_eq!(q.len(), 0);
        assert_eq!(q.byte_len(), 0);
    }

    #[test]
    fn byte_and_packet_accounting_balance() {
        let mut a = PacketArena::new();
        let mut q = queues();
        for i in 0..4 {
            let p = pkt(&mut a, 1, i);
            q.push(QueueClass::BelowFairShare, p, &obs(false, 0));
        }
        let p2 = pkt(&mut a, 2, 9);
        q.push(QueueClass::Recovery, p2, &obs(true, 1));
        assert_eq!(q.len(), 5);
        assert_eq!(q.byte_len(), 5 * 500);
        q.evict_staged();
        q.pop(SimTime::from_secs(1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.byte_len(), 3 * 500);
        q.check_invariants();
    }

    #[test]
    fn conservation_under_random_churn() {
        let mut a = PacketArena::new();
        let mut rng = taq_sim::SimRng::new(5);
        let mut q = queues();
        let classes = [
            QueueClass::Recovery,
            QueueClass::NewFlow,
            QueueClass::OverPenalized,
            QueueClass::BelowFairShare,
            QueueClass::AboveFairShare,
        ];
        let (mut pushed, mut popped, mut evicted) = (0u64, 0u64, 0u64);
        for i in 0..5_000u64 {
            let class = classes[rng.next_below(5) as usize];
            let p = pkt(&mut a, (i % 17) as u16, i);
            q.push(class, p, &obs(class == QueueClass::Recovery, 1));
            pushed += 1;
            if rng.chance(0.5) {
                if let Some(qp) = q.pop(SimTime::from_millis(i)) {
                    a.remove(qp.pid);
                    popped += 1;
                }
            }
            while q.len() > 30 {
                let (qp, ..) = q.evict_staged().expect("non-empty above cap");
                a.remove(qp.pid);
                evicted += 1;
            }
            if i % 512 == 0 {
                q.check_invariants();
            }
        }
        while let Some(qp) = q.pop(SimTime::from_secs(10_000)) {
            a.remove(qp.pid);
            popped += 1;
        }
        assert_eq!(pushed, popped + evicted);
        assert_eq!(q.len(), 0);
        assert_eq!(q.byte_len(), 0);
        assert!(a.is_empty(), "every arena slot released");
        q.check_invariants();
    }

    #[test]
    fn per_flow_packets_always_leave_in_arrival_order() {
        // Random class assignments, SYN-ACKs among the data, and
        // evictions that take the first data packet from behind them
        // must never reorder one flow's packets; and the shared pool
        // never holds more cells than the most packets buffered at once.
        let mut a = PacketArena::new();
        let mut rng = taq_sim::SimRng::new(11);
        let classes = [
            QueueClass::NewFlow,
            QueueClass::OverPenalized,
            QueueClass::BelowFairShare,
            QueueClass::Recovery,
            QueueClass::AboveFairShare,
        ];
        let mut q = queues();
        // Per flow, the ids it buffers in arrival order.
        let mut buffered: HashMap<FlowId, VecDeque<u64>> = HashMap::new();
        let (mut peak, mut middle) = (0, 0);
        let pop = |q: &mut TaqQueues, a: &mut PacketArena, buffered: &mut HashMap<_, _>, now| {
            let qp: QueuedPkt = q.pop(now)?;
            a.remove(qp.pid);
            let head = buffered.get_mut(&qp.flow).and_then(VecDeque::pop_front);
            assert_eq!(head, Some(qp.pkt_id), "flow {} reordered", qp.flow);
            Some(qp)
        };
        for i in 0..6_000u64 {
            let port = (i % 5) as u16;
            // The two classes that never spare a SYN-ACK (Recovery is
            // also sticky) only rarely, so evictions mostly reach the
            // ones that do.
            let drawn = if rng.chance(0.1) { 5 } else { 3 };
            let class = classes[rng.next_below(drawn) as usize];
            let p = if rng.chance(0.2) {
                synack(&mut a, port, i)
            } else {
                pkt(&mut a, port, i)
            };
            buffered.entry(p.flow).or_default().push_back(i);
            q.push(class, p, &obs(class == QueueClass::Recovery, 0));
            peak = peak.max(q.len());
            if rng.chance(0.6) {
                // 50 ms a step: the Recovery budget refills about a
                // packet's worth, so a sticky Recovery flow drains.
                pop(&mut q, &mut a, &mut buffered, SimTime::from_millis(50 * i));
            }
            if q.len() > 12 {
                let (qp, ..) = q.evict_staged().expect("non-empty above cap");
                a.remove(qp.pid);
                let flow = buffered.get_mut(&qp.flow).expect("evicted flow buffers");
                let at = flow.iter().position(|&id| id == qp.pkt_id);
                let at = at.expect("evicted a buffered packet");
                middle += usize::from(at > 0);
                flow.remove(at);
            }
            assert!(q.pool.cells.len() <= peak, "pool outgrew the peak backlog");
            if i % 256 == 0 {
                q.check_invariants();
            }
        }
        while pop(&mut q, &mut a, &mut buffered, SimTime::from_secs(100)).is_some() {}
        assert!(a.is_empty());
        assert!(
            middle > 300,
            "{middle} evictions from behind a queue's head"
        );
        q.check_invariants();
    }

    #[test]
    fn slot_heap_matches_a_sorted_oracle() {
        // One heap through random enter, leave and re-key operations
        // against a sorted `Vec` of the same keys, the maximum compared
        // after every operation. Few values per id: ties on the packed
        // field everywhere, broken by the id word.
        const IDS: u32 = 48;
        let mut rng = taq_sim::SimRng::new(0x5EED);
        let mut heap = SlotHeap::<u64>::default();
        let mut pos = vec![ABSENT; IDS as usize];
        let mut current: Vec<Option<u64>> = vec![None; IDS as usize];
        let mut oracle: Vec<u64> = Vec::new();
        let mut ops = [0u32; 3];
        for step in 0..40_000 {
            let id = FlowId(rng.next_below(u64::from(IDS)) as u32);
            let fresh = pack_backlog(rng.next_below(12) as usize, id);
            let op = match current[id.index()] {
                None => Reindex::Enter,
                Some(_) if rng.chance(0.3) => Reindex::Leave,
                Some(_) => Reindex::Rekey,
            };
            if let Some(old) = current[id.index()] {
                oracle.remove(oracle.binary_search(&old).expect("oracle holds it"));
            }
            let key = match op {
                Reindex::Leave => current[id.index()].take().expect("live"),
                _ => {
                    oracle.insert(oracle.binary_search(&fresh).unwrap_err(), fresh);
                    current[id.index()] = Some(fresh);
                    fresh
                }
            };
            heap.apply(op, &mut pos, key);
            ops[op as usize] += 1;
            assert_eq!(heap.max(), oracle.last().copied(), "{op:?} at step {step}");
            assert_eq!(heap.len(), oracle.len());
        }
        heap.check_order();
        assert!(ops.iter().all(|&n| n > 5_000), "{ops:?}");
    }

    #[test]
    fn packed_keys_order_like_their_field_tuples() {
        let mut rng = taq_sim::SimRng::new(9);
        // Mostly tiny draws, for ties; the rest at the fields' edges.
        let mut draw = |max: u64| match rng.next_below(4) {
            0 => max,
            1 => max - 1,
            _ => rng.next_below(3),
        };
        for _ in 0..5_000 {
            let mut field = || {
                let hi = draw(u64::from(u32::MAX)) as u32;
                let mid = draw(u64::MAX);
                let id = FlowId(draw(u64::from(u32::MAX)) as u32);
                (hi, mid, id)
            };
            let (a, b) = (field(), field());
            let (ka, kb) = (pack_wide(a.0, a.1, a.2), pack_wide(b.0, b.1, b.2));
            let tuple = |(hi, mid, id): (u32, u64, FlowId)| (hi, mid, Reverse(id));
            assert_eq!(ka.cmp(&kb), tuple(a).cmp(&tuple(b)), "{a:?} vs {b:?}");
            assert_eq!((ka.flow(), kb.flow()), (a.2, b.2));
            let (ka, kb) = (
                pack_backlog(a.0 as usize, a.2),
                pack_backlog(b.0 as usize, b.2),
            );
            assert_eq!(ka.cmp(&kb), (a.0, Reverse(a.2)).cmp(&(b.0, Reverse(b.2))));
            assert_eq!((ka.flow(), kb.flow()), (a.2, b.2));
        }
    }

    #[test]
    #[should_panic(expected = "backlog overflowed")]
    fn backlog_key_overflow_panics() {
        pack_backlog(1 << 32, FlowId(0));
    }

    #[test]
    fn fair_share_models() {
        let fs = fair_share_bps(Bandwidth::from_kbps(600), 30);
        assert!((fs - 20_000.0).abs() < 1e-9);
        let fs0 = fair_share_bps(Bandwidth::from_kbps(600), 0);
        assert!((fs0 - 600_000.0).abs() < 1e-9);
    }
}
