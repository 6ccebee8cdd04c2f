//! The queueing-discipline seam between the engine and the schemes under
//! test.
//!
//! Every discipline in the reproduction — DropTail, RED, SFQ, and TAQ
//! itself — implements [`Qdisc`]. The engine calls [`Qdisc::enqueue`]
//! when a packet reaches a link whose transmitter may be busy, and
//! [`Qdisc::dequeue`] each time the transmitter frees up. A discipline
//! may refuse the arriving packet, or accept it and evict other buffered
//! packets instead (RED's early drops and TAQ's fine-grained victim
//! selection both need that), so the outcome is reported explicitly.
//!
//! Packets are passed as [`PacketId`] handles into the driving
//! [`PacketArena`], not by value: a discipline buffers 8-byte ids and
//! reads header fields through the arena only when a decision needs
//! them. A qdisc must always be driven with the same arena — ids are
//! meaningless in any other. Ids returned in
//! [`EnqueueOutcome::dropped`] transfer ownership back to the caller,
//! which is responsible for removing them from the arena.

use crate::arena::{PacketArena, PacketId};
use crate::time::SimTime;
use std::any::Any;

/// What happened when a packet was offered to a queue.
#[derive(Debug, Default)]
pub struct EnqueueOutcome {
    /// Packets dropped as a result of this enqueue. This may include the
    /// offered packet itself, and/or previously buffered packets evicted
    /// to make room. Ownership of the ids passes to the caller.
    pub dropped: Vec<PacketId>,
}

impl EnqueueOutcome {
    /// The packet was buffered and nothing was dropped.
    pub fn accepted() -> Self {
        EnqueueOutcome::default()
    }

    /// The offered packet was rejected outright.
    pub fn rejected(pkt: PacketId) -> Self {
        EnqueueOutcome { dropped: vec![pkt] }
    }
}

/// A queueing discipline managing the buffer in front of one link.
///
/// Implementations must uphold two invariants the engine relies on:
///
/// 1. **Conservation**: every id passed to `enqueue` is eventually
///    either returned from `dequeue`, returned in an
///    [`EnqueueOutcome::dropped`] list, or still buffered (reflected in
///    [`Qdisc::len`]).
/// 2. **Non-idling**: if `len() > 0`, `dequeue` returns `Some`. The
///    engine polls the queue exactly once per transmission-complete
///    event, so an idling queue would stall the link forever.
///
/// `Any` lets the engine recognise an [`UnboundedFifo`] handed to it
/// boxed and store it inline in its link; every other discipline stays
/// behind its box.
pub trait Qdisc: Send + Any {
    /// Offers a packet to the queue at time `now`.
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome;

    /// Removes the next packet to transmit, if any.
    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId>;

    /// Removes up to `max` packets in transmit order into `out`,
    /// returning how many were moved.
    ///
    /// Semantically this IS `max` calls to [`Qdisc::dequeue`] at one
    /// instant: overriding implementations may amortize per-call work
    /// (lock acquisition, scheduler-state walks) across the batch, but
    /// must hand back exactly the packets, in exactly the order, the
    /// one-at-a-time loop would have produced. Callers drain the batch
    /// front-to-back.
    fn dequeue_batch(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        out: &mut Vec<PacketId>,
        max: usize,
    ) -> usize {
        let mut n = 0;
        while n < max {
            match self.dequeue(arena, now) {
                Some(pkt) => {
                    out.push(pkt);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Number of packets currently buffered.
    fn len(&self) -> usize;

    /// `true` if no packets are buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload+header bytes currently buffered. Implementations
    /// keep a running count so this never needs the arena.
    fn byte_len(&self) -> usize;

    /// Short human-readable name for reports ("droptail", "red", "taq"...).
    fn name(&self) -> &'static str;
}

/// An unbounded FIFO used for uncongested links (access links, the
/// reverse ACK path). It never drops.
///
/// The queue holds no buffer of its own: its packets are linked into a
/// ring through the arena's successor column, newest to oldest, so the
/// newest packet's slot is the one end the queue keeps, and the queue
/// is that slot and two counts, whatever it holds. A packet's wire
/// length is read from the arena when it leaves, not cached. A link
/// given one (`Simulator::add_link`) stores it inline rather than
/// boxed.
#[derive(Debug, Default, Clone)]
pub struct UnboundedFifo {
    /// Slot of the newest packet, whose successor is the oldest;
    /// meaningless while the queue is empty.
    tail: u32,
    /// Buffered packets; a slot index is 32 bits, so this fits too.
    len: u32,
    bytes: u64,
}

const _: () = assert!(std::mem::size_of::<UnboundedFifo>() <= 16);

impl UnboundedFifo {
    /// Creates an empty queue.
    pub fn new() -> Self {
        UnboundedFifo::default()
    }
}

impl Qdisc for UnboundedFifo {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, _now: SimTime) -> EnqueueOutcome {
        self.bytes += u64::from(arena.get(pkt).wire_len());
        let idx = pkt.index();
        if self.len == 0 {
            arena.set_successor(idx, idx);
        } else {
            arena.set_successor(idx, arena.successor(self.tail));
            arena.set_successor(self.tail, idx);
        }
        self.tail = idx;
        self.len += 1;
        EnqueueOutcome::accepted()
    }

    fn dequeue(&mut self, arena: &mut PacketArena, _now: SimTime) -> Option<PacketId> {
        if self.len == 0 {
            return None;
        }
        let head = arena.successor(self.tail);
        self.len -= 1;
        if self.len > 0 {
            arena.set_successor(self.tail, arena.successor(head));
        }
        let pkt = arena.id_at(head);
        self.bytes -= u64::from(arena.get(pkt).wire_len());
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn byte_len(&self) -> usize {
        self.bytes as usize
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, NodeId, Packet, PacketBuilder};

    fn pkt(n: u64) -> Packet {
        let mut p = PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        })
        .payload(100)
        .build();
        p.id = n;
        p
    }

    #[test]
    fn unbounded_fifo_is_fifo() {
        let mut arena = PacketArena::new();
        let mut q = UnboundedFifo::new();
        for i in 0..5 {
            let id = arena.insert(pkt(i));
            let out = q.enqueue(id, &mut arena, SimTime::ZERO);
            assert!(out.dropped.is_empty());
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.byte_len(), 5 * 140);
        for i in 0..5 {
            let id = q.dequeue(&mut arena, SimTime::ZERO).unwrap();
            assert_eq!(arena.remove(id).id, i);
        }
        assert!(q.is_empty());
        assert_eq!(q.byte_len(), 0);
        assert!(q.dequeue(&mut arena, SimTime::ZERO).is_none());
        assert!(arena.is_empty(), "fifo leaked no packets");
    }

    /// FIFOs that share one arena, and with it one successor column,
    /// never cross-link: under random interleaved enqueues and dequeues
    /// each answers order, `len` and `byte_len` as its own `VecDeque`
    /// does, through queues emptied and refilled over recycled slots.
    #[test]
    fn fifos_sharing_an_arena_match_a_deque_oracle() {
        const QUEUES: usize = 4;
        let mut rng = crate::rng::SimRng::new(0xF1F0);
        let mut arena = PacketArena::new();
        let mut queues: Vec<UnboundedFifo> = (0..QUEUES).map(|_| UnboundedFifo::new()).collect();
        let mut oracles = vec![std::collections::VecDeque::<(u64, usize)>::new(); QUEUES];
        let (mut enqueued, mut emptied) = (0u64, 0u64);
        for step in 0..60_000u64 {
            let q = rng.next_below(QUEUES as u64) as usize;
            // Biased per queue, so some queues run long while others
            // keep emptying.
            if rng.chance(0.3 + 0.1 * q as f64) {
                let mut p = pkt(step);
                p.payload_len = rng.next_below(1_460) as u32;
                let wire = p.wire_len() as usize;
                let id = arena.insert(p);
                assert!(queues[q]
                    .enqueue(id, &mut arena, SimTime::ZERO)
                    .dropped
                    .is_empty());
                oracles[q].push_back((step, wire));
                enqueued += 1;
            } else {
                let got = queues[q].dequeue(&mut arena, SimTime::ZERO);
                let want = oracles[q].pop_front();
                assert_eq!(
                    got.map(|id| arena.remove(id).id),
                    want.map(|(id, _)| id),
                    "queue {q} at step {step}"
                );
                if want.is_some() && oracles[q].is_empty() {
                    emptied += 1;
                }
            }
            for (queue, oracle) in queues.iter().zip(&oracles) {
                assert_eq!(queue.len(), oracle.len(), "step {step}");
                assert_eq!(
                    queue.byte_len(),
                    oracle.iter().map(|&(_, wire)| wire).sum::<usize>(),
                    "step {step}"
                );
            }
        }
        assert!(
            enqueued > 20_000 && emptied > 1_000,
            "{enqueued} in, {emptied} drains"
        );
        assert_eq!(arena.len(), oracles.iter().map(|o| o.len()).sum::<usize>());
    }

    #[test]
    fn default_dequeue_batch_matches_serial_dequeue() {
        let mut arena = PacketArena::new();
        let mut q = UnboundedFifo::new();
        for i in 0..6 {
            let id = arena.insert(pkt(i));
            q.enqueue(id, &mut arena, SimTime::ZERO);
        }
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut arena, SimTime::ZERO, &mut out, 4), 4);
        assert_eq!(q.dequeue_batch(&mut arena, SimTime::ZERO, &mut out, 4), 2);
        assert_eq!(q.dequeue_batch(&mut arena, SimTime::ZERO, &mut out, 4), 0);
        let ids: Vec<u64> = out.iter().map(|&id| arena.get(id).id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "batch order == serial order");
        for id in out {
            arena.remove(id);
        }
        assert!(arena.is_empty());
    }

    #[test]
    fn outcome_helpers() {
        let mut arena = PacketArena::new();
        assert!(EnqueueOutcome::accepted().dropped.is_empty());
        let id = arena.insert(pkt(9));
        assert_eq!(EnqueueOutcome::rejected(id).dropped.len(), 1);
    }
}
