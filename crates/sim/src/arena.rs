//! Generational slab arena for in-flight packets.
//!
//! The hot path used to move whole [`Packet`]s (~112 bytes) through
//! event payloads, qdisc buffers, and drop lists. The arena replaces
//! that traffic with copy-size-8 [`PacketId`] handles: a packet is
//! inserted once where it enters the network (`Ctx::send`), referenced
//! by id while it sits in queues and the event wheel and while the
//! engine forwards it through routers (`Simulator::add_router`), and
//! moved out exactly once — at delivery to an agent or at a drop. An
//! agent that relays what it received re-inserts it with `Ctx::forward`.
//!
//! Slots are recycled through a free list, so steady-state operation
//! performs no allocation at all; each slot carries a generation tag
//! so a stale id kept across a slot recycle is detected instead of
//! silently aliasing the new occupant.
//!
//! Ownership rules (see DESIGN.md §15):
//!
//! - exactly one component holds a given `PacketId` at a time — the
//!   event queue (an `Arrival` in flight), a qdisc buffer, or a
//!   transient local between calls (a router hop is one: the id goes
//!   from the popped `Arrival` straight to the next link's `offer`);
//! - whoever returns an id in an [`crate::EnqueueOutcome::dropped`]
//!   list gives up ownership: the caller removes the packet;
//! - ids never cross arenas: each simulator owns exactly one.

use crate::packet::{FlowKey, NodeId, Packet, SackBlocks, TcpFlags};
use crate::time::SimTime;

/// Index-plus-generation handle to a packet stored in a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    idx: u32,
    gen: u32,
}

impl PacketId {
    /// The slot index (stable while the packet is live; reused after).
    pub fn index(self) -> u32 {
        self.idx
    }
}

/// Filler for vacated slots; never observable through a live id.
const VACANT: Packet = Packet {
    id: 0,
    flow: FlowKey {
        src: NodeId(0),
        src_port: 0,
        dst: NodeId(0),
        dst_port: 0,
    },
    seq: 0,
    ack: 0,
    flags: TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: false,
    },
    payload_len: 0,
    header_len: 0,
    sack: SackBlocks::EMPTY,
    meta: 0,
    sent_at: SimTime::ZERO,
};

/// Generational slab of live packets.
#[derive(Debug, Default)]
pub struct PacketArena {
    /// Packet storage; vacant slots hold [`VACANT`] until recycled.
    slots: Vec<Packet>,
    /// Current generation per slot; bumped on every release.
    gens: Vec<u32>,
    /// Per slot, the index of the packet queued behind it: the links of
    /// the engine's FIFO queues ([`crate::UnboundedFifo`]). One column
    /// serves every queue because a packet sits in at most one queue at
    /// a time (DESIGN.md §15), so no two queues ever write one slot's
    /// successor. Meaningful only while the slot's packet is queued and
    /// not at its queue's tail; never reset.
    successors: Vec<u32>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Stores `pkt`, returning its handle. Reuses a vacant slot when one
    /// exists; only growth beyond the high-water mark allocates.
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = pkt;
            PacketId {
                idx,
                gen: self.gens[idx as usize],
            }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(pkt);
            self.gens.push(0);
            self.successors.push(0);
            PacketId { idx, gen: 0 }
        }
    }

    /// `true` if `id` refers to a live packet (its slot has not been
    /// released since the id was issued).
    pub fn contains(&self, id: PacketId) -> bool {
        self.gens.get(id.idx as usize).is_some_and(|&g| g == id.gen)
    }

    #[inline]
    fn check(&self, id: PacketId) {
        assert!(
            self.contains(id),
            "stale PacketId {{ idx: {}, gen: {} }}: slot was released",
            id.idx,
            id.gen
        );
    }

    /// The packet behind a live id.
    ///
    /// # Panics
    ///
    /// Panics on a stale id — a handle held across the packet's release
    /// must never read the slot's new occupant.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        self.check(id);
        &self.slots[id.idx as usize]
    }

    /// Mutable access to a live packet.
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.check(id);
        &mut self.slots[id.idx as usize]
    }

    /// Links slot `next` behind slot `idx` in the successor column.
    /// Slots, not handles: a queue links the packets it holds, which
    /// are live by the ownership rules above.
    #[inline]
    pub(crate) fn set_successor(&mut self, idx: u32, next: u32) {
        self.successors[idx as usize] = next;
    }

    /// The slot linked behind slot `idx`, as its queue last wrote it
    /// with [`PacketArena::set_successor`].
    #[inline]
    pub(crate) fn successor(&self, idx: u32) -> u32 {
        self.successors[idx as usize]
    }

    /// The handle of slot `idx` at its current generation: the live
    /// packet's id while the slot holds one, which is the only time a
    /// queue asks.
    #[inline]
    pub(crate) fn id_at(&self, idx: u32) -> PacketId {
        PacketId {
            idx,
            gen: self.gens[idx as usize],
        }
    }

    /// Releases the slot and moves the packet out. The id (and any copy
    /// of it) is dead afterwards.
    ///
    /// # Panics
    ///
    /// Panics on a stale id (double remove).
    pub fn remove(&mut self, id: PacketId) -> Packet {
        self.check(id);
        let idx = id.idx as usize;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(id.idx);
        std::mem::replace(&mut self.slots[idx], VACANT)
    }

    /// Number of live packets.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` if no packets are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water slot count (live + vacant): how big the slab grew.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;

    fn pkt(id: u64, payload: u32) -> Packet {
        let mut p = PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        })
        .payload(payload)
        .build();
        p.id = id;
        p
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = PacketArena::new();
        let h = a.insert(pkt(7, 100));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(h).id, 7);
        a.get_mut(h).meta = 42;
        let out = a.remove(h);
        assert_eq!((out.id, out.meta), (7, 42));
        assert!(a.is_empty());
    }

    #[test]
    fn slots_recycle_without_growth() {
        let mut a = PacketArena::new();
        let ids: Vec<_> = (0..8).map(|i| a.insert(pkt(i, 10))).collect();
        for id in ids {
            a.remove(id);
        }
        for i in 0..8 {
            a.insert(pkt(100 + i, 10));
        }
        assert_eq!(a.capacity(), 8, "freed slots are reused, not appended");
        assert_eq!(a.len(), 8);
    }

    /// The generation-tag aliasing guarantee: a stale id from a freed
    /// slot must not read the slot's recycled occupant.
    #[test]
    fn stale_id_does_not_alias_recycled_slot() {
        let mut a = PacketArena::new();
        let old = a.insert(pkt(1, 100));
        a.remove(old);
        let new = a.insert(pkt(2, 200));
        assert_eq!(new.index(), old.index(), "slot was recycled");
        assert_ne!(new, old, "generation distinguishes the handles");
        assert!(!a.contains(old));
        assert!(a.contains(new));
        assert_eq!(a.get(new).id, 2);
    }

    #[test]
    #[should_panic(expected = "stale PacketId")]
    fn stale_get_panics() {
        let mut a = PacketArena::new();
        let old = a.insert(pkt(1, 100));
        a.remove(old);
        a.insert(pkt(2, 200));
        let _ = a.get(old);
    }

    #[test]
    #[should_panic(expected = "stale PacketId")]
    fn double_remove_panics() {
        let mut a = PacketArena::new();
        let h = a.insert(pkt(1, 100));
        a.remove(h);
        let _ = a.remove(h);
    }
}
