//! Unidirectional links: rate-limited, delayed, qdisc-buffered.
//!
//! A link models the store-and-forward path between two nodes: packets
//! offered while the transmitter is busy wait in the link's [`Qdisc`];
//! serialization takes `wire_len * 8 / rate`; the packet then propagates
//! for the configured delay before arriving at the destination node.
//! Queueing delay therefore shows up in measured RTTs exactly as it does
//! in the paper's simulations. A link sees few distinct wire lengths
//! (full segments and bare ACKs), so it remembers the serialization
//! time of the last two and divides only for a third.

use crate::arena::{PacketArena, PacketId};
use crate::packet::NodeId;
use crate::qdisc::{EnqueueOutcome, Qdisc, UnboundedFifo};
use crate::rng::SimRng;
use crate::time::{Bandwidth, SimDuration, SimTime};
use std::any::Any;

/// Counters maintained per link by the engine.
///
/// `PartialEq` so determinism tests can compare two runs
/// field-for-field.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets offered to the link's queue.
    pub offered_pkts: u64,
    /// Bytes offered (wire length).
    pub offered_bytes: u64,
    /// Packets dropped by the queue.
    pub dropped_pkts: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Packets lost on the wire itself (Bernoulli corruption), distinct
    /// from queue drops.
    pub wire_lost_pkts: u64,
    /// Packets fully serialized onto the wire.
    pub transmitted_pkts: u64,
    /// Bytes transmitted.
    pub transmitted_bytes: u64,
    /// Total time the transmitter spent busy.
    pub busy_time: SimDuration,
}

impl LinkStats {
    /// Fraction of offered packets that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.offered_pkts == 0 {
            0.0
        } else {
            self.dropped_pkts as f64 / self.offered_pkts as f64
        }
    }

    /// Link utilization over `elapsed`: busy time / wall time.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy_time.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// A link's Bernoulli wire loss: the probability each serialized
/// packet is corrupted in flight, and the link's own draw stream
/// (derived from the run seed and the link id), so loss draws on one
/// link never perturb any other component's variates.
#[derive(Debug)]
pub(crate) struct WireLoss {
    pub rate: f64,
    pub rng: SimRng,
}

/// A link's queue: an [`UnboundedFifo`] inline, any other discipline
/// boxed. Most links in a scenario are access links with a FIFO, so
/// the common queue costs no allocation and no pointer chase, and its
/// calls are static.
pub(crate) enum LinkQueue {
    Fifo(UnboundedFifo),
    Boxed(Box<dyn Qdisc>),
}

impl LinkQueue {
    /// Stores `qdisc` inline if it is an [`UnboundedFifo`], boxed
    /// otherwise.
    pub fn new(qdisc: Box<dyn Qdisc>) -> Self {
        let any: &dyn Any = qdisc.as_ref();
        match any.downcast_ref::<UnboundedFifo>() {
            Some(fifo) => LinkQueue::Fifo(fifo.clone()),
            None => LinkQueue::Boxed(qdisc),
        }
    }

    /// The discipline, whichever way it is stored.
    pub fn qdisc(&self) -> &dyn Qdisc {
        match self {
            LinkQueue::Fifo(fifo) => fifo,
            LinkQueue::Boxed(qdisc) => qdisc.as_ref(),
        }
    }

    #[inline]
    pub fn enqueue(
        &mut self,
        pkt: PacketId,
        arena: &mut PacketArena,
        now: SimTime,
    ) -> EnqueueOutcome {
        match self {
            LinkQueue::Fifo(fifo) => fifo.enqueue(pkt, arena, now),
            LinkQueue::Boxed(qdisc) => qdisc.enqueue(pkt, arena, now),
        }
    }

    #[inline]
    pub fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
        match self {
            LinkQueue::Fifo(fifo) => fifo.dequeue(arena, now),
            LinkQueue::Boxed(qdisc) => qdisc.dequeue(arena, now),
        }
    }
}

/// One unidirectional link. Its id is its index in the engine's link
/// table; its transmission count (the seq of its `LinkFree`/`Arrival`
/// event keys, see `events::EventKey`) is `transmitted_pkts +
/// wire_lost_pkts`, since every transmission ends as exactly one of
/// the two.
pub(crate) struct Link {
    /// Receiving endpoint.
    pub to: NodeId,
    /// `true` while a packet is being serialized.
    pub busy: bool,
    /// The two most recently used wire lengths, most recent first, and
    /// their serialization times (`tx_time`) at the current rate;
    /// [`Link::set_rate`] forgets them.
    memo_len: [u32; 2],
    memo_tx: [SimDuration; 2],
    rate: Bandwidth,
    pub delay: SimDuration,
    pub queue: LinkQueue,
    /// Wire loss, boxed because only model-validation links set a rate:
    /// `None` until a nonzero rate is first set, and kept (stream
    /// position included) when the rate later returns to zero.
    pub loss: Option<Box<WireLoss>>,
    pub stats: LinkStats,
}

// A scenario holds two access links per flow: a field added here is
// paid twice per flow.
const _: () = assert!(std::mem::size_of::<Link>() <= 144);

impl Link {
    pub fn new(to: NodeId, rate: Bandwidth, delay: SimDuration, qdisc: Box<dyn Qdisc>) -> Self {
        Link {
            to,
            busy: false,
            // Zero bytes take zero time at any rate: a true entry.
            memo_len: [0; 2],
            memo_tx: [SimDuration::ZERO; 2],
            rate,
            delay,
            queue: LinkQueue::new(qdisc),
            loss: None,
            stats: LinkStats::default(),
        }
    }

    pub fn rate(&self) -> Bandwidth {
        self.rate
    }

    /// Changes the rate, forgetting the serialization times memoized at
    /// the old one.
    pub fn set_rate(&mut self, rate: Bandwidth) {
        self.rate = rate;
        self.memo_len = [0; 2];
        self.memo_tx = [SimDuration::ZERO; 2];
    }

    /// Transmissions started on this link so far.
    pub fn tx_count(&self) -> u64 {
        self.stats.transmitted_pkts + self.stats.wire_lost_pkts
    }

    /// `self.rate.transmission_time(wire_len)`, divided once per wire
    /// length while that length stays among the last two this link used
    /// at its current rate.
    #[inline]
    pub fn tx_time(&mut self, wire_len: u32) -> SimDuration {
        if self.memo_len[0] == wire_len {
            return self.memo_tx[0];
        }
        let tx = if self.memo_len[1] == wire_len {
            self.memo_tx[1]
        } else {
            self.rate.transmission_time(wire_len)
        };
        self.memo_len = [wire_len, self.memo_len[0]];
        self.memo_tx = [tx, self.memo_tx[0]];
        tx
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("to", &self.to)
            .field("rate", &self.rate)
            .field("delay", &self.delay)
            .field("qdisc", &self.queue.qdisc().name())
            .field("busy", &self.busy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memo is invisible: on random `(rate, wire_len)` sequences —
    /// long same-pair runs, two alternating lengths, a third evicting
    /// one, the rate changed between packets and changed back — every
    /// answer equals `Bandwidth::transmission_time`'s.
    #[test]
    fn tx_time_memo_matches_transmission_time() {
        let mut rng = SimRng::new(0x7A3E);
        let rates = [600_000, 1_000_000, 100_000_000, 1, 2_000_003];
        let wires = [40, 540, 1500, 52, 0, 1 << 30];
        let mut link = Link::new(
            NodeId(1),
            Bandwidth::from_bps(rates[0]),
            SimDuration::ZERO,
            Box::new(UnboundedFifo::new()),
        );
        for step in 0..200_000 {
            if rng.chance(0.05) {
                // What `set_link_rate` does.
                link.set_rate(Bandwidth::from_bps(rates[rng.next_below(5) as usize]));
            }
            // Mostly the first two lengths, as a real link sees.
            let wire = if rng.chance(0.9) {
                wires[rng.next_below(2) as usize]
            } else {
                wires[rng.next_below(6) as usize]
            };
            assert_eq!(
                link.tx_time(wire),
                link.rate().transmission_time(wire),
                "step {step}: {wire} B at {}",
                link.rate()
            );
        }
    }

    #[test]
    fn drop_rate_and_utilization() {
        let mut s = LinkStats::default();
        assert_eq!(s.drop_rate(), 0.0);
        s.offered_pkts = 10;
        s.dropped_pkts = 3;
        assert!((s.drop_rate() - 0.3).abs() < 1e-12);
        s.busy_time = SimDuration::from_secs(5);
        assert!((s.utilization(SimDuration::from_secs(10)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(SimDuration::ZERO), 0.0);
    }
}
