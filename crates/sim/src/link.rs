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

use crate::packet::{LinkId, NodeId};
use crate::qdisc::Qdisc;
use crate::rng::SimRng;
use crate::time::{Bandwidth, SimDuration};

/// One remembered [`Bandwidth::transmission_time`] result.
type TxMemo = (Bandwidth, u32, SimDuration);

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

/// One unidirectional link.
pub(crate) struct Link {
    pub id: LinkId,
    /// Transmitting endpoint.
    pub from: NodeId,
    pub to: NodeId,
    pub rate: Bandwidth,
    pub delay: SimDuration,
    pub qdisc: Box<dyn Qdisc>,
    /// Wire loss, boxed because only model-validation links set a rate:
    /// `None` until a nonzero rate is first set, and kept (stream
    /// position included) when the rate later returns to zero.
    pub loss: Option<Box<WireLoss>>,
    /// `true` while a packet is being serialized.
    pub busy: bool,
    /// Transmissions started on this link; seeds the canonical
    /// `LinkFree`/`Arrival` event keys (see `events::EventKey`).
    pub tx_seq: u64,
    /// The two most recently used `(rate, wire_len)` pairs and their
    /// serialization times, most recent first. The rate is part of the
    /// key, so a rate change needs no invalidation.
    tx_memo: [TxMemo; 2],
    pub stats: LinkStats,
}

impl Link {
    pub fn new(
        id: LinkId,
        from: NodeId,
        to: NodeId,
        rate: Bandwidth,
        delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
    ) -> Self {
        Link {
            id,
            from,
            to,
            rate,
            delay,
            qdisc,
            loss: None,
            busy: false,
            tx_seq: 0,
            // Zero bytes take zero time at any rate: a true entry.
            tx_memo: [(rate, 0, SimDuration::ZERO); 2],
            stats: LinkStats::default(),
        }
    }

    /// `self.rate.transmission_time(wire_len)`, divided once per
    /// `(rate, wire_len)` pair while that pair stays among the last two
    /// this link used.
    #[inline]
    pub fn tx_time(&mut self, wire_len: u32) -> SimDuration {
        let [first, second] = self.tx_memo;
        if (first.0, first.1) == (self.rate, wire_len) {
            return first.2;
        }
        let hit = if (second.0, second.1) == (self.rate, wire_len) {
            second
        } else {
            (self.rate, wire_len, self.rate.transmission_time(wire_len))
        };
        self.tx_memo = [hit, first];
        hit.2
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("rate", &self.rate)
            .field("delay", &self.delay)
            .field("qdisc", &self.qdisc.name())
            .field("busy", &self.busy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdisc::UnboundedFifo;

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
            LinkId(0),
            NodeId(0),
            NodeId(1),
            Bandwidth::from_bps(rates[0]),
            SimDuration::ZERO,
            Box::new(UnboundedFifo::new()),
        );
        for step in 0..200_000 {
            if rng.chance(0.05) {
                // What `set_link_rate` does.
                link.rate = Bandwidth::from_bps(rates[rng.next_below(5) as usize]);
            }
            // Mostly the first two lengths, as a real link sees.
            let wire = if rng.chance(0.9) {
                wires[rng.next_below(2) as usize]
            } else {
                wires[rng.next_below(6) as usize]
            };
            assert_eq!(
                link.tx_time(wire),
                link.rate.transmission_time(wire),
                "step {step}: {wire} B at {}",
                link.rate
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
