//! # taq — Timeout Aware Queuing
//!
//! The paper's primary contribution: a non-intrusive in-network
//! middlebox discipline that minimizes the probability of TCP timeouts
//! (and especially *repetitive* timeouts) in small packet regimes,
//! restoring short-term fairness and performance predictability without
//! touching the end hosts.
//!
//! The pieces, mapping one-to-one onto the paper's Sections 3.3–4.3:
//!
//! - [`FlowTable`] / [`FlowState`] — per-flow tracking at the middlebox:
//!   epoch (RTT) estimation from two-way or one-way observation, the
//!   four per-epoch parameters (new packets, highest sequence,
//!   retransmissions, drops), and the approximate state machine
//!   (slow start / normal / explicit loss recovery / timeout silence /
//!   timeout recovery / extended silence / dummy silence);
//! - [`TaqQueues`] / [`QueueClass`] — the five queues (Recovery,
//!   NewFlow, OverPenalized, BelowFairShare, AboveFairShare) under the
//!   3-level scheduler with the Recovery rate cap and fine-grained
//!   victim selection;
//! - [`AdmissionController`] — flow-pool admission control engaged past
//!   the model's tipping point `p_thresh = 0.1`, with the `Twait`
//!   guarantee;
//! - [`TaqPair`] — the deployable middlebox: a forward
//!   ([`TaqQdisc`]) and reverse ([`TaqReverseQdisc`]) half sharing one
//!   [`TaqState`], both implementing [`taq_sim::Qdisc`] so they drop
//!   into the simulator's bottleneck or the real-time testbed unchanged.
//!
//! ## Example
//!
//! ```
//! use taq::{TaqConfig, TaqPair};
//! use taq_sim::{Bandwidth, PacketArena, Qdisc, SimTime, PacketBuilder, FlowKey, NodeId};
//!
//! let cfg = TaqConfig::for_link(Bandwidth::from_kbps(600));
//! let pair = TaqPair::new(cfg);
//! let mut forward = pair.forward;
//! let mut arena = PacketArena::new();
//! let flow = FlowKey {
//!     src: NodeId(1), src_port: 80, dst: NodeId(2), dst_port: 5000,
//! };
//! let pkt = arena.insert(PacketBuilder::new(flow).seq(1).payload(460).build());
//! assert!(forward.enqueue(pkt, &mut arena, SimTime::ZERO).dropped.is_empty());
//! assert_eq!(forward.len(), 1);
//! ```

mod admission;
mod config;
mod qdisc;
mod queues;
mod tracker;

pub use admission::{AdmissionController, AdmissionDecision, LossRateMeter};
pub use config::TaqConfig;
pub use qdisc::{SharedTaq, TaqPair, TaqQdisc, TaqReverseQdisc, TaqState, TaqStats};
pub use queues::{classify, fair_share_bps, QueueClass, QueuedPkt, TaqQueues};
pub use tracker::{flow_id, EpochCounters, FlowInfo, FlowState, FlowTable, Observation};

#[cfg(test)]
mod tests {
    use crate::admission::{POOL_WINDOW, P_THRESH, P_THRESH_HEADROOM};
    use crate::tracker::{
        EPOCH_ALPHA, EXTENDED_SILENCE_EPOCHS, FLOW_GC_EPOCHS, MAX_EPOCH, NEWFLOW_PACKET_HORIZON,
    };
    use taq_sim::SimDuration;

    /// The fixed parameters, each with where its value comes from.
    #[test]
    fn fixed_parameters_hold_their_values() {
        // §4.3: admission engages past the model's tipping point,
        // p_thresh = 0.1 ...
        assert_eq!(P_THRESH, 0.1);
        // ... "in practice we use a threshold slightly smaller than
        // p_thresh as a congestion avoidance strategy". The admit test
        // compares against the product, which is not the literal 0.09.
        assert_eq!(P_THRESH_HEADROOM, 0.9);
        assert_eq!(P_THRESH * P_THRESH_HEADROOM, 0.09000000000000001);
        // §4.3's simplifying assumption: a user does not interleave
        // applications within a few seconds.
        assert_eq!(POOL_WINDOW, SimDuration::from_secs(3));
        // Slow start lasts a handful of epochs at the paper's IW = 2:
        // ten packets is the NewFlow horizon (not a paper number).
        assert_eq!(NEWFLOW_PACKET_HORIZON, 10);
        // Epoch estimation (§4.1) is an RTT estimate: the RFC 6298 style
        // EWMA, weighted a quarter to the new sample, capped at 2 s
        // against wild readings (neither value is given in the paper).
        assert_eq!(EPOCH_ALPHA, 0.25);
        assert_eq!(MAX_EPOCH, SimDuration::from_secs(2));
        // Figure 7: multiple consecutive silent epochs are extended
        // silence, so two is the first count that qualifies.
        assert_eq!(EXTENDED_SILENCE_EPOCHS, 2);
        // Sixty silent epochs (6 s at the 100 ms floor, 2 min at the
        // cap) and a flow's tracker state is dropped (not a paper number).
        assert_eq!(FLOW_GC_EPOCHS, 60);
    }
}
