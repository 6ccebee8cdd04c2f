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
pub use queues::{classify, fair_share_bps, QueueClass, TaqQueues};
pub use tracker::{flow_id, EpochCounters, FlowInfo, FlowState, FlowTable, Observation};
