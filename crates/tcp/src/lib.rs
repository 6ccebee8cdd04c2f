//! # taq-tcp — TCP endpoints for the TAQ reproduction
//!
//! A from-scratch TCP implementation with exactly the mechanisms the
//! paper's analysis depends on:
//!
//! - slow start and congestion avoidance over byte-based windows,
//! - duplicate-ACK fast retransmit (3 dupACKs, hence impossible below
//!   4 segments in flight — the small-packet-regime breakdown),
//! - Reno, NewReno (RFC 6582) and SACK-scoreboard loss recovery,
//! - RFC 6298 RTO with exponential backoff that collapses only on a
//!   fresh RTT sample (Karn's algorithm), producing the repetitive
//!   timeouts and geometric silences the paper models,
//! - optional delayed ACKs (off by default, as in the paper), and
//! - host agents ([`ServerHost`], [`ClientHost`]) that model
//!   download-centric web traffic: the client's SYN carries the object
//!   size (standing in for the GET), the server streams the object, and
//!   clients keep bounded pools of parallel connections with SYN retry
//!   on rejection — the substrate for the paper's admission-control
//!   experiments.
//!
//! The state machines ([`TcpSender`], [`TcpReceiver`]) are pure: they
//! talk to the world only through [`TcpIo`], so unit tests drive them
//! packet-by-packet with [`MockIo`], and the host agents that own them
//! talk to the world only through [`HostEnv`], so the simulator and the
//! real-time testbed run the same hosts.

mod config;
mod cubic;
mod host;
mod io;
mod receiver;
mod rto;
mod sender;

pub use config::{TcpConfig, Variant};
pub use cubic::CubicState;
pub use host::{
    new_flow_log, ClientHost, FlowLog, FlowRecord, HostEnv, Request, ServerHost, SharedFlowLog,
};
pub use io::{MockIo, TcpIo, TimerKind};
pub use receiver::{ReceiverStats, TcpReceiver};
pub use rto::RttEstimator;
pub use sender::{SenderState, SenderStats, TcpSender};
