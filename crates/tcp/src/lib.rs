//! # taq-tcp — TCP endpoints for the TAQ reproduction
//!
//! A from-scratch TCP implementation with exactly the mechanisms the
//! paper's analysis depends on:
//!
//! - slow start and congestion avoidance over byte-based windows,
//! - duplicate-ACK fast retransmit (3 dupACKs, hence impossible below
//!   4 segments in flight — the small-packet-regime breakdown),
//! - NewReno (RFC 6582) and SACK-scoreboard loss recovery,
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
mod host;
mod io;
mod receiver;
mod rto;
mod sender;

pub use config::{TcpConfig, Variant, INITIAL_WINDOW, MSS};
pub use host::{
    new_flow_log, ClientHost, FlowLog, FlowRecord, HostEnv, Request, ServerHost, SharedFlowLog,
};
pub use io::{MockIo, TcpIo, TimerKind};
pub use receiver::{ReceiverStats, TcpReceiver};
pub use rto::RttEstimator;
pub use sender::{SenderState, SenderStats, TcpSender};

#[cfg(test)]
mod tests {
    use crate::config::{INITIAL_WINDOW, MSS};
    use crate::host::{SYN_RETRY_INITIAL, SYN_RETRY_MAX};
    use crate::receiver::DELAYED_ACK_TIMEOUT;
    use crate::rto::MAX_RTO;
    use crate::sender::DUPACK_THRESHOLD;
    use taq_sim::SimDuration;

    /// The fixed parameters, each with where its value comes from.
    #[test]
    fn fixed_parameters_hold_their_values() {
        // The paper's ns2-style 500-byte packets less the 40-byte header.
        assert_eq!(MSS, 460);
        // The paper's ns2 setup starts every flow with a window of two
        // segments.
        assert_eq!(INITIAL_WINDOW, 2);
        // RFC 5681 §3.2: fast retransmit "uses the arrival of 3 duplicate
        // ACKs" as the sign of a loss.
        assert_eq!(DUPACK_THRESHOLD, 3);
        // RFC 6298 §2.5: "a maximum value MAY be placed on RTO provided
        // it is at least 60 seconds".
        assert_eq!(MAX_RTO, SimDuration::from_secs(60));
        // RFC 1122 §4.2.3.2: the ACK delay "MUST be less than 0.5
        // seconds"; 100 ms sits well inside that.
        assert_eq!(DELAYED_ACK_TIMEOUT, SimDuration::from_millis(100));
        // RFC 6298 §2.1's 1 s initial RTO for the first SYN, doubling
        // per retry up to 8 s (the cap is not an RFC number).
        assert_eq!(SYN_RETRY_INITIAL, SimDuration::from_secs(1));
        assert_eq!(SYN_RETRY_MAX, SimDuration::from_secs(8));
    }
}
