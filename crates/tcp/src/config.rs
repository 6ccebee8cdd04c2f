//! TCP endpoint configuration.

use crate::rto::MAX_RTO;
use taq_sim::SimDuration;

/// Maximum segment size — application payload bytes per segment: the
/// paper's ns2-style 500-byte on-the-wire packets less the 40-byte
/// header.
pub const MSS: u32 = 460;

/// Initial congestion window, in segments: the paper's ns2-style setup.
pub const INITIAL_WINDOW: u32 = 2;

/// Loss-recovery variant of the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// NewReno (RFC 6582): stays in recovery across partial ACKs,
    /// retransmitting one hole per RTT.
    NewReno,
    /// SACK-based recovery: the scoreboard identifies holes so multiple
    /// losses per window can be repaired without timeouts (subject to
    /// having enough dupACKs, which small windows do not provide).
    Sack,
}

/// Configuration for a TCP sender/receiver pair.
///
/// Defaults mirror the paper's ns2-style setup: 500-byte on-the-wire
/// segments ([`MSS`] + 40-byte header), an initial window of
/// [`INITIAL_WINDOW`] segments, no delayed ACKs, NewReno recovery, and
/// RFC 6298's 1 s minimum RTO.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Loss-recovery variant.
    pub variant: Variant,
    /// Lower bound on the retransmission timeout (RFC 6298 §2.4: SHOULD
    /// be 1 second). Lowering this below the per-flow service interval
    /// of a fair-queued bottleneck causes chronic spurious timeouts.
    pub min_rto: SimDuration,
    /// Receiver delays ACKs (off in all paper experiments, which note
    /// that delayed ACKs obscure congestion dynamics).
    pub delayed_ack: bool,
    /// Cap on the congestion window, in segments (0 = uncapped). The
    /// paper's model uses Wmax = 6; simulations leave this uncapped.
    pub max_window_segments: u32,
    /// Initial RTO before any RTT sample exists (RFC 6298 says 1 s).
    pub initial_rto: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            variant: Variant::NewReno,
            min_rto: SimDuration::from_secs(1),
            delayed_ack: false,
            max_window_segments: 0,
            initial_rto: SimDuration::from_secs(1),
        }
    }
}

impl TcpConfig {
    /// On-the-wire size of a full segment (MSS + header).
    pub fn wire_segment(&self) -> u32 {
        MSS + taq_sim::Packet::DEFAULT_HEADER
    }

    /// Window cap in bytes, or `u64::MAX` if uncapped.
    pub fn max_window_bytes(&self) -> u64 {
        if self.max_window_segments == 0 {
            u64::MAX
        } else {
            u64::from(self.max_window_segments) * u64::from(MSS)
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a minimum RTO above the maximum, a construction bug.
    pub fn validate(&self) {
        assert!(self.min_rto <= MAX_RTO, "min_rto > max_rto");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = TcpConfig::default();
        c.validate();
        assert_eq!(c.wire_segment(), 500, "500-byte on-the-wire packets");
        assert_eq!(INITIAL_WINDOW * MSS, 920, "initial window in bytes");
        assert_eq!(c.variant, Variant::NewReno);
        assert!(!c.delayed_ack);
        assert_eq!(c.max_window_bytes(), u64::MAX);
    }

    #[test]
    fn window_cap_in_bytes() {
        let c = TcpConfig {
            max_window_segments: 6,
            ..TcpConfig::default()
        };
        assert_eq!(c.max_window_bytes(), 6 * 460);
    }
}
