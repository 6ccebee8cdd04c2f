//! TCP endpoint configuration.

use crate::rto::MAX_RTO;
use taq_sim::SimDuration;

/// Maximum segment size — application payload bytes per segment: the
/// paper's ns2-style 500-byte on-the-wire packets less the 40-byte
/// header.
pub const MSS: u32 = 460;

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
    /// CUBIC congestion avoidance (RFC 8312, simplified) over NewReno
    /// loss recovery — the "modern stack" the paper's SPK definition
    /// references.
    Cubic,
}

/// Configuration for a TCP sender/receiver pair.
///
/// Defaults mirror the paper's ns2-style setup: 500-byte on-the-wire
/// segments ([`MSS`] + 40-byte header), initial window of 2 segments, no
/// delayed ACKs, NewReno recovery, and RFC 6298's 1 s minimum RTO.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Initial congestion window, in segments.
    pub initial_window: u32,
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
            initial_window: 2,
            variant: Variant::NewReno,
            min_rto: SimDuration::from_secs(1),
            delayed_ack: false,
            max_window_segments: 0,
            initial_rto: SimDuration::from_secs(1),
        }
    }
}

impl TcpConfig {
    /// The "modern stack" profile the paper's SPK(k) discussion cites:
    /// CUBIC with an initial window of 10 segments.
    pub fn cubic_modern() -> Self {
        TcpConfig {
            variant: Variant::Cubic,
            initial_window: 10,
            ..TcpConfig::default()
        }
    }

    /// On-the-wire size of a full segment (MSS + header).
    pub fn wire_segment(&self) -> u32 {
        MSS + taq_sim::Packet::DEFAULT_HEADER
    }

    /// Initial congestion window in bytes.
    pub fn iw_bytes(&self) -> u64 {
        u64::from(self.initial_window) * u64::from(MSS)
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
    /// Panics on nonsensical parameters (zero initial window, a minimum
    /// RTO above the maximum); these are construction bugs.
    pub fn validate(&self) {
        assert!(self.initial_window > 0, "initial window must be positive");
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
        assert_eq!(c.iw_bytes(), 920);
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

    #[test]
    #[should_panic(expected = "initial window")]
    fn zero_initial_window_rejected() {
        TcpConfig {
            initial_window: 0,
            ..TcpConfig::default()
        }
        .validate();
    }
}
