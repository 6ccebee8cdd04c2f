//! Round-trip time estimation and retransmission timeout computation,
//! following RFC 6298.
//!
//! The estimator keeps the smoothed RTT and its variance; the sender
//! layers exponential backoff on top (see
//! [`crate::TcpSender`]), doubling the timeout on each consecutive
//! timeout and collapsing back when a fresh RTT sample arrives — the
//! "timer collapse on new measurement" behaviour the paper's Markov
//! model depends on.

use taq_sim::SimDuration;

/// Upper bound on the retransmission timeout: backoff saturates here
/// (RFC 6298 §2.5: "a maximum value MAY be placed on RTO provided it is
/// at least 60 seconds").
pub(crate) const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// RFC 6298 smoothed RTT estimator.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT in seconds, NaN until the first sample (a sample is
    /// a measured duration, never NaN).
    srtt: f64,
    rttvar: f64,
    min_rto: SimDuration,
    initial_rto: SimDuration,
}

impl RttEstimator {
    /// Creates an estimator with the given RTO floor and pre-sample
    /// default; the ceiling is `MAX_RTO` (60 s).
    pub fn new(min_rto: SimDuration, initial_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: f64::NAN,
            rttvar: 0.0,
            min_rto,
            initial_rto,
        }
    }

    /// Feeds one RTT sample (seconds). Retransmitted segments must not be
    /// sampled (Karn's algorithm) — that is the caller's responsibility.
    pub fn on_sample(&mut self, rtt_secs: f64) {
        debug_assert!(rtt_secs >= 0.0);
        if self.srtt.is_nan() {
            self.srtt = rtt_secs;
            self.rttvar = rtt_secs / 2.0;
        } else {
            const ALPHA: f64 = 1.0 / 8.0;
            const BETA: f64 = 1.0 / 4.0;
            self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (self.srtt - rtt_secs).abs();
            self.srtt = (1.0 - ALPHA) * self.srtt + ALPHA * rtt_secs;
        }
    }

    /// The current base RTO (before backoff), clamped to the configured
    /// bounds.
    pub fn rto(&self) -> SimDuration {
        let Some(srtt) = self.srtt() else {
            return self.initial_rto;
        };
        let raw = srtt + (4.0 * self.rttvar).max(0.001);
        SimDuration::from_secs_f64(raw)
            .max(self.min_rto)
            .min(MAX_RTO)
    }

    /// RTO after `backoff` consecutive timeouts (doubling, saturating at
    /// the maximum).
    pub fn backed_off_rto(&self, backoff: u32) -> SimDuration {
        let base = self.rto();
        let factor = 1u64 << backoff.min(16);
        (base * factor).min(MAX_RTO)
    }

    /// The smoothed RTT, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<f64> {
        (!self.srtt.is_nan()).then_some(self.srtt)
    }

    /// `true` once a sample has been incorporated.
    pub fn has_sample(&self) -> bool {
        !self.srtt.is_nan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(1))
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = est();
        assert!(!e.has_sample());
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut e = est();
        e.on_sample(0.4);
        assert_eq!(e.srtt(), Some(0.4));
        // rto = srtt + 4*rttvar = 0.4 + 4*0.2 = 1.2 s.
        assert_eq!(e.rto(), SimDuration::from_secs_f64(1.2));
    }

    #[test]
    fn steady_samples_converge_to_srtt_plus_small_var() {
        let mut e = est();
        for _ in 0..200 {
            e.on_sample(0.4);
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt - 0.4).abs() < 1e-6);
        // Variance decays toward zero, so RTO approaches the clamp or
        // srtt itself.
        let rto = e.rto().as_secs_f64();
        assert!((0.4..0.45).contains(&rto), "rto = {rto}");
    }

    #[test]
    fn min_rto_clamp_applies() {
        let mut e = est();
        for _ in 0..200 {
            e.on_sample(0.01); // 10 ms RTT
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut e = est();
        e.on_sample(0.4);
        let base = e.rto();
        assert_eq!(e.backed_off_rto(0), base);
        assert_eq!(e.backed_off_rto(1), base * 2);
        assert_eq!(e.backed_off_rto(2), base * 4);
        assert_eq!(e.backed_off_rto(30), SimDuration::from_secs(60));
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = est();
        e.on_sample(0.4);
        for _ in 0..50 {
            e.on_sample(0.2);
            e.on_sample(0.6);
        }
        // High jitter keeps the RTO well above srtt.
        assert!(e.rto().as_secs_f64() > 0.8, "rto = {}", e.rto());
    }
}
