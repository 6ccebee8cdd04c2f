//! TAQ middlebox configuration.

use crate::tracker::MAX_EPOCH;
use taq_sim::{Bandwidth, SimDuration};

/// Configuration for a TAQ middlebox instance.
#[derive(Debug, Clone)]
pub struct TaqConfig {
    /// Capacity of the bottleneck link the middlebox fronts. TAQ is
    /// "constantly aware of the available bandwidth on the underlying
    /// network" (paper §4.4); in the simulator this is the link rate.
    pub link_rate: Bandwidth,
    /// Total buffer capacity across all five queues, in packets.
    pub buffer_pkts: usize,
    /// Fraction of link capacity the Recovery queue may consume
    /// (Level 1 is "capacity limited so recovery packets cannot occupy
    /// more than a certain amount of network resources").
    pub recovery_cap_fraction: f64,
    /// Maximum packets buffered in the NewFlow queue ("we explicitly
    /// limit the NewQueue capacity to limit the number of new
    /// connections in the system").
    pub newflow_cap_pkts: usize,
    /// Whether admission control is enabled at all.
    pub admission_control: bool,
    /// With admission control: answer rejected connection attempts with
    /// an explicit notice (a spoofed RST carrying a wait-time hint in
    /// its `meta` field) instead of silently dropping the SYN — the
    /// paper's "spoofed HTTP 503 / expected wait time" feedback
    /// (§4.3). Clients honouring the hint retry once at the suggested
    /// time rather than blindly backing off.
    pub reject_feedback: bool,
    /// Wait after which a rejected flow pool is guaranteed admission
    /// (`Twait`, "small (few seconds) and less than the TCP SYN
    /// connection timeout").
    pub admission_twait: SimDuration,
    /// Initial epoch estimate before any measurement, and the floor for
    /// estimates.
    pub min_epoch: SimDuration,
    /// Ablation switch: bypass the five-class policy and run plain
    /// per-flow fair queueing with head-of-longest-queue drops (the
    /// recovery and new-flow machinery disabled). Used by the
    /// `ablation_taq` experiment to isolate how much of TAQ's gain comes
    /// from timeout awareness versus plain FQ.
    pub fq_mode: bool,
}

impl TaqConfig {
    /// A reasonable default for a bottleneck of the given rate: one
    /// 200 ms-RTT worth of 500-byte packets of buffering, 35% recovery
    /// cap, admission control off (the paper evaluates it separately).
    pub fn for_link(link_rate: Bandwidth) -> Self {
        let buffer = link_rate
            .packets_per(SimDuration::from_millis(200), 500)
            .max(8);
        TaqConfig {
            link_rate,
            buffer_pkts: buffer,
            // Calibrated on the Figure 8/9 scenarios: 0.2 leaves
            // repetitive timeouts (recovery queue backs up and its
            // flows' packets get evicted); 0.5 burns too much goodput
            // on retransmission priority. See the ablation bench.
            recovery_cap_fraction: 0.35,
            newflow_cap_pkts: (buffer / 5).max(2),
            admission_control: false,
            reject_feedback: false,
            admission_twait: SimDuration::from_secs(3),
            min_epoch: SimDuration::from_millis(100),
            fq_mode: false,
        }
    }

    /// Enables admission control with the paper's thresholds.
    pub fn with_admission_control(mut self) -> Self {
        self.admission_control = true;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters; these are construction bugs.
    pub fn validate(&self) {
        assert!(self.buffer_pkts > 0, "zero buffer");
        assert!(
            (0.0..=1.0).contains(&self.recovery_cap_fraction),
            "recovery cap fraction out of range"
        );
        assert!(
            self.newflow_cap_pkts <= self.buffer_pkts,
            "NewFlow cap exceeds buffer"
        );
        assert!(self.min_epoch <= MAX_EPOCH, "epoch bounds inverted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_buffer_is_one_rtt() {
        let c = TaqConfig::for_link(Bandwidth::from_mbps(1));
        c.validate();
        assert_eq!(c.buffer_pkts, 50, "1 Mbps × 200 ms / 500 B = 50 pkts");
        assert_eq!(c.newflow_cap_pkts, 10);
        assert!(!c.admission_control);
        assert!(c.with_admission_control().admission_control);
    }

    #[test]
    fn tiny_links_get_minimum_buffer() {
        let c = TaqConfig::for_link(Bandwidth::from_kbps(8));
        c.validate();
        assert!(c.buffer_pkts >= 8);
    }

    #[test]
    #[should_panic(expected = "NewFlow cap")]
    fn invalid_newflow_cap_rejected() {
        let mut c = TaqConfig::for_link(Bandwidth::from_mbps(1));
        c.newflow_cap_pkts = c.buffer_pkts + 1;
        c.validate();
    }
}
