//! Admission control over flow pools (paper §4.3).
//!
//! When the measured drop rate exceeds the model's tipping point
//! (`p_thresh = 0.1`), TAQ stops admitting *new flow pools* — a pool
//! being the set of inter-related flows a single application session
//! opens (e.g. one browser's ~4 parallel connections) — so that admitted
//! flows can make progress instead of everyone spiralling into
//! repetitive timeouts. Rules:
//!
//! - a flow is admitted if its pool is already admitted (commitments are
//!   honoured even while over threshold);
//! - a new pool is admitted if the current loss rate is below a slightly
//!   discounted threshold (congestion avoidance headroom);
//! - a rejected pool retries (clients keep re-SYNing) and is guaranteed
//!   admission after `Twait`, oldest-waiting first.
//!
//! Pools are keyed by source address; SYNs from one source within
//! [`POOL_WINDOW`] of each other join the same pool, matching the paper's
//! simplifying assumption that a user does not interleave applications
//! within a few seconds.

use crate::config::TaqConfig;
use std::collections::HashMap;
use taq_sim::{NodeId, SimDuration, SimTime};
use taq_telemetry::{AdmissionDecision, Event, Telemetry};

/// Loss-rate threshold beyond which admission control engages (the
/// model's tipping point, `p_thresh = 0.1`).
pub(crate) const P_THRESH: f64 = 0.1;

/// Headroom applied to [`P_THRESH`] when admitting new pools ("in
/// practice we use a threshold slightly smaller than p_thresh as a
/// congestion avoidance strategy").
pub(crate) const P_THRESH_HEADROOM: f64 = 0.9;

/// SYNs from one source within this window belong to one flow pool.
pub(crate) const POOL_WINDOW: SimDuration = SimDuration::from_secs(3);

#[derive(Debug)]
struct Pool {
    admitted: bool,
    /// Last SYN observed from this source (pool-window tracking).
    last_syn_at: SimTime,
    /// When the pool first asked and was refused (Twait anchor).
    waiting_since: Option<SimTime>,
}

/// Sliding loss-rate estimator over recent offered/dropped counts.
///
/// Keeps a short ring of per-interval (offered, dropped) buckets so the
/// rate reflects the recent past, not all of history.
#[derive(Debug)]
pub struct LossRateMeter {
    buckets: Vec<(u64, u64)>,
    current: usize,
    bucket_len: SimDuration,
    bucket_start: SimTime,
}

impl LossRateMeter {
    /// Creates a meter with `n` buckets of `bucket_len` each.
    pub fn new(n: usize, bucket_len: SimDuration) -> Self {
        assert!(n >= 2, "need at least two buckets");
        LossRateMeter {
            buckets: vec![(0, 0); n],
            current: 0,
            bucket_len,
            bucket_start: SimTime::ZERO,
        }
    }

    fn advance(&mut self, now: SimTime) {
        while now >= self.bucket_start + self.bucket_len {
            self.bucket_start += self.bucket_len;
            self.current = (self.current + 1) % self.buckets.len();
            self.buckets[self.current] = (0, 0);
        }
    }

    /// Records an offered packet (and whether it was dropped).
    pub fn record(&mut self, dropped: bool, now: SimTime) {
        self.advance(now);
        let b = &mut self.buckets[self.current];
        b.0 += 1;
        b.1 += u64::from(dropped);
    }

    /// The loss rate over the retained window.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let (offered, dropped) = self
            .buckets
            .iter()
            .fold((0u64, 0u64), |(o, d), &(bo, bd)| (o + bo, d + bd));
        if offered == 0 {
            0.0
        } else {
            dropped as f64 / offered as f64
        }
    }
}

/// The admission controller.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: TaqConfig,
    pools: HashMap<NodeId, Pool>,
    /// Sources waiting for admission, oldest first.
    wait_queue: Vec<NodeId>,
    telemetry: Telemetry,
    /// Totals for reporting.
    pub admitted_pools: u64,
    /// SYNs rejected (including retries of waiting pools).
    pub rejected_syns: u64,
}

impl AdmissionController {
    /// Creates a controller with the given configuration.
    pub fn new(cfg: TaqConfig) -> Self {
        AdmissionController {
            cfg,
            pools: HashMap::new(),
            wait_queue: Vec::new(),
            telemetry: Telemetry::disabled(),
            admitted_pools: 0,
            rejected_syns: 0,
        }
    }

    /// Routes grant/reject and pool wait-queue events to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Decides the fate of a SYN from `src` given the current measured
    /// loss rate.
    pub fn on_syn(&mut self, src: NodeId, loss_rate: f64, now: SimTime) -> AdmissionDecision {
        if !self.cfg.admission_control {
            // Still worth a telemetry record: the stream then shows
            // every SYN the middlebox saw, whatever the configuration.
            self.telemetry.emit(now.as_nanos(), || Event::Admission {
                src: src.0,
                decision: AdmissionDecision::Admit,
                loss_rate,
            });
            return AdmissionDecision::Admit;
        }
        let pool = self.pools.entry(src).or_insert(Pool {
            admitted: false,
            last_syn_at: now,
            waiting_since: None,
        });
        // A long-quiet source starts a fresh pool (new session).
        if pool.admitted && now.saturating_since(pool.last_syn_at) > POOL_WINDOW {
            pool.admitted = false;
            pool.waiting_since = None;
        }
        pool.last_syn_at = now;
        if pool.admitted {
            return AdmissionDecision::Admit;
        }
        let under_threshold = loss_rate < P_THRESH * P_THRESH_HEADROOM;
        let waited_out = pool
            .waiting_since
            .is_some_and(|since| now.saturating_since(since) >= self.cfg.admission_twait);
        let head_of_line = self.wait_queue.first() == Some(&src) || self.wait_queue.is_empty();
        let decision = if (under_threshold && head_of_line) || waited_out {
            let was_waiting = pool.waiting_since.is_some();
            pool.admitted = true;
            pool.waiting_since = None;
            self.wait_queue.retain(|s| *s != src);
            self.admitted_pools += 1;
            if was_waiting {
                self.telemetry
                    .emit(now.as_nanos(), || Event::PoolAdmitted { src: src.0 });
            }
            AdmissionDecision::Admit
        } else {
            if pool.waiting_since.is_none() {
                pool.waiting_since = Some(now);
                self.wait_queue.push(src);
                self.telemetry
                    .emit(now.as_nanos(), || Event::PoolWaiting { src: src.0 });
            }
            self.rejected_syns += 1;
            AdmissionDecision::Reject
        };
        self.telemetry.emit(now.as_nanos(), || Event::Admission {
            src: src.0,
            decision,
            loss_rate,
        });
        decision
    }

    /// Number of pools currently waiting.
    pub fn waiting_pools(&self) -> usize {
        self.wait_queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_sim::Bandwidth;

    fn cfg() -> TaqConfig {
        TaqConfig::for_link(Bandwidth::from_mbps(1)).with_admission_control()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn admits_below_threshold() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.02, t(0)), AdmissionDecision::Admit);
        assert_eq!(ac.admitted_pools, 1);
    }

    #[test]
    fn rejects_new_pools_above_threshold() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.2, t(0)), AdmissionDecision::Reject);
        assert_eq!(ac.waiting_pools(), 1);
        assert_eq!(ac.rejected_syns, 1);
    }

    #[test]
    fn admitted_pools_keep_their_commitment() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.02, t(0)), AdmissionDecision::Admit);
        // The same session's later connections are admitted even while
        // the loss rate is over threshold.
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(1)), AdmissionDecision::Admit);
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(2)), AdmissionDecision::Admit);
        assert_eq!(ac.admitted_pools, 1);
    }

    #[test]
    fn twait_guarantees_eventual_admission() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(0)), AdmissionDecision::Reject);
        // Retries before Twait elapse are still rejected.
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(1)), AdmissionDecision::Reject);
        // After Twait (3 s default) the pool is guaranteed admission.
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(4)), AdmissionDecision::Admit);
    }

    #[test]
    fn waiting_pools_admitted_oldest_first() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(0)), AdmissionDecision::Reject);
        assert_eq!(ac.on_syn(NodeId(2), 0.5, t(1)), AdmissionDecision::Reject);
        // Loss clears: the younger pool retries first but must wait for
        // the head of the line.
        assert_eq!(ac.on_syn(NodeId(2), 0.01, t(2)), AdmissionDecision::Reject);
        assert_eq!(ac.on_syn(NodeId(1), 0.01, t(2)), AdmissionDecision::Admit);
        assert_eq!(ac.on_syn(NodeId(2), 0.01, t(2)), AdmissionDecision::Admit);
        assert_eq!(ac.waiting_pools(), 0);
    }

    /// The admit threshold is `P_THRESH × P_THRESH_HEADROOM ≈ 0.09` and
    /// the comparison is strict: a loss rate epsilon below admits, the
    /// exact boundary rejects, epsilon above rejects. Each probe uses a
    /// fresh controller so the wait queue cannot mask the comparison.
    #[test]
    fn threshold_boundary_is_exclusive_from_both_sides() {
        let effective = P_THRESH * P_THRESH_HEADROOM;
        assert!((effective - 0.09).abs() < 1e-12);
        let probe = |loss: f64| AdmissionController::new(cfg()).on_syn(NodeId(1), loss, t(0));
        assert_eq!(probe(effective - 1e-9), AdmissionDecision::Admit);
        assert_eq!(
            probe(effective),
            AdmissionDecision::Reject,
            "boundary itself rejects: the comparison is strict"
        );
        assert_eq!(probe(effective + 1e-9), AdmissionDecision::Reject);
    }

    /// Crossing the threshold is hysteretic in both directions: an
    /// admitted pool is never re-evaluated while its session lives, and
    /// a rejected pool does not auto-admit when loss falls — it admits
    /// on its next SYN, from the head of the wait queue.
    #[test]
    fn threshold_crossings_are_hysteretic() {
        let mut ac = AdmissionController::new(cfg());
        // Below → above: the commitment holds at arbitrarily bad loss.
        assert_eq!(ac.on_syn(NodeId(1), 0.089, t(0)), AdmissionDecision::Admit);
        assert_eq!(ac.on_syn(NodeId(1), 0.091, t(1)), AdmissionDecision::Admit);
        assert_eq!(ac.on_syn(NodeId(1), 0.99, t(2)), AdmissionDecision::Admit);
        // Above → below: a waiting pool stays waiting until it re-SYNs.
        assert_eq!(ac.on_syn(NodeId(2), 0.091, t(2)), AdmissionDecision::Reject);
        assert_eq!(ac.waiting_pools(), 1);
        assert_eq!(ac.on_syn(NodeId(2), 0.089, t(3)), AdmissionDecision::Admit);
        assert_eq!(ac.waiting_pools(), 0);
        assert_eq!(ac.admitted_pools, 2);
    }

    /// Pool admit/evict ordering: an admitted pool whose session expires
    /// (evicted by the pool window) re-enters the wait queue *behind*
    /// pools already waiting — eviction does not let a source jump the
    /// line it once passed.
    #[test]
    fn evicted_pool_rejoins_the_wait_queue_behind_existing_waiters() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.01, t(0)), AdmissionDecision::Admit);
        // Pool 2 starts waiting while loss is high.
        assert_eq!(ac.on_syn(NodeId(2), 0.5, t(4)), AdmissionDecision::Reject);
        // Pool 1's session expires (silent past the pool window); its
        // next SYN under high loss is a new pool and queues behind 2.
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(10)), AdmissionDecision::Reject);
        assert_eq!(ac.waiting_pools(), 2);
        // Loss clears. Pool 1 retries first but is not head of line.
        assert_eq!(ac.on_syn(NodeId(1), 0.01, t(11)), AdmissionDecision::Reject);
        assert_eq!(ac.on_syn(NodeId(2), 0.01, t(11)), AdmissionDecision::Admit);
        assert_eq!(ac.on_syn(NodeId(1), 0.01, t(11)), AdmissionDecision::Admit);
        assert_eq!(ac.waiting_pools(), 0);
    }

    /// End-to-end across the meter: the measured loss rate crossing
    /// `p_thresh` upward flips new-pool decisions to reject, and the bad
    /// window rolling out flips them back to admit.
    #[test]
    fn meter_driven_decisions_cross_the_threshold_both_ways() {
        let mut ac = AdmissionController::new(cfg());
        let mut m = LossRateMeter::new(5, SimDuration::from_secs(1));
        // Clean traffic: ~2% loss, well under the threshold.
        for i in 0..100 {
            m.record(i % 50 == 0, t(0));
        }
        assert_eq!(
            ac.on_syn(NodeId(1), m.rate(t(0)), t(0)),
            AdmissionDecision::Admit
        );
        // Congestion spike pushes the windowed rate past 0.1.
        for _ in 0..100 {
            m.record(true, t(1));
        }
        let spiked = m.rate(t(1));
        assert!(spiked > 0.1, "rate {spiked}");
        assert_eq!(
            ac.on_syn(NodeId(2), spiked, t(1)),
            AdmissionDecision::Reject
        );
        // Clean seconds roll the spike out of the window; the waiting
        // pool's next SYN is admitted from the head of the line.
        for s in 2..=7u64 {
            for _ in 0..200 {
                m.record(false, t(s));
            }
        }
        let recovered = m.rate(t(7));
        assert!(recovered < 0.09, "rate {recovered}");
        assert_eq!(
            ac.on_syn(NodeId(2), recovered, t(7)),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn session_expiry_forms_new_pool() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.on_syn(NodeId(1), 0.01, t(0)), AdmissionDecision::Admit);
        // Ten seconds of silence: the next SYN is a new session, and the
        // loss rate is now too high.
        assert_eq!(ac.on_syn(NodeId(1), 0.5, t(10)), AdmissionDecision::Reject);
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let mut ac = AdmissionController::new(TaqConfig::for_link(Bandwidth::from_mbps(1)));
        assert_eq!(ac.on_syn(NodeId(1), 0.99, t(0)), AdmissionDecision::Admit);
        assert_eq!(ac.rejected_syns, 0);
    }

    #[test]
    fn loss_meter_windows_out_old_history() {
        let mut m = LossRateMeter::new(5, SimDuration::from_secs(1));
        // A terrible first second.
        for _ in 0..100 {
            m.record(true, t(0));
        }
        assert!(m.rate(t(0)) > 0.99);
        // Five clean seconds later the bad bucket has rolled out.
        for s in 1..=6u64 {
            for _ in 0..100 {
                m.record(false, t(s));
            }
        }
        assert!(m.rate(t(6)) < 0.01, "rate {}", m.rate(t(6)));
    }

    #[test]
    fn loss_meter_empty_is_zero() {
        let mut m = LossRateMeter::new(3, SimDuration::from_secs(1));
        assert_eq!(m.rate(t(5)), 0.0);
    }
}
