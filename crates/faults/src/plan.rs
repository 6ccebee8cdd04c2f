//! Composable fault recipes.
//!
//! A [`FaultPlan`] is plain data: which fault classes are active on one
//! link and with what parameters. It is `Clone + Send` so it can ride
//! inside a scenario spec (e.g. `DumbbellSpec`) across the sweep
//! runner's worker threads, and it carries *no* RNG state — randomness
//! is derived at build time from the run seed, one independent stream
//! per fault source (see [`rng_for`]), so enabling one fault class never
//! perturbs the variates another class sees.

use crate::gilbert::GilbertElliott;
use taq_sim::{Bandwidth, SimDuration, SimRng, SimTime};

/// Per-source stream salts for [`rng_for`]. Each fault source draws
/// from `SimRng::new(seed).split(SALT)`, so the streams are pairwise
/// independent and adding a source to a plan leaves every other
/// source's trace byte-identical.
pub mod salt {
    /// Gilbert–Elliott burst-loss chain.
    pub const BURST_LOSS: u64 = 0xB0B5_7105;
    /// Reorder hold-back decisions.
    pub const REORDER: u64 = 0x02E0_2DE2;
    /// Duplication coin flips.
    pub const DUPLICATE: u64 = 0x00D0_9915;
    /// Bit-corruption coin flips.
    pub const CORRUPT: u64 = 0x00C0_22F7;
    /// Rate/delay jitter draws in the fault driver.
    pub const JITTER: u64 = 0x0071_77E2;
}

/// Derives the deterministic RNG stream for one fault source of one
/// run. Pure function of `(seed, salt)`: the same plan replays the
/// same trace on any thread, in any sweep order.
pub fn rng_for(seed: u64, salt: u64) -> SimRng {
    SimRng::new(seed).split(salt)
}

/// Hold back packets to force reordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Probability that an arriving packet is held back.
    pub prob: f64,
    /// How many subsequent packets overtake the held one before it is
    /// re-offered to the queue.
    pub depth: u32,
}

/// A window during which the link is dead: every arriving packet is
/// dropped at ingress. Several windows model link flapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    pub start: SimTime,
    pub end: SimTime,
}

impl Blackout {
    /// `true` if `now` falls inside the window (`start` inclusive,
    /// `end` exclusive).
    pub fn contains(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// A scheduled bandwidth change applied by the fault driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateStep {
    pub at: SimTime,
    pub rate: Bandwidth,
}

/// A scheduled propagation-delay change applied by the fault driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayStep {
    pub at: SimTime,
    pub delay: SimDuration,
}

/// Periodic multiplicative jitter around the link's base rate: every
/// `period` the driver redraws a factor uniformly from `[lo, hi)` and
/// applies `base * factor`, until `until`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterSpec {
    pub period: SimDuration,
    pub lo: f64,
    pub hi: f64,
    /// Jitter stops rescheduling at this time so a bounded run's event
    /// queue drains. Use the scenario horizon.
    pub until: SimTime,
}

/// The full fault recipe for one link. `Default` is the clean link —
/// every field off — so specs can carry a `FaultPlan` unconditionally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Burst-correlated loss at ingress.
    pub burst_loss: Option<GilbertElliott>,
    /// Hold-back reordering.
    pub reorder: Option<ReorderSpec>,
    /// Probability an accepted packet is enqueued twice.
    pub duplicate_prob: f64,
    /// Probability a packet is corrupted in flight; the receiver-side
    /// checksum would discard it, so the wrapper drops it at ingress.
    pub corrupt_prob: f64,
    /// Dead windows (link flaps). Need not be sorted.
    pub blackouts: Vec<Blackout>,
    /// Scheduled bandwidth changes. Need not be sorted.
    pub rate_schedule: Vec<RateStep>,
    /// Scheduled propagation-delay changes. Need not be sorted.
    pub delay_schedule: Vec<DelayStep>,
    /// Periodic multiplicative bandwidth jitter.
    pub rate_jitter: Option<JitterSpec>,
}

impl FaultPlan {
    /// The clean plan: inject nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Enables Gilbert–Elliott burst loss.
    pub fn with_burst_loss(mut self, ge: GilbertElliott) -> Self {
        self.burst_loss = Some(ge);
        self
    }

    /// Enables hold-back reordering.
    pub fn with_reorder(mut self, prob: f64, depth: u32) -> Self {
        self.reorder = Some(ReorderSpec { prob, depth });
        self
    }

    /// Enables packet duplication.
    pub fn with_duplicate(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Enables bit corruption (checksum drops).
    pub fn with_corrupt(mut self, prob: f64) -> Self {
        self.corrupt_prob = prob;
        self
    }

    /// Adds one dead window.
    pub fn with_blackout(mut self, start: SimTime, end: SimTime) -> Self {
        self.blackouts.push(Blackout { start, end });
        self
    }

    /// Adds `count` evenly spaced dead windows of length `down`,
    /// starting at `first` and repeating every `period` — a flapping
    /// link.
    pub fn with_flaps(
        mut self,
        count: u32,
        first: SimTime,
        period: SimDuration,
        down: SimDuration,
    ) -> Self {
        for i in 0..u64::from(count) {
            let start = SimTime::from_nanos(first.as_nanos() + i * period.as_nanos());
            let end = start + down;
            self.blackouts.push(Blackout { start, end });
        }
        self
    }

    /// Adds one scheduled bandwidth change.
    pub fn with_rate_step(mut self, at: SimTime, rate: Bandwidth) -> Self {
        self.rate_schedule.push(RateStep { at, rate });
        self
    }

    /// Adds one scheduled delay change.
    pub fn with_delay_step(mut self, at: SimTime, delay: SimDuration) -> Self {
        self.delay_schedule.push(DelayStep { at, delay });
        self
    }

    /// Enables periodic bandwidth jitter.
    pub fn with_rate_jitter(
        mut self,
        period: SimDuration,
        lo: f64,
        hi: f64,
        until: SimTime,
    ) -> Self {
        self.rate_jitter = Some(JitterSpec {
            period,
            lo,
            hi,
            until,
        });
        self
    }

    /// `true` when nothing is enabled — the clean link.
    pub fn is_none(&self) -> bool {
        !self.has_packet_faults() && !self.has_link_schedule()
    }

    /// `true` when any per-packet fault (loss, reorder, duplicate,
    /// corrupt, blackout) is active, i.e. the qdisc wrapper is needed.
    pub fn has_packet_faults(&self) -> bool {
        self.burst_loss.is_some()
            || self.reorder.is_some()
            || self.duplicate_prob > 0.0
            || self.corrupt_prob > 0.0
            || !self.blackouts.is_empty()
    }

    /// `true` when any link-parameter fault (rate/delay steps or
    /// jitter) is active, i.e. the fault driver agent is needed.
    pub fn has_link_schedule(&self) -> bool {
        !self.rate_schedule.is_empty()
            || !self.delay_schedule.is_empty()
            || self.rate_jitter.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_clean() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!plan.has_packet_faults());
        assert!(!plan.has_link_schedule());
    }

    #[test]
    fn builders_flip_the_right_predicates() {
        let packet = FaultPlan::none().with_corrupt(0.01);
        assert!(packet.has_packet_faults());
        assert!(!packet.has_link_schedule());
        let link =
            FaultPlan::none().with_rate_step(SimTime::from_secs(1), Bandwidth::from_kbps(64));
        assert!(!link.has_packet_faults());
        assert!(link.has_link_schedule());
    }

    #[test]
    fn flaps_generate_disjoint_windows() {
        let plan = FaultPlan::none().with_flaps(
            3,
            SimTime::from_secs(1),
            SimDuration::from_secs(10),
            SimDuration::from_millis(500),
        );
        assert_eq!(plan.blackouts.len(), 3);
        assert!(plan.blackouts[0].contains(SimTime::from_millis(1_200)));
        assert!(!plan.blackouts[0].contains(SimTime::from_millis(1_600)));
        assert!(plan.blackouts[2].contains(SimTime::from_millis(21_100)));
    }

    #[test]
    fn blackout_bounds_are_start_inclusive_end_exclusive() {
        let b = Blackout {
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
        };
        assert!(b.contains(SimTime::from_secs(1)));
        assert!(!b.contains(SimTime::from_secs(2)));
    }

    #[test]
    fn rng_streams_are_independent_per_salt() {
        let mut a = rng_for(99, salt::BURST_LOSS);
        let mut b = rng_for(99, salt::CORRUPT);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
        // And reproducible.
        let mut a2 = rng_for(99, salt::BURST_LOSS);
        let mut a3 = rng_for(99, salt::BURST_LOSS);
        assert_eq!(a2.next_u64(), a3.next_u64());
    }
}
