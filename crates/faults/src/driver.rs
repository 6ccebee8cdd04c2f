//! The [`FaultDriver`] agent: link-parameter faults.
//!
//! Per-packet faults live in the [`crate::FaultyLink`] qdisc wrapper;
//! changes to the link itself — bandwidth steps, propagation-delay
//! steps, and periodic jitter around the base rate — need a foothold
//! in simulated time, so they are applied by a node. The driver is a
//! normal [`Agent`] that schedules one timer per fault and mutates the
//! target link through [`Ctx::set_link_rate`] / [`Ctx::set_link_delay`],
//! which means the whole schedule is part of the deterministic event
//! order: a rate change at `t` affects exactly the serializations that
//! start at or after `t`, on every run with the same seed.

use crate::plan::{rng_for, salt, DelayStep, FaultPlan, JitterSpec, RateStep};
use crate::qdisc::SharedFaultStats;
use taq_sim::{Agent, Bandwidth, Ctx, LinkId, Packet, SimDuration, SimRng, SimTime};
use taq_telemetry::{Event, FaultKind, Telemetry};

// Timer-token namespaces. Schedule indices are added to the bases.
const TOKEN_RATE_STEP: u64 = 1_000_000;
const TOKEN_DELAY_STEP: u64 = 2_000_000;
const TOKEN_RATE_JITTER: u64 = 3_000_000;

/// An agent that applies a [`FaultPlan`]'s rate/delay schedules and
/// rate jitter to one link. Add it to the simulator with
/// [`taq_sim::Simulator::add_agent`] and arm it with
/// [`taq_sim::Simulator::schedule_start`] (its timers are set from
/// `on_start`); it sends no packets and ignores any it receives.
pub struct FaultDriver {
    link: LinkId,
    /// Telemetry link label (the sim-side `LinkId` index).
    label: u32,
    base_rate: Bandwidth,
    rate_schedule: Vec<RateStep>,
    delay_schedule: Vec<DelayStep>,
    rate_jitter: Option<JitterSpec>,
    rng: SimRng,
    stats: SharedFaultStats,
    telemetry: Telemetry,
}

impl FaultDriver {
    /// Builds a driver for `link` from the link-schedule half of
    /// `plan`, or `None` when the plan has no link-parameter faults.
    /// `base_rate` anchors the jitter factor. Jitter draws
    /// come from the `salt::JITTER` stream of `seed`.
    pub fn from_plan(
        plan: &FaultPlan,
        link: LinkId,
        base_rate: Bandwidth,
        seed: u64,
        telemetry: Telemetry,
        stats: SharedFaultStats,
    ) -> Option<Self> {
        if !plan.has_link_schedule() {
            return None;
        }
        let mut rate_schedule = plan.rate_schedule.clone();
        rate_schedule.sort_by_key(|s| s.at);
        let mut delay_schedule = plan.delay_schedule.clone();
        delay_schedule.sort_by_key(|s| s.at);
        Some(FaultDriver {
            link,
            label: link.0,
            base_rate,
            rate_schedule,
            delay_schedule,
            rate_jitter: plan.rate_jitter,
            rng: rng_for(seed, salt::JITTER),
            stats,
            telemetry,
        })
    }

    fn emit(&self, kind: FaultKind, value: f64, now: SimTime) {
        let link = self.label;
        self.telemetry.emit(now.as_nanos(), || Event::Fault {
            link,
            kind,
            packet: None,
            flow: None,
            value,
        });
    }

    fn apply_rate(&mut self, rate: Bandwidth, ctx: &mut Ctx<'_>) {
        ctx.set_link_rate(self.link, rate);
        self.stats.lock().unwrap().rate_changes += 1;
        self.emit(FaultKind::RateChange, rate.bps() as f64, ctx.now());
    }

    fn apply_delay(&mut self, delay: SimDuration, ctx: &mut Ctx<'_>) {
        ctx.set_link_delay(self.link, delay);
        self.stats.lock().unwrap().delay_changes += 1;
        self.emit(FaultKind::DelayChange, delay.as_nanos() as f64, ctx.now());
    }
}

impl Agent for FaultDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        for (i, step) in self.rate_schedule.iter().enumerate() {
            ctx.set_timer(step.at.saturating_since(now), TOKEN_RATE_STEP + i as u64);
        }
        for (i, step) in self.delay_schedule.iter().enumerate() {
            ctx.set_timer(step.at.saturating_since(now), TOKEN_DELAY_STEP + i as u64);
        }
        if let Some(j) = self.rate_jitter {
            ctx.set_timer(j.period, TOKEN_RATE_JITTER);
        }
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token {
            TOKEN_RATE_JITTER => {
                let j = self.rate_jitter.expect("jitter timer without spec");
                let factor = self.rng.range_f64(j.lo, j.hi);
                let bps = (self.base_rate.bps() as f64 * factor).max(1.0) as u64;
                self.apply_rate(Bandwidth::from_bps(bps), ctx);
                if ctx.now() + j.period <= j.until {
                    ctx.set_timer(j.period, TOKEN_RATE_JITTER);
                }
            }
            t if (TOKEN_RATE_STEP..TOKEN_DELAY_STEP).contains(&t) => {
                let step = self.rate_schedule[(t - TOKEN_RATE_STEP) as usize];
                self.apply_rate(step.rate, ctx);
            }
            t if (TOKEN_DELAY_STEP..TOKEN_RATE_JITTER).contains(&t) => {
                let step = self.delay_schedule[(t - TOKEN_DELAY_STEP) as usize];
                self.apply_delay(step.delay, ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qdisc::shared_fault_stats;
    use taq_sim::{NodeId, Simulator, UnboundedFifo};

    fn line_with_driver(plan: &FaultPlan) -> (Simulator, LinkId, SharedFaultStats) {
        struct Sink;
        impl Agent for Sink {
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_agent(Box::new(Sink));
        let b = sim.add_agent(Box::new(Sink));
        let rate = Bandwidth::from_kbps(800);
        let delay = SimDuration::from_millis(10);
        let link = sim.add_link(a, b, rate, delay, Box::new(UnboundedFifo::new()));
        let stats = shared_fault_stats();
        let driver =
            FaultDriver::from_plan(plan, link, rate, 7, Telemetry::disabled(), stats.clone())
                .expect("plan has link schedule");
        let node = sim.add_agent(Box::new(driver));
        sim.schedule_start(node, SimTime::ZERO);
        (sim, link, stats)
    }

    #[test]
    fn no_schedule_no_driver() {
        assert!(FaultDriver::from_plan(
            &FaultPlan::none(),
            LinkId(0),
            Bandwidth::from_kbps(1),
            1,
            Telemetry::disabled(),
            shared_fault_stats(),
        )
        .is_none());
        let _ = NodeId(0);
    }

    #[test]
    fn scheduled_steps_apply_at_their_times() {
        let plan = FaultPlan::none()
            .with_rate_step(SimTime::from_secs(1), Bandwidth::from_kbps(100))
            .with_delay_step(SimTime::from_secs(2), SimDuration::from_millis(50));
        let (mut sim, link, stats) = line_with_driver(&plan);
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.link_rate(link), Bandwidth::from_kbps(800));
        sim.run_until(SimTime::from_millis(1_500));
        assert_eq!(sim.link_rate(link), Bandwidth::from_kbps(100));
        assert_eq!(sim.link_delay(link), SimDuration::from_millis(10));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.link_delay(link), SimDuration::from_millis(50));
        let s = stats.lock().unwrap();
        assert_eq!(s.rate_changes, 1);
        assert_eq!(s.delay_changes, 1);
    }

    #[test]
    fn jitter_redraws_until_horizon_then_stops() {
        let plan = FaultPlan::none().with_rate_jitter(
            SimDuration::from_millis(100),
            0.5,
            1.5,
            SimTime::from_secs(1),
        );
        let (mut sim, link, stats) = line_with_driver(&plan);
        sim.run_until(SimTime::from_secs(5));
        let changes = stats.lock().unwrap().rate_changes;
        // Ticks at 100ms..=1s, then the chain stops: 10 redraws.
        assert_eq!(changes, 10);
        let final_rate = sim.link_rate(link);
        let base = Bandwidth::from_kbps(800).bps() as f64;
        let bps = final_rate.bps() as f64;
        assert!(bps >= 0.5 * base && bps < 1.5 * base, "rate {bps}");
    }

    #[test]
    fn jitter_trace_is_seed_deterministic() {
        let plan = FaultPlan::none().with_rate_jitter(
            SimDuration::from_millis(100),
            0.8,
            1.2,
            SimTime::from_secs(2),
        );
        let run = || {
            let (mut sim, link, _stats) = line_with_driver(&plan);
            let mut rates = Vec::new();
            for ms in (0..2_000).step_by(250) {
                sim.run_until(SimTime::from_millis(ms));
                rates.push(sim.link_rate(link));
            }
            rates
        };
        assert_eq!(run(), run());
    }
}
