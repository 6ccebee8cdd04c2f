//! # taq-bench — the experiment harness
//!
//! One binary, `taq-bench <experiment>`, runs every figure of the
//! paper's evaluation (see `src/main.rs`). Performance is measured
//! elsewhere, by the repo benchmark (`benchmark/`). This library holds
//! the shared pieces: the [`Discipline`] names (each maps onto a
//! `taq_workloads::QdiscSpec`, the one place disciplines are built),
//! the standard fairness run used by Figures 2/3/8/9 and the Figure 2/8
//! grid of them, the telemetry-report scenario, the parallel sweep
//! runner and the [`SweepArgs`] CLI parser.
//!
//! An experiment builds its scenario with one call:
//!
//! ```
//! use taq_bench::Discipline;
//! use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
//! use taq_workloads::DumbbellSpec;
//!
//! let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600));
//! let qdisc = Discipline::Taq.spec(topo.buffer_pkts());
//! let mut sc = DumbbellSpec::new(topo).build(42, &qdisc);
//! sc.add_bulk_clients(4, 20_000, SimDuration::from_secs(1));
//! sc.run_until(SimTime::from_secs(5));
//! assert!(sc.sim.link_stats(sc.db.bottleneck).transmitted_pkts > 0);
//! assert!(sc.taq_state(0).expect("TAQ state").lock().unwrap().stats.offered > 0);
//! ```
//!
//! Every experiment prints the same rows/series its figure plots,
//! prefixed with `#`-comment headers, so outputs can be piped into a
//! plotting tool directly. Most accept `--full` for paper-scale
//! durations (parsed once, by [`SweepArgs`]) and default to shorter
//! runs with the same shape.

mod fluid;
mod report;
mod sweep;

pub use fluid::{
    bernoulli_wire_run, compare_to_coupled_fluid, compare_to_fluid, coupled_fluid_model,
    droptail_coupled_run, fluid_family, fluid_horizon_epochs, fluid_run, FluidComparison,
    WireObservation, FLUID_EPOCH_MS, FLUID_LADDER_MS, FLUID_MAX_BACKOFF, FLUID_STAGGER_MS,
    FLUID_WMAX,
};
pub use report::{telemetry_report, DisciplineReport, TelemetryReport, TelemetryReportConfig};
pub use sweep::{default_threads, mean, sweep_cells, sweep_indexed, sweep_seeds, SweepArgs};

use taq_faults::{FaultPlan, FaultStats};
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_tcp::TcpConfig;
use taq_workloads::{
    flows_for_fair_share, BuiltPipe, DumbbellScenario, DumbbellSpec, QdiscSpec, BULK_BYTES,
};

/// The disciplines the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Tail-drop FIFO (the paper's DT baseline).
    DropTail,
    /// Random Early Detection.
    Red,
    /// Stochastic Fairness Queueing.
    Sfq,
    /// Timeout Aware Queuing.
    Taq,
    /// TAQ with admission control enabled.
    TaqAdmission,
    /// Ablation: TAQ as FQ + Recovery (`TaqConfig::fq_mode`).
    TaqFq,
}

impl Discipline {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Discipline> {
        match s {
            "droptail" | "dt" => Some(Discipline::DropTail),
            "red" => Some(Discipline::Red),
            "sfq" => Some(Discipline::Sfq),
            "taq" => Some(Discipline::Taq),
            "taq-admission" => Some(Discipline::TaqAdmission),
            "taq-fq" => Some(Discipline::TaqFq),
            _ => None,
        }
    }

    /// Display name used in output tables.
    pub fn name(self) -> &'static str {
        match self {
            Discipline::DropTail => "droptail",
            Discipline::Red => "red",
            Discipline::Sfq => "sfq",
            Discipline::Taq => "taq",
            Discipline::TaqAdmission => "taq-admission",
            Discipline::TaqFq => "taq-fq",
        }
    }

    /// The buildable [`QdiscSpec`] for this discipline with
    /// `buffer_pkts` of buffering.
    pub fn spec(self, buffer_pkts: usize) -> QdiscSpec {
        match self {
            Discipline::DropTail => QdiscSpec::DropTail { buffer_pkts },
            Discipline::Red => QdiscSpec::Red { buffer_pkts },
            Discipline::Sfq => QdiscSpec::Sfq { buffer_pkts },
            Discipline::Taq => QdiscSpec::taq(buffer_pkts),
            Discipline::TaqAdmission => QdiscSpec::taq_admission(buffer_pkts),
            Discipline::TaqFq => QdiscSpec::Taq {
                buffer_pkts,
                admission: false,
                fq_mode: true,
            },
        }
    }
}

/// Parameters of the standard long-lived-flows fairness run.
#[derive(Debug, Clone)]
pub struct FairnessRunConfig {
    /// RNG seed.
    pub seed: u64,
    /// Bottleneck rate.
    pub rate: Bandwidth,
    /// Number of long-lived flows.
    pub flows: usize,
    /// Bottleneck buffer in packets.
    pub buffer_pkts: usize,
    /// Simulated duration.
    pub duration: SimTime,
    /// Fairness slice length (the paper uses 20 s).
    pub slice: SimDuration,
    /// Evolution-tracker window.
    pub evolution_window: SimDuration,
    /// Faults injected on the bottleneck (defaults to the clean link).
    pub faults: FaultPlan,
    /// Telemetry handle handed to the fault layer (fault injections
    /// emit events). Defaults to disabled.
    pub telemetry: taq_telemetry::Telemetry,
    /// TCP parameters of every host (defaults to `TcpConfig::default()`,
    /// as `DumbbellSpec::new` has them).
    pub tcp: TcpConfig,
}

impl FairnessRunConfig {
    /// The canonical setup: one RTT of buffer, 20 s slices, 2 s
    /// evolution windows.
    pub fn new(seed: u64, rate: Bandwidth, flows: usize, duration: SimTime) -> Self {
        FairnessRunConfig {
            seed,
            rate,
            flows,
            buffer_pkts: DumbbellConfig::with_rtt_200ms(rate).buffer_pkts(),
            duration,
            slice: SimDuration::from_secs(20),
            evolution_window: SimDuration::from_secs(2),
            faults: FaultPlan::none(),
            telemetry: taq_telemetry::Telemetry::disabled(),
            tcp: TcpConfig::default(),
        }
    }

    /// Replaces the fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the telemetry handle.
    #[must_use]
    pub fn telemetry(mut self, telemetry: taq_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the TCP parameters.
    #[must_use]
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.tcp = tcp;
        self
    }
}

/// One cell of the grid Figures 2 and 8 sweep: a bottleneck rate and
/// the flow count that gives each flow `share_bps` of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessCell {
    /// Bottleneck rate in kbps.
    pub rate_kbps: u64,
    /// Ideal per-flow fair share in bits per second.
    pub share_bps: u64,
    /// Long-lived flows sharing the bottleneck.
    pub flows: usize,
}

/// The Figure 2 / Figure 8 grid in row order: capacities 200–1000 kbps
/// × fair shares 2–50 kbps, keeping the cells of 4 to 400 flows.
pub fn fairness_grid() -> Vec<FairnessCell> {
    const RATES_KBPS: [u64; 5] = [200, 400, 600, 800, 1_000];
    const SHARES_BPS: [u64; 7] = [2_000, 5_000, 10_000, 15_000, 20_000, 30_000, 50_000];
    let mut grid = Vec::new();
    for rate_kbps in RATES_KBPS {
        for share_bps in SHARES_BPS {
            let flows = flows_for_fair_share(Bandwidth::from_kbps(rate_kbps), share_bps);
            if (4..=400).contains(&flows) {
                grid.push(FairnessCell {
                    rate_kbps,
                    share_bps,
                    flows,
                });
            }
        }
    }
    grid
}

/// Results of a fairness run.
#[derive(Debug)]
pub struct FairnessRunResult {
    /// Mean Jain index over slices (startup transient excluded).
    pub short_term_jain: f64,
    /// Jain index of whole-run totals.
    pub long_term_jain: f64,
    /// Link utilization over the run.
    pub utilization: f64,
    /// Measured drop rate at the bottleneck.
    pub drop_rate: f64,
    /// Mean per-window evolution counts over the steady half.
    pub evolution: taq_metrics::EvolutionCounts,
    /// Stalled flow-windows over all flow-windows of the steady half:
    /// exact sums, not the ratio of `evolution`'s integer means.
    pub stalled_fraction: f64,
    /// Mean fraction of flows completely silent per slice.
    pub shutout_fraction: f64,
    /// Fault-injection counters, when the run had a fault plan.
    pub fault_stats: Option<FaultStats>,
}

/// Runs `flows` long-lived flows through `discipline` and measures
/// fairness, utilization and flow evolution.
pub fn fairness_run(cfg: &FairnessRunConfig, discipline: Discipline) -> FairnessRunResult {
    let qdisc = discipline.spec(cfg.buffer_pkts);
    measure_fairness(cfg, fairness_spec(cfg).build(cfg.seed, &qdisc))
}

/// [`fairness_run`] through disciplines built by the caller (a TAQ
/// variant, say); `cfg.buffer_pkts` is then the caller's to honour.
pub fn fairness_run_on(cfg: &FairnessRunConfig, built: BuiltPipe) -> FairnessRunResult {
    let sc = fairness_spec(cfg).build_with_reverse(cfg.seed, built.forward, built.reverse);
    measure_fairness(cfg, sc)
}

fn fairness_spec(cfg: &FairnessRunConfig) -> DumbbellSpec {
    DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(cfg.rate))
        .faults(cfg.faults.clone())
        .telemetry(cfg.telemetry.clone())
        .tcp(cfg.tcp.clone())
}

fn measure_fairness(cfg: &FairnessRunConfig, mut sc: DumbbellScenario) -> FairnessRunResult {
    let bottleneck = sc.db.bottleneck;
    let slices_id = sc
        .sim
        .add_monitor(Box::new(SliceThroughput::new(bottleneck, cfg.slice)));
    let evo_id = sc.sim.add_monitor(Box::new(EvolutionTracker::new(
        bottleneck,
        cfg.evolution_window,
    )));
    sc.add_bulk_clients(cfg.flows, BULK_BYTES, SimDuration::from_secs(2));
    sc.run_until(cfg.duration);

    let n_slices = (cfg.duration.as_nanos() / cfg.slice.as_nanos()) as usize;
    let skip = 2.min(n_slices.saturating_sub(1));
    let slices = sc
        .sim
        .monitor::<SliceThroughput>(slices_id)
        .expect("slice monitor");
    let short_term_jain = slices.mean_jain(skip, n_slices, cfg.flows);
    let long_term_jain = slices.overall_jain(cfg.flows);
    let shutout_fraction = mean((skip..n_slices).map(|i| slices.shutout_fraction(i, cfg.flows)));

    let evo = sc
        .sim
        .monitor::<EvolutionTracker>(evo_id)
        .expect("evolution monitor");
    let series = evo.series();
    let from = series.len() / 4;
    let mut sum = taq_metrics::EvolutionCounts::default();
    for c in &series[from..] {
        sum.maintained += c.maintained;
        sum.dropped += c.dropped;
        sum.arriving += c.arriving;
        sum.stalled += c.stalled;
    }
    let stalled_fraction = sum.stalled as f64 / sum.total().max(1) as f64;
    let evolution = match series.len() - from {
        0 => taq_metrics::EvolutionCounts::default(),
        n => taq_metrics::EvolutionCounts {
            maintained: sum.maintained / n,
            dropped: sum.dropped / n,
            arriving: sum.arriving / n,
            stalled: sum.stalled / n,
        },
    };

    let stats = sc.sim.link_stats(bottleneck);
    FairnessRunResult {
        short_term_jain,
        long_term_jain,
        utilization: stats.utilization(cfg.duration.saturating_since(SimTime::ZERO)),
        drop_rate: stats.drop_rate(),
        evolution,
        stalled_fraction,
        shutout_fraction,
        fault_stats: sc.fault_stats().map(|s| s.lock().unwrap().clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discipline_parsing() {
        assert_eq!(Discipline::parse("dt"), Some(Discipline::DropTail));
        assert_eq!(Discipline::parse("taq"), Some(Discipline::Taq));
        assert_eq!(
            Discipline::parse("taq-admission"),
            Some(Discipline::TaqAdmission)
        );
        assert_eq!(Discipline::parse("bogus"), None);
        assert_eq!(Discipline::Red.name(), "red");
    }

    #[test]
    fn build_all_disciplines() {
        let rate = Bandwidth::from_kbps(600);
        for d in [
            Discipline::DropTail,
            Discipline::Red,
            Discipline::Sfq,
            Discipline::Taq,
            Discipline::TaqAdmission,
            Discipline::TaqFq,
        ] {
            let b = d.spec(30).build(rate, 1);
            assert_eq!(b.forward.len(), 0);
            assert_eq!(
                b.taq.is_some(),
                matches!(
                    d,
                    Discipline::Taq | Discipline::TaqAdmission | Discipline::TaqFq
                )
            );
        }
    }

    #[test]
    fn short_fairness_run_produces_sane_numbers() {
        let cfg = FairnessRunConfig::new(3, Bandwidth::from_kbps(400), 10, SimTime::from_secs(60));
        let r = fairness_run(&cfg, Discipline::DropTail);
        assert!((0.0..=1.0).contains(&r.short_term_jain));
        assert!((0.0..=1.0).contains(&r.long_term_jain));
        assert!(r.utilization > 0.5, "util {}", r.utilization);
        assert!(r.drop_rate > 0.0, "contention causes drops");
    }

    /// Two builds of one Fig. 8 cell (200 kbps, 10 kbps fair share)
    /// agree on the Jain indices to the last bit: the slice maps
    /// iterate in an order the input alone decides.
    #[test]
    fn fairness_cell_jain_repeats_bit_for_bit() {
        let cell = fairness_grid()
            .into_iter()
            .find(|c| (c.rate_kbps, c.share_bps) == (200, 10_000))
            .expect("a Fig. 8 cell");
        let rate = Bandwidth::from_kbps(cell.rate_kbps);
        let cfg = FairnessRunConfig::new(42, rate, cell.flows, SimTime::from_secs(60));
        let bits = || {
            let r = fairness_run(&cfg, Discipline::Taq);
            (r.short_term_jain.to_bits(), r.long_term_jain.to_bits())
        };
        assert_eq!(bits(), bits());
    }
}
