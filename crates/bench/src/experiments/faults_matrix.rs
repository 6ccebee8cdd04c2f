//! Robustness matrix: fault intensity × queue discipline.
//!
//! Sweeps the deterministic fault-injection layer (`taq-faults`) over
//! the standard long-lived-flows fairness run: each row is one fault
//! intensity (from the clean link up to severe burst loss with
//! reordering, flapping, and bandwidth jitter), each discipline reports
//! short-term Jain fairness, utilization, shutout fraction, and the
//! number of injected faults. The per-run numbers come from the
//! telemetry layer: a `SummarySink` attached to each run aggregates the
//! emitted `fault` events, and its per-class counts are printed in the
//! trailing breakdown.
//!
//! Expected shape: TAQ's fairness degrades gracefully (bounded Jain
//! drop, no total shutouts) while DropTail's short-term fairness
//! collapses faster as faults intensify.
//!
//! Usage: `taq-bench faults_matrix [--seeds 1,2,3 | --runs N] [--threads N]
//! [--smoke | --full]`

use std::collections::BTreeMap;
use taq_bench::{fairness_run, sweep_cells, Discipline, FairnessRunConfig, SweepArgs};
use taq_faults::{FaultPlan, GilbertElliott};
use taq_sim::{Bandwidth, SimDuration, SimTime};
use taq_telemetry::{shared_sink, SummarySink, Telemetry};

/// One row of the matrix: a named fault intensity. The plan is built
/// per run because blackout windows and jitter need the horizon.
fn plan_for(intensity: &str, horizon: SimTime) -> FaultPlan {
    match intensity {
        "none" => FaultPlan::none(),
        "mild" => FaultPlan::none()
            .with_burst_loss(GilbertElliott::bursts(0.002, 4.0))
            .with_reorder(0.005, 3),
        "moderate" => FaultPlan::none()
            .with_burst_loss(GilbertElliott::bursts(0.01, 6.0))
            .with_reorder(0.02, 4)
            .with_duplicate(0.005)
            .with_rate_jitter(SimDuration::from_secs(2), 0.7, 1.2, horizon),
        "severe" => FaultPlan::none()
            .with_burst_loss(GilbertElliott::bursts(0.03, 8.0))
            .with_reorder(0.05, 5)
            .with_duplicate(0.01)
            .with_corrupt(0.01)
            .with_flaps(
                3,
                SimTime::from_secs(10),
                SimDuration::from_secs(15),
                SimDuration::from_millis(800),
            )
            .with_rate_jitter(SimDuration::from_secs(1), 0.5, 1.1, horizon),
        other => unreachable!("unknown intensity {other}"),
    }
}

/// One (intensity, discipline) cell, averaged over seeds.
struct Cell {
    jain: f64,
    util: f64,
    shutout: f64,
    faults: u64,
    /// Telemetry `fault` events per class, summed over seeds.
    breakdown: BTreeMap<&'static str, u64>,
}

pub fn run(args: SweepArgs) {
    let duration = args.duration(20, 120, 400);
    let flows = if args.smoke { 6 } else { 20 };
    let rate = Bandwidth::from_kbps(600);

    let intensities: &[&'static str] = if args.smoke {
        &["none", "severe"]
    } else {
        &["none", "mild", "moderate", "severe"]
    };
    let disciplines = [Discipline::DropTail, Discipline::Taq];

    // One work item per (intensity, discipline, seed); the sweep fans
    // the whole matrix across threads and merges in input order, so the
    // table is deterministic for a fixed seed list at any --threads.
    let grid: Vec<(&'static str, Discipline)> = intensities
        .iter()
        .flat_map(|&intensity| disciplines.map(|d| (intensity, d)))
        .collect();
    let runs = sweep_cells(&grid, &args.seeds, args.threads, |&(intensity, d), seed| {
        let telemetry = Telemetry::new();
        let (summary, sink) = shared_sink(SummarySink::new());
        telemetry.add_shared_sink(sink);
        let cfg = FairnessRunConfig::new(seed, rate, flows, duration)
            .faults(plan_for(intensity, duration))
            .telemetry(telemetry);
        let r = fairness_run(&cfg, d);
        let faults = summary.lock().unwrap().stats().faults;
        (r, faults)
    });

    // Average the per-seed runs into one cell per (intensity, discipline).
    let cells: Vec<Cell> = runs
        .iter()
        .map(|mine| {
            let n = mine.len() as f64;
            let mut breakdown = BTreeMap::new();
            for (k, c) in mine.iter().flat_map(|(_, faults)| faults) {
                *breakdown.entry(*k).or_insert(0) += c;
            }
            Cell {
                jain: mine.iter().map(|r| r.0.short_term_jain).sum::<f64>() / n,
                util: mine.iter().map(|r| r.0.utilization).sum::<f64>() / n,
                shutout: mine.iter().map(|r| r.0.shutout_fraction).sum::<f64>() / n,
                faults: mine
                    .iter()
                    .map(|r| r.0.fault_stats.as_ref().map_or(0, |f| f.total()))
                    .sum::<u64>()
                    / mine.len() as u64,
                breakdown,
            }
        })
        .collect();

    println!("# Robustness matrix — fault intensity x discipline");
    println!(
        "# {} flows at {} Kbps, {} s horizon, seeds {:?}, {} threads",
        flows,
        rate.bps() / 1_000,
        duration.as_secs_f64(),
        args.seeds,
        args.threads
    );
    println!("# intensity  discipline  jain_short  link_util  shutout  faults/run");
    for (&(intensity, d), c) in grid.iter().zip(&cells) {
        println!(
            "{:>10} {:>11} {:>11.3} {:>10.3} {:>8.3} {:>11}",
            intensity,
            d.name(),
            c.jain,
            c.util,
            c.shutout,
            c.faults
        );
    }
    println!("#");
    println!("# telemetry fault-event breakdown (summed over seeds):");
    for (&(intensity, d), c) in grid.iter().zip(&cells) {
        if c.breakdown.is_empty() {
            continue;
        }
        let detail: Vec<String> = c
            .breakdown
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        println!("# {:>10}/{:<9} {}", intensity, d.name(), detail.join(" "));
    }
}
