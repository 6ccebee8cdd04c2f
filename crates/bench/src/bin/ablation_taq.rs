//! Ablations: which of TAQ's mechanisms buy what.
//!
//! Runs the Figure 8/9 fairness scenario (60 flows, 600 Kbps) with
//! pieces of TAQ switched off or re-tuned:
//!
//! - plain-FQ mode (per-flow queueing + head-drop only, no
//!   timeout-aware classes);
//! - a sweep of the Recovery-queue rate cap (the paper's warning that
//!   naive retransmission prioritization is detrimental shows at the
//!   extremes);
//! - the baselines (DropTail, RED, SFQ) for reference, reproducing
//!   §2.4's observation that RED/SFQ ≈ DropTail here.
//!
//! Usage: `ablation_taq [--full]`

use taq::{TaqConfig, TaqPair};
use taq_bench::{fairness_run, Discipline, FairnessRunConfig, SweepArgs};
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

fn taq_variant_run(
    cfg_mod: impl FnOnce(&mut TaqConfig),
    rate: Bandwidth,
    flows: usize,
    duration: taq_sim::SimTime,
) -> (f64, f64) {
    let mut cfg = TaqConfig::for_link(rate);
    cfg_mod(&mut cfg);
    let pair = TaqPair::new(cfg);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let mut sc = DumbbellSpec::new(topo).build_with_reverse(
        42,
        Box::new(pair.forward),
        Box::new(pair.reverse),
    );
    let bottleneck = sc.db.bottleneck;
    let slices = sc.sim.add_monitor(Box::new(SliceThroughput::new(
        bottleneck,
        SimDuration::from_secs(20),
    )));
    let evo = sc.sim.add_monitor(Box::new(EvolutionTracker::new(
        bottleneck,
        SimDuration::from_secs(2),
    )));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
    sc.run_until(duration);
    let n_slices = (duration.as_nanos() / SimDuration::from_secs(20).as_nanos()) as usize;
    let jain = sc
        .sim
        .monitor::<SliceThroughput>(slices)
        .expect("slice monitor")
        .mean_jain(2, n_slices, flows);
    let series = sc
        .sim
        .monitor::<EvolutionTracker>(evo)
        .expect("evolution monitor")
        .series();
    let from = series.len() / 4;
    let (mut stalled, mut total) = (0usize, 0usize);
    for c in &series[from..] {
        stalled += c.stalled;
        total += c.total();
    }
    (jain, stalled as f64 / total.max(1) as f64)
}

fn main() {
    let duration = SweepArgs::parse(42).duration(300, 300, 1_000);
    let rate = Bandwidth::from_kbps(600);
    let flows = 60;

    println!("# TAQ ablations — 60 flows over 600 Kbps, 20 s-slice fairness");
    println!("# variant                      jain20  stalled_frac");

    // Baselines via the standard runner.
    for d in [
        Discipline::DropTail,
        Discipline::Red,
        Discipline::Sfq,
        Discipline::Taq,
        Discipline::TaqFq,
    ] {
        let cfg = FairnessRunConfig::new(42, rate, flows, duration);
        let r = fairness_run(&cfg, d);
        let stalled = r.evolution.stalled as f64
            / (r.evolution.maintained
                + r.evolution.dropped
                + r.evolution.arriving
                + r.evolution.stalled)
                .max(1) as f64;
        println!(
            "{:<30} {:>6.3} {:>13.3}",
            d.name(),
            r.short_term_jain,
            stalled
        );
    }

    // Recovery-cap sweep.
    for frac in [0.0, 0.1, 0.2, 0.35, 0.5] {
        let (jain, stalled) =
            taq_variant_run(|c| c.recovery_cap_fraction = frac, rate, flows, duration);
        println!(
            "{:<30} {jain:>6.3} {stalled:>13.3}",
            format!("taq recovery_cap={frac}")
        );
    }

    // NewFlow cap disabled (cap = whole buffer).
    let (jain, stalled) = taq_variant_run(
        |c| c.newflow_cap_pkts = c.buffer_pkts,
        rate,
        flows,
        duration,
    );
    println!("{:<30} {jain:>6.3} {stalled:>13.3}", "taq no-newflow-cap");
}
