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
//! Every row is one standard fairness run (`fairness_run`, or
//! `fairness_run_on` for a TAQ variant), so every row's stalled
//! fraction is the same exact sum-over-sum.
//!
//! Usage: `taq-bench ablation_taq [--full]`

use taq::{TaqConfig, TaqPair};
use taq_bench::{
    fairness_run, fairness_run_on, Discipline, FairnessRunConfig, FairnessRunResult, SweepArgs,
};
use taq_sim::Bandwidth;
use taq_workloads::BuiltPipe;

/// The TAQ pair of `cfg`'s link with `cfg_mod` applied to its
/// configuration.
fn taq_variant(cfg: &FairnessRunConfig, cfg_mod: impl FnOnce(&mut TaqConfig)) -> BuiltPipe {
    let mut taq = TaqConfig::for_link(cfg.rate);
    cfg_mod(&mut taq);
    let pair = TaqPair::new(taq);
    BuiltPipe {
        forward: Box::new(pair.forward),
        reverse: Box::new(pair.reverse),
        taq: Some(pair.state),
    }
}

pub fn run(args: SweepArgs) {
    let duration = args.duration(300, 300, 1_000);
    let cfg = FairnessRunConfig::new(args.seeds[0], Bandwidth::from_kbps(600), 60, duration);

    println!("# TAQ ablations — 60 flows over 600 Kbps, 20 s-slice fairness");
    println!("# variant                      jain20  stalled_frac");
    let row = |name: &str, r: FairnessRunResult| {
        println!(
            "{name:<30} {:>6.3} {:>13.3}",
            r.short_term_jain, r.stalled_fraction
        );
    };

    // Baselines via the standard runner.
    for d in [
        Discipline::DropTail,
        Discipline::Red,
        Discipline::Sfq,
        Discipline::Taq,
        Discipline::TaqFq,
    ] {
        row(d.name(), fairness_run(&cfg, d));
    }

    // Recovery-cap sweep.
    for frac in [0.0, 0.1, 0.2, 0.35, 0.5] {
        let built = taq_variant(&cfg, |c| c.recovery_cap_fraction = frac);
        row(
            &format!("taq recovery_cap={frac}"),
            fairness_run_on(&cfg, built),
        );
    }

    // NewFlow cap disabled (cap = whole buffer).
    let built = taq_variant(&cfg, |c| c.newflow_cap_pkts = c.buffer_pkts);
    row("taq no-newflow-cap", fairness_run_on(&cfg, built));
}
