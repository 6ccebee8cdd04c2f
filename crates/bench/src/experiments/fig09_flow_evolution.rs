//! Figure 9: flow evolution (Arriving / Dropped / Maintained / Stalled)
//! under DropTail vs TAQ.
//!
//! Runs long-lived flows over a 600 Kbps bottleneck and classifies each
//! flow per 2-second window by its activity transition. Expected shape:
//! under TAQ the Stalled count collapses (repetitive timeouts nearly
//! eliminated) and Maintained grows, with far fewer Dropped/Arriving
//! transitions — the "smoother evolution" of Figure 9b.
//!
//! The paper's headline setting is 180 flows; with RFC-6298-compliant
//! 1 s minimum RTOs that point is past the breaking point where the
//! paper itself prescribes admission control, so both 90 (default) and
//! 180 (`--extreme`) are provided.
//!
//! Usage: `taq-bench fig09_flow_evolution [--full] [--extreme]`

use taq_bench::{fairness_run, Discipline, FairnessRunConfig, SweepArgs};
use taq_sim::Bandwidth;

pub fn run(args: SweepArgs) {
    let flows = if args.has("--extreme") { 180 } else { 90 };
    let duration = args.duration(300, 300, 1_100);
    let rate = Bandwidth::from_kbps(600);

    println!("# Figure 9 reproduction — flow evolution, {flows} flows over 600 Kbps");
    println!("# mean per-2s-window counts over the steady phase");
    println!("# discipline  maintained  dropped  arriving  stalled  jain20");
    for d in [Discipline::DropTail, Discipline::Taq] {
        let cfg = FairnessRunConfig::new(args.seeds[0], rate, flows, duration);
        let r = fairness_run(&cfg, d);
        println!(
            "{:>11} {:>11} {:>8} {:>9} {:>8} {:>7.3}",
            d.name(),
            r.evolution.maintained,
            r.evolution.dropped,
            r.evolution.arriving,
            r.evolution.stalled,
            r.short_term_jain
        );
    }
}
