//! Figure 8: short-term Jain fairness vs per-flow fair share under TAQ.
//!
//! The same sweep as Figure 2 with TAQ on the bottleneck. Expected
//! shape: TAQ's 20-second-slice Jain index beats DropTail across the
//! entire spectrum and sits mostly above 0.8, with link utilization
//! still ≈ 1.
//!
//! Usage: `taq-bench fig08_fairness_taq [--full] [--threads N]`

use taq_bench::{
    fairness_grid, fairness_run, sweep_indexed, Discipline, FairnessRunConfig, SweepArgs,
};
use taq_sim::Bandwidth;

pub fn run(args: SweepArgs) {
    let duration = args.duration(300, 300, 2_000);

    println!("# Figure 8 reproduction — TAQ short-term fairness (20 s slices)");
    println!("# rate_kbps  flows  fair_share_bps  jain_taq  jain_droptail  util_taq");
    let rows = sweep_indexed(&fairness_grid(), args.threads, |_, cell| {
        let rate = Bandwidth::from_kbps(cell.rate_kbps);
        let cfg = FairnessRunConfig::new(args.seeds[0], rate, cell.flows, duration);
        let taq = fairness_run(&cfg, Discipline::Taq);
        let dt = fairness_run(&cfg, Discipline::DropTail);
        format!(
            "{:>10} {:>6} {:>15} {:>9.3} {:>13.3} {:>8.3}",
            cell.rate_kbps,
            cell.flows,
            cell.share_bps,
            taq.short_term_jain,
            dt.short_term_jain,
            taq.utilization
        )
    });
    for row in rows {
        println!("{row}");
    }
}
