//! Figure 2: long- and short-term Jain fairness vs per-flow fair share
//! under DropTail.
//!
//! Sweeps bottleneck capacity (200–1000 Kbps) and flow count so the
//! ideal fair share spans ~2–50 Kbps; for each point reports the mean
//! Jain index over 20-second slices and (for the capacities the paper
//! plots long-term) the whole-run Jain index. Expected shape: long-term
//! fairness stays high; short-term fairness collapses as the fair share
//! drops below ~30 Kbps (≈3 packets/RTT).
//!
//! Usage: `taq-bench fig02_fairness_droptail [--full] [--threads N]
//! [discipline]`
//! — the optional discipline (droptail|red|sfq) reproduces §2.4's
//! observation that RED and SFQ behave like DropTail here.

use taq_bench::{
    fairness_grid, fairness_run, sweep_indexed, Discipline, FairnessRunConfig, SweepArgs,
};
use taq_sim::Bandwidth;

pub fn run(args: SweepArgs) {
    let discipline = args.discipline.unwrap_or(Discipline::DropTail);
    // Short runs keep the 20 s slice count meaningful; --full matches
    // the paper's scale.
    let duration = args.duration(300, 300, 2_000);

    println!(
        "# Figure 2 reproduction — discipline: {}",
        discipline.name()
    );
    println!("# short-term = mean Jain over 20 s slices; long-term = whole-run Jain");
    println!("# rate_kbps  flows  fair_share_bps  jain_short  jain_long  util  drop_rate");
    let rows = sweep_indexed(&fairness_grid(), args.threads, |_, cell| {
        let rate = Bandwidth::from_kbps(cell.rate_kbps);
        let cfg = FairnessRunConfig::new(args.seeds[0], rate, cell.flows, duration);
        let r = fairness_run(&cfg, discipline);
        format!(
            "{:>10} {:>6} {:>15} {:>11.3} {:>10.3} {:>5.3} {:>9.3}",
            cell.rate_kbps,
            cell.flows,
            cell.share_bps,
            r.short_term_jain,
            r.long_term_jain,
            r.utilization,
            r.drop_rate
        )
    });
    for row in rows {
        println!("{row}");
    }
}
