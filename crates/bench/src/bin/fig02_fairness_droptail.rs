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
//! Usage: `fig02_fairness_droptail [--full] [discipline]` — the
//! optional discipline (droptail|red|sfq) reproduces §2.4's observation
//! that RED and SFQ behave like DropTail here.

use taq_bench::{fairness_run, Discipline, FairnessRunConfig, SweepArgs};
use taq_sim::Bandwidth;
use taq_workloads::flows_for_fair_share;

fn main() {
    let discipline = std::env::args()
        .skip(1)
        .find_map(|a| Discipline::parse(&a))
        .unwrap_or(Discipline::DropTail);
    // Short runs keep the 20 s slice count meaningful; --full matches
    // the paper's scale.
    let duration = SweepArgs::parse(42).duration(300, 300, 2_000);
    let shares_bps: [u64; 7] = [2_000, 5_000, 10_000, 15_000, 20_000, 30_000, 50_000];
    let rates_kbps: [u64; 5] = [200, 400, 600, 800, 1_000];

    println!(
        "# Figure 2 reproduction — discipline: {}",
        discipline.name()
    );
    println!("# short-term = mean Jain over 20 s slices; long-term = whole-run Jain");
    println!("# rate_kbps  flows  fair_share_bps  jain_short  jain_long  util  drop_rate");
    for rate_kbps in rates_kbps {
        let rate = Bandwidth::from_kbps(rate_kbps);
        for share in shares_bps {
            let flows = flows_for_fair_share(rate, share);
            if !(4..=400).contains(&flows) {
                continue;
            }
            let cfg = FairnessRunConfig::new(42, rate, flows, duration);
            let r = fairness_run(&cfg, discipline);
            println!(
                "{rate_kbps:>10} {flows:>6} {share:>15} {:>11.3} {:>10.3} {:>5.3} {:>9.3}",
                r.short_term_jain, r.long_term_jain, r.utilization, r.drop_rate
            );
        }
    }
}
