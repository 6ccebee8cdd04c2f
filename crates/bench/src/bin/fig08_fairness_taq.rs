//! Figure 8: short-term Jain fairness vs per-flow fair share under TAQ.
//!
//! The same sweep as Figure 2 with TAQ on the bottleneck. Expected
//! shape: TAQ's 20-second-slice Jain index beats DropTail across the
//! entire spectrum and sits mostly above 0.8, with link utilization
//! still ≈ 1.
//!
//! Usage: `fig08_fairness_taq [--full]`

use taq_bench::{fairness_run, Discipline, FairnessRunConfig, SweepArgs};
use taq_sim::Bandwidth;
use taq_workloads::flows_for_fair_share;

fn main() {
    let duration = SweepArgs::parse(42).duration(300, 300, 2_000);
    let shares_bps: [u64; 7] = [2_000, 5_000, 10_000, 15_000, 20_000, 30_000, 50_000];
    let rates_kbps: [u64; 5] = [200, 400, 600, 800, 1_000];

    println!("# Figure 8 reproduction — TAQ short-term fairness (20 s slices)");
    println!("# rate_kbps  flows  fair_share_bps  jain_taq  jain_droptail  util_taq");
    for rate_kbps in rates_kbps {
        let rate = Bandwidth::from_kbps(rate_kbps);
        for share in shares_bps {
            let flows = flows_for_fair_share(rate, share);
            if !(4..=400).contains(&flows) {
                continue;
            }
            let cfg = FairnessRunConfig::new(42, rate, flows, duration);
            let taq = fairness_run(&cfg, Discipline::Taq);
            let dt = fairness_run(&cfg, Discipline::DropTail);
            println!(
                "{rate_kbps:>10} {flows:>6} {share:>15} {:>9.3} {:>13.3} {:>8.3}",
                taq.short_term_jain, dt.short_term_jain, taq.utilization
            );
        }
    }
}
