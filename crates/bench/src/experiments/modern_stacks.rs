//! Extension experiment: modern stacks (CUBIC, IW=10) in small packet
//! regimes.
//!
//! The paper's SPK(k) definition is motivated by modern stacks starting
//! at a congestion window of 10: "for values of k less than the initial
//! TCP congestion window of 10, the congestion effect of the small
//! packet regime is typically observed at flow initiation time". This
//! binary puts classic (NewReno, IW=2) and modern (CUBIC, IW=10)
//! senders through the same sub-packet bottleneck under DropTail and
//! TAQ. Expected: the larger initial window makes the breakdown *worse*
//! under DropTail (bigger synchronized initiation bursts), CUBIC's
//! growth function is mostly irrelevant (windows rarely exceed the
//! fast-retransmit threshold), and TAQ's gains carry over unchanged.
//!
//! Usage: `taq-bench modern_stacks [--full]`

use taq_bench::{fairness_run, Discipline, FairnessRunConfig, SweepArgs};
use taq_sim::Bandwidth;
use taq_tcp::TcpConfig;

pub fn run(args: SweepArgs) {
    let duration = args.duration(300, 300, 1_000);
    let cfg = FairnessRunConfig::new(args.seeds[0], Bandwidth::from_kbps(600), 60, duration);
    println!("# Modern stacks in the small packet regime — 60 flows, 600 Kbps");
    println!("# stack              discipline  jain20  stalled  drop_rate");
    let classic = TcpConfig::default();
    let modern = TcpConfig::cubic_modern();
    for (tcp, name) in [(classic, "newreno-iw2"), (modern, "cubic-iw10")] {
        let cfg = cfg.clone().tcp(tcp);
        for d in [Discipline::DropTail, Discipline::Taq] {
            let r = fairness_run(&cfg, d);
            println!(
                "{name:<18} {:>11} {:>7.3} {:>8.3} {:>10.3}",
                d.name(),
                r.short_term_jain,
                r.stalled_fraction,
                r.drop_rate
            );
        }
    }
}
