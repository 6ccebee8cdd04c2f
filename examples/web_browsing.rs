//! Web browsing on a pathologically shared access link (the paper's
//! motivating scenario, §2.2).
//!
//! Replays a synthetic campus access log — ~220 clients with browser
//! pools of 4 connections behind a 2 Mbps link — through DropTail and
//! through TAQ, and compares download-time percentiles for small and
//! large objects. This is the Figure 1 situation ("download times vary
//! by two orders of magnitude") and the demonstration that TAQ narrows
//! the spread.
//!
//! Run with: `cargo run --release --example web_browsing`

use taq_metrics::Distribution;
use taq_queues::DropTail;
use taq_sim::{Bandwidth, DumbbellConfig, Qdisc, SimDuration, SimRng, SimTime, UnboundedFifo};
use taq_workloads::{weblog, DumbbellSpec};

fn run(label: &str, forward: Box<dyn Qdisc>, reverse: Box<dyn Qdisc>) {
    let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_mbps(2));
    let mut sc = DumbbellSpec::new(topo).build_with_reverse(42, forward, reverse);

    // A 3-minute window of the campus trace (scale 1/40 of two hours).
    let log_cfg = weblog::WebLogConfig::campus_two_hour(40);
    let mut rng = SimRng::new(7);
    let log = weblog::generate(&log_cfg, &mut rng);
    for (_, entries) in weblog::by_client(&log) {
        sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
    }
    let horizon = SimTime::ZERO + log_cfg.duration + SimDuration::from_secs(90);
    sc.run_until(horizon);

    let records = sc.log.lock().unwrap();
    let times = |lo: u64, hi: u64| {
        Distribution::from_samples(
            records
                .records
                .iter()
                .filter(|r| r.bytes >= lo && r.bytes < hi)
                .map(|r| match r.download_time() {
                    Some(d) => d.as_secs_f64(),
                    None => horizon.saturating_since(r.queued_at).as_secs_f64(),
                })
                .collect(),
        )
    };
    let small = times(1_000, 30_000);
    let large = times(100_000, 1_000_000);
    println!("{label}:");
    println!(
        "  <30KB objects  (n={:>4}): median {:>6.1}s   p90 {:>6.1}s   max {:>7.1}s",
        small.len(),
        small.median().unwrap_or(f64::NAN),
        small.quantile(0.9).unwrap_or(f64::NAN),
        small.max().unwrap_or(f64::NAN),
    );
    println!(
        "  ~100KB-1MB     (n={:>4}): median {:>6.1}s   p90 {:>6.1}s   max {:>7.1}s",
        large.len(),
        large.median().unwrap_or(f64::NAN),
        large.quantile(0.9).unwrap_or(f64::NAN),
        large.max().unwrap_or(f64::NAN),
    );
}

fn main() {
    println!("~220 browsing clients behind a 2 Mbps access link:\n");
    let rate = Bandwidth::from_mbps(2);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    run(
        "droptail",
        Box::new(DropTail::with_packets(buffer)),
        Box::new(UnboundedFifo::new()),
    );
    let pair = taq::TaqPair::new(taq::TaqConfig::for_link(rate));
    run("taq", Box::new(pair.forward), Box::new(pair.reverse));
}
