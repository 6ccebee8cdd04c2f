//! Figure 1: download time vs object size on a pathologically shared
//! access link.
//!
//! Replays the synthetic campus trace (the stand-in for the paper's
//! Kerala university proxy log: ≈220 clients behind 2 Mbps) and prints
//! the 10th/90th percentile, min, max and mean download time per
//! logarithmic object-size bucket. Expected shape: download times for
//! comparable sizes vary by around two orders of magnitude, at every
//! size, with the spread narrowing only for multi-megabyte objects.
//!
//! Runs one independent trace replay per seed (different request
//! arrivals and jitter), fanned across worker threads, and pools the
//! (size, download-time) samples before bucketing.
//!
//! Usage: `taq-bench fig01_download_times [--seeds a,b,c | --runs N]
//! [--threads N] [--full] [--smoke]`

use taq_bench::{sweep_seeds, Discipline, SweepArgs};
use taq_metrics::log_bucket_summary;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_workloads::{weblog, DumbbellSpec};

struct RunOutput {
    /// `(bytes, seconds)` per completed download.
    pairs: Vec<(f64, f64)>,
    unfinished: usize,
    requests: usize,
}

fn replay(spec: &DumbbellSpec, scale: u32, seed: u64) -> RunOutput {
    let mut sc = spec.build(seed, &Discipline::DropTail.spec(spec.topo.buffer_pkts()));

    let log_cfg = weblog::WebLogConfig::campus_two_hour(scale);
    // The trace derives from the run seed so every sweep member replays
    // an independent arrival process.
    let mut rng = taq_sim::SimRng::new(seed ^ 7);
    let log = weblog::generate(&log_cfg, &mut rng);
    let requests = log.len();
    for (_client, entries) in weblog::by_client(&log) {
        sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
    }
    let horizon = SimTime::ZERO + log_cfg.duration + SimDuration::from_secs(120);
    sc.run_until(horizon);

    let records = sc.log.lock().unwrap();
    let pairs: Vec<(f64, f64)> = records
        .records
        .iter()
        .filter_map(|r| r.download_time().map(|d| (r.bytes as f64, d.as_secs_f64())))
        .collect();
    let unfinished = records.records.len() - pairs.len();
    RunOutput {
        pairs,
        unfinished,
        requests,
    }
}

pub fn run(args: SweepArgs) {
    // Scale divides the two-hour trace: 5-minute window by default,
    // 30 minutes with --full, under a minute with --smoke.
    let scale = args.secs(96, 24, 4) as u32;
    let rate = Bandwidth::from_mbps(2);
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate));

    let runs = sweep_seeds(&args.seeds, args.threads, |seed| replay(&spec, scale, seed));

    let requests: usize = runs.iter().map(|r| r.requests).sum();
    let unfinished: usize = runs.iter().map(|r| r.unfinished).sum();
    let pairs: Vec<(f64, f64)> = runs.into_iter().flat_map(|r| r.pairs).collect();
    println!("# Figure 1 reproduction — {requests} requests (scale 1/{scale})");
    println!("# completed={} unfinished={unfinished}", pairs.len());
    println!("# size_lo_bytes  size_hi_bytes  count  p10_s  p90_s  min_s  max_s  mean_s  spread(p90/p10)");
    for b in log_bucket_summary(&pairs, 2, 5) {
        println!(
            "{:>14.0} {:>14.0} {:>6} {:>6.2} {:>6.2} {:>6.2} {:>7.2} {:>7.2} {:>8.1}",
            b.lo,
            b.hi,
            b.count,
            b.p10,
            b.p90,
            b.min,
            b.max,
            b.mean,
            if b.p10 > 0.0 { b.p90 / b.p10 } else { f64::NAN }
        );
    }
}
