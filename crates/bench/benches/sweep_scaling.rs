//! Microbenchmark: serial vs parallel multi-seed sweep wall-clock.
//!
//! Runs the same 8-seed dumbbell workload through `sweep_seeds` at
//! 1 worker and at `min(available_parallelism, 8)` workers, checks the
//! per-seed outputs are identical (the pool must not perturb results),
//! and reports the speedup. Runs are independent simulations, so the
//! scaling is embarrassingly parallel; with >= 4 workers the speedup
//! should clear 2x comfortably.
//!
//! Run with `cargo bench --bench sweep_scaling`.

use taq_bench::{default_threads, measure, sweep_seeds, Discipline};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_workloads::DumbbellSpec;

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// One independent run; returns a compact fingerprint (completed
/// transfers, transmitted packets) so the serial/parallel outputs can
/// be compared exactly.
fn run(spec: &DumbbellSpec, seed: u64) -> (usize, u64) {
    let rate = spec.topo.bottleneck_rate;
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, seed);
    let mut sc = spec.build_with_reverse(seed, built.forward, built.reverse);
    sc.add_bulk_clients(12, 60_000, SimDuration::from_secs(1));
    sc.run_until(SimTime::from_secs(60));
    let done = sc
        .log
        .lock()
        .unwrap()
        .records
        .iter()
        .filter(|r| r.completed_at.is_some())
        .count();
    (done, sc.sim.link_stats(sc.db.bottleneck).transmitted_pkts)
}

fn main() {
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(400)));
    let workers = default_threads().min(SEEDS.len());
    println!(
        "# sweep_scaling — {} seeds, 1 vs {workers} worker(s)",
        SEEDS.len()
    );

    let serial_out = sweep_seeds(&SEEDS, 1, |seed| run(&spec, seed));
    let parallel_out = sweep_seeds(&SEEDS, workers, |seed| run(&spec, seed));
    assert_eq!(
        serial_out, parallel_out,
        "per-seed outputs must not depend on the thread count"
    );

    let serial_ns = measure("sweep/serial(1 thread)", 0, 3, || {
        sweep_seeds(&SEEDS, 1, |seed| run(&spec, seed))
    });
    let label = format!("sweep/parallel({workers} threads)");
    let parallel_ns = measure(&label, 0, 3, || {
        sweep_seeds(&SEEDS, workers, |seed| run(&spec, seed))
    });

    let speedup = serial_ns / parallel_ns;
    println!("# speedup: {speedup:.2}x over serial with {workers} workers");
    if workers >= 4 && speedup < 2.0 {
        println!("# WARNING: expected >= 2x speedup with {workers} workers");
    }
}
