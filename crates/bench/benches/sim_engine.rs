//! Microbenchmark: end-to-end simulator event throughput on a contended
//! dumbbell (events processed per wall second is the quantity that
//! bounds every experiment's runtime).
//!
//! Run with `cargo bench --bench sim_engine`.

use taq_bench::{measure, Discipline};
use taq_queues::DropTail;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

fn run_sim(flows: usize, secs: u64) -> u64 {
    let rate = Bandwidth::from_kbps(600);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let mut sc = DumbbellSpec::new(topo).build(1, Box::new(DropTail::with_packets(buffer)));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(1));
    sc.run_until(SimTime::from_secs(secs));
    sc.sim.events_processed()
}

/// The Figure 8 many-flow point: 300 bulk flows squeezed to a 2 kbps
/// fair share behind TAQ — the scenario that stresses classification,
/// flow-table GC, and the class rings.
fn run_taq_manyflow(secs: u64) -> u64 {
    let rate = Bandwidth::from_kbps(600);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, 1);
    let mut sc = DumbbellSpec::new(topo).build(1, built.forward);
    sc.add_bulk_clients(300, BULK_BYTES, SimDuration::from_secs(2));
    sc.run_until(SimTime::from_secs(secs));
    sc.sim.events_processed()
}

fn main() {
    println!("# sim_engine — dumbbell event throughput");
    let mut events = 0;
    let ns = measure("dumbbell_20flows_30s", 1, 5, || events = run_sim(20, 30));
    println!("#   {:.2} Mevents/s", events as f64 / ns * 1e3);
    let ns = measure("dumbbell_60flows_30s", 1, 5, || events = run_sim(60, 30));
    println!("#   {:.2} Mevents/s", events as f64 / ns * 1e3);
    let ns = measure("taq_300flows_30s", 1, 5, || events = run_taq_manyflow(30));
    println!("#   {:.2} Mevents/s", events as f64 / ns * 1e3);
}
