//! Quickstart: put TAQ on a congested bottleneck and watch short-term
//! fairness recover.
//!
//! Builds the paper's dumbbell twice — once with DropTail, once with a
//! TAQ middlebox — runs 40 long-lived TCP flows over a 600 Kbps link
//! (fair share ≈ 15 Kbps ≈ 1.5 packets/RTT: a small packet regime), and
//! prints the 20-second-slice Jain fairness index and link utilization
//! for both.
//!
//! Run with: `cargo run --release --example quickstart`

use taq_metrics::SliceThroughput;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_workloads::{DumbbellSpec, QdiscSpec, BULK_BYTES};

fn run(label: &str, qdisc: fn(usize) -> QdiscSpec) {
    const FLOWS: usize = 40;
    let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600));
    let qdisc = qdisc(topo.buffer_pkts());
    let mut scenario = DumbbellSpec::new(topo).build(42, &qdisc);

    // Observe per-flow throughput in 20-second slices at the bottleneck.
    let bottleneck = scenario.db.bottleneck;
    let slices = scenario.sim.add_monitor(Box::new(SliceThroughput::new(
        bottleneck,
        SimDuration::from_secs(20),
    )));

    scenario.add_bulk_clients(FLOWS, BULK_BYTES, SimDuration::from_secs(2));
    scenario.run_until(SimTime::from_secs(200));

    let stats = scenario.sim.link_stats(bottleneck);
    println!(
        "{label:>9}: short-term Jain = {:.3}, utilization = {:.3}, loss = {:.1}%",
        scenario
            .sim
            .monitor::<SliceThroughput>(slices)
            .expect("slice monitor")
            .mean_jain(2, 10, FLOWS),
        stats.utilization(SimDuration::from_secs(200)),
        100.0 * stats.drop_rate(),
    );
}

fn main() {
    println!("40 TCP flows sharing 600 Kbps (fair share ~1.5 packets/RTT):\n");
    run("droptail", |buffer_pkts| QdiscSpec::DropTail {
        buffer_pkts,
    });
    run("taq", QdiscSpec::taq);
    println!("\nTAQ restores short-term fairness without sacrificing utilization.");
}
