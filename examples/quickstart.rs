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

use taq::{TaqConfig, TaqPair};
use taq_metrics::SliceThroughput;
use taq_queues::DropTail;
use taq_sim::{Bandwidth, DumbbellConfig, Qdisc, SimDuration, SimTime};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

fn run(label: &str, qdisc: Box<dyn Qdisc>) {
    const FLOWS: usize = 40;
    let rate = Bandwidth::from_kbps(600);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let mut scenario = DumbbellSpec::new(topo).build(42, qdisc);

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
    let rate = Bandwidth::from_kbps(600);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    run("droptail", Box::new(DropTail::with_packets(buffer)));
    let pair = TaqPair::new(TaqConfig::for_link(rate));
    run("taq", Box::new(pair.forward));
    println!("\nTAQ restores short-term fairness without sacrificing utilization.");
}
