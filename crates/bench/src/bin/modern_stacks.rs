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
//! Usage: `modern_stacks [--full]`

use taq_bench::{Discipline, SweepArgs};
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration};
use taq_tcp::TcpConfig;
use taq_workloads::{DumbbellSpec, BULK_BYTES};

fn run(discipline: Discipline, tcp: TcpConfig, duration: taq_sim::SimTime) -> (f64, f64, f64) {
    let rate = Bandwidth::from_kbps(600);
    let flows = 60;
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = discipline.spec(buffer).build(rate, 42);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let mut sc =
        DumbbellSpec::new(topo)
            .tcp(tcp)
            .build_with_reverse(42, built.forward, built.reverse);
    let bottleneck = sc.db.bottleneck;
    let slices = sc.sim.add_monitor(Box::new(SliceThroughput::new(
        bottleneck,
        SimDuration::from_secs(20),
    )));
    let evo = sc.sim.add_monitor(Box::new(EvolutionTracker::new(
        bottleneck,
        SimDuration::from_secs(2),
    )));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
    sc.run_until(duration);
    let n = (duration.as_nanos() / SimDuration::from_secs(20).as_nanos()) as usize;
    let jain = sc
        .sim
        .monitor::<SliceThroughput>(slices)
        .expect("slice monitor")
        .mean_jain(2, n, flows);
    let series = sc
        .sim
        .monitor::<EvolutionTracker>(evo)
        .expect("evolution monitor")
        .series();
    let from = series.len() / 4;
    let (mut stalled, mut total) = (0usize, 0usize);
    for c in &series[from..] {
        stalled += c.stalled;
        total += c.total();
    }
    let drop_rate = sc.sim.link_stats(bottleneck).drop_rate();
    (jain, stalled as f64 / total.max(1) as f64, drop_rate)
}

fn main() {
    let duration = SweepArgs::parse(42).duration(300, 300, 1_000);
    println!("# Modern stacks in the small packet regime — 60 flows, 600 Kbps");
    println!("# stack              discipline  jain20  stalled  drop_rate");
    let classic = TcpConfig::default();
    let modern = TcpConfig::cubic_modern();
    for (tcp, name) in [(classic, "newreno-iw2"), (modern, "cubic-iw10")] {
        for d in [Discipline::DropTail, Discipline::Taq] {
            let (jain, stalled, drops) = run(d, tcp.clone(), duration);
            println!(
                "{name:<18} {:>11} {jain:>7.3} {stalled:>8.3} {drops:>10.3}",
                d.name()
            );
        }
    }
}
