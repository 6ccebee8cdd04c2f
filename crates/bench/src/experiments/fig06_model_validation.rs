//! Figure 6: validating the Markov model against simulation.
//!
//! For several bottleneck bandwidths, sweeps the flow count to produce
//! a range of loss probabilities `p`, samples each flow's packets-per-
//! epoch distribution at the bottleneck, and prints it next to the
//! partial and full models' stationary distributions at the measured
//! `p`. Expected shape: simulation agrees with the model, especially
//! for `p > 0.05`, with the "0 sent" (silence) mass growing sharply
//! with `p`.
//!
//! Usage: `taq-bench fig06_model_validation [--full]`

use taq_bench::{Discipline, SweepArgs};
use taq_metrics::EpochActivity;
use taq_model::{FullModel, PartialModel};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration};
use taq_tcp::TcpConfig;
use taq_workloads::{DumbbellSpec, BULK_BYTES};

const WMAX: usize = 6;

fn simulate(seed: u64, rate_kbps: u64, flows: usize, secs: u64) -> (f64, Vec<f64>) {
    let rate = Bandwidth::from_kbps(rate_kbps);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::DropTail.spec(buffer).build(rate, seed);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    // The model caps the window at Wmax; mirror that in the senders so
    // the comparison is apples-to-apples (the paper's model section
    // does the same).
    let tcp = TcpConfig {
        max_window_segments: WMAX as u32,
        // The model assumes a base timeout of T0 = 2 x RTT; RFC 6298's
        // 1 s floor would triple every silence relative to the model's
        // epochs, so validation runs with the floor at 2 x the
        // propagation RTT (as ns2-era stacks effectively had).
        min_rto: SimDuration::from_millis(400),
        ..TcpConfig::default()
    };
    let mut sc = DumbbellSpec::new(topo).tcp(tcp).build(seed, built.forward);
    let bottleneck = sc.db.bottleneck;
    // Epoch = propagation RTT + typical queueing (half-full buffer).
    let queueing =
        SimDuration::from_nanos(buffer as u64 / 2 * rate.transmission_time(500).as_nanos());
    let epoch = SimDuration::from_millis(200) + queueing;
    let activity = sc
        .sim
        .add_monitor(Box::new(EpochActivity::new(bottleneck, epoch, WMAX)));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(2));
    let horizon = taq_sim::SimTime::from_secs(secs);
    sc.run_until(horizon);
    let p = sc.sim.link_stats(bottleneck).drop_rate();
    let dist = sc
        .sim
        .monitor_mut::<EpochActivity>(activity)
        .expect("epoch monitor")
        .distribution(horizon);
    (p, dist)
}

pub fn run(args: SweepArgs) {
    let secs = args.secs(240, 240, 1_000);
    println!("# Figure 6 reproduction — stationary distribution of packets sent per epoch");
    println!("# columns: n_sent = 0..{WMAX} (probabilities)");
    for rate_kbps in [200u64, 750, 1000] {
        println!("# --- bottleneck {rate_kbps} Kbps ---");
        for flows in [10usize, 20, 40, 80] {
            let (p, sim) = simulate(args.seeds[0], rate_kbps, flows, secs);
            if !(0.01..0.5).contains(&p) {
                continue;
            }
            let partial = PartialModel::new(p, WMAX as u32).n_sent_distribution();
            let full = FullModel::new(p, WMAX as u32, 3).n_sent_distribution();
            let fmt = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("flows={flows:<4} measured_p={p:.3}");
            println!("  simulation     {}", fmt(&sim));
            println!("  model_partial  {}", fmt(&partial));
            println!("  model_full     {}", fmt(&full));
        }
    }
}
