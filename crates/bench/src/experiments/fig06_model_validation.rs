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

use taq_bench::{fluid_run, Discipline, SweepArgs, FLUID_WMAX as WMAX};
use taq_metrics::EpochActivity;
use taq_model::{FullModel, PartialModel};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_tcp::TcpConfig;
use taq_workloads::DumbbellSpec;

pub fn run(args: SweepArgs) {
    let secs = args.secs(240, 240, 1_000);
    let seed = args.seeds[0];
    // The model caps the window at Wmax and assumes a base timeout of
    // T0 = 2 x RTT; RFC 6298's 1 s floor would triple every silence
    // relative to the model's epochs, so validation runs with the floor
    // at 2 x the propagation RTT (as ns2-era stacks effectively had).
    let tcp = TcpConfig {
        max_window_segments: WMAX as u32,
        min_rto: SimDuration::from_millis(400),
        ..TcpConfig::default()
    };
    println!("# Figure 6 reproduction — stationary distribution of packets sent per epoch");
    println!("# columns: n_sent = 0..{WMAX} (probabilities)");
    for rate_kbps in [200u64, 750, 1000] {
        println!("# --- bottleneck {rate_kbps} Kbps ---");
        let rate = Bandwidth::from_kbps(rate_kbps);
        let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).tcp(tcp.clone());
        let buffer = spec.topo.buffer_pkts();
        // Epoch = propagation RTT + typical queueing (half-full buffer).
        let queueing =
            SimDuration::from_nanos(buffer as u64 / 2 * rate.transmission_time(500).as_nanos());
        let epoch = SimDuration::from_millis(200) + queueing;
        for flows in [10usize, 20, 40, 80] {
            let mut sc = spec.build(seed, &Discipline::DropTail.spec(buffer));
            let stagger = SimDuration::from_secs(2);
            let activity = fluid_run(&mut sc, flows, epoch, stagger, secs * 1_000);
            let p = sc.sim.link_stats(sc.db.bottleneck).drop_rate();
            if !(0.01..0.5).contains(&p) {
                continue;
            }
            let sim = sc
                .sim
                .monitor_mut::<EpochActivity>(activity)
                .expect("epoch monitor")
                .distribution(SimTime::from_secs(secs));
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
