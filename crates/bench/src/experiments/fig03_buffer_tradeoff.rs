//! Figure 3: DropTail buffer sizes required for restoring short-term
//! fairness.
//!
//! For fair shares of 0.25 / 0.5 / 1 / 1.25 packets per RTT, sweeps the
//! DropTail buffer and reports the 20-second-slice Jain index at each
//! size, plus the queueing delay that buffer can impose. Expected
//! shape: fairness rises with buffer, but deeper sub-packet regimes
//! need disproportionately more buffer — and hence seconds of delay —
//! to reach the same fairness, which is the infeasibility the paper
//! argues motivates TAQ (its §2.4 example: 32 s of queueing delay).
//!
//! Senders cap their window at 20 segments, matching ns2's default
//! `window_` that the paper's simulations inherit. Without a cap,
//! aggregate demand grows without bound, losses never cease at any
//! buffer size, and the buffer–fairness tradeoff disappears entirely.
//!
//! The whole (fair-share × buffer × seed) grid fans across worker
//! threads — cells are independent runs — and Jain indices are averaged
//! over seeds per cell. `--smoke` shrinks the grid and duration to a
//! CI-sized run.
//!
//! Usage: `taq-bench fig03_buffer_tradeoff [--seeds a,b,c | --runs N]
//! [--threads N] [--full] [--smoke]`

use taq_bench::{fairness_run, mean, sweep_cells, Discipline, FairnessRunConfig, SweepArgs};
use taq_sim::{Bandwidth, SimDuration};
use taq_tcp::TcpConfig;

/// One grid cell: a (fair-share, buffer) point, run once per seed.
struct Cell {
    label: &'static str,
    flows: usize,
    buffer_rtts: usize,
    buffer_pkts: usize,
}

pub fn run(args: SweepArgs) {
    let duration = args.duration(60, 600, 2_000);
    let rate = Bandwidth::from_kbps(600);
    let rtt = SimDuration::from_millis(200);
    let pkts_per_rtt = rate.packets_per(rtt, 500); // 30 at 600 Kbps
    let targets: &[(f64, &str)] = if args.smoke {
        &[(1.25, "1.25pkts/RTT"), (0.5, "0.5pkts/RTT")]
    } else {
        &[
            (1.25, "1.25pkts/RTT"),
            (1.0, "1pkt/RTT"),
            (0.5, "0.5pkts/RTT"),
            (0.25, "0.25pkts/RTT"),
        ]
    };
    let buffers: &[usize] = if args.smoke {
        &[1, 3]
    } else {
        &[1, 2, 3, 5, 8, 12, 16]
    };

    let tcp = TcpConfig {
        max_window_segments: 20, // ns2's default window_ cap.
        ..TcpConfig::default()
    };

    // Grid order (share, buffer) fixes the merged output; the sweep
    // returns each cell's seeds in exactly this order however the pool
    // schedules them.
    let cells: Vec<Cell> = targets
        .iter()
        .flat_map(|&(share_pkts, label)| {
            let flows = (pkts_per_rtt as f64 / share_pkts).round() as usize;
            buffers.iter().map(move |&buffer_rtts| Cell {
                label,
                flows,
                buffer_rtts,
                buffer_pkts: pkts_per_rtt * buffer_rtts,
            })
        })
        .collect();
    let jains = sweep_cells(&cells, &args.seeds, args.threads, |cell, seed| {
        let mut cfg = FairnessRunConfig::new(seed, rate, cell.flows, duration).tcp(tcp.clone());
        cfg.buffer_pkts = cell.buffer_pkts;
        fairness_run(&cfg, Discipline::DropTail).short_term_jain
    });

    println!("# Figure 3 reproduction — DropTail buffer vs short-term fairness");
    println!("# (window cap 20 segments, ns2 default; see module docs)");
    println!("# fair_share  flows  buffer_rtts  buffer_pkts  jain_short  max_queue_delay_s");
    for (cell, jain) in cells.iter().zip(jains) {
        let jain = mean(jain);
        let delay = cell.buffer_pkts as f64 * 500.0 * 8.0 / rate.bps() as f64;
        println!(
            "{:>12} {:>6} {:>12} {:>12} {jain:>11.3} {delay:>17.2}",
            cell.label, cell.flows, cell.buffer_rtts, cell.buffer_pkts
        );
    }
}
