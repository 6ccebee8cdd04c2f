//! Figure 11: short-term Jain fairness on the real-time testbed.
//!
//! Runs the same qdisc code under wall-clock time (the paper's
//! underprovisioned-hardware testbed, here a multi-threaded userspace
//! emulation) at 600 Kbps and 1 Mbps, DropTail vs TAQ, with clients
//! holding long-lived requests. Per-flow goodput over the run yields
//! the Jain index. Expected shape: TAQ above DropTail at both rates,
//! as in simulation — demonstrating the discipline works outside the
//! deterministic simulator.
//!
//! Usage: `taq-bench fig11_testbed_fairness [--full] [--smoke]`

use taq::{TaqConfig, TaqPair};
use taq_bench::SweepArgs;
use taq_metrics::jain_index;
use taq_queues::DropTail;
use taq_sim::{Bandwidth, SimDuration, SimTime, UnboundedFifo};
use taq_tcp::{Request, TcpConfig};
use taq_testbed::{run_testbed, ClientSpec, TestbedConfig};

fn testbed_jain(rate_kbps: u64, taq: bool, secs: u64) -> (f64, f64) {
    let rate = Bandwidth::from_kbps(rate_kbps);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let cfg = TestbedConfig {
        rate,
        one_way_delay: SimDuration::from_millis(100),
        tcp: TcpConfig::default(),
        speedup: 10.0,
        horizon: SimTime::from_secs(secs),
        telemetry_jsonl: None,
        trace_dump: None,
        restart: None,
    };
    // 40 clients each streaming 15 KB objects over two parallel
    // connections: handshake-heavy, deep sub-packet contention, so the
    // discipline's short-term behaviour dominates per-client goodput.
    let clients: Vec<ClientSpec> = (0..40)
        .map(|c| ClientSpec {
            requests: (0..500)
                .map(|i| Request {
                    tag: c * 1_000 + i,
                    bytes: 15_000,
                })
                .collect(),
            max_parallel: 2,
        })
        .collect();
    let report = run_testbed(
        cfg,
        move |_| {
            if taq {
                let pair = TaqPair::new(TaqConfig::for_link(rate));
                (Box::new(pair.forward) as _, Box::new(pair.reverse) as _)
            } else {
                (
                    Box::new(DropTail::with_packets(buffer)) as _,
                    Box::new(UnboundedFifo::new()) as _,
                )
            }
        },
        clients,
    );
    let mut per_client = std::collections::HashMap::<u64, u64>::new();
    for r in &report.records {
        if r.completed_at.is_some() {
            *per_client.entry(r.tag / 1_000).or_default() += r.bytes;
        }
    }
    let mut goodputs: Vec<f64> = (0..40)
        .map(|c| *per_client.get(&c).unwrap_or(&0) as f64)
        .collect();
    goodputs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let util = report.stats.fwd_bytes as f64 * 8.0 / (rate.bps() as f64 * secs as f64);
    (jain_index(&goodputs), util)
}

pub fn run(args: SweepArgs) {
    // At speedup 10 a run takes secs / 10 of wall clock. The smoke
    // horizon completes only the first few objects per client, so it
    // checks that the testbed runs, not the figure's shape.
    let secs = args.secs(10, 120, 400);
    println!("# Figure 11 reproduction — testbed (real-time emulation) fairness");
    println!("# 40 clients x 2 conns, 15 KB objects back-to-back, goodput-share Jain index");
    println!("# rate_kbps  discipline  jain  link_util");
    for rate in [600u64, 1_000] {
        for taq in [false, true] {
            let (jain, util) = testbed_jain(rate, taq, secs);
            println!(
                "{rate:>10} {:>11} {jain:>5.3} {util:>9.3}",
                if taq { "taq" } else { "droptail" }
            );
        }
    }
}
