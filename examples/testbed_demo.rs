//! The real-time testbed in action (the paper's §5.4 setting).
//!
//! Runs the same TAQ code that the simulator evaluates — unchanged —
//! inside a multi-threaded wall-clock emulation: a token-paced 600 Kbps
//! bottleneck with eight clients fetching object streams. Unlike the
//! simulator this is nondeterministic (real thread scheduling), which
//! is the point: the discipline keeps working under genuine timing
//! jitter.
//!
//! Runs ~12 s of simulated time at 6x real time (about 2 s wall).
//!
//! Run with: `cargo run --release --example testbed_demo`
//!
//! Set `TELEMETRY_JSONL=/path/to/trace.jsonl` to stream the middlebox's
//! structured telemetry (flow states, classification, drops, link
//! events) to a file — the same event taxonomy an instrumented
//! simulator run emits, so the two traces are directly comparable.

use taq::{TaqConfig, TaqPair};
use taq_metrics::jain_index;
use taq_sim::{Bandwidth, SimDuration, SimTime};
use taq_tcp::{Request, TcpConfig};
use taq_testbed::{run_testbed, ClientSpec, TestbedConfig};

fn main() {
    let rate = Bandwidth::from_kbps(600);
    let telemetry_jsonl = std::env::var_os("TELEMETRY_JSONL").map(std::path::PathBuf::from);
    let cfg = TestbedConfig {
        rate,
        one_way_delay: SimDuration::from_millis(100),
        tcp: TcpConfig::default(),
        speedup: 6.0,
        horizon: SimTime::from_secs(12),
        telemetry_jsonl: telemetry_jsonl.clone(),
        trace_dump: None,
        restart: None,
    };
    let clients: Vec<ClientSpec> = (0..8)
        .map(|c| ClientSpec {
            requests: (0..50)
                .map(|i| Request {
                    tag: c * 100 + i,
                    bytes: 15_000,
                })
                .collect(),
            max_parallel: 2,
        })
        .collect();

    println!("8 clients through a real-time TAQ middlebox at 600 Kbps...");
    let report = run_testbed(
        cfg,
        move |telemetry| {
            let pair = TaqPair::new(TaqConfig::for_link(rate));
            pair.state
                .lock()
                .unwrap()
                .attach_telemetry(telemetry.clone());
            (Box::new(pair.forward) as _, Box::new(pair.reverse) as _)
        },
        clients,
    );
    if let Some(path) = &telemetry_jsonl {
        // The middlebox thread owns the sink; it warns on stderr if the
        // file could not be created, so only claim success if it exists.
        if path.exists() {
            println!("telemetry trace written to {}", path.display());
        }
    }

    let mut per_client = std::collections::HashMap::<u64, u64>::new();
    let mut completed = 0;
    for r in &report.records {
        if r.completed_at.is_some() {
            completed += 1;
            *per_client.entry(r.tag / 100).or_default() += r.bytes;
        }
    }
    let goodputs: Vec<f64> = (0..8)
        .map(|c| *per_client.get(&c).unwrap_or(&0) as f64)
        .collect();
    println!("completed {completed} objects; per-client bytes {goodputs:?}");
    println!("goodput-share Jain index: {:.3}", jain_index(&goodputs));
    println!(
        "bottleneck: {} packets forwarded, {} dropped",
        report.stats.fwd_transmitted, report.stats.fwd_dropped
    );
    // `scripts/verify.sh testbed_smoke` runs this example as its gate: a
    // client that completed nothing is a failure, not a low index.
    if goodputs.contains(&0.0) {
        eprintln!("testbed_demo: a client completed no object");
        std::process::exit(1);
    }
}
