//! The flight recorder riding a testbed crash-restart drill.
//!
//! Eight clients stream objects through a real-time TAQ middlebox; ten
//! simulated seconds in, the middlebox "crashes" — buffered packets
//! discarded, all per-flow TAQ state lost, a 2 s stall. The `restart`
//! fault event trips the flight recorder, which dumps the last few
//! hundred packet lifecycles (and those still in flight) to a JSONL
//! post-mortem at the crash instant. The example then re-reads the dump
//! with the same parser `trace_report --input` uses and renders the
//! analysis: what every packet was doing just before the lights went
//! out.
//!
//! Run with: `cargo run --release --example flight_recorder`

use taq::{TaqConfig, TaqPair};
use taq_sim::{Bandwidth, SimDuration, SimTime};
use taq_tcp::{Request, TcpConfig};
use taq_testbed::{run_testbed, ClientSpec, RestartDrill, TestbedConfig};
use taq_trace::{ReportConfig, TraceReport};

fn main() {
    let rate = Bandwidth::from_kbps(600);
    let dump =
        std::env::temp_dir().join(format!("taq_flight_recorder_{}.jsonl", std::process::id()));
    let cfg = TestbedConfig {
        rate,
        one_way_delay: SimDuration::from_millis(100),
        tcp: TcpConfig::default(),
        speedup: 10.0,
        horizon: SimTime::from_secs(40),
        telemetry_jsonl: None,
        trace_dump: Some(dump.clone()),
        restart: Some(RestartDrill {
            at: SimTime::from_secs(10),
            stall: SimDuration::from_secs(2),
        }),
    };
    let clients: Vec<ClientSpec> = (0..8)
        .map(|c| ClientSpec {
            requests: (0..40)
                .map(|i| Request {
                    tag: c * 100 + i,
                    bytes: 15_000,
                })
                .collect(),
            max_parallel: 2,
        })
        .collect();

    println!("8 clients through a TAQ middlebox; crash-restart drill at t=10 s...");
    let report = run_testbed(
        cfg,
        move |telemetry| {
            let pair = TaqPair::new(TaqConfig::for_link(rate));
            pair.attach_telemetry(telemetry.clone());
            (Box::new(pair.forward) as _, Box::new(pair.reverse) as _)
        },
        clients,
    );
    println!(
        "run done: {} restarts, {} packets forwarded, {} dropped",
        report.stats.restarts, report.stats.fwd_transmitted, report.stats.fwd_dropped
    );

    let text = std::fs::read_to_string(&dump).expect("post-mortem dump written");
    println!(
        "post-mortem dump: {} ({} lines)\n",
        dump.display(),
        text.lines().count()
    );
    let parsed = TraceReport::parse(&text);
    print!(
        "{}",
        parsed.render(&ReportConfig {
            // The testbed runs at wall-clock pace, so flows naturally
            // pause between objects; only the drill's 2 s stall should
            // read as silence.
            silence_ns: 1_500_000_000,
            window_ns: 2_000_000_000,
            ..ReportConfig::default()
        })
    );
    let _ = std::fs::remove_file(&dump);
}
