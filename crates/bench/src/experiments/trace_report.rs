//! `trace_report` — the trace-analysis CLI: turns a packet-lifecycle
//! dump into per-flow latency percentiles, a silence-period table, and
//! a sliding-window Jain fairness timeline (the paper's Figure 1 and
//! Figure 3 evidence, time-resolved).
//!
//! Two modes:
//!
//! * `taq-bench trace_report --input DUMP.jsonl` — analyze an existing dump (for
//!   example a flight-recorder post-mortem from a testbed run).
//! * `taq-bench trace_report [--out PATH]` — run the built-in demo: the Figure 1
//!   campus web-log replay on a 2 Mbps TAQ bottleneck with Gilbert–
//!   Elliott burst loss and a mid-run blackout, tracing every packet
//!   through the bottleneck; writes the dump (default
//!   `results/trace_dump.jsonl`), then analyzes it.
//!
//! Flags: `--seed N`, `--silence-ms N` (silence threshold for the demo's
//! trip-wire and the report's silence table, default 2000),
//! `--window-ms N` (the Jain timeline's window only, default 5000; the
//! dump does not depend on it).

use taq_bench::{Discipline, SweepArgs};
use taq_faults::{FaultPlan, GilbertElliott};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime, TelemetryBridge};
use taq_telemetry::{shared_sink, Telemetry};
use taq_trace::{ReportConfig, TraceCollector, TraceConfig, TraceReport};
use taq_workloads::{weblog, DumbbellSpec};

/// Runs the faulted Figure 1 workload with a trace collector attached
/// and returns the full-run dump.
fn run_demo(seed: u64, silence_ns: u64) -> String {
    let telemetry = Telemetry::new();
    // The flight window is sized to hold the whole demo run so the
    // analysis sees the blackout, not just the tail of the replay.
    let (collector, erased) = shared_sink(TraceCollector::new(TraceConfig {
        flight_capacity: 1 << 17,
        silence_ns: Some(silence_ns),
        dump_path: None,
    }));
    telemetry.add_shared_sink(erased);

    // 2.5 simulated minutes of the campus web log, with burst loss all
    // along and a 6 s blackout at t=60 s — long enough to trip the
    // 2 s silence wire, the Figure 1 pathology made visible.
    let cfg = weblog::WebLogConfig::campus_two_hour(48);
    let blackout_at = SimTime::from_secs(60);
    let plan = FaultPlan::none()
        .with_burst_loss(GilbertElliott::bursts(0.02, 6.0))
        .with_blackout(blackout_at, blackout_at + SimDuration::from_secs(6));

    let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_mbps(2));
    let spec = DumbbellSpec::new(topo)
        .faults(plan)
        .telemetry(telemetry.clone());
    let mut sc = spec.build(seed, &Discipline::Taq.spec(spec.topo.buffer_pkts()));
    let taq = sc.taq_state(0).expect("TAQ state");
    taq.lock().unwrap().attach_telemetry(telemetry.clone());
    let bridge = TelemetryBridge::new(telemetry.clone()).only(sc.db.bottleneck);
    sc.sim.add_monitor(Box::new(bridge));

    let mut rng = SimRng::new(seed ^ 7);
    let log = weblog::generate(&cfg, &mut rng);
    for (_client, entries) in weblog::by_client(&log) {
        sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
    }
    sc.run_until(SimTime::ZERO + cfg.duration + SimDuration::from_secs(30));
    telemetry.flush();

    let collector = collector.lock().unwrap();
    println!(
        "# demo run: {} spans started, {} completed, {} orphan deliveries, {} evicted, {} retained in {} recorder bytes",
        collector.spans_started(),
        collector.spans_completed(),
        collector.orphan_deliveries(),
        collector.recorder().evicted(),
        collector.recorder().len(),
        collector.recorder().retained_bytes()
    );
    collector.dump_string()
}

pub fn run(args: SweepArgs) {
    let seed = args.seeds[0];
    let silence_ns = args.num("--silence-ms", 2_000) * 1_000_000;
    let window_ns = args.num("--window-ms", 5_000) * 1_000_000;

    let dump = match args.value("--input") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                println!("# trace_report — analyzing {path}");
                text
            }
            Err(e) => {
                eprintln!("trace_report: cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => {
            println!("# trace_report — faulted fig01 demo (seed {seed})");
            let dump = run_demo(seed, silence_ns);
            // Default under results/ so demo runs never litter the
            // repository root (override with --out).
            let out = args.value("--out").unwrap_or("results/trace_dump.jsonl");
            if let Some(dir) = std::path::Path::new(&out).parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            match std::fs::write(out, &dump) {
                Ok(()) => println!("# wrote {out}"),
                Err(e) => eprintln!("trace_report: cannot write {out}: {e}"),
            }
            dump
        }
    };

    let report = TraceReport::parse(&dump);
    print!(
        "{}",
        report.render(&ReportConfig {
            silence_ns,
            window_ns,
            ..ReportConfig::default()
        })
    );
}
