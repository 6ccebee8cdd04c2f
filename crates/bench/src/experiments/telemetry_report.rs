//! Canonical small-packet telemetry run: DropTail vs TAQ with the full
//! telemetry stack attached (JSONL traces, exact event counts, aggregate
//! summaries), rendered side by side.
//!
//! Usage: `taq-bench telemetry_report [--full] [--jsonl DIR]`
//!
//! With `--jsonl DIR` the per-discipline event traces are written to
//! `DIR/droptail.jsonl` and `DIR/taq.jsonl` for offline analysis
//! (each line is one event object; see DESIGN.md's telemetry appendix).

use taq_bench::{telemetry_report, SweepArgs, TelemetryReportConfig};

pub fn run(args: SweepArgs) {
    let duration = args.duration(60, 60, 600);
    let mut cfg = TelemetryReportConfig::small_packet(args.seeds[0], duration);
    if let Some(dir) = args.value("--jsonl") {
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        cfg.jsonl_dir = Some(dir);
    }

    let report = telemetry_report(&cfg);
    print!("{}", report.render());
    if let Some(dir) = &cfg.jsonl_dir {
        println!();
        for r in [&report.droptail, &report.taq] {
            println!(
                "# wrote {} events to {}",
                r.jsonl.len(),
                dir.join(format!("{}.jsonl", r.name)).display()
            );
        }
    }
}
