//! The `telemetry_report` scenario: one canonical small-packet run per
//! discipline (DropTail vs TAQ), with the full telemetry stack attached
//! — JSONL traces, an exact-count ring buffer, and aggregate summaries
//! rendered side by side. This replaces the hand-rolled printing the
//! diagnostics example used to carry, and doubles as the integration
//! surface proving the summary numbers agree with the raw event stream.

use crate::Discipline;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime, TelemetryBridge};
use taq_telemetry::{
    shared_sink, JsonlSink, RingBufferSink, SummarySink, SummaryStats, Telemetry, Value,
};
use taq_workloads::{DumbbellSpec, BULK_BYTES};

/// Parameters of the canonical report scenario.
#[derive(Debug, Clone)]
pub struct TelemetryReportConfig {
    /// RNG seed.
    pub seed: u64,
    /// Bottleneck rate.
    pub rate: Bandwidth,
    /// Number of long-lived flows (the small-packet regime needs many
    /// flows on a thin link).
    pub flows: usize,
    /// Simulated duration.
    pub duration: SimTime,
    /// When set, each discipline's JSONL trace is also written to
    /// `<dir>/<discipline>.jsonl`.
    pub jsonl_dir: Option<std::path::PathBuf>,
}

impl TelemetryReportConfig {
    /// The canonical small-packet setup: 600 kbps bottleneck, enough
    /// bulk flows that each is squeezed below one packet per RTT.
    pub fn small_packet(seed: u64, duration: SimTime) -> Self {
        TelemetryReportConfig {
            seed,
            rate: Bandwidth::from_kbps(600),
            flows: 40,
            duration,
            jsonl_dir: None,
        }
    }
}

/// Everything one discipline's run produced.
pub struct DisciplineReport {
    /// Discipline name ("droptail" / "taq").
    pub name: &'static str,
    /// Aggregates from the [`SummarySink`].
    pub summary: SummaryStats,
    /// The summary's rendered table.
    pub rendered: String,
    /// Exact per-kind event counts from the [`RingBufferSink`].
    pub ring_counts: BTreeMap<String, u64>,
    /// Total events the ring observed.
    pub ring_total: u64,
    /// The JSONL trace, one event per line.
    pub jsonl: Vec<String>,
    /// `TaqStats::snapshot()` for TAQ runs, `None` otherwise.
    pub stats_snapshot: Option<Value>,
    /// Bottleneck utilization over the run.
    pub utilization: f64,
    /// Bottleneck drop rate.
    pub drop_rate: f64,
}

/// The side-by-side report.
pub struct TelemetryReport {
    /// The DropTail baseline run.
    pub droptail: DisciplineReport,
    /// The TAQ run.
    pub taq: DisciplineReport,
}

impl TelemetryReport {
    /// Renders the comparison: a metric table followed by each
    /// discipline's aggregate summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# telemetry_report: droptail vs taq");
        let _ = writeln!(out, "{:<28} {:>14} {:>14}", "metric", "droptail", "taq");
        let row = |out: &mut String, name: &str, a: String, b: String| {
            let _ = writeln!(out, "{name:<28} {a:>14} {b:>14}");
        };
        let link = |r: &DisciplineReport| r.summary.links.values().next().copied();
        let (dl, tl) = (link(&self.droptail), link(&self.taq));
        let pick = |l: Option<(u64, u64, u64, f64)>, f: fn((u64, u64, u64, f64)) -> String| {
            l.map_or_else(|| "-".to_string(), f)
        };
        row(
            &mut out,
            "events",
            self.droptail.summary.total_events().to_string(),
            self.taq.summary.total_events().to_string(),
        );
        row(
            &mut out,
            "offered_pkts",
            pick(dl, |l| l.0.to_string()),
            pick(tl, |l| l.0.to_string()),
        );
        row(
            &mut out,
            "dropped_pkts",
            pick(dl, |l| l.1.to_string()),
            pick(tl, |l| l.1.to_string()),
        );
        row(
            &mut out,
            "transmitted_pkts",
            pick(dl, |l| l.2.to_string()),
            pick(tl, |l| l.2.to_string()),
        );
        row(
            &mut out,
            "utilization",
            format!("{:.3}", self.droptail.utilization),
            format!("{:.3}", self.taq.utilization),
        );
        row(
            &mut out,
            "drop_rate",
            format!("{:.4}", self.droptail.drop_rate),
            format!("{:.4}", self.taq.drop_rate),
        );
        let depth = &self.taq.summary.depth;
        if depth.count() > 0 {
            row(
                &mut out,
                "taq depth p50/p99 (pkts)",
                "-".to_string(),
                format!("{}/{}", depth.quantile(0.5), depth.quantile(0.99)),
            );
        }
        out.push('\n');
        out.push_str(&self.droptail.rendered);
        out.push('\n');
        out.push_str(&self.taq.rendered);
        out
    }
}

/// An `io::Write` over a shared byte buffer, so a [`JsonlSink`]'s output
/// can be read back without unwrapping the sink from the hub.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn run_discipline(cfg: &TelemetryReportConfig, d: Discipline) -> DisciplineReport {
    let buffer_pkts = cfg.rate.packets_per(SimDuration::from_millis(200), 500);
    let built = d.spec(buffer_pkts).build(cfg.rate, cfg.seed);

    let telemetry = Telemetry::new();
    let (summary, erased) = shared_sink(SummarySink::new());
    telemetry.add_shared_sink(erased);
    let (ring, erased) = shared_sink(RingBufferSink::new(4096));
    telemetry.add_shared_sink(erased);
    let buf = SharedBuf::default();
    telemetry.add_sink(JsonlSink::new(buf.clone()));
    if let Some(dir) = &cfg.jsonl_dir {
        let path = dir.join(format!("{}.jsonl", d.name()));
        match JsonlSink::create(&path) {
            Ok(sink) => telemetry.add_sink(sink),
            Err(e) => eprintln!("# warning: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(state) = &built.taq {
        state.lock().unwrap().attach_telemetry(telemetry.clone());
    }

    let topo = DumbbellConfig::with_rtt_200ms(cfg.rate);
    let mut sc = DumbbellSpec::new(topo).build_with_reverse(cfg.seed, built.forward, built.reverse);
    let bridge = TelemetryBridge::new(telemetry.clone()).only(sc.db.bottleneck);
    sc.sim.add_monitor(Box::new(bridge));
    sc.add_bulk_clients(cfg.flows, BULK_BYTES, SimDuration::from_secs(1));

    let wall = std::time::Instant::now();
    sc.run_until(cfg.duration);
    sc.sim.emit_telemetry_summary(&telemetry, wall.elapsed());
    telemetry.flush();

    let stats = sc.sim.link_stats(sc.db.bottleneck);
    let utilization = stats.utilization(cfg.duration.saturating_since(SimTime::ZERO));
    let drop_rate = stats.drop_rate();
    let stats_snapshot = built
        .taq
        .as_ref()
        .map(|s| s.lock().unwrap().stats.snapshot());
    let rendered = summary.lock().unwrap().render(d.name());
    let summary = summary.lock().unwrap().stats();
    let ring = ring.lock().unwrap();
    let jsonl = String::from_utf8_lossy(&buf.0.lock().unwrap())
        .lines()
        .map(str::to_string)
        .collect();

    DisciplineReport {
        name: d.name(),
        summary,
        rendered,
        ring_counts: ring
            .counts()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        ring_total: ring.total(),
        jsonl,
        stats_snapshot,
        utilization,
        drop_rate,
    }
}

/// Runs the canonical small-packet scenario under DropTail and TAQ with
/// identical telemetry wiring and returns both halves of the report.
pub fn telemetry_report(cfg: &TelemetryReportConfig) -> TelemetryReport {
    TelemetryReport {
        droptail: run_discipline(cfg, Discipline::DropTail),
        taq: run_discipline(cfg, Discipline::Taq),
    }
}
