//! Offline analysis of trace dumps: per-flow latency percentiles,
//! silence-period distributions, and a sliding-window Jain fairness
//! timeline — the paper's Figure 1/Figure 3 evidence, time-resolved.

use std::collections::BTreeMap;
use taq_telemetry::Value;

/// Analysis knobs for [`TraceReport::render`].
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Per-flow activity gaps longer than this count as silence.
    pub silence_ns: u64,
    /// Jain fairness window.
    pub window_ns: u64,
    /// Per-flow tables show at most this many rows (worst flows first);
    /// the rest are summarized in a trailing count.
    pub max_table_rows: usize,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            silence_ns: 1_000_000_000,
            window_ns: 1_000_000_000,
            max_table_rows: 40,
        }
    }
}

/// One `"record":"span"` line, parsed back from a dump. Strings replace
/// the collector's `&'static str`s — a report outlives the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    pub packet: u64,
    pub flow: String,
    pub link: u32,
    pub bytes: u64,
    pub class: Option<String>,
    pub arrive_ns: u64,
    pub depth: u64,
    pub transmit_ns: Option<u64>,
    pub outcome: String,
    pub latency_ns: Option<u64>,
    pub stage: Option<u8>,
    pub fault_kind: Option<String>,
    pub end_ns: u64,
}

/// The dump's trip record, if the wire fired.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrip {
    pub reason: String,
    pub flow: Option<String>,
    pub at_ns: u64,
    pub gap_ns: u64,
}

/// Exact latency percentiles for one flow's delivered spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

/// Silence periods observed for one flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SilenceStats {
    pub count: u64,
    pub longest_ns: u64,
    pub total_ns: u64,
}

/// A parsed trace dump plus its derived analyses.
#[derive(Debug, Default)]
pub struct TraceReport {
    pub spans: Vec<ParsedSpan>,
    pub trip: Option<ParsedTrip>,
    /// Lines that failed to parse (a truncated dump still reports).
    pub skipped_lines: u64,
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Exact percentile over a sorted slice (nearest-rank: the smallest
/// value with at least `q` of the sample at or below it).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl TraceReport {
    /// Parses a JSONL dump. Malformed lines, spans missing a required
    /// field and lines with no `record` kind are skipped (and counted),
    /// so a post-mortem truncated by a crash still yields a report;
    /// record kinds the report does not read are ignored.
    pub fn parse(text: &str) -> TraceReport {
        let mut report = TraceReport::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(v) = Value::parse(line) else {
                report.skipped_lines += 1;
                continue;
            };
            match v.get("record").and_then(Value::as_str) {
                Some("span") => {
                    let (Some(packet), Some(flow), Some(outcome)) = (
                        get_u64(&v, "packet"),
                        get_str(&v, "flow"),
                        get_str(&v, "outcome"),
                    ) else {
                        report.skipped_lines += 1;
                        continue;
                    };
                    report.spans.push(ParsedSpan {
                        packet,
                        flow,
                        link: get_u64(&v, "link").map_or(0, |l| l.min(u32::MAX.into()) as u32),
                        bytes: get_u64(&v, "bytes").unwrap_or(0),
                        class: get_str(&v, "class"),
                        arrive_ns: get_u64(&v, "arrive_ns").unwrap_or(0),
                        depth: get_u64(&v, "depth").unwrap_or(0),
                        transmit_ns: get_u64(&v, "transmit_ns"),
                        outcome,
                        latency_ns: get_u64(&v, "latency_ns"),
                        stage: get_u64(&v, "stage").map(|s| s.min(255) as u8),
                        fault_kind: get_str(&v, "fault_kind"),
                        end_ns: get_u64(&v, "end_ns").unwrap_or(0),
                    });
                }
                Some("trip") => {
                    report.trip = Some(ParsedTrip {
                        reason: get_str(&v, "reason").unwrap_or_default(),
                        flow: get_str(&v, "flow"),
                        at_ns: get_u64(&v, "at_ns").unwrap_or(0),
                        gap_ns: get_u64(&v, "gap_ns").unwrap_or(0),
                    });
                }
                Some("meta") | Some(_) => {}
                None => report.skipped_lines += 1,
            }
        }
        report
    }

    /// Per-flow delivery-latency percentiles, flows sorted by name.
    pub fn latency_by_flow(&self) -> BTreeMap<String, LatencyStats> {
        let mut per_flow: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(latency) = span.latency_ns {
                per_flow.entry(span.flow.clone()).or_default().push(latency);
            }
        }
        per_flow
            .into_iter()
            .map(|(flow, mut lat)| {
                lat.sort_unstable();
                let stats = LatencyStats {
                    count: lat.len() as u64,
                    p50: percentile(&lat, 0.50),
                    p95: percentile(&lat, 0.95),
                    p99: percentile(&lat, 0.99),
                    // Each flow's entry is created by the push of its first latency.
                    max: *lat.last().unwrap(),
                };
                (flow, stats)
            })
            .collect()
    }

    /// Per-flow silence periods: gaps between consecutive span
    /// activity instants (arrive and end times) exceeding `threshold`.
    pub fn silence_periods(&self, threshold_ns: u64) -> BTreeMap<String, SilenceStats> {
        let mut instants: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            let f = instants.entry(span.flow.clone()).or_default();
            f.push(span.arrive_ns);
            f.push(span.end_ns);
        }
        let mut out = BTreeMap::new();
        for (flow, mut times) in instants {
            times.sort_unstable();
            let mut stats = SilenceStats::default();
            for pair in times.windows(2) {
                let gap = pair[1] - pair[0];
                if gap > threshold_ns {
                    stats.count += 1;
                    stats.longest_ns = stats.longest_ns.max(gap);
                    stats.total_ns += gap;
                }
            }
            if stats.count > 0 {
                out.insert(flow, stats);
            }
        }
        out
    }

    /// Jain fairness index over consecutive windows of per-flow
    /// delivered bytes. Window `i` covers `[i·window_ns, (i+1)·window_ns)`;
    /// each element is `(i, index, active_flows)`, in window order, for
    /// the windows that hold a delivery only. A timeline therefore has
    /// at most one element per span, whatever times the dump claims.
    pub fn jain_timeline(&self, window_ns: u64) -> Vec<(u64, f64, usize)> {
        let window_ns = window_ns.max(1);
        let mut per_window: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
        for span in &self.spans {
            if span.outcome != "delivered" {
                continue;
            }
            let flows = per_window.entry(span.end_ns / window_ns).or_default();
            let bytes = flows.entry(span.flow.as_str()).or_insert(0);
            *bytes = bytes.saturating_add(span.bytes);
        }
        per_window
            .into_iter()
            .map(|(i, flows)| {
                let n = flows.len();
                let sum: f64 = flows.values().map(|&b| b as f64).sum();
                let sumsq: f64 = flows.values().map(|&b| (b as f64) * (b as f64)).sum();
                let jain = if sumsq > 0.0 {
                    (sum * sum) / (n as f64 * sumsq)
                } else {
                    1.0
                };
                (i, jain, n)
            })
            .collect()
    }

    /// Renders the full analysis table.
    pub fn render(&self, cfg: &ReportConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let delivered = self
            .spans
            .iter()
            .filter(|s| s.outcome == "delivered")
            .count();
        let dropped = self.spans.iter().filter(|s| s.outcome == "dropped").count();
        let faulted = self.spans.iter().filter(|s| s.outcome == "faulted").count();
        let incomplete = self
            .spans
            .iter()
            .filter(|s| s.outcome == "incomplete")
            .count();
        let _ = writeln!(
            out,
            "== trace report: {} spans ({delivered} delivered, {dropped} dropped, {faulted} faulted, {incomplete} incomplete)",
            self.spans.len()
        );
        if self.skipped_lines > 0 {
            let _ = writeln!(out, "  ({} unparseable lines skipped)", self.skipped_lines);
        }
        if let Some(trip) = &self.trip {
            let flow = trip.flow.as_deref().unwrap_or("-");
            let _ = writeln!(
                out,
                "  TRIP: {} (flow {flow}) at t={:.1} ms, gap {:.1} ms",
                trip.reason,
                ms(trip.at_ns),
                ms(trip.gap_ns)
            );
        }
        let latency = self.latency_by_flow();
        if !latency.is_empty() {
            // Worst tails first: on a wide workload the interesting
            // flows are the slow ones, not the alphabetically early.
            let mut rows: Vec<_> = latency.iter().collect();
            rows.sort_by(|a, b| b.1.p99.cmp(&a.1.p99).then_with(|| a.0.cmp(b.0)));
            let shown = rows.len().min(cfg.max_table_rows);
            let _ = writeln!(out, "  per-flow delivery latency (ms), worst p99 first:");
            let _ = writeln!(
                out,
                "    {:<24} {:>6} {:>9} {:>9} {:>9} {:>9}",
                "flow", "n", "p50", "p95", "p99", "max"
            );
            for (flow, s) in &rows[..shown] {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                    flow,
                    s.count,
                    ms(s.p50),
                    ms(s.p95),
                    ms(s.p99),
                    ms(s.max)
                );
            }
            if rows.len() > shown {
                let _ = writeln!(out, "    … and {} more flows", rows.len() - shown);
            }
        }
        let silence = self.silence_periods(cfg.silence_ns);
        let _ = writeln!(
            out,
            "  silence periods (gap > {:.0} ms):",
            ms(cfg.silence_ns)
        );
        if silence.is_empty() {
            let _ = writeln!(out, "    none");
        } else {
            let mut rows: Vec<_> = silence.iter().collect();
            rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
            let shown = rows.len().min(cfg.max_table_rows);
            let _ = writeln!(
                out,
                "    {:<24} {:>6} {:>12} {:>12}",
                "flow", "count", "longest ms", "total ms"
            );
            for (flow, s) in &rows[..shown] {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>6} {:>12.1} {:>12.1}",
                    flow,
                    s.count,
                    ms(s.longest_ns),
                    ms(s.total_ns)
                );
            }
            if rows.len() > shown {
                let _ = writeln!(out, "    … and {} more flows", rows.len() - shown);
            }
        }
        let timeline = self.jain_timeline(cfg.window_ns);
        if !timeline.is_empty() {
            let _ = writeln!(
                out,
                "  Jain fairness timeline ({:.0} ms windows of delivered bytes):",
                ms(cfg.window_ns)
            );
            let _ = writeln!(
                out,
                "    {:>10} {:>7} {:>7}  0 ........ 1",
                "t ms", "jain", "flows"
            );
            // Window `i` ends at (i+1)·window; `i·window` is at most a
            // delivery's end time, so only the `+1` can overflow.
            let window_ns = cfg.window_ns.max(1);
            let mut next = 0u64;
            for &(i, jain, flows) in &timeline {
                // A run of empty windows is one row, at the run's last end.
                if i > next {
                    let empty = i - next;
                    let run = if empty > 1 {
                        format!("  ({empty} empty windows)")
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "    {:>10.0} {:>7} {:>7}{run}",
                        ms(i * window_ns),
                        "-",
                        0
                    );
                }
                let end = i.saturating_add(1).saturating_mul(window_ns);
                let bar = "#".repeat((jain * 12.0).round() as usize);
                let _ = writeln!(
                    out,
                    "    {:>10.0} {:>7.3} {:>7}  {bar}",
                    ms(end),
                    jain,
                    flows
                );
                next = i.saturating_add(1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump() -> String {
        [
            r#"{"record":"meta","schema":"taq-trace-v2","spans_started":4}"#,
            r#"{"record":"trip","reason":"flow-silence","flow":"1:10->2:80","at_ns":9000000000,"gap_ns":4000000000}"#,
            r#"{"record":"span","packet":1,"flow":"1:10->2:80","link":0,"bytes":500,"class":"Normal","arrive_ns":0,"depth":0,"transmit_ns":100,"outcome":"delivered","latency_ns":1000000,"end_ns":1000000}"#,
            r#"{"record":"span","packet":2,"flow":"1:10->2:80","link":0,"bytes":500,"arrive_ns":2000000,"depth":1,"outcome":"delivered","latency_ns":3000000,"end_ns":5000000}"#,
            r#"{"record":"span","packet":3,"flow":"1:11->2:80","link":0,"bytes":500,"arrive_ns":2500000,"depth":2,"outcome":"delivered","latency_ns":2000000,"end_ns":4500000}"#,
            r#"{"record":"span","packet":4,"flow":"1:10->2:80","link":0,"bytes":500,"arrive_ns":9000000000,"depth":0,"outcome":"dropped","stage":4,"end_ns":9000000000}"#,
            "not json at all",
        ]
        .join("\n")
    }

    #[test]
    fn parses_spans_and_trip() {
        let report = TraceReport::parse(&dump());
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.skipped_lines, 1);
        assert_eq!(report.trip.as_ref().unwrap().reason, "flow-silence");
        assert_eq!(report.spans[3].stage, Some(4));
    }

    #[test]
    fn hostile_lines_are_counted_not_fatal() {
        let text = [
            "not json at all",
            r#"{"record":"span","packet":1,"flow":"1:10->2:80","outc"#,
            r#"{"record":"span","flow":"1:10->2:80","outcome":"delivered","end_ns":5}"#,
            r#"{"packet":2,"flow":"1:10->2:80","outcome":"delivered"}"#,
            r#"{"record":"span","packet":3,"flow":"1:10->2:80","outcome":"dropped","link":99999999999999,"stage":70000,"end_ns":9}"#,
            r#"{"record":"from_a_later_schema","packet":4}"#,
            "[]",
            "42",
        ]
        .join("\n");
        let report = TraceReport::parse(&text);
        // Non-JSON, truncated, span without `packet`, no `record` key,
        // and the two records that are not objects; a record kind the
        // report does not read is ignored, not skipped.
        assert_eq!(report.skipped_lines, 6);
        assert_eq!(report.spans.len(), 1);
        let span = &report.spans[0];
        assert_eq!(
            (span.packet, span.link, span.stage),
            (3, u32::MAX, Some(255))
        );
    }

    #[test]
    fn deep_nesting_is_one_skipped_line() {
        let text = format!("{}\n{}", dump(), "[".repeat(100_000));
        let report = TraceReport::parse(&text);
        assert_eq!(report.spans.len(), 4);
        assert_eq!(
            report.skipped_lines, 2,
            "the fixture's one bad line plus the deep one"
        );
    }

    #[test]
    fn latency_percentiles_are_exact() {
        let report = TraceReport::parse(&dump());
        let latency = report.latency_by_flow();
        let s = &latency["1:10->2:80"];
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 1_000_000);
        assert_eq!(s.max, 3_000_000);
        assert_eq!(latency["1:11->2:80"].count, 1);
    }

    #[test]
    fn silence_detects_the_gap() {
        let report = TraceReport::parse(&dump());
        // Flow 1:10->2:80 goes quiet from 5 ms to 9000 ms.
        let silence = report.silence_periods(1_000_000_000);
        let s = &silence["1:10->2:80"];
        assert_eq!(s.count, 1);
        assert_eq!(s.longest_ns, 9_000_000_000 - 5_000_000);
        assert!(!silence.contains_key("1:11->2:80"));
    }

    #[test]
    fn jain_timeline_scores_windows() {
        let report = TraceReport::parse(&dump());
        let timeline = report.jain_timeline(1_000_000_000);
        // All three deliveries land in window 0 (the dropped span at
        // t=9 s contributes nothing): two flows, 1000 vs 500 bytes ->
        // jain = 1500^2 / (2 * (1000^2 + 500^2)) = 0.9.
        assert_eq!(timeline.len(), 1);
        let (window, jain, flows) = timeline[0];
        assert_eq!((window, flows), (0, 2));
        assert!((jain - 0.9).abs() < 1e-9);
        let rendered = report.render(&ReportConfig::default());
        assert!(rendered.contains("TRIP: flow-silence"));
        assert!(rendered.contains("per-flow delivery latency"));
        assert!(rendered.contains("silence periods"));
        assert!(rendered.contains("Jain fairness timeline"));
    }

    /// One delivered span at the far end of time: the timeline keeps
    /// the one window that holds it, and the report prints the empty
    /// windows before it as one row. `scripts/verify.sh trace_smoke`
    /// runs `trace_report --input` on the same file.
    const END_OF_TIME: &str = include_str!("../../../tests/data/trace_end_of_time.jsonl");

    #[test]
    fn a_span_at_the_end_of_time_renders_in_bounded_output() {
        let report = TraceReport::parse(END_OF_TIME);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].end_ns, u64::MAX - 1);
        let window_ns = ReportConfig::default().window_ns;
        let timeline = report.jain_timeline(window_ns);
        assert_eq!(timeline, vec![((u64::MAX - 1) / window_ns, 1.0, 1)]);
        let rendered = report.render(&ReportConfig::default());
        assert!(
            rendered.lines().count() <= 12,
            "output bounded by the span count:\n{rendered}"
        );
        assert!(rendered.contains(&format!("({} empty windows)", timeline[0].0)));
        // A one-nanosecond window puts the span in the last window of
        // all, whose end saturates.
        let timeline = report.jain_timeline(1);
        assert_eq!(timeline, vec![(u64::MAX - 1, 1.0, 1)]);
        let rendered = report.render(&ReportConfig {
            window_ns: 1,
            ..ReportConfig::default()
        });
        assert!(rendered.lines().count() <= 12);
    }

    #[test]
    fn empty_windows_between_deliveries_share_a_row() {
        let text = [
            r#"{"record":"span","packet":1,"flow":"1:10->2:80","bytes":500,"outcome":"delivered","end_ns":500}"#,
            r#"{"record":"span","packet":2,"flow":"1:10->2:80","bytes":500,"outcome":"delivered","end_ns":2500}"#,
            r#"{"record":"span","packet":3,"flow":"1:10->2:80","bytes":500,"outcome":"delivered","end_ns":9500}"#,
        ]
        .join("\n");
        let report = TraceReport::parse(&text);
        let timeline: Vec<u64> = report.jain_timeline(1_000).iter().map(|w| w.0).collect();
        assert_eq!(timeline, vec![0, 2, 9]);
        let rendered = report.render(&ReportConfig {
            window_ns: 1_000,
            ..ReportConfig::default()
        });
        let rows: Vec<&str> = rendered
            .lines()
            .skip_while(|line| !line.contains("Jain fairness timeline"))
            .skip(2)
            .collect();
        // Windows 0, 1 (empty), 2, 3..=8 (six empty), 9.
        assert_eq!(rows.len(), 5, "{rendered}");
        assert!(rows[1].ends_with(" -       0"), "{}", rows[1]);
        assert!(rows[3].ends_with("(6 empty windows)"), "{}", rows[3]);
    }
}
