//! The paper's shape claims, one row each, read from the golden smoke
//! output of the figure each one cites (`tests/golden/smoke/`, which
//! `scripts/verify.sh experiment_smoke` holds byte for byte to what
//! `taq-bench <experiment> --smoke` prints). No row simulates: the
//! number a row gates is the number the figure prints. A golden update
//! that breaks a claim fails its row, which names the figure, the file
//! and the line; the bounds here are the claims, not tolerances to
//! loosen until an update passes.

#[path = "common/golden.rs"]
mod golden;

use golden::{table_rows, Row};

/// A figure's golden smoke output and the names a failure cites.
struct Golden {
    figure: &'static str,
    file: &'static str,
    text: &'static str,
}

/// The [`Golden`] of experiment `$name`, cited as `$figure`.
macro_rules! golden {
    ($figure:literal, $name:literal) => {
        Golden {
            figure: $figure,
            file: concat!("tests/golden/smoke/", $name, ".txt"),
            text: include_str!(concat!("golden/smoke/", $name, ".txt")),
        }
    };
}

/// Fails unless `$holds`, citing the figure, the file, `$line` and its
/// text, and the broken claim, formatted from the remaining arguments.
macro_rules! claim {
    ($g:expr, $line:expr, $holds:expr, $($what:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            let text = $g.text.lines().nth($line - 1).unwrap_or("");
            panic!("{}: {}:{}: {}\n  {text}", $g.figure, $g.file, $line, format!($($what)+));
        }
    };
}

impl Golden {
    /// The output's table rows; panics unless there are `n`.
    fn rows(&self, n: usize) -> Vec<Row<'static>> {
        let rows = table_rows(self.text);
        assert_eq!(rows.len(), n, "{}: {} table rows", self.file, rows.len());
        rows
    }

    /// The first of `rows` whose text fields read `label`.
    fn row<'r>(&self, rows: &'r [Row<'static>], label: &str) -> &'r Row<'static> {
        let found = rows.iter().find(|r| r.label() == label);
        found.unwrap_or_else(|| panic!("{}: {} has no {label} row", self.figure, self.file))
    }
}

/// Fig. 8: TAQ beats DropTail across the whole bandwidth spectrum, its
/// JFI is at least 0.8 from a 5 kbps fair share up, and it keeps the
/// link full.
#[test]
fn fig08_taq_beats_droptail_in_every_cell() {
    let g = golden!("Fig. 8", "fig08_fairness_taq");
    for r in g.rows(34) {
        let (share, taq, dt, util) = (r.num(2), r.num(3), r.num(4), r.num(5));
        claim!(g, r.line, taq > dt + 0.1, "TAQ's JFI ≤ DT's + 0.1");
        claim!(g, r.line, share < 5e3 || taq >= 0.8, "JFI < 0.8");
        claim!(g, r.line, util >= 0.99, "TAQ's utilization < 0.99");
    }
}

/// Fig. 2: under DropTail, 20 s-slice fairness sits below whole-run
/// fairness in every cell, while the link stays busy.
#[test]
fn fig02_droptail_short_term_fairness_falls_below_long_term() {
    let g = golden!("Fig. 2", "fig02_fairness_droptail");
    for r in g.rows(34) {
        let (short, long, util) = (r.num(3), r.num(4), r.num(5));
        claim!(g, r.line, short < long, "short-term JFI ≥ long-term");
        claim!(g, r.line, util > 0.85, "utilization ≤ 0.85");
    }
}

/// Fig. 9: DropTail leaves many flow-windows stalled and TAQ at least
/// halves them. A stalled share is stalled over the sum of the four
/// per-window counts.
#[test]
fn fig09_taq_at_least_halves_stalled_flows() {
    let g = golden!("Fig. 9", "fig09_flow_evolution");
    let rows = g.rows(2);
    let stalled = |r: &Row| r.num(4) / (1..=4).map(|i| r.num(i)).sum::<f64>();
    let (dt, taq) = (g.row(&rows, "droptail"), g.row(&rows, "taq"));
    let dt_share = stalled(dt);
    claim!(g, dt.line, dt_share > 0.2, "stalled share {dt_share:.3}");
    let (share, half) = (stalled(taq), dt_share / 2.0);
    claim!(g, taq.line, share <= half, "stalled share {share:.3}");
}

/// §2.4, from the ablation's baseline rows (jain20, stalled_frac, util):
/// RED stays near DropTail, TAQ clearly beats both, and all three keep
/// the link busy.
#[test]
fn sec24_red_is_near_droptail_and_taq_dominates() {
    let g = golden!("§2.4", "ablation_taq");
    let rows = g.rows(11);
    let [dt, red, taq] = ["droptail", "red", "taq"].map(|name| g.row(&rows, name));
    let (dt_jfi, red_jfi, taq_jfi) = (dt.num(1), red.num(1), taq.num(1));
    let near = (red_jfi - dt_jfi).abs() < 0.45;
    claim!(g, red.line, near, "not within 0.45 of DT's {dt_jfi}");
    let dominates = taq_jfi > dt_jfi + 0.3 && taq_jfi > red_jfi + 0.15;
    claim!(g, taq.line, dominates, "≤ DT's + 0.3 or RED's + 0.15");
    for r in [dt, red, taq] {
        claim!(g, r.line, r.num(3) > 0.9, "utilization ≤ 0.9");
    }
}

/// Fig. 3: under DropTail, fairness is bought with buffer: at each fair
/// share the JFI does not fall as the buffer grows.
#[test]
fn fig03_droptail_fairness_does_not_fall_as_the_buffer_grows() {
    let g = golden!("Fig. 3", "fig03_buffer_tradeoff");
    let mut rows = g.rows(4);
    // By fair share, then buffer: neighbours of one share are a buffer step.
    rows.sort_by_key(|r| (r.fields[0], r.num(3) as u64));
    for w in rows.windows(2).filter(|w| w[0].fields[0] == w[1].fields[0]) {
        let (smaller, larger) = (w[0].num(4), w[1].num(4));
        claim!(g, w[1].line, larger >= smaller, "JFI fell from {smaller}");
    }
}

/// Fig. 6: wherever p > 0.05 the full model is closer to the simulated
/// packets-per-epoch distribution than the partial model (L1), and the
/// simulated silence mass rises with p at each bottleneck.
#[test]
fn fig06_full_model_fits_better_and_silence_rises_with_p() {
    let g = golden!("Fig. 6", "fig06_model_validation");
    let bottlenecks: Vec<usize> = (1..)
        .zip(g.text.lines())
        .filter(|(_, l)| l.starts_with("# --- bottleneck"))
        .map(|(n, _)| n)
        .collect();
    let dist = |r: &Row| (1..r.fields.len()).map(|i| r.num(i)).collect::<Vec<_>>();
    let l1 = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>();
    // (bottleneck, p, silence, line) of each point: a `measured_p=` row,
    // then simulation, model_partial and model_full.
    let mut points = Vec::new();
    for point in g.rows(40).chunks(4) {
        let (line, p) = (point[0].line, point[0].num(1));
        assert_eq!(point[3].fields[0], "model_full", "line {line}");
        let (sim, partial, full) = (dist(&point[1]), dist(&point[2]), dist(&point[3]));
        let (to_full, to_partial) = (l1(&sim, &full), l1(&sim, &partial));
        let better = p <= 0.05 || to_full < to_partial;
        claim!(g, line, better, "L1 {to_full:.3} to full ≥ {to_partial:.3}");
        points.push((bottlenecks.partition_point(|&h| h < line), p, sim[0], line));
    }
    points.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
    for w in points.windows(2).filter(|w| w[0].0 == w[1].0) {
        let ((_, p0, s0, _), (_, p1, s1, line)) = (w[0], w[1]);
        claim!(g, line, s1 > s0, "silence ≤ {s0} at p {p0} < {p1}");
    }
}

/// §3: the full model's timeout mass crosses 1/2, and the partial
/// model's crosses 0.3, between p = 0.10 and p = 0.11 (EXPERIMENTS.md:
/// 0.1027); both masses rise with p, the full model's never below the
/// partial's, and the expected idle time is `1/(1−2p)` to the printed
/// precision.
#[test]
fn sec3_timeouts_tip_between_p_010_and_011() {
    let g = golden!("§3 tipping point", "model_tipping_point");
    // The p rows; the backoff-depth rows below them start at stage 1.
    let rows: Vec<Row> = g.rows(49).into_iter().filter(|r| r.num(0) < 1.0).collect();
    assert_eq!(rows.len(), 45, "{}: 45 p rows", g.file);
    for r in &rows {
        let (p, partial, full, idle) = (r.num(0), r.num(1), r.num(2), r.num(4));
        claim!(
            g,
            r.line,
            full >= partial,
            "full mass {full} < partial {partial}"
        );
        let closed = 1.0 / (1.0 - 2.0 * p);
        let off = (idle - closed).abs();
        claim!(
            g,
            r.line,
            off <= 5e-4 + 1e-12,
            "E[idle] {idle} ≠ 1/(1−2p) = {closed}"
        );
    }
    for w in rows.windows(2) {
        let rise = |i: usize| w[1].num(i) > w[0].num(i);
        claim!(
            g,
            w[1].line,
            rise(1) && rise(2),
            "a timeout mass does not rise with p"
        );
    }
    let at = |p: &str| rows.iter().find(|r| r.fields[0] == p).expect("a p row");
    let (below, above) = (at("0.10"), at("0.11"));
    for (i, threshold, model) in [(2, 0.5, "full"), (1, 0.3, "partial")] {
        let (lo, hi) = (below.num(i), above.num(i));
        claim!(
            g,
            below.line,
            lo < threshold,
            "{model} mass {lo} ≥ {threshold} at p = 0.10"
        );
        claim!(
            g,
            above.line,
            hi > threshold,
            "{model} mass {hi} ≤ {threshold} at p = 0.11"
        );
    }
}

/// Fig. 10: within the 10-packet NewFlow horizon a short flow's download
/// time grows linearly with its length: the points lie within 0.35 s of
/// their least-squares line, whose slope is positive.
#[test]
fn fig10_short_flow_time_is_linear_within_the_newflow_horizon() {
    let g = golden!("Fig. 10", "fig10_short_flows");
    let rows = g.rows(32);
    let points: Vec<&Row> = rows.iter().filter(|r| r.num(0) <= 10.0).collect();
    assert!(points.len() >= 3, "{}: 3 points up to 10 packets", g.file);
    let n = points.len() as f64;
    let mean_x = points.iter().map(|r| r.num(0)).sum::<f64>() / n;
    let mean_y = points.iter().map(|r| r.num(2)).sum::<f64>() / n;
    let dx = |r: &Row| r.num(0) - mean_x;
    let sxy: f64 = points.iter().map(|r| dx(r) * (r.num(2) - mean_y)).sum();
    let slope = sxy / points.iter().map(|r| dx(r).powi(2)).sum::<f64>();
    claim!(g, points[0].line, slope > 0.0, "slope {slope:.3} s/packet");
    for r in points {
        let off = (r.num(2) - mean_y - slope * dx(r)).abs();
        claim!(g, r.line, off <= 0.35, "{off:.3} s off the fit");
    }
}

/// §2.3: at every user count, TAQ leaves no larger share of users with a
/// hang over 20 s than DropTail.
#[test]
fn sec23_taq_hangs_no_more_than_droptail() {
    let g = golden!("§2.3", "sec23_user_hangs");
    let rows = g.rows(2);
    for dt in rows.iter().filter(|r| r.label() == "droptail") {
        let users = |r: &&Row| r.fields[0] == dt.fields[0] && r.label() == "taq";
        let taq = rows.iter().find(users).expect("a taq row per user count");
        let (t, d) = (taq.num(2), dt.num(2));
        claim!(g, taq.line, t <= d, "hang > 20 s share above DT's {d}");
    }
}

/// Fig. 12: for 10–20 KB objects, TAQ with admission control has a lower
/// median, p90 and censored count than DropTail.
#[test]
fn fig12_admission_cuts_small_object_times() {
    let g = golden!("Fig. 12", "fig12_admission_cdf");
    // (line, [median, p90, censored]) from a CDF's `## ` header line.
    let summary = |discipline: &str| {
        let prefix = format!("## {discipline} — 10-20KB objects:");
        let (line, text) = (1..)
            .zip(g.text.lines())
            .find(|(_, l)| l.starts_with(&prefix))
            .unwrap();
        let field = |key: &str| -> f64 {
            let value = text.split_whitespace().find_map(|w| w.strip_prefix(key));
            value
                .and_then(|v| v.trim_end_matches('s').parse().ok())
                .unwrap()
        };
        (line, [field("median="), field("p90="), field("censored=")])
    };
    let ((_, dt), (line, taq)) = (summary("droptail"), summary("taq-admission"));
    for (i, name) in ["median", "p90", "censored"].into_iter().enumerate() {
        let (t, d) = (taq[i], dt[i]);
        claim!(g, line, t < d, "{name} {t} is not below DT's {d}");
    }
}
