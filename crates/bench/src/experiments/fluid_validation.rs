//! `fluid_validation` — the mean-field convergence oracle. Writes
//! `FLUID_validation.json` with sim-vs-fluid distances across a ladder
//! of flow populations, predicted-vs-simulated tipping points, and the
//! timed million-flow stationary solve.
//!
//! The mean-field theorem (McDonald–Reynier; Lautenschlaeger) says the
//! empirical flow-state distribution of `N` i.i.d.-driven flows
//! converges to the fluid model's density as `N → ∞`. This binary turns
//! that into a measurement, two ways:
//!
//! * **Wire ladder** — for each loss regime (below and above the
//!   paper's `p ≈ 0.1` tipping point) it runs the Bernoulli-wire
//!   scenario at `N ∈ {8, 16, …}` via the parallel sweep runner over a
//!   short fixed horizon, compares each run against the fluid
//!   trajectory average at the *realized* loss rate, and records the
//!   L1 distance on the packets-per-epoch distribution plus
//!   timeout-fraction and Jain-index errors. `tests/fluid_vs_sim.rs`
//!   asserts the committed artifact's L1 shrinks as `N` doubles.
//! * **Coupled ladder** — `N` flows share a drop-tail bottleneck at a
//!   fixed per-flow share; the fluid side solves its own
//!   self-consistent loss rate `p*` with no input from the run, so
//!   `p_err` is a genuine prediction error that tightens as burstiness
//!   averages out with `N`.
//!
//! Usage: `taq-bench fluid_validation [--out PATH] [sweep flags]`
//!
//! Sweep flags are the standard [`SweepArgs`] surface: `--seeds`/
//! `--runs` average each ladder point over several seeds (default: the
//! six seeds 11–16), `--threads` fans the grid, `--smoke`/`--full`
//! scale the ladders and the tipping horizon.

use std::time::Instant;
use taq_bench::{
    bernoulli_wire_run, compare_to_coupled_fluid, compare_to_fluid, droptail_coupled_run,
    fluid_family, mean, sweep_cells, sweep_indexed, FluidComparison, SweepArgs, WireObservation,
    FLUID_EPOCH_MS, FLUID_LADDER_MS, FLUID_MAX_BACKOFF, FLUID_WMAX,
};
use taq_model::fluid::{
    fair_share_tipping_point, wire_tipping_point, wire_tipping_point_by_evolution, LossFeedback,
};
use taq_model::{analysis, FluidModel};
use taq_telemetry::Value;

/// One (regime, N) ladder point averaged over seeds.
struct LadderPoint {
    flows: usize,
    l1: f64,
    p_err: f64,
    timeout_err: f64,
    jain_err: f64,
    realized_p: f64,
    sim_timeout: f64,
    fluid_timeout: f64,
    sim_jain: f64,
    fluid_jain: f64,
}

impl LadderPoint {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("flows", Value::UInt(self.flows as u64)),
            ("l1", Value::Float(self.l1)),
            ("p_err", Value::Float(self.p_err)),
            ("timeout_err", Value::Float(self.timeout_err)),
            ("jain_err", Value::Float(self.jain_err)),
            ("realized_p", Value::Float(self.realized_p)),
            ("sim_timeout", Value::Float(self.sim_timeout)),
            ("fluid_timeout", Value::Float(self.fluid_timeout)),
            ("sim_jain", Value::Float(self.sim_jain)),
            ("fluid_jain", Value::Float(self.fluid_jain)),
        ])
    }
}

/// Fans one ladder's (N, seed) cells in parallel through `cell` and
/// averages per N.
fn run_ladder(
    ladder: &[usize],
    seeds: &[u64],
    threads: usize,
    cell: impl Fn(usize, u64) -> (WireObservation, FluidComparison) + Sync,
) -> Vec<LadderPoint> {
    let runs = sweep_cells(ladder, seeds, threads, |&flows, seed| cell(flows, seed));
    ladder
        .iter()
        .zip(runs)
        .map(|(&n, cell)| {
            let avg =
                |f: &dyn Fn(&(WireObservation, FluidComparison)) -> f64| mean(cell.iter().map(f));
            LadderPoint {
                flows: n,
                l1: avg(&|r| r.1.l1),
                p_err: avg(&|r| r.1.p_err),
                timeout_err: avg(&|r| r.1.timeout_err),
                jain_err: avg(&|r| r.1.jain_err),
                realized_p: avg(&|r| r.0.realized_p),
                sim_timeout: avg(&|r| r.0.timeout_fraction),
                fluid_timeout: avg(&|r| r.1.fluid_timeout),
                sim_jain: avg(&|r| r.0.jain),
                fluid_jain: avg(&|r| r.1.fluid_jain),
            }
        })
        .collect()
}

fn print_ladder(points: &[LadderPoint]) {
    println!(
        "#   {:>6} {:>8} {:>8} {:>12} {:>9} {:>12} {:>10}",
        "flows", "l1", "p_err", "timeout_err", "jain_err", "sim_timeout", "fluid"
    );
    for pt in points {
        println!(
            "#   {:>6} {:>8.4} {:>8.4} {:>12.4} {:>9.4} {:>12.4} {:>10.4}",
            pt.flows,
            pt.l1,
            pt.p_err,
            pt.timeout_err,
            pt.jain_err,
            pt.sim_timeout,
            pt.fluid_timeout
        );
    }
}

fn ladder_value(name: &str, extra: Vec<(&str, Value)>, points: &[LadderPoint]) -> Value {
    let mut fields = vec![("name", Value::Str(name.to_string()))];
    fields.extend(extra);
    fields.push((
        "points",
        Value::Array(points.iter().map(LadderPoint::to_value).collect()),
    ));
    Value::object(fields)
}

/// Simulated tipping point: timeout fraction measured on a `p` grid,
/// crossing of `threshold` located by linear interpolation.
fn sim_tipping(
    grid: &[f64],
    flows: usize,
    seed: u64,
    secs: u64,
    threads: usize,
    threshold: f64,
) -> (Vec<(f64, f64)>, Option<f64>) {
    let points: Vec<(f64, f64)> = sweep_indexed(grid, threads, |_, &p| {
        let obs = bernoulli_wire_run(seed, p, flows, secs * 1_000).expect("wire run moved traffic");
        (p, obs.timeout_fraction)
    });
    let crossing = points.windows(2).find_map(|w| {
        let ((p0, f0), (p1, f1)) = (w[0], w[1]);
        if f0 < threshold && f1 >= threshold && f1 > f0 {
            Some(p0 + (threshold - f0) / (f1 - f0) * (p1 - p0))
        } else {
            None
        }
    });
    (points, crossing)
}

pub fn run(args: SweepArgs) {
    let out_path = args.value("--out").unwrap_or("FLUID_validation.json");

    let ladder: Vec<usize> = if args.smoke {
        vec![8, 16, 32, 64]
    } else if args.full {
        vec![8, 16, 32, 64, 128, 256, 512]
    } else {
        vec![8, 16, 32, 64, 128, 256]
    };
    // The wire convergence ladder deliberately uses a SHORT, fixed
    // horizon: the sim-vs-fluid distance is structural bias
    // (N-independent) plus sampling noise ∝ 1/√(N·K), so shrinkage
    // across the ladder is only visible while the noise term is
    // material. Longer horizons push every point onto the bias floor
    // and flatten the curve.
    let ladder_ms = FLUID_LADDER_MS;
    // The tipping sweep is the opposite trade: it estimates a scalar
    // (timeout fraction) per p and wants the transient amortized away.
    let tip_secs = args.secs(20, 60, 120);
    // The coupled ladder sits between: long enough for the queue's
    // loss-rate feedback loop to settle, short enough to sweep.
    let coupled_secs = args.secs(20, 40, 40);
    let epoch_secs = FLUID_EPOCH_MS as f64 / 1_000.0;

    println!(
        "# fluid_validation — mean-field convergence oracle (Full chain, wmax {FLUID_WMAX}, \
         backoff {FLUID_MAX_BACKOFF}; ladder {ladder:?}, {ladder_ms} ms horizon)"
    );

    // One regime either side of the paper's p ≈ 0.1 tipping point.
    let regimes = [("below_tipping", 0.05), ("above_tipping", 0.18)];
    let mut regime_values = Vec::new();
    for (name, wire_p) in regimes {
        let points = run_ladder(&ladder, &args.seeds, args.threads, |flows, seed| {
            let obs =
                bernoulli_wire_run(seed, wire_p, flows, ladder_ms).expect("wire run moved traffic");
            let cmp = compare_to_fluid(&obs);
            (obs, cmp)
        });
        println!("# wire regime {name} (wire p = {wire_p})");
        print_ladder(&points);
        let shrinking = points.windows(2).all(|w| w[1].l1 <= w[0].l1 + 0.02);
        println!("#   l1 monotone (0.02 slack): {shrinking}");
        regime_values.push(ladder_value(
            name,
            vec![("wire_p", Value::Float(wire_p))],
            &points,
        ));
    }

    // Coupled ladders: the fluid solves its own p*, so p_err is a real
    // prediction error. One share above the starvation knee (heavy
    // self-consistent loss) and one just below it.
    let coupled_shares = [
        ("coupled_above_tipping", 4.5),
        ("coupled_below_tipping", 8.0),
    ];
    let mut coupled_values = Vec::new();
    for (name, share_pps) in coupled_shares {
        let points = run_ladder(&ladder, &args.seeds, args.threads, |flows, seed| {
            let obs = droptail_coupled_run(seed, flows, share_pps, coupled_secs * 1_000)
                .expect("coupled run moved traffic");
            let cmp = compare_to_coupled_fluid(&obs, share_pps);
            (obs, cmp)
        });
        println!("# coupled regime {name} (share {share_pps} pps/flow, {coupled_secs} s)");
        print_ladder(&points);
        coupled_values.push(ladder_value(
            name,
            vec![
                ("share_pps", Value::Float(share_pps)),
                ("secs", Value::UInt(coupled_secs)),
            ],
            &points,
        ));
    }

    // Tipping points: model readings vs a simulated crossing.
    let family = fluid_family();
    let fluid_exact = wire_tipping_point(family, 0.5);
    let fluid_evolution = wire_tipping_point_by_evolution(family, 0.5, 0.1, 3_000.0);
    let analysis_majority = analysis::majority_timeout_point(FLUID_WMAX as u32, FLUID_MAX_BACKOFF);
    let fair_share = fair_share_tipping_point(family, epoch_secs, 0.1);
    let tip_grid: Vec<f64> = if args.smoke {
        vec![0.06, 0.10, 0.14, 0.18]
    } else {
        vec![0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18]
    };
    let (tip_points, sim_crossing) =
        sim_tipping(&tip_grid, 20, args.seeds[0], tip_secs, args.threads, 0.5);
    println!(
        "# tipping: fluid exact {fluid_exact:.4}, evolution {fluid_evolution:.4}, \
         analysis {analysis_majority:.4}, sim {sim_crossing:?}, fair share {fair_share:.2} pps"
    );
    let mut tipping_fields = vec![
        ("threshold", Value::Float(0.5)),
        ("fluid_exact", Value::Float(fluid_exact)),
        ("fluid_evolution", Value::Float(fluid_evolution)),
        ("analysis_majority", Value::Float(analysis_majority)),
        ("fair_share_pps", Value::Float(fair_share)),
        (
            "sim_points",
            Value::Array(
                tip_points
                    .iter()
                    .map(|&(p, f)| {
                        Value::object(vec![
                            ("p", Value::Float(p)),
                            ("timeout_fraction", Value::Float(f)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(c) = sim_crossing {
        tipping_fields.push(("sim_crossing", Value::Float(c)));
    }

    // The headline capability: a million-flow stationary prediction,
    // timed. The solver's cost is N-independent (a bisection over small
    // dense solves), so this must land far under the 100 ms budget.
    let flows = 1_000_000.0;
    let share_pps = 2.0;
    let model = FluidModel::new(
        family,
        LossFeedback::DropTail {
            capacity_pps: flows * share_pps,
            buffer_pkts: flows,
        },
        flows,
        epoch_secs,
    );
    let t0 = Instant::now();
    let st = model.stationary();
    let solve_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    let horizon_epochs = 300.0; // a one-minute deployment window
    let jain = model.predicted_jain(&st, horizon_epochs);
    let within_budget = solve_ms <= 100.0;
    println!(
        "# million-flow stationary: p* {:.4}, timeout {:.4}, goodput {:.2} pps/flow, \
         jain@{horizon_epochs:.0} epochs {jain:.4}",
        st.p, st.timeout_fraction, st.per_flow_goodput_pps
    );

    let json = Value::object(vec![
        ("schema", Value::Str("taq-fluid-validation-v1".to_string())),
        ("smoke", Value::Bool(args.smoke)),
        ("full", Value::Bool(args.full)),
        ("ladder_ms", Value::UInt(ladder_ms)),
        ("tip_secs", Value::UInt(tip_secs)),
        (
            "seeds",
            Value::Array(args.seeds.iter().map(|&s| Value::UInt(s)).collect()),
        ),
        ("regimes", Value::Array(regime_values)),
        ("coupled", Value::Array(coupled_values)),
        ("tipping", Value::object(tipping_fields)),
        (
            "million_flow",
            Value::object(vec![
                ("flows", Value::UInt(flows as u64)),
                ("fair_share_pps", Value::Float(share_pps)),
                ("solve_ms", Value::Float(solve_ms)),
                ("budget_ms", Value::Float(100.0)),
                ("within_budget", Value::Bool(within_budget)),
                ("p", Value::Float(st.p)),
                ("timeout_fraction", Value::Float(st.timeout_fraction)),
                ("silence_fraction", Value::Float(st.silence_fraction)),
                (
                    "per_flow_goodput_pps",
                    Value::Float(st.per_flow_goodput_pps),
                ),
                ("predicted_jain", Value::Float(jain)),
                ("saturated", Value::Bool(st.saturated)),
            ]),
        ),
    ])
    .to_json();
    std::fs::write(out_path, json + "\n").expect("write validation report");
    println!("# wrote {out_path}");
}
