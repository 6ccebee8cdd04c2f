//! The mean-field convergence oracle, as a test: the sim-vs-fluid
//! distance must shrink as the flow population doubles. First, the
//! Markov models against simulation under their *own* assumptions
//! (Bernoulli loss at exactly `p`, windows capped at Wmax, T0 = 2×RTT):
//! Figure 6's controlled companion, isolating the chain.
//!
//! The wire ladder re-measures live (short 2 s horizon, where sampling
//! noise ∝ 1/√(N·K) dominates the chain's fixed structural bias and
//! its decay with `N` is visible); the committed artifact produced by
//! `fluid_validation --full` is additionally parsed and held to the
//! same monotonicity contract. Tolerances are calibrated against the
//! six-seed averages recorded in `results/FLUID_validation.json`.

use taq_bench::{
    bernoulli_wire_run, compare_to_coupled_fluid, compare_to_fluid, default_threads,
    droptail_coupled_run, sweep_indexed, FLUID_LADDER_MS, FLUID_WMAX as WMAX,
};
use taq_model::{FullModel, PartialModel};
use taq_telemetry::Value;

/// The packets-per-epoch distribution and the realized loss rate of
/// `flows` capped flows over a Bernoulli wire at `p` for `secs`, seed 9.
fn wire(p: f64, flows: usize, secs: u64) -> (Vec<f64>, f64) {
    let obs = bernoulli_wire_run(9, p, flows, secs * 1_000).expect("traffic flows");
    (obs.dist, obs.realized_p)
}

#[test]
fn bernoulli_loss_rate_is_realized() {
    let (_, realized) = wire(0.15, 10, 120);
    assert!((realized - 0.15).abs() < 0.02, "realized p {realized}");
}

#[test]
fn models_bracket_simulated_silence_under_iid_loss() {
    // The two models bound reality from opposite sides: the partial
    // model understates silence (its aggregated b* redraws a fresh
    // entry-conditioned dwell on every consecutive failure), while the
    // full model overstates it (it sends every low-window loss straight
    // to a timeout, where real TCP's cumulative ACKs often slide the
    // window past a single hole). Simulation lands between them.
    for &p in &[0.1, 0.2, 0.3] {
        let (sim, realized) = wire(p, 20, 300);
        let full = FullModel::new(realized, WMAX as u32, 3).n_sent_distribution();
        let partial = PartialModel::new(realized, WMAX as u32).n_sent_distribution();
        let bracket = partial[0] - 0.05..=full[0] + 0.05;
        assert!(bracket.contains(&sim[0]), "p={p}: {sim:.3?} {bracket:.3?}");
    }
}

#[test]
fn timeout_mass_grows_sharply_with_p_in_simulation() {
    // The model's tipping-point story, observed in simulation: silence
    // fraction grows steeply between p = 0.05 and p = 0.25.
    let (lo, _) = wire(0.05, 20, 200);
    let (hi, _) = wire(0.25, 20, 200);
    assert!(hi[0] > 2.5 * lo[0], "silence {:.3} vs {:.3}", hi[0], lo[0]);
}

#[test]
fn low_loss_concentrates_at_wmax_in_simulation() {
    let (sim, _) = wire(0.01, 10, 200);
    assert!(sim[WMAX] > 0.5, "mostly at the window cap: {sim:?}");
}

#[test]
fn zero_traffic_is_an_explicit_error() {
    // A horizon shorter than every flow's start offset moves nothing;
    // the realized loss rate must be a reported error, not 0/0 = NaN.
    let err = bernoulli_wire_run(9, 0.1, 2, 0).expect_err("no packet can move in 0 s");
    assert!(err.contains("no traffic"), "names the cause: {err}");
}

/// Seeds matching the committed artifact's default ladder averaging.
const SEEDS: [u64; 6] = [11, 12, 13, 14, 15, 16];

/// Adjacent ladder points may wiggle by this much (seed noise) as long
/// as the overall trend shrinks.
const STEP_SLACK: f64 = 0.02;

/// Seed-averaged wire L1 ladder over `flows_ladder` at `wire_p`, every
/// (N, seed) cell fanned across `threads`.
fn wire_l1_ladder(wire_p: f64, flows_ladder: &[usize], threads: usize) -> Vec<f64> {
    let cells: Vec<(usize, u64)> = flows_ladder
        .iter()
        .flat_map(|&n| SEEDS.iter().map(move |&s| (n, s)))
        .collect();
    let l1s = sweep_indexed(&cells, threads, |_, &(flows, seed)| {
        let obs = bernoulli_wire_run(seed, wire_p, flows, FLUID_LADDER_MS)
            .expect("wire run moved traffic");
        (flows, compare_to_fluid(&obs).l1)
    });
    flows_ladder
        .iter()
        .map(|&n| {
            let cell: Vec<f64> = l1s
                .iter()
                .filter(|(flows, _)| *flows == n)
                .map(|(_, l1)| *l1)
                .collect();
            cell.iter().sum::<f64>() / cell.len() as f64
        })
        .collect()
}

fn assert_shrinking(ladder: &[usize], l1: &[f64], min_drop: f64, what: &str) {
    for (w, ns) in l1.windows(2).zip(ladder.windows(2)) {
        assert!(
            w[1] <= w[0] + STEP_SLACK,
            "{what}: L1 rose beyond slack {} → {} flows: {:.4} → {:.4} (ladder {l1:?})",
            ns[0],
            ns[1],
            w[0],
            w[1]
        );
    }
    let (first, last) = (l1[0], l1[l1.len() - 1]);
    assert!(
        last <= first - min_drop,
        "{what}: no overall shrink across {} doublings: {first:.4} → {last:.4} (need −{min_drop})",
        l1.len() - 1
    );
}

#[test]
fn wire_l1_shrinks_as_population_doubles_below_tipping() {
    let ladder = [8, 16, 32, 64];
    let l1 = wire_l1_ladder(0.05, &ladder, default_threads());
    // Artifact calibration (6 seeds): 0.293 → 0.238 over these points.
    assert_shrinking(&ladder, &l1, 0.02, "wire p=0.05");
}

#[test]
fn wire_l1_shrinks_as_population_doubles_above_tipping() {
    let ladder = [8, 16, 32, 64];
    let l1 = wire_l1_ladder(0.18, &ladder, default_threads());
    // Artifact calibration (6 seeds): 0.344 → 0.313 over these points.
    assert_shrinking(&ladder, &l1, 0.01, "wire p=0.18");
}

#[test]
fn coupled_prediction_tightens_as_population_doubles() {
    // The coupled fixed point gets no input from the run, so both the
    // density distance and the loss-rate error are genuine prediction
    // errors; burstiness-driven deviations average out with N.
    // Artifact calibration (6 seeds, 40 s): L1 0.39 → 0.14, p_err
    // 0.030 → 0.002 from N=8 to N=128.
    let share_pps = 4.5;
    let ladder = [8, 32, 128];
    let cells: Vec<(usize, u64)> = ladder
        .iter()
        .flat_map(|&n| [11u64, 12, 13].iter().map(move |&s| (n, s)))
        .collect();
    let runs = sweep_indexed(&cells, default_threads(), |_, &(flows, seed)| {
        let obs = droptail_coupled_run(seed, flows, share_pps, 40_000)
            .expect("coupled run moved traffic");
        let cmp = compare_to_coupled_fluid(&obs, share_pps);
        (flows, cmp.l1, cmp.p_err)
    });
    let avg = |n: usize, f: &dyn Fn(&(usize, f64, f64)) -> f64| {
        let cell: Vec<f64> = runs.iter().filter(|r| r.0 == n).map(f).collect();
        cell.iter().sum::<f64>() / cell.len() as f64
    };
    let (l1_first, l1_last) = (avg(8, &|r| r.1), avg(128, &|r| r.1));
    let (p_first, p_last) = (avg(8, &|r| r.2), avg(128, &|r| r.2));
    assert!(
        l1_last <= l1_first - 0.1,
        "coupled L1 should drop sharply with N: {l1_first:.4} → {l1_last:.4}"
    );
    assert!(
        p_last < p_first,
        "coupled p_err should tighten with N: {p_first:.4} → {p_last:.4}"
    );
    assert!(
        p_last < 0.02,
        "large-N loss-rate prediction lands within 2 pts: {p_last:.4}"
    );
}

#[test]
fn ladder_is_deterministic_across_sweep_threads() {
    // The oracle's numbers must be exactly reproducible f64s no matter
    // how the sweep is fanned: same seeds, same bits.
    let cells: Vec<(usize, u64)> = vec![(8, 11), (8, 12), (16, 11), (16, 12)];
    let run = |threads: usize| -> Vec<(u64, u64, u64)> {
        sweep_indexed(&cells, threads, |_, &(flows, seed)| {
            let obs =
                bernoulli_wire_run(seed, 0.05, flows, FLUID_LADDER_MS).expect("traffic flows");
            let cmp = compare_to_fluid(&obs);
            (
                cmp.l1.to_bits(),
                obs.realized_p.to_bits(),
                obs.jain.to_bits(),
            )
        })
    };
    let one = run(1);
    assert_eq!(one, run(2), "threads=2 must reproduce threads=1 bits");
    assert_eq!(one, run(4), "threads=4 must reproduce threads=1 bits");
}

/// The committed artifact: parsed, then held to the convergence and
/// latency contracts the oracle exists to enforce.
#[test]
fn committed_artifact_shows_convergence_and_fast_solves() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/FLUID_validation.json");
    let raw = std::fs::read_to_string(path).expect("committed results/FLUID_validation.json");
    let doc = Value::parse(&raw).expect("artifact parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("taq-fluid-validation-v1")
    );

    let regimes = doc
        .get("regimes")
        .and_then(Value::as_array)
        .expect("regimes array");
    assert_eq!(
        regimes.len(),
        2,
        "one regime each side of the tipping point"
    );
    for regime in regimes {
        let name = regime.get("name").and_then(Value::as_str).unwrap_or("?");
        let points = regime
            .get("points")
            .and_then(Value::as_array)
            .expect("ladder points");
        assert!(points.len() >= 4, "{name}: at least three doublings");
        let l1: Vec<f64> = points
            .iter()
            .map(|p| p.get("l1").and_then(Value::as_f64).expect("l1"))
            .collect();
        let flows: Vec<usize> = points
            .iter()
            .map(|p| p.get("flows").and_then(Value::as_u64).expect("flows") as usize)
            .collect();
        assert!(
            flows.windows(2).all(|w| w[1] == 2 * w[0]),
            "{name}: ladder doubles: {flows:?}"
        );
        assert_shrinking(&flows, &l1, 0.02, name);
    }

    let million = doc.get("million_flow").expect("million_flow section");
    let solve_ms = million
        .get("solve_ms")
        .and_then(Value::as_f64)
        .expect("solve_ms");
    assert!(
        solve_ms <= 100.0,
        "million-flow stationary must solve within 100 ms: {solve_ms:.2} ms"
    );
    assert_eq!(
        million.get("within_budget").and_then(Value::as_bool),
        Some(true)
    );

    // The tipping section's three model readings agree with each other
    // and the simulated crossing lands in their neighborhood.
    let tipping = doc.get("tipping").expect("tipping section");
    let read = |k: &str| {
        tipping
            .get(k)
            .and_then(Value::as_f64)
            .expect("tipping field")
    };
    let exact = read("fluid_exact");
    assert!((exact - read("fluid_evolution")).abs() < 5e-3);
    assert!((exact - read("analysis_majority")).abs() < 1e-6);
    let sim = read("sim_crossing");
    assert!(
        (sim - exact).abs() < 0.05,
        "simulated tipping {sim:.4} near fluid {exact:.4}"
    );
}

/// Past the flow count where 100 Mbps of server access link would queue
/// (about 830 flows on the wire), the access link scales with the
/// population. At 2 048 flows a wire run then keeps to the fluid model
/// as the ladder's points do; on a fixed 100 Mbps link it was 0.83 busy,
/// its timeout fraction read 0.37 where the model says about 0.12, and
/// its L1 read 0.51. Both runs also check the link stayed at most half
/// busy.
#[test]
fn a_2048_flow_run_meets_no_second_bottleneck() {
    let obs = bernoulli_wire_run(11, 0.05, 2_048, FLUID_LADDER_MS).expect("wire run moved traffic");
    let cmp = compare_to_fluid(&obs);
    assert!(
        cmp.timeout_err < 0.1 && cmp.l1 < 0.3,
        "2 048 wire flows: timeout error {:.3}, L1 {:.3}",
        cmp.timeout_err,
        cmp.l1
    );
    droptail_coupled_run(11, 2_048, 8.0, FLUID_LADDER_MS).expect("coupled run moved traffic");
}
