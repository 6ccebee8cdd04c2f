//! The model's analytical takeaways: timeout-mass curve, tipping point,
//! expected idle times, and backoff-depth occupancy.
//!
//! Prints the quantities §3 derives: the stationary timeout mass as a
//! function of `p` for both models, the loss rate at which timeouts
//! claim a majority of epochs (which lands at the paper's admission
//! threshold `p_thresh ≈ 0.1`), the closed-form expected idle time
//! `1/(1−2p)`, and the full model's "at least j backoffs" masses.
//!
//! The 45-point p-grid fans across the sweep pool (each point solves
//! two Markov chains independently); output order is fixed regardless
//! of scheduling. Pure math — no simulation, no seeds.
//!
//! Usage: `taq-bench model_tipping_point [--threads N]`

use taq_bench::{sweep_indexed, SweepArgs};
use taq_model::{analysis, FullModel, PartialModel};

pub fn run(args: SweepArgs) {
    println!("# Model analysis — TAQ (EuroSys 2014) §3");
    println!("# p  timeout_mass_partial  timeout_mass_full  silence_full  E[idle epochs]=1/(1-2p)");
    let ps: Vec<f64> = (1..=45).map(|i| i as f64 / 100.0).collect();
    let rows = sweep_indexed(&ps, args.threads, |_, &p| {
        let partial = PartialModel::new(p, 6);
        let full = FullModel::new(p, 6, 3);
        (
            partial.timeout_mass(),
            full.timeout_mass(),
            full.silence_mass(),
            analysis::expected_idle_epochs(p).expect("p < 1/2"),
        )
    });
    for (&p, (partial, full, silence, idle)) in ps.iter().zip(rows) {
        println!("{p:.2} {partial:>20.3} {full:>17.3} {silence:>12.3} {idle:>22.3}");
    }
    println!();
    println!(
        "# tipping point (partial model timeout mass crosses 30%): p = {:.4}",
        analysis::tipping_point(6, 0.3)
    );
    println!(
        "# majority-timeout point (full model mass crosses 50%):   p = {:.4}",
        analysis::majority_timeout_point(6, 3)
    );
    println!(
        "# kneedle knee of the partial-model curve:                p = {:.4}",
        analysis::timeout_knee(6)
    );
    println!();
    println!("# Full model backoff-depth occupancy (p = 0.05 / 0.1 / 0.2 / 0.3):");
    println!("# stage>=j   p=0.05    p=0.10    p=0.20    p=0.30");
    let models: Vec<FullModel> = [0.05, 0.1, 0.2, 0.3]
        .iter()
        .map(|&p| FullModel::new(p, 6, 3))
        .collect();
    for j in 1..=4u32 {
        let masses: Vec<String> = models
            .iter()
            .map(|m| format!("{:>8.4}", m.backoff_mass_at_least(j)))
            .collect();
        println!("{j:>9} {}", masses.join(" "));
    }
}
