//! Validating the Markov models against simulation under the models'
//! *own* assumptions: independent per-packet loss with probability `p`
//! (a Bernoulli wire, no queue contention), windows capped at Wmax, and
//! a base timeout near 2×RTT.
//!
//! This is the controlled companion to the Figure 6 experiment (which
//! uses contention-induced loss): here `p` is set exactly, so the
//! comparison isolates the chain itself.

use taq_metrics::EpochActivity;
use taq_model::{ChainFamily, FluidModel, FullModel, LossFeedback, PartialModel};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime, UnboundedFifo};
use taq_tcp::TcpConfig;
use taq_workloads::{DumbbellSpec, BULK_BYTES};

const WMAX: usize = 6;

/// Runs independent capped flows over an uncontended Bernoulli-loss
/// bottleneck and returns the empirical packets-per-epoch distribution
/// alongside the realized loss rate.
///
/// Errors instead of dividing 0/0 when the run moved no traffic at all
/// (e.g. a horizon shorter than the flow stagger).
fn simulate(p: f64, flows: usize, secs: u64) -> Result<(Vec<f64>, f64), String> {
    let rate = Bandwidth::from_mbps(10); // Fast: no queueing, no contention.
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let tcp = TcpConfig {
        max_window_segments: WMAX as u32,
        min_rto: SimDuration::from_millis(400), // The model's T0 = 2×RTT.
        ..TcpConfig::default()
    };
    let mut sc = DumbbellSpec::new(topo)
        .tcp(tcp)
        .build(9, Box::new(UnboundedFifo::new()));
    let bottleneck = sc.db.bottleneck;
    sc.sim.set_link_loss(bottleneck, p);
    let epoch = SimDuration::from_millis(200);
    let activity = sc
        .sim
        .add_monitor(Box::new(EpochActivity::new(bottleneck, epoch, WMAX)));
    sc.add_bulk_clients(flows, BULK_BYTES, SimDuration::from_secs(1));
    let horizon = SimTime::from_secs(secs);
    sc.run_until(horizon);
    let stats = sc.sim.link_stats(bottleneck);
    let offered = stats.wire_lost_pkts + stats.transmitted_pkts;
    if offered == 0 {
        return Err(format!(
            "no traffic offered (p {p}, {flows} flows, {secs} s)"
        ));
    }
    let realized = stats.wire_lost_pkts as f64 / offered as f64;
    let dist = sc
        .sim
        .monitor_mut::<EpochActivity>(activity)
        .expect("epoch monitor")
        .distribution(horizon);
    Ok((dist, realized))
}

#[test]
fn bernoulli_loss_rate_is_realized() {
    let (_, realized) = simulate(0.15, 10, 120).expect("traffic flows");
    assert!(
        (realized - 0.15).abs() < 0.02,
        "wire loss realizes the configured p: {realized}"
    );
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
        let (sim, realized) = simulate(p, 20, 300).expect("traffic flows");
        let full = FullModel::new(realized, WMAX as u32, 3).n_sent_distribution();
        let partial = PartialModel::new(realized, WMAX as u32).n_sent_distribution();
        assert!(
            partial[0] - 0.05 <= sim[0],
            "p={p}: partial model silence {:.3} should lower-bound sim {:.3}",
            partial[0],
            sim[0]
        );
        assert!(
            sim[0] <= full[0] + 0.05,
            "p={p}: full model silence {:.3} should upper-bound sim {:.3}",
            full[0],
            sim[0]
        );
    }
}

#[test]
fn timeout_mass_grows_sharply_with_p_in_simulation() {
    // The model's tipping-point story, observed in simulation: silence
    // fraction grows steeply between p = 0.05 and p = 0.25.
    let (lo, _) = simulate(0.05, 20, 200).expect("traffic flows");
    let (hi, _) = simulate(0.25, 20, 200).expect("traffic flows");
    assert!(
        hi[0] > 2.5 * lo[0],
        "silence at p=0.25 ({:.3}) should dwarf p=0.05 ({:.3})",
        hi[0],
        lo[0]
    );
}

#[test]
fn low_loss_concentrates_at_wmax_in_simulation() {
    let (sim, _) = simulate(0.01, 10, 200).expect("traffic flows");
    assert!(
        sim[WMAX] > 0.5,
        "at 1% loss flows mostly sit at the window cap: {sim:?}"
    );
}

#[test]
fn zero_traffic_is_an_explicit_error() {
    // A horizon shorter than every flow's start offset moves nothing;
    // the realized loss rate must be a reported error, not 0/0 = NaN.
    let err = simulate(0.1, 2, 0).expect_err("no packet can move in 0 s");
    assert!(
        err.contains("no traffic"),
        "diagnostic names the cause: {err}"
    );
}

#[test]
fn fluid_stationary_matches_full_model_dtmc_on_uncoupled_wire() {
    // On a Bernoulli wire the fluid model's stationary density IS the
    // full chain's DTMC stationary vector — the ODE adds nothing at
    // equilibrium. Cross-check the two solvers (dense linear solve
    // inside `Dtmc::stationary` vs the fluid summarizer's plumbing)
    // against each other to 1e-6 total variation.
    for &p in &[0.02, 0.1027, 0.25] {
        let fluid = FluidModel::new(
            ChainFamily::Full {
                wmax: WMAX as u32,
                max_backoff: 3,
            },
            LossFeedback::Wire { p },
            50.0,
            0.2,
        );
        let st = fluid.stationary();
        let reference = FullModel::new(p, WMAX as u32, 3);
        let pi = reference.stationary();
        assert_eq!(st.density.len(), pi.len(), "state spaces agree");
        let tv = 0.5
            * st.density
                .iter()
                .zip(&pi)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
        assert!(tv < 1e-6, "p={p}: fluid vs DTMC stationary TV {tv:.2e}");
        // And the aggregated observables derived from it line up too.
        let n_sent = reference.n_sent_distribution();
        let l1: f64 = st
            .n_sent
            .iter()
            .zip(&n_sent)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < 1e-9, "p={p}: n_sent aggregation L1 {l1:.2e}");
    }
}
