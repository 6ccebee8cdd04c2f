//! Shared harness for validating the mean-field fluid model against
//! simulation (the `fluid_validation` experiment and `tests/fluid_vs_sim`
//! drive it; `fig06_model_validation` runs its capped flows through
//! [`fluid_run`]).
//!
//! Two scenarios, matching the model's two feedback modes:
//!
//! * [`bernoulli_wire_run`] — an uncontended Bernoulli-loss bottleneck
//!   (the chain's own assumption set). The sim-vs-fluid distance here
//!   is the chain's fixed structural bias plus finite-`N` sampling
//!   noise ∝ `1/√(N·K)`; the convergence ladder holds the horizon `K`
//!   deliberately **short** so the noise term dominates and its decay
//!   with `N` is visible. The fluid reference is the trajectory's
//!   *time average* over the same horizon, so the slow-start transient
//!   appears on both sides and cancels instead of adding bias.
//! * [`droptail_coupled_run`] — `N` flows sharing a drop-tail
//!   bottleneck provisioned at a fixed per-flow share, against the
//!   coupled fluid fixed point. Here the finite-`N` deviation is
//!   genuine interaction: bursty arrivals overflow the buffer in ways
//!   the smooth fluid queue cannot, and the realized loss rate walks
//!   toward the fluid `p*` as `N` grows.

use taq_metrics::{jain_index, EpochActivity};
use taq_model::fluid::l1_distance;
use taq_model::{ChainFamily, FluidModel, LossFeedback};
use taq_sim::{Bandwidth, DumbbellConfig, MonitorId, SimDuration, SimTime};
use taq_tcp::TcpConfig;
use taq_workloads::{DumbbellScenario, DumbbellSpec, QdiscSpec, BULK_BYTES};

/// Window cap shared by the sim TCP config and the model.
pub const FLUID_WMAX: usize = 6;
/// Deepest explicit backoff stage of the reference chain.
pub const FLUID_MAX_BACKOFF: u32 = 3;
/// Epoch length (one RTT of the 200 ms dumbbell) in milliseconds.
pub const FLUID_EPOCH_MS: u64 = 200;
/// Flow start stagger: one epoch, so every flow's anchor sits within a
/// single epoch of the population start and the fluid trajectory's
/// clock matches the monitors'.
pub const FLUID_STAGGER_MS: u64 = 200;
/// Canonical wire-ladder horizon. Short on purpose: the ladder watches
/// sampling noise decay with `N`, and a long horizon would average the
/// noise away at every `N` and flatten the curve onto the chain's bias
/// floor (measured ≈ 0.2 L1 at p = 0.05).
pub const FLUID_LADDER_MS: u64 = 2_000;
/// Mean anchor offset (stagger midpoint plus access delay) subtracted
/// from the horizon before converting to epochs, so the fluid average
/// spans what the per-flow epoch windows actually observed.
const ANCHOR_OFFSET_MS: f64 = 300.0;

/// The chain family the validation pins the fluid model to.
pub fn fluid_family() -> ChainFamily {
    ChainFamily::Full {
        wmax: FLUID_WMAX as u32,
        max_backoff: FLUID_MAX_BACKOFF,
    }
}

/// The per-flow measurement window, in epochs, of a run truncated at
/// `horizon_ms` — the window the fluid trajectory average must match.
pub fn fluid_horizon_epochs(horizon_ms: u64) -> f64 {
    ((horizon_ms as f64 - ANCHOR_OFFSET_MS) / FLUID_EPOCH_MS as f64).max(1.0)
}

/// RK4 step (in epochs) for trajectory averages. `P − I` has spectral
/// radius at most 2, so 0.25 sits far inside the RK4 stability region
/// while keeping an evolution a few hundred cheap steps.
const FLUID_DT_EPOCHS: f64 = 0.25;

/// The standard capped-window TCP config of the validation scenarios.
fn fluid_tcp() -> TcpConfig {
    TcpConfig {
        max_window_segments: FLUID_WMAX as u32,
        min_rto: SimDuration::from_millis(2 * FLUID_EPOCH_MS), // T0 = 2×RTT.
        ..TcpConfig::default()
    }
}

/// What one validation simulation run observed.
#[derive(Debug, Clone)]
pub struct WireObservation {
    /// Empirical packets-per-epoch distribution (index `n` = `n` sent).
    pub dist: Vec<f64>,
    /// Realized loss rate (wire loss on the Bernoulli scenario, queue
    /// drop rate on the coupled one).
    pub realized_p: f64,
    /// Fraction of epochs with ≤ 1 packet sent.
    pub timeout_fraction: f64,
    /// Jain index of whole-run per-flow totals (absent flows count 0).
    pub jain: f64,
    /// Measurement horizon in epochs (anchor offset already removed).
    pub epochs: f64,
    /// Flow population.
    pub flows: usize,
}

/// Runs `flows` capped bulk flows for `horizon_ms` through `qdisc` and
/// `loss` on the bottleneck of the 200 ms dumbbell at `rate`, access
/// links at least `access` fast, sampled at the validation's epoch.
fn validation_run(
    seed: u64,
    rate: Bandwidth,
    access: Bandwidth,
    qdisc: &QdiscSpec,
    loss: f64,
    flows: usize,
    horizon_ms: u64,
) -> (DumbbellScenario, MonitorId) {
    let mut topo = DumbbellConfig::with_rtt_200ms(rate);
    topo.access_rate = topo.access_rate.max(access);
    let mut sc = DumbbellSpec::new(topo).tcp(fluid_tcp()).build(seed, qdisc);
    let bottleneck = sc.db.bottleneck;
    sc.sim.set_link_loss(bottleneck, loss);
    let epoch = SimDuration::from_millis(FLUID_EPOCH_MS);
    let stagger = SimDuration::from_millis(FLUID_STAGGER_MS);
    let activity = fluid_run(&mut sc, flows, epoch, stagger, horizon_ms);
    (sc, activity)
}

/// Adds `flows` bulk clients to `sc`, started over `stagger`, samples
/// each one's packets per `epoch` on the bottleneck (up to
/// [`FLUID_WMAX`]) and runs to `horizon_ms`; returns the
/// `EpochActivity` monitor. Panics if the server's access link was busy
/// more than half the run: a second bottleneck besides the studied.
pub fn fluid_run(
    sc: &mut DumbbellScenario,
    flows: usize,
    epoch: SimDuration,
    stagger: SimDuration,
    horizon_ms: u64,
) -> MonitorId {
    let bottleneck = sc.db.bottleneck;
    let activity = sc
        .sim
        .add_monitor(Box::new(EpochActivity::new(bottleneck, epoch, FLUID_WMAX)));
    sc.add_bulk_clients(flows, BULK_BYTES, stagger);
    sc.run_until(SimTime::from_millis(horizon_ms));
    let server_link = sc.sim.link_stats(sc.server_link);
    let busy = server_link.utilization(SimDuration::from_millis(horizon_ms));
    assert!(
        busy <= 0.5,
        "{flows} flows kept the server's access link {busy:.2} busy: a second bottleneck"
    );
    activity
}

/// Extracts the fluid-comparable observables from a finished scenario.
fn observe(
    sc: &mut DumbbellScenario,
    activity: MonitorId,
    horizon_ms: u64,
    flows: usize,
    realized_p: f64,
) -> WireObservation {
    let horizon = SimTime::from_millis(horizon_ms);
    let monitor = sc
        .sim
        .monitor_mut::<EpochActivity>(activity)
        .expect("epoch monitor");
    let dist = monitor.distribution(horizon);
    let timeout_fraction = monitor.timeout_fraction(horizon);
    let mut totals: Vec<f64> = monitor
        .per_flow_totals()
        .iter()
        .map(|&t| t as f64)
        .collect();
    totals.resize(flows, 0.0); // flows that never sent count as zero
    WireObservation {
        dist,
        realized_p,
        timeout_fraction,
        jain: jain_index(&totals),
        epochs: fluid_horizon_epochs(horizon_ms),
        flows,
    }
}

/// Runs `flows` capped flows over an uncontended Bernoulli-loss
/// bottleneck for `horizon_ms` and extracts the fluid-comparable
/// observables; panics if the server's access link was more than half
/// busy.
///
/// # Errors
///
/// Returns an error if the run moved no traffic at all (the realized
/// loss rate would otherwise be 0/0).
pub fn bernoulli_wire_run(
    seed: u64,
    p: f64,
    flows: usize,
    horizon_ms: u64,
) -> Result<WireObservation, String> {
    // Scale the bottleneck with the population so it never contends:
    // worst-case demand is Wmax packets per flow per epoch
    // (≈ 120 kbps/flow at 500 B), provisioned 3× over.
    let rate = Bandwidth::from_kbps((400 * flows as u64).max(10_000));
    // The server's access link carries that demand at 192 kbps a flow
    // (1.6× the worst case): the 100 Mbps floor through 520 flows.
    let access = Bandwidth::from_kbps(192 * flows as u64);
    let (mut sc, activity) =
        validation_run(seed, rate, access, &QdiscSpec::Fifo, p, flows, horizon_ms);
    let stats = sc.sim.link_stats(sc.db.bottleneck);
    let offered = stats.wire_lost_pkts + stats.transmitted_pkts;
    if offered == 0 {
        return Err(format!(
            "no traffic offered (seed {seed}, p {p}, {flows} flows, {horizon_ms} ms)"
        ));
    }
    let realized_p = stats.wire_lost_pkts as f64 / offered as f64;
    Ok(observe(&mut sc, activity, horizon_ms, flows, realized_p))
}

/// Runs `flows` capped flows into a shared drop-tail bottleneck
/// provisioned at `share_pps` packets per second per flow (one RTT of
/// buffering) — the scenario [`LossFeedback::DropTail`] models; panics
/// if the server's access link was more than half busy.
///
/// # Errors
///
/// Returns an error if the run moved no traffic at all.
pub fn droptail_coupled_run(
    seed: u64,
    flows: usize,
    share_pps: f64,
    horizon_ms: u64,
) -> Result<WireObservation, String> {
    let (rate, buffer) = coupled_provisioning(flows, share_pps);
    // The server offers the saturated bottleneck its rate plus its drops:
    // thrice that rate is a third busy (the floor to 1 041 flows at 8 pps).
    let access = Bandwidth::from_bps(3 * rate.bps());
    let qdisc = QdiscSpec::DropTail {
        buffer_pkts: buffer,
    };
    let (mut sc, activity) = validation_run(seed, rate, access, &qdisc, 0.0, flows, horizon_ms);
    let stats = sc.sim.link_stats(sc.db.bottleneck);
    if stats.transmitted_pkts == 0 {
        return Err(format!(
            "no traffic transmitted (seed {seed}, {flows} flows, share {share_pps} pps)"
        ));
    }
    let realized_p = stats.drop_rate();
    Ok(observe(&mut sc, activity, horizon_ms, flows, realized_p))
}

/// Bottleneck bandwidth and buffer for the coupled scenario: 500 B
/// packets at `flows × share_pps`, one RTT of buffering.
fn coupled_provisioning(flows: usize, share_pps: f64) -> (Bandwidth, usize) {
    let rate = Bandwidth::from_bps((flows as f64 * share_pps * 4_000.0) as u64);
    let buffer = rate
        .packets_per(SimDuration::from_millis(FLUID_EPOCH_MS), 500)
        .max(4);
    (rate, buffer)
}

/// The coupled fluid model matching [`droptail_coupled_run`]'s
/// provisioning.
pub fn coupled_fluid_model(flows: usize, share_pps: f64) -> FluidModel {
    let (_, buffer) = coupled_provisioning(flows, share_pps);
    FluidModel::new(
        fluid_family(),
        LossFeedback::DropTail {
            capacity_pps: flows as f64 * share_pps,
            buffer_pkts: buffer as f64,
        },
        flows as f64,
        FLUID_EPOCH_MS as f64 / 1_000.0,
    )
}

/// Sim-vs-fluid error summary for one observation.
#[derive(Debug, Clone)]
pub struct FluidComparison {
    /// L1 distance between the empirical and predicted
    /// packets-per-epoch distributions.
    pub l1: f64,
    /// |sim − fluid| loss rate (coupled scenario; 0 on the wire, where
    /// the fluid side takes the realized rate as input).
    pub p_err: f64,
    /// |sim − fluid| timeout fraction.
    pub timeout_err: f64,
    /// |sim − fluid| Jain index.
    pub jain_err: f64,
    /// The fluid prediction's timeout fraction over the same horizon.
    pub fluid_timeout: f64,
    /// The fluid finite-horizon Jain prediction.
    pub fluid_jain: f64,
}

/// Compares an observation against a fluid model's horizon-matched
/// trajectory average.
fn compare(model: &FluidModel, fluid_p: f64, obs: &WireObservation) -> FluidComparison {
    let avg = model.time_averaged_density(obs.epochs, FLUID_DT_EPOCHS);
    let st = model.summarize(fluid_p, avg, 0.0, false);
    let fluid_jain = model.predicted_jain(&st, obs.epochs);
    FluidComparison {
        l1: l1_distance(&obs.dist, &st.n_sent),
        p_err: (obs.realized_p - fluid_p).abs(),
        timeout_err: (obs.timeout_fraction - st.timeout_fraction).abs(),
        jain_err: (obs.jain - fluid_jain).abs(),
        fluid_timeout: st.timeout_fraction,
        fluid_jain,
    }
}

/// Evolves the wire fluid model at the observation's *realized* loss
/// rate over the observation's own horizon (transient included,
/// mirroring what the epoch monitor aggregates) and measures the
/// prediction error. The fluid side is deterministic, so for a fixed
/// horizon the entire distance is finite-`N` sampling noise plus the
/// chain's fixed structural bias — the `N`-dependent part is what the
/// convergence ladder watches shrink.
pub fn compare_to_fluid(obs: &WireObservation) -> FluidComparison {
    let model = FluidModel::new(
        fluid_family(),
        LossFeedback::Wire { p: obs.realized_p },
        obs.flows as f64,
        FLUID_EPOCH_MS as f64 / 1_000.0,
    );
    let mut cmp = compare(&model, obs.realized_p, obs);
    cmp.p_err = 0.0; // realized p is the model's input here, not a prediction
    cmp
}

/// Compares a coupled observation against the coupled fixed point's
/// self-consistent loss rate and horizon-matched trajectory average.
/// Unlike the wire comparison, `p_err` is a genuine prediction error:
/// the fluid solved for `p*` with no input from the run.
pub fn compare_to_coupled_fluid(obs: &WireObservation, share_pps: f64) -> FluidComparison {
    let model = coupled_fluid_model(obs.flows, share_pps);
    let p_star = model.stationary().p;
    compare(&model, p_star, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_run_observables_are_sane() {
        let obs = bernoulli_wire_run(7, 0.1, 4, FLUID_LADDER_MS).expect("traffic flows");
        assert!((obs.realized_p - 0.1).abs() < 0.1, "p {}", obs.realized_p);
        assert!((obs.dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&obs.timeout_fraction));
        assert!((0.0..=1.0).contains(&obs.jain));
        assert_eq!(obs.flows, 4);
        let cmp = compare_to_fluid(&obs);
        assert!((0.0..=2.0).contains(&cmp.l1));
        assert_eq!(cmp.p_err, 0.0);
        assert!(cmp.timeout_err <= 1.0);
        assert!(cmp.jain_err <= 1.0);
    }

    #[test]
    fn coupled_run_observables_are_sane() {
        let obs = droptail_coupled_run(7, 8, 3.0, 10_000).expect("traffic flows");
        assert!(obs.realized_p > 0.0, "a starved share must drop packets");
        assert!((obs.dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let cmp = compare_to_coupled_fluid(&obs, 3.0);
        assert!((0.0..=2.0).contains(&cmp.l1));
        assert!(cmp.p_err < 0.5, "p_err {}", cmp.p_err);
    }

    #[test]
    fn horizon_epochs_subtracts_anchor_offset() {
        assert!((fluid_horizon_epochs(2_000) - 8.5).abs() < 1e-12);
        assert_eq!(fluid_horizon_epochs(100), 1.0, "clamped at one epoch");
    }
}
