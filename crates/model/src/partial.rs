//! The paper's *partial* idealized Markov model (its Figure 4).
//!
//! A congestion-window chain `S2..SWmax` with three kinds of transitions
//! per epoch (one RTT), driven by a single per-packet loss probability
//! `p`:
//!
//! - `Sn → Sn+1` when all `n` transmissions succeed: `(1−p)^n`
//!   (saturating at `SWmax`);
//! - `Sn → S⌊n/2⌋` (fast retransmit) for `n ≥ 4` when exactly one packet
//!   is lost and its retransmission succeeds: `n·p·(1−p)^(n−1)·(1−p)`;
//! - the residual probability goes to a timeout.
//!
//! Timeouts from `S4..SWmax` are *simple* (the flow acknowledged new
//! data recently, so its timer holds the base value `T0 = 2·RTT`): they
//! pass through the one-epoch buffer state `b0` and reach the retransmit
//! state `S1`. Timeouts from `S2`/`S3`, and failed retransmissions from
//! `S1`, enter the *aggregated backoff state* `b*`, which summarises the
//! infinite ladder of doubled timers: dwell there is geometric with
//! `P(b*→b*) = 2p` so that the expected idle time equals the paper's
//! closed form `1/(1−2p)` epochs (valid for `p < 1/2`).
//!
//! From `S1`, a successful retransmission (probability `1−p`) yields a
//! cumulative ACK that reopens the window to 2: `S1 → S2`.

use crate::dtmc::{Chain, Dtmc, Weight};
use crate::state::{Stage, State};

/// The paper's partial model for a given `Wmax` and loss probability:
/// its chain at `p`, read through [`Dtmc`]'s methods. Its
/// [`n_sent_distribution`](Dtmc::n_sent_distribution) puts the silent
/// `b0` and `b*` at index 0, the retransmit state `S1` at 1 and window
/// `Sn` at `n`.
#[derive(Debug, Clone)]
pub struct PartialModel {
    /// Per-packet loss probability.
    pub p: f64,
    /// Maximum congestion window (in segments) modelled.
    pub wmax: u32,
    chain: Dtmc,
}

/// The Figure 4 chain up to window `wmax`, declared once over `p`.
///
/// # Panics
///
/// Panics unless `wmax ≥ 4` (below 4 no fast-retransmit transition
/// exists and the chain degenerates).
pub(crate) fn chain(wmax: u32) -> Chain {
    assert!(wmax >= 4, "need wmax >= 4, got {wmax}");
    let s = |n| State::Window(n, None);
    let b0 = State::Wait(Stage::At(0), 1);
    let bstar = State::Wait(Stage::Tail(0), 1);
    // The timeout retransmission sends one segment: window 1.
    let s1 = s(1);
    let mut states: Vec<State> = (2..=wmax).map(s).collect();
    states.extend([s1, b0, bstar]);

    let mut edges = Vec::new();
    for n in 2..=wmax {
        let here = s(n);
        // Window growth, saturating at Wmax.
        let next = if n == wmax { here } else { s(n + 1) };
        edges.push((here, next, Weight::Up(n)));
        if n >= 4 {
            edges.push((here, s(n / 2), Weight::Fast(n)));
            // Simple timeout: base timer, one wait epoch in b0.
            edges.push((here, b0, Weight::Timeout(n)));
        } else {
            // Low-window timeout: backoff memory may persist.
            edges.push((here, bstar, Weight::Timeout(n)));
        }
    }
    edges.extend([
        // b0 waits exactly one epoch, then the retransmit fires.
        (b0, s1, Weight::Const(1.0)),
        // Retransmit outcome.
        (s1, s(2), Weight::Q),
        (s1, bstar, Weight::P),
        // Aggregated backoff dwell: expected 1/(1-2p) epochs.
        (bstar, bstar, Weight::TwoP),
        (bstar, s1, Weight::OneMinusTwoP),
    ]);
    Chain::new(states, &edges)
}

impl PartialModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 0.5` (the aggregated backoff state's
    /// geometric dwell requires `2p < 1`) and `wmax ≥ 4`.
    pub fn new(p: f64, wmax: u32) -> Self {
        assert!(p > 0.0 && p < 0.5, "need 0 < p < 1/2, got {p}");
        let chain = chain(wmax).at(p);
        PartialModel { p, wmax, chain }
    }
}

impl std::ops::Deref for PartialModel {
    type Target = Dtmc;

    fn deref(&self) -> &Dtmc {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one() {
        for &p in &[0.01, 0.05, 0.1, 0.2, 0.3, 0.45] {
            let m = PartialModel::new(p, 6);
            let d = m.n_sent_distribution();
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9, "p={p}");
            assert!(d.iter().all(|&v| v >= 0.0), "p={p}");
        }
    }

    #[test]
    fn low_loss_concentrates_at_wmax() {
        let m = PartialModel::new(0.01, 6);
        let d = m.n_sent_distribution();
        assert!(d[6] > 0.7, "at 1% loss the flow mostly sits at Wmax: {d:?}");
        assert!(d[0] < 0.05, "little silence at low loss");
    }

    #[test]
    fn high_loss_concentrates_in_timeouts() {
        let m = PartialModel::new(0.3, 6);
        assert!(
            m.timeout_mass() > 0.6,
            "at 30% loss most epochs are timeout states: {}",
            m.timeout_mass()
        );
        let d = m.n_sent_distribution();
        assert!(d[0] > d[6], "silence dominates Wmax occupancy");
    }

    #[test]
    fn timeout_mass_monotone_in_p() {
        let masses: Vec<f64> = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
            .iter()
            .map(|&p| PartialModel::new(p, 6).timeout_mass())
            .collect();
        for w in masses.windows(2) {
            assert!(w[0] < w[1], "timeout mass must increase with p: {masses:?}");
        }
    }

    #[test]
    fn bstar_dwell_matches_closed_form() {
        // The expected dwell in b* is a geometric with exit 1−2p, i.e.
        // 1/(1−2p) epochs: check via the chain's self-loop.
        let m = PartialModel::new(0.2, 6);
        let is_bstar = |s: &State| matches!(s, State::Wait(Stage::Tail(_), _));
        let b = m.states().iter().position(is_bstar).unwrap();
        let self_loop = m.edges().iter().find(|e| (e.0, e.1) == (b, b));
        let stay = self_loop.unwrap().2;
        assert!((stay - 0.4).abs() < 1e-12);
        let expected_dwell = 1.0 / (1.0 - stay);
        assert!((expected_dwell - 1.0 / (1.0 - 2.0 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn throughput_decreases_with_loss() {
        let lo = PartialModel::new(0.02, 6).expected_segments_per_epoch();
        let hi = PartialModel::new(0.3, 6).expected_segments_per_epoch();
        assert!(lo > 4.0, "low loss ≈ Wmax throughput: {lo}");
        assert!(hi < 1.5, "high loss throughput collapses: {hi}");
    }

    #[test]
    fn wmax_extension_works() {
        let m = PartialModel::new(0.05, 10);
        let d = m.n_sent_distribution();
        assert_eq!(d.len(), 11);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // S7..S10 states exist and carry mass at 5% loss.
        assert!(d[10] > 0.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < p < 1/2")]
    fn p_half_rejected() {
        let _ = PartialModel::new(0.5, 6);
    }

    #[test]
    #[should_panic(expected = "wmax")]
    fn tiny_wmax_rejected() {
        let _ = PartialModel::new(0.1, 3);
    }

    #[test]
    fn stationary_agrees_with_power_iteration() {
        let m = PartialModel::new(0.15, 6);
        let exact = m.stationary();
        let power = m.stationary_power(20_000);
        for (e, a) in exact.iter().zip(&power) {
            assert!((e - a).abs() < 1e-8);
        }
    }
}
