//! Transient (first-passage) analysis of the chains.
//!
//! The stationary distribution says how a population of flows spreads
//! across states in equilibrium; a middlebox deciding whether to drop a
//! *particular* packet cares about transients: starting from this
//! flow's current state, how long until it hits a timeout? These
//! quantities come from standard first-step analysis — solve
//! `h(s) = 1 + Σ_t P(s→t) h(t)` over the non-target states — and they
//! quantify the intuition behind TAQ's per-state drop priorities (a
//! window-6 flow is many epochs from a timeout; a window-2 flow is one
//! unlucky epoch away).

use crate::dtmc::{solve_dense, Dtmc};
use crate::partial::PartialModel;
use crate::state::State;

/// Expected number of epochs to reach any state in `targets`, starting
/// from each state of `chain` (entries for target states are 0).
///
/// Solves the linear first-step system by Gaussian elimination over the
/// non-target states.
///
/// # Panics
///
/// Panics if some state cannot reach a target (the expectation would be
/// infinite and the system singular) or if `targets` names no state of
/// the chain; both indicate a modelling bug.
pub fn expected_hitting_times(chain: &Dtmc, targets: &[usize]) -> Vec<f64> {
    let n = chain.len();
    let is_target = {
        let mut v = vec![false; n];
        for &t in targets {
            v[t] = true;
        }
        v
    };
    assert!(is_target.iter().any(|&t| t), "no target states");
    let free: Vec<usize> = (0..n).filter(|&i| !is_target[i]).collect();
    let m = free.len();
    // (I - Q) h = 1, where Q is the sub-matrix over free states.
    let mut slot = vec![None; n];
    let mut a = vec![vec![0.0; m]; m];
    for (row, &i) in free.iter().enumerate() {
        slot[i] = Some(row);
        a[row][row] = 1.0;
    }
    for &(i, j, pij) in chain.edges() {
        if let (Some(row), Some(col)) = (slot[i], slot[j]) {
            a[row][col] -= pij;
        }
    }
    let mut h = solve_dense(a, vec![1.0; m]).into_iter();
    (0..n)
        .map(|i| {
            if is_target[i] {
                0.0
            } else {
                h.next().expect("one per free state")
            }
        })
        .collect()
}

/// Expected epochs until a flow starting at window `w` first enters a
/// timeout state (`b0` or `b*`, the silent states) in the partial model.
///
/// # Panics
///
/// Panics if `w` is outside `1..=wmax` (window 1 is the retransmit state
/// `S1`).
pub fn epochs_to_first_timeout(model: &PartialModel, w: u32) -> f64 {
    let states = model.states();
    let start = states.iter().position(|&s| s == State::Window(w, None));
    let start = start.unwrap_or_else(|| panic!("no state S{w} (wmax = {})", model.wmax));
    let targets: Vec<usize> = (0..states.len())
        .filter(|&i| states[i].sends() == 0)
        .collect();
    expected_hitting_times(model, &targets)[start]
}

/// Probability that a flow currently entering a timeout experiences at
/// least `k` *consecutive* timeouts before escaping to window 2: each
/// retransmission fails independently with probability `p`, so the run
/// length is geometric.
pub fn consecutive_timeout_probability(p: f64, k: u32) -> f64 {
    debug_assert!((0.0..1.0).contains(&p));
    if k == 0 {
        1.0
    } else {
        p.powi(k as i32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtmc::{Chain, Weight};

    /// A chain over windows `0..n` (each the tests' stand-in for any
    /// state) with constant weights.
    fn chain(n: u32, edges: &[(u32, u32, f64)]) -> Dtmc {
        let s = |n| State::Window(n, None);
        let edges: Vec<_> = edges
            .iter()
            .map(|&(from, to, w)| (s(from), s(to), Weight::Const(w)))
            .collect();
        Chain::new((0..n).map(s).collect(), &edges).at(0.0)
    }

    #[test]
    fn hitting_time_of_simple_chain_matches_geometric() {
        // Two states: from a, reach b with probability q per step.
        let q = 0.25;
        let m = chain(2, &[(0, 1, q), (0, 0, 1.0 - q), (1, 1, 1.0)]);
        let h = expected_hitting_times(&m, &[1]);
        assert!((h[0] - 1.0 / q).abs() < 1e-9, "E = 1/q, got {}", h[0]);
        assert_eq!(h[1], 0.0);
    }

    #[test]
    fn hitting_time_of_deterministic_path() {
        // a → b → c deterministically: h(a) = 2, h(b) = 1.
        let m = chain(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)]);
        let h = expected_hitting_times(&m, &[2]);
        assert!((h[0] - 2.0).abs() < 1e-12);
        assert!((h[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_windows_are_closest_to_timeout() {
        // Fast-retransmit-capable states (w ≥ 4) survive single losses;
        // S2/S3 cannot, so they sit closest to the next timeout. (The
        // distance is *not* monotone above 4 — larger windows risk more
        // losses per epoch — which is itself worth pinning down.)
        let m = PartialModel::new(0.1, 6);
        let h2 = epochs_to_first_timeout(&m, 2);
        let h3 = epochs_to_first_timeout(&m, 3);
        let h4 = epochs_to_first_timeout(&m, 4);
        let h6 = epochs_to_first_timeout(&m, 6);
        assert!(h2 < h4 && h2 < h6, "S2 nearest: {h2:.2} {h4:.2} {h6:.2}");
        assert!(h3 < h4 && h3 < h6, "S3 nearer than w>=4: {h3:.2}");
        // At 10% loss a window-2 flow is only a handful of epochs from
        // its next timeout.
        assert!(h2 < 10.0, "h2 = {h2}");
    }

    #[test]
    fn higher_loss_shortens_time_to_timeout() {
        let low = epochs_to_first_timeout(&PartialModel::new(0.05, 6), 6);
        let high = epochs_to_first_timeout(&PartialModel::new(0.3, 6), 6);
        assert!(
            low > 3.0 * high,
            "loss accelerates timeouts: {low:.2} vs {high:.2}"
        );
    }

    #[test]
    fn consecutive_timeout_runs_are_geometric() {
        assert_eq!(consecutive_timeout_probability(0.2, 0), 1.0);
        assert_eq!(consecutive_timeout_probability(0.2, 1), 1.0);
        assert!((consecutive_timeout_probability(0.2, 2) - 0.2).abs() < 1e-12);
        assert!((consecutive_timeout_probability(0.2, 4) - 0.008).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no target states")]
    fn empty_target_set_rejected() {
        let m = PartialModel::new(0.1, 6);
        let _ = expected_hitting_times(&m, &[]);
    }
}
