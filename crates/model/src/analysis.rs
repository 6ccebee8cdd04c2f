//! Closed-form results and derived analyses from the models.

use crate::partial::PartialModel;

/// The paper's closed form for the expected idle time in the aggregated
/// backoff state: `1/(1 − 2p)` epochs, from summing the geometric ladder
/// of doubled timers.
///
/// Returns `None` for `p ≥ 1/2`, where the sum diverges (the flow's
/// expected silence is unbounded).
pub fn expected_idle_epochs(p: f64) -> Option<f64> {
    (0.0..0.5).contains(&p).then(|| 1.0 / (1.0 - 2.0 * p))
}

/// Probability that the sender leaves the aggregated timeout wait state
/// in a given epoch: `1 − 2p` (the reciprocal of the expected dwell).
///
/// Returns `None` for `p ≥ 1/2`.
pub fn backoff_exit_probability(p: f64) -> Option<f64> {
    (0.0..0.5).contains(&p).then_some(1.0 - 2.0 * p)
}

/// The conditional stage-occupancy of the infinite timeout ladder: given
/// a flow is in a timeout, it entered at the base stage with probability
/// `1 − p`, one backoff deeper with `p(1 − p)`, and so on (the paper's
/// equation 7 family).
pub fn stage_probability_given_timeout(p: f64, stage: u32) -> f64 {
    debug_assert!((0.0..1.0).contains(&p));
    p.powi(stage as i32) * (1.0 - p)
}

/// Finds the loss rate at which the stationary timeout mass crosses
/// `threshold`, by bisection on the partial model. This is the paper's
/// "tipping point": beyond roughly `p ≈ 0.1` the probability of
/// timeouts grows dramatically, which is where TAQ's admission control
/// engages (`p_thresh = 0.1`).
///
/// # Panics
///
/// Panics if `threshold` is not strictly between the masses at the ends
/// of the search interval `(0.001, 0.49)`.
pub fn tipping_point(wmax: u32, threshold: f64) -> f64 {
    let mass = |p: f64| PartialModel::new(p, wmax).timeout_mass();
    bisect_crossing(mass, threshold, 0.001, 0.49)
}

/// The knee of the timeout-mass curve, located as the point of maximum
/// distance from the chord joining the curve's endpoints (the "kneedle"
/// criterion) — a parameter-free reading of "where timeouts take off".
pub fn timeout_knee(wmax: u32) -> f64 {
    let n = 400;
    let ps: Vec<f64> = (1..n).map(|i| 0.45 * i as f64 / n as f64).collect();
    let masses: Vec<f64> = ps
        .iter()
        .map(|&p| PartialModel::new(p, wmax).timeout_mass())
        .collect();
    let (p0, m0) = (ps[0], masses[0]);
    let (p1, m1) = (
        *ps.last().expect("non-empty"),
        *masses.last().expect("non-empty"),
    );
    let slope = (m1 - m0) / (p1 - p0);
    let mut best = (p0, f64::MIN);
    for (p, m) in ps.iter().zip(&masses) {
        let chord = m0 + slope * (p - p0);
        let dist = m - chord;
        if dist > best.1 {
            best = (*p, dist);
        }
    }
    best.0
}

/// The loss rate at which the *full* model's timeout mass crosses 1/2 —
/// the point where a majority of flow epochs are timeout states. With
/// the paper's `Wmax = 6` and three explicit backoff stages this lands
/// at `p ≈ 0.1`, the paper's admission-control threshold.
pub fn majority_timeout_point(wmax: u32, max_backoff: u32) -> f64 {
    let mass = |p: f64| crate::FullModel::new(p, wmax, max_backoff).timeout_mass();
    bisect_crossing(mass, 0.5, 0.005, 0.49)
}

/// Bisects the increasing map `f` for the crossing of `threshold` on
/// `(lo, hi)`.
///
/// # Panics
///
/// Panics if `threshold` is not bracketed.
pub(crate) fn bisect_crossing(
    f: impl Fn(f64) -> f64,
    threshold: f64,
    mut lo: f64,
    mut hi: f64,
) -> f64 {
    assert!(
        f(lo) < threshold && f(hi) > threshold,
        "threshold {threshold} not bracketed on ({lo}, {hi})"
    );
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_epochs_closed_form() {
        assert_eq!(expected_idle_epochs(0.0), Some(1.0));
        assert!((expected_idle_epochs(0.25).unwrap() - 2.0).abs() < 1e-12);
        assert!((expected_idle_epochs(0.4).unwrap() - 5.0).abs() < 1e-12);
        assert_eq!(expected_idle_epochs(0.5), None);
        assert_eq!(expected_idle_epochs(0.9), None);
    }

    #[test]
    fn exit_probability_complements_dwell() {
        for &p in &[0.05, 0.1, 0.3] {
            let exit = backoff_exit_probability(p).unwrap();
            let dwell = expected_idle_epochs(p).unwrap();
            assert!((exit * dwell - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn stage_probabilities_form_distribution() {
        let p = 0.2;
        let total: f64 = (0..200)
            .map(|j| stage_probability_given_timeout(p, j))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Base stage dominates: P(stage 0 | timeout) = 1 − p.
        assert!((stage_probability_given_timeout(p, 0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn idle_epochs_match_stage_weighted_waits() {
        // E[idle] = Σ_j P(stage j | RTO) · (2^{j+1} − 1) = 1/(1−2p).
        let p = 0.15;
        let series: f64 = (0..500i32)
            .map(|j| stage_probability_given_timeout(p, j as u32) * (2f64.powi(j + 1) - 1.0))
            .sum();
        assert!(
            (series - expected_idle_epochs(p).unwrap()).abs() < 1e-9,
            "series {series}"
        );
    }

    #[test]
    fn tipping_point_is_near_one_tenth() {
        // The paper reads the knee of the curve as p ≈ 0.1 and sets
        // p_thresh = 0.1. Locate where the timeout mass passes 30%.
        let p30 = tipping_point(6, 0.3);
        assert!(
            (0.05..0.2).contains(&p30),
            "30% timeout-mass crossing at p = {p30}"
        );
    }

    #[test]
    fn knee_lies_in_the_paper_band() {
        let knee = timeout_knee(6);
        assert!((0.02..0.3).contains(&knee), "kneedle knee at p = {knee}");
    }

    #[test]
    fn full_model_majority_timeout_near_p_thresh() {
        // With Wmax = 6 and 3 explicit backoff stages, the loss rate at
        // which timeouts claim a majority of epochs lands at the paper's
        // admission threshold p_thresh ≈ 0.1.
        let p = majority_timeout_point(6, 3);
        assert!((0.07..0.14).contains(&p), "majority point at p = {p}");
    }
}
