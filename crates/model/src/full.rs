//! The paper's *full* idealized Markov model (its Figure 5).
//!
//! The partial model aggregates every backoff level into one `b*` state.
//! The full model breaks that aggregation apart so repetitive timeouts
//! are represented explicitly: it tracks "at least 1 backoff", "at least
//! 2 backoffs", ..., up to a configurable depth `K`, with the residual
//! tail beyond `K` aggregated the same way the partial model aggregates
//! everything.
//!
//! Concretely, for backoff stage `j` (timer = `2^j · T0/2 · RTT`,
//! following the paper's `S_{1/2^j}` naming):
//!
//! - entering stage `j` means waiting `2^j − 1` silent epochs (modelled
//!   as an explicit chain of wait states, exact, not geometric), then
//!   firing the retransmission in state `R_j` (one packet that epoch);
//! - a successful retransmission (probability `1−p`) opens the window to
//!   2, but the only data acknowledged so far was *retransmitted*, so by
//!   Karn's algorithm the timer has not collapsed: the flow proceeds
//!   through *tagged* low-window states `S2^(j)`, `S3^(j)` that remember
//!   the backoff. Per the paper, by the time the flow leaves `S3` and
//!   reaches `S4`, new data has been cumulatively acknowledged and the
//!   timer collapses — so `S4` and above are untagged;
//! - a failed retransmission (probability `p`), or a timeout from a
//!   tagged state `S2^(j)`/`S3^(j)`, enters stage `j+1` (a *repetitive*
//!   timeout), saturating at the aggregated tail stage.
//!
//! Timeouts from untagged states (`S2^(0)`, `S3^(0)` at flow steady
//! state, and `S4..SWmax` whose losses exceed fast-retransmit's reach)
//! enter stage 1 with the base timer.

use crate::dtmc::{Chain, Dtmc, Weight};
use crate::state::{Stage, State};

/// The expanded repetitive-timeout model: its chain at `p`, read
/// through [`Dtmc`]'s methods.
#[derive(Debug, Clone)]
pub struct FullModel {
    /// Per-packet loss probability.
    pub p: f64,
    /// Maximum congestion window (segments).
    pub wmax: u32,
    /// Deepest explicitly modelled backoff stage; beyond it the tail is
    /// aggregated.
    pub max_backoff: u32,
    chain: Dtmc,
}

/// The Figure 5 chain up to window `wmax` with explicit backoff stages
/// `1..=k`, declared once over `p`.
///
/// # Panics
///
/// Panics unless `wmax ≥ 4` and `1 ≤ k ≤ 10` (the wait chain for stage
/// `j` has `2^j − 1` states, so depth is capped to keep the chain small).
pub(crate) fn chain(wmax: u32, k: u32) -> Chain {
    assert!(wmax >= 4, "need wmax >= 4, got {wmax}");
    assert!(
        (1..=10).contains(&k),
        "need 1 <= max_backoff <= 10, got {k}"
    );
    let window = State::Window;
    let wait = |j, epoch| State::Wait(Stage::At(j), epoch);
    let retx = |j| State::Retransmit(Stage::At(j));
    let tail_wait = State::Wait(Stage::Tail(k + 1), 1);
    let tail_retx = State::Retransmit(Stage::Tail(k + 1));
    // Stage entry point: first wait state of stage j (1-indexed).
    let stage_entry = |j: u32| if j > k { tail_wait } else { wait(j, 1) };

    // Untagged S4..SWmax, tagged S2^j then S3^j for j = 0..=K, each
    // stage's wait chain, the retransmit states, the tail.
    let mut states: Vec<State> = (4..=wmax).map(|n| window(n, None)).collect();
    for n in [2, 3] {
        states.extend((0..=k).map(|j| window(n, Some(j))));
    }
    for j in 1..=k {
        states.extend((1..1 << j).map(|i| wait(j, i)));
    }
    states.extend((1..=k).map(retx));
    states.extend([tail_wait, tail_retx]);

    let mut edges = Vec::new();
    // --- Untagged window chain S4..SWmax ---
    for n in 4..=wmax {
        let here = window(n, None);
        let up = if n == wmax { here } else { window(n + 1, None) };
        // Fast retransmit to ⌊n/2⌋: windows 2,3 land in tagged j=0
        // (no backoff memory — no timeout happened), 4+ stay untagged.
        let half = n / 2;
        let fast = window(half, (half < 4).then_some(0));
        // A simple timeout enters stage 1.
        edges.extend([
            (here, up, Weight::Up(n)),
            (here, fast, Weight::Fast(n)),
            (here, stage_entry(1), Weight::Timeout(n)),
        ]);
    }

    // --- Tagged low-window chains ---
    for j in 0..=k {
        let (s2, s3) = (window(2, Some(j)), window(3, Some(j)));
        // A timeout enters stage j + 1: repetitive for j ≥ 1, the base
        // timer's stage 1 for j = 0. S2^j grows to S3^j, and S3^j to S4,
        // where the timer collapses, per the paper.
        let next_stage = stage_entry(j + 1);
        edges.extend([
            (s2, s3, Weight::Up(2)),
            (s2, next_stage, Weight::Timeout(2)),
            (s3, window(4, None), Weight::Up(3)),
            (s3, next_stage, Weight::Timeout(3)),
        ]);
    }

    // --- Wait chains: deterministic countdowns ---
    for j in 1..=k {
        let last = (1 << j) - 1;
        for i in 1..=last {
            let next = if i < last { wait(j, i + 1) } else { retx(j) };
            edges.push((wait(j, i), next, Weight::Const(1.0)));
        }
    }

    // --- Retransmit states ---
    // Success opens the window to 2 with backoff memory j intact (only
    // retransmitted data has been acked — Karn); failure enters the
    // next-deeper stage.
    for j in 1..=k {
        edges.push((retx(j), window(2, Some(j)), Weight::Q));
        edges.push((retx(j), stage_entry(j + 1), Weight::P));
    }

    // --- Aggregated tail (stages > K) ---
    // A geometric dwell with the ladder's mean wait; its retransmit
    // resumes at the deepest tracked tag or re-enters the tail.
    edges.extend([
        (tail_wait, tail_wait, Weight::TailStay(k)),
        (tail_wait, tail_retx, Weight::TailLeave(k)),
        (tail_retx, window(2, Some(k)), Weight::Q),
        (tail_retx, tail_wait, Weight::P),
    ]);
    Chain::new(states, &edges)
}

impl FullModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 0.5`, `wmax ≥ 4`, and
    /// `1 ≤ max_backoff ≤ 10`.
    pub fn new(p: f64, wmax: u32, max_backoff: u32) -> Self {
        assert!(p > 0.0 && p < 0.5, "need 0 < p < 1/2, got {p}");
        FullModel {
            p,
            wmax,
            max_backoff,
            chain: chain(wmax, max_backoff).at(p),
        }
    }

    /// Stationary probability of being at backoff stage ≥ `j` (silent or
    /// retransmitting), the "at least j backoffs" reading of Figure 5;
    /// the aggregated tail is stage `max_backoff + 1`.
    pub fn backoff_mass_at_least(&self, j: u32) -> f64 {
        let pi = self.stationary();
        let deep = |(s, _): &(&State, &f64)| s.backoff_stage().is_some_and(|at| at >= j);
        let states = self.states().iter().zip(&pi);
        states
            .filter(deep)
            .fold(0.0, |total, (_, mass)| total + mass)
    }
}

impl std::ops::Deref for FullModel {
    type Target = Dtmc;

    fn deref(&self) -> &Dtmc {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::PartialModel;

    #[test]
    fn distribution_sums_to_one() {
        for &p in &[0.02, 0.1, 0.25, 0.4] {
            let m = FullModel::new(p, 6, 3);
            let d = m.n_sent_distribution();
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9, "p={p}: {d:?}");
            assert!(d.iter().all(|&v| v >= -1e-12));
        }
    }

    #[test]
    fn agrees_with_partial_model_at_low_loss() {
        // Away from the backoff ladder the two models share structure,
        // so at low loss (where repetitive timeouts are rare) their
        // n-sent distributions nearly coincide.
        let full = FullModel::new(0.02, 6, 3).n_sent_distribution();
        let partial = PartialModel::new(0.02, 6).n_sent_distribution();
        for (n, (f, pa)) in full.iter().zip(&partial).enumerate() {
            assert!((f - pa).abs() < 0.03, "n={n}: full={f:.3} partial={pa:.3}");
        }
    }

    #[test]
    fn full_model_has_more_silence_than_partial() {
        // The partial model's aggregated b* draws a fresh
        // entry-conditioned dwell on every consecutive failure, which
        // understates true exponential backoff; the full model tracks
        // the doubling explicitly and therefore spends strictly more
        // time silent. This gap is exactly why the paper calls the full
        // model "a much more accurate picture of the timeout states".
        for &p in &[0.05, 0.1, 0.2, 0.3] {
            let f = FullModel::new(p, 6, 3).silence_mass();
            let pa = PartialModel::new(p, 6).silence_mass();
            assert!(f > pa, "p={p}: full {f:.3} <= partial {pa:.3}");
        }
    }

    #[test]
    fn backoff_mass_decreases_with_stage() {
        let m = FullModel::new(0.25, 6, 4);
        let masses: Vec<f64> = (1..=4).map(|j| m.backoff_mass_at_least(j)).collect();
        for w in masses.windows(2) {
            assert!(w[0] >= w[1], "deeper stages are rarer: {masses:?}");
        }
        assert!(masses[0] > 0.0);
    }

    #[test]
    fn deeper_backoff_mass_grows_with_p() {
        let low = FullModel::new(0.05, 6, 3).backoff_mass_at_least(2);
        let high = FullModel::new(0.3, 6, 3).backoff_mass_at_least(2);
        assert!(
            high > 5.0 * low,
            "repetitive timeouts explode with loss: {low} -> {high}"
        );
    }

    #[test]
    fn silence_dominates_at_high_loss() {
        let m = FullModel::new(0.35, 6, 3);
        assert!(m.silence_mass() > 0.5, "silence {}", m.silence_mass());
    }

    #[test]
    fn wait_chain_lengths_are_exact() {
        // Stage j contributes 2^j - 1 wait states, W{j},1 .. W{j},{2^j-1}.
        let m = FullModel::new(0.1, 6, 3);
        for j in 1..=3u32 {
            let names: Vec<String> = m
                .states()
                .iter()
                .filter(|s| matches!(s, State::Wait(Stage::At(at), _) if *at == j))
                .map(|s| s.to_string())
                .collect();
            let expected: Vec<String> = (1..1u32 << j).map(|i| format!("W{j},{i}")).collect();
            assert_eq!(names, expected, "stage {j}");
        }
    }

    #[test]
    fn states_print_the_figure_names() {
        let names: Vec<String> = FullModel::new(0.1, 4, 1)
            .states()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let expected = [
            "S4", "S2^0", "S2^1", "S3^0", "S3^1", "W1,1", "R1", "Wtail", "Rtail",
        ];
        assert_eq!(names, expected);
        let partial: Vec<String> = PartialModel::new(0.1, 4)
            .states()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(partial, ["S2", "S3", "S4", "S1", "b0", "b*"]);
    }

    #[test]
    fn throughput_below_partial_model_and_decreasing() {
        let mut prev = f64::MAX;
        for &p in &[0.05, 0.1, 0.15, 0.25] {
            let f = FullModel::new(p, 6, 3).expected_segments_per_epoch();
            let pa = PartialModel::new(p, 6).expected_segments_per_epoch();
            assert!(f <= pa + 0.05, "p={p}: full {f} > partial {pa}");
            assert!(f < prev, "throughput decreases with p");
            prev = f;
        }
    }

    #[test]
    #[should_panic(expected = "max_backoff")]
    fn excessive_depth_rejected() {
        let _ = FullModel::new(0.1, 6, 11);
    }
}
