//! Generic finite discrete-time Markov chains.
//!
//! The paper's models are small (tens of states), so the stationary
//! distribution is computed exactly by dense Gaussian elimination on
//! `π(P − I) = 0` with the normalisation `Σπ = 1`, and cross-checked in
//! tests against power iteration.

use crate::state::{n_sent, State};

/// A finite DTMC over [`State`]s with a row-stochastic transition
/// matrix. State `i` is the `i`-th declared.
#[derive(Debug, Clone)]
pub struct Dtmc {
    states: Vec<State>,
    /// Row-major transition probabilities: `p[i][j] = P(i → j)`.
    p: Vec<Vec<f64>>,
}

/// Builder for a [`Dtmc`].
#[derive(Debug, Default)]
pub struct DtmcBuilder {
    states: Vec<State>,
    entries: Vec<(State, State, f64)>,
}

impl DtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DtmcBuilder::default()
    }

    /// Declares a state: the `i`-th declared is the chain's state `i`.
    pub fn state(&mut self, state: State) -> &mut Self {
        self.states.push(state);
        self
    }

    /// Adds probability mass `prob` to the transition `from → to`.
    /// Multiple additions to the same pair accumulate.
    pub fn transition(&mut self, from: State, to: State, prob: f64) -> &mut Self {
        assert!(
            (0.0..=1.0 + 1e-12).contains(&prob),
            "probability out of range: {prob}"
        );
        if prob > 0.0 {
            self.entries.push((from, to, prob));
        }
        self
    }

    /// Finalises the chain.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first transition from or to an
    /// undeclared state, or else the first state whose outgoing
    /// probabilities do not sum to 1 (within 1e-9).
    pub fn build(self) -> Result<Dtmc, String> {
        let n = self.states.len();
        let index = |s: State| {
            let i = self.states.iter().position(|&declared| declared == s);
            i.ok_or_else(|| format!("state {s} is not declared"))
        };
        let mut p = vec![vec![0.0; n]; n];
        for &(from, to, prob) in &self.entries {
            p[index(from)?][index(to)?] += prob;
        }
        for (state, row) in self.states.iter().zip(&p) {
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(format!("state {state} rows sum to {sum}, expected 1"));
            }
        }
        Ok(Dtmc {
            states: self.states,
            p,
        })
    }
}

/// Solves the dense linear system `A x = b` by partial-pivot Gaussian
/// elimination, consuming both inputs as scratch.
///
/// # Panics
///
/// Panics if the system is singular beyond numerical tolerance.
// Index-based loops: textbook Gaussian elimination over a dense matrix;
// iterator rewrites obscure the row/column structure.
#[allow(clippy::needless_range_loop)]
pub(crate) fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&r1, &r2| a[r1][col].abs().partial_cmp(&a[r2][col].abs()).unwrap())
            .expect("non-empty range");
        assert!(
            a[pivot][col].abs() > 1e-12,
            "singular linear system at column {col}"
        );
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            if f != 0.0 {
                for k in col..n {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in (row + 1)..n {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    x
}

impl Dtmc {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states in declaration order: state `i` is `states()[i]`.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Transition probability `P(i → j)`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[i][j]
    }

    /// Exact stationary distribution via Gaussian elimination on the
    /// transposed system, replacing one equation with `Σπ = 1`.
    ///
    /// # Panics
    ///
    /// Panics if the linear system is singular beyond numerical
    /// tolerance, which indicates a chain with no unique stationary
    /// distribution (e.g. disconnected recurrent classes) — a modelling
    /// bug, not a runtime condition.
    #[allow(clippy::needless_range_loop)]
    pub fn stationary(&self) -> Vec<f64> {
        let n = self.len();
        assert!(n > 0, "empty chain");
        // Build A = Pᵀ − I, then overwrite the last row with ones
        // (normalisation); solve A x = e_last.
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[j][i] = self.p[i][j];
            }
        }
        for (i, row) in a.iter_mut().enumerate() {
            row[i] -= 1.0;
        }
        for v in a[n - 1].iter_mut() {
            *v = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let mut x = solve_dense(a, b);
        // Clean tiny negative round-off and renormalise.
        for v in &mut x {
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
        }
        let total: f64 = x.iter().sum();
        for v in &mut x {
            *v /= total;
        }
        x
    }

    /// The asymptotic variance `σ²` of the additive functional
    /// `S_K = Σ_{k<K} f(X_k)` under the Markov-chain CLT:
    /// `Var(S_K) ≈ σ²·K` for large `K`. Computed exactly by solving the
    /// Poisson equation `(I − P)h = f − μ1` through the fundamental
    /// matrix `(I − P + 1π)` (the rank-one correction makes the singular
    /// system invertible and pins `πh = 0`), then
    /// `σ² = Σ_i π_i (2·f̄_i·h_i − f̄_i²)` with `f̄ = f − μ1`.
    ///
    /// This is what turns a per-epoch reward (packets sent) into a
    /// finite-horizon spread prediction: a flow's `K`-epoch average has
    /// variance `σ²/K`, which the fluid model feeds into its predicted
    /// Jain index.
    ///
    /// # Panics
    ///
    /// Panics if `reward.len() != self.len()`.
    #[allow(clippy::needless_range_loop)]
    pub fn asymptotic_variance(&self, reward: &[f64]) -> f64 {
        let n = self.len();
        assert_eq!(reward.len(), n, "one reward per state");
        let pi = self.stationary();
        let mu: f64 = pi.iter().zip(reward).map(|(p, f)| p * f).sum();
        let fbar: Vec<f64> = reward.iter().map(|f| f - mu).collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = f64::from(u8::from(i == j)) - self.p[i][j] + pi[j];
            }
        }
        let h = solve_dense(a, fbar.clone());
        let sigma2: f64 = (0..n)
            .map(|i| pi[i] * (2.0 * fbar[i] * h[i] - fbar[i] * fbar[i]))
            .sum();
        // Exact zero is possible (periodic chains); tiny negatives are
        // round-off.
        sigma2.max(0.0)
    }

    /// The stationary distribution summed by packets sent per epoch
    /// ([`State::sends`]; index 0 is silence, the last index the widest
    /// window), the observable the paper's Figure 6 plots.
    pub fn n_sent_distribution(&self) -> Vec<f64> {
        n_sent(&self.states, &self.stationary())
    }

    /// Stationary probability of a timeout state, silent or
    /// retransmitting: the paper's "probability of timeouts".
    pub fn timeout_mass(&self) -> f64 {
        let d = self.n_sent_distribution();
        d[0] + d[1]
    }

    /// Stationary probability of a *silent* epoch (no packets at all).
    pub fn silence_mass(&self) -> f64 {
        self.n_sent_distribution()[0]
    }

    /// Long-run throughput in segments per epoch.
    pub fn expected_segments_per_epoch(&self) -> f64 {
        self.n_sent_distribution()
            .iter()
            .enumerate()
            .map(|(n, pr)| n as f64 * pr)
            .sum()
    }

    /// Stationary distribution by power iteration: the tests' oracle for
    /// [`Dtmc::stationary`].
    #[cfg(test)]
    #[allow(clippy::needless_range_loop)]
    pub fn stationary_power(&self, iterations: usize) -> Vec<f64> {
        let n = self.len();
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..iterations {
            next.fill(0.0);
            for i in 0..n {
                if pi[i] == 0.0 {
                    continue;
                }
                for j in 0..n {
                    next[j] += pi[i] * self.p[i][j];
                }
            }
            std::mem::swap(&mut pi, &mut next);
        }
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Window state `n`: the tests' stand-in for any state.
    fn s(n: u32) -> State {
        State::Window(n, None)
    }

    fn two_state(p01: f64, p10: f64) -> Dtmc {
        let mut b = DtmcBuilder::new();
        let (s0, s1) = (s(0), s(1));
        b.state(s0).state(s1);
        b.transition(s0, s1, p01)
            .transition(s0, s0, 1.0 - p01)
            .transition(s1, s0, p10)
            .transition(s1, s1, 1.0 - p10);
        b.build().unwrap()
    }

    #[test]
    fn two_state_stationary_closed_form() {
        let m = two_state(0.3, 0.1);
        let pi = m.stationary();
        // π_a = p10 / (p01 + p10).
        assert!((pi[0] - 0.25).abs() < 1e-12);
        assert!((pi[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stationary_matches_power_iteration() {
        let mut b = DtmcBuilder::new();
        for i in 0..5 {
            b.state(s(i));
        }
        // A ring with a bias.
        for i in 0..5 {
            b.transition(s(i), s((i + 1) % 5), 0.7);
            b.transition(s(i), s((i + 4) % 5), 0.3);
        }
        let m = b.build().unwrap();
        let exact = m.stationary();
        let approx = m.stationary_power(10_000);
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e - a).abs() < 1e-9, "{e} vs {a}");
        }
        // Symmetric ring: uniform.
        for e in &exact {
            assert!((e - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn unnormalised_rows_rejected() {
        let mut b = DtmcBuilder::new();
        let (s0, s1) = (s(7), s(8));
        b.state(s0).state(s1);
        b.transition(s0, s1, 0.5);
        b.transition(s1, s0, 1.0);
        let err = b.build().unwrap_err();
        assert!(
            err.contains("state S7 "),
            "error names the bad state: {err}"
        );
    }

    #[test]
    fn undeclared_states_rejected() {
        let mut b = DtmcBuilder::new();
        b.state(s(1)).transition(s(1), s(2), 1.0);
        assert_eq!(b.build().unwrap_err(), "state S2 is not declared");
    }

    #[test]
    fn accumulating_transitions() {
        let mut b = DtmcBuilder::new();
        let s0 = s(7);
        b.state(s0);
        b.transition(s0, s0, 0.25);
        b.transition(s0, s0, 0.75);
        let m = b.build().unwrap();
        assert_eq!(m.prob(0, 0), 1.0);
        assert_eq!(m.stationary(), vec![1.0]);
    }

    #[test]
    fn states_in_declaration_order_and_n_sent() {
        let m = two_state(0.5, 0.5);
        assert_eq!(m.states(), [s(0), s(1)]);
        let pi = m.stationary();
        // Window n sends n: half the mass is silent, half sends one.
        let d = n_sent(m.states(), &pi);
        assert_eq!(d.len(), 2);
        assert!((d[0] - 0.5).abs() < 1e-12 && (d[1] - 0.5).abs() < 1e-12);
        assert!((m.timeout_mass() - 1.0).abs() < 1e-12);
        assert!((m.expected_segments_per_epoch() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymptotic_variance_iid_reduces_to_plain_variance() {
        // P = 1π makes successive states independent, so σ² = Var_π(f).
        let mut b = DtmcBuilder::new();
        let (s0, s1) = (s(0), s(1));
        b.state(s0).state(s1);
        for s in [s0, s1] {
            b.transition(s, s0, 0.25).transition(s, s1, 0.75);
        }
        let m = b.build().unwrap();
        let sigma2 = m.asymptotic_variance(&[0.0, 1.0]);
        // Bernoulli(0.75) variance.
        assert!((sigma2 - 0.75 * 0.25).abs() < 1e-12, "σ² = {sigma2}");
    }

    #[test]
    fn asymptotic_variance_two_state_closed_form() {
        // P(a→b)=α, P(b→a)=β, f = 1_{b}: the textbook closed form is
        // σ² = αβ(2 − α − β)/(α + β)³.
        let (alpha, beta) = (0.3, 0.1);
        let m = two_state(alpha, beta);
        let sigma2 = m.asymptotic_variance(&[0.0, 1.0]);
        let expected = alpha * beta * (2.0 - alpha - beta) / (alpha + beta).powi(3);
        assert!((sigma2 - expected).abs() < 1e-10, "{sigma2} vs {expected}");
    }

    #[test]
    fn asymptotic_variance_periodic_chain_is_zero() {
        // A deterministic 2-cycle: S_K alternates, so Var(S_K) stays
        // bounded and the asymptotic variance vanishes.
        let m = two_state(1.0, 1.0);
        let sigma2 = m.asymptotic_variance(&[0.0, 1.0]);
        assert!(sigma2.abs() < 1e-12, "σ² = {sigma2}");
    }

    #[test]
    fn stationary_sums_to_one() {
        let m = two_state(0.123, 0.456);
        let pi = m.stationary();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&v| v >= 0.0));
    }
}
