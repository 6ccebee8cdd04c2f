//! Finite discrete-time Markov chains over a per-packet loss rate `p`.
//!
//! A [`Chain`] declares its states and weighted edges once; each weight
//! is a closed form in `p` ([`Weight`]), and [`Chain::at`] evaluates
//! them into a [`Dtmc`] whose transitions are a sparse, row-major edge
//! list. The paper's models are small (tens of states), so the
//! stationary distribution is computed exactly by dense Gaussian
//! elimination on `π(P − I) = 0` with the normalisation `Σπ = 1`, and
//! cross-checked in tests against power iteration.

use crate::state::{n_sent, State};

/// A transition probability as a closed form in the loss rate `p`
/// (`q = 1 − p`), each evaluated in one fixed float-operation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Weight {
    /// A probability that does not depend on `p`.
    Const(f64),
    /// `p`: a retransmission is lost.
    P,
    /// `q`: a retransmission is delivered.
    Q,
    /// `2p`: the partial chain's `b*` dwell.
    TwoP,
    /// `1 − 2p`: leaving `b*`.
    OneMinusTwoP,
    /// `q^n`: all `n` segments of a window are delivered.
    Up(u32),
    /// `n·p·q^(n−1)·q`: one of `n` is lost, its fast retransmit arrives.
    Fast(u32),
    /// `1 − q^n − fast`: window `n` times out (`fast` is 0 below 4).
    Timeout(u32),
    /// `1 − 1/E`: the dwell past stage `K`, geometric with the ladder's
    /// mean `E = Σ_{i≥0} p^i·q·(2^{K+1+i} − 1) = 2^{K+1}·q/(1−2p) − 1`.
    TailStay(u32),
    /// `1 − (1 − 1/E)`: leaving that tail.
    TailLeave(u32),
}

impl Weight {
    /// The weight at loss rate `p`.
    fn at(self, p: f64) -> f64 {
        let q = 1.0 - p;
        let up = |n: u32| q.powi(n as i32);
        let fast = |n: u32| f64::from(n) * p * q.powi(n as i32 - 1) * q;
        let tail_stay = |k: u32| {
            let e_tail = f64::from(1u32 << (k + 1)) * q / (1.0 - 2.0 * p) - 1.0;
            debug_assert!(e_tail >= 1.0);
            1.0 - 1.0 / e_tail
        };
        match self {
            Weight::Const(w) => w,
            Weight::P => p,
            Weight::Q => q,
            Weight::TwoP => 2.0 * p,
            Weight::OneMinusTwoP => 1.0 - 2.0 * p,
            Weight::Up(n) => up(n),
            Weight::Fast(n) => fast(n),
            Weight::Timeout(n) => 1.0 - up(n) - if n >= 4 { fast(n) } else { 0.0 },
            Weight::TailStay(k) => tail_stay(k),
            Weight::TailLeave(k) => 1.0 - tail_stay(k),
        }
    }
}

/// A chain declared once over the loss rate `p`: its states (state `i`
/// is the `i`-th) and its edges, weighted by closed forms in `p`.
#[derive(Debug, Clone)]
pub struct Chain {
    states: Vec<State>,
    /// `(from, to, weight)`, stably sorted by `(from, to)`.
    edges: Vec<(usize, usize, Weight)>,
}

impl Chain {
    /// Declares a chain over `states` with the weighted `edges`.
    ///
    /// # Panics
    ///
    /// Panics if an edge names an undeclared state.
    pub(crate) fn new(states: Vec<State>, edges: &[(State, State, Weight)]) -> Chain {
        let index = |s: State| {
            let i = states.iter().position(|&declared| declared == s);
            i.unwrap_or_else(|| panic!("state {s} is not declared"))
        };
        let mut edges: Vec<_> = edges
            .iter()
            .map(|&(from, to, weight)| (index(from), index(to), weight))
            .collect();
        edges.sort_by_key(|&(i, j, _)| (i, j));
        Chain { states, edges }
    }

    /// The states in declaration order, the same at every `p`.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The chain at loss rate `p`: its nonzero transitions, duplicate
    /// edges summed in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if a weight leaves `[0, 1]` or a state's outgoing
    /// probabilities do not sum to 1 (within 1e-9): a modelling bug.
    pub fn at(&self, p: f64) -> Dtmc {
        Dtmc {
            states: self.states.clone(),
            edges: self.edges_at(p),
        }
    }

    /// [`Chain::at`]'s transitions alone.
    pub(crate) fn edges_at(&self, p: f64) -> Vec<(usize, usize, f64)> {
        let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(self.edges.len());
        let mut sums = vec![0.0; self.states.len()];
        for &(i, j, weight) in &self.edges {
            let w = weight.at(p);
            assert!(
                (0.0..=1.0 + 1e-12).contains(&w),
                "probability out of range: {w}"
            );
            if w == 0.0 {
                continue;
            }
            sums[i] += w;
            match edges.last_mut() {
                Some(last) if (last.0, last.1) == (i, j) => last.2 += w,
                _ => edges.push((i, j, w)),
            }
        }
        for (state, sum) in self.states.iter().zip(sums) {
            assert!(
                (sum - 1.0).abs() <= 1e-9,
                "state {state} rows sum to {sum}, expected 1"
            );
        }
        edges
    }
}

/// A finite DTMC over [`State`]s with a row-stochastic transition
/// matrix, held as its nonzero entries: a [`Chain`] at one `p`.
#[derive(Debug, Clone)]
pub struct Dtmc {
    states: Vec<State>,
    /// `(i, j, P(i → j))`, sorted by `(i, j)`, one entry per pair.
    edges: Vec<(usize, usize, f64)>,
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

    /// The nonzero transitions `(i, j, P(i → j))`, sorted by `(i, j)`.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
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
    pub fn stationary(&self) -> Vec<f64> {
        let n = self.len();
        assert!(n > 0, "empty chain");
        // Build A = Pᵀ − I, then overwrite the last row with ones
        // (normalisation); solve A x = e_last.
        let mut a = vec![vec![0.0; n]; n];
        for &(i, j, pij) in &self.edges {
            a[j][i] = pij;
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
    pub fn asymptotic_variance(&self, reward: &[f64]) -> f64 {
        let n = self.len();
        assert_eq!(reward.len(), n, "one reward per state");
        let pi = self.stationary();
        let mu: f64 = pi.iter().zip(reward).map(|(p, f)| p * f).sum();
        let fbar: Vec<f64> = reward.iter().map(|f| f - mu).collect();
        // I − P + 1π, in the order (δ_ij − P_ij) + π_j.
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        for &(i, j, pij) in &self.edges {
            a[i][j] -= pij;
        }
        for row in &mut a {
            for (v, pj) in row.iter_mut().zip(&pi) {
                *v += pj;
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
    pub fn stationary_power(&self, iterations: usize) -> Vec<f64> {
        let n = self.len();
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..iterations {
            next.fill(0.0);
            for &(i, j, pij) in &self.edges {
                next[j] += pi[i] * pij;
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

    /// A chain over windows `0..n` with constant weights.
    fn chain(n: u32, edges: &[(u32, u32, f64)]) -> Chain {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(from, to, w)| (s(from), s(to), Weight::Const(w)))
            .collect();
        Chain::new((0..n).map(s).collect(), &edges)
    }

    fn two_state(p01: f64, p10: f64) -> Dtmc {
        let edges = [
            (0, 1, p01),
            (0, 0, 1.0 - p01),
            (1, 0, p10),
            (1, 1, 1.0 - p10),
        ];
        chain(2, &edges).at(0.0)
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
        // A ring with a bias.
        let edges: Vec<_> = (0..5)
            .flat_map(|i| [(i, (i + 1) % 5, 0.7), (i, (i + 4) % 5, 0.3)])
            .collect();
        let m = chain(5, &edges).at(0.0);
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

    /// The message `f` panics with.
    fn panic_message<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).err().expect("a panic");
        payload.downcast::<String>().map(|m| *m).unwrap_or_default()
    }

    #[test]
    fn unnormalised_rows_rejected() {
        let err = panic_message(|| chain(2, &[(0, 0, 1.0), (1, 0, 0.5)]).at(0.0));
        assert_eq!(err, "state S1 rows sum to 0.5, expected 1");
    }

    #[test]
    fn undeclared_states_rejected() {
        let err = panic_message(|| chain(2, &[(1, 2, 1.0)]));
        assert_eq!(err, "state S2 is not declared");
    }

    #[test]
    fn accumulating_transitions() {
        // Declared out of order, with a duplicate pair and a zero weight.
        let edges = [(1, 0, 1.0), (0, 1, 0.25), (0, 0, 0.0), (0, 1, 0.75)];
        let m = chain(2, &edges).at(0.0);
        assert_eq!(m.edges(), [(0, 1, 1.0), (1, 0, 1.0)]);
        assert_eq!(m.stationary(), vec![0.5, 0.5]);
    }

    #[test]
    fn low_window_weights_keep_the_products_they_replaced() {
        // The full chain's tagged windows once spelled their growth as
        // q·q and q·q·q; `Up` must give the same bits.
        for i in 1..500 {
            let p = f64::from(i) / 1000.0;
            let q = 1.0 - p;
            let bits = |w: Weight| w.at(p).to_bits();
            assert_eq!(bits(Weight::Up(2)), (q * q).to_bits(), "p={p}");
            assert_eq!(bits(Weight::Up(3)), (q * q * q).to_bits(), "p={p}");
            assert_eq!(bits(Weight::Timeout(2)), (1.0 - q * q).to_bits());
            assert_eq!(bits(Weight::Timeout(3)), (1.0 - q * q * q).to_bits());
        }
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
        let m = chain(2, &[(0, 0, 0.25), (0, 1, 0.75), (1, 0, 0.25), (1, 1, 0.75)]).at(0.0);
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
