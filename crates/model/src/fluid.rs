//! Mean-field / fluid companion model: the paper's per-flow Markov
//! chain lifted to a deterministic ODE over the *population density* of
//! flow states, coupled to a fluid queue.
//!
//! As the number of flows `N → ∞` with the per-flow fair share held
//! fixed, the empirical distribution of flow states converges weakly to
//! the solution of a deterministic mean-field system (McDonald–Reynier
//! for TCP through RED-like AQMs; Lautenschlaeger for weak convergence
//! of TCP bandwidth sharing). This module implements that limit for the
//! paper's chains:
//!
//! - the *density* `x(t)` over the chain's states evolves by the
//!   forward equation `dx/dt = x·(P(p) − I)` in epoch time, where
//!   `P(p)` is the paper's transition matrix at loss probability `p`;
//! - the offered load is read off the density (`λ = N·E[sends]/epoch`)
//!   and drives a *fluid queue* `dq/dt = λ(1−p) − C` clamped to
//!   `[0, B]`;
//! - the loss probability feeds back from queue occupancy
//!   ([`LossFeedback::DropTail`]) or is pinned externally
//!   ([`LossFeedback::Wire`], the uncoupled Bernoulli-wire limit in
//!   which the fluid stationary solution must reproduce the DTMC
//!   stationary distribution exactly).
//!
//! Integration is classic RK4 at a fixed step, pure `f64` arithmetic in
//! a fixed evaluation order — no wall clock, no ambient randomness —
//! so a fluid trajectory is reproducible bit-for-bit anywhere. The
//! stationary regime has a direct solver ([`FluidModel::stationary`]):
//! on a wire it is the chain's exact stationary distribution; under
//! drop-tail coupling it is the self-consistent loss rate `p*` with
//! `λ(p*)(1−p*) = C`, found by bisection (offered goodput is strictly
//! decreasing in `p`). The solver's cost is independent of `N` — a
//! million-flow prediction is the same few dozen small dense solves —
//! which is the whole point: instant answers at scales the simulator
//! cannot reach twice.

use crate::dtmc::Dtmc;
use crate::{FullModel, PartialModel};

/// Smallest loss probability the chains accept (they require `p > 0`).
/// Feedback values below it clamp here; a stationary solution reporting
/// `P_MIN` means "effectively lossless".
pub const P_MIN: f64 = 1e-6;

/// Largest loss probability the chains accept (the aggregated backoff
/// dwell diverges at 1/2). A stationary solution pinned here is flagged
/// [`FluidStationary::saturated`].
pub const P_MAX: f64 = 0.499;

/// Which of the paper's chains drives the density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFamily {
    /// The Figure 4 chain (aggregated backoff state `b*`).
    Partial {
        /// Maximum congestion window (segments).
        wmax: u32,
    },
    /// The Figure 5 chain (explicit backoff stages).
    Full {
        /// Maximum congestion window (segments).
        wmax: u32,
        /// Deepest explicitly modelled backoff stage.
        max_backoff: u32,
    },
}

impl ChainFamily {
    /// The family's window cap.
    pub fn wmax(self) -> u32 {
        match self {
            ChainFamily::Partial { wmax } | ChainFamily::Full { wmax, .. } => wmax,
        }
    }

    /// Builds the family's chain at loss probability `p` (clamped into
    /// `[P_MIN, P_MAX]`). State declaration order does not depend on
    /// `p`, so densities indexed by one chain's states are valid for
    /// any other `p` — the invariant the whole module rests on.
    pub fn build(self, p: f64) -> Dtmc {
        let p = p.clamp(P_MIN, P_MAX);
        match self {
            ChainFamily::Partial { wmax } => PartialModel::new(p, wmax).chain().clone(),
            ChainFamily::Full { wmax, max_backoff } => {
                FullModel::new(p, wmax, max_backoff).chain().clone()
            }
        }
    }
}

/// Packets sent per epoch in the chain state named `name` (shared
/// convention of both chains: waits are silent, retransmits send one,
/// window states send their window).
fn sends_of(name: &str) -> f64 {
    if name.starts_with('b') || name.starts_with('W') {
        0.0
    } else if name.starts_with('R') {
        1.0
    } else if let Some(rest) = name.strip_prefix('S') {
        let n: u32 = rest
            .split('^')
            .next()
            .expect("split yields at least one part")
            .parse()
            .expect("window state name");
        f64::from(n)
    } else {
        unreachable!("unknown state {name}")
    }
}

/// How the loss probability closes the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossFeedback {
    /// Uncoupled Bernoulli wire: `p` is external and constant. The
    /// queue term is inert; the fluid stationary solution is exactly
    /// the chain's stationary distribution at `p`.
    Wire {
        /// The wire's per-packet loss probability.
        p: f64,
    },
    /// Drop-tail fluid queue: loss engages as occupancy approaches the
    /// buffer, reaching the overflow rate `1 − C/λ` at a full buffer
    /// (the standard fluid reading of tail drop, cf. Genin–Nakassis).
    /// The ramp over the last tenth of the buffer keeps the ODE
    /// continuous; the stationary point it admits — queue pinned at
    /// `B`, `λ(1−p) = C` — is the same fixed point the bisection solver
    /// finds.
    DropTail {
        /// Service capacity in packets per second.
        capacity_pps: f64,
        /// Buffer size in packets.
        buffer_pkts: f64,
    },
}

/// The mean-field system: a chain family, a loss loop, a flow
/// population, and the epoch length tying chain time to wall time.
#[derive(Debug, Clone)]
pub struct FluidModel {
    family: ChainFamily,
    loss: LossFeedback,
    flows: f64,
    epoch_secs: f64,
    /// Packets sent per epoch, per chain state (index-aligned with any
    /// chain the family builds).
    sends: Vec<f64>,
    /// Index of the start state (window 2, no backoff memory).
    start: usize,
    /// Prebuilt chain for the constant-`p` wire case, so a trajectory
    /// does not rebuild an identical chain four times per RK4 step.
    wire_chain: Option<Dtmc>,
}

/// A point of the fluid trajectory: the flow-state density plus the
/// fluid queue occupancy.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidState {
    /// Probability mass per chain state (sums to 1).
    pub density: Vec<f64>,
    /// Fluid queue occupancy in packets.
    pub queue_pkts: f64,
}

/// The stationary regime the fixed-point solver returns.
#[derive(Debug, Clone)]
pub struct FluidStationary {
    /// Self-consistent loss probability.
    pub p: f64,
    /// Stationary density over chain states.
    pub density: Vec<f64>,
    /// Stationary queue occupancy in packets.
    pub queue_pkts: f64,
    /// Density aggregated by packets sent per epoch (index 0 = silent).
    pub n_sent: Vec<f64>,
    /// Mass of silent epochs (`n_sent[0]`).
    pub silence_fraction: f64,
    /// Mass of timeout states (silent waits plus timeout retransmits).
    pub timeout_fraction: f64,
    /// Per-flow goodput in packets per second, `μ(1−p)/epoch`.
    pub per_flow_goodput_pps: f64,
    /// `true` when the demanded load exceeds what the chain can shed
    /// even at `P_MAX` — the prediction is a lower bound on loss there.
    pub saturated: bool,
}

impl FluidModel {
    /// Builds the model. `flows` is the population size `N` (only the
    /// coupled feedback reads it); `epoch_secs` is the chain's epoch
    /// (one RTT) in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `flows > 0` and `epoch_secs > 0`.
    pub fn new(family: ChainFamily, loss: LossFeedback, flows: f64, epoch_secs: f64) -> Self {
        assert!(flows > 0.0, "need a positive flow population");
        assert!(epoch_secs > 0.0, "need a positive epoch");
        let chain = family.build(0.1);
        let sends: Vec<f64> = (0..chain.len()).map(|i| sends_of(chain.name(i))).collect();
        let start = chain
            .index_of("S2")
            .or_else(|| chain.index_of("S2^0"))
            .expect("both chains have a window-2 start state");
        let wire_chain = match loss {
            LossFeedback::Wire { p } => Some(family.build(p)),
            LossFeedback::DropTail { .. } => None,
        };
        FluidModel {
            family,
            loss,
            flows,
            epoch_secs,
            sends,
            start,
            wire_chain,
        }
    }

    /// The chain family.
    pub fn family(&self) -> ChainFamily {
        self.family
    }

    /// The loss loop.
    pub fn loss(&self) -> LossFeedback {
        self.loss
    }

    /// The flow population `N`.
    pub fn flows(&self) -> f64 {
        self.flows
    }

    /// The epoch length in seconds.
    pub fn epoch_secs(&self) -> f64 {
        self.epoch_secs
    }

    /// Number of chain states (the density's length).
    pub fn n_states(&self) -> usize {
        self.sends.len()
    }

    /// The canonical initial condition: every flow at window 2 with no
    /// backoff memory, empty queue — a fresh population at slow-start's
    /// first congestion-avoidance window.
    pub fn initial_state(&self) -> FluidState {
        let mut density = vec![0.0; self.n_states()];
        density[self.start] = 1.0;
        FluidState {
            density,
            queue_pkts: 0.0,
        }
    }

    /// Aggregate arrival intensity in packets per second implied by a
    /// density: `N · E[sends] / epoch`.
    pub fn offered_pps(&self, density: &[f64]) -> f64 {
        let per_epoch: f64 = density.iter().zip(&self.sends).map(|(x, s)| x * s).sum();
        self.flows * per_epoch / self.epoch_secs
    }

    /// The loss probability the feedback produces at queue occupancy
    /// `queue_pkts` and arrival intensity `lambda_pps`, clamped into
    /// the chains' domain.
    pub fn loss_probability(&self, queue_pkts: f64, lambda_pps: f64) -> f64 {
        match self.loss {
            LossFeedback::Wire { p } => p.clamp(P_MIN, P_MAX),
            LossFeedback::DropTail {
                capacity_pps,
                buffer_pkts,
            } => {
                let p_full = if lambda_pps > capacity_pps {
                    (1.0 - capacity_pps / lambda_pps).clamp(P_MIN, P_MAX)
                } else {
                    P_MIN
                };
                let onset = 0.9 * buffer_pkts;
                if buffer_pkts <= 0.0 || queue_pkts >= buffer_pkts {
                    p_full
                } else if queue_pkts <= onset {
                    P_MIN
                } else {
                    let t = (queue_pkts - onset) / (buffer_pkts - onset);
                    P_MIN + t * (p_full - P_MIN)
                }
            }
        }
    }

    /// The system's time derivative at `state`, in epoch time:
    /// `(dx/dt, dq/dt)` with `dq` in packets per epoch.
    fn derivative(&self, state: &FluidState) -> (Vec<f64>, f64) {
        let lambda = self.offered_pps(&state.density);
        let p = self.loss_probability(state.queue_pkts, lambda);
        let built;
        let chain = match &self.wire_chain {
            Some(cached) => cached,
            None => {
                built = self.family.build(p);
                &built
            }
        };
        let n = chain.len();
        let mut dx = vec![0.0; n];
        for (i, &xi) in state.density.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, slot) in dx.iter_mut().enumerate() {
                let pij = chain.prob(i, j);
                if pij != 0.0 {
                    *slot += xi * pij;
                }
            }
        }
        for (slot, &xj) in dx.iter_mut().zip(&state.density) {
            *slot -= xj;
        }
        let dq = match self.loss {
            LossFeedback::Wire { .. } => 0.0,
            LossFeedback::DropTail {
                capacity_pps,
                buffer_pkts,
            } => {
                let mut dq = (lambda * (1.0 - p) - capacity_pps) * self.epoch_secs;
                let at_floor = state.queue_pkts <= 0.0 && dq < 0.0;
                let at_ceiling = state.queue_pkts >= buffer_pkts && dq > 0.0;
                if at_floor || at_ceiling {
                    dq = 0.0;
                }
                dq
            }
        };
        (dx, dq)
    }

    /// One fixed RK4 step of `dt_epochs` (epoch time units). Pure
    /// `f64`, fixed evaluation order: bit-reproducible. The generator
    /// has zero column-sum, so RK4 conserves total mass to round-off;
    /// sub-round-off negatives are clamped and the queue is projected
    /// back into `[0, B]` after the combine.
    pub fn step(&self, state: &FluidState, dt_epochs: f64) -> FluidState {
        assert!(dt_epochs > 0.0, "need a positive step");
        let advance = |base: &FluidState, kx: &[f64], kq: f64, h: f64| -> FluidState {
            FluidState {
                density: base
                    .density
                    .iter()
                    .zip(kx)
                    .map(|(x, k)| x + h * k)
                    .collect(),
                queue_pkts: base.queue_pkts + h * kq,
            }
        };
        let (k1x, k1q) = self.derivative(state);
        let (k2x, k2q) = self.derivative(&advance(state, &k1x, k1q, dt_epochs / 2.0));
        let (k3x, k3q) = self.derivative(&advance(state, &k2x, k2q, dt_epochs / 2.0));
        let (k4x, k4q) = self.derivative(&advance(state, &k3x, k3q, dt_epochs));
        let sixth = dt_epochs / 6.0;
        let mut density: Vec<f64> = (0..state.density.len())
            .map(|i| state.density[i] + sixth * (k1x[i] + 2.0 * k2x[i] + 2.0 * k3x[i] + k4x[i]))
            .collect();
        for v in &mut density {
            if *v < 0.0 && *v > -1e-12 {
                *v = 0.0;
            }
        }
        let mut queue_pkts = state.queue_pkts + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
        if let LossFeedback::DropTail { buffer_pkts, .. } = self.loss {
            queue_pkts = queue_pkts.clamp(0.0, buffer_pkts);
        }
        FluidState {
            density,
            queue_pkts,
        }
    }

    /// The density averaged over the trajectory's first `epochs` epochs
    /// from the canonical initial state (left Riemann sum at step
    /// `dt_epochs`). This is what a finite measurement horizon
    /// observes: the empirical packets-per-epoch distribution of a
    /// population started fresh covers the slow-start transient *and*
    /// the settling tail, and so does this average — comparing
    /// simulation against it isolates finite-`N` sampling noise from
    /// transient mismatch.
    pub fn time_averaged_density(&self, epochs: f64, dt_epochs: f64) -> Vec<f64> {
        let steps = (epochs / dt_epochs).round().max(1.0) as u64;
        let mut state = self.initial_state();
        let mut acc = vec![0.0; self.n_states()];
        for _ in 0..steps {
            for (a, x) in acc.iter_mut().zip(&state.density) {
                *a += x;
            }
            state = self.step(&state, dt_epochs);
        }
        for a in &mut acc {
            *a /= steps as f64;
        }
        acc
    }

    /// Runs the trajectory until the density's per-epoch drift falls
    /// below `tol` (L∞ of `dx/dt`) or `max_epochs` elapse, and returns
    /// the final state. Convergence to the fixed point of
    /// [`FluidModel::stationary`] is a tested invariant.
    pub fn stationary_by_evolution(&self, dt_epochs: f64, max_epochs: f64, tol: f64) -> FluidState {
        let mut state = self.initial_state();
        let steps = (max_epochs / dt_epochs).round().max(1.0) as u64;
        for _ in 0..steps {
            let next = self.step(&state, dt_epochs);
            let drift = state
                .density
                .iter()
                .zip(&next.density)
                .map(|(a, b)| (b - a).abs() / dt_epochs)
                .fold(0.0f64, f64::max);
            state = next;
            if drift < tol {
                break;
            }
        }
        state
    }

    /// Packages a solved `(p, density, queue)` triple into the analysis
    /// surface.
    fn stationary_at(&self, p: f64, queue_pkts: f64, saturated: bool) -> FluidStationary {
        let chain = self.family.build(p);
        let density = chain.stationary();
        self.summarize(p, density, queue_pkts, saturated)
    }

    /// Builds a [`FluidStationary`] from an explicit density (used both
    /// by the exact solver and by callers summarizing an evolved
    /// trajectory).
    pub fn summarize(
        &self,
        p: f64,
        density: Vec<f64>,
        queue_pkts: f64,
        saturated: bool,
    ) -> FluidStationary {
        let wmax = self.family.wmax() as usize;
        let mut n_sent = vec![0.0; wmax + 1];
        for (x, s) in density.iter().zip(&self.sends) {
            n_sent[(*s as usize).min(wmax)] += x;
        }
        let mu: f64 = density
            .iter()
            .zip(&self.sends)
            .map(|(x, s)| x * s)
            .sum::<f64>();
        FluidStationary {
            p,
            silence_fraction: n_sent[0],
            timeout_fraction: n_sent[0] + n_sent[1],
            per_flow_goodput_pps: mu * (1.0 - p) / self.epoch_secs,
            n_sent,
            density,
            queue_pkts,
            saturated,
        }
    }

    /// The stationary regime. On a wire this is the chain's exact
    /// stationary distribution at the wire's `p`. Under drop-tail
    /// coupling it is the self-consistent `p*` with
    /// `λ(p*)(1−p*) = C`, found by bisection on `p` (offered goodput
    /// decreases strictly in `p`): below capacity the link is
    /// uncongested (`p* = P_MIN`, empty queue); past the chains' domain
    /// the result saturates at `P_MAX` and is flagged.
    ///
    /// Cost is independent of the flow count: ~80 dense solves of a
    /// tens-of-states chain, well under the 100 ms budget for a
    /// million-flow prediction.
    pub fn stationary(&self) -> FluidStationary {
        match self.loss {
            LossFeedback::Wire { p } => self.stationary_at(p.clamp(P_MIN, P_MAX), 0.0, false),
            LossFeedback::DropTail {
                capacity_pps,
                buffer_pkts,
            } => {
                let surplus = |p: f64| {
                    let chain = self.family.build(p);
                    self.offered_pps(&chain.stationary()) * (1.0 - p) - capacity_pps
                };
                if surplus(P_MIN) <= 0.0 {
                    return self.stationary_at(P_MIN, 0.0, false);
                }
                if surplus(P_MAX) > 0.0 {
                    return self.stationary_at(P_MAX, buffer_pkts, true);
                }
                let (mut lo, mut hi) = (P_MIN, P_MAX);
                for _ in 0..80 {
                    let mid = 0.5 * (lo + hi);
                    if surplus(mid) > 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                self.stationary_at(0.5 * (lo + hi), buffer_pkts, false)
            }
        }
    }

    /// The Jain index the mean-field limit predicts for `N → ∞` flows
    /// measured over a horizon of `epochs` epochs: per-flow totals are
    /// asymptotically i.i.d. with mean `μ·K` and variance `σ²·K`
    /// (chain CLT), so `J → 1 / (1 + σ²/(μ²·K))`. The spread — and the
    /// unfairness — comes entirely from timeout dynamics, which is the
    /// paper's small-packet-regime story in one number.
    pub fn predicted_jain(&self, stationary: &FluidStationary, epochs: f64) -> f64 {
        let mu: f64 = stationary
            .n_sent
            .iter()
            .enumerate()
            .map(|(n, pr)| n as f64 * pr)
            .sum();
        if mu <= 0.0 || epochs <= 0.0 {
            return 1.0;
        }
        let chain = self.family.build(stationary.p);
        let sigma2 = chain.asymptotic_variance(&self.sends);
        1.0 / (1.0 + sigma2 / (mu * mu * epochs))
    }
}

/// The wire-loss rate at which the family's stationary timeout mass
/// crosses `threshold`, by bisection on the exact stationary
/// distribution — the fluid solver's reading of the paper's tipping
/// point (for [`ChainFamily::Full`] at threshold 0.5 it coincides with
/// `analysis::majority_timeout_point`).
///
/// # Panics
///
/// Panics if `threshold` is not bracketed on `(0.005, P_MAX)`.
pub fn wire_tipping_point(family: ChainFamily, threshold: f64) -> f64 {
    let mass = |p: f64| {
        let model = FluidModel::new(family, LossFeedback::Wire { p }, 1.0, 1.0);
        model.stationary().timeout_fraction
    };
    bisect_crossing(mass, threshold, 0.005, P_MAX)
}

/// [`wire_tipping_point`] computed through the RK4 trajectory instead
/// of exact linear algebra: at each probed `p` the density is evolved
/// `horizon_epochs` from the canonical start at step `dt_epochs` and
/// the timeout mass is read off the evolved density. Step-size
/// invariance of the crossing is a tested property of the integrator.
pub fn wire_tipping_point_by_evolution(
    family: ChainFamily,
    threshold: f64,
    dt_epochs: f64,
    horizon_epochs: f64,
) -> f64 {
    let mass = |p: f64| {
        let model = FluidModel::new(family, LossFeedback::Wire { p }, 1.0, 1.0);
        let state = model.stationary_by_evolution(dt_epochs, horizon_epochs, 1e-10);
        model
            .summarize(p, state.density, 0.0, false)
            .timeout_fraction
    };
    bisect_crossing(mass, threshold, 0.005, P_MAX)
}

/// The per-flow fair share (packets per second) at which the coupled
/// drop-tail fixed point crosses loss rate `p_threshold` — the
/// capacity-per-flow below which the population tips into the timeout
/// regime. Closed form: at the fixed point `λ(p)(1−p) = C`, i.e.
/// `C/N = μ(p)(1−p)/epoch`, so the tipping share is the chain's
/// per-flow goodput evaluated at the threshold loss rate. Scale-free in
/// `N`: this is why one number answers the million-flow question.
pub fn fair_share_tipping_point(family: ChainFamily, epoch_secs: f64, p_threshold: f64) -> f64 {
    assert!(epoch_secs > 0.0, "need a positive epoch");
    let p = p_threshold.clamp(P_MIN, P_MAX);
    let model = FluidModel::new(family, LossFeedback::Wire { p }, 1.0, epoch_secs);
    model.stationary().per_flow_goodput_pps
}

/// Bisects the increasing map `f` for the crossing of `threshold` on
/// `(lo, hi)`.
///
/// # Panics
///
/// Panics if `threshold` is not bracketed.
fn bisect_crossing(f: impl Fn(f64) -> f64, threshold: f64, mut lo: f64, mut hi: f64) -> f64 {
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

/// L1 distance between two discrete distributions (shorter input is
/// zero-padded). Total variation distance is half this.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| {
            let x = a.get(i).copied().unwrap_or(0.0);
            let y = b.get(i).copied().unwrap_or(0.0);
            (x - y).abs()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    const FULL: ChainFamily = ChainFamily::Full {
        wmax: 6,
        max_backoff: 3,
    };

    fn coupled(flows: f64, share_pps: f64) -> FluidModel {
        FluidModel::new(
            FULL,
            LossFeedback::DropTail {
                capacity_pps: flows * share_pps,
                buffer_pkts: flows,
            },
            flows,
            0.2,
        )
    }

    #[test]
    fn mass_conserved_and_nonnegative_along_coupled_trajectory() {
        // A congested coupled system: the density crosses the whole
        // chain while the queue fills, and every step must keep the
        // density a probability vector.
        let model = coupled(64.0, 2.0);
        let mut state = model.initial_state();
        let mut prev_mass: f64 = state.density.iter().sum();
        for step in 0..800 {
            state = model.step(&state, 0.1);
            let mass: f64 = state.density.iter().sum();
            assert!(
                (mass - prev_mass).abs() < 1e-9,
                "step {step}: mass drifted {prev_mass} -> {mass}"
            );
            assert!(
                state.density.iter().all(|&x| x >= 0.0),
                "step {step}: negative density {:?}",
                state.density
            );
            assert!(state.queue_pkts >= 0.0 && state.queue_pkts <= 64.0);
            prev_mass = mass;
        }
        assert!((prev_mass - 1.0).abs() < 1e-7, "total drift over 800 steps");
    }

    #[test]
    fn wire_evolution_converges_to_dtmc_stationary() {
        // On an uncoupled wire the ODE is linear with the chain's
        // stationary distribution as its attractor: RK4 must land on
        // the Gaussian-elimination answer.
        for &p in &[0.05, 0.15, 0.3] {
            let model = FluidModel::new(FULL, LossFeedback::Wire { p }, 100.0, 0.2);
            let state = model.stationary_by_evolution(0.1, 5_000.0, 1e-12);
            let exact = model.stationary();
            let tv = 0.5 * l1_distance(&state.density, &exact.density);
            assert!(tv < 1e-6, "p={p}: TV {tv}");
        }
    }

    #[test]
    fn fixed_point_invariant_to_step_halving() {
        let model = coupled(128.0, 3.0);
        let a = model.stationary_by_evolution(0.2, 4_000.0, 1e-12);
        let b = model.stationary_by_evolution(0.1, 4_000.0, 1e-12);
        let tv = 0.5 * l1_distance(&a.density, &b.density);
        assert!(tv < 1e-6, "halving dt moved the fixed point by TV {tv}");
        assert!(
            (a.queue_pkts - b.queue_pkts).abs() < 1e-3,
            "queue {} vs {}",
            a.queue_pkts,
            b.queue_pkts
        );
    }

    #[test]
    fn coupled_evolution_agrees_with_bisection_fixed_point() {
        let model = coupled(128.0, 3.0);
        let evolved = model.stationary_by_evolution(0.1, 4_000.0, 1e-12);
        let lambda = model.offered_pps(&evolved.density);
        let p_evolved = model.loss_probability(evolved.queue_pkts, lambda);
        let exact = model.stationary();
        assert!(
            (p_evolved - exact.p).abs() < 1e-3,
            "evolved p {p_evolved} vs fixed point {}",
            exact.p
        );
        let tv = 0.5 * l1_distance(&evolved.density, &exact.density);
        assert!(tv < 1e-3, "TV {tv}");
    }

    #[test]
    fn uncongested_share_yields_minimal_loss() {
        // A generous fair share: the fixed point reports an effectively
        // lossless link with an empty queue.
        let model = coupled(1_000.0, 40.0);
        let st = model.stationary();
        assert_eq!(st.p, P_MIN);
        assert_eq!(st.queue_pkts, 0.0);
        assert!(!st.saturated);
        assert!(
            st.timeout_fraction < 0.01,
            "timeouts {}",
            st.timeout_fraction
        );
    }

    #[test]
    fn starvation_share_saturates_and_is_flagged() {
        // Provision half the goodput the chain can still push at the
        // edge of its domain: no interior fixed point exists.
        let floor = fair_share_tipping_point(FULL, 0.2, P_MAX);
        let model = coupled(1_000.0, 0.5 * floor);
        let st = model.stationary();
        assert!(st.saturated);
        assert_eq!(st.p, P_MAX);
    }

    #[test]
    fn stationary_cost_is_independent_of_flow_count() {
        let small = coupled(100.0, 2.0).stationary();
        let million = coupled(1_000_000.0, 2.0).stationary();
        // Scale-free: per-flow normalized capacity gives the same p*.
        assert!(
            (small.p - million.p).abs() < 1e-9,
            "{} vs {}",
            small.p,
            million.p
        );
        // And the million-flow solve is a handful of small dense
        // solves — bound it loosely even for debug builds.
        let t0 = std::time::Instant::now();
        let _ = coupled(1_000_000.0, 2.0).stationary();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "million-flow stationary took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn tipping_point_matches_majority_timeout_analysis() {
        let fluid = wire_tipping_point(FULL, 0.5);
        let exact = analysis::majority_timeout_point(6, 3);
        assert!(
            (fluid - exact).abs() < 1e-6,
            "fluid {fluid} vs analysis {exact}"
        );
    }

    #[test]
    fn tipping_point_stable_across_rk4_step_sizes() {
        let coarse = wire_tipping_point_by_evolution(FULL, 0.5, 0.2, 3_000.0);
        let fine = wire_tipping_point_by_evolution(FULL, 0.5, 0.1, 3_000.0);
        assert!(
            (coarse - fine).abs() < 1e-3,
            "dt=0.2 -> {coarse}, dt=0.1 -> {fine}"
        );
        let exact = wire_tipping_point(FULL, 0.5);
        assert!(
            (fine - exact).abs() < 2e-3,
            "evolution {fine} vs exact {exact}"
        );
    }

    #[test]
    fn fair_share_tipping_point_is_the_goodput_at_threshold() {
        let share = fair_share_tipping_point(FULL, 0.2, 0.1);
        assert!(share > 0.0);
        // Cross-check: provisioning exactly that share lands the
        // coupled fixed point at the threshold loss rate.
        let model = coupled(10_000.0, share);
        let st = model.stationary();
        assert!((st.p - 0.1).abs() < 1e-6, "p* = {}", st.p);
    }

    #[test]
    fn predicted_jain_rises_with_horizon_and_falls_with_loss() {
        let model = FluidModel::new(FULL, LossFeedback::Wire { p: 0.15 }, 100.0, 0.2);
        let st = model.stationary();
        let short = model.predicted_jain(&st, 50.0);
        let long = model.predicted_jain(&st, 5_000.0);
        assert!(short < long, "{short} vs {long}");
        assert!(long > 0.95, "long horizons average out: {long}");
        let lossy = FluidModel::new(FULL, LossFeedback::Wire { p: 0.3 }, 100.0, 0.2);
        let st_lossy = lossy.stationary();
        assert!(
            lossy.predicted_jain(&st_lossy, 300.0) < model.predicted_jain(&st, 300.0),
            "more loss, more timeout spread, less fairness"
        );
    }

    #[test]
    fn n_sent_matches_full_model_aggregation() {
        for &p in &[0.05, 0.2] {
            let model = FluidModel::new(FULL, LossFeedback::Wire { p }, 1.0, 0.2);
            let st = model.stationary();
            let reference = crate::FullModel::new(p, 6, 3).n_sent_distribution();
            assert!(
                l1_distance(&st.n_sent, &reference) < 1e-12,
                "p={p}: fluid n_sent diverged from the chain's aggregation"
            );
        }
    }

    #[test]
    fn partial_family_supported() {
        let model = FluidModel::new(
            ChainFamily::Partial { wmax: 6 },
            LossFeedback::Wire { p: 0.2 },
            1.0,
            0.2,
        );
        let st = model.stationary();
        let reference = crate::PartialModel::new(0.2, 6).n_sent_distribution();
        assert!(l1_distance(&st.n_sent, &reference) < 1e-12);
    }

    #[test]
    fn l1_distance_pads_and_sums() {
        assert_eq!(l1_distance(&[0.5, 0.5], &[0.5, 0.25, 0.25]), 0.5);
        assert_eq!(l1_distance(&[], &[]), 0.0);
        assert!((l1_distance(&[1.0], &[0.0, 1.0]) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn step_is_bit_reproducible() {
        let model = coupled(64.0, 2.0);
        let mut a = model.initial_state();
        let mut b = model.initial_state();
        for _ in 0..50 {
            a = model.step(&a, 0.1);
            b = model.step(&b, 0.1);
        }
        assert_eq!(a, b, "same inputs, same bits");
        assert_eq!(
            a.density.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.density.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
