//! # taq-model — idealized Markov models of TCP in small packet regimes
//!
//! Implements the paper's analytical contribution: Markov chains
//! describing a TCP flow's epoch-by-epoch behaviour under a single
//! per-packet loss probability `p`, specialized to the small windows and
//! high loss rates of the sub-packet regime.
//!
//! - [`PartialModel`] — the chain of Figure 4: window states `S2..SWmax`,
//!   the simple-timeout buffer `b0`, the retransmit state `S1`, and the
//!   aggregated repetitive-timeout state `b*` whose geometric dwell
//!   matches the closed-form expected idle time `1/(1 − 2p)`.
//! - [`FullModel`] — the expansion of Figure 5: explicit backoff stages
//!   ("at least 1, 2, ... backoffs") with exact wait chains and tagged
//!   low-window states carrying backoff memory until new data is
//!   cumulatively acknowledged.
//! - [`analysis`] — closed forms and the tipping-point computation that
//!   justifies TAQ's admission threshold `p_thresh = 0.1`;
//! - [`transient`] — first-passage analysis: expected epochs to a
//!   flow's next timeout from each state, the quantity underlying TAQ's
//!   per-state drop priorities.
//! - [`fluid`] — the mean-field limit: the chain lifted to an ODE over
//!   the population density coupled to a fluid queue, with a
//!   deterministic RK4 stepper and an `N`-independent stationary solver
//!   for instant million-flow predictions.
//!
//! Each chain is declared once as a [`Chain`]: typed [`State`]s and edges
//! weighted by closed forms in `p`, evaluated at any `p` into a [`Dtmc`]
//! (the models are their chain at one `p`; the fluid limit evaluates it
//! at every step). What a state sends and its backoff stage are read off
//! its variant, so the "packets sent per epoch" aggregation the paper's
//! Figure 6 validates against simulation ([`Dtmc::n_sent_distribution`])
//! and the timeout and silence masses are written once.
//!
//! ## Example
//!
//! ```
//! use taq_model::{analysis, PartialModel};
//!
//! let model = PartialModel::new(0.2, 6);
//! let dist = model.n_sent_distribution();
//! // At 20% loss a large share of epochs are silent.
//! assert!(dist[0] > 0.3);
//! // Closed form: expected idle time in the backoff state.
//! assert_eq!(analysis::expected_idle_epochs(0.2), Some(1.0 / 0.6));
//! ```

pub mod analysis;
mod dtmc;
pub mod fluid;
mod full;
mod partial;
mod state;
pub mod transient;

pub use dtmc::{Chain, Dtmc};
pub use fluid::{ChainFamily, FluidModel, FluidState, FluidStationary, LossFeedback};
pub use full::FullModel;
pub use partial::PartialModel;
pub use state::{Stage, State};
