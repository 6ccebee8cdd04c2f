//! # taq-metrics — evaluation metrics for the TAQ reproduction
//!
//! Implements every measurement device the paper's evaluation uses:
//!
//! - [`jain_index`] and [`SliceThroughput`] — Jain fairness over
//!   configurable time slices (Figures 2, 8, 11), plus the shut-out and
//!   top-share readings of §2.3;
//! - [`EvolutionTracker`] — the Maintained / Dropped / Arriving /
//!   Stalled flow classification of Figure 9;
//! - [`Distribution`] and [`log_bucket_summary`] — CDFs and
//!   log-bucketed percentile summaries (Figures 1 and 12);
//! - [`HangTracker`] — user-perceived hang extraction (§2.3);
//! - [`EpochActivity`] — packets-per-epoch histograms for validating
//!   the Markov model (Figure 6).
//!
//! All collectors implement [`taq_sim::LinkMonitor`], so they attach to
//! a simulation's bottleneck with `sim.add_monitor(...)` and are read
//! back after the run with [`taq_sim::Simulator::monitor`].

mod dist;
mod epochs;
mod evolution;
mod hangs;
mod jain;

pub use dist::{log_bucket_summary, BucketSummary, Distribution};
pub use epochs::EpochActivity;
pub use evolution::{EvolutionCounts, EvolutionTracker};
pub use hangs::HangTracker;
pub use jain::{jain_index, SliceThroughput};
