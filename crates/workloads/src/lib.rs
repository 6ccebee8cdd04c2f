//! # taq-workloads — traffic generation for the TAQ reproduction
//!
//! Builds the workloads the paper evaluates on:
//!
//! - [`TopologySpec`] / [`TopoScenario`] — the one way a scenario is
//!   built: a router graph with a per-pipe discipline ([`QdiscSpec`])
//!   and fault plan, a server, and helpers that attach clients for
//!   bulk flows, short-flow mixes, connection pools, and scheduled log
//!   replay;
//! - three recipes over it: [`DumbbellSpec`] (the paper's canonical
//!   experiment; `spec.build(seed, qdisc)` returns a
//!   [`DumbbellScenario`], a `TopoScenario` that also knows its
//!   bottleneck link and attaches clients on the far side),
//!   [`ParkingLotSpec`] and [`AccessTreeSpec`];
//! - [`ObjectSizeModel`] — heavy-tailed web object sizes (log-normal
//!   body + Pareto tail), the stand-in for the unavailable real traces;
//! - [`weblog`] — synthetic access logs with Poisson arrivals,
//!   including the `campus_two_hour` preset mirroring Figure 1's
//!   setting;
//! - [`SessionConfig`] / [`generate_session`] — page-structured
//!   browsing sessions for the user-hang experiment (§2.3).
//!
//! Everything is deterministic under a [`taq_sim::SimRng`] seed.

mod scenario;
mod sessions;
mod sizes;
mod topo_spec;
pub mod weblog;

pub use scenario::{flows_for_fair_share, Dumbbell, DumbbellScenario, DumbbellSpec, BULK_BYTES};
pub use sessions::{generate_session, Session, SessionConfig};
pub use sizes::ObjectSizeModel;
pub use topo_spec::{
    pipe_seed, AccessTreeSpec, BuiltPipe, ParkingLotSpec, PipeSpec, QdiscSpec, TopoScenario,
    TopologySpec,
};
