//! Topology construction: one graph engine, and the dumbbell's
//! parameters.
//!
//! - [`graph`] — arbitrary router graphs with hop-count routing
//!   ([`Topology`], [`TopologyConfig`], [`TopoLinkConfig`]); the only
//!   code that creates routers, links and routes;
//! - [`dumbbell`] — the rates and delays of the two-router shape every
//!   figure in the paper uses ([`DumbbellConfig`]).

pub mod dumbbell;
pub mod graph;

pub use dumbbell::DumbbellConfig;
pub use graph::{TopoLinkConfig, Topology, TopologyConfig};
