//! Topology construction: the paper's dumbbell and general graphs.
//!
//! Historically the dumbbell lived in `topology.rs` and the
//! multi-bottleneck graph engine in `topo.rs`; they are now submodules
//! of one `topology` module:
//!
//! - [`dumbbell`] — the two-router dumbbell every figure in the paper
//!   uses ([`Dumbbell`], [`DumbbellConfig`]);
//! - [`graph`] — arbitrary router graphs with hop-count routing
//!   ([`Topology`], [`TopologyConfig`], [`TopoLinkConfig`]).
//!
//! All types re-export from the crate root, so existing `use
//! taq_sim::{Dumbbell, Topology}` imports keep working.

pub mod dumbbell;
pub mod graph;

pub use dumbbell::{Dumbbell, DumbbellConfig};
pub use graph::{TopoLinkConfig, Topology, TopologyConfig};
