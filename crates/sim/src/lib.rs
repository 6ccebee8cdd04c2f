//! # taq-sim — deterministic discrete-event network simulator
//!
//! The simulation substrate for the TAQ (EuroSys 2014) reproduction: a
//! small, deterministic packet-level network simulator standing in for
//! ns2/ns3. It provides
//!
//! - a nanosecond integer clock ([`SimTime`], [`SimDuration`],
//!   [`Bandwidth`]),
//! - an event queue with cancellable timers: a hierarchical timer
//!   wheel (one-tick near level, four coarser ones) popping a canonical
//!   `(time, event-key)` order,
//! - rate-limited, delayed, queue-buffered unidirectional [links],
//! - the [`Qdisc`] trait that DropTail, RED, SFQ and TAQ all implement,
//! - [`Agent`]s (hosts, traffic sources) driven by packet and timer
//!   callbacks, and routers the engine forwards through by packet id,
//! - router graphs with static routing ([`Topology`]), of which the
//!   paper's dumbbell ([`DumbbellConfig`]) is the two-router case, and
//! - [`LinkMonitor`] hooks that the metrics crate uses to observe the
//!   bottleneck, including an [`EventRecorder`] that keeps every event.
//!
//! Determinism: a simulation is a pure function of its construction and
//! seed. Events at the same instant fire in canonical event-key order
//! (which depends only on simulation content, never on the order
//! callbacks scheduled them in), and all randomness derives from the
//! seed through per-entity [`SimRng`] streams. Each run is
//! single-threaded; a built [`Simulator`] is `Send`, so independent
//! runs fan out across worker threads.
//!
//! [links]: crate::LinkStats
//!
//!
//! ## Example
//!
//! ```
//! use taq_sim::{
//!     Bandwidth, SimDuration, SimTime, Simulator, TopoLinkConfig, Topology, TopologyConfig,
//!     UnboundedFifo,
//! };
//!
//! let mut sim = Simulator::new(42);
//! let link = |from, to| TopoLinkConfig {
//!     from,
//!     to,
//!     rate: Bandwidth::from_kbps(600),
//!     delay: SimDuration::from_millis(96),
//! };
//! let cfg = TopologyConfig {
//!     routers: 2,
//!     links: vec![link(0, 1), link(1, 0)],
//!     access_rate: Bandwidth::from_mbps(100),
//!     access_delay: SimDuration::from_millis(1),
//! };
//! let fifo = || Box::new(UnboundedFifo::new());
//! let topo = Topology::build(&mut sim, cfg, vec![fifo(), fifo()]);
//! // ... attach taq_tcp hosts with topo.attach_host(&mut sim, node, router) ...
//! sim.run_until(SimTime::from_secs(10));
//! assert_eq!(sim.now(), SimTime::from_secs(10));
//! # let _ = topo;
//! ```

mod arena;
mod engine;
mod events;
mod intern;
mod link;
mod monitor;
mod packet;
mod qdisc;
mod rng;
mod time;
mod topology;

pub use arena::{PacketArena, PacketId};
pub use engine::{Agent, Ctx, Simulator};
pub use events::TimerId;
pub use intern::{fx_hash_key, FlowId, FlowInterner, FxBuildHasher, FxHasher};
pub use link::LinkStats;
pub use monitor::{
    telemetry_flow_id, AsAny, EventRecorder, LinkMonitor, MonitorId, RecordedEvent, RecordedKind,
    TelemetryBridge,
};
pub use packet::{
    seq_reuse_is_retransmission, FlowKey, LinkId, NodeId, Packet, PacketBuilder, SackBlocks,
    TcpFlags,
};
pub use qdisc::{EnqueueOutcome, Qdisc, UnboundedFifo};
pub use rng::SimRng;
pub use time::{Bandwidth, SimDuration, SimTime};
pub use topology::{DumbbellConfig, TopoLinkConfig, Topology, TopologyConfig};
