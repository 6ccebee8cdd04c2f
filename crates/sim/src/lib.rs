//! # taq-sim — deterministic discrete-event network simulator
//!
//! The simulation substrate for the TAQ (EuroSys 2014) reproduction: a
//! small, deterministic packet-level network simulator standing in for
//! ns2/ns3. It provides
//!
//! - a nanosecond integer clock ([`SimTime`], [`SimDuration`],
//!   [`Bandwidth`]),
//! - an event queue with cancellable timers: a hierarchical timer
//!   wheel popping a canonical `(time, event-key)` order,
//! - rate-limited, delayed, queue-buffered unidirectional [links],
//! - the [`Qdisc`] trait that DropTail, RED, SFQ and TAQ all implement,
//! - [`Agent`]s (hosts, routers) driven by packet and timer callbacks,
//! - the paper's dumbbell topology ([`Dumbbell`]) and general
//!   multi-bottleneck graphs ([`Topology`]) with static routing, and
//! - [`LinkMonitor`] hooks that the metrics crate uses to observe the
//!   bottleneck, including a pcap-style [`PacketTrace`] recorder.
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
//!     Bandwidth, Dumbbell, DumbbellConfig, SimDuration, SimTime, Simulator, UnboundedFifo,
//! };
//!
//! let mut sim = Simulator::new(42);
//! let cfg = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600));
//! let db = Dumbbell::build_simple(&mut sim, cfg, Box::new(UnboundedFifo::new()));
//! // ... attach taq_tcp hosts with db.attach_left / db.attach_right ...
//! sim.run_until(SimTime::from_secs(10));
//! assert_eq!(sim.now(), SimTime::from_secs(10));
//! # let _ = db;
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
mod trace;

pub use arena::{PacketArena, PacketId};
pub use engine::{Agent, Ctx, ForwardingRouter, Simulator};
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
pub use topology::{Dumbbell, DumbbellConfig, TopoLinkConfig, Topology, TopologyConfig};
pub use trace::{FlowTraceSummary, PacketTrace, TraceEvent, TraceEventKind};
