//! `taq-trace`: deterministic packet-lifecycle tracing for the TAQ
//! reproduction.
//!
//! The paper's claim is *predictability* — TAQ is supposed to remove
//! the long per-flow silences and short-term unfairness that aggregate
//! statistics hide. Aggregates cannot answer "why did flow X stall for
//! 9 s at t=41 s"; a causal per-packet record can. This crate layers
//! that record on the existing telemetry hub:
//!
//! - [`PacketSpan`] — one packet's chain: arrive → classify(class) →
//!   enqueue(depth) → transmit → deliver(latency) | drop(stage) |
//!   fault(kind), assembled by [`TraceCollector`] from the event
//!   stream.
//! - [`FlightRecorder`] — a fixed-capacity ring of recent spans per
//!   link, so the dump near a pathology holds its local history; each
//!   retained span is a 72-byte record, decoded back on read.
//! - [`TripWire`] — live detection of the Figure 1 pathology (a
//!   per-flow silence beyond a threshold), testbed crash-restart
//!   drills, and harness-raised invariant violations; the first trip
//!   freezes a post-mortem JSONL dump.
//! - [`TraceReport`] — offline analysis of dumps: per-flow latency
//!   percentiles, silence-period distributions, and a sliding-window
//!   Jain fairness timeline.
//!
//! Determinism: the collector is a passive [`taq_telemetry::TelemetrySink`]
//! — it observes the stream and feeds nothing back, so enabling it
//! cannot perturb FlowLog/TaqStats fingerprints; and because the hub's
//! emit closures only run when a sink listens, the disabled path stays
//! at one atomic load per would-be event.

mod collector;
mod links;
mod recorder;
mod report;
mod span;
mod tripwire;

pub use collector::{TraceCollector, TraceConfig};
pub use recorder::FlightRecorder;
pub use report::{LatencyStats, ParsedSpan, ParsedTrip, ReportConfig, SilenceStats, TraceReport};
pub use span::{PacketSpan, SpanOutcome};
pub use tripwire::{TripRecord, TripWire};
