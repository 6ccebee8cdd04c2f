//! The structured event taxonomy shared by the middlebox core, the
//! simulator, and the real-time testbed.
//!
//! Every event carries only plain data (no references into the emitting
//! layer) so sinks can buffer them, and every event renders to the same
//! [`Value`] shape regardless of which layer produced it — a TAQ run in
//! the simulator and one in the testbed yield directly comparable JSONL.

use crate::value::Value;
use crate::vocab::{AdmissionDecision, FaultKind, FlowState, QueueClass};
use std::fmt;

/// A flow identified by its 4-tuple. This mirrors the simulator's
/// `FlowKey` but lives here so the telemetry crate stays at the bottom
/// of the dependency graph (the simulator depends on *us*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    pub src: u32,
    pub src_port: u16,
    pub dst: u32,
    pub dst_port: u16,
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

impl FlowId {
    fn to_value(self) -> Value {
        Value::Str(self.to_string())
    }
}

/// One structured telemetry event. Variants cover the three layers:
/// flow-tracker state machine, queueing/classification, admission
/// control (all `taq-core`); link-level packet lifecycle and engine
/// aggregates (`taq-sim` / `taq-testbed`).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The per-flow state machine moved. `trigger` names the transition
    /// cause ("epoch-roll", "local-drop", "retransmit-after-silence"...);
    /// it stays a string because nothing counts or stores it, so an enum
    /// would remove no lookup.
    FlowStateChanged {
        flow: FlowId,
        from: FlowState,
        to: FlowState,
        trigger: &'static str,
    },
    /// A forwarded data packet was recognized as a retransmission.
    Retransmit {
        flow: FlowId,
        /// `true` when the retransmission repairs a drop this middlebox
        /// itself inflicted (the TAQ "recovery" fast path).
        repairs_local_drop: bool,
    },
    /// TAQ placed an arriving packet into a priority class. `packet` is
    /// the emitting layer's dense per-packet id (stamped at ingress), so
    /// trace sinks can stitch classification into the packet's lifecycle
    /// span.
    Classified {
        packet: u64,
        flow: FlowId,
        class: QueueClass,
        retransmission: bool,
    },
    /// A packet was dropped by the queue discipline. `stage` is the TAQ
    /// eviction stage (1-6), 7 for the NewFlow cap, 0 for non-staged
    /// drops. `packet` identifies the victim (which, for staged
    /// eviction, is usually not the packet that just arrived).
    Dropped {
        packet: u64,
        flow: FlowId,
        stage: u8,
        retransmission: bool,
    },
    /// Periodic sample of queue occupancy, with per-class packet
    /// counts in [`QueueClass::ALL`] order.
    QueueDepth {
        pkts: u64,
        bytes: u64,
        per_class: [u64; QueueClass::ALL.len()],
    },
    /// Admission control decided on a SYN.
    Admission {
        src: u32,
        decision: AdmissionDecision,
        loss_rate: f64,
    },
    /// A source pool entered the admission wait queue.
    PoolWaiting { src: u32 },
    /// A waiting source pool was granted admission.
    PoolAdmitted { src: u32 },
    /// A packet entered, left, or was lost on a link (kind is
    /// "enqueue", "drop", or "transmit"). `packet` is the packet's
    /// dense id. `kind` stays a string because the repo benchmark
    /// builds this variant with a literal.
    Link {
        link: u32,
        kind: &'static str,
        packet: u64,
        flow: FlowId,
        bytes: u64,
    },
    /// A packet reached its final destination. `latency_ns` is the
    /// sim-time (or scaled-real-time) span from the original send to
    /// delivery — the end of the packet's lifecycle span.
    Delivered {
        packet: u64,
        flow: FlowId,
        bytes: u64,
        latency_ns: u64,
    },
    /// The fault-injection layer perturbed traffic. `packet` and `flow`
    /// are present for per-packet faults and absent for link-level
    /// ones; `value` carries the kind-specific detail (bytes affected,
    /// new rate in bps, new delay in ns, packets discarded by a
    /// restart).
    Fault {
        link: u32,
        kind: FaultKind,
        packet: Option<u64>,
        flow: Option<FlowId>,
        value: f64,
    },
    /// Per-link aggregate counters at the end of a run.
    LinkSummary {
        link: u32,
        offered_pkts: u64,
        dropped_pkts: u64,
        transmitted_pkts: u64,
        utilization: f64,
    },
    /// Engine aggregates at the end of a run: how much virtual time was
    /// covered, how many events it took, and the wall-clock speed.
    EngineSummary {
        events: u64,
        virtual_ns: u64,
        wall_ns: u64,
    },
}

impl Event {
    /// Kind tags of the variants, in declaration order.
    pub(crate) const TAGS: [&'static str; 13] = [
        "flow_state",
        "retransmit",
        "classified",
        "dropped",
        "queue_depth",
        "admission",
        "pool_waiting",
        "pool_admitted",
        "link",
        "delivered",
        "fault",
        "link_summary",
        "engine_summary",
    ];

    /// The variant's dense index — its position in [`Event::TAGS`] — so
    /// a sink can count kinds in a fixed array instead of a map keyed by
    /// [`Event::kind`].
    #[inline]
    pub(crate) fn slot(&self) -> usize {
        match self {
            Event::FlowStateChanged { .. } => 0,
            Event::Retransmit { .. } => 1,
            Event::Classified { .. } => 2,
            Event::Dropped { .. } => 3,
            Event::QueueDepth { .. } => 4,
            Event::Admission { .. } => 5,
            Event::PoolWaiting { .. } => 6,
            Event::PoolAdmitted { .. } => 7,
            Event::Link { .. } => 8,
            Event::Delivered { .. } => 9,
            Event::Fault { .. } => 10,
            Event::LinkSummary { .. } => 11,
            Event::EngineSummary { .. } => 12,
        }
    }

    /// Stable machine-readable kind tag, used as the JSONL `event`
    /// field and as the aggregation key in [`crate::SummarySink`] and
    /// [`crate::RingBufferSink`].
    pub fn kind(&self) -> &'static str {
        Self::TAGS[self.slot()]
    }

    /// Renders the event (with its timestamp, in nanoseconds of
    /// simulated or scaled-real time) as one JSON object.
    pub fn to_value(&self, at_ns: u64) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("t_ns".to_string(), Value::UInt(at_ns)),
            ("event".to_string(), Value::from(self.kind())),
        ];
        let mut push = |k: &str, v: Value| pairs.push((k.to_string(), v));
        match self {
            Event::FlowStateChanged {
                flow,
                from,
                to,
                trigger,
            } => {
                push("flow", flow.to_value());
                push("from", Value::from(from.name()));
                push("to", Value::from(to.name()));
                push("trigger", Value::from(*trigger));
            }
            Event::Retransmit {
                flow,
                repairs_local_drop,
            } => {
                push("flow", flow.to_value());
                push("repairs_local_drop", Value::Bool(*repairs_local_drop));
            }
            Event::Classified {
                packet,
                flow,
                class,
                retransmission,
            } => {
                push("packet", Value::UInt(*packet));
                push("flow", flow.to_value());
                push("class", Value::from(class.name()));
                push("retransmission", Value::Bool(*retransmission));
            }
            Event::Dropped {
                packet,
                flow,
                stage,
                retransmission,
            } => {
                push("packet", Value::UInt(*packet));
                push("flow", flow.to_value());
                push("stage", Value::UInt(u64::from(*stage)));
                push("retransmission", Value::Bool(*retransmission));
            }
            Event::QueueDepth {
                pkts,
                bytes,
                per_class,
            } => {
                push("pkts", Value::UInt(*pkts));
                push("bytes", Value::UInt(*bytes));
                push(
                    "per_class",
                    Value::Object(
                        QueueClass::ALL
                            .iter()
                            .zip(per_class)
                            .map(|(class, n)| (class.name().to_string(), Value::UInt(*n)))
                            .collect(),
                    ),
                );
            }
            Event::Admission {
                src,
                decision,
                loss_rate,
            } => {
                push("src", Value::from(*src));
                push("decision", Value::from(decision.name()));
                push("loss_rate", Value::Float(*loss_rate));
            }
            Event::PoolWaiting { src } => push("src", Value::from(*src)),
            Event::PoolAdmitted { src } => push("src", Value::from(*src)),
            Event::Link {
                link,
                kind,
                packet,
                flow,
                bytes,
            } => {
                push("link", Value::from(*link));
                push("kind", Value::from(*kind));
                push("packet", Value::UInt(*packet));
                push("flow", flow.to_value());
                push("bytes", Value::UInt(*bytes));
            }
            Event::Delivered {
                packet,
                flow,
                bytes,
                latency_ns,
            } => {
                push("packet", Value::UInt(*packet));
                push("flow", flow.to_value());
                push("bytes", Value::UInt(*bytes));
                push("latency_ns", Value::UInt(*latency_ns));
            }
            Event::Fault {
                link,
                kind,
                packet,
                flow,
                value,
            } => {
                push("link", Value::from(*link));
                push("kind", Value::from(kind.name()));
                if let Some(packet) = packet {
                    push("packet", Value::UInt(*packet));
                }
                if let Some(flow) = flow {
                    push("flow", flow.to_value());
                }
                push("value", Value::Float(*value));
            }
            Event::LinkSummary {
                link,
                offered_pkts,
                dropped_pkts,
                transmitted_pkts,
                utilization,
            } => {
                push("link", Value::from(*link));
                push("offered_pkts", Value::UInt(*offered_pkts));
                push("dropped_pkts", Value::UInt(*dropped_pkts));
                push("transmitted_pkts", Value::UInt(*transmitted_pkts));
                push("utilization", Value::Float(*utilization));
            }
            Event::EngineSummary {
                events,
                virtual_ns,
                wall_ns,
            } => {
                push("events", Value::UInt(*events));
                push("virtual_ns", Value::UInt(*virtual_ns));
                push("wall_ns", Value::UInt(*wall_ns));
                if *wall_ns > 0 {
                    push(
                        "virtual_time_rate",
                        Value::Float(*virtual_ns as f64 / *wall_ns as f64),
                    );
                }
            }
        }
        Value::Object(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_display_matches_sim_format() {
        let f = FlowId {
            src: 1,
            src_port: 4000,
            dst: 2,
            dst_port: 80,
        };
        assert_eq!(f.to_string(), "1:4000->2:80");
    }

    #[test]
    fn event_renders_kind_and_timestamp() {
        let ev = Event::Dropped {
            packet: 77,
            flow: FlowId {
                src: 0,
                src_port: 1,
                dst: 9,
                dst_port: 80,
            },
            stage: 3,
            retransmission: false,
        };
        let v = ev.to_value(12_345);
        assert_eq!(v.get("t_ns").and_then(Value::as_u64), Some(12_345));
        assert_eq!(v.get("event").and_then(Value::as_str), Some("dropped"));
        assert_eq!(v.get("stage").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("packet").and_then(Value::as_u64), Some(77));
    }

    #[test]
    fn delivered_renders_latency_and_packet() {
        let v = Event::Delivered {
            packet: 5,
            flow: FlowId {
                src: 1,
                src_port: 2,
                dst: 3,
                dst_port: 4,
            },
            bytes: 540,
            latency_ns: 14_320_000,
        }
        .to_value(20_000_000);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("delivered"));
        assert_eq!(v.get("packet").and_then(Value::as_u64), Some(5));
        assert_eq!(
            v.get("latency_ns").and_then(Value::as_u64),
            Some(14_320_000)
        );
    }

    #[test]
    fn fault_renders_optional_flow() {
        let link_level = Event::Fault {
            link: 0,
            kind: FaultKind::RateChange,
            packet: None,
            flow: None,
            value: 300_000.0,
        }
        .to_value(9);
        assert_eq!(
            link_level.get("event").and_then(Value::as_str),
            Some("fault")
        );
        assert_eq!(
            link_level.get("kind").and_then(Value::as_str),
            Some("rate_change")
        );
        assert!(link_level.get("flow").is_none());
        assert!(link_level.get("packet").is_none());
        let per_packet = Event::Fault {
            link: 0,
            kind: FaultKind::BurstLoss,
            packet: Some(42),
            flow: Some(FlowId {
                src: 1,
                src_port: 2,
                dst: 3,
                dst_port: 4,
            }),
            value: 500.0,
        }
        .to_value(9);
        assert_eq!(
            per_packet.get("flow").and_then(Value::as_str),
            Some("1:2->3:4")
        );
        assert_eq!(per_packet.get("packet").and_then(Value::as_u64), Some(42));
    }

    #[test]
    fn engine_summary_includes_rate() {
        let v = Event::EngineSummary {
            events: 10,
            virtual_ns: 2_000,
            wall_ns: 1_000,
        }
        .to_value(0);
        assert_eq!(
            v.get("virtual_time_rate").and_then(Value::as_f64),
            Some(2.0)
        );
    }
}
