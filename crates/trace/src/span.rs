//! The packet-lifecycle span: one packet's causal chain from link
//! ingress to its terminal event, assembled from the telemetry stream.

use taq_telemetry::{FaultKind, FlowId, QueueClass, Value};

/// How a packet's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Reached its destination; `latency_ns` is send-to-delivery
    /// sim time as reported by the delivering layer.
    Delivered { latency_ns: u64 },
    /// Dropped by a queue discipline. `stage` is the TAQ eviction stage
    /// (1-6), 7 for the NewFlow cap, 0 for non-staged drops (DropTail,
    /// fault-induced rejects without a core drop record).
    Dropped { stage: u8 },
    /// Rejected by the fault layer: `kind` is a terminal fault
    /// ([`FaultKind::is_terminal`]).
    Faulted { kind: FaultKind },
    /// Still in flight when the trace was dumped — a packet buffered in
    /// a queue (or lost to an untraced path) at post-mortem time.
    Incomplete,
}

impl SpanOutcome {
    /// Stable tag used as the dump's `outcome` field.
    pub fn tag(&self) -> &'static str {
        match self {
            SpanOutcome::Delivered { .. } => "delivered",
            SpanOutcome::Dropped { .. } => "dropped",
            SpanOutcome::Faulted { .. } => "faulted",
            SpanOutcome::Incomplete => "incomplete",
        }
    }
}

/// One packet's assembled lifecycle. Field order follows the causal
/// chain: arrive → classify → enqueue(depth) → transmit → outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSpan {
    /// Dense per-run packet id (stamped at ingress by the emitting
    /// layer; ids are unique per run, so a span is uniquely keyed).
    pub packet: u64,
    /// The packet's flow 4-tuple.
    pub flow: FlowId,
    /// Link of the first observed enqueue (the traced bottleneck under
    /// a filtered bridge; the first hop otherwise).
    pub link: u32,
    /// Wire bytes.
    pub bytes: u64,
    /// TAQ class assigned at enqueue, when the discipline classifies.
    pub class: Option<QueueClass>,
    /// Time of the first link enqueue.
    pub arrive_ns: u64,
    /// Queue depth (packets already resident on `link`) at enqueue.
    pub depth_at_enqueue: u64,
    /// Time serialization onto the wire finished, if it did.
    pub transmit_ns: Option<u64>,
    /// Link enqueues observed (>1 on multi-hop paths with an unfiltered
    /// bridge).
    pub hops: u32,
    /// Fault that touched this packet in flight, if any (non-terminal
    /// faults — reorder, duplicate — annotate a span that still
    /// delivers).
    pub fault: Option<FaultKind>,
    /// Terminal event.
    pub outcome: SpanOutcome,
    /// Time of the terminal event (equals `arrive_ns` for spans dumped
    /// incomplete before any terminal event).
    pub end_ns: u64,
}

impl PacketSpan {
    /// Starts a span at its first link enqueue.
    pub fn begin(packet: u64, flow: FlowId, link: u32, bytes: u64, at_ns: u64, depth: u64) -> Self {
        PacketSpan {
            packet,
            flow,
            link,
            bytes,
            class: None,
            arrive_ns: at_ns,
            depth_at_enqueue: depth,
            transmit_ns: None,
            hops: 1,
            fault: None,
            outcome: SpanOutcome::Incomplete,
            end_ns: at_ns,
        }
    }

    /// Renders the span as one flat JSON object (the dump's
    /// `"record":"span"` line).
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("record".to_string(), Value::from("span")),
            ("packet".to_string(), Value::UInt(self.packet)),
            ("flow".to_string(), Value::Str(self.flow.to_string())),
            ("link".to_string(), Value::from(self.link)),
            ("bytes".to_string(), Value::UInt(self.bytes)),
        ];
        if let Some(class) = self.class {
            pairs.push(("class".to_string(), Value::from(class.name())));
        }
        pairs.push(("arrive_ns".to_string(), Value::UInt(self.arrive_ns)));
        pairs.push(("depth".to_string(), Value::UInt(self.depth_at_enqueue)));
        if let Some(tx) = self.transmit_ns {
            pairs.push(("transmit_ns".to_string(), Value::UInt(tx)));
        }
        if self.hops > 1 {
            pairs.push(("hops".to_string(), Value::from(self.hops)));
        }
        if let Some(fault) = self.fault {
            pairs.push(("fault".to_string(), Value::from(fault.name())));
        }
        pairs.push(("outcome".to_string(), Value::from(self.outcome.tag())));
        match self.outcome {
            SpanOutcome::Delivered { latency_ns } => {
                pairs.push(("latency_ns".to_string(), Value::UInt(latency_ns)));
            }
            SpanOutcome::Dropped { stage } => {
                pairs.push(("stage".to_string(), Value::UInt(u64::from(stage))));
            }
            SpanOutcome::Faulted { kind } => {
                pairs.push(("fault_kind".to_string(), Value::from(kind.name())));
            }
            SpanOutcome::Incomplete => {}
        }
        pairs.push(("end_ns".to_string(), Value::UInt(self.end_ns)));
        Value::Object(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowId {
        FlowId {
            src: 1,
            src_port: 80,
            dst: 2,
            dst_port: 9000,
        }
    }

    #[test]
    fn span_renders_causal_chain() {
        let mut span = PacketSpan::begin(42, flow(), 0, 500, 1_000, 3);
        span.class = Some(QueueClass::NewFlow);
        span.transmit_ns = Some(2_000);
        span.outcome = SpanOutcome::Delivered { latency_ns: 4_000 };
        span.end_ns = 5_000;
        let v = span.to_value();
        assert_eq!(v.get("record").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("packet").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("flow").and_then(Value::as_str), Some("1:80->2:9000"));
        assert_eq!(v.get("class").and_then(Value::as_str), Some("NewFlow"));
        assert_eq!(v.get("depth").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("delivered"));
        assert_eq!(v.get("latency_ns").and_then(Value::as_u64), Some(4_000));
        assert!(v.get("hops").is_none(), "single-hop spans omit the field");
    }

    #[test]
    fn dropped_span_carries_stage() {
        let mut span = PacketSpan::begin(7, flow(), 0, 500, 10, 0);
        span.outcome = SpanOutcome::Dropped { stage: 5 };
        span.end_ns = 10;
        let v = span.to_value();
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("dropped"));
        assert_eq!(v.get("stage").and_then(Value::as_u64), Some(5));
        assert!(v.get("latency_ns").is_none());
    }
}
