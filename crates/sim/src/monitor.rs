//! Observation hooks for experiments.
//!
//! Metrics collectors attach to links as [`LinkMonitor`]s; the engine
//! invokes them on enqueue, drop, and transmit. Monitors are **owned by
//! the engine**: [`crate::Simulator::add_monitor`] takes a boxed monitor
//! and returns a [`MonitorId`], and the harness reads the collected data
//! back after (or during) the run with [`crate::Simulator::monitor`] /
//! [`crate::Simulator::monitor_mut`]. Owned state is what keeps a fully
//! built simulator `Send`, so whole runs can move into sweep worker
//! threads.

use crate::packet::{FlowKey, LinkId, Packet};
use crate::time::SimTime;
use std::any::Any;
use taq_telemetry::{Event, FlowId, Telemetry};

/// Upcast support for trait objects that need post-run downcasting.
///
/// Blanket-implemented for every `'static` type, so trait objects whose
/// traits list `AsAny` as a supertrait (here [`crate::Agent`] and
/// [`LinkMonitor`]) get `as_any`/`as_any_mut` for free — no hand-written
/// boilerplate in each implementation.
///
/// When calling through a `Box<dyn …>`, deref to the trait object first
/// (`box.as_ref().as_any()`): the blanket impl also covers the box
/// itself, and downcasting that to a concrete type always fails.
pub trait AsAny {
    /// `self` as `&dyn Any`, typed at the concrete implementation.
    fn as_any(&self) -> &dyn Any;

    /// `self` as `&mut dyn Any`, typed at the concrete implementation.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Identifies a monitor registered with
/// [`crate::Simulator::add_monitor`]; pass it back to
/// [`crate::Simulator::monitor`] to read results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MonitorId(pub u32);

/// Observer of packet-level events on a link.
///
/// All methods have empty default bodies so monitors implement only what
/// they need. The `AsAny` supertrait gives every monitor a free
/// `as_any`/`as_any_mut`, which is how the engine's typed accessors
/// recover the concrete type; `Send` is required so the owning
/// simulator stays `Send`.
pub trait LinkMonitor: AsAny + Send {
    /// A packet was offered to the link's queue (before any drop
    /// decision).
    fn on_enqueue(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        let _ = (link, pkt, now);
    }

    /// A packet was dropped by the link's queue.
    fn on_drop(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        let _ = (link, pkt, now);
    }

    /// A packet finished serializing onto the wire.
    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        let _ = (link, pkt, now);
    }

    /// A packet reached its destination agent (the end of the link's
    /// propagation delay — the point where end-to-end latency is known).
    fn on_deliver(&mut self, node: u32, pkt: &Packet, now: SimTime) {
        let _ = (node, pkt, now);
    }
}

/// Converts a simulator flow key into the telemetry layer's flow
/// identity (same 4-tuple, same rendering).
pub fn telemetry_flow_id(key: &FlowKey) -> FlowId {
    FlowId {
        src: key.src.0,
        src_port: key.src_port,
        dst: key.dst.0,
        dst_port: key.dst_port,
    }
}

/// A [`LinkMonitor`] that forwards every link-level packet event into a
/// [`Telemetry`] stream as [`Event::Link`] records, putting the
/// simulator's packet lifecycle in the same JSONL stream as the TAQ
/// core's flow-state and classification events.
#[derive(Debug)]
pub struct TelemetryBridge {
    telemetry: Telemetry,
    only: Option<LinkId>,
}

impl TelemetryBridge {
    /// Creates a bridge emitting every link's events into `telemetry`.
    pub fn new(telemetry: Telemetry) -> Self {
        TelemetryBridge {
            telemetry,
            only: None,
        }
    }

    /// Restricts the bridge to one link (typically the bottleneck, to
    /// keep JSONL volume proportional to the interesting traffic).
    pub fn only(mut self, link: LinkId) -> Self {
        self.only = Some(link);
        self
    }

    fn emit(&self, kind: &'static str, link: LinkId, pkt: &Packet, now: SimTime) {
        if self.only.is_some_and(|want| want != link) {
            return;
        }
        self.telemetry.emit(now.as_nanos(), || Event::Link {
            link: link.0,
            packet: pkt.id,
            kind,
            flow: telemetry_flow_id(&pkt.flow),
            bytes: u64::from(pkt.wire_len()),
        });
    }
}

impl LinkMonitor for TelemetryBridge {
    fn on_enqueue(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.emit("enqueue", link, pkt, now);
    }

    fn on_drop(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.emit("drop", link, pkt, now);
    }

    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.emit("transmit", link, pkt, now);
    }

    fn on_deliver(&mut self, node: u32, pkt: &Packet, now: SimTime) {
        // Intermediate-hop arrivals are forwarding steps, not
        // deliveries: only the flow's destination terminates a span.
        if node != pkt.flow.dst.0 {
            return;
        }
        // Delivery is node-scoped, not link-scoped, so the `only` filter
        // does not apply: a span traced through the filtered link still
        // wants its terminal latency record.
        self.telemetry.emit(now.as_nanos(), || Event::Delivered {
            packet: pkt.id,
            flow: telemetry_flow_id(&pkt.flow),
            bytes: u64::from(pkt.wire_len()),
            latency_ns: now.saturating_since(pkt.sent_at).as_nanos(),
        });
    }
}

/// A simple recording monitor retaining every event; useful in tests and
/// small experiments.
#[derive(Debug, Default)]
pub struct EventRecorder {
    /// Every observed event, in order.
    pub events: Vec<RecordedEvent>,
}

/// One record in [`EventRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Which link.
    pub link: LinkId,
    /// Packet id involved.
    pub packet_id: u64,
    /// What happened.
    pub kind: RecordedKind,
    /// The packet's flow, oriented as it travelled.
    pub flow: FlowKey,
    /// [`Packet::seq_end`]: one past the last sequence number carried.
    pub seq_end: u64,
    /// [`Packet::is_data`]: the packet carried payload.
    pub is_data: bool,
}

/// Event discriminator for [`RecordedEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordedKind {
    /// Offered to the queue.
    Enqueue,
    /// Dropped by the queue.
    Drop,
    /// Serialized onto the wire.
    Transmit,
}

impl EventRecorder {
    fn record(&mut self, kind: RecordedKind, link: LinkId, pkt: &Packet, now: SimTime) {
        self.events.push(RecordedEvent {
            at: now,
            link,
            packet_id: pkt.id,
            kind,
            flow: pkt.flow,
            seq_end: pkt.seq_end(),
            is_data: pkt.is_data(),
        });
    }
}

impl LinkMonitor for EventRecorder {
    fn on_enqueue(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.record(RecordedKind::Enqueue, link, pkt, now);
    }

    fn on_drop(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.record(RecordedKind::Drop, link, pkt, now);
    }

    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.record(RecordedKind::Transmit, link, pkt, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, NodeId, PacketBuilder};

    #[test]
    fn recorder_records_in_order() {
        let mut rec = EventRecorder::default();
        let pkt = PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        })
        .payload(10)
        .build();
        rec.on_enqueue(LinkId(0), &pkt, SimTime::from_secs(1));
        rec.on_transmit(LinkId(0), &pkt, SimTime::from_secs(2));
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].kind, RecordedKind::Enqueue);
        assert_eq!(rec.events[1].kind, RecordedKind::Transmit);
        assert!(rec.events[0].at < rec.events[1].at);
    }

    #[test]
    fn erased_monitor_downcasts_through_as_any() {
        let mut erased: Box<dyn LinkMonitor> = Box::new(EventRecorder::default());
        let pkt = PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 1,
            dst: NodeId(1),
            dst_port: 2,
        })
        .build();
        erased.on_drop(LinkId(3), &pkt, SimTime::ZERO);
        let typed = erased
            .as_ref()
            .as_any()
            .downcast_ref::<EventRecorder>()
            .expect("downcast to the concrete monitor");
        assert_eq!(typed.events.len(), 1);
        assert_eq!(typed.events[0].kind, RecordedKind::Drop);
        assert!(erased
            .as_mut()
            .as_any_mut()
            .downcast_mut::<TelemetryBridge>()
            .is_none());
    }
}
