//! The trace collector: a [`TelemetrySink`] that assembles the
//! per-packet event stream into lifecycle spans, feeds the flight
//! recorder, and dumps a post-mortem when the trip-wire fires.
//!
//! Sitting behind the telemetry hub is what makes tracing free when
//! disabled (the hub's emit closures never run without sinks) and
//! deterministic when enabled (the collector only *observes* the
//! stream; it feeds nothing back into the simulation).
//!
//! The per-event path does integer work only: it keeps each link's
//! resident packet count (the depth a span records at enqueue) in a
//! table indexed by link id, and looks nothing up by name. Open spans
//! and the trip-wire's table hash with the workspace's Fx hasher;
//! neither iteration order reaches output (open spans are sorted by
//! packet id before they are dumped).
//!
//! Event ordering contract (guaranteed by the engine and middlebox):
//! `link/enqueue` precedes the discipline's `classified` and `dropped`
//! records for that offer, and a victim's core `dropped` (with its
//! eviction stage) precedes the engine's `link/drop`; `link/drop` is
//! therefore the authoritative finalizer for dropped spans, and
//! `delivered` for delivered ones.

use crate::links::LinkTable;
use crate::recorder::FlightRecorder;
use crate::span::{PacketSpan, SpanOutcome};
use crate::tripwire::TripWire;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::PathBuf;
use taq_telemetry::{Event, FlowId, FxBuildHasher, TelemetrySink, Value};

/// Fault classes that terminate a packet (the fault layer rejects the
/// packet and the engine records the drop).
fn terminal_fault(kind: &str) -> bool {
    matches!(kind, "blackout" | "burst_loss" | "corrupt")
}

/// Configuration for a [`TraceCollector`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Spans retained per link in the flight recorder.
    pub flight_capacity: usize,
    /// Trip-wire threshold: a per-flow activity gap longer than this
    /// triggers a post-mortem dump. `None` disarms the wire (restart
    /// drills and manual [`TraceCollector::trip`] still work).
    pub silence_ns: Option<u64>,
    /// Where to write the JSONL dump (post-mortem on trip, otherwise at
    /// flush). `None` keeps everything in memory for programmatic use.
    pub dump_path: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            flight_capacity: 512,
            silence_ns: None,
            dump_path: None,
        }
    }
}

/// Assembles packet-lifecycle spans from a telemetry event stream.
///
/// Attach with [`taq_telemetry::shared_sink`]: the hub takes the
/// collector, and the typed handle checks it out for inspection (during
/// the run or after it):
///
/// ```
/// use taq_telemetry::{shared_sink, Telemetry};
/// use taq_trace::{TraceCollector, TraceConfig};
///
/// let telemetry = Telemetry::new();
/// let (collector, erased) = shared_sink(TraceCollector::new(TraceConfig::default()));
/// telemetry.add_shared_sink(erased);
/// // ... run ...
/// telemetry.flush();
/// assert!(collector.lock().unwrap().spans_started() == 0);
/// ```
#[derive(Debug)]
pub struct TraceCollector {
    /// Keyed by packet id — `(node << 32) | seq`, so not dense.
    open: HashMap<u64, PacketSpan, FxBuildHasher>,
    recorder: FlightRecorder,
    tripwire: Option<TripWire>,
    /// Resident packets per link.
    depths: LinkTable<u64>,
    dump_path: Option<PathBuf>,
    dumped: bool,
    dump_errors: u64,
    started: u64,
    completed: u64,
    orphan_deliveries: u64,
    last_ns: u64,
}

impl TraceCollector {
    /// Creates a collector.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceCollector {
            open: HashMap::default(),
            recorder: FlightRecorder::new(cfg.flight_capacity),
            tripwire: cfg.silence_ns.map(TripWire::new),
            depths: LinkTable::new(),
            dump_path: cfg.dump_path,
            dumped: false,
            dump_errors: 0,
            started: 0,
            completed: 0,
            orphan_deliveries: 0,
            last_ns: 0,
        }
    }

    /// Spans started (first link enqueue seen).
    pub fn spans_started(&self) -> u64 {
        self.started
    }

    /// Spans that reached a terminal event.
    pub fn spans_completed(&self) -> u64 {
        self.completed
    }

    /// Deliveries with no open span: traffic outside the traced links
    /// (ACKs under a filtered bridge) plus second deliveries of
    /// fault-duplicated packets.
    pub fn orphan_deliveries(&self) -> u64 {
        self.orphan_deliveries
    }

    /// The flight recorder's retained spans.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Dump I/O failures (the collector, like every sink, never takes
    /// down the data path over them).
    pub fn dump_errors(&self) -> u64 {
        self.dump_errors
    }

    /// Trips the wire by hand — the hook for harness-detected invariant
    /// violations — triggering the post-mortem dump if one is
    /// configured and has not already fired.
    pub fn trip(&mut self, reason: &str) {
        let at_ns = self.last_ns;
        let first = self
            .tripwire
            .get_or_insert_with(|| TripWire::new(u64::MAX))
            .trip(reason, at_ns);
        if first {
            self.post_mortem();
        }
    }

    fn note_activity(&mut self, flow: FlowId, at_ns: u64) {
        if let Some(wire) = &mut self.tripwire {
            if wire.note_activity(flow, at_ns) {
                self.post_mortem();
            }
        }
    }

    /// Moves `link`'s resident count one packet up or down and returns
    /// the count before the move.
    fn move_depth(&mut self, link: u32, up: bool) -> u64 {
        let depth = self.depths.entry(link);
        let before = *depth;
        *depth = if up {
            before + 1
        } else {
            before.saturating_sub(1)
        };
        before
    }

    fn finalize(&mut self, packet: u64, outcome: SpanOutcome, end_ns: u64) -> bool {
        let Some(mut span) = self.open.remove(&packet) else {
            return false;
        };
        span.outcome = outcome;
        span.end_ns = end_ns;
        self.completed += 1;
        self.recorder.push(span);
        true
    }

    fn on_link_event(
        &mut self,
        at_ns: u64,
        link: u32,
        kind: &str,
        packet: u64,
        flow: FlowId,
        bytes: u64,
    ) {
        match kind {
            "enqueue" => {
                let resident = self.move_depth(link, true);
                match self.open.entry(packet) {
                    Entry::Occupied(span) => span.into_mut().hops += 1,
                    Entry::Vacant(slot) => {
                        self.started += 1;
                        slot.insert(PacketSpan::begin(
                            packet, flow, link, bytes, at_ns, resident,
                        ));
                    }
                }
                self.note_activity(flow, at_ns);
            }
            "drop" => {
                self.move_depth(link, false);
                // The authoritative finalizer: a core `dropped` record,
                // if any, already parked its stage on the span; a
                // terminal fault parked its class; a bare queue drop
                // (DropTail) has neither.
                let outcome = match self.open.get(&packet) {
                    Some(span) => match span.outcome {
                        SpanOutcome::Dropped { stage } => SpanOutcome::Dropped { stage },
                        _ => match span.fault {
                            Some(kind) if terminal_fault(kind) => SpanOutcome::Faulted { kind },
                            _ => SpanOutcome::Dropped { stage: 0 },
                        },
                    },
                    None => return,
                };
                self.finalize(packet, outcome, at_ns);
            }
            "transmit" => {
                self.move_depth(link, false);
                if let Some(span) = self.open.get_mut(&packet) {
                    span.transmit_ns = Some(at_ns);
                }
            }
            _ => {}
        }
    }

    /// Writes the whole trace as JSONL: a meta line, the trip record
    /// (if any), every retained span, then every still-open span
    /// (outcome `incomplete`).
    pub fn dump_to_writer<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let meta = Value::Object(vec![
            ("record".to_string(), Value::from("meta")),
            ("schema".to_string(), Value::from("taq-trace-v2")),
            ("spans_started".to_string(), Value::UInt(self.started)),
            ("spans_completed".to_string(), Value::UInt(self.completed)),
            (
                "spans_open".to_string(),
                Value::UInt(self.open.len() as u64),
            ),
            (
                "orphan_deliveries".to_string(),
                Value::UInt(self.orphan_deliveries),
            ),
            (
                "recorder_evicted".to_string(),
                Value::UInt(self.recorder.evicted()),
            ),
        ]);
        writeln!(out, "{}", meta.to_json())?;
        if let Some(rec) = self.tripwire.as_ref().and_then(TripWire::record) {
            writeln!(out, "{}", rec.to_value().to_json())?;
        }
        for span in self.recorder.iter() {
            writeln!(out, "{}", span.to_value().to_json())?;
        }
        // Open spans, in packet order for a deterministic dump.
        let mut pending: Vec<&PacketSpan> = self.open.values().collect();
        pending.sort_by_key(|s| s.packet);
        for span in pending {
            writeln!(out, "{}", span.to_value().to_json())?;
        }
        Ok(())
    }

    /// The dump as an in-memory string (tests, embedding harnesses).
    pub fn dump_string(&self) -> String {
        let mut buf = Vec::new();
        // `Write for Vec<u8>` never returns an error.
        self.dump_to_writer(&mut buf)
            .expect("writing to a Vec cannot fail");
        // Every line is `Value::to_json` output, which is built in a `String`.
        String::from_utf8(buf).expect("dump is UTF-8")
    }

    /// Whether the post-mortem already fired (at most one per run; the
    /// point is to freeze state near the *first* pathology).
    pub fn dumped(&self) -> bool {
        self.dumped
    }

    fn post_mortem(&mut self) {
        let Some(path) = self.dump_path.clone() else {
            return;
        };
        if self.dumped {
            return;
        }
        self.dumped = true;
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                if self.dump_to_writer(&mut f).is_err() {
                    self.dump_errors += 1;
                }
            }
            Err(_) => self.dump_errors += 1,
        }
    }
}

impl TelemetrySink for TraceCollector {
    fn emit(&mut self, at_ns: u64, event: &Event) {
        self.last_ns = self.last_ns.max(at_ns);
        match event {
            Event::Link {
                link,
                kind,
                packet,
                flow,
                bytes,
            } => self.on_link_event(at_ns, *link, kind, *packet, *flow, *bytes),
            Event::Classified { packet, class, .. } => {
                if let Some(span) = self.open.get_mut(packet) {
                    span.class = Some(class);
                }
            }
            Event::Dropped { packet, stage, .. } => {
                // Park the stage; the engine's link/drop finalizes.
                if let Some(span) = self.open.get_mut(packet) {
                    span.outcome = SpanOutcome::Dropped { stage: *stage };
                    span.end_ns = at_ns;
                }
            }
            Event::Delivered {
                packet,
                flow,
                latency_ns,
                ..
            } => {
                if !self.finalize(
                    *packet,
                    SpanOutcome::Delivered {
                        latency_ns: *latency_ns,
                    },
                    at_ns,
                ) {
                    self.orphan_deliveries += 1;
                }
                self.note_activity(*flow, at_ns);
            }
            Event::Fault { kind, packet, .. } => {
                if let Some(packet) = packet {
                    if let Some(span) = self.open.get_mut(packet) {
                        span.fault = Some(kind);
                    }
                }
                if *kind == "restart" {
                    self.trip("restart");
                }
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        // End-of-run dump, unless a trip-wire post-mortem already froze
        // the interesting state.
        if !self.dumped {
            self.post_mortem();
        }
        if self.dump_errors > 0 {
            eprintln!(
                "trace: {} dump error(s); the trace on disk is incomplete",
                self.dump_errors
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::DENSE_LINKS;
    use crate::tripwire::TripRecord;
    use std::collections::{BTreeMap, VecDeque};

    fn flow(port: u16) -> FlowId {
        FlowId {
            src: 1,
            src_port: port,
            dst: 2,
            dst_port: 80,
        }
    }

    fn enqueue(packet: u64, port: u16) -> Event {
        Event::Link {
            link: 0,
            kind: "enqueue",
            packet,
            flow: flow(port),
            bytes: 500,
        }
    }

    fn transmit(packet: u64, port: u16) -> Event {
        Event::Link {
            link: 0,
            kind: "transmit",
            packet,
            flow: flow(port),
            bytes: 500,
        }
    }

    fn deliver(packet: u64, port: u16, latency_ns: u64) -> Event {
        Event::Delivered {
            packet,
            flow: flow(port),
            bytes: 500,
            latency_ns,
        }
    }

    #[test]
    fn assembles_a_delivered_span() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.emit(100, &enqueue(1, 1));
        c.emit(
            100,
            &Event::Classified {
                packet: 1,
                flow: flow(1),
                class: "NewFlow",
                retransmission: false,
            },
        );
        c.emit(200, &transmit(1, 1));
        c.emit(350, &deliver(1, 1, 250));
        assert_eq!(c.spans_started(), 1);
        assert_eq!(c.spans_completed(), 1);
        let span = c.recorder().iter().next().expect("one span");
        assert_eq!(span.packet, 1);
        assert_eq!(span.class, Some("NewFlow"));
        assert_eq!(span.depth_at_enqueue, 0);
        assert_eq!(span.transmit_ns, Some(200));
        assert_eq!(span.outcome, SpanOutcome::Delivered { latency_ns: 250 });
        assert_eq!(span.end_ns, 350);
    }

    #[test]
    fn core_drop_stage_survives_to_link_drop() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.emit(10, &enqueue(1, 1));
        c.emit(20, &enqueue(2, 2));
        // Packet 2's arrival evicts packet 1 at stage 4: the core
        // records the victim's stage, then the engine observes the drop.
        c.emit(
            20,
            &Event::Dropped {
                packet: 1,
                flow: flow(1),
                stage: 4,
                retransmission: false,
            },
        );
        c.emit(
            20,
            &Event::Link {
                link: 0,
                kind: "drop",
                packet: 1,
                flow: flow(1),
                bytes: 500,
            },
        );
        let span = c.recorder().iter().next().expect("victim span");
        assert_eq!(span.packet, 1);
        assert_eq!(span.outcome, SpanOutcome::Dropped { stage: 4 });
        // Packet 2 saw one resident packet at enqueue.
        assert_eq!(c.open.get(&2).unwrap().depth_at_enqueue, 1);
    }

    #[test]
    fn terminal_fault_attributes_the_drop() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.emit(10, &enqueue(1, 1));
        c.emit(
            10,
            &Event::Fault {
                link: 0,
                kind: "burst_loss",
                packet: Some(1),
                flow: Some(flow(1)),
                value: 500.0,
            },
        );
        c.emit(
            10,
            &Event::Link {
                link: 0,
                kind: "drop",
                packet: 1,
                flow: flow(1),
                bytes: 500,
            },
        );
        let span = c.recorder().iter().next().expect("faulted span");
        assert_eq!(span.outcome, SpanOutcome::Faulted { kind: "burst_loss" });
        assert_eq!(span.fault, Some("burst_loss"));
    }

    #[test]
    fn silence_trip_fires_once_and_dumps() {
        let dir = std::env::temp_dir().join("taq-trace-test-trip");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("dump.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut c = TraceCollector::new(TraceConfig {
            silence_ns: Some(1_000),
            dump_path: Some(path.clone()),
            ..TraceConfig::default()
        });
        c.emit(0, &enqueue(1, 1));
        c.emit(100, &transmit(1, 1));
        c.emit(150, &deliver(1, 1, 150));
        assert!(!c.dumped());
        // The flow reappears after a 4850 ns gap: the wire trips and the
        // post-mortem lands on disk immediately.
        c.emit(5_000, &enqueue(2, 1));
        assert!(c.dumped());
        let dump = std::fs::read_to_string(&path).expect("post-mortem written");
        assert!(dump.contains("\"record\":\"trip\""));
        assert!(dump.contains("\"reason\":\"flow-silence\""));
        assert!(dump.contains("\"record\":\"span\""));
        // Later flushes do not overwrite the post-mortem.
        std::fs::remove_file(&path).unwrap();
        c.flush();
        assert!(!path.exists(), "flush after a trip leaves the dump alone");
    }

    #[test]
    fn restart_fault_trips_the_wire() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.emit(10, &enqueue(1, 1));
        c.emit(
            50,
            &Event::Fault {
                link: 0,
                kind: "restart",
                packet: None,
                flow: None,
                value: 3.0,
            },
        );
        let rec = c.tripwire.as_ref().unwrap().record().expect("tripped");
        assert_eq!(rec.reason, "restart");
        assert_eq!(rec.at_ns, 50);
    }

    #[test]
    fn counts_orphans_and_dumps_open_spans() {
        let mut c = TraceCollector::new(TraceConfig::default());
        c.emit(10, &enqueue(1, 1));
        c.emit(20, &transmit(1, 1));
        c.emit(30, &deliver(1, 1, 20));
        // An ACK delivered on an untraced path: orphan.
        c.emit(40, &deliver(99, 2, 5));
        c.emit(150, &enqueue(2, 1));
        assert_eq!(c.orphan_deliveries(), 1);
        let dump = c.dump_string();
        assert!(dump.contains("\"record\":\"meta\""));
        assert!(
            dump.contains("\"outcome\":\"incomplete\""),
            "open span dumped"
        );
    }

    /// The twin the collector must match byte for byte. It keeps every
    /// link's resident count in one SipHash map where the collector
    /// splits a dense table from a far map, keeps its completed spans
    /// wide in per-link rings where the collector encodes them into the
    /// flight recorder's compact records, writes its own dump with
    /// `PacketSpan::to_value`, and otherwise repeats the collector's span
    /// assembly. So the random streams below hold the collector's depth
    /// table (the `depth` each span records), its span outcomes, the
    /// recorder's encode/decode and eviction and its counters to it. It
    /// never has a dump path, so `post_mortem` has nothing to write.
    struct RefCollector {
        open: HashMap<u64, PacketSpan>,
        rings: BTreeMap<u32, VecDeque<PacketSpan>>,
        capacity: usize,
        evicted: u64,
        tripwire: Option<TripWire>,
        link_depths: HashMap<u32, u64>,
        started: u64,
        completed: u64,
        orphan_deliveries: u64,
        last_ns: u64,
    }

    impl RefCollector {
        fn new(cfg: &TraceConfig) -> Self {
            RefCollector {
                open: HashMap::new(),
                rings: BTreeMap::new(),
                capacity: cfg.flight_capacity,
                evicted: 0,
                tripwire: cfg.silence_ns.map(TripWire::new),
                link_depths: HashMap::new(),
                started: 0,
                completed: 0,
                orphan_deliveries: 0,
                last_ns: 0,
            }
        }

        fn post_mortem(&mut self) {}

        fn note_activity(&mut self, flow: FlowId, at_ns: u64) {
            if let Some(wire) = &mut self.tripwire {
                if wire.note_activity(flow, at_ns) {
                    self.post_mortem();
                }
            }
        }

        fn finalize(&mut self, packet: u64, outcome: SpanOutcome, end_ns: u64) -> bool {
            let Some(mut span) = self.open.remove(&packet) else {
                return false;
            };
            span.outcome = outcome;
            span.end_ns = end_ns;
            self.completed += 1;
            if self.capacity == 0 {
                self.evicted += 1;
                return true;
            }
            let ring = self.rings.entry(span.link).or_default();
            if ring.len() == self.capacity {
                ring.pop_front();
                self.evicted += 1;
            }
            ring.push_back(span);
            true
        }

        fn on_link_event(
            &mut self,
            at_ns: u64,
            link: u32,
            kind: &str,
            packet: u64,
            flow: FlowId,
            bytes: u64,
        ) {
            match kind {
                "enqueue" => {
                    let depth = self.link_depths.entry(link).or_insert(0);
                    let resident = *depth;
                    *depth += 1;
                    match self.open.get_mut(&packet) {
                        Some(span) => span.hops += 1,
                        None => {
                            self.started += 1;
                            self.open.insert(
                                packet,
                                PacketSpan::begin(packet, flow, link, bytes, at_ns, resident),
                            );
                        }
                    }
                    self.note_activity(flow, at_ns);
                }
                "drop" => {
                    let depth = self.link_depths.entry(link).or_insert(0);
                    *depth = depth.saturating_sub(1);
                    let outcome = match self.open.get(&packet) {
                        Some(span) => match span.outcome {
                            SpanOutcome::Dropped { stage } => SpanOutcome::Dropped { stage },
                            _ => match span.fault {
                                Some(kind) if terminal_fault(kind) => SpanOutcome::Faulted { kind },
                                _ => SpanOutcome::Dropped { stage: 0 },
                            },
                        },
                        None => return,
                    };
                    self.finalize(packet, outcome, at_ns);
                }
                "transmit" => {
                    let depth = self.link_depths.entry(link).or_insert(0);
                    *depth = depth.saturating_sub(1);
                    if let Some(span) = self.open.get_mut(&packet) {
                        span.transmit_ns = Some(at_ns);
                    }
                }
                _ => {}
            }
        }

        fn emit(&mut self, at_ns: u64, event: &Event) {
            self.last_ns = self.last_ns.max(at_ns);
            match event {
                Event::Link {
                    link,
                    kind,
                    packet,
                    flow,
                    bytes,
                } => self.on_link_event(at_ns, *link, kind, *packet, *flow, *bytes),
                Event::Classified { packet, class, .. } => {
                    if let Some(span) = self.open.get_mut(packet) {
                        span.class = Some(class);
                    }
                }
                Event::Dropped { packet, stage, .. } => {
                    if let Some(span) = self.open.get_mut(packet) {
                        span.outcome = SpanOutcome::Dropped { stage: *stage };
                        span.end_ns = at_ns;
                    }
                }
                Event::Delivered {
                    packet,
                    flow,
                    latency_ns,
                    ..
                } => {
                    if !self.finalize(
                        *packet,
                        SpanOutcome::Delivered {
                            latency_ns: *latency_ns,
                        },
                        at_ns,
                    ) {
                        self.orphan_deliveries += 1;
                    }
                    self.note_activity(*flow, at_ns);
                }
                Event::Fault { kind, packet, .. } => {
                    if let Some(packet) = packet {
                        if let Some(span) = self.open.get_mut(packet) {
                            span.fault = Some(kind);
                        }
                    }
                    if *kind == "restart" {
                        let at = self.last_ns;
                        let first = self
                            .tripwire
                            .get_or_insert_with(|| TripWire::new(u64::MAX))
                            .trip("restart", at);
                        if first {
                            self.post_mortem();
                        }
                    }
                }
                _ => {}
            }
        }

        fn dump_string(&self) -> String {
            let meta = Value::Object(vec![
                ("record".to_string(), Value::from("meta")),
                ("schema".to_string(), Value::from("taq-trace-v2")),
                ("spans_started".to_string(), Value::UInt(self.started)),
                ("spans_completed".to_string(), Value::UInt(self.completed)),
                (
                    "spans_open".to_string(),
                    Value::UInt(self.open.len() as u64),
                ),
                (
                    "orphan_deliveries".to_string(),
                    Value::UInt(self.orphan_deliveries),
                ),
                ("recorder_evicted".to_string(), Value::UInt(self.evicted)),
            ]);
            let mut lines = vec![meta];
            lines.extend(
                self.tripwire
                    .as_ref()
                    .and_then(TripWire::record)
                    .map(TripRecord::to_value),
            );
            lines.extend(self.rings.values().flatten().map(PacketSpan::to_value));
            let mut pending: Vec<&PacketSpan> = self.open.values().collect();
            pending.sort_by_key(|s| s.packet);
            lines.extend(pending.into_iter().map(PacketSpan::to_value));
            lines.iter().map(|line| line.to_json() + "\n").collect()
        }
    }

    /// splitmix64 — the crate has no RNG of its own to borrow.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }

        fn take<T>(&mut self, from: &mut Vec<T>) -> Option<T> {
            (!from.is_empty()).then(|| from.swap_remove(self.below(from.len())))
        }
    }

    /// A packet somewhere between its first enqueue and its end.
    #[derive(Clone, Copy)]
    struct Live {
        packet: u64,
        link: u32,
        port: u16,
    }

    #[test]
    fn fast_path_matches_reference_under_random_streams() {
        const EVENTS: usize = 60_000;
        const CLASSES: [&str; 5] = [
            "Recovery",
            "NewFlow",
            "OverPenalized",
            "BelowFairShare",
            "AboveFairShare",
        ];
        for seed in [1u64, 2, 3, 4] {
            let mut rng = Rng(seed);
            let cfg = TraceConfig {
                flight_capacity: 48,
                // Odd seeds arm the silence wire, so its trip lands
                // first; even seeds leave the first trip to the restart.
                silence_ns: (seed % 2 == 1).then_some(40_000_000),
                dump_path: None,
            };
            let mut fast = TraceCollector::new(cfg.clone());
            let mut reference = RefCollector::new(&cfg);
            // Eight links, first seen in an order that differs per
            // seed: the last dense slot, and two ids past the bound
            // that must take the far map.
            let bound = DENSE_LINKS as u32;
            let mut links: Vec<u32> = vec![0, 1, 2, 3, 4, bound - 1, bound, u32::MAX];
            for i in (1..links.len()).rev() {
                links.swap(i, rng.below(i + 1));
            }
            let mut seen_links = 1;
            let mut queued: Vec<Live> = Vec::new();
            let mut wire: Vec<Live> = Vec::new();
            let mut next_seq = [0u64; 4];
            let mut now = 0u64;
            let mut checks = 0;
            for step in 0..EVENTS {
                now += rng.next() % 20_000;
                // Links join one by one, so the dense table grows while
                // packets sit on the links already seen.
                if step % 500 == 499 && seen_links < links.len() {
                    seen_links += 1;
                }
                let mut batch: Vec<(u64, Event)> = Vec::new();
                match rng.below(20) {
                    0..=5 => {
                        let node = rng.below(next_seq.len());
                        next_seq[node] += 1;
                        let live = Live {
                            packet: ((node as u64) << 32) | next_seq[node],
                            link: links[rng.below(seen_links)],
                            port: rng.below(40) as u16,
                        };
                        batch.push((now, link_event(live, "enqueue")));
                        if rng.below(4) > 0 {
                            // One class never appears before the last
                            // third of the stream.
                            let class = if step > 2 * EVENTS / 3 && rng.below(6) == 0 {
                                "Probation"
                            } else {
                                rng.pick(&CLASSES)
                            };
                            batch.push((
                                now,
                                Event::Classified {
                                    packet: live.packet,
                                    flow: flow(live.port),
                                    class,
                                    retransmission: rng.below(8) == 0,
                                },
                            ));
                        }
                        queued.push(live);
                    }
                    6..=9 => {
                        if let Some(live) = rng.take(&mut queued) {
                            // The engine stamps a transmit with its
                            // completion time: ahead of the events that
                            // follow it.
                            let done = now + 1 + rng.next() % 3_000_000;
                            batch.push((done, link_event(live, "transmit")));
                            if rng.below(5) == 0 {
                                // A second hop on another link.
                                let hop = Live {
                                    link: links[rng.below(seen_links)],
                                    ..live
                                };
                                batch.push((now, link_event(hop, "enqueue")));
                                queued.push(hop);
                            } else {
                                wire.push(live);
                            }
                        }
                    }
                    10..=12 => {
                        if let Some(live) = rng.take(&mut wire) {
                            if rng.below(10) == 0 {
                                // A non-terminal fault annotates a span
                                // that still delivers — twice, for a
                                // duplicate; the second is an orphan.
                                batch.push((now, fault("duplicate", Some(live))));
                                batch.push((now, delivered(live)));
                            }
                            batch.push((now, delivered(live)));
                        }
                    }
                    13..=15 => {
                        if let Some(live) = rng.take(&mut queued) {
                            match rng.below(4) {
                                // The core's record precedes the
                                // engine's link/drop.
                                0 | 1 => batch.push((
                                    now,
                                    Event::Dropped {
                                        packet: live.packet,
                                        flow: flow(live.port),
                                        stage: 1 + rng.below(7) as u8,
                                        retransmission: false,
                                    },
                                )),
                                2 => {
                                    let kind = rng.pick(&["burst_loss", "blackout", "reorder"]);
                                    batch.push((now, fault(kind, Some(live))));
                                }
                                _ => {}
                            }
                            batch.push((now, link_event(live, "drop")));
                        }
                    }
                    16 => {
                        // Deliveries and drops of packets no span is
                        // open for (ACKs on untraced paths).
                        let ghost = Live {
                            packet: (9 << 32) | (rng.next() % 1_000),
                            link: links[rng.below(seen_links)],
                            port: rng.below(40) as u16,
                        };
                        batch.push((now, delivered(ghost)));
                        if rng.below(3) == 0 {
                            batch.push((now, link_event(ghost, "drop")));
                        }
                    }
                    17 => {
                        let live = Live {
                            packet: 0,
                            link: links[rng.below(seen_links)],
                            port: 0,
                        };
                        batch.push((now, link_event(live, "mark")));
                    }
                    18 => batch.push((now, fault("rate_change", None))),
                    _ => batch.push((
                        now,
                        Event::QueueDepth {
                            pkts: queued.len() as u64,
                            bytes: 0,
                            per_class: Vec::new(),
                        },
                    )),
                }
                if step == EVENTS / 2 {
                    batch.push((now, fault("restart", None)));
                }
                for (at_ns, event) in &batch {
                    fast.emit(*at_ns, event);
                    reference.emit(*at_ns, event);
                }
                if rng.below(EVENTS / 6) == 0 || step + 1 == EVENTS {
                    checks += 1;
                    assert_eq!(
                        fast.dump_string(),
                        reference.dump_string(),
                        "seed {seed}, step {step}"
                    );
                    assert_eq!(fast.spans_started(), reference.started);
                    assert_eq!(fast.spans_completed(), reference.completed);
                    assert_eq!(fast.orphan_deliveries(), reference.orphan_deliveries);
                }
            }
            // The stream did what the test claims it covers.
            assert!(checks >= 2, "seed {seed}: {checks} comparisons");
            assert!(fast.orphan_deliveries() > 0);
            assert!(fast.recorder().evicted() > 0);
            assert_eq!(fast.depths.far.len(), 2, "two links took the far map");
            assert_eq!(fast.depths.dense.len(), DENSE_LINKS);
            let dump = fast.dump_string();
            for needle in [
                "\"record\":\"trip\"",
                "\"outcome\":\"faulted\"",
                "\"outcome\":\"incomplete\"",
                "\"fault\":\"duplicate\"",
                "\"class\":\"Probation\"",
            ] {
                assert!(dump.contains(needle), "seed {seed}: dump lacks {needle}");
            }
        }
    }

    fn link_event(live: Live, kind: &'static str) -> Event {
        Event::Link {
            link: live.link,
            kind,
            packet: live.packet,
            flow: flow(live.port),
            bytes: 500,
        }
    }

    fn delivered(live: Live) -> Event {
        deliver(live.packet, live.port, 1_000)
    }

    fn fault(kind: &'static str, on: Option<Live>) -> Event {
        Event::Fault {
            link: on.map_or(0, |live| live.link),
            kind,
            packet: on.map(|live| live.packet),
            flow: on.map(|live| flow(live.port)),
            value: 1.0,
        }
    }
}
