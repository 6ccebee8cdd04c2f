//! Sinks consume the event stream. Three are shipped: a bounded ring
//! buffer for tests, a JSONL writer for offline analysis, and a
//! summarizer that aggregates into a human-readable table.

use crate::event::Event;
use crate::histogram::LogHistogram;
use crate::vocab::{AdmissionDecision, FaultKind, FlowState, QueueClass};
use crate::{lock_unpoisoned, HubShared};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// The upcast every sink gets for free (the blanket impl below covers
/// any `'static` type), so a [`SinkHandle`] can turn the hub's
/// `Box<dyn TelemetrySink>` back into the `Box<S>` it was made from.
pub trait AnySink: Any {
    /// `self`, as a box that can be downcast.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any> AnySink for T {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Consumes timestamped events. `at_ns` is nanoseconds of simulated
/// (or scaled-real) time, matching the emitting layer's clock.
///
/// Sinks are `Send` so a fully-wired [`crate::Telemetry`] hub can move
/// into a sweep worker thread along with the simulator that feeds it,
/// and `'static` (its supertrait `AnySink` requires `Any`) because the
/// hub owns them.
pub trait TelemetrySink: AnySink + Send {
    /// Handles one event.
    fn emit(&mut self, at_ns: u64, event: &Event);

    /// Flushes any buffered output (called at detach/shutdown).
    fn flush(&mut self) {}
}

/// Where a shared sink lives. Only [`SinkHandle::lock`], its guard's
/// drop and [`crate::Telemetry::add_shared_sink`] ever look here — the
/// emission path does not.
enum Home {
    /// Not in a hub (not yet, or it was offered to a disabled handle):
    /// the slot keeps the sink itself, `None` while it is checked out.
    Detached(Option<Box<dyn TelemetrySink>>),
    /// In this seat of this hub.
    Seated(Arc<HubShared>, usize),
}

type Slot = Mutex<Home>;

/// The type-erased half of [`shared_sink`]: hand it to
/// [`crate::Telemetry::add_shared_sink`], which moves the sink into the
/// hub.
pub struct SharedSink {
    slot: Arc<Slot>,
}

impl SharedSink {
    /// Moves the sink into the next free seat of `hub` and points the
    /// typed half at it. A sink that is checked out right now takes its
    /// seat when its guard drops; until then the seat collects what is
    /// emitted.
    pub(crate) fn seat_in(self, hub: &Arc<HubShared>) {
        let mut home = lock_unpoisoned(&self.slot);
        let Home::Detached(sink) = &mut *home else {
            // Invariant: `shared_sink` makes one `SharedSink` per slot, not
            // `Clone`, and this call consumes it, so its slot is seated here
            // or nowhere.
            unreachable!("add_shared_sink consumes the only SharedSink of a slot");
        };
        let seat = hub.add_seat(sink.take());
        *home = Home::Seated(hub.clone(), seat);
    }
}

/// The typed half of [`shared_sink`]: reads the sink back while the hub
/// owns it.
pub struct SinkHandle<S> {
    slot: Arc<Slot>,
    _sink: PhantomData<fn() -> S>,
}

/// [`SinkHandle::lock`] found the sink already checked out: an earlier
/// guard of the same sink is still alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkCheckedOut;

impl std::fmt::Display for SinkCheckedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sink is checked out: an earlier guard of it is still alive")
    }
}

impl std::error::Error for SinkCheckedOut {}

impl<S: TelemetrySink> SinkHandle<S> {
    /// Checks the sink out of its hub seat (one brief hub lock) and
    /// returns a guard that dereferences to it. The hub is *not* locked
    /// while the guard lives: emission carries on, the other sinks see
    /// every event at once, and this sink is handed what it missed, in
    /// emission order, when the guard drops. Guards of different sinks
    /// can therefore be held together; a second guard of the same sink
    /// is an error, not a wait.
    pub fn lock(&self) -> Result<SinkGuard<'_, S>, SinkCheckedOut> {
        let sink = match &mut *lock_unpoisoned(&self.slot) {
            Home::Detached(sink) => sink.take(),
            Home::Seated(hub, seat) => hub.check_out(*seat),
        };
        let sink = sink
            .ok_or(SinkCheckedOut)?
            .into_any()
            .downcast::<S>()
            // Invariant: the slot only ever holds the `S` that `shared_sink`
            // put there; checking it in and out moves that same box.
            .expect("shared_sink made this handle and its sink from one S");
        Ok(SinkGuard {
            sink: Some(sink),
            slot: &self.slot,
        })
    }
}

/// A checked-out sink; dropping it (also during a panic's unwinding)
/// puts the sink back where it lives.
pub struct SinkGuard<'a, S: TelemetrySink> {
    /// `Some` until `drop` moves it home.
    sink: Option<Box<S>>,
    slot: &'a Slot,
}

impl<S: TelemetrySink> Deref for SinkGuard<'_, S> {
    type Target = S;

    fn deref(&self) -> &S {
        // Invariant: `sink` is `Some` from `lock` until `drop` takes it.
        self.sink.as_deref().expect("held until drop")
    }
}

impl<S: TelemetrySink> DerefMut for SinkGuard<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        // Invariant: `sink` is `Some` from `lock` until `drop` takes it.
        self.sink.as_deref_mut().expect("held until drop")
    }
}

impl<S: TelemetrySink> Drop for SinkGuard<'_, S> {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else { return };
        let sink: Box<dyn TelemetrySink> = sink;
        match &mut *lock_unpoisoned(self.slot) {
            Home::Detached(home) => *home = Some(sink),
            Home::Seated(hub, seat) => hub.check_in(*seat, sink),
        }
    }
}

/// Splits a sink into a typed handle the caller keeps to read it back
/// and the type-erased half a telemetry hub takes ownership through.
pub fn shared_sink<S: TelemetrySink>(sink: S) -> (SinkHandle<S>, SharedSink) {
    let slot = Arc::new(Mutex::new(Home::Detached(Some(Box::new(sink)))));
    let typed = SinkHandle {
        slot: slot.clone(),
        _sink: PhantomData,
    };
    (typed, SharedSink { slot })
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// exact per-kind counts over the whole stream (counts are never
/// evicted, only the event payloads are).
#[derive(Debug, Default)]
pub struct RingBufferSink {
    capacity: usize,
    events: std::collections::VecDeque<(u64, Event)>,
    /// Events per variant, indexed by `Event::slot`.
    kinds: [u64; Event::TAGS.len()],
    evicted: u64,
}

impl RingBufferSink {
    /// Creates a ring keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity,
            ..Default::default()
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.events.iter()
    }

    /// Total events observed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.kinds.iter().sum()
    }

    /// Events pushed out of the ring to respect `capacity`.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Exact count of events with the given kind tag (0 for a tag no
    /// event carries).
    pub fn count(&self, kind: &str) -> u64 {
        Event::TAGS
            .iter()
            .position(|&tag| tag == kind)
            .map_or(0, |slot| self.kinds[slot])
    }

    /// The per-kind counts of the kinds seen, sorted by kind; built on
    /// read.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        counted(Event::TAGS, &self.kinds)
    }
}

impl TelemetrySink for RingBufferSink {
    fn emit(&mut self, at_ns: u64, event: &Event) {
        self.kinds[event.slot()] += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back((at_ns, event.clone()));
    }
}

/// Writes each event as one line of JSON to any `io::Write` — a file
/// for offline analysis, or a `Vec<u8>` in tests.
///
/// I/O errors never take down the data path: failed writes are counted
/// in [`JsonlSink::write_errors`] and reported (once, to stderr) at
/// flush time instead of being silently dropped.
pub struct JsonlSink<W: Write> {
    out: io::BufWriter<W>,
    lines: u64,
    write_errors: u64,
    errors_reported: bool,
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) a JSONL file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: io::BufWriter::new(out),
            lines: 0,
            write_errors: 0,
            errors_reported: false,
        }
    }

    /// Lines written so far (attempted; see [`JsonlSink::write_errors`]
    /// for how many of those failed at the I/O layer).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write or flush failures accumulated so far. Telemetry must never
    /// take down the data path, so the sink keeps accepting events after
    /// an error; this counter is how harnesses find out the trace on
    /// disk is incomplete.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    /// A sink dropped mid-run (worker panic, early return, test teardown
    /// without an explicit [`TelemetrySink::flush`]) must not lose the
    /// buffered tail of the trace: flush it here, best-effort.
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

impl<W: Write + Send + 'static> TelemetrySink for JsonlSink<W> {
    fn emit(&mut self, at_ns: u64, event: &Event) {
        let mut line = event.to_value(at_ns).to_json();
        line.push('\n');
        if self.out.write_all(line.as_bytes()).is_err() {
            self.write_errors += 1;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.write_errors += 1;
        }
        if self.write_errors > 0 && !self.errors_reported {
            self.errors_reported = true;
            eprintln!(
                "telemetry: jsonl sink lost {} of {} lines to I/O errors",
                self.write_errors, self.lines
            );
        }
    }
}

/// Aggregates computed by [`SummarySink`], exposed so harnesses and
/// integration tests can assert on the same numbers the rendered table
/// shows.
#[derive(Debug, Clone, Default)]
pub struct SummaryStats {
    /// Events seen, by kind tag.
    pub counts_by_kind: BTreeMap<&'static str, u64>,
    /// Flow state transitions, keyed by (from, to).
    pub transitions: BTreeMap<(&'static str, &'static str), u64>,
    /// Which state each transition landed in — occupancy by entry count.
    pub state_entries: BTreeMap<&'static str, u64>,
    /// Classification decisions by class name.
    pub classified: BTreeMap<&'static str, u64>,
    /// Drops by stage (index 0-15; TAQ uses 0-7).
    pub drops_by_stage: [u64; 16],
    /// Retransmissions seen / of those, ones repairing our own drops.
    pub retransmits: u64,
    pub repairs_local: u64,
    /// Admission decisions.
    pub admitted: u64,
    pub rejected: u64,
    pub pools_waited: u64,
    pub pools_admitted: u64,
    /// Queue-depth samples (packets).
    pub depth: LogHistogram,
    /// Packets delivered end-to-end / their sim-time latency (ns).
    pub delivered: u64,
    pub delivery_latency: LogHistogram,
    /// Link packet-lifecycle events by kind ("enqueue"/"drop"/"transmit").
    pub link_events: BTreeMap<&'static str, u64>,
    /// Injected faults by class ("burst_loss", "reorder", "restart"...).
    pub faults: BTreeMap<&'static str, u64>,
    /// Final link summaries, by link id.
    pub links: BTreeMap<u32, (u64, u64, u64, f64)>,
}

impl SummaryStats {
    /// Total drops across all stages.
    pub fn total_drops(&self) -> u64 {
        self.drops_by_stage.iter().sum()
    }

    /// Total events observed.
    pub fn total_events(&self) -> u64 {
        self.counts_by_kind.values().sum()
    }

    /// The aggregate table [`SummarySink::render`] shows.
    fn render(&self, title: &str) -> String {
        let s = self;
        let mut out = String::new();
        let _ = writeln!(out, "== {title}: {} events", s.total_events());
        if !s.state_entries.is_empty() {
            let _ = writeln!(out, "  state entries (occupancy by transition target):");
            for (state, n) in &s.state_entries {
                let _ = writeln!(out, "    {state:<22} {n}");
            }
            let mut top: Vec<_> = s.transitions.iter().collect();
            top.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
            let _ = writeln!(out, "  top transitions:");
            for ((from, to), n) in top.into_iter().take(8) {
                let _ = writeln!(out, "    {from} -> {to}: {n}");
            }
        }
        if !s.classified.is_empty() {
            let _ = writeln!(out, "  classified:");
            for (class, n) in &s.classified {
                let _ = writeln!(out, "    {class:<22} {n}");
            }
        }
        if s.total_drops() > 0 {
            let _ = writeln!(out, "  drops by stage:");
            for (stage, &n) in s.drops_by_stage.iter().enumerate() {
                if n > 0 {
                    let _ = writeln!(out, "    stage {stage}: {n}");
                }
            }
        }
        if s.retransmits > 0 {
            let _ = writeln!(
                out,
                "  retransmits: {} ({} repairing local drops)",
                s.retransmits, s.repairs_local
            );
        }
        if s.admitted + s.rejected > 0 {
            let _ = writeln!(
                out,
                "  admission: {} admitted, {} rejected, {} pools waited, {} pools admitted",
                s.admitted, s.rejected, s.pools_waited, s.pools_admitted
            );
        }
        if s.depth.count() > 0 {
            let _ = writeln!(
                out,
                "  queue depth (pkts): n={} min={} p50={} p99={} max={}",
                s.depth.count(),
                s.depth.min(),
                s.depth.quantile(0.5),
                s.depth.quantile(0.99),
                s.depth.max()
            );
        }
        if s.delivered > 0 {
            let _ = writeln!(
                out,
                "  delivered: {} (latency ns p50={} p99={} max={})",
                s.delivered,
                s.delivery_latency.quantile(0.5),
                s.delivery_latency.quantile(0.99),
                s.delivery_latency.max()
            );
        }
        if !s.link_events.is_empty() {
            let _ = write!(out, "  link events:");
            for (kind, n) in &s.link_events {
                let _ = write!(out, " {kind}={n}");
            }
            let _ = writeln!(out);
        }
        if !s.faults.is_empty() {
            let _ = write!(out, "  faults injected:");
            for (kind, n) in &s.faults {
                let _ = write!(out, " {kind}={n}");
            }
            let _ = writeln!(out);
        }
        // A full topology has a summary per edge link; show the busiest
        // few (the bottleneck always leads) and fold the rest into one
        // line so the table stays readable.
        let mut links: Vec<_> = s.links.iter().collect();
        links.sort_by_key(|(_, (offered, ..))| std::cmp::Reverse(*offered));
        for (link, (offered, dropped, transmitted, util)) in links.iter().take(8) {
            let _ = writeln!(
                out,
                "  link {link}: offered={offered} dropped={dropped} transmitted={transmitted} util={util:.3}"
            );
        }
        if links.len() > 8 {
            let rest = &links[8..];
            let offered: u64 = rest.iter().map(|(_, (o, ..))| o).sum();
            let dropped: u64 = rest.iter().map(|(_, (_, d, ..))| d).sum();
            let _ = writeln!(
                out,
                "  … {} more links: offered={offered} dropped={dropped}",
                rest.len()
            );
        }
        out
    }
}

/// Aggregating sink rendering a human-readable table — the shared
/// replacement for ad-hoc diagnostic printing.
///
/// `emit` does integer work only: the event kind, state transitions,
/// classes and fault kinds each count into a fixed array indexed by
/// value, and link kinds match against the three names the engine
/// emits. The sorted maps of [`SummaryStats`] are produced from those
/// arrays when [`SummarySink::stats`] is read.
#[derive(Debug, Clone, Default)]
pub struct SummarySink {
    /// The aggregates that are not keyed by a name, updated in place.
    /// Its name-keyed maps stay empty; `stats()` fills them.
    live: SummaryStats,
    /// Events per variant, indexed by `Event::slot`.
    kinds: [u64; Event::TAGS.len()],
    /// Transitions, indexed `[from][to]`; a state's entries are its
    /// column's sum.
    transitions: [[u64; FlowState::ALL.len()]; FlowState::ALL.len()],
    classified: [u64; QueueClass::ALL.len()],
    faults: [u64; FaultKind::ALL.len()],
    /// Link events of the kinds in [`LINK_KINDS`], in its order.
    link_kinds: [u64; LINK_KINDS.len()],
    /// Link events of any other kind, in first-seen order.
    other_link_kinds: Vec<(&'static str, u64)>,
}

/// The link event kinds the engine and the testbed emit.
const LINK_KINDS: [&str; 3] = ["enqueue", "drop", "transmit"];

/// The sorted view of per-name counts, without the names never counted.
fn counted<'a>(
    names: impl IntoIterator<Item = &'static str>,
    counts: impl IntoIterator<Item = &'a u64>,
) -> BTreeMap<&'static str, u64> {
    names
        .into_iter()
        .zip(counts)
        .filter(|(_, &n)| n > 0)
        .map(|(name, &n)| (name, n))
        .collect()
}

impl SummarySink {
    /// Creates an empty summarizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The aggregates collected so far — live: every event emitted
    /// before the call is counted, flushed or not.
    pub fn stats(&self) -> SummaryStats {
        let mut s = self.live.clone();
        s.counts_by_kind = counted(Event::TAGS, &self.kinds);
        let entries =
            FlowState::ALL.map(|to| self.transitions.iter().map(|row| row[to as usize]).sum());
        s.state_entries = counted(FlowState::ALL.map(FlowState::name), &entries);
        for from in FlowState::ALL {
            for to in FlowState::ALL {
                let n = self.transitions[from as usize][to as usize];
                if n > 0 {
                    s.transitions.insert((from.name(), to.name()), n);
                }
            }
        }
        s.classified = counted(QueueClass::ALL.map(QueueClass::name), &self.classified);
        s.link_events = counted(LINK_KINDS, &self.link_kinds);
        s.link_events.extend(self.other_link_kinds.iter().copied());
        s.faults = counted(FaultKind::ALL.map(FaultKind::name), &self.faults);
        s
    }

    /// Renders the aggregate table, one section per populated event
    /// family, indented under `title`.
    pub fn render(&self, title: &str) -> String {
        self.stats().render(title)
    }

    /// Counts one link event of a kind outside [`LINK_KINDS`].
    #[cold]
    fn count_other_link_kind(&mut self, kind: &'static str) {
        match self.other_link_kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.other_link_kinds.push((kind, 1)),
        }
    }
}

impl TelemetrySink for SummarySink {
    fn emit(&mut self, _at_ns: u64, event: &Event) {
        self.kinds[event.slot()] += 1;
        let s = &mut self.live;
        match event {
            Event::FlowStateChanged { from, to, .. } => {
                self.transitions[*from as usize][*to as usize] += 1;
            }
            Event::Retransmit {
                repairs_local_drop, ..
            } => {
                s.retransmits += 1;
                if *repairs_local_drop {
                    s.repairs_local += 1;
                }
            }
            Event::Classified { class, .. } => self.classified[class.index()] += 1,
            Event::Dropped { stage, .. } => {
                s.drops_by_stage[(*stage as usize).min(15)] += 1;
            }
            Event::QueueDepth { pkts, .. } => {
                s.depth.record(*pkts);
            }
            Event::Delivered { latency_ns, .. } => {
                s.delivered += 1;
                s.delivery_latency.record(*latency_ns);
            }
            Event::Admission { decision, .. } => match decision {
                AdmissionDecision::Admit => s.admitted += 1,
                AdmissionDecision::Reject => s.rejected += 1,
            },
            Event::PoolWaiting { .. } => s.pools_waited += 1,
            Event::PoolAdmitted { .. } => s.pools_admitted += 1,
            Event::Link { kind, .. } => match *kind {
                "enqueue" => self.link_kinds[0] += 1,
                "drop" => self.link_kinds[1] += 1,
                "transmit" => self.link_kinds[2] += 1,
                other => self.count_other_link_kind(other),
            },
            Event::Fault { kind, .. } => self.faults[*kind as usize] += 1,
            Event::LinkSummary {
                link,
                offered_pkts,
                dropped_pkts,
                transmitted_pkts,
                utilization,
            } => {
                s.links.insert(
                    *link,
                    (
                        *offered_pkts,
                        *dropped_pkts,
                        *transmitted_pkts,
                        *utilization,
                    ),
                );
            }
            Event::EngineSummary { .. } => {}
        }
    }
}

/// Parses one JSONL line's `event` kind without a full JSON parser —
/// enough for tests and scripts that only bucket lines by kind.
pub fn jsonl_event_kind(line: &str) -> Option<&str> {
    let idx = line.find("\"event\":\"")?;
    let rest = &line[idx + 9..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlowId;

    fn flow() -> FlowId {
        FlowId {
            src: 1,
            src_port: 10,
            dst: 2,
            dst_port: 80,
        }
    }

    #[test]
    fn ring_buffer_bounds_and_counts() {
        let mut ring = RingBufferSink::new(2);
        for i in 0..5u64 {
            ring.emit(
                i,
                &Event::Dropped {
                    packet: i + 1,
                    flow: flow(),
                    stage: 1,
                    retransmission: false,
                },
            );
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.count("dropped"), 5);
        assert_eq!(ring.events().count(), 2);
        assert_eq!(ring.evicted(), 3);
        // Oldest-first, and the newest survive.
        let times: Vec<u64> = ring.events().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![3, 4]);
    }

    /// A writer whose bytes stay readable after the sink that owns it
    /// is gone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.emit(
            7,
            &Event::Admission {
                src: 3,
                decision: AdmissionDecision::Admit,
                loss_rate: 0.25,
            },
        );
        sink.emit(
            9,
            &Event::QueueDepth {
                pkts: 4,
                bytes: 2000,
                per_class: [1, 0, 0, 0, 0],
            },
        );
        sink.flush();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"admission\""));
        assert!(lines[0].contains("\"t_ns\":7"));
        assert_eq!(jsonl_event_kind(lines[1]), Some("queue_depth"));
    }

    #[test]
    fn summary_aggregates() {
        let mut sink = SummarySink::new();
        sink.emit(
            0,
            &Event::FlowStateChanged {
                flow: flow(),
                from: FlowState::SlowStart,
                to: FlowState::Normal,
                trigger: "epoch-roll",
            },
        );
        sink.emit(
            1,
            &Event::Dropped {
                packet: 9,
                flow: flow(),
                stage: 3,
                retransmission: true,
            },
        );
        sink.emit(
            2,
            &Event::QueueDepth {
                pkts: 10,
                bytes: 5000,
                per_class: [0; 5],
            },
        );
        let s = sink.stats();
        assert_eq!(s.transitions[&("SlowStart", "Normal")], 1);
        assert_eq!(s.drops_by_stage[3], 1);
        assert_eq!(s.depth.count(), 1);
        assert_eq!(s.total_events(), 3);
        let rendered = sink.render("test");
        assert!(rendered.contains("SlowStart -> Normal"));
        assert!(rendered.contains("stage 3: 1"));
    }

    #[test]
    fn summary_tracks_delivery_latency() {
        let mut sink = SummarySink::new();
        for latency_ns in [1_000u64, 2_000, 4_000] {
            sink.emit(
                latency_ns,
                &Event::Delivered {
                    packet: latency_ns,
                    flow: flow(),
                    bytes: 500,
                    latency_ns,
                },
            );
        }
        assert_eq!(sink.stats().delivered, 3);
        assert_eq!(sink.stats().delivery_latency.count(), 3);
        assert!(sink.render("test").contains("delivered: 3"));
    }

    /// A writer that fails every call, standing in for a full disk.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn jsonl_dropped_mid_run_loses_no_buffered_lines() {
        // A run that ends without an explicit flush (worker panic, early
        // teardown) drops the sink with lines still sitting in the
        // BufWriter. The Drop impl must push them out.
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        for i in 0..5u64 {
            sink.emit(i, &Event::PoolWaiting { src: 7 });
        }
        assert!(
            buf.0.lock().unwrap().is_empty(),
            "5 short lines must still sit in the BufWriter"
        );
        drop(sink); // no flush() call — simulates a mid-run teardown
        let text = buf.text();
        assert_eq!(text.lines().count(), 5, "drop must flush the tail");
        assert!(text
            .lines()
            .all(|l| jsonl_event_kind(l) == Some("pool_waiting")));
    }

    #[test]
    fn jsonl_counts_write_errors_instead_of_swallowing() {
        // A tiny BufWriter forces every emit through the broken writer.
        let mut sink = JsonlSink {
            out: io::BufWriter::with_capacity(1, BrokenWriter),
            lines: 0,
            write_errors: 0,
            errors_reported: false,
        };
        for i in 0..3u64 {
            sink.emit(
                i,
                &Event::QueueDepth {
                    pkts: 1,
                    bytes: 40,
                    per_class: [0; 5],
                },
            );
        }
        assert_eq!(sink.lines(), 3);
        assert_eq!(sink.write_errors(), 3, "every failed write is counted");
        sink.flush();
        assert!(sink.write_errors() >= 3);
    }

    /// The pre-slot summarizer, kept as the twin the fast one must
    /// match: `emit` is the body that made two string-compared
    /// `BTreeMap` descents per event, straight into the public maps.
    #[derive(Default)]
    struct RefSummary {
        stats: SummaryStats,
    }

    impl RefSummary {
        fn emit(&mut self, _at_ns: u64, event: &Event) {
            let s = &mut self.stats;
            *s.counts_by_kind.entry(event.kind()).or_insert(0) += 1;
            match event {
                Event::FlowStateChanged { from, to, .. } => {
                    *s.transitions.entry((from.name(), to.name())).or_insert(0) += 1;
                    *s.state_entries.entry(to.name()).or_insert(0) += 1;
                }
                Event::Retransmit {
                    repairs_local_drop, ..
                } => {
                    s.retransmits += 1;
                    if *repairs_local_drop {
                        s.repairs_local += 1;
                    }
                }
                Event::Classified { class, .. } => {
                    *s.classified.entry(class.name()).or_insert(0) += 1;
                }
                Event::Dropped { stage, .. } => {
                    s.drops_by_stage[(*stage as usize).min(15)] += 1;
                }
                Event::QueueDepth { pkts, .. } => {
                    s.depth.record(*pkts);
                }
                Event::Delivered { latency_ns, .. } => {
                    s.delivered += 1;
                    s.delivery_latency.record(*latency_ns);
                }
                Event::Admission { decision, .. } => {
                    if *decision == AdmissionDecision::Admit {
                        s.admitted += 1;
                    } else {
                        s.rejected += 1;
                    }
                }
                Event::PoolWaiting { .. } => s.pools_waited += 1,
                Event::PoolAdmitted { .. } => s.pools_admitted += 1,
                Event::Link { kind, .. } => {
                    *s.link_events.entry(kind).or_insert(0) += 1;
                }
                Event::Fault { kind, .. } => {
                    *s.faults.entry(kind.name()).or_insert(0) += 1;
                }
                Event::LinkSummary {
                    link,
                    offered_pkts,
                    dropped_pkts,
                    transmitted_pkts,
                    utilization,
                } => {
                    s.links.insert(
                        *link,
                        (
                            *offered_pkts,
                            *dropped_pkts,
                            *transmitted_pkts,
                            *utilization,
                        ),
                    );
                }
                Event::EngineSummary { .. } => {}
            }
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
    }

    /// One event of any variant, drawn from `rng`: of the flow states
    /// only the first few (how many depends on `seed`), and a `Link`
    /// event's kind from `link_kinds`.
    fn random_event(rng: &mut Rng, seed: u64, link_kinds: &[&'static str]) -> Event {
        let packet = rng.next();
        match rng.below(16) {
            0 | 1 => Event::FlowStateChanged {
                flow: flow(),
                from: rng.pick(&FlowState::ALL),
                to: rng.pick(&FlowState::ALL[..5 - seed as usize % 3]),
                trigger: "epoch-roll",
            },
            2 => Event::Retransmit {
                flow: flow(),
                repairs_local_drop: rng.below(2) == 0,
            },
            3 | 4 => Event::Classified {
                packet,
                flow: flow(),
                class: rng.pick(&QueueClass::ALL),
                retransmission: false,
            },
            5 => Event::Dropped {
                packet,
                flow: flow(),
                stage: rng.below(20) as u8,
                retransmission: false,
            },
            6 => Event::QueueDepth {
                pkts: rng.next() % 300,
                bytes: 0,
                per_class: [0; 5],
            },
            7 => Event::Admission {
                src: 1,
                decision: rng.pick(&AdmissionDecision::ALL),
                loss_rate: 0.1,
            },
            8 => match rng.below(2) {
                0 => Event::PoolWaiting { src: 1 },
                _ => Event::PoolAdmitted { src: 1 },
            },
            9..=11 => Event::Link {
                link: rng.below(4) as u32,
                kind: rng.pick(link_kinds),
                packet,
                flow: flow(),
                bytes: 500,
            },
            12 => Event::Delivered {
                packet,
                flow: flow(),
                bytes: 500,
                latency_ns: rng.next() % 1_000_000_000,
            },
            13 => Event::Fault {
                link: 0,
                kind: rng.pick(&FaultKind::ALL),
                packet: None,
                flow: None,
                value: 0.0,
            },
            14 => match rng.below(4) {
                0 => Event::EngineSummary {
                    events: 1,
                    virtual_ns: 2,
                    wall_ns: 3,
                },
                _ => Event::LinkSummary {
                    link: rng.below(12) as u32,
                    offered_pkts: rng.next() % 1_000,
                    dropped_pkts: 3,
                    transmitted_pkts: 5,
                    utilization: 0.5,
                },
            },
            _ => Event::Classified {
                packet,
                flow: flow(),
                class: rng.pick(&QueueClass::ALL),
                retransmission: true,
            },
        }
    }

    /// The ring's per-kind counts, kept by index, against a tally keyed
    /// by kind name over a random stream: `count` answers every tag and
    /// 0 for a name no event carries, and `counts` lists exactly the
    /// kinds seen.
    #[test]
    fn ring_counts_match_a_tally_by_name() {
        let mut rng = Rng(21);
        let mut ring = RingBufferSink::new(16);
        let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
        assert!(ring.counts().is_empty());
        for step in 0..20_000u64 {
            // A few variants only at first, so a read finds kinds unseen.
            let event = loop {
                let event = random_event(&mut rng, 12, &["enqueue", "drop"]);
                if step > 200 || event.slot() < 4 {
                    break event;
                }
            };
            ring.emit(step, &event);
            *tally.entry(event.kind()).or_insert(0) += 1;
            if step % 97 == 0 {
                assert_eq!(ring.counts(), tally, "step {step}");
                for tag in Event::TAGS.into_iter().chain(["mark", "", "Dropped"]) {
                    let want = tally.get(tag).copied().unwrap_or(0);
                    assert_eq!(ring.count(tag), want, "{tag} at step {step}");
                }
            }
        }
        assert_eq!(tally.len(), Event::TAGS.len(), "every kind drawn");
        assert_eq!(ring.total(), tally.values().sum::<u64>());
    }

    #[test]
    fn fast_path_matches_reference_under_random_streams() {
        const EVENTS: usize = 60_000;
        // Link kinds are names, not values: one arrives at two
        // addresses, as a literal spelled in two crates does, and "mark"
        // joins late.
        let again = String::from("enqueue").leak();
        let link_kinds = ["enqueue", "transmit", "drop", again];
        for seed in [11u64, 12, 13] {
            let mut rng = Rng(seed);
            let mut fast = SummarySink::new();
            let mut reference = RefSummary::default();
            let mut reads = 0;
            for step in 0..EVENTS {
                let late = step > 2 * EVENTS / 3 && rng.below(5) == 0;
                let event =
                    random_event(&mut rng, seed, if late { &["mark"] } else { &link_kinds });
                fast.emit(step as u64, &event);
                reference.emit(step as u64, &event);
                // Reads land mid-stream, with no flush before them.
                if rng.below(EVENTS / 8) == 0 || step + 1 == EVENTS {
                    reads += 1;
                    let got = fast.stats();
                    let want = &reference.stats;
                    assert_eq!(got.counts_by_kind, want.counts_by_kind, "step {step}");
                    assert_eq!(got.transitions, want.transitions, "step {step}");
                    assert_eq!(got.state_entries, want.state_entries, "step {step}");
                    assert_eq!(got.classified, want.classified, "step {step}");
                    assert_eq!(got.link_events, want.link_events, "step {step}");
                    assert_eq!(got.faults, want.faults, "step {step}");
                    // Debug covers the histograms and scalar fields too.
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {step}");
                    assert_eq!(fast.render("t"), want.render("t"), "step {step}");
                }
            }
            assert!(reads >= 3, "seed {seed}: {reads} mid-stream reads");
            let got = fast.stats();
            assert_eq!(got.total_events(), EVENTS as u64);
            assert!(got.link_events["mark"] > 0);
            assert_eq!(
                got.counts_by_kind["link"],
                got.link_events.values().sum::<u64>()
            );
            assert_eq!(got.link_events.len(), 4, "two addresses, one enqueue row");
            assert_eq!(got.classified.len(), QueueClass::ALL.len());
            assert_eq!(got.faults.len(), FaultKind::ALL.len());
            // Only seed 12 ever enters TimeoutRecovery: a state seen only
            // as a transition's source must not show up with a zero count.
            assert_eq!(
                got.state_entries.contains_key("TimeoutRecovery"),
                seed % 3 == 0
            );
        }
    }
}
