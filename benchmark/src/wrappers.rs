//! Timing wrappers around the crates' public seams. Each layer is
//! measured from outside: the wrapper reads the clock, forwards the
//! call unchanged, reads the clock again, and records the interval in a
//! [`Probe`] the harness keeps a handle to. Bookkeeping happens after
//! the second clock read, so it slows the traced run (reported as
//! `bench.trace_overhead_ratio`) without inflating the measured call.

use crate::harness::{now_ns, Probe};
use std::sync::{Arc, Mutex};
use taq_sim::{EnqueueOutcome, LinkId, LinkMonitor, Packet, PacketArena, PacketId, Qdisc, SimTime};
use taq_telemetry::{Event, TelemetrySink};

/// Handle to a probe shared between a wrapper (boxed inside the
/// simulator) and the harness that reads it after the run. A run drives
/// each wrapper from one thread, so the lock is uncontended.
pub type SharedProbe = Arc<Mutex<Probe>>;

pub fn shared_probe(name: &'static str) -> SharedProbe {
    Arc::new(Mutex::new(Probe::new(name)))
}

fn record(probe: &SharedProbe, start_ns: u64) {
    let end_ns = now_ns();
    probe
        .lock()
        .expect("probe is only locked for a push")
        .record(start_ns, end_ns);
}

/// Packet headers offered to a [`TimedQdisc`], in arrival order, for the
/// component loops to replay.
pub type HeaderLog = Arc<Mutex<Vec<(Packet, SimTime)>>>;

/// Times `enqueue` and `dequeue`/`dequeue_batch` of any discipline.
pub struct TimedQdisc {
    inner: Box<dyn Qdisc>,
    enqueue: SharedProbe,
    dequeue: SharedProbe,
    /// When set, the first `capture_cap` offered headers are cloned here.
    capture: Option<HeaderLog>,
    capture_cap: usize,
}

impl TimedQdisc {
    pub fn new(inner: Box<dyn Qdisc>, enqueue: SharedProbe, dequeue: SharedProbe) -> Self {
        TimedQdisc {
            inner,
            enqueue,
            dequeue,
            capture: None,
            capture_cap: 0,
        }
    }

    /// Also records up to `cap` offered headers into `log`.
    pub fn capturing(mut self, log: HeaderLog, cap: usize) -> Self {
        self.capture = Some(log);
        self.capture_cap = cap;
        self
    }
}

impl Qdisc for TimedQdisc {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        if let Some(log) = &self.capture {
            let mut log = log.lock().expect("header log is only locked for a push");
            if log.len() < self.capture_cap {
                log.push((arena.get(pkt).clone(), now));
            }
        }
        let start = now_ns();
        let outcome = self.inner.enqueue(pkt, arena, now);
        record(&self.enqueue, start);
        outcome
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
        let start = now_ns();
        let pkt = self.inner.dequeue(arena, now);
        record(&self.dequeue, start);
        pkt
    }

    fn dequeue_batch(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        out: &mut Vec<PacketId>,
        max: usize,
    ) -> usize {
        let start = now_ns();
        let n = self.inner.dequeue_batch(arena, now, out, max);
        record(&self.dequeue, start);
        n
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn byte_len(&self) -> usize {
        self.inner.byte_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times every `emit` a sink receives. The inner sink stays reachable
/// through the typed handle `shared_sink` returns.
pub struct TimedSink<S> {
    pub inner: S,
    probe: SharedProbe,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, probe: SharedProbe) -> Self {
        TimedSink { inner, probe }
    }
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn emit(&mut self, at_ns: u64, event: &Event) {
        let start = now_ns();
        self.inner.emit(at_ns, event);
        record(&self.probe, start);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Times every callback a link monitor receives. Read the inner monitor
/// back with `sim.monitor::<TimedMonitor<M>>(id)`.
pub struct TimedMonitor<M> {
    pub inner: M,
    probe: SharedProbe,
}

impl<M> TimedMonitor<M> {
    pub fn new(inner: M, probe: SharedProbe) -> Self {
        TimedMonitor { inner, probe }
    }
}

impl<M: LinkMonitor + 'static> LinkMonitor for TimedMonitor<M> {
    fn on_enqueue(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        let start = now_ns();
        self.inner.on_enqueue(link, pkt, now);
        record(&self.probe, start);
    }

    fn on_drop(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        let start = now_ns();
        self.inner.on_drop(link, pkt, now);
        record(&self.probe, start);
    }

    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        let start = now_ns();
        self.inner.on_transmit(link, pkt, now);
        record(&self.probe, start);
    }

    fn on_deliver(&mut self, node: u32, pkt: &Packet, now: SimTime) {
        let start = now_ns();
        self.inner.on_deliver(node, pkt, now);
        record(&self.probe, start);
    }
}
