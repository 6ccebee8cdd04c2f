//! Component loops: each drives one public entry point of one crate in
//! isolation, so a layer's cost has a number that does not depend on
//! what the rest of a workload was doing. The `core` and `queues` loops
//! replay the header stream `TimedQdisc` captured on `manyflow_taq`, so
//! they see the flow mix and sequence-number patterns of the sub-packet
//! regime rather than a synthetic one.

use crate::harness::{median_of_passes, now_ns, phase, time_loop, HostSpeed};
use crate::workloads::{capture_headers, manyflow_link, Size};
use std::collections::VecDeque;
use std::time::Instant;
use taq::{classify, FlowTable, Observation, TaqConfig};
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_model::{ChainFamily, FluidModel, FullModel, LossFeedback};
use taq_sim::{
    Agent, Bandwidth, Ctx, FlowInterner, FlowKey, LinkId, LinkMonitor, NodeId, Packet, PacketArena,
    PacketBuilder, SimDuration, SimTime, Simulator, TcpFlags, TimerId, UnboundedFifo,
};
use taq_tcp::{TcpConfig, TcpIo, TcpReceiver, TcpSender, TimerKind, Variant};
use taq_telemetry::{shared_sink, Event, FlowId, SummarySink, Telemetry};
use taq_workloads::QdiscSpec;

/// Name → value of every component metric.
pub type Metrics = Vec<(&'static str, f64)>;

/// A captured header stream: each offered packet with its arrival time.
type Headers = [(Packet, SimTime)];

/// Runs every component loop, each for about `budget_s` seconds, as
/// phase spans under `parent`. `timer_ns` is the cost of one clock pair
/// at reference host speed, removed from the loops that time single
/// calls.
pub fn run(
    host: &mut HostSpeed,
    seed: u64,
    size: &Size,
    budget_s: f64,
    timer_ns: f64,
    parent: u32,
) -> Metrics {
    let (_, _, headers) = phase("core.capture_headers", parent, false, |_| {
        capture_headers(seed, size, host)
    });
    let mut out = Metrics::new();
    let mut section = |name: &'static str, f: &mut dyn FnMut(&mut HostSpeed) -> Metrics| {
        out.extend(phase(name, parent, false, |_| f(host)).2);
    };
    section("core.components", &mut |host| {
        core_loops(host, &headers, size, seed, budget_s, timer_ns)
    });
    section("sim.components", &mut |host| {
        sim_loops(host, seed, budget_s)
    });
    section("tcp.components", &mut |host| tcp_loops(host, budget_s));
    section("queues.components", &mut |host| {
        queue_loops(host, &headers, size, seed, budget_s)
    });
    section("metrics.components", &mut |host| {
        monitor_loop(host, &headers, budget_s)
    });
    section("telemetry.components", &mut |host| {
        telemetry_loops(host, budget_s)
    });
    section("model.components", &mut |host| model_loops(host, budget_s));
    out
}

// ---------------------------------------------------------------------
// core
// ---------------------------------------------------------------------

/// Which single call of the TAQ discipline a replay pass times.
#[derive(Clone, Copy, PartialEq)]
enum QdiscOp {
    /// `enqueue` finding the buffer one packet short of full: observe +
    /// classify + `TaqQueues::push`, never an eviction.
    Push,
    /// `enqueue` finding the buffer full: the same plus one eviction.
    Evict,
    /// `dequeue` from a full buffer.
    Pop,
}

/// Replays the stream through a fresh `TaqQdisc` held at the buffer cap
/// and returns the mean nanoseconds of the timed operation, the clock
/// pair's own cost still in it.
///
/// `TaqQueues::push` takes a `QueuedPkt`, which `taq` does not export,
/// so the queue structure cannot be driven directly from outside the
/// crate; the discipline's own `enqueue`/`dequeue` at a pinned
/// occupancy is the narrowest public seam around it.
fn qdisc_pass(headers: &Headers, size: &Size, seed: u64, op: QdiscOp) -> f64 {
    let (rate, buffer) = manyflow_link(size);
    let mut q = QdiscSpec::taq(buffer).build(rate, seed).forward;
    let mut arena = PacketArena::new();
    let (mut total, mut calls) = (0u64, 0u64);
    for (pkt, now) in headers {
        let full = q.len() >= buffer;
        // Hold the occupancy the timed operation is defined at.
        if full && op == QdiscOp::Push {
            if let Some(id) = q.dequeue(&mut arena, *now) {
                arena.remove(id);
            }
        }
        if full && op == QdiscOp::Pop {
            let t = now_ns();
            let id = q.dequeue(&mut arena, *now);
            total += now_ns() - t;
            calls += 1;
            if let Some(id) = id {
                arena.remove(id);
            }
        }
        let id = arena.insert(pkt.clone());
        let timed = full && op != QdiscOp::Pop;
        let t = now_ns();
        let outcome = q.enqueue(id, &mut arena, *now);
        if timed {
            total += now_ns() - t;
            calls += 1;
        }
        for dropped in outcome.dropped {
            arena.remove(dropped);
        }
    }
    total as f64 / calls.max(1) as f64
}

/// One replay of the stream into a flow table with the maintenance tick
/// every `min_epoch` of stream time, as the enqueue path schedules it;
/// mean nanoseconds per tick.
fn tick_pass(headers: &Headers, cfg: &TaqConfig) -> f64 {
    let mut table = FlowTable::new(cfg.clone());
    let mut next_tick = SimTime::ZERO;
    let (mut total, mut ticks) = (0u128, 0u64);
    for (pkt, now) in headers {
        if *now >= next_tick {
            next_tick = *now + cfg.min_epoch;
            let t = Instant::now();
            table.tick(*now, |_| false);
            total += t.elapsed().as_nanos();
            ticks += 1;
        }
        table.observe_forward(pkt, *now);
    }
    total as f64 / ticks.max(1) as f64
}

fn core_loops(
    host: &mut HostSpeed,
    headers: &Headers,
    size: &Size,
    seed: u64,
    budget_s: f64,
    timer_ns: f64,
) -> Metrics {
    // What `QdiscSpec::taq(buffer).build(rate, _)` configures.
    let (rate, buffer) = manyflow_link(size);
    let mut cfg = TaqConfig::for_link(rate);
    cfg.buffer_pkts = buffer;
    cfg.newflow_cap_pkts = cfg.newflow_cap_pkts.min(buffer);
    let n = headers.len() as u64;

    // observe: the whole stream into a fresh table per pass.
    let mut observations: Vec<Observation> = Vec::with_capacity(headers.len());
    let observe_ns = time_loop(host, budget_s, n, || {
        let mut table = FlowTable::new(cfg.clone());
        observations.clear();
        for (pkt, now) in headers {
            observations.push(table.observe_forward(pkt, *now));
        }
        table.len()
    });

    // classify: the observations that stream produced, against the fair
    // share of the flows in it.
    let fair = rate.bps() as f64 / observations.len().clamp(1, 5_000) as f64;
    let classify_ns = time_loop(host, budget_s, n, || {
        observations
            .iter()
            .map(|obs| classify(std::hint::black_box(obs), 1, 1, fair) as usize)
            .sum::<usize>()
    });

    let tick_ns = median_of_passes(host, budget_s, || tick_pass(headers, &cfg));
    let mut qdisc = |op| {
        let with_timer = median_of_passes(host, budget_s, || qdisc_pass(headers, size, seed, op));
        (with_timer - timer_ns).max(0.0)
    };
    vec![
        ("core.observe_ns", observe_ns),
        ("core.classify_ns", classify_ns),
        ("core.push_ns", qdisc(QdiscOp::Push)),
        ("core.pop_ns", qdisc(QdiscOp::Pop)),
        ("core.evict_ns", qdisc(QdiscOp::Evict)),
        ("core.tick_ns", tick_ns),
    ]
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

/// Re-arms timers the way a TCP host does: a near timer per "ACK"
/// (≈ one RTT) that fires, and a far RTO-like timer that each firing
/// cancels and re-arms, so the wheel's far levels fill with entries
/// that never fire.
struct TimerAgent {
    rto: Option<TimerId>,
}

impl Agent for TimerAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.on_timer(0, ctx);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if let Some(id) = self.rto.take() {
            ctx.cancel_timer(id);
        }
        let near_us = 180_000 + ctx.rng().next_below(40_000);
        let draw = ctx.rng().next_below(100);
        // Mostly 1 s (min RTO), some backed off to 2 s and 4 s.
        let far_ms = match draw {
            0..=79 => 1_000,
            80..=94 => 2_000,
            _ => 4_000,
        };
        self.rto = Some(ctx.set_timer(SimDuration::from_millis(far_ms), 1));
        ctx.set_timer(SimDuration::from_micros(near_us), 0);
    }
}

/// Bounces every packet it receives back to its peer.
struct Pinger {
    peer: NodeId,
    flow: FlowKey,
    in_flight: u32,
}

impl Agent for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.in_flight {
            ctx.send(
                self.peer,
                PacketBuilder::new(self.flow).payload(460).build(),
            );
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        ctx.send(
            self.peer,
            PacketBuilder::new(pkt.flow.reversed()).payload(460).build(),
        );
    }
}

fn key(src: u32, port: u16) -> FlowKey {
    FlowKey {
        src: NodeId(src),
        src_port: 80,
        dst: NodeId(2),
        dst_port: port,
    }
}

fn sim_loops(host: &mut HostSpeed, seed: u64, budget_s: f64) -> Metrics {
    // Scheduler + dispatch only: 5000 agents, no links, no packets.
    let timer_event_ns = median_of_passes(host, budget_s, || {
        let mut sim = Simulator::new(seed);
        for _ in 0..5_000 {
            let node = sim.add_agent(Box::new(TimerAgent { rto: None }));
            sim.schedule_start(node, SimTime::ZERO);
        }
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(10));
        t.elapsed().as_nanos() as f64 / sim.events_processed().max(1) as f64
    });

    // One hop: arena insert, FIFO enqueue/dequeue, serialize, propagate,
    // deliver, arena remove.
    let hop_ns = median_of_passes(host, budget_s, || {
        let mut sim = Simulator::new(seed);
        let flow = key(0, 5_000);
        let a = sim.add_agent(Box::new(Pinger {
            peer: NodeId(1),
            flow,
            in_flight: 16,
        }));
        let b = sim.add_agent(Box::new(Pinger {
            peer: a,
            flow: flow.reversed(),
            in_flight: 0,
        }));
        let rate = Bandwidth::from_mbps(100);
        let delay = SimDuration::from_millis(1);
        let ab = sim.add_link(a, b, rate, delay, Box::new(UnboundedFifo::new()));
        let ba = sim.add_link(b, a, rate, delay, Box::new(UnboundedFifo::new()));
        sim.set_default_route(a, ab);
        sim.set_default_route(b, ba);
        sim.schedule_start(a, SimTime::ZERO);
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(20));
        let hops = sim.link_stats(ab).transmitted_pkts + sim.link_stats(ba).transmitted_pkts;
        t.elapsed().as_nanos() as f64 / hops.max(1) as f64
    });

    // Arena: insert + read + remove at a standing population of 512.
    const ARENA_OPS: u64 = 200_000;
    let arena_ns = time_loop(host, budget_s, ARENA_OPS, || {
        let mut arena = PacketArena::new();
        let template = PacketBuilder::new(key(1, 5_000)).payload(460).build();
        let mut live = VecDeque::with_capacity(513);
        let mut acc = 0u64;
        for _ in 0..512 {
            live.push_back(arena.insert(template.clone()));
        }
        for _ in 0..ARENA_OPS {
            let id = arena.insert(template.clone());
            acc += u64::from(arena.get(id).wire_len());
            live.push_back(id);
            let oldest = live.pop_front().expect("standing population");
            acc += arena.remove(oldest).id;
        }
        acc
    });

    // Interner: hits over 5000 resident keys; misses as intern + release
    // of a key never seen before, the table staying at 5000.
    const INTERN_OPS: u64 = 200_000;
    let keys: Vec<FlowKey> = (0..5_000u32)
        .map(|i| key(1 + i / 60_000, i as u16))
        .collect();
    let mut resident = FlowInterner::new();
    for k in &keys {
        resident.intern(*k);
    }
    let intern_hit_ns = time_loop(host, budget_s, INTERN_OPS, || {
        let mut acc = 0usize;
        for i in 0..INTERN_OPS as usize {
            acc += resident.intern(keys[i % keys.len()]).0.index();
        }
        acc
    });
    let mut fresh = 0u32;
    let intern_miss_ns = time_loop(host, budget_s, INTERN_OPS, || {
        let mut acc = 0usize;
        for _ in 0..INTERN_OPS {
            fresh = fresh.wrapping_add(1);
            let (id, _) = resident.intern(key(1_000 + (fresh >> 16), fresh as u16));
            acc += id.index();
            resident.release(id);
        }
        acc
    });

    vec![
        ("sim.timer_event_ns", timer_event_ns),
        ("sim.hop_ns", hop_ns),
        ("sim.arena_ns", arena_ns),
        ("sim.intern_hit_ns", intern_hit_ns),
        ("sim.intern_miss_ns", intern_miss_ns),
    ]
}

// ---------------------------------------------------------------------
// tcp
// ---------------------------------------------------------------------

/// The benchmark's in-memory `TcpIo`: emitted packets queue for the
/// peer, and each timer kind has one slot, as the state machines keep
/// at most one live timer per kind.
struct PipeIo {
    now: SimTime,
    out: VecDeque<Packet>,
    timers: [Option<(TimerId, SimTime)>; 3],
    next_timer: u32,
}

impl PipeIo {
    fn new() -> Self {
        PipeIo {
            now: SimTime::ZERO,
            out: VecDeque::new(),
            timers: [None; 3],
            next_timer: 0,
        }
    }

    /// Takes the timer of `kind` if it is due.
    fn due(&mut self, kind: TimerKind) -> bool {
        let slot = &mut self.timers[kind.code() as usize];
        match *slot {
            Some((_, at)) if at <= self.now => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    fn earliest(&self) -> Option<SimTime> {
        self.timers.iter().flatten().map(|&(_, at)| at).min()
    }
}

impl TcpIo for PipeIo {
    fn now(&self) -> SimTime {
        self.now
    }

    fn emit(&mut self, mut pkt: Packet) {
        pkt.sent_at = self.now;
        self.out.push_back(pkt);
    }

    fn set_timer(&mut self, delay: SimDuration, kind: TimerKind) -> TimerId {
        let id = TimerId::synthetic(self.next_timer);
        self.next_timer = self.next_timer.wrapping_add(1);
        self.timers[kind.code() as usize] = Some((id, self.now + delay));
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        for slot in &mut self.timers {
            if slot.is_some_and(|(live, _)| live == id) {
                *slot = None;
            }
        }
    }
}

/// A sender and a receiver joined by two in-memory pipes, stepped in
/// half-RTT rounds. Returns the data segments the sender emitted and
/// whether the transfer reached its end (established, or closed and
/// complete). `drop_every` drops every n-th data segment on the way.
fn transfer(object_len: u64, drop_every: Option<u64>, stop_when_established: bool) -> (u64, bool) {
    let cfg = TcpConfig::default();
    let flow = key(1, 5_000);
    let sack = cfg.variant == Variant::Sack;
    let mut sender = TcpSender::new(cfg.clone(), flow, object_len);
    let mut receiver = TcpReceiver::new(cfg, flow.reversed(), sack);
    let (mut s_io, mut r_io) = (PipeIo::new(), PipeIo::new());
    let syn = PacketBuilder::new(flow.reversed())
        .seq(0)
        .flags(TcpFlags::SYN)
        .meta(object_len)
        .build();
    sender.on_syn(&syn, &mut s_io);
    let half_rtt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    let mut segments = 0;
    // Bounded: a transfer that stops making progress ends the loop
    // instead of spinning.
    for _ in 0..1_000_000 {
        if stop_when_established && sender.is_established() && receiver.is_established() {
            return (segments, true);
        }
        if sender.is_closed() && receiver.is_complete() {
            return (segments, true);
        }
        let mut progress = false;
        now += half_rtt;
        (s_io.now, r_io.now) = (now, now);
        while let Some(pkt) = s_io.out.pop_front() {
            progress = true;
            if pkt.is_data() {
                segments += 1;
                if drop_every.is_some_and(|n| segments % n == 0) {
                    continue;
                }
            }
            receiver.on_packet(&pkt, &mut r_io);
        }
        now += half_rtt;
        (s_io.now, r_io.now) = (now, now);
        while let Some(ack) = r_io.out.pop_front() {
            progress = true;
            sender.on_packet(&ack, &mut s_io);
        }
        if !progress {
            // Nothing in flight: jump to the next timer.
            let Some(at) = s_io.earliest().into_iter().chain(r_io.earliest()).min() else {
                return (segments, false);
            };
            now = now.max(at);
            (s_io.now, r_io.now) = (now, now);
        }
        if s_io.due(TimerKind::Rto) {
            sender.on_timer(TimerKind::Rto, &mut s_io);
        }
        if r_io.due(TimerKind::DelayedAck) {
            receiver.on_timer(TimerKind::DelayedAck, &mut r_io);
        }
    }
    (segments, false)
}

fn tcp_loops(host: &mut HostSpeed, budget_s: f64) -> Metrics {
    const OBJECT: u64 = 460 * 2_000;
    let mut per_segment = |drop_every| {
        median_of_passes(host, budget_s, || {
            let t = Instant::now();
            let (segments, _) = transfer(OBJECT, drop_every, false);
            t.elapsed().as_nanos() as f64 / segments.max(1) as f64
        })
    };
    let segment_ns = per_segment(None);
    let loss_recovery_ns = per_segment(Some(10));
    const HANDSHAKES: u64 = 2_000;
    let handshake_ns = time_loop(host, budget_s, HANDSHAKES, || {
        (0..HANDSHAKES)
            .map(|_| transfer(460, None, true).0)
            .sum::<u64>()
    });
    vec![
        ("tcp.segment_ns", segment_ns),
        ("tcp.handshake_ns", handshake_ns),
        ("tcp.loss_recovery_ns", loss_recovery_ns),
    ]
}

// ---------------------------------------------------------------------
// queues
// ---------------------------------------------------------------------

/// Enqueue + dequeue per packet of the stream through `spec`'s forward
/// discipline, starting half full. Arena traffic stays outside the
/// timed loop.
fn queue_pass(headers: &Headers, spec: &QdiscSpec, rate: Bandwidth, seed: u64) -> f64 {
    let mut q = spec.build(rate, seed).forward;
    let mut arena = PacketArena::new();
    let ids: Vec<_> = headers
        .iter()
        .map(|(pkt, _)| arena.insert(pkt.clone()))
        .collect();
    let prefill = match spec {
        QdiscSpec::DropTail { buffer_pkts }
        | QdiscSpec::Red { buffer_pkts }
        | QdiscSpec::Sfq { buffer_pkts } => buffer_pkts / 2,
        _ => 0,
    }
    .min(ids.len());
    let mut gone = Vec::with_capacity(ids.len());
    for (id, (_, now)) in ids[..prefill].iter().zip(headers) {
        gone.extend(q.enqueue(*id, &mut arena, *now).dropped);
    }
    let t = Instant::now();
    for (id, (_, now)) in ids[prefill..].iter().zip(&headers[prefill..]) {
        gone.extend(q.enqueue(*id, &mut arena, *now).dropped);
        gone.extend(q.dequeue(&mut arena, *now));
    }
    let ns = t.elapsed().as_nanos() as f64 / (ids.len() - prefill).max(1) as f64;
    std::hint::black_box(gone.len());
    ns
}

fn queue_loops(
    host: &mut HostSpeed,
    headers: &Headers,
    size: &Size,
    seed: u64,
    budget_s: f64,
) -> Metrics {
    let (rate, buffer_pkts) = manyflow_link(size);
    let mut per_pkt = |spec: QdiscSpec| {
        median_of_passes(host, budget_s, || queue_pass(headers, &spec, rate, seed))
    };
    vec![
        (
            "queues.droptail_ns",
            per_pkt(QdiscSpec::DropTail { buffer_pkts }),
        ),
        ("queues.red_ns", per_pkt(QdiscSpec::Red { buffer_pkts })),
        ("queues.sfq_ns", per_pkt(QdiscSpec::Sfq { buffer_pkts })),
    ]
}

// ---------------------------------------------------------------------
// metrics, telemetry, model
// ---------------------------------------------------------------------

/// The two monitors a Fig. 8 cell installs, fed the stream as the
/// bottleneck would feed them: offered, then transmitted. In a run the
/// callbacks are cheaper than the clock pair `TimedMonitor` brackets
/// them with, so their cost per packet is taken here, in one timed loop.
fn monitor_loop(host: &mut HostSpeed, headers: &Headers, budget_s: f64) -> Metrics {
    let link = LinkId(0);
    let ns = time_loop(host, budget_s, headers.len() as u64, || {
        let mut slices = SliceThroughput::new(link, SimDuration::from_secs(20));
        let mut evolution = EvolutionTracker::new(link, SimDuration::from_secs(2));
        for (pkt, now) in headers {
            slices.on_enqueue(link, pkt, *now);
            evolution.on_enqueue(link, pkt, *now);
            slices.on_transmit(link, pkt, *now);
            evolution.on_transmit(link, pkt, *now);
        }
        slices.slice_count() + evolution.windows()
    });
    vec![("metrics.monitor_ns_per_pkt", ns)]
}

fn telemetry_loops(host: &mut HostSpeed, budget_s: f64) -> Metrics {
    const EMITS: u64 = 200_000;
    let emit_loop = |telemetry: &Telemetry| {
        for i in 0..EMITS {
            telemetry.emit(i, || Event::Link {
                link: 0,
                kind: "enqueue",
                packet: i,
                flow: FlowId {
                    src: 1,
                    src_port: 80,
                    dst: 2,
                    dst_port: i as u16,
                },
                bytes: 500,
            });
        }
    };
    // A live hub nobody listens to: the cost every instrumented call
    // site pays when no sink is attached.
    let nosink = Telemetry::new();
    let emit_nosink_ns = time_loop(host, budget_s, EMITS, || emit_loop(&nosink));
    let summary = Telemetry::new();
    let (sink, erased) = shared_sink(SummarySink::new());
    summary.add_shared_sink(erased);
    let emit_summary_ns = time_loop(host, budget_s, EMITS, || emit_loop(&summary));
    std::hint::black_box(sink.lock().expect("summary sink").stats().total_events());
    vec![
        ("telemetry.emit_nosink_ns", emit_nosink_ns),
        ("telemetry.emit_summary_ns", emit_summary_ns),
    ]
}

fn model_loops(host: &mut HostSpeed, budget_s: f64) -> Metrics {
    // The million-flow coupled stationary solve `fluid_validation` times.
    let flows = 1_000_000.0;
    let fluid = FluidModel::new(
        ChainFamily::Full {
            wmax: 6,
            max_backoff: 3,
        },
        LossFeedback::DropTail {
            capacity_pps: flows * 2.0,
            buffer_pkts: flows,
        },
        flows,
        0.2,
    );
    let fluid_ns = time_loop(host, budget_s, 1, || fluid.stationary());
    // The Fig. 5 chain's stationary distribution, as fig06 solves it.
    let dtmc_ns = time_loop(host, budget_s, 1, || {
        FullModel::new(0.15, 6, 3).stationary()
    });
    vec![
        ("model.fluid_stationary_us", fluid_ns / 1e3),
        ("model.dtmc_stationary_us", dtmc_ns / 1e3),
    ]
}

#[cfg(test)]
mod tests {
    use super::transfer;

    #[test]
    fn in_memory_transfers_run_to_their_end() {
        // Lossless: every segment once. Lossy: the dropped tenth again.
        assert_eq!(transfer(460 * 2_000, None, false), (2_000, true));
        let (segments, done) = transfer(460 * 2_000, Some(10), false);
        assert!(done && segments > 2_200, "{segments} segments, done {done}");
        let (segments, done) = transfer(460, None, true);
        assert!(done && segments <= 1);
    }
}
