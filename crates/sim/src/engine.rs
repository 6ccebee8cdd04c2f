//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns a set of nodes connected by unidirectional
//! rate/delay links, and drives them from a totally ordered event
//! queue. A node is either an [`Agent`] (a host, a traffic source, a
//! fault injector) or a router. Agents interact with the world only
//! through the [`Ctx`] handed to their callbacks: sending packets,
//! setting and cancelling timers, and drawing deterministic random
//! numbers. Routers ([`Simulator::add_router`]) have no callbacks: the
//! engine itself forwards a packet arriving at one, by id, onto the
//! link its static routes name for the packet's destination, so a
//! packet enters the arena once at [`Ctx::send`] and stays in its slot
//! until it is delivered to an agent or dropped.
//! Determinism is guaranteed by the canonical `(time, event-key)`
//! ordering (see `events::EventKey`) and per-entity seed-derived RNG
//! streams. A fully built [`Simulator`] is `Send`, so independent runs
//! can be fanned out across worker threads (see DESIGN.md's
//! "Concurrency model"). Each run itself is single-threaded.

use crate::arena::{PacketArena, PacketId};
use crate::events::{EventKey, EventKind, EventQueue, ScheduledEvent, TimerId};
use crate::link::{Link, LinkStats, WireLoss};
use crate::monitor::{AsAny, LinkMonitor, MonitorId};
use crate::packet::{LinkId, NodeId, Packet};
use crate::qdisc::Qdisc;
use crate::rng::SimRng;
use crate::time::{Bandwidth, SimDuration, SimTime};

/// Stream salt for per-node [`Ctx::rng`] derivation.
const NODE_RNG_STREAM: u64 = 0x6E6F_6465_7267_6E73;
/// Stream salt for per-link wire-loss draws.
const LINK_LOSS_STREAM: u64 = 0x6C6F_7373_7267_6E73;

/// A simulated process attached to a node: a TCP host, a traffic
/// source, a relay with behaviour of its own.
///
/// The [`AsAny`] supertrait is blanket-implemented for every `'static`
/// type, so implementations get `as_any`/`as_any_mut` (and with them
/// [`Simulator::agent`] / [`Simulator::agent_mut`] downcasting) for
/// free. `Send` is required so a populated simulator can move into a
/// sweep worker thread.
pub trait Agent: AsAny + Send {
    /// Called once when the agent's start event fires (see
    /// [`Simulator::schedule_start`]).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a packet addressed to (or routed through) this node
    /// arrives.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);

    /// Called when a live timer set by this agent fires; `token` is the
    /// cookie passed to [`Ctx::set_timer`].
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let _ = (token, ctx);
    }
}

#[derive(Debug, Default, Clone)]
struct RouteTable {
    default: Option<LinkId>,
    /// Indexed by destination [`NodeId`] (node ids are dense); grown on
    /// demand by [`Simulator::add_route`].
    by_dst: Vec<Option<LinkId>>,
}

/// Everything in the simulator except the agents themselves; split out so
/// an agent can be borrowed mutably while it manipulates the world.
struct World {
    now: SimTime,
    queue: EventQueue,
    /// Slab of every packet currently in flight anywhere in this world
    /// (queued in a qdisc, serializing, or propagating as an `Arrival`).
    arena: PacketArena,
    links: Vec<Link>,
    routes: Vec<RouteTable>,
    monitors: Vec<Box<dyn LinkMonitor>>,
    /// The run seed; all RNG streams derive from it statelessly.
    seed: u64,
    /// Lazily derived per-node [`Ctx::rng`] streams.
    node_rngs: Vec<Option<SimRng>>,
    /// Per-node timer counters (canonical `Timer` event keys).
    timer_seqs: Vec<u64>,
    /// Global pre-run start counter (canonical `Start` event keys).
    start_seq: u64,
    /// Per-node send counters backing [`Ctx::send`]'s id stamp. Packet
    /// ids are `(origin_node << 32) | seq`: unique, and a function of
    /// which node sent and how many packets it had sent before, never
    /// of how other nodes' sends interleaved with it.
    packet_seqs: Vec<u64>,
    events_processed: u64,
}

impl World {
    /// The link `from`'s routes name for `dst`.
    ///
    /// # Panics
    ///
    /// Panics if there is none; that is a topology construction bug,
    /// not a runtime condition.
    fn next_link(&self, from: NodeId, dst: NodeId) -> LinkId {
        let table = &self.routes[from.0 as usize];
        table
            .by_dst
            .get(dst.0 as usize)
            .copied()
            .flatten()
            .or(table.default)
            // Invariant: agents address nodes of their own topology, which routes every node.
            .unwrap_or_else(|| panic!("node {from:?} has no route to {dst:?}"))
    }

    /// A packet finished propagating to router `node`: monitors see the
    /// delivery, then it is offered, in place, to the next link.
    fn relay(&mut self, node: NodeId, pkt: PacketId) {
        let now = self.now;
        let p = self.arena.get(pkt);
        for m in &mut self.monitors {
            m.on_deliver(node.0, p, now);
        }
        let link = self.next_link(node, p.flow.dst);
        self.offer(link, pkt);
    }

    fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Offers the packet behind `pkt` to `link`'s queue and starts
    /// transmission if idle. Takes ownership of the id; drops reported
    /// by the qdisc are removed from the arena here.
    fn offer(&mut self, link_id: LinkId, pkt: PacketId) {
        let now = self.now;
        let World {
            arena,
            monitors,
            links,
            ..
        } = self;
        let link = &mut links[link_id.0 as usize];
        {
            let p = arena.get(pkt);
            for m in monitors.iter_mut() {
                m.on_enqueue(link_id, p, now);
            }
            link.stats.offered_pkts += 1;
            link.stats.offered_bytes += u64::from(p.wire_len());
        }
        let outcome = link.queue.enqueue(pkt, arena, now);
        for dropped in outcome.dropped {
            let victim = arena.remove(dropped);
            link.stats.dropped_pkts += 1;
            link.stats.dropped_bytes += u64::from(victim.wire_len());
            for m in monitors.iter_mut() {
                m.on_drop(link_id, &victim, now);
            }
        }
        self.try_transmit(link_id);
    }

    /// If the link is idle and has a queued packet, begins serializing it.
    fn try_transmit(&mut self, link_id: LinkId) {
        let now = self.now;
        let World {
            arena,
            monitors,
            links,
            queue,
            ..
        } = self;
        let link = &mut links[link_id.0 as usize];
        if link.busy {
            return;
        }
        let Some(pkt) = link.queue.dequeue(arena, now) else {
            return;
        };
        let wire = arena.get(pkt).wire_len();
        let tx = link.tx_time(wire);
        let done = now + tx;
        let arrive = done + link.delay;
        link.busy = true;
        link.stats.busy_time += tx;
        let seq = link.tx_count();
        queue.push(
            done,
            EventKey::link_free(link_id, seq),
            EventKind::LinkFree { link: link_id },
        );
        // Bernoulli wire loss: the packet occupies the transmitter but
        // never arrives (a corrupted frame). Used to drive controlled,
        // contention-independent loss probabilities for model
        // validation. Draws come from the link's own seed-derived
        // stream, so they are identical no matter what any other
        // component drew first.
        if let Some(loss) = link.loss.as_deref_mut() {
            if loss.rate > 0.0 && loss.rng.chance(loss.rate) {
                link.stats.wire_lost_pkts += 1;
                let victim = arena.remove(pkt);
                for m in monitors.iter_mut() {
                    m.on_drop(link_id, &victim, now);
                }
                return;
            }
        }
        link.stats.transmitted_pkts += 1;
        link.stats.transmitted_bytes += u64::from(wire);
        let to = link.to;
        // Monitors see the transmit with its completion timestamp so
        // time-sliced byte accounting is exact.
        {
            let p = arena.get(pkt);
            for m in monitors.iter_mut() {
                m.on_transmit(link_id, p, done);
            }
        }
        queue.push(
            arrive,
            EventKey::arrival(link_id, seq),
            EventKind::Arrival { node: to, pkt },
        );
    }
}

/// The agent-facing view of the simulator during a callback.
pub struct Ctx<'a> {
    world: &'a mut World,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The node this callback is running on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's own deterministic RNG stream, derived lazily from
    /// the run seed and the node id. Per-node streams mean one agent's
    /// draws never perturb another's.
    pub fn rng(&mut self) -> &mut SimRng {
        let idx = self.node.0 as usize;
        let seed = self.world.seed;
        let node = self.node.0;
        self.world.node_rngs[idx]
            .get_or_insert_with(|| SimRng::for_stream(seed, NODE_RNG_STREAM ^ u64::from(node)))
    }

    /// Sends a freshly created packet toward `dst`, stamping its unique
    /// id and send time. Routing starts from this node.
    ///
    /// # Panics
    ///
    /// Panics if this node has no route toward `dst`; that is a topology
    /// construction bug, not a runtime condition.
    pub fn send(&mut self, dst: NodeId, mut pkt: Packet) {
        let seq = &mut self.world.packet_seqs[self.node.0 as usize];
        *seq += 1;
        // Hard in every profile: a wrapped seq would alias another
        // node's packet ids.
        assert!(*seq < 1 << 32, "per-node packet seq overflowed its field");
        pkt.id = (u64::from(self.node.0) << 32) | *seq;
        pkt.sent_at = self.world.now;
        self.forward(dst, pkt);
    }

    /// Forwards a packet this agent received toward `dst` without
    /// restamping it. Agents that relay (fault injectors, a test's
    /// by-value router) use this; original senders should use
    /// [`Ctx::send`]. The packet enters the world's arena here and
    /// travels by id from then on.
    ///
    /// # Panics
    ///
    /// Panics if this node has no route toward `dst`.
    pub fn forward(&mut self, dst: NodeId, pkt: Packet) {
        let link = self.world.next_link(self.node, dst);
        let id = self.world.arena.insert(pkt);
        self.world.offer(link, id);
    }

    /// Schedules `on_timer(token)` on this agent after `delay`. Returns a
    /// handle usable with [`Ctx::cancel_timer`]: the timer's queued
    /// event is all there is of it, and the handle names that event.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let World {
            now,
            queue,
            timer_seqs,
            ..
        } = &mut *self.world;
        let seq = &mut timer_seqs[self.node.0 as usize];
        let id = queue.push_timer(*now + delay, self.node, *seq, token);
        *seq += 1;
        id
    }

    /// Cancels a timer this node set; returns `true` if it had not yet
    /// fired. Its event leaves the queue here, so it is never popped or
    /// counted. A handle that fired or was cancelled, another node's
    /// handle and a [`TimerId::synthetic`] one match no event: they
    /// return `false` and change nothing.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.world.queue.cancel_timer(self.node, id)
    }

    /// Changes a link's rate mid-run. Takes effect from the next packet
    /// serialization; an in-flight transmission keeps the rate it
    /// started with. Fault drivers use this for bandwidth jitter
    /// schedules.
    pub fn set_link_rate(&mut self, link: LinkId, rate: Bandwidth) {
        self.world.link_mut(link).set_rate(rate);
    }

    /// Changes a link's propagation delay mid-run. Packets already
    /// propagating keep their original arrival time.
    pub fn set_link_delay(&mut self, link: LinkId, delay: SimDuration) {
        self.world.link_mut(link).delay = delay;
    }

    /// A link's current rate.
    pub fn link_rate(&self, link: LinkId) -> Bandwidth {
        self.world.link(link).rate()
    }

    /// A link's current propagation delay.
    pub fn link_delay(&self, link: LinkId) -> SimDuration {
        self.world.link(link).delay
    }
}

/// The discrete-event simulator.
pub struct Simulator {
    /// Per node: its agent, or `None` for a router
    /// ([`Simulator::add_router`]).
    agents: Vec<Option<Box<dyn Agent>>>,
    world: World,
    max_events: u64,
}

impl Simulator {
    /// Creates an empty simulator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            agents: Vec::new(),
            world: World {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                arena: PacketArena::new(),
                links: Vec::new(),
                routes: Vec::new(),
                monitors: Vec::new(),
                seed,
                node_rngs: Vec::new(),
                timer_seqs: Vec::new(),
                start_seq: 0,
                packet_seqs: Vec::new(),
                events_processed: 0,
            },
            max_events: u64::MAX,
        }
    }

    /// Caps the number of events executed (see
    /// [`Simulator::events_processed`]); exceeded caps abort the run
    /// with a panic. Useful in tests against runaway loops.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Adds an agent, returning its node id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> NodeId {
        self.add_node(Some(agent))
    }

    /// Adds a router, returning its node id. A packet arriving at it is
    /// shown to the monitors (`on_deliver`) and offered to the link
    /// installed for its flow's destination ([`Simulator::add_route`] /
    /// [`Simulator::set_default_route`]); the run panics with "no
    /// route" if there is none. A router has no agent to start, time or
    /// downcast.
    pub fn add_router(&mut self) -> NodeId {
        self.add_node(None)
    }

    /// A node with an agent, or without one: a router.
    fn add_node(&mut self, agent: Option<Box<dyn Agent>>) -> NodeId {
        let id = NodeId(self.agents.len() as u32);
        self.agents.push(agent);
        self.world.routes.push(RouteTable::default());
        self.world.node_rngs.push(None);
        self.world.timer_seqs.push(0);
        self.world.packet_seqs.push(0);
        id
    }

    /// Adds a unidirectional link from `from` to `to`. An
    /// [`UnboundedFifo`](crate::UnboundedFifo) discipline is unboxed and
    /// kept inline in the link; any other stays boxed.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        rate: Bandwidth,
        delay: SimDuration,
        qdisc: Box<dyn Qdisc>,
    ) -> LinkId {
        // `from` is the transmitting end only through the routes that
        // name the link (`add_route`); the link itself keeps its far end.
        let _ = from;
        let id = LinkId(self.world.links.len() as u32);
        self.world.links.push(Link::new(to, rate, delay, qdisc));
        id
    }

    /// Installs `link` as the route from `node` to the specific `dst`.
    pub fn add_route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        let by_dst = &mut self.world.routes[node.0 as usize].by_dst;
        let i = dst.0 as usize;
        if by_dst.len() <= i {
            by_dst.resize(i + 1, None);
        }
        by_dst[i] = Some(link);
    }

    /// Installs `link` as `node`'s default route.
    pub fn set_default_route(&mut self, node: NodeId, link: LinkId) {
        self.world.routes[node.0 as usize].default = Some(link);
    }

    /// Changes a link's rate (the construction-time counterpart of
    /// [`Ctx::set_link_rate`]; both mutate the same field).
    pub fn set_link_rate(&mut self, link: LinkId, rate: Bandwidth) {
        self.world.link_mut(link).set_rate(rate);
    }

    /// Changes a link's propagation delay.
    pub fn set_link_delay(&mut self, link: LinkId, delay: SimDuration) {
        self.world.link_mut(link).delay = delay;
    }

    /// A link's current rate.
    pub fn link_rate(&self, link: LinkId) -> Bandwidth {
        self.world.link(link).rate()
    }

    /// A link's current propagation delay.
    pub fn link_delay(&self, link: LinkId) -> SimDuration {
        self.world.link(link).delay
    }

    /// Sets a Bernoulli wire-loss probability on a link: each serialized
    /// packet is independently corrupted (and never arrives) with
    /// probability `rate`. This realizes the Markov model's own i.i.d.
    /// loss assumption, independent of queue contention. The draws come
    /// from a per-link stream derived from the run seed and the link id.
    /// A rate of zero draws nothing; a nonzero rate set after it
    /// continues the stream where the earlier rate left it.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn set_link_loss(&mut self, link: LinkId, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "loss rate out of range");
        let seed = self.world.seed;
        let l = self.world.link_mut(link);
        match l.loss.as_deref_mut() {
            Some(loss) => loss.rate = rate,
            None if rate > 0.0 => {
                l.loss = Some(Box::new(WireLoss {
                    rate,
                    rng: SimRng::for_stream(seed, LINK_LOSS_STREAM ^ u64::from(link.0)),
                }));
            }
            None => {}
        }
    }

    /// Registers a monitor observing every link. The engine owns the
    /// monitor; read it back (during or after the run) with
    /// [`Simulator::monitor`] / [`Simulator::monitor_mut`] using the
    /// returned id.
    pub fn add_monitor(&mut self, monitor: Box<dyn LinkMonitor>) -> MonitorId {
        let id = MonitorId(self.world.monitors.len() as u32);
        self.world.monitors.push(monitor);
        id
    }

    /// Downcasts a registered monitor to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this simulator's
    /// [`Simulator::add_monitor`].
    pub fn monitor<T: 'static>(&self, id: MonitorId) -> Option<&T> {
        self.world.monitors[id.0 as usize]
            .as_ref()
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::monitor`].
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this simulator's
    /// [`Simulator::add_monitor`].
    pub fn monitor_mut<T: 'static>(&mut self, id: MonitorId) -> Option<&mut T> {
        self.world.monitors[id.0 as usize]
            .as_mut()
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Schedules `agent`'s `on_start` at time `at`.
    pub fn schedule_start(&mut self, node: NodeId, at: SimTime) {
        let seq = self.world.start_seq;
        self.world.start_seq += 1;
        self.world
            .queue
            .push(at, EventKey::start(node, seq), EventKind::Start { node });
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Number of events executed so far: arrivals, link-free polls,
    /// starts and timers that fired. A cancelled timer leaves the queue
    /// when it is cancelled and is not counted.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed
    }

    /// Number of packets currently live in the world's arena: buffered
    /// in a qdisc, serializing, or propagating toward a node. Leak
    /// tests pin this back to zero once queues drain.
    pub fn packets_in_flight(&self) -> usize {
        self.world.arena.len()
    }

    /// Statistics for a link.
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.world.link(link).stats
    }

    /// Immutable access to a link's queue (for inspecting discipline
    /// state mid-run).
    pub fn link_qdisc(&self, link: LinkId) -> &dyn Qdisc {
        self.world.link(link).queue.qdisc()
    }

    /// Downcasts an agent to its concrete type for post-run inspection;
    /// `None` for an agent of another type and for a router.
    pub fn agent<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.agents[node.0 as usize]
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::agent`].
    pub fn agent_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.agents[node.0 as usize]
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Executes the earliest pending event, which is always live (a
    /// cancelled timer is no longer queued). Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.world.queue.pop() else {
            return false;
        };
        self.execute(ev);
        true
    }

    /// Executes one already-popped event: clock advance, accounting,
    /// dispatch.
    fn execute(&mut self, ev: ScheduledEvent) {
        debug_assert!(ev.time >= self.world.now, "time went backwards");
        self.world.now = ev.time;
        self.world.events_processed += 1;
        assert!(
            self.world.events_processed <= self.max_events,
            "exceeded max_events = {}",
            self.max_events
        );
        match ev.kind {
            EventKind::Arrival { node, pkt } => {
                if self.agents[node.0 as usize].is_none() {
                    return self.world.relay(node, pkt);
                }
                // Delivery moves the packet out of the arena: the agent
                // owns it from here (and re-inserts via `Ctx::forward`
                // if it relays it). Monitors observe before the
                // receiving agent runs, so they see the packet's
                // end-to-end latency even when the agent consumes (or
                // re-sends) it.
                let pkt = self.world.arena.remove(pkt);
                let now = self.world.now;
                for m in &mut self.world.monitors {
                    m.on_deliver(node.0, &pkt, now);
                }
                self.with_agent(node, |agent, ctx| agent.on_packet(pkt, ctx));
            }
            EventKind::Timer { node, token } => {
                self.with_agent(node, |agent, ctx| agent.on_timer(token, ctx));
            }
            EventKind::LinkFree { link } => {
                self.world.link_mut(link).busy = false;
                self.world.try_transmit(link);
            }
            EventKind::Start { node } => {
                self.with_agent(node, |agent, ctx| agent.on_start(ctx));
            }
        }
    }

    fn with_agent(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Agent, &mut Ctx<'_>)) {
        let agent = self.agents[node.0 as usize]
            .as_deref_mut()
            // Invariant: only agent nodes are started or arm timers; routers have neither.
            .expect("a start or timer scheduled on a router");
        let mut ctx = Ctx {
            world: &mut self.world,
            node,
        };
        f(agent, &mut ctx);
    }

    /// Runs until the event queue drains or the clock passes `until`.
    /// Returns the final simulation time.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        // Peek-guarded: the peek moves the queue's cursor no further
        // than the next event, so what that event schedules files ahead
        // of the cursor.
        while self
            .world
            .queue
            .peek_entry()
            .is_some_and(|(time, _)| time <= until)
        {
            self.step();
        }
        // The clock advances to the horizon even if the queue drained
        // early, so utilization denominators are well-defined.
        self.world.now = self.world.now.max(until);
        self.world.now
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.world.now
    }

    /// Emits end-of-run aggregates into `telemetry`: one
    /// [`taq_telemetry::Event::LinkSummary`] per link (utilization over
    /// the full virtual run) and one
    /// [`taq_telemetry::Event::EngineSummary`] with the events-processed
    /// count, virtual time covered, and `wall` — the measured wall-clock
    /// time of the run, zero when the caller did not time it.
    pub fn emit_telemetry_summary(
        &self,
        telemetry: &taq_telemetry::Telemetry,
        wall: std::time::Duration,
    ) {
        let now_ns = self.world.now.as_nanos();
        let elapsed = self.world.now - SimTime::ZERO;
        for (id, link) in (0u32..).zip(&self.world.links) {
            let stats = &link.stats;
            telemetry.emit(now_ns, || taq_telemetry::Event::LinkSummary {
                link: id,
                offered_pkts: stats.offered_pkts,
                dropped_pkts: stats.dropped_pkts,
                transmitted_pkts: stats.transmitted_pkts,
                utilization: stats.utilization(elapsed),
            });
        }
        telemetry.emit(now_ns, || taq_telemetry::Event::EngineSummary {
            events: self.world.events_processed,
            virtual_ns: now_ns,
            wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, PacketBuilder, TcpFlags};
    use crate::qdisc::UnboundedFifo;
    use std::cell::RefCell;
    use std::sync::{Arc, Mutex};

    /// Shared arrival log: `(arrival time, packet id)` per packet.
    type ArrivalLog = Arc<Mutex<Vec<(SimTime, u64)>>>;

    /// Sends `count` packets to `peer` at start; records arrivals when
    /// a sink is attached (pure senders carry no sink at all).
    struct Chatter {
        peer: NodeId,
        count: u32,
        received: Option<ArrivalLog>,
        timer_fires: Vec<u64>,
    }

    impl Agent for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.count {
                let pkt = PacketBuilder::new(FlowKey {
                    src: ctx.node(),
                    src_port: 1,
                    dst: self.peer,
                    dst_port: 2,
                })
                .payload(500)
                .flags(TcpFlags::ACK)
                .build();
                ctx.send(self.peer, pkt);
            }
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if let Some(received) = &self.received {
                received.lock().unwrap().push((ctx.now(), pkt.id));
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            self.timer_fires.push(token);
        }
    }

    type Received = Arc<Mutex<Vec<(SimTime, u64)>>>;

    fn two_node_sim(count: u32) -> (Simulator, NodeId, NodeId, Received) {
        let mut sim = Simulator::new(1);
        let received = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_agent(Box::new(Chatter {
            peer: NodeId(1),
            count,
            received: None,
            timer_fires: Vec::new(),
        }));
        let b = sim.add_agent(Box::new(Chatter {
            peer: NodeId(0),
            count: 0,
            received: Some(received.clone()),
            timer_fires: Vec::new(),
        }));
        // 1 Mbps, 10 ms delay: a 540-byte packet serializes in 4.32 ms.
        let link = sim.add_link(
            a,
            b,
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(10),
            Box::new(UnboundedFifo::new()),
        );
        sim.set_default_route(a, link);
        sim.schedule_start(a, SimTime::ZERO);
        (sim, a, b, received)
    }

    #[test]
    fn packets_arrive_after_tx_plus_delay() {
        let (mut sim, _a, _b, received) = two_node_sim(1);
        sim.run();
        let got = received.lock().unwrap();
        assert_eq!(got.len(), 1);
        // 540 bytes at 1 Mbps = 4.32 ms; +10 ms propagation.
        assert_eq!(got[0].0, SimTime::from_micros(14_320));
    }

    #[test]
    fn serialization_spaces_back_to_back_packets() {
        let (mut sim, _a, _b, received) = two_node_sim(3);
        sim.run();
        let got = received.lock().unwrap();
        assert_eq!(got.len(), 3);
        let gap = got[1].0 - got[0].0;
        // Successive arrivals separated by one serialization time.
        assert_eq!(gap, SimDuration::from_micros(4_320));
        assert_eq!(got[2].0 - got[1].0, gap);
        // Ids are in send order.
        assert!(got[0].1 < got[1].1 && got[1].1 < got[2].1);
    }

    #[test]
    fn link_stats_count_traffic() {
        let (mut sim, _a, _b, _r) = two_node_sim(4);
        sim.run();
        let stats = sim.link_stats(LinkId(0));
        assert_eq!(stats.offered_pkts, 4);
        assert_eq!(stats.transmitted_pkts, 4);
        assert_eq!(stats.dropped_pkts, 0);
        assert_eq!(stats.transmitted_bytes, 4 * 540);
        assert_eq!(stats.busy_time, SimDuration::from_micros(4 * 4_320));
    }

    /// Sends bursts of 0–5 packets of random size every 0–6 ms, from its
    /// own seeded stream, so two simulators given one run it the same.
    struct Burster {
        peer: NodeId,
        rng: crate::rng::SimRng,
    }

    impl Agent for Burster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }

        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            for _ in 0..self.rng.next_below(6) {
                let pkt = PacketBuilder::new(FlowKey {
                    src: ctx.node(),
                    src_port: 1,
                    dst: self.peer,
                    dst_port: 2,
                })
                .payload(self.rng.next_below(1_461) as u32)
                .build();
                ctx.send(self.peer, pkt);
            }
            let gap = SimDuration::from_micros(self.rng.range_u64(0, 6_000));
            ctx.set_timer(gap, 0);
        }
    }

    /// A discipline that is an [`UnboundedFifo`] inside but not one to
    /// the engine, so its link keeps it boxed.
    struct WrappedFifo(UnboundedFifo);

    impl Qdisc for WrappedFifo {
        fn enqueue(
            &mut self,
            pkt: PacketId,
            arena: &mut PacketArena,
            now: SimTime,
        ) -> crate::qdisc::EnqueueOutcome {
            self.0.enqueue(pkt, arena, now)
        }

        fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
            self.0.dequeue(arena, now)
        }

        fn len(&self) -> usize {
            self.0.len()
        }

        fn byte_len(&self) -> usize {
            self.0.byte_len()
        }

        fn name(&self) -> &'static str {
            "wrapped-fifo"
        }
    }

    /// The same bursty traffic over a link given
    /// `Box::new(UnboundedFifo::new())`, which the engine unboxes and
    /// keeps inline, and over one given the same FIFO behind a wrapper,
    /// which stays boxed: after every 1 ms step the two simulators hold
    /// identical arrival logs, link counters and queue lengths, through
    /// queues that build up and drain, rate changes and wire loss.
    #[test]
    fn inline_fifo_link_matches_a_boxed_one() {
        let build = |qdisc: Box<dyn Qdisc>| {
            let mut sim = Simulator::new(5);
            let received = Arc::new(Mutex::new(Vec::new()));
            let a = sim.add_agent(Box::new(Burster {
                peer: NodeId(1),
                rng: crate::rng::SimRng::new(0xB0B),
            }));
            let b = sim.add_agent(Box::new(Chatter {
                peer: NodeId(0),
                count: 0,
                received: Some(received.clone()),
                timer_fires: Vec::new(),
            }));
            let link = sim.add_link(
                a,
                b,
                Bandwidth::from_mbps(8),
                SimDuration::from_millis(10),
                qdisc,
            );
            sim.set_default_route(a, link);
            sim.set_link_loss(link, 0.02);
            sim.schedule_start(a, SimTime::ZERO);
            (sim, link, received)
        };
        let (mut inline, link, inline_log) = build(Box::new(UnboundedFifo::new()));
        let (mut boxed, _, boxed_log) = build(Box::new(WrappedFifo(UnboundedFifo::new())));
        assert!(matches!(
            inline.world.link(link).queue,
            crate::link::LinkQueue::Fifo(_)
        ));
        assert!(matches!(
            boxed.world.link(link).queue,
            crate::link::LinkQueue::Boxed(_)
        ));
        let rates = [8_000, 4_000, 16_000, 6_000];
        let (mut peak, mut drains) = (0, 0);
        for ms in 1..=3_000u64 {
            if ms % 400 == 0 {
                let rate = Bandwidth::from_kbps(rates[(ms / 400) as usize % rates.len()]);
                inline.set_link_rate(link, rate);
                boxed.set_link_rate(link, rate);
            }
            inline.run_until(SimTime::from_millis(ms));
            boxed.run_until(SimTime::from_millis(ms));
            assert_eq!(
                inline.events_processed(),
                boxed.events_processed(),
                "{ms} ms"
            );
            assert_eq!(
                *inline_log.lock().unwrap(),
                *boxed_log.lock().unwrap(),
                "{ms} ms"
            );
            assert_eq!(inline.link_stats(link), boxed.link_stats(link), "{ms} ms");
            let (q, r) = (inline.link_qdisc(link), boxed.link_qdisc(link));
            assert_eq!((q.len(), q.byte_len()), (r.len(), r.byte_len()), "{ms} ms");
            if q.is_empty() && peak > 0 {
                drains += 1;
            }
            peak = if q.is_empty() { 0 } else { peak.max(q.len()) };
        }
        let stats = inline.link_stats(link);
        assert!(
            stats.transmitted_pkts > 1_000 && stats.wire_lost_pkts > 20 && drains > 20,
            "{stats:?}, {drains} drains"
        );
    }

    /// Agent that sets two timers and cancels one.
    struct TimerAgent;
    thread_local! {
        static FIRED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    impl Agent for TimerAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let _keep = ctx.set_timer(SimDuration::from_secs(1), 10);
            let cancel = ctx.set_timer(SimDuration::from_secs(2), 20);
            assert!(ctx.cancel_timer(cancel));
            assert!(!ctx.cancel_timer(cancel), "a second cancel is a no-op");
            ctx.set_timer(SimDuration::from_secs(3), 30);
        }

        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
            FIRED.with(|f| f.borrow_mut().push(token));
        }
    }

    #[test]
    fn mid_run_link_mutation_applies_to_later_serializations() {
        let (mut sim, _a, _b, received) = two_node_sim(2);
        assert_eq!(sim.link_rate(LinkId(0)), Bandwidth::from_mbps(1));
        assert_eq!(sim.link_delay(LinkId(0)), SimDuration::from_millis(10));
        // The first packet is already on the wire when the link degrades.
        sim.run_until(SimTime::from_millis(1));
        sim.set_link_rate(LinkId(0), Bandwidth::from_kbps(100));
        sim.set_link_delay(LinkId(0), SimDuration::from_millis(20));
        sim.run();
        let got = received.lock().unwrap();
        // First packet: the original 4.32 ms serialization + 10 ms delay.
        assert_eq!(got[0].0, SimTime::from_micros(14_320));
        // Second packet began serializing after the change: 43.2 ms at
        // 100 Kbps starting at 4.32 ms, plus the new 20 ms delay.
        assert_eq!(got[1].0, SimTime::from_micros(4_320 + 43_200 + 20_000));
    }

    /// Wire loss set to a rate, then 0, then the rate again: the first
    /// and last phases draw one variate per transmission from the
    /// link's one stream, continued rather than reseeded, and the zero
    /// phase draws nothing. A rate of 0 on a lossless link installs no
    /// stream at all.
    #[test]
    fn wire_loss_stream_pauses_at_zero_and_continues() {
        const PKTS: u32 = 300;
        let rate = 0.3;
        let (mut sim, _a, _b, received) = two_node_sim(PKTS);
        let link = LinkId(0);
        sim.set_link_loss(link, 0.0);
        assert!(sim.world.link(link).loss.is_none(), "zero installs nothing");
        sim.set_link_loss(link, rate);
        // Packet k starts serializing at k × 4.32 ms, and its draw is
        // taken then: packets 0–99 draw at `rate`, 100–199 at zero, the
        // rest at `rate` again.
        sim.run_until(SimTime::from_millis(430));
        sim.set_link_loss(link, 0.0);
        sim.run_until(SimTime::from_millis(862));
        sim.set_link_loss(link, rate);
        sim.run();
        let mut stream = SimRng::for_stream(1, LINK_LOSS_STREAM);
        let expect: Vec<u64> = (0..u64::from(PKTS))
            .filter(|&k| (100..200).contains(&k) || !stream.chance(rate))
            .map(|k| k + 1)
            .collect();
        let got: Vec<u64> = received.lock().unwrap().iter().map(|&(_, id)| id).collect();
        assert_eq!(got, expect);
        let lost = u64::from(PKTS) - expect.len() as u64;
        assert!(lost > 30, "{lost} lost");
        assert_eq!(sim.link_stats(link).wire_lost_pkts, lost);
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        FIRED.with(|f| f.borrow_mut().clear());
        let mut sim = Simulator::new(2);
        let n = sim.add_agent(Box::new(TimerAgent));
        sim.schedule_start(n, SimTime::ZERO);
        sim.run();
        FIRED.with(|f| assert_eq!(*f.borrow(), vec![10, 30]));
        // The start and the two timers that fired: the cancelled one
        // left the queue when it was cancelled.
        assert_eq!(sim.events_processed(), 3);
    }

    /// The setter sets timers at 1 s and 2 s and publishes their
    /// handles; when `probing`, every callback also cancels handles
    /// that match no event: the setter its own once they fired, the
    /// other node the setter's pending ones, both synthetic ones.
    struct HandleProbe {
        board: Arc<Mutex<Vec<TimerId>>>,
        setter: bool,
        probing: bool,
        fired: Vec<u64>,
    }

    impl HandleProbe {
        fn probe(&self, ctx: &mut Ctx<'_>) {
            if !self.probing {
                return;
            }
            let board = self.board.lock().unwrap().clone();
            let stale = if self.setter {
                &board[..self.fired.len()]
            } else {
                &board[..]
            };
            let synthetic = [TimerId::synthetic(0), TimerId::synthetic(1)];
            for &id in stale.iter().chain(&synthetic) {
                assert!(!ctx.cancel_timer(id), "{id:?} matched an event");
            }
        }
    }

    impl Agent for HandleProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.setter {
                let ids = [1, 2].map(|s| ctx.set_timer(SimDuration::from_secs(s), s));
                self.board.lock().unwrap().extend(ids);
            }
            self.probe(ctx);
        }

        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}

        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            self.fired.push(token);
            self.probe(ctx);
        }
    }

    #[test]
    fn failed_cancels_change_nothing() {
        let run = |probing| {
            let mut sim = Simulator::new(6);
            let board = Arc::new(Mutex::new(Vec::new()));
            let mut node = |setter| {
                sim.add_agent(Box::new(HandleProbe {
                    board: board.clone(),
                    setter,
                    probing,
                    fired: Vec::new(),
                }))
            };
            let (setter, other) = (node(true), node(false));
            sim.schedule_start(setter, SimTime::ZERO);
            sim.schedule_start(other, SimTime::from_millis(500));
            sim.run();
            let fired = sim.agent::<HandleProbe>(setter).unwrap().fired.clone();
            (fired, sim.events_processed())
        };
        // Two starts and two timers, whether or not anything probed.
        assert_eq!(run(true), (vec![1, 2], 4));
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let (mut sim, _a, _b, received) = two_node_sim(3);
        let end = sim.run_until(SimTime::from_millis(15));
        assert_eq!(end, SimTime::from_millis(15));
        // Only the first packet has arrived by 15 ms.
        assert_eq!(received.lock().unwrap().len(), 1);
        sim.run();
        assert_eq!(received.lock().unwrap().len(), 3);
    }

    #[test]
    fn forwarding_router_relays_by_destination() {
        let mut sim = Simulator::new(3);
        let received = Arc::new(Mutex::new(Vec::new()));
        let src = sim.add_agent(Box::new(Chatter {
            peer: NodeId(2),
            count: 2,
            received: None,
            timer_fires: Vec::new(),
        }));
        let router = sim.add_router();
        let dst = sim.add_agent(Box::new(Chatter {
            peer: NodeId(0),
            count: 0,
            received: Some(received.clone()),
            timer_fires: Vec::new(),
        }));
        let l1 = sim.add_link(
            src,
            router,
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            Box::new(UnboundedFifo::new()),
        );
        let l2 = sim.add_link(
            router,
            dst,
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            Box::new(UnboundedFifo::new()),
        );
        sim.set_default_route(src, l1);
        sim.add_route(router, dst, l2);
        sim.schedule_start(src, SimTime::ZERO);
        sim.run();
        assert_eq!(received.lock().unwrap().len(), 2);
        assert!(
            sim.agent::<Chatter>(router).is_none(),
            "a router has no agent"
        );
    }

    /// `src → r1 → r2 → dst` over fast links; returns the simulator and
    /// the receiver's log. `r2` gets its route to `dst` only when
    /// `routed`.
    fn two_router_chain(routed: bool) -> (Simulator, Received) {
        let mut sim = Simulator::new(5);
        let received = Arc::new(Mutex::new(Vec::new()));
        let src = sim.add_agent(Box::new(Chatter {
            peer: NodeId(3),
            count: 1,
            received: None,
            timer_fires: Vec::new(),
        }));
        let r1 = sim.add_router();
        let r2 = sim.add_router();
        let dst = sim.add_agent(Box::new(Chatter {
            peer: NodeId(0),
            count: 0,
            received: Some(received.clone()),
            timer_fires: Vec::new(),
        }));
        let mut link = |from, to| {
            sim.add_link(
                from,
                to,
                Bandwidth::from_mbps(10),
                SimDuration::from_millis(1),
                Box::new(UnboundedFifo::new()),
            )
        };
        let (l1, l2, l3) = (link(src, r1), link(r1, r2), link(r2, dst));
        sim.set_default_route(src, l1);
        sim.set_default_route(r1, l2);
        if routed {
            sim.add_route(r2, dst, l3);
        }
        sim.schedule_start(src, SimTime::ZERO);
        (sim, received)
    }

    #[test]
    fn packet_crosses_routers_in_its_one_arena_slot() {
        let (mut sim, received) = two_router_chain(true);
        sim.run();
        // Three 432 µs serializations and three 1 ms propagations.
        let got = received.lock().unwrap();
        assert_eq!(got.as_slice(), [(SimTime::from_micros(4_296), 1)]);
        assert_eq!(sim.packets_in_flight(), 0);
        assert_eq!(
            sim.world.arena.capacity(),
            1,
            "a router hop must not take a second slot"
        );
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn router_without_route_panics() {
        let (mut sim, _received) = two_router_chain(false);
        sim.run();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut sim, _a, _b, received) = two_node_sim(5);
            let _ = seed;
            sim.run();
            // Dropping the simulator releases the receiver's handle, so
            // the trace moves out of the Arc without a copy.
            drop(sim);
            Arc::try_unwrap(received)
                .expect("sole owner after drop")
                .into_inner()
                .unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut sim = Simulator::new(4);
        let a = sim.add_agent(Box::new(Chatter {
            peer: NodeId(0),
            count: 1,
            received: None,
            timer_fires: Vec::new(),
        }));
        sim.schedule_start(a, SimTime::ZERO);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn max_events_guard() {
        let (mut sim, _a, _b, _r) = two_node_sim(5);
        sim.set_max_events(2);
        sim.run();
    }
}
