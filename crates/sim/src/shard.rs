//! Conservative parallel execution: shard the world, synchronize on
//! lookahead promises.
//!
//! [`Simulator::run_until_sharded`] partitions a built topology into
//! per-shard sub-worlds according to a [`ShardPlan`] (a node → shard
//! assignment). Each shard owns the links transmitting from its nodes
//! and runs the ordinary serial event loop over its own scheduler; the
//! only interaction between shards is `Arrival` events on **cut links**
//! (links whose endpoints live on different shards), shipped through
//! bounded channels.
//!
//! Synchronization is conservative, in the Chandy–Misra–Bryant style:
//!
//! - Every directed shard pair with at least one cut link has a channel
//!   whose **lookahead** is the minimum propagation delay over those
//!   links. A message on the channel carries a **promise**: the sender
//!   will never again send a packet with an arrival time below it.
//! - A shard only executes events strictly below `H`, the minimum over
//!   its incoming channels of the latest promise received (plus its own
//!   `until` horizon). When it runs out of safe events it advances its
//!   own promises to `min(next local event, H) + lookahead` — valid
//!   because any future transmission starts at or after that bound and
//!   then propagates for at least the lookahead — and blocks on its
//!   inbox.
//! - Promises on a channel are monotone and grow by at least the
//!   lookahead per blocked round, so as long as every cut link has a
//!   strictly positive delay (validated up front), some shard can
//!   always make progress: no deadlock, no lost events. A 10-second
//!   real-time guard converts any violation of that argument into a
//!   [`ShardError::Deadlock`] instead of a hang.
//!
//! Determinism: cross-shard arrivals carry their canonical
//! `(time, event-key)` identity computed by the sender (see
//! `events::EventKey`), and every RNG stream is derived statelessly
//! from the run seed — so the merged execution is event-for-event
//! identical to the serial engine's, at any shard count. Telemetry
//! follows the same key: each shard thread buffers what it emits
//! (`taq_telemetry::capture`), and the join replays the buffers sorted
//! by `(time, event-key, emission index)`, so attached sinks see the
//! serial run's stream byte for byte — also when the run ends in
//! [`ShardError::Deadlock`].
//!
//! A sharded run is **one-shot**: it must be the first run of the
//! simulator, and afterwards the simulator is good for inspection
//! (stats, agents, monitors) but not for further stepping — events
//! scheduled past `until` are dropped, exactly as if the run ended. If
//! the run returns an error after partitioning (deadlock), the
//! simulator's state is not restored.

use crate::engine::Simulator;
use crate::events::{EventKey, EventKind, EventQueue, TimerTable};
use crate::monitor::LinkMonitor;
use crate::packet::{LinkId, NodeId, Packet};
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::time::Duration;

/// Bounded capacity of each cross-shard channel, in messages.
const CHANNEL_CAP: usize = 8192;

/// Real-time guard on a blocked shard; tripping it is a bug in the
/// lookahead argument, not a tuning knob.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Arrivals buffered per output channel before a mid-round flush.
/// Coalescing defers channel sends to once per drain round; this cap
/// bounds the buffer (and the receiver's idle window) when one round
/// produces many cut-link arrivals. Kept below [`CHANNEL_CAP`] so a
/// single flush can't fill a drained channel by itself.
const SEND_COALESCE_CAP: usize = 1024;

/// A node → shard assignment for [`Simulator::run_until_sharded`].
///
/// Plans are cheap data: build them by hand in tests or with
/// [`crate::Topology::partition_routers`]-derived assignments in
/// workloads. Validation (length, bounds, cut-link delays, route
/// locality) happens when the run starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    node_shard: Vec<u32>,
}

impl ShardPlan {
    /// Creates a plan assigning node `i` to `node_shard[i]`, with
    /// `shards` shards total.
    pub fn new(shards: u32, node_shard: Vec<u32>) -> Self {
        ShardPlan { shards, node_shard }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard a node is assigned to.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the plan.
    pub fn node_shard(&self, node: NodeId) -> u32 {
        self.node_shard[node.0 as usize]
    }

    /// The full assignment, indexed by node id.
    pub fn assignment(&self) -> &[u32] {
        &self.node_shard
    }
}

/// Why a sharded run refused to start or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The simulator has already processed events; a sharded run must
    /// be the first run.
    AlreadyRun,
    /// The plan's assignment does not match the topology.
    BadAssignment(String),
    /// A cut link has zero propagation delay, which would make its
    /// channel's lookahead zero and the synchronization unable to
    /// advance.
    ZeroDelayCut(LinkId),
    /// A node routes onto a link owned by a different shard, so its
    /// sends could not be executed shard-locally.
    NonLocalRoute {
        /// The routing node.
        node: NodeId,
        /// The foreign link its table references.
        link: LinkId,
    },
    /// The monitor at this registration index does not implement
    /// [`LinkMonitor::fork_shard`], so its observations cannot be
    /// split across shards without loss.
    UnshardableMonitor(u32),
    /// A shard made no progress for [`DEADLOCK_TIMEOUT`] of real time;
    /// the payload is the stuck shard's id.
    Deadlock(u32),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::AlreadyRun => {
                write!(f, "sharded runs must start from an unrun simulator")
            }
            ShardError::BadAssignment(why) => write!(f, "bad shard assignment: {why}"),
            ShardError::ZeroDelayCut(link) => {
                write!(f, "cut link {:?} has zero delay (no lookahead)", link)
            }
            ShardError::NonLocalRoute { node, link } => write!(
                f,
                "node {:?} routes onto link {:?} owned by another shard",
                node, link
            ),
            ShardError::UnshardableMonitor(idx) => {
                write!(f, "monitor #{idx} does not support fork_shard")
            }
            ShardError::Deadlock(shard) => {
                write!(f, "shard {shard} made no progress for 10s (deadlock)")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One message on a cross-shard channel: a promise, optionally
/// carrying a packet arrival.
struct ShardMsg {
    /// Arrival time of the payload; equal to `promise` for pure null
    /// messages.
    time: SimTime,
    /// The sender will not send any later packet arriving before this.
    promise: SimTime,
    /// Sending shard (indexes the receiver's promise table).
    from: u32,
    /// The arrival itself, with its sender-computed canonical key.
    payload: Option<(EventKey, NodeId, Packet)>,
}

/// A shard's outgoing channel to one downstream shard.
struct ShardOutput {
    sender: SyncSender<ShardMsg>,
    /// Minimum delay over the cut links feeding this channel.
    lookahead: SimDuration,
    /// Latest promise sent; promises on a channel are monotone.
    last_promise: SimTime,
    /// Arrivals coalesced since the last flush, in send order. Flushed
    /// once per drain round (and whenever [`SEND_COALESCE_CAP`] fills),
    /// always before any null-message promise on the same channel so
    /// per-channel FIFO keeps every arrival ahead of the promise that
    /// covers it.
    pending: Vec<ShardMsg>,
}

/// The cross-shard half of a shard-local world: which links are cut,
/// where their arrivals go, and what delay floor each must respect.
/// Lives in `World::shard` during a sharded run so the transmit path
/// can reroute cut-link arrivals into channels.
pub(crate) struct ShardCtx {
    /// This shard's id (stamped on outgoing messages).
    shard: u32,
    /// The run horizon (for asserting late sends are harmless).
    until: SimTime,
    /// Cut link id → index into `outputs`.
    cut_links: HashMap<u32, usize>,
    outputs: Vec<ShardOutput>,
    /// Cut link id → pinned delay floor (its channel's lookahead).
    floors: HashMap<u32, SimDuration>,
}

impl ShardCtx {
    /// Whether `link`'s arrivals belong to another shard.
    pub(crate) fn is_cut_link(&self, link: LinkId) -> bool {
        self.cut_links.contains_key(&link.0)
    }

    /// Enforces the lookahead floor on cut-link delay mutations. The
    /// promises already sent assumed at least the pinned delay; going
    /// below it would let a packet arrive before its promise.
    pub(crate) fn assert_delay_floor(&self, link: LinkId, delay: SimDuration) {
        if let Some(&floor) = self.floors.get(&link.0) {
            assert!(
                delay >= floor,
                "cut link {:?} delay {:?} below the pinned lookahead {:?}",
                link,
                delay,
                floor
            );
        }
    }

    /// Ships a cut-link arrival to its owning shard, bundling a
    /// promise of `now + lookahead` (any later transmission on this
    /// channel starts at or after `now` and propagates at least the
    /// lookahead).
    pub(crate) fn send_arrival(
        &mut self,
        link: LinkId,
        now: SimTime,
        arrive: SimTime,
        key: EventKey,
        to: NodeId,
        pkt: Packet,
    ) {
        let until = self.until;
        let out = &mut self.outputs[self.cut_links[&link.0]];
        let promise = now.saturating_add(out.lookahead).max(out.last_promise);
        out.last_promise = promise;
        out.pending.push(ShardMsg {
            time: arrive,
            promise,
            from: self.shard,
            payload: Some((key, to, pkt)),
        });
        if out.pending.len() >= SEND_COALESCE_CAP {
            Self::flush_output(out, until);
        }
    }

    /// Drains one output's coalesced arrivals into its channel, in the
    /// order they were produced.
    fn flush_output(out: &mut ShardOutput, until: SimTime) {
        for msg in out.pending.drain(..) {
            let arrive = msg.time;
            if out.sender.send(msg).is_err() {
                // The receiver only exits once every sender promised
                // past `until`, and per-channel FIFO means it drained
                // everything sent before that promise — so a send that
                // finds it gone must be a post-horizon arrival, which a
                // serial run_until would leave unprocessed too.
                assert!(
                    arrive > until,
                    "receiver shard exited before a pre-horizon arrival"
                );
            }
        }
    }

    /// Flushes every output's coalesced arrivals. Called once per drain
    /// round, before promises advance or the shard blocks.
    pub(crate) fn flush_sends(&mut self) {
        let until = self.until;
        for out in &mut self.outputs {
            Self::flush_output(out, until);
        }
    }

    /// Advances every outgoing promise to `bound + lookahead` (only
    /// ever forward). `bound` is the earliest event this shard could
    /// still execute, so nothing it later transmits can arrive before
    /// `bound + lookahead`. Coalesced arrivals flush first, so the
    /// promise never overtakes an arrival it covers.
    fn promise_up_to(&mut self, bound: SimTime) {
        let until = self.until;
        for out in &mut self.outputs {
            Self::flush_output(out, until);
            let promise = bound.saturating_add(out.lookahead);
            if promise > out.last_promise {
                out.last_promise = promise;
                let _ = out.sender.send(ShardMsg {
                    time: promise,
                    promise,
                    from: self.shard,
                    payload: None,
                });
            }
        }
    }

    /// Final promises: this shard is done, nothing more will ever
    /// arrive on its channels. Flushes any coalesced arrivals first.
    fn finish(&mut self) {
        let until = self.until;
        for out in &mut self.outputs {
            Self::flush_output(out, until);
            if out.last_promise < SimTime::MAX {
                out.last_promise = SimTime::MAX;
                let _ = out.sender.send(ShardMsg {
                    time: SimTime::MAX,
                    promise: SimTime::MAX,
                    from: self.shard,
                    payload: None,
                });
            }
        }
    }
}

/// Folds one received message into the shard's queue and promise
/// table.
fn apply_msg(sim: &mut Simulator, promises: &mut HashMap<u32, SimTime>, msg: ShardMsg) {
    if let Some((key, node, pkt)) = msg.payload {
        debug_assert!(msg.time >= sim.world.now, "cross-shard arrival in the past");
        // The packet crossed the cut by value; it lives in this shard's
        // arena from here until delivery.
        let pkt = sim.world.arena.insert(pkt);
        sim.world
            .queue
            .push(msg.time, key, EventKind::Arrival { node, pkt });
    }
    let p = promises
        .get_mut(&msg.from)
        .expect("message from a shard not in the plan");
    if msg.promise > *p {
        *p = msg.promise;
    }
}

/// One shard's executor: the serial event loop fenced by the incoming
/// promise horizon.
fn run_shard(
    shard: u32,
    mut sim: Simulator,
    inbox: Option<Receiver<ShardMsg>>,
    senders: Vec<u32>,
    until: SimTime,
) -> Result<Simulator, ShardError> {
    // Until a sender says otherwise it has promised nothing: the
    // horizon starts at zero and only null-message exchange opens it.
    let mut promises: HashMap<u32, SimTime> =
        senders.into_iter().map(|s| (s, SimTime::ZERO)).collect();
    loop {
        if let Some(rx) = &inbox {
            loop {
                match rx.try_recv() {
                    Ok(msg) => apply_msg(&mut sim, &mut promises, msg),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Every sender is gone; FIFO already delivered
                        // anything they sent first.
                        for p in promises.values_mut() {
                            *p = SimTime::MAX;
                        }
                        break;
                    }
                }
            }
        }
        let horizon = promises.values().copied().min().unwrap_or(SimTime::MAX);
        // Execute everything with `t <= until && t < horizon`, in
        // batches. Integer-nanosecond time makes the strict horizon
        // bound the inclusive cap `horizon - 1 ns`; a ZERO horizon
        // admits nothing (no event time precedes the epoch).
        if horizon > SimTime::ZERO {
            let cap = until.min(horizon.saturating_pred());
            while sim.step_batch(cap) > 0 {}
        }
        // One flush per drain round: every cut-link arrival produced
        // above goes out now, before promises advance or we block.
        if let Some(ctx) = sim.world.shard.as_deref_mut() {
            ctx.flush_sends();
        }
        let next_local = sim.world.queue.peek_time().unwrap_or(SimTime::MAX);
        if next_local > until && horizon > until {
            // Nothing local below the horizon remains and no channel
            // can deliver anything at or below it either: done.
            if let Some(ctx) = sim.world.shard.as_deref_mut() {
                ctx.finish();
            }
            sim.world.now = sim.world.now.max(until);
            return Ok(sim);
        }
        // Blocked on a promise. Advance our own (so peers can open
        // their horizons past us), then wait for news.
        let bound = next_local.min(horizon);
        if let Some(ctx) = sim.world.shard.as_deref_mut() {
            ctx.promise_up_to(bound);
        }
        let Some(rx) = &inbox else {
            unreachable!("a shard with no incoming channels cannot block")
        };
        match rx.recv_timeout(DEADLOCK_TIMEOUT) {
            Ok(msg) => apply_msg(&mut sim, &mut promises, msg),
            Err(RecvTimeoutError::Timeout) => return Err(ShardError::Deadlock(shard)),
            Err(RecvTimeoutError::Disconnected) => {
                for p in promises.values_mut() {
                    *p = SimTime::MAX;
                }
            }
        }
    }
}

impl Simulator {
    /// Runs the simulation to `until` partitioned across one OS thread
    /// per shard, producing results identical to
    /// [`Simulator::run_until`]`(until)` — same agent states, same
    /// link stats, same monitor observations (after their deterministic
    /// merge), same events-processed count.
    ///
    /// Must be the **first** run of this simulator (the event queue
    /// holds only start events and no RNG stream has been drawn), and
    /// the run is one-shot: events scheduled past `until` are dropped
    /// rather than left queued. See the module docs for the
    /// synchronization protocol.
    ///
    /// # Errors
    ///
    /// Validation errors ([`ShardError::AlreadyRun`],
    /// [`ShardError::BadAssignment`], [`ShardError::ZeroDelayCut`],
    /// [`ShardError::NonLocalRoute`],
    /// [`ShardError::UnshardableMonitor`]) are returned before any
    /// state is disturbed. [`ShardError::Deadlock`] aborts mid-run and
    /// leaves the simulator gutted.
    pub fn run_until_sharded(
        &mut self,
        until: SimTime,
        plan: &ShardPlan,
    ) -> Result<SimTime, ShardError> {
        let n_nodes = self.agents.len();
        let n_links = self.world.links.len();
        if self.world.events_processed != 0 || self.world.now != SimTime::ZERO {
            return Err(ShardError::AlreadyRun);
        }
        if plan.shards == 0 {
            return Err(ShardError::BadAssignment("zero shards".into()));
        }
        if plan.node_shard.len() != n_nodes {
            return Err(ShardError::BadAssignment(format!(
                "plan covers {} nodes, topology has {}",
                plan.node_shard.len(),
                n_nodes
            )));
        }
        if let Some(&bad) = plan.node_shard.iter().find(|&&s| s >= plan.shards) {
            return Err(ShardError::BadAssignment(format!(
                "node assigned to shard {} of {}",
                bad, plan.shards
            )));
        }
        let shards = plan.shards as usize;
        let shard_of = |node: NodeId| plan.node_shard[node.0 as usize];

        // A link belongs to the shard of its transmitting endpoint;
        // collect cut links and the per-pair lookahead.
        let mut owner = Vec::with_capacity(n_links);
        let mut pair_lookahead: HashMap<(u32, u32), SimDuration> = HashMap::new();
        let mut cut: Vec<(LinkId, u32, u32)> = Vec::new();
        for i in 0..n_links {
            let link = self.world.link(LinkId(i as u32));
            let from = shard_of(link.from);
            let to = shard_of(link.to);
            owner.push(from);
            if from != to {
                if link.delay.is_zero() {
                    return Err(ShardError::ZeroDelayCut(link.id));
                }
                cut.push((link.id, from, to));
                pair_lookahead
                    .entry((from, to))
                    .and_modify(|la| *la = link.delay.min(*la))
                    .or_insert(link.delay);
            }
        }

        // Sends are executed by the routing node's shard, so every
        // link a node routes onto must be owned by that shard.
        for (i, table) in self.world.routes.iter().enumerate() {
            let node = NodeId(i as u32);
            for link in table.by_dst.values().copied().chain(table.default) {
                if owner[link.0 as usize] != shard_of(node) {
                    return Err(ShardError::NonLocalRoute { node, link });
                }
            }
        }

        // Fork monitor replicas: one full set per shard, same order.
        let mut shard_monitors: Vec<Vec<Box<dyn LinkMonitor>>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (i, monitor) in self.world.monitors.iter().enumerate() {
            for set in &mut shard_monitors {
                match monitor.fork_shard() {
                    Some(fork) => set.push(fork),
                    None => return Err(ShardError::UnshardableMonitor(i as u32)),
                }
            }
        }

        // --- validation done; from here on we take the world apart ---

        // One inbox per shard with incoming cut links; one sender
        // handle per upstream shard (per-sender FIFO is what the
        // promise argument relies on, and mpsc guarantees it).
        let mut inboxes: Vec<Option<Receiver<ShardMsg>>> = (0..shards).map(|_| None).collect();
        let mut incoming: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut pair_sender: HashMap<(u32, u32), SyncSender<ShardMsg>> = HashMap::new();
        let mut pairs: Vec<(u32, u32)> = pair_lookahead.keys().copied().collect();
        pairs.sort_unstable();
        let mut shared_tx: Vec<Option<SyncSender<ShardMsg>>> = (0..shards).map(|_| None).collect();
        for &(from, to) in &pairs {
            let tx = shared_tx[to as usize].get_or_insert_with(|| {
                let (tx, rx) = sync_channel(CHANNEL_CAP);
                inboxes[to as usize] = Some(rx);
                tx
            });
            pair_sender.insert((from, to), tx.clone());
            incoming[to as usize].push(from);
        }
        // Only the per-pair clones stay alive, so a receiver sees
        // Disconnected exactly when every upstream shard has exited.
        drop(shared_tx);

        // Per-shard cross-shard contexts.
        let mut ctxs: Vec<ShardCtx> = (0..shards)
            .map(|s| ShardCtx {
                shard: s as u32,
                until,
                cut_links: HashMap::new(),
                outputs: Vec::new(),
                floors: HashMap::new(),
            })
            .collect();
        for (s, ctx) in ctxs.iter_mut().enumerate() {
            for &(from, to) in pairs.iter().filter(|&&(from, _)| from == s as u32) {
                ctx.outputs.push(ShardOutput {
                    sender: pair_sender[&(from, to)].clone(),
                    lookahead: pair_lookahead[&(from, to)],
                    last_promise: SimTime::ZERO,
                    pending: Vec::new(),
                });
                let idx = ctx.outputs.len() - 1;
                for &(link, f, t) in cut.iter().filter(|&&(_, f, t)| f == from && t == to) {
                    debug_assert_eq!((f, t), (from, to));
                    ctx.cut_links.insert(link.0, idx);
                    ctx.floors.insert(link.0, pair_lookahead[&(from, to)]);
                }
            }
        }
        drop(pair_sender);

        // Split the world: each shard gets full-length agent/link
        // vectors (global ids keep indexing) with foreign slots empty
        // and a fresh scheduler. Packet-id counters are per *node*, so
        // replicating the full-length vector keeps every id identical
        // to the serial run's.
        let mut shard_sims: Vec<Simulator> = ctxs
            .into_iter()
            .map(|ctx| Simulator {
                agents: (0..n_nodes).map(|_| None).collect(),
                world: crate::engine::World {
                    now: SimTime::ZERO,
                    queue: EventQueue::with_scheduler(self.world.scheduler),
                    arena: crate::arena::PacketArena::new(),
                    timers: TimerTable::new(),
                    links: (0..n_links).map(|_| None).collect(),
                    routes: self.world.routes.clone(),
                    monitors: Vec::new(),
                    seed: self.world.seed,
                    scheduler: self.world.scheduler,
                    node_rngs: vec![None; n_nodes],
                    timer_seqs: vec![0; n_nodes],
                    start_seq: 0,
                    // Node-indexed like the serial world; each node
                    // runs on exactly one shard, so the counters stay
                    // disjoint and match the serial run's ids.
                    packet_seqs: vec![0; n_nodes],
                    events_processed: 0,
                    shard: Some(Box::new(ctx)),
                },
                max_events: self.max_events,
                batch_scratch: Vec::new(),
            })
            .collect();
        for (s, monitors) in shard_monitors.into_iter().enumerate() {
            shard_sims[s].world.monitors = monitors;
        }
        for (i, slot) in self.agents.iter_mut().enumerate() {
            let s = plan.node_shard[i] as usize;
            shard_sims[s].agents[i] = Some(slot.take().expect("agent is executing"));
        }
        for (i, slot) in self.world.links.iter_mut().enumerate() {
            shard_sims[owner[i] as usize].world.links[i] = slot.take();
        }
        // The pre-run queue holds only start events; deal them out.
        while let Some(ev) = self.world.queue.pop() {
            let EventKind::Start { node } = ev.kind else {
                unreachable!("unrun simulator queued a non-start event")
            };
            shard_sims[shard_of(node) as usize]
                .world
                .queue
                .push(ev.time, ev.key, ev.kind);
        }

        // Each shard thread's telemetry comes back with its result and
        // is replayed below in serial order (see the module docs).
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_sims
                .into_iter()
                .zip(inboxes)
                .zip(&incoming)
                .enumerate()
                .map(|(s, ((sim, inbox), senders))| {
                    let senders = senders.clone();
                    scope.spawn(move || {
                        let capture = taq_telemetry::capture::arm();
                        let result = run_shard(s as u32, sim, inbox, senders, until);
                        (result, capture.finish())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        let mut sims = Vec::with_capacity(shards);
        let mut first_err = None;
        let mut captured = Vec::new();
        for (result, mut events) in results {
            captured.append(&mut events);
            match result {
                Ok(sim) => sims.push(Some(sim)),
                Err(e) => {
                    first_err.get_or_insert(e);
                    sims.push(None);
                }
            }
        }
        // Before the error return: what a failed run emitted up to the
        // failure still reaches the sinks.
        taq_telemetry::capture::replay(captured);
        if let Some(e) = first_err {
            return Err(e);
        }

        // Merge: hand agents and links back by ownership, fold monitor
        // replicas in shard order, sum the event counts.
        for mut shard_sim in sims.into_iter().map(|s| s.expect("errors returned above")) {
            // Packets still buffered at the horizon come home too, so
            // `packets_in_flight` reports the same count at every shard
            // count (ids held by returned qdiscs are dead — the run is
            // one-shot, nothing dereferences them post-merge).
            for pkt in shard_sim.world.arena.drain_live() {
                self.world.arena.insert(pkt);
            }
            for (i, slot) in shard_sim.agents.into_iter().enumerate() {
                if let Some(agent) = slot {
                    self.agents[i] = Some(agent);
                }
            }
            for (i, slot) in shard_sim.world.links.into_iter().enumerate() {
                if let Some(link) = slot {
                    self.world.links[i] = Some(link);
                }
            }
            for (i, fork) in shard_sim.world.monitors.into_iter().enumerate() {
                self.world.monitors[i].merge_shard(fork);
            }
            self.world.events_processed += shard_sim.world.events_processed;
        }
        self.world.now = until;
        Ok(until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Agent, Ctx};
    use crate::packet::FlowKey;
    use crate::qdisc::UnboundedFifo;
    use crate::time::Bandwidth;
    use crate::PacketBuilder;
    use std::sync::{Arc, Mutex};

    type Log = Arc<Mutex<Vec<(SimTime, u16)>>>;

    /// Sends `count` packets to `peer` at start; echoes a reply to
    /// every original (non-echo) packet when `echo` is set. The log
    /// records `(arrival time, src_port)` — ports distinguish
    /// originals (10) from echoes (30).
    struct Pinger {
        peer: NodeId,
        count: u32,
        echo: bool,
        log: Log,
    }

    impl Agent for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.count {
                let pkt = PacketBuilder::new(FlowKey {
                    src: ctx.node(),
                    src_port: 10,
                    dst: self.peer,
                    dst_port: 20,
                })
                .payload(400)
                .build();
                ctx.send(self.peer, pkt);
            }
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.log
                .lock()
                .unwrap()
                .push((ctx.now(), pkt.flow.src_port));
            if self.echo && pkt.flow.dst_port == 20 {
                let reply = PacketBuilder::new(FlowKey {
                    src: ctx.node(),
                    src_port: 30,
                    dst: pkt.flow.src,
                    dst_port: 40,
                })
                .payload(120)
                .build();
                ctx.send(pkt.flow.src, reply);
            }
        }
    }

    /// Two nodes, bidirectional traffic over the (potential) cut, wire
    /// loss on one direction to exercise the per-link RNG streams.
    fn build() -> (Simulator, Log, Log) {
        let mut sim = Simulator::new(9);
        let log_a: Log = Arc::new(Mutex::new(Vec::new()));
        let log_b: Log = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_agent(Box::new(Pinger {
            peer: NodeId(1),
            count: 6,
            echo: false,
            log: log_a.clone(),
        }));
        let b = sim.add_agent(Box::new(Pinger {
            peer: NodeId(0),
            count: 0,
            echo: true,
            log: log_b.clone(),
        }));
        let ab = sim.add_link(
            a,
            b,
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            Box::new(UnboundedFifo::new()),
        );
        let ba = sim.add_link(
            b,
            a,
            Bandwidth::from_mbps(1),
            SimDuration::from_millis(5),
            Box::new(UnboundedFifo::new()),
        );
        sim.set_default_route(a, ab);
        sim.set_default_route(b, ba);
        sim.set_link_loss(ab, 0.25);
        sim.schedule_start(a, SimTime::ZERO);
        sim.schedule_start(b, SimTime::ZERO);
        (sim, log_a, log_b)
    }

    /// Everything observable from one fixed-topology run: per-node
    /// delivery logs, total event count, and per-link drop counters.
    type CaseObservables = (Vec<(SimTime, u16)>, Vec<(SimTime, u16)>, u64, Vec<u64>);

    /// Run the fixed topology and capture everything observable.
    fn run_case(plan: Option<&ShardPlan>) -> CaseObservables {
        let (mut sim, log_a, log_b) = build();
        let until = SimTime::from_secs(1);
        match plan {
            Some(p) => {
                sim.run_until_sharded(until, p).expect("sharded run");
            }
            None => {
                sim.run_until(until);
            }
        }
        let transmitted = (0..sim.link_count())
            .map(|i| sim.link_stats(LinkId(i as u32)).transmitted_pkts)
            .collect();
        let events = sim.events_processed();
        drop(sim);
        let unwrap = |log: Log| {
            Arc::try_unwrap(log)
                .expect("sole owner after drop")
                .into_inner()
                .unwrap()
        };
        (unwrap(log_a), unwrap(log_b), events, transmitted)
    }

    #[test]
    fn two_shards_match_serial() {
        let serial = run_case(None);
        let sharded = run_case(Some(&ShardPlan::new(2, vec![0, 1])));
        assert_eq!(serial, sharded);
        // Sanity: traffic actually crossed the cut in both directions.
        assert!(!sharded.0.is_empty() && !sharded.1.is_empty());
    }

    #[test]
    fn one_shard_plan_matches_serial() {
        let serial = run_case(None);
        let sharded = run_case(Some(&ShardPlan::new(1, vec![0, 0])));
        assert_eq!(serial, sharded);
    }

    #[test]
    fn second_run_is_rejected() {
        let (mut sim, _la, _lb) = build();
        sim.run_until(SimTime::from_millis(1));
        let plan = ShardPlan::new(2, vec![0, 1]);
        assert_eq!(
            sim.run_until_sharded(SimTime::from_secs(1), &plan),
            Err(ShardError::AlreadyRun)
        );
    }

    #[test]
    fn zero_delay_cut_is_rejected() {
        let (mut sim, _la, _lb) = build();
        sim.set_link_delay(LinkId(0), SimDuration::ZERO);
        let plan = ShardPlan::new(2, vec![0, 1]);
        assert_eq!(
            sim.run_until_sharded(SimTime::from_secs(1), &plan),
            Err(ShardError::ZeroDelayCut(LinkId(0)))
        );
    }

    #[test]
    fn bad_assignments_are_rejected() {
        let (mut sim, _la, _lb) = build();
        let short = ShardPlan::new(2, vec![0]);
        assert!(matches!(
            sim.run_until_sharded(SimTime::from_secs(1), &short),
            Err(ShardError::BadAssignment(_))
        ));
        let oob = ShardPlan::new(2, vec![0, 5]);
        assert!(matches!(
            sim.run_until_sharded(SimTime::from_secs(1), &oob),
            Err(ShardError::BadAssignment(_))
        ));
    }

    #[test]
    fn non_local_route_is_rejected() {
        let (mut sim, _la, _lb) = build();
        // Point b's default route at the a→b link, which shard 0 owns.
        sim.set_default_route(NodeId(1), LinkId(0));
        let plan = ShardPlan::new(2, vec![0, 1]);
        assert_eq!(
            sim.run_until_sharded(SimTime::from_secs(1), &plan),
            Err(ShardError::NonLocalRoute {
                node: NodeId(1),
                link: LinkId(0),
            })
        );
    }

    #[test]
    fn unforkable_monitor_is_rejected() {
        struct NoFork;
        impl LinkMonitor for NoFork {}
        let (mut sim, _la, _lb) = build();
        sim.add_monitor(Box::new(NoFork));
        let plan = ShardPlan::new(2, vec![0, 1]);
        assert_eq!(
            sim.run_until_sharded(SimTime::from_secs(1), &plan),
            Err(ShardError::UnshardableMonitor(0))
        );
    }

    #[test]
    fn sharded_event_recorder_merges_to_serial_order() {
        use crate::monitor::EventRecorder;
        let run = |plan: Option<&ShardPlan>| {
            let (mut sim, _la, _lb) = build();
            let id = sim.add_monitor(Box::new(EventRecorder::default()));
            match plan {
                Some(p) => {
                    sim.run_until_sharded(SimTime::from_secs(1), p).unwrap();
                }
                None => {
                    sim.run_until(SimTime::from_secs(1));
                }
            }
            // Packet ids are namespaced per shard, so compare the
            // id-free view (time, link, kind), canonically sorted on
            // both sides.
            let mut view = sim
                .monitor::<EventRecorder>(id)
                .unwrap()
                .events
                .iter()
                .map(|e| (e.at, e.link, e.kind))
                .collect::<Vec<_>>();
            view.sort_by_key(|&(at, link, kind)| {
                (
                    at,
                    link.0,
                    match kind {
                        crate::monitor::RecordedKind::Enqueue => 0u8,
                        crate::monitor::RecordedKind::Drop => 1,
                        crate::monitor::RecordedKind::Transmit => 2,
                    },
                )
            });
            view
        };
        let serial = run(None);
        let sharded = run(Some(&ShardPlan::new(2, vec![0, 1])));
        assert_eq!(serial, sharded);
    }
}
