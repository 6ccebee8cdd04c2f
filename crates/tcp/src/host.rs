//! Host agents: the glue between TCP state machines and whatever drives
//! them (the simulator or the real-time testbed, through [`HostEnv`]).
//!
//! A [`ServerHost`] listens on a port and serves one [`TcpSender`] per
//! incoming connection, with the object size taken from the SYN's `meta`
//! field (standing in for an HTTP GET). A [`ClientHost`] models one user:
//! it holds a queue of requested objects and keeps up to `max_parallel`
//! connections open at once — exactly the "web session pool" behaviour
//! the paper studies (browsers opening ~4 connections and requesting
//! objects as soon as possible). SYNs that get no answer are retried
//! with exponential backoff, which is also how clients behave under
//! TAQ's admission control (rejected SYNs are retried until admitted,
//! with the waiting time charged to the download).
//!
//! Both hosts record [`FlowRecord`]s into a shared [`FlowLog`] the
//! experiment harness reads after the run.

use crate::config::TcpConfig;
use crate::inline_vec::InlineVec;
use crate::io::{TcpIo, TimerKind};
use crate::receiver::TcpReceiver;
use crate::sender::TcpSender;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use taq_sim::{
    Agent, Ctx, FlowKey, FxBuildHasher, NodeId, Packet, PacketBuilder, SimDuration, SimTime,
    TcpFlags, TimerId,
};

/// Initial timeout for an unanswered connection request (SYN), before
/// any RTT estimate exists (RFC 6298 §2.1's 1 s initial RTO).
pub(crate) const SYN_RETRY_INITIAL: SimDuration = SimDuration::from_secs(1);

/// Cap on the SYN retry backoff, and on the wait a rejection notice's
/// hint can impose. The hint is header data, so it is clamped rather
/// than trusted: the paper asks that `Twait` be "less than the TCP SYN
/// connection timeout", so no honest hint exceeds this cap.
pub(crate) const SYN_RETRY_MAX: SimDuration = SimDuration::from_secs(8);

/// Completion record for one requested object.
///
/// `PartialEq` so determinism tests can compare whole record sets
/// byte-for-byte between serial and sweep-pool runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Which client host downloaded it.
    pub client: NodeId,
    /// Client-side port of the connection that carried it.
    pub client_port: u16,
    /// Caller-assigned tag (e.g. workload object id).
    pub tag: u64,
    /// Requested object size in bytes.
    pub bytes: u64,
    /// When the request entered the client's queue.
    pub queued_at: SimTime,
    /// When the first SYN for it left the client.
    pub first_syn_at: SimTime,
    /// When the connection was established (SYN-ACK received).
    pub established_at: Option<SimTime>,
    /// When the last byte (and FIN) arrived; `None` if unfinished at the
    /// end of the run.
    pub completed_at: Option<SimTime>,
    /// Number of SYN retransmissions before establishment.
    pub syn_retries: u32,
}

impl FlowRecord {
    /// Download time as the paper measures it for admission-control
    /// experiments: queue entry (which equals first attempt for
    /// non-backlogged clients) to completion, *including* any admission
    /// wait.
    pub fn download_time(&self) -> Option<SimDuration> {
        self.completed_at
            .map(|c| c.saturating_since(self.queued_at))
    }
}

/// Shared log of flow records, filled during a run.
#[derive(Debug, Default)]
pub struct FlowLog {
    /// Completed and in-progress records (in-progress have
    /// `completed_at = None` and are pushed at the end of a run via
    /// [`ClientHost::flush_incomplete`]).
    pub records: Vec<FlowRecord>,
}

/// Shared handle to a [`FlowLog`]: every client host in a scenario
/// appends to the same log, preserving global completion order, and the
/// harness keeps a clone to read afterwards. `Arc<Mutex<…>>` (not
/// `Rc<RefCell<…>>`) so hosts — and with them a whole populated
/// simulator — are `Send`; each run is still single-threaded, so the
/// lock is uncontended.
pub type SharedFlowLog = Arc<Mutex<FlowLog>>;

/// Creates an empty shared flow log.
pub fn new_flow_log() -> SharedFlowLog {
    Arc::new(Mutex::new(FlowLog::default()))
}

/// Application-protocol encoding carried in [`Packet::meta`]
/// (`taq_sim::Packet::meta`): the low 62 bits are a byte count; the
/// PERSIST bit marks a connection as persistent (HTTP/1.1 keep-alive);
/// the CLOSE sentinel asks the server to finish a persistent
/// connection.
pub mod wire_meta {
    /// Marks a SYN (or follow-up request) as belonging to a persistent
    /// connection.
    pub const PERSIST: u64 = 1 << 63;
    /// Pure-ACK request asking the server to send a FIN.
    pub const CLOSE: u64 = 1 << 62;
    /// Extracts the byte count.
    pub const fn bytes(meta: u64) -> u64 {
        meta & !(PERSIST | CLOSE)
    }
}

// ---------------------------------------------------------------------
// Timer-token encoding shared by both hosts: token = slot * 8 + kind.
// ---------------------------------------------------------------------

fn encode_token(slot: usize, kind: TimerKind) -> u64 {
    (slot as u64) * 8 + kind.code()
}

fn decode_token(token: u64) -> (usize, Option<TimerKind>) {
    ((token / 8) as usize, TimerKind::from_code(token % 8))
}

/// What a host agent needs from whatever drives it: the clock, its own
/// address, a way to put a packet on the wire, and cancellable timers
/// that come back as `on_timer(token)`. The simulator's [`Ctx`] is one
/// environment; the real-time testbed supplies a wall-clock one, so
/// both harnesses run these hosts and not a copy of them.
pub trait HostEnv {
    /// Current time; must not move during one host callback.
    fn now(&self) -> SimTime;

    /// The node the host runs on.
    fn node(&self) -> NodeId;

    /// Sends a freshly created packet toward `dst`.
    fn send(&mut self, dst: NodeId, pkt: Packet);

    /// Schedules the host's `on_timer(token)` after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId;

    /// Cancels a pending timer.
    fn cancel_timer(&mut self, id: TimerId);
}

impl HostEnv for Ctx<'_> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn node(&self) -> NodeId {
        Ctx::node(self)
    }

    fn send(&mut self, dst: NodeId, pkt: Packet) {
        Ctx::send(self, dst, pkt);
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        Ctx::set_timer(self, delay, token)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        Ctx::cancel_timer(self, id);
    }
}

/// Adapter giving TCP state machines the [`TcpIo`] view of a
/// [`HostEnv`], with timer tokens scoped to one connection slot.
struct HostIo<'a, E> {
    env: &'a mut E,
    slot: usize,
}

impl<E: HostEnv> TcpIo for HostIo<'_, E> {
    fn now(&self) -> SimTime {
        self.env.now()
    }

    fn emit(&mut self, pkt: Packet) {
        let dst = pkt.flow.dst;
        self.env.send(dst, pkt);
    }

    fn set_timer(&mut self, delay: SimDuration, kind: TimerKind) -> TimerId {
        self.env.set_timer(delay, encode_token(self.slot, kind))
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.env.cancel_timer(id);
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A server host: accepts connections on `listen_port` and serves the
/// number of bytes named in each SYN's `meta` field.
pub struct ServerHost {
    cfg: TcpConfig,
    listen_port: u16,
    /// One sender per live connection; its flow names the peer.
    conns: Vec<Option<TcpSender>>,
    /// Connection slot by peer; looked up per packet, never iterated.
    by_peer: HashMap<(NodeId, u16), usize, FxBuildHasher>,
    free: Vec<usize>,
    /// Served when a SYN carries `meta == 0`.
    pub default_object: u64,
    /// Total connections accepted (for tests/metrics).
    pub accepted: u64,
    /// Pipelined requests refused because their connection had already
    /// sent its FIN: a peer that asked for more after asking to close.
    /// Counted and dropped; the object cannot grow past its FIN.
    pub late_requests: u64,
}

impl ServerHost {
    /// Creates a server listening on `listen_port`.
    pub fn new(cfg: TcpConfig, listen_port: u16) -> Self {
        ServerHost {
            cfg,
            listen_port,
            conns: Vec::new(),
            by_peer: HashMap::default(),
            free: Vec::new(),
            default_object: 0,
            accepted: 0,
            late_requests: 0,
        }
    }

    fn alloc_slot(&mut self, sender: TcpSender) -> usize {
        if let Some(slot) = self.free.pop() {
            self.conns[slot] = Some(sender);
            slot
        } else {
            self.conns.push(Some(sender));
            self.conns.len() - 1
        }
    }

    fn release_if_closed(&mut self, slot: usize) {
        if let Some(sender) = self.conns[slot].take_if(|s| s.is_closed()) {
            let peer = sender.flow();
            self.by_peer.remove(&(peer.dst, peer.dst_port));
            self.free.push(slot);
        }
    }

    /// Number of live (not yet closed) connections.
    pub fn live_connections(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Aggregated sender statistics across live connections.
    pub fn aggregate_stats(&self) -> crate::sender::SenderStats {
        let mut agg = crate::sender::SenderStats::default();
        for sender in self.conns.iter().flatten() {
            let s = &sender.stats;
            agg.segments_sent += s.segments_sent;
            agg.retransmits += s.retransmits;
            agg.timeouts += s.timeouts;
            agg.fast_retransmits += s.fast_retransmits;
            agg.max_backoff = agg.max_backoff.max(s.max_backoff);
        }
        agg
    }
}

impl ServerHost {
    /// Handles a packet delivered to this host.
    pub fn on_packet<E: HostEnv>(&mut self, pkt: Packet, env: &mut E) {
        if pkt.flow.dst_port != self.listen_port {
            return;
        }
        let peer = (pkt.flow.src, pkt.flow.src_port);
        if pkt.flags.syn && !pkt.flags.ack {
            let slot = match self.by_peer.get(&peer) {
                Some(&slot) => slot,
                None => {
                    let object = if wire_meta::bytes(pkt.meta) == 0 {
                        self.default_object
                    } else {
                        wire_meta::bytes(pkt.meta)
                    };
                    let mut sender = TcpSender::new(self.cfg.clone(), pkt.flow.reversed(), object);
                    if pkt.meta & wire_meta::PERSIST != 0 {
                        sender = sender.persistent();
                    }
                    let slot = self.alloc_slot(sender);
                    self.by_peer.insert(peer, slot);
                    self.accepted += 1;
                    slot
                }
            };
            let mut io = HostIo { env, slot };
            if let Some(sender) = self.conns[slot].as_mut() {
                sender.on_syn(&pkt, &mut io);
            }
            return;
        }
        let Some(&slot) = self.by_peer.get(&peer) else {
            return; // ACK for a connection we already closed.
        };
        let mut io = HostIo { env, slot };
        if let Some(sender) = self.conns[slot].as_mut() {
            sender.on_packet(&pkt, &mut io);
            // Pipelined application requests ride on ACK packets.
            if pkt.meta & wire_meta::CLOSE != 0 {
                sender.app_close(&mut io);
            } else if pkt.meta & wire_meta::PERSIST != 0 && wire_meta::bytes(pkt.meta) > 0 {
                if sender.fin_sent() {
                    self.late_requests += 1;
                } else {
                    sender.send_more(wire_meta::bytes(pkt.meta), &mut io);
                }
            }
        }
        self.release_if_closed(slot);
    }

    /// Handles a timer this host set through [`HostEnv::set_timer`].
    pub fn on_timer<E: HostEnv>(&mut self, token: u64, env: &mut E) {
        let (slot, Some(kind)) = decode_token(token) else {
            return;
        };
        let Some(Some(sender)) = self.conns.get_mut(slot) else {
            return;
        };
        sender.on_timer(kind, &mut HostIo { env, slot });
    }
}

impl Agent for ServerHost {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        ServerHost::on_packet(self, pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        ServerHost::on_timer(self, token, ctx);
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// One object the client should fetch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Request {
    /// Caller-assigned tag (propagated into the [`FlowRecord`]).
    pub tag: u64,
    /// Object size in bytes.
    pub bytes: u64,
}

enum ConnState {
    /// SYN sent, awaiting SYN-ACK.
    Connecting { retry_timer: TimerId },
    /// Transfer in progress.
    Established(TcpReceiver),
}

/// A live connection and the object it is fetching: the fields of that
/// object's [`FlowRecord`] but the client's node, which the host keeps
/// once, and the port, which the connection already holds.
struct ClientConn {
    local_port: u16,
    /// Pipelined mode: the connection finished its current object and
    /// awaits the next request (HTTP keep-alive idle).
    idle: bool,
    /// Set when `completed_at` is.
    completed: bool,
    syn_retries: u32,
    state: ConnState,
    request: Request,
    queued_at: SimTime,
    first_syn_at: SimTime,
    /// Meaningful once the state is `Established`.
    established_at: SimTime,
    completed_at: SimTime,
    /// Pipelined mode: cumulative delivered-byte boundary at which the
    /// current object completes.
    boundary: u64,
}

// A bulk client holds one for its whole transfer.
const _: () = assert!(std::mem::size_of::<Option<ClientConn>>() <= 216);

impl ClientConn {
    fn record(&self, client: NodeId) -> FlowRecord {
        FlowRecord {
            client,
            client_port: self.local_port,
            tag: self.request.tag,
            bytes: self.request.bytes,
            queued_at: self.queued_at,
            first_syn_at: self.first_syn_at,
            established_at: matches!(self.state, ConnState::Established(_))
                .then_some(self.established_at),
            completed_at: self.completed.then_some(self.completed_at),
            syn_retries: self.syn_retries,
        }
    }
}

/// Appends `record` to the shared log. A lock poisoned by a thread that
/// panicked while holding it still guards a whole `Vec` (a push either
/// happened or did not), so the record goes in regardless.
fn append(log: &SharedFlowLog, record: FlowRecord) {
    log.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .records
        .push(record);
}

/// A client host modelling one user with a request queue and a bounded
/// pool of parallel connections.
pub struct ClientHost {
    server: NodeId,
    /// The node this host runs on, learned when it opens its first
    /// connection.
    node: NodeId,
    server_port: u16,
    next_port: u16,
    /// Below `u16::MAX` (checked in `new`).
    max_parallel: u16,
    sack: bool,
    /// `TcpConfig::delayed_ack`, all of the configuration a client's
    /// receivers read.
    delayed_ack: bool,
    /// Persistent-connection mode: requests are pipelined over
    /// keep-alive connections instead of one connection per object.
    pipelined: bool,
    /// Give up a connection attempt after this many SYN retries
    /// (`u32::MAX` = retry forever, the paper's admission-control client
    /// behaviour).
    pub max_syn_retries: u32,
    /// Requests not yet started, oldest first. A bulk client's one
    /// request waits inline, so its queue allocates nothing.
    pending: InlineVec<(SimTime, Request), 1>,
    /// Requests to enqueue at future times: `(when, request)`.
    scheduled: Vec<(SimTime, Request)>,
    /// Connection slots, found per packet by scanning for the local
    /// port (a client holds a handful). Grown one slot at a time, so
    /// the table is as long as the most connections ever held at once.
    conns: Vec<Option<ClientConn>>,
    free: Vec<usize>,
    log: SharedFlowLog,
    /// Completed objects (for quick assertions without reading the log).
    pub completed: u64,
    /// Explicit rejection notices received (middlebox admission
    /// feedback); each reschedules the connection attempt at the
    /// suggested wait instead of the exponential backoff.
    pub rejections_seen: u64,
}

// One per client node: a web client, or a bulk flow.
const _: () = assert!(std::mem::size_of::<ClientHost>() <= 152);

impl ClientHost {
    /// Creates a client fetching from `server:server_port`, holding at
    /// most `max_parallel` simultaneous connections, logging into `log`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < max_parallel < 65 535`: each live connection
    /// holds its own nonzero local port. Panics on an invalid `cfg`
    /// ([`TcpConfig::validate`]).
    pub fn new(
        cfg: TcpConfig,
        server: NodeId,
        server_port: u16,
        max_parallel: usize,
        log: SharedFlowLog,
    ) -> Self {
        assert!(max_parallel > 0, "need at least one connection slot");
        assert!(
            max_parallel < usize::from(u16::MAX),
            "each live connection needs its own nonzero local port"
        );
        cfg.validate();
        ClientHost {
            server,
            node: NodeId(0),
            server_port,
            next_port: 10_000,
            // In range: checked above.
            max_parallel: max_parallel as u16,
            sack: cfg.variant == crate::config::Variant::Sack,
            delayed_ack: cfg.delayed_ack,
            pipelined: false,
            max_syn_retries: u32::MAX,
            pending: InlineVec::default(),
            scheduled: Vec::new(),
            conns: Vec::new(),
            free: Vec::new(),
            log,
            completed: 0,
            rejections_seen: 0,
        }
    }

    /// Switches to persistent connections with pipelined requests
    /// (HTTP/1.1 keep-alive): up to `max_parallel` connections stay
    /// open, each fetching queued objects back to back. Between objects
    /// an idle connection transmits nothing — the traffic pattern TAQ's
    /// "dummy silence" state exists to recognise.
    pub fn with_pipelining(mut self) -> Self {
        self.pipelined = true;
        self
    }

    /// Queues a request to be issued as soon as a connection slot frees
    /// (at simulation start, or immediately if already running).
    pub fn push_request(&mut self, req: Request) {
        self.pending.push((SimTime::ZERO, req));
    }

    /// Schedules a request to enter the queue at time `at` (session
    /// think-time modelling). Must be called before the run starts.
    pub fn schedule_request(&mut self, at: SimTime, req: Request) {
        self.scheduled.push((at, req));
    }

    /// Number of requests not yet completed (pending + in flight).
    pub fn outstanding(&self) -> usize {
        self.pending.len()
            + self.scheduled.len()
            + self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Pushes records for unfinished transfers into the log (call once,
    /// after the run, via `Simulator::agent_mut`). An idle keep-alive
    /// connection's last object is finished and already logged.
    pub fn flush_incomplete(&mut self) {
        for conn in self.conns.iter().flatten().filter(|c| !c.completed) {
            append(&self.log, conn.record(self.node));
        }
    }

    /// The live connection holding local port `port`, and its slot.
    fn conn_on(&mut self, port: u16) -> Option<(usize, &mut ClientConn)> {
        self.conns
            .iter_mut()
            .enumerate()
            .find_map(|(slot, c)| Some((slot, c.as_mut().filter(|c| c.local_port == port)?)))
    }

    fn start_next<E: HostEnv>(&mut self, env: &mut E) {
        while self.conns.iter().flatten().count() < usize::from(self.max_parallel) {
            let Some((queued_at, req)) = self.pending.pop_front() else {
                break;
            };
            self.open(req, queued_at, env);
        }
    }

    fn open<E: HostEnv>(&mut self, req: Request, queued_at: SimTime, env: &mut E) {
        // Skip port 0 and the ports live connections hold, so the port
        // names one slot; fewer than `u16::MAX` are live, so one is free.
        let mut local_port = self.next_port;
        while local_port == 0 || self.conn_on(local_port).is_some() {
            local_port = local_port.wrapping_add(1);
        }
        self.next_port = local_port.wrapping_add(1);
        self.node = env.node();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.reserve_exact(1);
            self.conns.push(None);
            self.conns.len() - 1
        });
        let now = env.now();
        let retry_timer = env.set_timer(SYN_RETRY_INITIAL, encode_token(slot, TimerKind::SynRetry));
        self.conns[slot] = Some(ClientConn {
            local_port,
            idle: false,
            completed: false,
            syn_retries: 0,
            state: ConnState::Connecting { retry_timer },
            request: req,
            queued_at: if queued_at == SimTime::ZERO {
                now
            } else {
                queued_at
            },
            first_syn_at: now,
            established_at: now,
            completed_at: now,
            boundary: req.bytes,
        });
        self.send_syn(local_port, req.bytes, env);
    }

    /// The flow from this host's `local_port` to the server.
    fn flow_from(&self, local_port: u16) -> FlowKey {
        FlowKey {
            src: self.node,
            src_port: local_port,
            dst: self.server,
            dst_port: self.server_port,
        }
    }

    fn send_syn<E: HostEnv>(&self, local_port: u16, bytes: u64, env: &mut E) {
        let syn = PacketBuilder::new(self.flow_from(local_port))
            .seq(0)
            .flags(TcpFlags::SYN)
            .meta(if self.pipelined {
                bytes | wire_meta::PERSIST
            } else {
                bytes
            })
            .build();
        env.send(self.server, syn);
    }

    /// Pipelined mode: after new data arrives on `slot`, complete any
    /// objects whose byte boundary has been delivered and issue the next
    /// queued request on the same connection.
    fn pump_pipeline<E: HostEnv>(&mut self, slot: usize, env: &mut E) {
        let base = self.flow_from(0);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        loop {
            let ConnState::Established(receiver) = &conn.state else {
                return;
            };
            if conn.idle || receiver.delivered_bytes() < conn.boundary {
                break;
            }
            // Complete the current object exactly once (an idle
            // connection re-fed by `feed_idle_conns` re-enters here with
            // its last record already finalized).
            if !conn.completed {
                conn.completed = true;
                conn.completed_at = env.now();
                self.completed += 1;
                append(&self.log, conn.record(self.node));
            }
            let Some((queued_at, req)) = self.pending.pop_front() else {
                conn.idle = true;
                continue;
            };
            let now = env.now();
            conn.request = req;
            conn.queued_at = if queued_at == SimTime::ZERO {
                now
            } else {
                queued_at
            };
            conn.first_syn_at = now;
            conn.established_at = now;
            conn.completed = false;
            conn.syn_retries = 0;
            conn.boundary += req.bytes;
            let flow = FlowKey {
                src_port: conn.local_port,
                ..base
            };
            let request = PacketBuilder::new(flow)
                .seq(1)
                .ack(0)
                .meta(req.bytes | wire_meta::PERSIST)
                .build();
            env.send(self.server, request);
        }
    }

    /// Pipelined mode: hand newly queued requests to idle keep-alive
    /// connections before opening fresh ones.
    fn feed_idle_conns<E: HostEnv>(&mut self, env: &mut E) {
        for slot in 0..self.conns.len() {
            if self.pending.is_empty() {
                return;
            }
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if !conn.idle {
                continue;
            }
            conn.idle = false;
            // Re-enter the pump with a zero-length "virtual" completion:
            // the boundary is already met, so pump issues the request.
            self.pump_pipeline(slot, env);
        }
    }

    /// Frees `slot`, logging its object with `completed_at` (`None`
    /// for an abandoned attempt), and starts what the queue holds next.
    fn close_slot<E: HostEnv>(&mut self, slot: usize, completed_at: Option<SimTime>, env: &mut E) {
        if let Some(mut conn) = self.conns[slot].take() {
            self.free.push(slot);
            if let Some(at) = completed_at {
                conn.completed = true;
                conn.completed_at = at;
            }
            append(&self.log, conn.record(self.node));
        }
        self.start_next(env);
    }
}

impl ClientHost {
    /// Arms the scheduled requests and opens the first connections.
    pub fn on_start<E: HostEnv>(&mut self, env: &mut E) {
        let now = env.now();
        // One timer per scheduled request, in schedule order; token
        // slots above any realistic connection count mark them as
        // schedule entries, with odd kind-code 7, unused by TimerKind.
        for (i, &(at, _)) in self.scheduled.iter().enumerate() {
            env.set_timer(at.saturating_since(now), (i as u64) * 8 + 7);
        }
        // Requests already due join the queue behind the pushed ones;
        // the rest wait for their timers.
        let pending = &mut self.pending;
        self.scheduled.retain(|&(at, req)| {
            if at > now {
                return true;
            }
            pending.push((at, req));
            false
        });
        self.start_next(env);
    }

    /// Handles a packet delivered to this host.
    pub fn on_packet<E: HostEnv>(&mut self, pkt: Packet, env: &mut E) {
        let (sack, delayed_ack, pipelined) = (self.sack, self.delayed_ack, self.pipelined);
        let ack_flow = self.flow_from(pkt.flow.dst_port);
        let Some((slot, conn)) = self.conn_on(pkt.flow.dst_port) else {
            return; // Late packet for a finished connection.
        };
        if let ConnState::Connecting { retry_timer } = conn.state {
            if pkt.flags.rst {
                // Explicit admission rejection with a wait-time hint
                // (milliseconds in `meta`): retry exactly then, keeping
                // the attempt alive as the paper's feedback scheme does.
                env.cancel_timer(retry_timer);
                let wait = SimDuration::from_millis(pkt.meta.clamp(1, SYN_RETRY_MAX.as_millis()));
                let retry_timer = env.set_timer(wait, encode_token(slot, TimerKind::SynRetry));
                conn.state = ConnState::Connecting { retry_timer };
                self.rejections_seen += 1;
                return;
            }
            if !(pkt.flags.syn && pkt.flags.ack) {
                return; // Data before SYN-ACK: drop (no reassembly yet).
            }
            env.cancel_timer(retry_timer);
            conn.established_at = env.now();
            conn.state =
                ConnState::Established(TcpReceiver::with_delayed_ack(delayed_ack, ack_flow, sack));
        }
        let ConnState::Established(receiver) = &mut conn.state else {
            return; // Invariant: unreachable, the state was set just above.
        };
        receiver.on_packet(&pkt, &mut HostIo { env, slot });
        if pipelined {
            self.pump_pipeline(slot, env);
        } else if let Some(at) = receiver.complete_at() {
            self.completed += 1;
            self.close_slot(slot, Some(at), env);
        }
    }

    /// Handles a timer this host set through [`HostEnv::set_timer`].
    pub fn on_timer<E: HostEnv>(&mut self, token: u64, env: &mut E) {
        if token % 8 == 7 {
            // A scheduled request's time has come.
            let now = env.now();
            let pending = &mut self.pending;
            self.scheduled.retain(|&(at, req)| {
                if at > now {
                    return true;
                }
                pending.push((now, req));
                false
            });
            if self.pipelined {
                // Prefer reusing idle keep-alive connections.
                self.feed_idle_conns(env);
            }
            self.start_next(env);
            return;
        }
        let (slot, Some(kind)) = decode_token(token) else {
            return;
        };
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        match (kind, &mut conn.state) {
            (TimerKind::SynRetry, ConnState::Connecting { .. }) => {
                if conn.syn_retries >= self.max_syn_retries {
                    // Abandon: log as never-completed.
                    self.close_slot(slot, None, env);
                    return;
                }
                conn.syn_retries += 1;
                // Exponential backoff on connection attempts.
                let delay =
                    (SYN_RETRY_INITIAL * (1u64 << conn.syn_retries.min(8))).min(SYN_RETRY_MAX);
                let retry_timer = env.set_timer(delay, encode_token(slot, TimerKind::SynRetry));
                conn.state = ConnState::Connecting { retry_timer };
                let (port, bytes) = (conn.local_port, conn.request.bytes);
                self.send_syn(port, bytes, env);
            }
            (TimerKind::DelayedAck, ConnState::Established(receiver)) => {
                receiver.on_timer(kind, &mut HostIo { env, slot });
            }
            // Established while a SYN retry was in flight, a delayed ACK
            // for an attempt, or a sender-side RTO: clients run none.
            _ => {}
        }
    }
}

impl Agent for ClientHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ClientHost::on_start(self, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        ClientHost::on_packet(self, pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        ClientHost::on_timer(self, token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_encoding_roundtrips() {
        for slot in [0usize, 1, 7, 100, 4096] {
            for kind in [TimerKind::Rto, TimerKind::DelayedAck, TimerKind::SynRetry] {
                let (s, k) = decode_token(encode_token(slot, kind));
                assert_eq!(s, slot);
                assert_eq!(k, Some(kind));
            }
        }
    }

    #[test]
    fn schedule_token_never_collides_with_timer_kinds() {
        // Kind codes are 0..=2; schedule entries use residue 7.
        for i in 0..100u64 {
            let token = i * 8 + 7;
            let (_, kind) = decode_token(token);
            assert_eq!(kind, None);
        }
    }

    #[test]
    fn flow_record_download_time() {
        let r = FlowRecord {
            client: NodeId(1),
            client_port: 10_000,
            tag: 0,
            bytes: 1000,
            queued_at: SimTime::from_secs(10),
            first_syn_at: SimTime::from_secs(10),
            established_at: Some(SimTime::from_secs(11)),
            completed_at: Some(SimTime::from_secs(14)),
            syn_retries: 2,
        };
        assert_eq!(r.download_time(), Some(SimDuration::from_secs(4)));
        let unfinished = FlowRecord {
            completed_at: None,
            ..r
        };
        assert_eq!(unfinished.download_time(), None);
    }

    /// A scripted [`HostEnv`] — manual clock, outbox, timer list: the
    /// [`crate::MockIo`] pattern one level up.
    struct ScriptEnv {
        now: SimTime,
        node: NodeId,
        sent: Vec<Packet>,
        timers: Vec<(TimerId, SimTime, u64)>,
        next_timer: u32,
    }

    impl HostEnv for ScriptEnv {
        fn now(&self) -> SimTime {
            self.now
        }

        fn node(&self) -> NodeId {
            self.node
        }

        fn send(&mut self, _dst: NodeId, mut pkt: Packet) {
            pkt.sent_at = self.now;
            self.sent.push(pkt);
        }

        fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
            let id = TimerId::synthetic(self.next_timer);
            self.next_timer += 1;
            self.timers.push((id, self.now + delay, token));
            id
        }

        fn cancel_timer(&mut self, id: TimerId) {
            self.timers.retain(|(t, _, _)| *t != id);
        }
    }

    const SERVER: NodeId = NodeId(0);
    const CLIENT: NodeId = NodeId(1);
    const DELAY: SimDuration = SimDuration::from_millis(50);

    /// What the scripted wire does with a packet.
    enum Fate {
        Deliver,
        Drop,
        /// Answer the sender with a rejection notice hinting this wait.
        Reject(u64),
    }

    /// A client and a server on a wire of one-way delay [`DELAY`], with
    /// no simulator and no threads: the events are the two timer lists
    /// and the packets in flight, earliest first, a timer before an
    /// arrival at the same instant (the simulator's order).
    struct Pair {
        client: ClientHost,
        server: ServerHost,
        envs: [ScriptEnv; 2],
        wire: Vec<(SimTime, Packet)>,
        /// When each SYN left the client.
        syns: Vec<SimTime>,
    }

    impl Pair {
        fn new(client: ClientHost) -> Pair {
            let env = |node| ScriptEnv {
                now: SimTime::ZERO,
                node,
                sent: Vec::new(),
                timers: Vec::new(),
                next_timer: 0,
            };
            Pair {
                client,
                server: ServerHost::new(TcpConfig::default(), 80),
                envs: [env(SERVER), env(CLIENT)],
                wire: Vec::new(),
                syns: Vec::new(),
            }
        }

        fn run(&mut self, until: SimTime, mut fate: impl FnMut(&Packet) -> Fate) {
            self.client.on_start(&mut self.envs[1]);
            loop {
                for env in &mut self.envs {
                    for pkt in env.sent.drain(..) {
                        if pkt.flags.syn && !pkt.flags.ack {
                            self.syns.push(pkt.sent_at);
                        }
                        match fate(&pkt) {
                            Fate::Deliver => self.wire.push((pkt.sent_at + DELAY, pkt)),
                            Fate::Drop => {}
                            Fate::Reject(ms) => {
                                let rst = PacketBuilder::new(pkt.flow.reversed())
                                    .flags(TcpFlags::RST)
                                    .meta(ms)
                                    .build();
                                self.wire.push((pkt.sent_at + DELAY, rst));
                            }
                        }
                    }
                }
                // Earliest event, as (time, 0 timer | 1 arrival, host, index):
                // ties go to timers, then the lower node, then the older entry.
                let timers = self.envs.iter().enumerate().flat_map(|(h, env)| {
                    let entries = env.timers.iter().enumerate();
                    entries.map(move |(i, t)| (t.1, 0, h, i))
                });
                let arrivals = self.wire.iter().enumerate().map(|(i, w)| (w.0, 1, 0, i));
                let Some((at, kind, h, i)) = timers.chain(arrivals).min().filter(|e| e.0 <= until)
                else {
                    return;
                };
                if kind == 0 {
                    let (_, _, token) = self.envs[h].timers.remove(i);
                    self.envs[h].now = at;
                    if h == 0 {
                        self.server.on_timer(token, &mut self.envs[0]);
                    } else {
                        self.client.on_timer(token, &mut self.envs[1]);
                    }
                } else {
                    let (_, pkt) = self.wire.remove(i);
                    if pkt.flow.dst == SERVER {
                        self.envs[0].now = at;
                        self.server.on_packet(pkt, &mut self.envs[0]);
                    } else {
                        self.envs[1].now = at;
                        self.client.on_packet(pkt, &mut self.envs[1]);
                    }
                }
            }
        }
    }

    fn client(max_parallel: usize, log: &SharedFlowLog) -> ClientHost {
        ClientHost::new(TcpConfig::default(), SERVER, 80, max_parallel, log.clone())
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn lost_syns_back_off_and_a_rejection_notice_sets_the_next_retry() {
        let log = new_flow_log();
        let mut c = client(1, &log);
        c.push_request(Request {
            tag: 7,
            bytes: 5_000,
        });
        let mut pair = Pair::new(c);
        let mut syns = 0;
        pair.run(SimTime::from_secs(60), |pkt| {
            if !pkt.flags.syn || pkt.flags.ack {
                return Fate::Deliver;
            }
            syns += 1;
            match syns {
                1..=3 => Fate::Drop,
                4 => Fate::Reject(2_500),
                _ => Fate::Deliver,
            }
        });
        // Blind backoff 1 s, 2 s, 4 s; the notice for the fourth SYN
        // arrives one wire delay later and moves the fifth to its hint.
        assert_eq!(
            pair.syns,
            [0, 1_000, 3_000, 7_000, 7_000 + 50 + 2_500].map(at_ms)
        );
        assert_eq!(pair.client.rejections_seen, 1);
        assert_eq!(pair.client.completed, 1);
        let r = &log.lock().unwrap().records[0];
        assert_eq!((r.tag, r.syn_retries), (7, 4));
        assert_eq!(r.established_at, Some(at_ms(9_550 + 100)));
        assert_eq!(
            (pair.server.accepted, pair.server.live_connections()),
            (1, 0)
        );
    }

    /// A notice's hint is header data: one too large for the clock
    /// (milliseconds that overflow nanoseconds) waits the cap instead.
    /// A pipelined request that arrives after the client asked to close
    /// and the server sent its FIN cannot grow the object: the server
    /// counts and drops it instead of failing `send_more`'s check.
    #[test]
    fn a_request_after_the_fin_is_counted_and_dropped() {
        let mut env = ScriptEnv {
            now: SimTime::ZERO,
            node: SERVER,
            sent: Vec::new(),
            timers: Vec::new(),
            next_timer: 0,
        };
        let mut server = ServerHost::new(TcpConfig::default(), 80);
        let flow = FlowKey {
            src: CLIENT,
            src_port: 10_000,
            dst: SERVER,
            dst_port: 80,
        };
        let meta = |m| PacketBuilder::new(flow).seq(1).ack(1).meta(m).build();
        let syn = PacketBuilder::new(flow)
            .seq(0)
            .flags(TcpFlags::SYN)
            .meta(100 | wire_meta::PERSIST)
            .build();
        server.on_packet(syn, &mut env);
        // The handshake ACK carries the close: the 100 bytes and the FIN
        // go out together.
        server.on_packet(meta(wire_meta::CLOSE), &mut env);
        assert!(env.sent.iter().any(|p| p.flags.fin), "FIN sent");
        server.on_packet(meta(50 | wire_meta::PERSIST), &mut env);
        assert_eq!(server.late_requests, 1);
        assert_eq!(
            server.live_connections(),
            1,
            "still waiting for the FIN's ACK"
        );
    }

    #[test]
    fn an_oversized_rejection_hint_waits_the_cap() {
        let log = new_flow_log();
        let mut c = client(1, &log);
        c.push_request(Request {
            tag: 1,
            bytes: 5_000,
        });
        let mut pair = Pair::new(c);
        let mut syns = 0;
        pair.run(SimTime::from_secs(60), |pkt| {
            if !pkt.flags.syn || pkt.flags.ack {
                return Fate::Deliver;
            }
            syns += 1;
            match syns {
                1 => Fate::Reject(u64::MAX),
                _ => Fate::Deliver,
            }
        });
        let notice_at = at_ms(50);
        assert_eq!(pair.syns, [SimTime::ZERO, notice_at + SYN_RETRY_MAX]);
        assert_eq!(pair.client.completed, 1);
    }

    #[test]
    fn max_syn_retries_abandons_the_attempt() {
        let log = new_flow_log();
        let mut c = client(1, &log);
        c.max_syn_retries = 2;
        c.push_request(Request {
            tag: 1,
            bytes: 5_000,
        });
        let mut pair = Pair::new(c);
        pair.run(SimTime::from_secs(60), |_| Fate::Drop);
        assert_eq!(pair.syns, [0, 1_000, 3_000].map(at_ms));
        assert_eq!(pair.client.outstanding(), 0);
        assert!(pair.envs[1].timers.is_empty(), "no retry left armed");
        let r = &log.lock().unwrap().records[0];
        assert_eq!(
            (r.syn_retries, r.established_at, r.completed_at),
            (2, None, None)
        );
    }

    /// Port reuse: with `next_port` wound back onto a live connection's
    /// port (what 65 536 opens do), the next open skips that port, and
    /// port 0; both transfers then complete, each on its own receiver.
    #[test]
    fn live_connections_never_share_a_local_port() {
        let log = new_flow_log();
        let mut c = client(3, &log);
        c.push_request(Request {
            tag: 1,
            bytes: 20_000,
        });
        let mut pair = Pair::new(c);
        pair.client.on_start(&mut pair.envs[1]);
        let ports = |c: &ClientHost| {
            c.conns
                .iter()
                .flatten()
                .map(|c| c.local_port)
                .collect::<Vec<_>>()
        };
        let [first] = ports(&pair.client)[..] else {
            panic!("one connection open");
        };
        for (tag, next_port, bytes) in [(2, first, 35_000), (3, 0, 9_000)] {
            pair.client.next_port = next_port;
            pair.client.push_request(Request { tag, bytes });
            pair.client.start_next(&mut pair.envs[1]);
        }
        assert_eq!(ports(&pair.client), [first, first + 1, 1]);

        pair.run(SimTime::from_secs(60), |_| Fate::Deliver);
        assert_eq!(pair.server.accepted, 3);
        assert_eq!(pair.client.completed, 3);
        let mut records = log.lock().unwrap().records.clone();
        records.sort_by_key(|r| r.tag);
        let got: Vec<_> = records
            .iter()
            .map(|r| (r.tag, r.client_port, r.bytes, r.completed_at.is_some()))
            .collect();
        assert_eq!(
            got,
            [
                (1, first, 20_000, true),
                (2, first + 1, 35_000, true),
                (3, 1, 9_000, true)
            ]
        );
    }

    /// A keep-alive connection left idle at the end of a run has logged
    /// its last object when it finished: the flush adds nothing.
    #[test]
    fn flushing_an_idle_pipelined_connection_logs_nothing_twice() {
        let log = new_flow_log();
        let mut c = client(1, &log).with_pipelining();
        for tag in [1, 2] {
            c.push_request(Request { tag, bytes: 8_000 });
        }
        let mut pair = Pair::new(c);
        pair.run(SimTime::from_secs(60), |_| Fate::Deliver);
        pair.client.flush_incomplete();
        let records = log.lock().unwrap().records.clone();
        assert_eq!(
            records
                .iter()
                .map(|r| (r.tag, r.completed_at.is_some()))
                .collect::<Vec<_>>(),
            [(1, true), (2, true)]
        );
    }

    /// Two queued objects ride one keep-alive connection back to back, a
    /// third scheduled for t = 5 s enters at that instant and reuses the
    /// idle connection — and the same script through the simulator, on
    /// a lossless link of the same delay, logs the same records.
    #[test]
    fn scheduled_pipelined_script_logs_what_the_simulator_logs() {
        let script = |log: &SharedFlowLog| {
            let mut c = client(1, log).with_pipelining();
            for (tag, bytes) in [(1, 30_000), (2, 8_000)] {
                c.push_request(Request { tag, bytes });
            }
            c.schedule_request(
                SimTime::from_secs(5),
                Request {
                    tag: 3,
                    bytes: 12_000,
                },
            );
            c
        };
        let horizon = SimTime::from_secs(20);

        let scripted = new_flow_log();
        let mut pair = Pair::new(script(&scripted));
        pair.run(horizon, |_| Fate::Deliver);
        let scripted = std::mem::take(&mut scripted.lock().unwrap().records);
        assert_eq!(
            pair.syns,
            [SimTime::ZERO],
            "one connection carries all three"
        );
        assert_eq!(pair.server.accepted, 1);
        assert_eq!(
            scripted.iter().map(|r| r.tag).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert!(scripted.iter().all(|r| r.completed_at.is_some()));
        assert_eq!(scripted[2].queued_at, SimTime::from_secs(5));
        assert_eq!(scripted[2].first_syn_at, SimTime::from_secs(5));

        let simulated = new_flow_log();
        let mut sim = taq_sim::Simulator::new(1);
        let server = sim.add_agent(Box::new(ServerHost::new(TcpConfig::default(), 80)));
        let client = sim.add_agent(Box::new(script(&simulated)));
        assert_eq!((server, client), (SERVER, CLIENT));
        for (from, to) in [(server, client), (client, server)] {
            // Fast enough that serialization rounds to zero: pure delay.
            let rate = taq_sim::Bandwidth::from_bps(1 << 50);
            let fifo = Box::new(taq_sim::UnboundedFifo::new());
            let link = sim.add_link(from, to, rate, DELAY, fifo);
            sim.set_default_route(from, link);
        }
        sim.schedule_start(client, SimTime::ZERO);
        sim.run_until(horizon);
        assert_eq!(scripted, simulated.lock().unwrap().records);
    }
}
