//! Multi-bottleneck scenario specs.
//!
//! [`TopologySpec`] describes an experiment over an arbitrary router
//! graph: every inter-router *pipe* (a duplex pair of links) picks its
//! own rate, delay, queueing discipline, and fault plan, so the
//! discipline under study can sit at any hop. It is plain
//! `Clone + Send` data — sweep workers clone the spec and build
//! locally — which is why disciplines are described by the
//! [`QdiscSpec`] recipe rather than boxed trait objects. Its build is
//! the only code that wraps fault layers, installs fault drivers,
//! creates the server and seeds the workload RNG, and
//! [`TopoScenario`]'s `_at` helpers are the only code that creates
//! clients.
//!
//! Three recipes sit on top: [`crate::DumbbellSpec`] (the paper's two
//! routers and one pipe), [`ParkingLotSpec`] (N bottlenecks in series
//! with per-hop cross traffic, the WiLD-relay shape) and
//! [`AccessTreeSpec`] (many slow access links feeding one shared
//! uplink, the Kerala-proxy shape).

use crate::scenario::BULK_BYTES;
use crate::weblog::LogEntry;
use taq::{SharedTaq, TaqConfig, TaqPair};
use taq_faults::{FaultDriver, FaultPlan, FaultyLink, SharedFaultStats};
use taq_queues::{DropTail, Red, RedConfig, Sfq};
use taq_sim::{
    Bandwidth, LinkId, NodeId, Qdisc, SimDuration, SimRng, SimTime, Simulator, TopoLinkConfig,
    Topology, TopologyConfig, UnboundedFifo,
};
use taq_tcp::{new_flow_log, ClientHost, Request, ServerHost, SharedFlowLog, TcpConfig};
use taq_telemetry::Telemetry;

/// A buildable description of a queueing discipline: everything
/// [`QdiscSpec::build`] needs to construct the forward/reverse pair for
/// a link of a given rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QdiscSpec {
    /// Unbounded FIFO (uncongested links).
    Fifo,
    /// Tail-drop FIFO with a packet budget.
    DropTail {
        /// Buffer size in packets.
        buffer_pkts: usize,
    },
    /// Random Early Detection (conventional parameters, 500-byte mean
    /// packet assumed).
    Red {
        /// Buffer size in packets.
        buffer_pkts: usize,
    },
    /// Stochastic Fairness Queueing over 1024 hash buckets.
    Sfq {
        /// Buffer size in packets.
        buffer_pkts: usize,
    },
    /// Timeout Aware Queuing; the reverse half observes ACKs/SYNs.
    Taq {
        /// Buffer size in packets.
        buffer_pkts: usize,
        /// Enable flow-pool admission control (paper §4.3).
        admission: bool,
        /// Ablation: plain-FQ mode.
        fq_mode: bool,
    },
}

impl QdiscSpec {
    /// TAQ with default switches.
    pub fn taq(buffer_pkts: usize) -> Self {
        QdiscSpec::Taq {
            buffer_pkts,
            admission: false,
            fq_mode: false,
        }
    }

    /// TAQ with admission control on.
    pub fn taq_admission(buffer_pkts: usize) -> Self {
        QdiscSpec::Taq {
            buffer_pkts,
            admission: true,
            fq_mode: false,
        }
    }

    /// Builds the discipline pair for a link of `rate`.
    ///
    /// `seed` feeds the disciplines that carry their own randomness
    /// (RED); callers building several pipes pass a per-pipe seed (see
    /// [`pipe_seed`]).
    pub fn build(&self, rate: Bandwidth, seed: u64) -> BuiltPipe {
        match *self {
            QdiscSpec::Fifo => BuiltPipe {
                forward: Box::new(UnboundedFifo::new()),
                reverse: Box::new(UnboundedFifo::new()),
                taq: None,
            },
            QdiscSpec::DropTail { buffer_pkts } => BuiltPipe {
                forward: Box::new(DropTail::with_packets(buffer_pkts)),
                reverse: Box::new(UnboundedFifo::new()),
                taq: None,
            },
            QdiscSpec::Red { buffer_pkts } => {
                let mean_pkt_time = 500.0 * 8.0 / rate.bps() as f64;
                BuiltPipe {
                    forward: Box::new(Red::new(
                        RedConfig::conventional(buffer_pkts, mean_pkt_time),
                        SimRng::new(seed ^ 0xDEAD),
                    )),
                    reverse: Box::new(UnboundedFifo::new()),
                    taq: None,
                }
            }
            QdiscSpec::Sfq { buffer_pkts } => BuiltPipe {
                forward: Box::new(Sfq::new(1024, buffer_pkts)),
                reverse: Box::new(UnboundedFifo::new()),
                taq: None,
            },
            QdiscSpec::Taq {
                buffer_pkts,
                admission,
                fq_mode,
            } => {
                let mut cfg = TaqConfig::for_link(rate);
                cfg.buffer_pkts = buffer_pkts;
                cfg.newflow_cap_pkts = cfg.newflow_cap_pkts.min(buffer_pkts);
                cfg.admission_control = admission;
                cfg.fq_mode = fq_mode;
                let pair = TaqPair::new(cfg);
                BuiltPipe {
                    forward: Box::new(pair.forward),
                    reverse: Box::new(pair.reverse),
                    taq: Some(pair.state),
                }
            }
        }
    }
}

/// A constructed discipline pair plus (for TAQ) the shared state.
pub struct BuiltPipe {
    /// Forward-direction queue (the congested side of the pipe).
    pub forward: Box<dyn Qdisc>,
    /// Reverse-direction queue.
    pub reverse: Box<dyn Qdisc>,
    /// TAQ state handle for post-run inspection, when applicable.
    pub taq: Option<SharedTaq>,
}

/// Derives the seed for pipe `i` of a run: pipe 0 keeps the run seed
/// unchanged (a dumbbell's disciplines are seeded by the run seed
/// itself), later pipes get decorrelated streams.
pub fn pipe_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One duplex router-to-router pipe: a forward link carrying the
/// discipline under test and a mirror reverse link for ACKs.
#[derive(Debug, Clone)]
pub struct PipeSpec {
    /// Router index on the forward link's sending side.
    pub a: usize,
    /// Router index on the forward link's receiving side.
    pub b: usize,
    /// Rate of both directions.
    pub rate: Bandwidth,
    /// One-way propagation delay of both directions.
    pub delay: SimDuration,
    /// Discipline buffering the forward (`a → b`) direction; its
    /// reverse half (TAQ) or an unbounded FIFO buffers `b → a`.
    pub qdisc: QdiscSpec,
    /// Faults injected on the forward link. Defaults to clean.
    pub faults: FaultPlan,
}

impl PipeSpec {
    /// A clean pipe `a → b`.
    pub fn new(a: usize, b: usize, rate: Bandwidth, delay: SimDuration, qdisc: QdiscSpec) -> Self {
        PipeSpec {
            a,
            b,
            rate,
            delay,
            qdisc,
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the fault plan of the forward link.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Plain, `Clone + Send` description of a multi-bottleneck experiment.
///
/// Construction order is part of the determinism contract: routers
/// first, then each pipe's forward and reverse links, then the server,
/// then fault drivers, then clients. `tests/sweep_determinism.rs` pins
/// the two-router, one-pipe case against a dumbbell wired by hand from
/// raw `Simulator` calls in that order.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// Number of routers.
    pub routers: usize,
    /// Duplex pipes between routers. Pipe `i` owns link ids `2i`
    /// (forward) and `2i + 1` (reverse) of the built topology.
    pub pipes: Vec<PipeSpec>,
    /// Router the (single, primary) server attaches to.
    pub server_router: usize,
    /// Host access-link rate.
    pub access_rate: Bandwidth,
    /// Default host access-link delay.
    pub access_delay: SimDuration,
    /// TCP stack parameters for every host.
    pub tcp: TcpConfig,
    /// Telemetry handle cloned into the fault layer.
    pub telemetry: Telemetry,
}

impl TopologySpec {
    /// A spec over `routers` routers and `pipes`, server at router 0,
    /// with the dumbbell's default access parameters.
    pub fn new(routers: usize, pipes: Vec<PipeSpec>) -> Self {
        TopologySpec {
            routers,
            pipes,
            server_router: 0,
            access_rate: Bandwidth::from_mbps(100),
            access_delay: SimDuration::from_millis(1),
            tcp: TcpConfig::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the TCP parameters.
    #[must_use]
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.tcp = tcp;
        self
    }

    /// Replaces the telemetry handle.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the scenario for `seed`, each pipe's disciplines built
    /// from its [`QdiscSpec`].
    pub fn build(&self, seed: u64) -> TopoScenario {
        let built = self
            .pipes
            .iter()
            .enumerate()
            .map(|(i, p)| p.qdisc.build(p.rate, pipe_seed(seed, i as u64)))
            .collect();
        self.build_with(seed, built)
    }

    /// Builds the scenario for `seed` around already-built disciplines,
    /// one [`BuiltPipe`] per pipe in order; the pipes' [`QdiscSpec`]s
    /// are not consulted. [`crate::DumbbellSpec`] enters here with the
    /// boxes its caller wrapped or hand-configured.
    pub(crate) fn build_with(&self, seed: u64, built: Vec<BuiltPipe>) -> TopoScenario {
        assert_eq!(built.len(), self.pipes.len(), "one built pipe per pipe");
        let mut sim = Simulator::new(seed);
        let mut links = Vec::with_capacity(self.pipes.len() * 2);
        let mut qdiscs: Vec<Box<dyn Qdisc>> = Vec::with_capacity(self.pipes.len() * 2);
        let mut taq_states = Vec::with_capacity(self.pipes.len());
        let mut pipe_faults: Vec<Option<SharedFaultStats>> = Vec::with_capacity(self.pipes.len());
        for (i, (p, built)) in self.pipes.iter().zip(built).enumerate() {
            let (fwd, stats) = self.wrap_pipe(i, p, built.forward, seed);
            links.push(TopoLinkConfig {
                from: p.a,
                to: p.b,
                rate: p.rate,
                delay: p.delay,
            });
            links.push(TopoLinkConfig {
                from: p.b,
                to: p.a,
                rate: p.rate,
                delay: p.delay,
            });
            qdiscs.push(fwd);
            qdiscs.push(built.reverse);
            taq_states.push(built.taq);
            pipe_faults.push(stats);
        }
        let config = TopologyConfig {
            routers: self.routers,
            links,
            access_rate: self.access_rate,
            access_delay: self.access_delay,
        };
        let topo = Topology::build(&mut sim, config, qdiscs);
        let server = sim.add_agent(Box::new(ServerHost::new(self.tcp.clone(), 80)));
        topo.attach_host(&mut sim, server, self.server_router);
        for (i, p) in self.pipes.iter().enumerate() {
            if let Some(stats) = &pipe_faults[i] {
                if let Some(driver) = FaultDriver::from_plan(
                    &p.faults,
                    topo.link(2 * i),
                    p.rate,
                    pipe_seed(seed, i as u64),
                    self.telemetry.clone(),
                    stats.clone(),
                ) {
                    let node = sim.add_agent(Box::new(driver));
                    sim.schedule_start(node, SimTime::ZERO);
                }
            }
        }
        // An independent workload stream derived from the scenario seed
        // (the simulator's own RNG is left untouched).
        let rng = SimRng::new(seed ^ 0x5CEA_A210).split(1);
        TopoScenario {
            sim,
            topo,
            server,
            log: new_flow_log(),
            clients: Vec::new(),
            taq_states,
            pipe_faults,
            tcp: self.tcp.clone(),
            rng,
        }
    }

    /// Wraps pipe `i`'s forward qdisc in a [`FaultyLink`] when its plan
    /// has per-packet faults, allocating the shared stats the driver
    /// half (if any) will also use.
    fn wrap_pipe(
        &self,
        i: usize,
        p: &PipeSpec,
        forward: Box<dyn Qdisc>,
        seed: u64,
    ) -> (Box<dyn Qdisc>, Option<SharedFaultStats>) {
        if p.faults.is_none() {
            return (forward, None);
        }
        let stats = taq_faults::shared_fault_stats();
        if !p.faults.has_packet_faults() {
            return (forward, Some(stats));
        }
        // Pipe i's forward link is the 2i-th link the topology creates,
        // so that is its telemetry label.
        let wrapped = FaultyLink::new(
            forward,
            &p.faults,
            (2 * i) as u32,
            pipe_seed(seed, i as u64),
            self.telemetry.clone(),
            stats.clone(),
        );
        (Box::new(wrapped), Some(stats))
    }
}

/// A constructed multi-bottleneck experiment.
pub struct TopoScenario {
    /// The simulator (run it with [`TopoScenario::run_until`]).
    pub sim: Simulator,
    /// The built topology (links, routers, routes).
    pub topo: Topology,
    /// The primary server (attached at the spec's `server_router`).
    pub server: NodeId,
    /// Completion records for every requested object.
    pub log: SharedFlowLog,
    /// Client hosts in creation order.
    pub clients: Vec<NodeId>,
    /// Per-pipe TAQ state handles (`None` for non-TAQ pipes).
    pub taq_states: Vec<Option<SharedTaq>>,
    /// Per-pipe fault counters (`None` for clean pipes).
    pub pipe_faults: Vec<Option<SharedFaultStats>>,
    tcp: TcpConfig,
    rng: SimRng,
}

impl TopoScenario {
    /// The forward link of pipe `i`.
    pub fn pipe_link(&self, i: usize) -> LinkId {
        self.topo.link(2 * i)
    }

    /// The reverse link of pipe `i`.
    pub fn pipe_reverse(&self, i: usize) -> LinkId {
        self.topo.link(2 * i + 1)
    }

    /// Pipe `i`'s TAQ state, when pipe `i` runs TAQ.
    pub fn taq_state(&self, i: usize) -> Option<&SharedTaq> {
        self.taq_states[i].as_ref()
    }

    /// Adds a secondary server host attached to `router` (cross-traffic
    /// sources in the parking-lot recipe).
    pub fn add_server(&mut self, router: usize) -> NodeId {
        let node = self
            .sim
            .add_agent(Box::new(ServerHost::new(self.tcp.clone(), 80)));
        self.topo.attach_host(&mut self.sim, node, router);
        node
    }

    /// Adds a client at `router` fetching one object of `bytes` from
    /// the primary server, starting at `start`.
    pub fn add_bulk_client_at(&mut self, router: usize, bytes: u64, start: SimTime) -> NodeId {
        self.add_bulk_client_to(self.server, router, bytes, start)
    }

    /// Adds a client at `router` fetching one object of `bytes` from
    /// `server`.
    pub fn add_bulk_client_to(
        &mut self,
        server: NodeId,
        router: usize,
        bytes: u64,
        start: SimTime,
    ) -> NodeId {
        let mut c = ClientHost::new(self.tcp.clone(), server, 80, 1, self.log.clone());
        c.push_request(Request {
            tag: self.clients.len() as u64,
            bytes,
        });
        self.spawn_at(c, router, start, None)
    }

    /// Adds `n` bulk clients at `router` with randomly jittered starts
    /// over `stagger` and a 0–10 ms draw added to each access delay.
    /// Perfectly regular starts with identical RTTs phase-lock
    /// deterministic TCP implementations (loss events synchronize and a
    /// fixed subset of flows wins forever — a simulation artifact, not
    /// a transport property), so both dimensions carry deliberate
    /// randomness, as ns2's overhead randomization does.
    pub fn add_bulk_clients_at(
        &mut self,
        router: usize,
        n: usize,
        bytes: u64,
        stagger: SimDuration,
    ) -> Vec<NodeId> {
        self.add_bulk_clients_to(self.server, router, n, bytes, stagger)
    }

    /// As [`TopoScenario::add_bulk_clients_at`], fetching from `server`.
    pub fn add_bulk_clients_to(
        &mut self,
        server: NodeId,
        router: usize,
        n: usize,
        bytes: u64,
        stagger: SimDuration,
    ) -> Vec<NodeId> {
        (0..n)
            .map(|_| {
                let offset = if n > 1 && !stagger.is_zero() {
                    SimDuration::from_nanos(self.rng.range_u64(0, stagger.as_nanos()))
                } else {
                    SimDuration::ZERO
                };
                let base = self.topo.config().access_delay;
                let jitter = SimDuration::from_micros(self.rng.range_u64(0, 10_000));
                let mut c = ClientHost::new(self.tcp.clone(), server, 80, 1, self.log.clone());
                c.push_request(Request {
                    tag: self.clients.len() as u64,
                    bytes,
                });
                self.spawn_at(c, router, SimTime::ZERO + offset, Some(base + jitter))
            })
            .collect()
    }

    /// Adds a client at `router` working through `requests` with up to
    /// `max_parallel` concurrent connections.
    pub fn add_pool_client_at(
        &mut self,
        router: usize,
        requests: Vec<Request>,
        max_parallel: usize,
        start: SimTime,
    ) -> NodeId {
        let mut c = ClientHost::new(
            self.tcp.clone(),
            self.server,
            80,
            max_parallel,
            self.log.clone(),
        );
        for r in requests {
            c.push_request(r);
        }
        self.spawn_at(c, router, start, None)
    }

    /// Adds a client at `router` with time-scheduled requests (log
    /// replay).
    pub fn add_scheduled_client_at(
        &mut self,
        router: usize,
        schedule: &[LogEntry],
        max_parallel: usize,
        base: SimTime,
    ) -> NodeId {
        let mut c = ClientHost::new(
            self.tcp.clone(),
            self.server,
            80,
            max_parallel,
            self.log.clone(),
        );
        for e in schedule {
            c.schedule_request(
                base + e.at.saturating_since(SimTime::ZERO),
                Request {
                    tag: e.tag,
                    bytes: e.bytes,
                },
            );
        }
        self.spawn_at(c, router, base, None)
    }

    fn spawn_at(
        &mut self,
        client: ClientHost,
        router: usize,
        start: SimTime,
        access_delay: Option<SimDuration>,
    ) -> NodeId {
        let node = self.sim.add_agent(Box::new(client));
        match access_delay {
            Some(d) => self
                .topo
                .attach_host_with_delay(&mut self.sim, node, router, d),
            None => self.topo.attach_host(&mut self.sim, node, router),
        }
        self.sim.schedule_start(node, start);
        self.clients.push(node);
        node
    }

    /// Runs to the horizon and flushes unfinished transfers into the
    /// log.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
        for &node in &self.clients {
            if let Some(c) = self.sim.agent_mut::<ClientHost>(node) {
                c.flush_incomplete();
            }
        }
    }
}

/// N bottlenecks in series (the "parking lot"): main flows traverse
/// every hop while each hop also carries local cross traffic that
/// enters at that hop's head router and exits one hop later. The
/// discipline under test sits at one selectable hop; every other hop
/// runs DropTail.
#[derive(Debug, Clone)]
pub struct ParkingLotSpec {
    /// Number of bottleneck links in series.
    pub hops: usize,
    /// Per-bottleneck rate.
    pub rate: Bandwidth,
    /// Per-bottleneck one-way delay.
    pub hop_delay: SimDuration,
    /// Bottleneck buffer in packets (all hops).
    pub buffer_pkts: usize,
    /// Hop carrying `qdisc`; `None` leaves every hop on DropTail.
    pub taq_hop: Option<usize>,
    /// Discipline installed at `taq_hop`.
    pub qdisc: QdiscSpec,
    /// End-to-end flows (server at router 0, clients at the last
    /// router).
    pub main_flows: usize,
    /// Single-hop cross flows entering at each hop.
    pub cross_flows_per_hop: usize,
    /// Start stagger for every flow group.
    pub stagger: SimDuration,
    /// Fault plans attached to specific hops.
    pub faults_at: Vec<(usize, FaultPlan)>,
    /// TCP stack parameters.
    pub tcp: TcpConfig,
}

impl ParkingLotSpec {
    /// A `hops`-bottleneck parking lot at `rate` with one RTT of
    /// buffering per hop and the canonical flow mix (8 main flows, 2
    /// cross flows per hop).
    pub fn new(hops: usize, rate: Bandwidth) -> Self {
        assert!(hops >= 1, "parking lot needs at least one hop");
        let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
        ParkingLotSpec {
            hops,
            rate,
            hop_delay: SimDuration::from_millis(24),
            buffer_pkts: buffer,
            taq_hop: None,
            qdisc: QdiscSpec::taq(buffer),
            main_flows: 8,
            cross_flows_per_hop: 2,
            stagger: SimDuration::from_secs(1),
            faults_at: Vec::new(),
            tcp: TcpConfig::default(),
        }
    }

    /// Places the discipline under test at `hop`.
    #[must_use]
    pub fn taq_at(mut self, hop: usize) -> Self {
        assert!(hop < self.hops, "hop {hop} out of range");
        self.taq_hop = Some(hop);
        self
    }

    /// Attaches a fault plan to `hop`'s forward link.
    #[must_use]
    pub fn faults_at(mut self, hop: usize, plan: FaultPlan) -> Self {
        assert!(hop < self.hops, "hop {hop} out of range");
        self.faults_at.push((hop, plan));
        self
    }

    /// The underlying [`TopologySpec`]: routers `0..=hops`, pipe `k`
    /// between routers `k` and `k + 1`, server at router 0.
    pub fn to_topology(&self) -> TopologySpec {
        let pipes = (0..self.hops)
            .map(|k| {
                let qdisc = if self.taq_hop == Some(k) {
                    self.qdisc.clone()
                } else {
                    QdiscSpec::DropTail {
                        buffer_pkts: self.buffer_pkts,
                    }
                };
                let mut p = PipeSpec::new(k, k + 1, self.rate, self.hop_delay, qdisc);
                for (hop, plan) in &self.faults_at {
                    if *hop == k {
                        p = p.faults(plan.clone());
                    }
                }
                p
            })
            .collect();
        TopologySpec::new(self.hops + 1, pipes).tcp(self.tcp.clone())
    }

    /// Builds the scenario and populates the flow mix: main clients at
    /// the last router, then per-hop cross servers and clients.
    pub fn build(&self, seed: u64) -> TopoScenario {
        let mut sc = self.to_topology().build(seed);
        sc.add_bulk_clients_at(self.hops, self.main_flows, BULK_BYTES, self.stagger);
        for k in 0..self.hops {
            if self.cross_flows_per_hop == 0 {
                break;
            }
            let server = sc.add_server(k);
            sc.add_bulk_clients_to(
                server,
                k + 1,
                self.cross_flows_per_hop,
                BULK_BYTES,
                self.stagger,
            );
        }
        sc
    }

    /// Flows traversing hop `k`: every main flow plus that hop's cross
    /// flows.
    pub fn flows_at_hop(&self, k: usize) -> usize {
        assert!(k < self.hops, "hop {k} out of range");
        self.main_flows + self.cross_flows_per_hop
    }
}

/// Many slow access links feeding one shared uplink (the Kerala-proxy
/// shape): router 0 is the wide-area side holding the server, pipe 0 is
/// the shared uplink into a gateway, and each leaf router hangs off the
/// gateway over a slow access pipe with its own clients.
#[derive(Debug, Clone)]
pub struct AccessTreeSpec {
    /// Number of leaf routers.
    pub leaves: usize,
    /// Bulk clients attached to each leaf.
    pub clients_per_leaf: usize,
    /// Shared uplink rate (the aggregate bottleneck).
    pub uplink_rate: Bandwidth,
    /// Uplink one-way delay.
    pub uplink_delay: SimDuration,
    /// Per-leaf access pipe rate.
    pub leaf_rate: Bandwidth,
    /// Per-leaf access pipe delay.
    pub leaf_delay: SimDuration,
    /// Discipline on the uplink pipe.
    pub uplink_qdisc: QdiscSpec,
    /// Discipline on every leaf pipe.
    pub leaf_qdisc: QdiscSpec,
    /// Start stagger for the clients.
    pub stagger: SimDuration,
    /// TCP stack parameters.
    pub tcp: TcpConfig,
}

impl AccessTreeSpec {
    /// A `leaves`-leaf tree with DropTail everywhere and one RTT of
    /// buffering per link.
    pub fn new(leaves: usize, uplink_rate: Bandwidth, leaf_rate: Bandwidth) -> Self {
        assert!(leaves >= 1, "tree needs at least one leaf");
        let uplink_buffer = uplink_rate.packets_per(SimDuration::from_millis(200), 500);
        let leaf_buffer = leaf_rate
            .packets_per(SimDuration::from_millis(200), 500)
            .max(8);
        AccessTreeSpec {
            leaves,
            clients_per_leaf: 3,
            uplink_rate,
            uplink_delay: SimDuration::from_millis(40),
            leaf_rate,
            leaf_delay: SimDuration::from_millis(20),
            uplink_qdisc: QdiscSpec::DropTail {
                buffer_pkts: uplink_buffer,
            },
            leaf_qdisc: QdiscSpec::DropTail {
                buffer_pkts: leaf_buffer,
            },
            stagger: SimDuration::from_secs(1),
            tcp: TcpConfig::default(),
        }
    }

    /// Router index of leaf `i` (gateway is router 1, core is 0).
    pub fn leaf_router(&self, i: usize) -> usize {
        assert!(i < self.leaves, "leaf {i} out of range");
        2 + i
    }

    /// Pipe index of leaf `i`'s access pipe (the uplink is pipe 0).
    pub fn leaf_pipe(&self, i: usize) -> usize {
        assert!(i < self.leaves, "leaf {i} out of range");
        1 + i
    }

    /// The underlying [`TopologySpec`].
    pub fn to_topology(&self) -> TopologySpec {
        let mut pipes = vec![PipeSpec::new(
            0,
            1,
            self.uplink_rate,
            self.uplink_delay,
            self.uplink_qdisc.clone(),
        )];
        for i in 0..self.leaves {
            pipes.push(PipeSpec::new(
                1,
                2 + i,
                self.leaf_rate,
                self.leaf_delay,
                self.leaf_qdisc.clone(),
            ));
        }
        TopologySpec::new(2 + self.leaves, pipes).tcp(self.tcp.clone())
    }

    /// Builds the scenario and attaches `clients_per_leaf` bulk clients
    /// to every leaf.
    pub fn build(&self, seed: u64) -> TopoScenario {
        let mut sc = self.to_topology().build(seed);
        for i in 0..self.leaves {
            sc.add_bulk_clients_at(
                self.leaf_router(i),
                self.clients_per_leaf,
                BULK_BYTES,
                self.stagger,
            );
        }
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qdisc_spec_builds_every_discipline() {
        let rate = Bandwidth::from_kbps(600);
        for (spec, is_taq) in [
            (QdiscSpec::Fifo, false),
            (QdiscSpec::DropTail { buffer_pkts: 30 }, false),
            (QdiscSpec::Red { buffer_pkts: 30 }, false),
            (QdiscSpec::Sfq { buffer_pkts: 30 }, false),
            (QdiscSpec::taq(30), true),
            (QdiscSpec::taq_admission(30), true),
        ] {
            let b = spec.build(rate, 1);
            assert_eq!(b.forward.len(), 0);
            assert_eq!(b.taq.is_some(), is_taq, "{spec:?}");
        }
    }

    #[test]
    fn pipe_seed_identity_at_pipe_zero() {
        assert_eq!(pipe_seed(42, 0), 42);
        assert_ne!(pipe_seed(42, 1), 42);
        assert_ne!(pipe_seed(42, 1), pipe_seed(42, 2));
    }

    #[test]
    fn parking_lot_cross_traffic_stays_on_its_hop() {
        let spec = ParkingLotSpec {
            main_flows: 2,
            cross_flows_per_hop: 1,
            ..ParkingLotSpec::new(3, Bandwidth::from_kbps(600))
        };
        let mut sc = spec.build(7);
        sc.run_until(SimTime::from_secs(20));
        // Every hop carries the main flows, so all hop links saw
        // traffic; the log holds main + cross transfers.
        for k in 0..3 {
            let stats = sc.sim.link_stats(sc.pipe_link(k));
            assert!(stats.transmitted_pkts > 100, "hop {k} carried traffic");
        }
        assert_eq!(sc.log.lock().unwrap().records.len(), 2 + 3);
        // Hop 0 also carries its own cross flow, so it forwards more
        // data packets than the last hop, whose cross flow is counted
        // there instead. Both directions exist; just check totals are
        // plausible rather than exact.
        let h0 = sc.sim.link_stats(sc.pipe_link(0)).offered_pkts;
        assert!(h0 > 0);
    }

    #[test]
    fn parking_lot_taq_placement_installs_taq_once() {
        let spec = ParkingLotSpec::new(4, Bandwidth::from_kbps(600)).taq_at(2);
        let sc = spec.build(3);
        for k in 0..4 {
            assert_eq!(sc.taq_state(k).is_some(), k == 2, "hop {k}");
        }
    }

    #[test]
    fn access_tree_shares_the_uplink() {
        let mut spec = AccessTreeSpec::new(3, Bandwidth::from_kbps(600), Bandwidth::from_kbps(300));
        spec.clients_per_leaf = 2;
        spec.uplink_qdisc = QdiscSpec::taq(
            Bandwidth::from_kbps(600).packets_per(SimDuration::from_millis(200), 500),
        );
        let mut sc = spec.build(5);
        sc.run_until(SimTime::from_secs(20));
        let uplink = sc.sim.link_stats(sc.pipe_link(0));
        assert!(uplink.transmitted_pkts > 200, "uplink carried traffic");
        for i in 0..3 {
            let leaf = sc.sim.link_stats(sc.pipe_link(spec.leaf_pipe(i)));
            assert!(leaf.transmitted_pkts > 50, "leaf {i} carried traffic");
        }
        let taq = sc.taq_state(0).expect("uplink runs taq");
        assert!(taq.lock().unwrap().stats.offered > 0);
        assert!(sc.taq_state(1).is_none());
    }

    #[test]
    fn faulty_pipe_reports_injections() {
        use taq_faults::GilbertElliott;
        let spec = ParkingLotSpec {
            main_flows: 4,
            cross_flows_per_hop: 0,
            ..ParkingLotSpec::new(2, Bandwidth::from_kbps(600))
        }
        .faults_at(
            1,
            FaultPlan::none().with_burst_loss(GilbertElliott::bursts(0.02, 5.0)),
        );
        let mut sc = spec.build(9);
        sc.run_until(SimTime::from_secs(20));
        assert!(sc.pipe_faults[0].is_none(), "hop 0 is clean");
        let stats = sc.pipe_faults[1].as_ref().expect("hop 1 has fault stats");
        assert!(stats.lock().unwrap().burst_losses > 0);
    }
}
