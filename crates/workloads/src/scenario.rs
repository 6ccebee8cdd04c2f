//! Scenario assembly: one-call construction of the paper's experiment
//! topologies.
//!
//! Every evaluation in the paper runs on a dumbbell with one server
//! side, one client side, and the discipline under test on the
//! bottleneck. [`DumbbellScenario`] wires that up and offers typed
//! helpers for the three workload archetypes: long-running bulk flows
//! (Figures 2, 3, 8, 9, 11), short flows over long-flow background
//! (Figure 10), and request-driven web clients replaying a log
//! (Figures 1, 12, §2.3).

use crate::weblog::LogEntry;
use taq_faults::{FaultDriver, FaultPlan, FaultyLink, SharedFaultStats};
use taq_sim::{
    Bandwidth, Dumbbell, DumbbellConfig, NodeId, Qdisc, SimDuration, SimRng, SimTime, Simulator,
};
use taq_tcp::{new_flow_log, ClientHost, Request, ServerHost, SharedFlowLog, TcpConfig};
use taq_telemetry::Telemetry;

/// Plain, `Clone + Send` description of a dumbbell experiment: topology
/// plus TCP parameters, everything except the discipline under test and
/// the seed. A sweep worker thread clones the spec, builds its qdisc
/// locally, and calls [`DumbbellSpec::build`] — so scenario
/// construction never has to cross a thread boundary, only the spec
/// does.
///
/// ```
/// use taq_sim::{Bandwidth, DumbbellConfig, UnboundedFifo};
/// use taq_workloads::DumbbellSpec;
///
/// let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600)));
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         let sc = spec.build(7, Box::new(UnboundedFifo::new()));
///         assert!(sc.clients.is_empty());
///     });
/// });
/// ```
#[derive(Debug, Clone)]
pub struct DumbbellSpec {
    /// Dumbbell link rates and delays.
    pub topo: DumbbellConfig,
    /// TCP stack parameters for every host.
    pub tcp: TcpConfig,
    /// Faults injected on the bottleneck link. Defaults to the clean
    /// link; part of the spec so a sweep can fan fault grids across
    /// worker threads exactly like any other parameter.
    pub faults: FaultPlan,
    /// Telemetry handle cloned into the fault layer (fault events are
    /// emitted per injection). Defaults to disabled.
    pub telemetry: Telemetry,
}

impl DumbbellSpec {
    /// A spec over `topo` with default TCP parameters and no faults.
    pub fn new(topo: DumbbellConfig) -> Self {
        DumbbellSpec {
            topo,
            tcp: TcpConfig::default(),
            faults: FaultPlan::none(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the TCP parameters.
    #[must_use]
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.tcp = tcp;
        self
    }

    /// Replaces the bottleneck fault plan.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the telemetry handle seen by the fault layer.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The equivalent [`crate::TopologySpec`]: two routers, one pipe
    /// carrying `qdisc`, server on router 0. The spec-level conformance
    /// suite asserts the two code paths replay byte-identically.
    pub fn to_topology(&self, qdisc: crate::QdiscSpec) -> crate::TopologySpec {
        let mut topo = crate::TopologySpec::new(
            2,
            vec![crate::PipeSpec::new(
                0,
                1,
                self.topo.bottleneck_rate,
                self.topo.bottleneck_delay,
                qdisc,
            )
            .faults(self.faults.clone())],
        );
        topo.access_rate = self.topo.access_rate;
        topo.access_delay = self.topo.access_delay;
        topo.tcp = self.tcp.clone();
        topo.telemetry = self.telemetry.clone();
        topo
    }

    /// Builds the scenario for `seed` with the given bottleneck
    /// discipline and an uncongested FIFO reverse path.
    pub fn build(&self, seed: u64, forward_qdisc: Box<dyn Qdisc>) -> DumbbellScenario {
        let (fwd, stats) = self.wrap_forward(seed, forward_qdisc);
        let mut sim = Simulator::new(seed);
        let db = Dumbbell::build_simple(&mut sim, self.topo.clone(), fwd);
        let mut sc = DumbbellScenario::finish(sim, db, self.tcp.clone(), seed);
        self.install_faults(&mut sc, seed, stats);
        sc
    }

    /// Builds the scenario for `seed` with explicit forward and reverse
    /// disciplines (TAQ's admission control needs its reverse half).
    pub fn build_with_reverse(
        &self,
        seed: u64,
        forward_qdisc: Box<dyn Qdisc>,
        reverse_qdisc: Box<dyn Qdisc>,
    ) -> DumbbellScenario {
        let (fwd, stats) = self.wrap_forward(seed, forward_qdisc);
        let mut sim = Simulator::new(seed);
        let db = Dumbbell::build(&mut sim, self.topo.clone(), fwd, reverse_qdisc);
        let mut sc = DumbbellScenario::finish(sim, db, self.tcp.clone(), seed);
        self.install_faults(&mut sc, seed, stats);
        sc
    }

    /// Wraps the forward qdisc in a [`FaultyLink`] when the plan has
    /// per-packet faults, allocating the shared stats that the driver
    /// half (if any) will also use.
    fn wrap_forward(
        &self,
        seed: u64,
        forward_qdisc: Box<dyn Qdisc>,
    ) -> (Box<dyn Qdisc>, Option<SharedFaultStats>) {
        if self.faults.is_none() {
            return (forward_qdisc, None);
        }
        let stats = taq_faults::shared_fault_stats();
        if !self.faults.has_packet_faults() {
            return (forward_qdisc, Some(stats));
        }
        // The bottleneck is the first link the dumbbell creates, so the
        // telemetry label 0 matches its LinkId.
        let wrapped = FaultyLink::new(
            forward_qdisc,
            &self.faults,
            0,
            seed,
            self.telemetry.clone(),
            stats.clone(),
        );
        (Box::new(wrapped), Some(stats))
    }

    /// Installs the [`FaultDriver`] agent for the link-schedule half of
    /// the plan and records the shared stats on the scenario.
    fn install_faults(
        &self,
        sc: &mut DumbbellScenario,
        seed: u64,
        stats: Option<SharedFaultStats>,
    ) {
        if let Some(stats) = &stats {
            if let Some(driver) = FaultDriver::from_plan(
                &self.faults,
                sc.db.bottleneck,
                self.topo.bottleneck_rate,
                self.topo.bottleneck_delay,
                seed,
                self.telemetry.clone(),
                stats.clone(),
            ) {
                let node = sc.sim.add_agent(Box::new(driver));
                sc.sim.schedule_start(node, SimTime::ZERO);
            }
        }
        sc.fault_stats = stats;
    }
}

/// A constructed experiment: simulator, topology, server, and the
/// shared flow log.
pub struct DumbbellScenario {
    /// The simulator (run it with `run_until`).
    pub sim: Simulator,
    /// The dumbbell topology handles (bottleneck link id lives here).
    pub db: Dumbbell,
    /// The single server host serving all requests.
    pub server: NodeId,
    /// Completion records for every requested object.
    pub log: SharedFlowLog,
    /// Client hosts in creation order.
    pub clients: Vec<NodeId>,
    /// Fault counters when the scenario was built from a
    /// [`DumbbellSpec`] with a non-empty fault plan.
    pub fault_stats: Option<SharedFaultStats>,
    tcp: TcpConfig,
    /// Workload-level randomness (start jitter, RTT jitter), seeded
    /// from the scenario seed so runs stay reproducible.
    rng: SimRng,
}

impl DumbbellScenario {
    /// Builds the dumbbell with the given bottleneck discipline and an
    /// uncongested FIFO reverse path.
    pub fn new(
        seed: u64,
        topo: DumbbellConfig,
        forward_qdisc: Box<dyn Qdisc>,
        tcp: TcpConfig,
    ) -> Self {
        let mut sim = Simulator::new(seed);
        let db = Dumbbell::build_simple(&mut sim, topo, forward_qdisc);
        Self::finish(sim, db, tcp, seed)
    }

    /// Builds the dumbbell with explicit forward and reverse disciplines
    /// (TAQ's admission control needs its reverse half installed).
    pub fn new_with_reverse(
        seed: u64,
        topo: DumbbellConfig,
        forward_qdisc: Box<dyn Qdisc>,
        reverse_qdisc: Box<dyn Qdisc>,
        tcp: TcpConfig,
    ) -> Self {
        let mut sim = Simulator::new(seed);
        let db = Dumbbell::build(&mut sim, topo, forward_qdisc, reverse_qdisc);
        Self::finish(sim, db, tcp, seed)
    }

    fn finish(mut sim: Simulator, db: Dumbbell, tcp: TcpConfig, seed: u64) -> Self {
        let server = sim.add_agent(Box::new(ServerHost::new(tcp.clone(), 80)));
        db.attach_left(&mut sim, server);
        // An independent workload stream derived from the scenario seed
        // (the simulator's own RNG is left untouched).
        let rng = SimRng::new(seed ^ 0x5CEA_A210).split(1);
        DumbbellScenario {
            sim,
            db,
            server,
            log: new_flow_log(),
            clients: Vec::new(),
            fault_stats: None,
            tcp,
            rng,
        }
    }

    /// Adds a client fetching one object of `bytes`, starting at
    /// `start`. A practically-infinite `bytes` gives a long-running
    /// bulk flow.
    pub fn add_bulk_client(&mut self, bytes: u64, start: SimTime) -> NodeId {
        let mut c = ClientHost::new(self.tcp.clone(), self.server, 80, 1, self.log.clone());
        c.push_request(Request {
            tag: self.clients.len() as u64,
            bytes,
        });
        self.spawn(c, start, None)
    }

    /// Adds `n` bulk clients with randomly jittered starts over
    /// `stagger` and ±5 ms access-delay jitter. Perfectly regular
    /// starts with identical RTTs phase-lock deterministic TCP
    /// implementations (loss events synchronize and a fixed subset of
    /// flows wins forever — a simulation artifact, not a transport
    /// property), so both dimensions carry deliberate randomness, as
    /// ns2's overhead randomization does.
    pub fn add_bulk_clients(&mut self, n: usize, bytes: u64, stagger: SimDuration) -> Vec<NodeId> {
        (0..n)
            .map(|_| {
                let offset = if n > 1 && !stagger.is_zero() {
                    SimDuration::from_nanos(self.rng.range_u64(0, stagger.as_nanos()))
                } else {
                    SimDuration::ZERO
                };
                let base = self.db.config().access_delay;
                let jitter = SimDuration::from_micros(self.rng.range_u64(0, 10_000));
                self.add_bulk_client_with_delay(bytes, SimTime::ZERO + offset, base + jitter)
            })
            .collect()
    }

    /// Adds a client that works through `requests` with up to
    /// `max_parallel` concurrent connections, requesting each object as
    /// soon as a slot frees (the paper's web-session-pool behaviour).
    pub fn add_pool_client(
        &mut self,
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
        self.spawn(c, start, None)
    }

    /// Adds a client with time-scheduled requests (log replay): each
    /// request enters the client's queue at its logged offset from
    /// `base`.
    pub fn add_scheduled_client(
        &mut self,
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
        self.spawn(c, base, None)
    }

    /// Adds a client with a custom access-link delay (heterogeneous
    /// RTTs) fetching one object.
    pub fn add_bulk_client_with_delay(
        &mut self,
        bytes: u64,
        start: SimTime,
        access_delay: SimDuration,
    ) -> NodeId {
        let mut c = ClientHost::new(self.tcp.clone(), self.server, 80, 1, self.log.clone());
        c.push_request(Request {
            tag: self.clients.len() as u64,
            bytes,
        });
        self.spawn(c, start, Some(access_delay))
    }

    fn spawn(
        &mut self,
        client: ClientHost,
        start: SimTime,
        access_delay: Option<SimDuration>,
    ) -> NodeId {
        let node = self.sim.add_agent(Box::new(client));
        match access_delay {
            Some(d) => self.db.attach_right_with_delay(&mut self.sim, node, d),
            None => self.db.attach_right(&mut self.sim, node),
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

/// Sweep helper: the number of bulk flows that produces a target
/// per-flow fair share on a link (`flows = capacity / share`).
pub fn flows_for_fair_share(capacity: Bandwidth, share_bps: u64) -> usize {
    assert!(share_bps > 0, "zero share");
    ((capacity.bps() + share_bps / 2) / share_bps).max(1) as usize
}

/// A practically-infinite object size for long-running flows: large
/// enough never to finish in any experiment, small enough to leave
/// sequence-number headroom.
pub const BULK_BYTES: u64 = 1 << 40;

#[cfg(test)]
mod tests {
    use super::*;
    use taq_queues::DropTail;

    fn topo() -> DumbbellConfig {
        DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600))
    }

    #[test]
    fn bulk_clients_share_the_bottleneck() {
        let mut sc = DumbbellScenario::new(
            1,
            topo(),
            Box::new(DropTail::with_packets(30)),
            TcpConfig::default(),
        );
        sc.add_bulk_clients(6, BULK_BYTES, SimDuration::from_secs(1));
        sc.run_until(SimTime::from_secs(30));
        let stats = sc.sim.link_stats(sc.db.bottleneck);
        assert!(stats.transmitted_pkts > 500, "link carried traffic");
        // All six transfers are in-flight (none complete) and logged.
        assert_eq!(sc.log.lock().unwrap().records.len(), 6);
        assert!(sc
            .log
            .lock()
            .unwrap()
            .records
            .iter()
            .all(|r| r.completed_at.is_none()));
    }

    #[test]
    fn scheduled_replay_issues_requests_at_their_times() {
        let mut sc = DumbbellScenario::new(
            2,
            topo(),
            Box::new(DropTail::with_packets(30)),
            TcpConfig::default(),
        );
        let schedule = vec![
            LogEntry {
                at: SimTime::from_secs(1),
                client: 0,
                bytes: 5_000,
                tag: 100,
            },
            LogEntry {
                at: SimTime::from_secs(10),
                client: 0,
                bytes: 5_000,
                tag: 101,
            },
        ];
        sc.add_scheduled_client(&schedule, 4, SimTime::ZERO);
        sc.run_until(SimTime::from_secs(60));
        let log = sc.log.lock().unwrap();
        assert_eq!(log.records.len(), 2);
        let r100 = log.records.iter().find(|r| r.tag == 100).unwrap();
        let r101 = log.records.iter().find(|r| r.tag == 101).unwrap();
        assert!(r100.completed_at.is_some() && r101.completed_at.is_some());
        // The second request was not issued before its scheduled time.
        assert!(r101.first_syn_at >= SimTime::from_secs(10));
        assert!(r100.first_syn_at >= SimTime::from_secs(1));
        assert!(r100.first_syn_at < SimTime::from_secs(2));
    }

    #[test]
    fn fair_share_flow_counts() {
        assert_eq!(flows_for_fair_share(Bandwidth::from_kbps(600), 20_000), 30);
        assert_eq!(flows_for_fair_share(Bandwidth::from_mbps(1), 10_000), 100);
        assert_eq!(
            flows_for_fair_share(Bandwidth::from_kbps(200), 1_000_000),
            1,
            "share above capacity still yields one flow"
        );
    }

    #[test]
    fn faulty_spec_injects_and_reports() {
        use taq_faults::GilbertElliott;
        let spec = DumbbellSpec::new(topo()).faults(
            FaultPlan::none()
                .with_burst_loss(GilbertElliott::bursts(0.01, 5.0))
                .with_rate_jitter(
                    SimDuration::from_millis(500),
                    0.7,
                    1.3,
                    SimTime::from_secs(20),
                ),
        );
        let mut sc = spec.build(5, Box::new(DropTail::with_packets(30)));
        sc.add_bulk_clients(4, BULK_BYTES, SimDuration::from_secs(1));
        sc.run_until(SimTime::from_secs(30));
        let stats = sc.fault_stats.as_ref().expect("fault stats present");
        let s = stats.lock().unwrap();
        assert!(s.burst_losses > 0, "GE chain never fired: {s:?}");
        assert_eq!(s.rate_changes, 40, "jitter ticks at 500ms through 20s");
        // Traffic still flowed despite the faults.
        assert!(sc.sim.link_stats(sc.db.bottleneck).transmitted_pkts > 100);
    }

    #[test]
    fn clean_spec_has_no_fault_stats() {
        let spec = DumbbellSpec::new(topo());
        let sc = spec.build(5, Box::new(DropTail::with_packets(30)));
        assert!(sc.fault_stats.is_none());
    }

    #[test]
    fn pool_client_respects_parallelism() {
        let mut sc = DumbbellScenario::new(
            3,
            topo(),
            Box::new(DropTail::with_packets(30)),
            TcpConfig::default(),
        );
        let reqs = (0..6).map(|tag| Request { tag, bytes: 10_000 }).collect();
        sc.add_pool_client(reqs, 2, SimTime::ZERO);
        sc.run_until(SimTime::from_secs(120));
        let log = sc.log.lock().unwrap();
        assert_eq!(log.records.len(), 6);
        assert!(log.records.iter().all(|r| r.completed_at.is_some()));
    }
}
