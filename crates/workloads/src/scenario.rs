//! The dumbbell recipe: the paper's experiment topology as a
//! two-router, one-pipe [`TopologySpec`].
//!
//! Every evaluation in the paper runs on a dumbbell with one server
//! side, one client side, and the discipline under test on the
//! bottleneck. [`DumbbellSpec`] describes that shape and builds it
//! through `TopologySpec`'s one build path; the [`DumbbellScenario`] it
//! returns is a [`TopoScenario`] plus the dumbbell's names: the
//! bottleneck is pipe 0, the server sits at router 0, and the client
//! helpers for the three workload archetypes — long-running bulk flows
//! (Figures 2, 3, 8, 9, 11), short flows over long-flow background
//! (Figure 10), and request-driven web clients replaying a log
//! (Figures 1, 12, §2.3) — attach at router 1.

use crate::topo_spec::{BuiltPipe, PipeSpec, QdiscSpec, TopoScenario, TopologySpec};
use crate::weblog::LogEntry;
use std::ops::{Deref, DerefMut};
use taq_faults::{FaultPlan, SharedFaultStats};
use taq_sim::{
    Bandwidth, DumbbellConfig, LinkId, NodeId, Qdisc, SimDuration, SimTime, UnboundedFifo,
};
use taq_tcp::{Request, TcpConfig};
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

    /// The dumbbell as a [`TopologySpec`]: two routers, one pipe
    /// carrying `qdisc` and the fault plan, server on router 0.
    pub fn to_topology(&self, qdisc: QdiscSpec) -> TopologySpec {
        let mut topo = TopologySpec::new(
            2,
            vec![PipeSpec::new(
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
        self.build_with_reverse(seed, forward_qdisc, Box::new(UnboundedFifo::new()))
    }

    /// Builds the scenario for `seed` with explicit forward and reverse
    /// disciplines (TAQ's admission control needs its reverse half).
    pub fn build_with_reverse(
        &self,
        seed: u64,
        forward_qdisc: Box<dyn Qdisc>,
        reverse_qdisc: Box<dyn Qdisc>,
    ) -> DumbbellScenario {
        let pipe = BuiltPipe {
            forward: forward_qdisc,
            reverse: reverse_qdisc,
            taq: None,
        };
        // The pipe's recipe is never consulted: its boxes are built.
        let inner = self
            .to_topology(QdiscSpec::Fifo)
            .build_with(seed, vec![pipe]);
        DumbbellScenario {
            db: Dumbbell {
                bottleneck: inner.pipe_link(0),
            },
            inner,
        }
    }
}

/// The dumbbell's name for the link under study.
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// The congested server→client link carrying data packets (pipe
    /// 0's forward link); its qdisc is the discipline under test.
    pub bottleneck: LinkId,
}

/// A constructed dumbbell experiment: a [`TopoScenario`] (reached
/// through `Deref`: `sim`, `server`, `log`, `clients`, `run_until`, …)
/// plus the dumbbell's names for it.
pub struct DumbbellScenario {
    /// The dumbbell's name for pipe 0's forward link.
    pub db: Dumbbell,
    inner: TopoScenario,
}

impl Deref for DumbbellScenario {
    type Target = TopoScenario;

    fn deref(&self) -> &TopoScenario {
        &self.inner
    }
}

impl DerefMut for DumbbellScenario {
    fn deref_mut(&mut self) -> &mut TopoScenario {
        &mut self.inner
    }
}

impl DumbbellScenario {
    /// Fault counters of the bottleneck, when the spec had a non-empty
    /// fault plan.
    pub fn fault_stats(&self) -> Option<&SharedFaultStats> {
        self.inner.pipe_faults[0].as_ref()
    }

    /// Adds a client fetching one object of `bytes`, starting at
    /// `start`. A practically-infinite `bytes` gives a long-running
    /// bulk flow.
    pub fn add_bulk_client(&mut self, bytes: u64, start: SimTime) -> NodeId {
        self.inner.add_bulk_client_at(1, bytes, start)
    }

    /// Adds `n` bulk clients with jittered starts and access delays;
    /// see [`TopoScenario::add_bulk_clients_at`].
    pub fn add_bulk_clients(&mut self, n: usize, bytes: u64, stagger: SimDuration) -> Vec<NodeId> {
        self.inner.add_bulk_clients_at(1, n, bytes, stagger)
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
        self.inner
            .add_pool_client_at(1, requests, max_parallel, start)
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
        self.inner
            .add_scheduled_client_at(1, schedule, max_parallel, base)
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
        let mut sc = DumbbellSpec::new(topo()).build(1, Box::new(DropTail::with_packets(30)));
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
        let mut sc = DumbbellSpec::new(topo()).build(2, Box::new(DropTail::with_packets(30)));
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
        let stats = sc.fault_stats().expect("fault stats present");
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
        assert!(sc.fault_stats().is_none());
    }

    #[test]
    fn pool_client_respects_parallelism() {
        let mut sc = DumbbellSpec::new(topo()).build(3, Box::new(DropTail::with_packets(30)));
        let reqs = (0..6).map(|tag| Request { tag, bytes: 10_000 }).collect();
        sc.add_pool_client(reqs, 2, SimTime::ZERO);
        sc.run_until(SimTime::from_secs(120));
        let log = sc.log.lock().unwrap();
        assert_eq!(log.records.len(), 6);
        assert!(log.records.iter().all(|r| r.completed_at.is_some()));
    }
}
