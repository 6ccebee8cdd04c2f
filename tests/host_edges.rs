//! Integration: host-layer edge cases — handshake packet loss in both
//! directions, duplicate SYNs, abandoned connection attempts, and late
//! packets after closure.

use taq_queues::DropTail;
use taq_sim::{
    Bandwidth, DumbbellConfig, LinkId, LinkMonitor, NodeId, Packet, Qdisc, SimDuration, SimTime,
    UnboundedFifo,
};
use taq_tcp::{new_flow_log, ClientHost, Request, ServerHost, TcpConfig};
use taq_workloads::{DumbbellScenario, DumbbellSpec, TopoScenario};

/// A 600 Kbps dumbbell with its server, no clients yet.
fn setup(seed: u64, forward: Box<dyn Qdisc>, reverse: Box<dyn Qdisc>) -> DumbbellScenario {
    let cfg = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600));
    DumbbellSpec::new(cfg).build_with_reverse(seed, forward, reverse)
}

/// Attaches `node` to router `router` (0 = server side, 1 = client
/// side) of the scenario's topology.
fn attach(sc: &mut TopoScenario, node: NodeId, router: usize) {
    sc.topo.attach_host(&mut sc.sim, node, router);
}

/// Drops the first `n` packets crossing a link (deterministic handshake
/// sabotage). Implemented as a qdisc wrapper via a counting monitor +
/// wire loss would be random; instead we use a dedicated qdisc.
#[derive(Debug)]
struct DropFirstN {
    inner: DropTail,
    remaining: u32,
}

impl Qdisc for DropFirstN {
    fn enqueue(
        &mut self,
        pkt: taq_sim::PacketId,
        arena: &mut taq_sim::PacketArena,
        now: SimTime,
    ) -> taq_sim::EnqueueOutcome {
        if self.remaining > 0 {
            self.remaining -= 1;
            return taq_sim::EnqueueOutcome::rejected(pkt);
        }
        self.inner.enqueue(pkt, arena, now)
    }

    fn dequeue(
        &mut self,
        arena: &mut taq_sim::PacketArena,
        now: SimTime,
    ) -> Option<taq_sim::PacketId> {
        self.inner.dequeue(arena, now)
    }

    fn len(&self) -> usize {
        Qdisc::len(&self.inner)
    }

    fn byte_len(&self) -> usize {
        self.inner.byte_len()
    }

    fn name(&self) -> &'static str {
        "drop-first-n"
    }
}

#[test]
fn lost_syn_is_retried_and_transfer_completes() {
    // The reverse (client→server) path eats the first two packets: the
    // SYN and its first retry. The third attempt succeeds.
    let mut sc = setup(
        5,
        Box::new(DropTail::with_packets(30)),
        Box::new(DropFirstN {
            inner: DropTail::with_packets(100),
            remaining: 2,
        }),
    );
    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
    client.push_request(Request {
        tag: 0,
        bytes: 5_000,
    });
    let node = sc.sim.add_agent(Box::new(client));
    attach(&mut sc, node, 1);
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(60));

    let log = log.lock().unwrap();
    let rec = &log.records[0];
    assert!(rec.completed_at.is_some(), "completes despite SYN losses");
    assert!(rec.syn_retries >= 2, "retried at least twice: {rec:?}");
    // The wait shows up in the download time (SYN backoff is 1 s, 2 s).
    assert!(rec.download_time().unwrap() >= SimDuration::from_secs(3));
}

#[test]
fn lost_syn_ack_is_covered_by_server_rto() {
    // The forward (server→client) path eats the first packet — the
    // SYN-ACK. The server's handshake RTO resends it.
    let mut sc = setup(
        6,
        Box::new(DropFirstN {
            inner: DropTail::with_packets(30),
            remaining: 1,
        }),
        Box::new(UnboundedFifo::new()),
    );
    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
    client.push_request(Request {
        tag: 0,
        bytes: 5_000,
    });
    let node = sc.sim.add_agent(Box::new(client));
    attach(&mut sc, node, 1);
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(60));

    let records = log.lock().unwrap();
    let rec = &records.records[0];
    assert!(rec.completed_at.is_some());
    // The server must have accepted exactly one connection despite the
    // client's SYN retry racing the retransmitted SYN-ACK.
    let srv = sc.sim.agent::<ServerHost>(sc.server).unwrap();
    assert_eq!(srv.accepted, 1, "duplicate SYNs do not fork connections");
    assert_eq!(srv.live_connections(), 0, "connection closed cleanly");
}

#[test]
fn abandoned_attempts_are_logged_unfinished() {
    // Black-hole reverse path: nothing ever reaches the server. With a
    // bounded retry budget the client gives up and logs the failure.
    let mut sc = setup(
        7,
        Box::new(DropTail::with_packets(30)),
        Box::new(DropFirstN {
            inner: DropTail::with_packets(100),
            remaining: u32::MAX,
        }),
    );
    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
    client.max_syn_retries = 3;
    client.push_request(Request {
        tag: 9,
        bytes: 5_000,
    });
    let node = sc.sim.add_agent(Box::new(client));
    attach(&mut sc, node, 1);
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(120));

    let log = log.lock().unwrap();
    assert_eq!(log.records.len(), 1, "the failure is recorded");
    let rec = &log.records[0];
    assert!(rec.completed_at.is_none());
    assert_eq!(rec.syn_retries, 3);
    let srv = sc.sim.agent::<ServerHost>(sc.server).unwrap();
    assert_eq!(srv.accepted, 0);
}

/// Counts stray deliveries to the client after its transfer finished.
#[derive(Debug, Default)]
struct ArrivalCounter {
    count: u64,
}

impl LinkMonitor for ArrivalCounter {
    fn on_transmit(&mut self, _link: LinkId, _pkt: &Packet, _now: SimTime) {
        self.count += 1;
    }
}

/// An agent that fires one stale data packet at a closed client port.
struct StaleInjector {
    target: NodeId,
}

impl taq_sim::Agent for StaleInjector {
    fn on_start(&mut self, ctx: &mut taq_sim::Ctx<'_>) {
        let stale = taq_sim::PacketBuilder::new(taq_sim::FlowKey {
            src: ctx.node(),
            src_port: 80,
            dst: self.target,
            dst_port: 10_000, // The client's first (now closed) port.
        })
        .seq(1)
        .payload(460)
        .build();
        ctx.send(self.target, stale);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut taq_sim::Ctx<'_>) {}
}

#[test]
fn late_packets_after_close_are_ignored_gracefully() {
    // Complete a transfer, then deliver a stray retransmission for the
    // closed connection: it must not panic, resurrect state, or create
    // new log records.
    let mut sc = setup(
        8,
        Box::new(DropTail::with_packets(30)),
        Box::new(UnboundedFifo::new()),
    );
    sc.sim.add_monitor(Box::new(ArrivalCounter::default()));
    let log = new_flow_log();
    let mut client = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, log.clone());
    client.push_request(Request {
        tag: 0,
        bytes: 3_000,
    });
    let node = sc.sim.add_agent(Box::new(client));
    attach(&mut sc, node, 1);
    let injector = sc.sim.add_agent(Box::new(StaleInjector { target: node }));
    attach(&mut sc, injector, 0);
    sc.sim.schedule_start(node, SimTime::ZERO);
    sc.sim.run_until(SimTime::from_secs(30));
    assert!(log.lock().unwrap().records[0].completed_at.is_some());
    // Fire the stale packet well after closure.
    sc.sim.schedule_start(injector, SimTime::from_secs(30));
    sc.sim.run_until(SimTime::from_secs(35));
    // Nothing panicked, nothing new was logged.
    assert_eq!(log.lock().unwrap().records.len(), 1);
    assert_eq!(
        sc.sim.agent::<ClientHost>(node).unwrap().completed,
        1,
        "completion count unchanged"
    );
}
