//! Property-based invariants for the topology engine.
//!
//! Small random topologies (spanning tree over 2–5 routers, random
//! per-pipe rates/delays/disciplines, clients on every non-server
//! router) must satisfy, for every seed:
//!
//! - **packet conservation per link** — every packet offered to a link
//!   is accounted for: dropped, transmitted, lost on the wire, or still
//!   buffered at the horizon;
//! - **no routing loops** — the static next-hop table reaches every
//!   router pair within `routers` hops (`Topology::path` returns `None`
//!   on a loop walk, so a `Some` of bounded length is loop-freedom);
//! - **FIFO ordering per (link, class)** — on single-class links
//!   (DropTail pipes, FIFO access links) the transmit order equals the
//!   enqueue order minus drops; multi-class disciplines (SFQ, TAQ)
//!   reorder across queues by design and are excluded;
//! - **deterministic replay** — the same seed reproduces the same flow
//!   log, per-link counters, and event count;
//! - **arena leak-freedom** — a finite workload run to quiescence
//!   leaves no packet live in the arena.

use taq_sim::{
    Bandwidth, EventRecorder, LinkId, MonitorId, RecordedKind, SimDuration, SimRng, SimTime,
};
use taq_workloads::{PipeSpec, QdiscSpec, TopoScenario, TopologySpec};

/// A randomly drawn topology plus the bookkeeping the assertions need.
struct RandomCase {
    spec: TopologySpec,
    /// Per-pipe flag: forward link keeps single-class FIFO order.
    pipe_is_fifo: Vec<bool>,
    /// Per-pipe flag: reverse link is a plain FIFO (everything but
    /// TAQ's reverse half, which may hold SYNs for admission).
    reverse_is_fifo: Vec<bool>,
}

/// Draws a connected topology: router `i` hangs off a uniformly random
/// earlier router, so the pipe set is a spanning tree and every router
/// pair is mutually reachable through the duplex pipes.
fn random_case(rng: &mut SimRng) -> RandomCase {
    let routers = 2 + rng.next_below(4) as usize; // 2..=5
    let rates = [300u64, 400, 600, 800];
    let delays = [10u64, 24, 48];
    let mut pipes = Vec::new();
    let mut pipe_is_fifo = Vec::new();
    let mut reverse_is_fifo = Vec::new();
    for i in 1..routers {
        let parent = rng.next_below(i as u64) as usize;
        let rate = Bandwidth::from_kbps(rates[rng.next_below(4) as usize]);
        let delay = SimDuration::from_millis(delays[rng.next_below(3) as usize]);
        let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
        let (qdisc, fifo) = match rng.next_below(3) {
            0 => (
                QdiscSpec::DropTail {
                    buffer_pkts: buffer,
                },
                true,
            ),
            1 => (
                QdiscSpec::Sfq {
                    buffer_pkts: buffer,
                },
                false,
            ),
            _ => (QdiscSpec::taq(buffer), false),
        };
        let is_taq = matches!(qdisc, QdiscSpec::Taq { .. });
        pipes.push(PipeSpec::new(parent, i, rate, delay, qdisc));
        pipe_is_fifo.push(fifo);
        reverse_is_fifo.push(!is_taq);
    }
    RandomCase {
        spec: TopologySpec::new(routers, pipes),
        pipe_is_fifo,
        reverse_is_fifo,
    }
}

/// Builds and runs one case: two finite downloads per non-server
/// router, 15 simulated seconds.
fn run_case(case: &RandomCase, seed: u64) -> (TopoScenario, MonitorId) {
    let mut sc = case.spec.build(seed);
    let recorder = sc.sim.add_monitor(Box::<EventRecorder>::default());
    for r in 1..case.spec.routers {
        sc.add_bulk_clients_at(r, 2, 40_000, SimDuration::from_secs(1));
    }
    sc.run_until(SimTime::from_secs(15));
    (sc, recorder)
}

/// Total links the scenario created: two per pipe plus an up/down pair
/// per host (one server + the clients).
fn total_links(case: &RandomCase, sc: &TopoScenario) -> usize {
    2 * case.spec.pipes.len() + 2 * (1 + sc.clients.len())
}

#[test]
fn per_link_packet_conservation() {
    let mut rng = SimRng::new(0x7090);
    for seed in 1..=6u64 {
        let case = random_case(&mut rng);
        let (sc, _) = run_case(&case, seed);
        for l in 0..total_links(&case, &sc) {
            let link = LinkId(l as u32);
            let s = sc.sim.link_stats(link);
            let queued = sc.sim.link_qdisc(link).len() as u64;
            assert_eq!(
                s.offered_pkts,
                s.dropped_pkts + s.transmitted_pkts + s.wire_lost_pkts + queued,
                "seed {seed} link {l}: {s:?} queued {queued}"
            );
        }
        // The run did real work: the server-side pipe carried packets.
        assert!(sc.sim.link_stats(sc.pipe_link(0)).transmitted_pkts > 0);
    }
}

#[test]
fn no_routing_loops() {
    let mut rng = SimRng::new(0xA110F);
    for seed in 1..=6u64 {
        let case = random_case(&mut rng);
        let sc = case.spec.build(seed);
        let n = case.spec.routers;
        for from in 0..n {
            for to in 0..n {
                let path = sc.topo.path(from, to);
                let hops = path
                    .unwrap_or_else(|| panic!("seed {seed}: no path {from}→{to} (loop or hole)"));
                assert!(
                    hops.len() < n,
                    "seed {seed}: path {from}→{to} visits {} links in an {n}-router tree",
                    hops.len()
                );
            }
        }
    }
}

#[test]
fn fifo_order_per_single_class_link() {
    let mut rng = SimRng::new(0xF1F0);
    for seed in 1..=6u64 {
        let case = random_case(&mut rng);
        let (sc, recorder) = run_case(&case, seed);
        // Only single-class links keep global FIFO order.
        let mut fifo_links: Vec<LinkId> = Vec::new();
        for (i, (&fwd, &rev)) in case
            .pipe_is_fifo
            .iter()
            .zip(&case.reverse_is_fifo)
            .enumerate()
        {
            if fwd {
                fifo_links.push(sc.pipe_link(i));
            }
            if rev {
                fifo_links.push(sc.pipe_reverse(i));
            }
        }
        // Access links are unbounded FIFOs.
        for l in 2 * case.spec.pipes.len()..total_links(&case, &sc) {
            fifo_links.push(LinkId(l as u32));
        }
        let events = &sc
            .sim
            .monitor::<EventRecorder>(recorder)
            .expect("recorder")
            .events;
        for &link in &fifo_links {
            let enq: Vec<u64> = events
                .iter()
                .filter(|e| e.link == link && e.kind == RecordedKind::Enqueue)
                .map(|e| e.packet_id)
                .collect();
            let tx: Vec<u64> = events
                .iter()
                .filter(|e| e.link == link && e.kind == RecordedKind::Transmit)
                .map(|e| e.packet_id)
                .collect();
            // Transmit order must equal enqueue order restricted to the
            // packets that made it out.
            let transmitted: std::collections::HashSet<u64> = tx.iter().copied().collect();
            let expected: Vec<u64> = enq
                .iter()
                .copied()
                .filter(|id| transmitted.contains(id))
                .collect();
            assert_eq!(
                tx, expected,
                "seed {seed} link {link:?}: FIFO order violated"
            );
        }
    }
}

/// One run's comparable outputs.
fn fingerprint(
    sc: &TopoScenario,
    links: usize,
) -> (Vec<taq_tcp::FlowRecord>, Vec<(u64, u64, u64)>, u64) {
    let records = sc.log.lock().unwrap().records.clone();
    let stats = (0..links)
        .map(|l| {
            let s = sc.sim.link_stats(LinkId(l as u32));
            (s.offered_pkts, s.dropped_pkts, s.transmitted_pkts)
        })
        .collect();
    (records, stats, sc.sim.events_processed())
}

#[test]
fn deterministic_replay_across_runs() {
    let mut rng = SimRng::new(0xDE7);
    for seed in [5u64, 9] {
        let case = random_case(&mut rng);
        let run = || {
            let (sc, _) = run_case(&case, seed);
            let links = total_links(&case, &sc);
            fingerprint(&sc, links)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seed {seed}: same-seed replay diverged");
        assert!(!a.0.is_empty(), "seed {seed} produced flow records");
    }
}

/// Arena leak-freedom: with a finite workload run far past completion,
/// every packet that entered the arena has been removed again —
/// `packets_in_flight` returns to zero — and repeating the run
/// reproduces the fingerprint byte-for-byte.
#[test]
fn arena_drains_and_runs_are_repeatable() {
    let mut rng = SimRng::new(0xA12E_4A11);
    let case = random_case(&mut rng);
    // One short transfer per router, generous horizon.
    let quiescent_run = || {
        let mut sc = case.spec.build(7);
        for r in 1..case.spec.routers {
            sc.add_bulk_clients_at(r, 1, 20_000, SimDuration::from_secs(1));
        }
        sc.run_until(SimTime::from_secs(120));
        let links = total_links(&case, &sc);
        (sc.sim.packets_in_flight(), fingerprint(&sc, links))
    };
    let (in_flight, first) = quiescent_run();
    assert!(
        !first.0.is_empty() && first.0.iter().all(|r| r.completed_at.is_some()),
        "every transfer finished before the horizon"
    );
    assert_eq!(in_flight, 0, "{in_flight} packets leaked in the arena");
    let (_, again) = quiescent_run();
    assert_eq!(first, again, "rerun diverged");
}
