//! Execution-shape conformance: how a run is driven — one `run_until`,
//! many short ones with work scheduled in between, or a manual `step`
//! loop — is never observable.
//!
//! Random topologies run to quiescence three ways — one `run_until`;
//! `run_until` at random horizons with a [`Simulator::schedule_start`]
//! between chunks, at a time *earlier* than the minimum the finished
//! chunk's last peek located (the one push the event queue can see
//! behind its cursor); and a manual [`Simulator::step`] loop —
//! comparing the full recorded event trace (order included), the flow
//! log, per-link counters, TAQ statistics and the event count.

use taq_sim::{
    Bandwidth, EventRecorder, LinkStats, NodeId, RecordedEvent, SimDuration, SimRng, SimTime,
};
use taq_tcp::{ClientHost, FlowRecord, Request, TcpConfig};
use taq_workloads::{PipeSpec, QdiscSpec, TopologySpec};

/// Everything a serial run exposes, including the exact monitor trace.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<RecordedEvent>,
    records: Vec<FlowRecord>,
    links: Vec<LinkStats>,
    taq: Vec<Option<taq::TaqStats>>,
    processed: u64,
}

/// Draws a connected spanning tree over 3–5 routers with mixed
/// disciplines (TAQ included), kept small enough to run to quiescence
/// quickly.
fn random_spec(rng: &mut SimRng) -> TopologySpec {
    let routers = 3 + rng.next_below(3) as usize; // 3..=5
    let rates = [400u64, 600, 800];
    let delays = [10u64, 24, 48];
    let mut pipes = Vec::new();
    for i in 1..routers {
        let parent = rng.next_below(i as u64) as usize;
        let rate = Bandwidth::from_kbps(rates[rng.next_below(3) as usize]);
        let delay = SimDuration::from_millis(delays[rng.next_below(3) as usize]);
        let buffer = rate.packets_per(SimDuration::from_millis(200), 500).max(8);
        let qdisc = match rng.next_below(3) {
            0 => QdiscSpec::DropTail {
                buffer_pkts: buffer,
            },
            1 => QdiscSpec::Sfq {
                buffer_pkts: buffer,
            },
            _ => QdiscSpec::taq(buffer),
        };
        pipes.push(PipeSpec::new(parent, i, rate, delay, qdisc));
    }
    TopologySpec::new(routers, pipes)
}

/// Far enough out that every transfer in the fixture completes long
/// before it — every driver runs the event queue dry.
const HORIZON: SimTime = SimTime::from_secs(600);

/// How a case's event loop is driven.
#[derive(Clone, Copy)]
enum Driver {
    /// Every start scheduled up front, one `run_until`.
    OneRun,
    /// `run_until` to each joiner's chunk horizon, scheduling that
    /// joiner's start only once the chunk has returned.
    Chunked,
    /// Every start scheduled up front, a manual `step` loop.
    StepLoop,
}

/// A late-joining client: the chunk horizon before it, and its start.
struct Joiner {
    horizon: SimTime,
    router: usize,
    start: SimTime,
}

/// Draws increasing chunk horizons over the busy first seconds of a
/// case, each with a joiner starting at or just after it. `run_until`
/// returns having peeked a minimum strictly later than its horizon, so
/// a start *at* the horizon (every other joiner) always orders before
/// that minimum; the rest land within 2 ms, on either side of it.
fn random_joiners(rng: &mut SimRng, routers: usize) -> Vec<Joiner> {
    let mut horizon = SimTime::ZERO;
    (0..24)
        .map(|i| {
            horizon += SimDuration::from_nanos(rng.range_u64(1_000_000, 400_000_000));
            let after = if i % 2 == 0 {
                0
            } else {
                rng.range_u64(0, 2_000_000)
            };
            Joiner {
                horizon,
                router: 1 + rng.next_below(routers as u64 - 1) as usize,
                start: horizon + SimDuration::from_nanos(after),
            }
        })
        .collect()
}

/// Runs `spec` plus `joiners` to quiescence under `driver` and
/// fingerprints it.
fn run_case(spec: &TopologySpec, joiners: &[Joiner], driver: Driver, seed: u64) -> Trace {
    let mut sc = spec.build(seed);
    let recorder = sc.sim.add_monitor(Box::new(EventRecorder::default()));
    for r in 1..spec.routers {
        sc.add_bulk_clients_at(r, 2, 150_000, SimDuration::from_secs(1));
    }
    // Joiners are wired before the run in every driver (node and link
    // ids match); only *when* their start is scheduled differs.
    let nodes: Vec<NodeId> = joiners
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let mut c = ClientHost::new(TcpConfig::default(), sc.server, 80, 1, sc.log.clone());
            c.push_request(Request {
                tag: 1_000 + i as u64,
                bytes: 20_000,
            });
            let node = sc.sim.add_agent(Box::new(c));
            sc.topo.attach_host(&mut sc.sim, node, j.router);
            sc.clients.push(node);
            node
        })
        .collect();
    match driver {
        Driver::Chunked => {
            for (j, &node) in joiners.iter().zip(&nodes) {
                sc.sim.run_until(j.horizon);
                sc.sim.schedule_start(node, j.start);
            }
        }
        Driver::OneRun | Driver::StepLoop => {
            for (j, &node) in joiners.iter().zip(&nodes) {
                sc.sim.schedule_start(node, j.start);
            }
        }
    }
    if let Driver::StepLoop = driver {
        while sc.sim.step() {}
    }
    // Drains the queue (already empty after a step loop) and does the
    // end-of-run bookkeeping: client flush, clock advance.
    sc.run_until(HORIZON);
    assert_eq!(sc.sim.packets_in_flight(), 0, "fixture must quiesce");
    let log = std::mem::take(&mut *sc.log.lock().unwrap());
    let links = (0..spec.pipes.len())
        .flat_map(|i| [sc.pipe_link(i), sc.pipe_reverse(i)])
        .map(|l| sc.sim.link_stats(l).clone())
        .collect();
    let taq = sc
        .taq_states
        .iter()
        .map(|s| s.as_ref().map(|s| s.lock().unwrap().stats.clone()))
        .collect();
    Trace {
        events: sc
            .sim
            .monitor::<EventRecorder>(recorder)
            .expect("recorder present")
            .events
            .clone(),
        records: log.records,
        links,
        taq,
        processed: sc.sim.events_processed(),
    }
}

#[test]
fn chunked_run_until_matches_one_run() {
    let mut rng = SimRng::new(0xBA7C4);
    for case in 0..3u64 {
        let spec = random_spec(&mut rng);
        let joiners = random_joiners(&mut rng, spec.routers);
        let seed = 100 + case;
        let one = run_case(&spec, &joiners, Driver::OneRun, seed);
        assert!(
            one.processed > 1_000,
            "case {case}: fixture too small ({} events)",
            one.processed
        );
        // Bulk traffic outlasts the last chunk, so every chunk returns
        // with a later event already peeked.
        let last = joiners.last().expect("joiners drawn").start;
        assert!(
            one.records
                .iter()
                .any(|r| r.tag < 1_000 && r.completed_at.is_some_and(|t| t > last)),
            "case {case}: bulk transfers ended before the last joiner"
        );
        assert_eq!(
            one.records.len(),
            2 * (spec.routers - 1) + joiners.len(),
            "case {case}: every transfer is logged"
        );
        let chunked = run_case(&spec, &joiners, Driver::Chunked, seed);
        assert_eq!(one, chunked, "case {case}: chunked run diverged");
        let stepped = run_case(&spec, &joiners, Driver::StepLoop, seed);
        assert_eq!(one, stepped, "case {case}: step loop diverged");
    }
}
