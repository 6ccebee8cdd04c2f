//! Cross-thread determinism: a run's outputs depend only on (seed,
//! config), never on which thread executed it or what else ran
//! concurrently.
//!
//! The same seeds are run serially (threads = 1) and through the sweep
//! pool (threads = 2); per-seed `FlowLog` completion records and
//! `TaqStats` snapshots must be byte-identical, and the merged result
//! order must match the input seed order regardless of scheduling.

use taq_bench::{
    fairness_grid, fairness_run, sweep_indexed, sweep_seeds, Discipline, FairnessRunConfig,
};
use taq_faults::{
    shared_fault_stats, FaultDriver, FaultPlan, FaultStats, FaultyLink, GilbertElliott,
};
use taq_sim::{
    Agent, Bandwidth, Ctx, DumbbellConfig, NodeId, Packet, Qdisc, SimDuration, SimRng, SimTime,
    Simulator, UnboundedFifo,
};
use taq_tcp::{new_flow_log, ClientHost, FlowRecord, Request, ServerHost};
use taq_workloads::{weblog, BuiltPipe, DumbbellSpec, ObjectSizeModel};

/// One run's comparable outputs: every flow-log record plus the TAQ
/// counter snapshot. Both types derive `PartialEq`, so equality here
/// is field-exact.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    seed: u64,
    records: Vec<FlowRecord>,
    taq: taq::TaqStats,
}

fn run(spec: &DumbbellSpec, seed: u64) -> RunFingerprint {
    let FullFingerprint { records, taq, .. } = run_spec(spec, seed);
    RunFingerprint { seed, records, taq }
}

/// The workload the sweep and conformance tests run: ten 40 KB
/// downloads with starts staggered over one second, for 40 simulated
/// seconds.
const ORACLE_FLOWS: usize = 10;
const ORACLE_BYTES: u64 = 40_000;
const ORACLE_STAGGER: SimDuration = SimDuration::from_secs(1);
const ORACLE_HORIZON: SimTime = SimTime::from_secs(40);

fn taq_pipe(spec: &DumbbellSpec, seed: u64) -> BuiltPipe {
    let rate = spec.topo.bottleneck_rate;
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    Discipline::Taq.spec(buffer).build(rate, seed)
}

/// The product path: `DumbbellSpec`, i.e. the two-router recipe over
/// the topology engine.
fn run_spec(spec: &DumbbellSpec, seed: u64) -> FullFingerprint {
    let built = taq_pipe(spec, seed);
    let mut sc = spec.build_with_reverse(seed, built.forward, built.reverse);
    sc.add_bulk_clients(ORACLE_FLOWS, ORACLE_BYTES, ORACLE_STAGGER);
    sc.run_until(ORACLE_HORIZON);
    let records = sc.log.lock().unwrap().records.clone();
    FullFingerprint {
        records,
        taq: built.taq.expect("taq run").lock().unwrap().stats.clone(),
        faults: sc.fault_stats().map(|s| s.lock().unwrap().clone()),
        events: sc.sim.events_processed(),
    }
}

/// A router as an agent: takes each packet out of the arena by value
/// and puts it back with `Ctx::forward`, where the engine's own routers
/// forward the id in place.
struct Relay;

impl Agent for Relay {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        ctx.forward(pkt.flow.dst, pkt);
    }
}

/// The independent oracle: the same experiment wired by hand from raw
/// `Simulator` calls, sharing nothing with `Topology`, `TopologySpec`
/// or `TopoScenario`. Two by-value [`Relay`]s with *default* routes
/// across the bottleneck (the topology engine creates engine routers
/// and installs explicit per-host routes instead), the fault layer, the
/// server, the fault driver, then the clients with the workload RNG's
/// start and access-delay draws.
fn run_hand_wired(spec: &DumbbellSpec, seed: u64) -> FullFingerprint {
    let cfg = &spec.topo;
    let built = taq_pipe(spec, seed);
    let fault_stats = (!spec.faults.is_none()).then(shared_fault_stats);
    let forward: Box<dyn Qdisc> = match &fault_stats {
        Some(stats) if spec.faults.has_packet_faults() => Box::new(FaultyLink::new(
            built.forward,
            &spec.faults,
            0, // the bottleneck is the first link created
            seed,
            spec.telemetry.clone(),
            stats.clone(),
        )),
        _ => built.forward,
    };

    let mut sim = Simulator::new(seed);
    let left = sim.add_agent(Box::new(Relay));
    let right = sim.add_agent(Box::new(Relay));
    let bottleneck = sim.add_link(
        left,
        right,
        cfg.bottleneck_rate,
        cfg.bottleneck_delay,
        forward,
    );
    let reverse = sim.add_link(
        right,
        left,
        cfg.bottleneck_rate,
        cfg.bottleneck_delay,
        built.reverse,
    );
    sim.set_default_route(left, bottleneck);
    sim.set_default_route(right, reverse);
    let attach = |sim: &mut Simulator, router: NodeId, host: NodeId, delay: SimDuration| {
        let fifo = || Box::new(UnboundedFifo::new());
        let up = sim.add_link(host, router, cfg.access_rate, delay, fifo());
        let down = sim.add_link(router, host, cfg.access_rate, delay, fifo());
        sim.set_default_route(host, up);
        sim.add_route(router, host, down);
    };

    let server = sim.add_agent(Box::new(ServerHost::new(spec.tcp.clone(), 80)));
    attach(&mut sim, left, server, cfg.access_delay);
    if let Some(stats) = &fault_stats {
        if let Some(driver) = FaultDriver::from_plan(
            &spec.faults,
            bottleneck,
            cfg.bottleneck_rate,
            seed,
            spec.telemetry.clone(),
            stats.clone(),
        ) {
            let node = sim.add_agent(Box::new(driver));
            sim.schedule_start(node, SimTime::ZERO);
        }
    }

    let mut rng = SimRng::new(seed ^ 0x5CEA_A210).split(1);
    let log = new_flow_log();
    let mut clients = Vec::new();
    for tag in 0..ORACLE_FLOWS as u64 {
        let offset = SimDuration::from_nanos(rng.range_u64(0, ORACLE_STAGGER.as_nanos()));
        let jitter = SimDuration::from_micros(rng.range_u64(0, 10_000));
        let mut client = ClientHost::new(spec.tcp.clone(), server, 80, 1, log.clone());
        client.push_request(Request {
            tag,
            bytes: ORACLE_BYTES,
        });
        let node = sim.add_agent(Box::new(client));
        attach(&mut sim, right, node, cfg.access_delay + jitter);
        sim.schedule_start(node, SimTime::ZERO + offset);
        clients.push(node);
    }

    sim.run_until(ORACLE_HORIZON);
    for node in clients {
        sim.agent_mut::<ClientHost>(node)
            .expect("client host")
            .flush_incomplete();
    }
    let records = log.lock().unwrap().records.clone();
    FullFingerprint {
        records,
        taq: built.taq.expect("taq run").lock().unwrap().stats.clone(),
        faults: fault_stats.map(|s| s.lock().unwrap().clone()),
        events: sim.events_processed(),
    }
}

/// Conformance: `DumbbellSpec` — the dumbbell as a two-router recipe
/// over the topology engine — is byte-identical to the dumbbell wired
/// by hand: same `FlowLog` records, same `TaqStats`, same event count,
/// at every sweep thread count.
#[test]
fn dumbbell_as_topology_is_byte_identical() {
    let seeds = [3u64, 7, 11];
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(400)));
    for threads in [1usize, 2, 4] {
        let oracle = sweep_seeds(&seeds, threads, |seed| run_hand_wired(&spec, seed));
        let topo = sweep_seeds(&seeds, threads, |seed| run_spec(&spec, seed));
        for ((o, t), seed) in oracle.iter().zip(&topo).zip(seeds) {
            assert!(
                !o.records.is_empty() && o.taq.offered > 0,
                "seed {seed} produced work"
            );
            assert!(o.faults.is_none(), "seed {seed}: clean run");
            assert_eq!(
                o, t,
                "seed {seed} threads {threads}: topology diverged from the hand-wired dumbbell"
            );
        }
    }
}

/// Conformance under faults: packet faults (burst loss + duplication)
/// and the link-schedule fault driver replay identically through the
/// recipe and the hand-wired oracle, including the `FaultStats`
/// counters and the total event count.
#[test]
fn faulty_dumbbell_as_topology_is_byte_identical() {
    let plan = FaultPlan::none()
        .with_burst_loss(GilbertElliott::bursts(0.02, 6.0))
        .with_duplicate(0.02)
        .with_rate_jitter(
            SimDuration::from_millis(500),
            0.7,
            1.3,
            SimTime::from_secs(20),
        );
    let rate = Bandwidth::from_kbps(400);
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).faults(plan);

    for seed in [3u64, 11] {
        let oracle = run_hand_wired(&spec, seed);
        let topo = run_spec(&spec, seed);
        let f = oracle.faults.as_ref().expect("fault stats present");
        assert!(f.total() > 0, "seed {seed} injected faults");
        assert!(f.rate_changes > 0, "seed {seed} drove the link schedule");
        assert_eq!(oracle, topo, "seed {seed}: faulty topology diverged");
    }
}

#[test]
fn serial_and_parallel_sweeps_agree_exactly() {
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(400)));
    let seeds = [3u64, 7, 11, 13];

    let serial = sweep_seeds(&seeds, 1, |seed| run(&spec, seed));
    let parallel = sweep_seeds(&seeds, 2, |seed| run(&spec, seed));

    assert_eq!(serial.len(), seeds.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.seed, seeds[i], "results come back in input order");
        assert!(
            !s.records.is_empty() && s.taq.offered > 0,
            "seed {} produced work",
            s.seed
        );
        assert_eq!(s, p, "seed {} diverged across thread counts", s.seed);
    }

    // Distinct seeds genuinely differ — the equality above is not
    // comparing trivially identical runs.
    assert_ne!(serial[0].records, serial[1].records);
}

/// The three scenario shapes the thread-count suite pins:
/// Figure 1-style flow churn, the Figure 8 many-flow regime, and a
/// faulty link.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Short web downloads with heavy flow churn (fig01 shape).
    Churn,
    /// Many long-lived flows squeezed below one packet per RTT
    /// (fig08 shape).
    ManyFlow,
    /// Bulk flows through a bursty-loss, duplicating link.
    Faults,
}

/// Every output the run produces that experiments consume.
#[derive(Debug, PartialEq)]
struct FullFingerprint {
    records: Vec<FlowRecord>,
    taq: taq::TaqStats,
    faults: Option<FaultStats>,
    events: u64,
}

fn run_shape(shape: Shape, seed: u64) -> FullFingerprint {
    let rate = Bandwidth::from_kbps(400);
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, seed);
    let mut spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate));
    if matches!(shape, Shape::Faults) {
        spec = spec.faults(
            FaultPlan::none()
                .with_burst_loss(GilbertElliott::bursts(0.02, 6.0))
                .with_duplicate(0.02),
        );
    }
    let mut sc = spec.build_with_reverse(seed, built.forward, built.reverse);
    match shape {
        Shape::Churn => {
            let cfg = weblog::WebLogConfig {
                duration: SimDuration::from_secs(30),
                clients: 20,
                requests_per_sec: 4.0,
                sizes: ObjectSizeModel::web_default(),
            };
            let mut rng = SimRng::new(seed ^ 7);
            let log = weblog::generate(&cfg, &mut rng);
            for (_client, entries) in weblog::by_client(&log) {
                sc.add_scheduled_client(&entries, 4, SimTime::ZERO);
            }
            sc.run_until(SimTime::from_secs(40));
        }
        Shape::ManyFlow => {
            sc.add_bulk_clients(40, 20_000, SimDuration::from_secs(1));
            sc.run_until(SimTime::from_secs(30));
        }
        Shape::Faults => {
            sc.add_bulk_clients(10, 40_000, SimDuration::from_secs(1));
            sc.run_until(SimTime::from_secs(40));
        }
    }
    let records = sc.log.lock().unwrap().records.clone();
    let taq = built.taq.expect("taq run").lock().unwrap().stats.clone();
    let faults = sc.fault_stats().map(|s| s.lock().unwrap().clone());
    let events = sc.sim.events_processed();
    FullFingerprint {
        records,
        taq,
        faults,
        events,
    }
}

/// Every scenario shape produces byte-identical flow logs, TAQ
/// counters, fault counters and event counts whether its seeds run on
/// one sweep thread or two.
#[test]
fn scenario_shapes_are_thread_count_invariant() {
    for shape in [Shape::Churn, Shape::ManyFlow, Shape::Faults] {
        let seeds = [3u64, 11];
        let serial = sweep_seeds(&seeds, 1, |seed| run_shape(shape, seed));
        let parallel = sweep_seeds(&seeds, 2, |seed| run_shape(shape, seed));
        for ((s, p), seed) in serial.iter().zip(&parallel).zip(seeds) {
            assert!(
                !s.records.is_empty() && s.taq.offered > 0,
                "{shape:?} seed {seed} produced work"
            );
            if matches!(shape, Shape::Faults) {
                let f = s.faults.as_ref().expect("fault stats present");
                assert!(f.total() > 0, "{shape:?} seed {seed} injected faults");
            }
            assert_eq!(s, p, "{shape:?} seed {seed}: thread counts diverged");
        }
    }
}

/// The Figure 2 / Figure 8 grid, run the way `fig02_fairness_droptail`
/// and `fig08_fairness_taq` run it (one `sweep_indexed` call over the
/// cells), yields the same results in grid order on one worker and on
/// two. Every field of every result is compared, which is more than the
/// three decimals a printed row shows. The 200 kbps row at 60 simulated
/// seconds keeps it to a few seconds.
#[test]
fn figure_grid_is_thread_count_invariant() {
    let grid = fairness_grid();
    assert_eq!(grid.len(), 34, "5 rates x 7 shares, 4..=400 flows kept");
    assert!(grid
        .windows(2)
        .all(|w| { (w[0].rate_kbps, w[0].share_bps) < (w[1].rate_kbps, w[1].share_bps) }));
    let row: Vec<_> = grid.into_iter().filter(|c| c.rate_kbps == 200).collect();
    assert_eq!(row.len(), 7);
    let sweep = |threads| {
        sweep_indexed(&row, threads, |_, cell| {
            let rate = Bandwidth::from_kbps(cell.rate_kbps);
            let cfg = FairnessRunConfig::new(42, rate, cell.flows, SimTime::from_secs(60));
            [Discipline::Taq, Discipline::DropTail].map(|d| format!("{:?}", fairness_run(&cfg, d)))
        })
    };
    let serial = sweep(1);
    assert_eq!(serial, sweep(2));
    assert_ne!(serial[0], serial[1], "cells genuinely differ");
}
