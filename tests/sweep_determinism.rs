//! Cross-thread determinism: a run's outputs depend only on (seed,
//! config), never on which thread executed it or what else ran
//! concurrently.
//!
//! The same seeds are run serially (threads = 1) and through the sweep
//! pool (threads = 2); per-seed `FlowLog` completion records and
//! `TaqStats` snapshots must be byte-identical, and the merged result
//! order must match the input seed order regardless of scheduling.

use taq_bench::{build_qdisc, sweep_seeds, Discipline};
use taq_faults::{FaultPlan, FaultStats, GilbertElliott};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimRng, SimTime};
use taq_tcp::FlowRecord;
use taq_workloads::{weblog, DumbbellSpec, ObjectSizeModel, QdiscSpec};

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
    let rate = spec.topo.bottleneck_rate;
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = build_qdisc(Discipline::Taq, rate, buffer, seed);
    let mut sc = spec.build_with_reverse(seed, built.forward, built.reverse);
    sc.add_bulk_clients(10, 40_000, SimDuration::from_secs(1));
    sc.run_until(SimTime::from_secs(40));
    let records = sc.log.lock().unwrap().records.clone();
    let taq = built
        .taq_state
        .expect("taq run")
        .lock()
        .unwrap()
        .stats
        .clone();
    RunFingerprint { seed, records, taq }
}

/// The same workload as [`run`], but through the generic topology
/// engine: the dumbbell expressed as a two-router `TopologySpec`, with
/// the TAQ pipe built from a `QdiscSpec` instead of the bench helper.
fn run_topo(spec: &DumbbellSpec, seed: u64) -> RunFingerprint {
    let rate = spec.topo.bottleneck_rate;
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let mut sc = spec.to_topology(QdiscSpec::taq(buffer)).build(seed);
    sc.add_bulk_clients_at(1, 10, 40_000, SimDuration::from_secs(1));
    sc.run_until(SimTime::from_secs(40));
    let records = sc.log.lock().unwrap().records.clone();
    let taq = sc
        .taq_state(0)
        .expect("taq pipe")
        .lock()
        .unwrap()
        .stats
        .clone();
    RunFingerprint { seed, records, taq }
}

/// Conformance: the dumbbell expressed as a `TopologySpec` is
/// byte-identical to the `DumbbellSpec` code path — same `FlowLog`
/// records, same `TaqStats` — at every sweep thread count. This pins
/// the topology engine as a strict generalization of everything
/// measured on the dumbbell.
#[test]
fn dumbbell_as_topology_is_byte_identical() {
    let seeds = [3u64, 7, 11];
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(400)));
    for threads in [1usize, 2, 4] {
        let dumbbell = sweep_seeds(&seeds, threads, |seed| run(&spec, seed));
        let topo = sweep_seeds(&seeds, threads, |seed| run_topo(&spec, seed));
        for (d, t) in dumbbell.iter().zip(&topo) {
            assert!(
                !d.records.is_empty() && d.taq.offered > 0,
                "seed {} produced work",
                d.seed
            );
            assert_eq!(
                d, t,
                "seed {} threads {threads}: topology diverged from dumbbell",
                d.seed
            );
        }
    }
}

/// Conformance under faults: packet faults (burst loss + duplication)
/// and the link-schedule fault driver replay identically through both
/// code paths, including the `FaultStats` counters and the total event
/// count.
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
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).faults(plan);

    for seed in [3u64, 11] {
        let built = build_qdisc(Discipline::Taq, rate, buffer, seed);
        let mut db_sc = spec.build_with_reverse(seed, built.forward, built.reverse);
        db_sc.add_bulk_clients(10, 40_000, SimDuration::from_secs(1));
        db_sc.run_until(SimTime::from_secs(40));
        let db_fp = FullFingerprint {
            records: db_sc.log.lock().unwrap().records.clone(),
            taq: built.taq_state.unwrap().lock().unwrap().stats.clone(),
            faults: db_sc
                .fault_stats
                .as_ref()
                .map(|s| s.lock().unwrap().clone()),
            events: db_sc.sim.events_processed(),
        };

        let mut topo_sc = spec.to_topology(QdiscSpec::taq(buffer)).build(seed);
        topo_sc.add_bulk_clients_at(1, 10, 40_000, SimDuration::from_secs(1));
        topo_sc.run_until(SimTime::from_secs(40));
        let topo_fp = FullFingerprint {
            records: topo_sc.log.lock().unwrap().records.clone(),
            taq: topo_sc
                .taq_state(0)
                .expect("taq pipe")
                .lock()
                .unwrap()
                .stats
                .clone(),
            faults: topo_sc.pipe_faults[0]
                .as_ref()
                .map(|s| s.lock().unwrap().clone()),
            events: topo_sc.sim.events_processed(),
        };

        let f = db_fp.faults.as_ref().expect("fault stats present");
        assert!(f.total() > 0, "seed {seed} injected faults");
        assert!(f.rate_changes > 0, "seed {seed} drove the link schedule");
        assert_eq!(db_fp, topo_fp, "seed {seed}: faulty topology diverged");
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
    let built = build_qdisc(Discipline::Taq, rate, buffer, seed);
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
    let taq = built
        .taq_state
        .expect("taq run")
        .lock()
        .unwrap()
        .stats
        .clone();
    let faults = sc.fault_stats.as_ref().map(|s| s.lock().unwrap().clone());
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
