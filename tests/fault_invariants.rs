//! Invariants the fault-injection layer must preserve.
//!
//! Three claims are checked against fault-laden dumbbell runs:
//!
//! 1. **Determinism** — a scenario with every packet-fault class armed
//!    plus a jittered bottleneck produces byte-identical `FlowLog`
//!    records, `TaqStats`, and fault counters for a fixed seed, no
//!    matter how many sweep threads execute it. This is the load-bearing
//!    property: fault traces replay exactly, so a failure found in a
//!    1000-seed sweep reproduces from its seed alone.
//! 2. **Bounded fairness degradation** — injecting moderate faults
//!    costs TAQ some short-term Jain fairness, but the drop is bounded
//!    and no slice-level shutouts appear.
//! 3. **No permanently silent flow** — under each individual fault
//!    class, every flow still completes its transfer. Faults delay
//!    flows; they must never wedge one forever.

use taq_bench::{fairness_run, sweep_seeds, Discipline, FairnessRunConfig};
use taq_faults::{FaultPlan, FaultStats, GilbertElliott};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime};
use taq_tcp::FlowRecord;
use taq_workloads::DumbbellSpec;

/// A fault plan arming every packet-fault class plus link jitter —
/// the worst case for determinism, since each class draws from its own
/// salted RNG stream and any cross-contamination would show up as a
/// divergent trace.
fn everything_plan(horizon: SimTime) -> FaultPlan {
    FaultPlan::none()
        .with_burst_loss(GilbertElliott::bursts(0.01, 5.0))
        .with_reorder(0.02, 3)
        .with_duplicate(0.005)
        .with_corrupt(0.005)
        .with_blackout(
            SimTime::from_secs(12),
            SimTime::from_secs(12) + SimDuration::from_millis(400),
        )
        .with_rate_jitter(SimDuration::from_millis(500), 0.7, 1.3, horizon)
}

/// One run's comparable outputs, field-exact via `PartialEq`.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    seed: u64,
    records: Vec<FlowRecord>,
    taq: taq::TaqStats,
    faults: FaultStats,
}

fn faulty_run(seed: u64) -> RunFingerprint {
    let horizon = SimTime::from_secs(40);
    let rate = Bandwidth::from_kbps(400);
    let spec =
        DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).faults(everything_plan(horizon));
    let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
    let built = Discipline::Taq.spec(buffer).build(rate, seed);
    let mut sc = spec.build_with_reverse(seed, built.forward, built.reverse);
    sc.add_bulk_clients(10, 40_000, SimDuration::from_secs(1));
    sc.run_until(horizon);
    let records = sc.log.lock().unwrap().records.clone();
    let taq = built.taq.expect("taq run").lock().unwrap().stats.clone();
    let faults = sc
        .fault_stats()
        .expect("fault plan installed")
        .lock()
        .unwrap()
        .clone();
    RunFingerprint {
        seed,
        records,
        taq,
        faults,
    }
}

#[test]
fn fault_laden_runs_are_byte_identical_at_any_thread_count() {
    let seeds = [3u64, 7, 11, 13];
    let serial = sweep_seeds(&seeds, 1, faulty_run);
    for threads in [2, 4] {
        let parallel = sweep_seeds(&seeds, threads, faulty_run);
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.seed, seeds[i], "results come back in input order");
            assert_eq!(
                s, p,
                "seed {} diverged between 1 and {threads} threads",
                s.seed
            );
        }
    }
    // The faults really fired — the equality above compared non-trivial
    // traces, not untouched links.
    for run in &serial {
        assert!(
            run.faults.burst_losses > 0 && run.faults.rate_changes > 0,
            "seed {} injected faults: {:?}",
            run.seed,
            run.faults
        );
        assert!(!run.records.is_empty() && run.taq.offered > 0);
    }
    // Distinct seeds produce distinct fault traces.
    assert_ne!(serial[0].faults, serial[1].faults);
}

#[test]
fn fairness_degrades_boundedly_under_moderate_faults() {
    let rate = Bandwidth::from_kbps(600);
    let duration = SimTime::from_secs(120);
    let clean_cfg = FairnessRunConfig::new(7, rate, 10, duration);
    let faulty_cfg = FairnessRunConfig::new(7, rate, 10, duration).faults(
        FaultPlan::none()
            .with_burst_loss(GilbertElliott::bursts(0.005, 4.0))
            .with_reorder(0.01, 3)
            .with_rate_jitter(SimDuration::from_secs(2), 0.8, 1.2, duration),
    );
    let clean = fairness_run(&clean_cfg, Discipline::Taq);
    let faulty = fairness_run(&faulty_cfg, Discipline::Taq);

    let injected = faulty.fault_stats.expect("faulty run reports stats");
    assert!(injected.burst_losses > 0, "faults fired: {injected:?}");
    assert!(clean.fault_stats.is_none(), "clean run has no fault layer");

    // Bounded Jain drop: moderate faults may cost fairness, but not
    // collapse it, and they must not shut any flow out of a slice.
    let drop = clean.short_term_jain - faulty.short_term_jain;
    assert!(
        drop <= 0.25,
        "short-term Jain dropped {:.3} -> {:.3} (delta {drop:.3})",
        clean.short_term_jain,
        faulty.short_term_jain
    );
    assert!(
        faulty.long_term_jain > 0.8,
        "long-term fairness survives faults: {:.3}",
        faulty.long_term_jain
    );
    assert!(
        faulty.shutout_fraction < 0.05,
        "no slice-level shutouts under moderate faults: {:.3}",
        faulty.shutout_fraction
    );
}

#[test]
fn no_fault_class_permanently_silences_a_flow() {
    let horizon = SimTime::from_secs(120);
    let classes: Vec<(&str, FaultPlan)> = vec![
        (
            "burst_loss",
            FaultPlan::none().with_burst_loss(GilbertElliott::bursts(0.02, 6.0)),
        ),
        ("reorder", FaultPlan::none().with_reorder(0.05, 4)),
        ("duplicate", FaultPlan::none().with_duplicate(0.02)),
        ("corrupt", FaultPlan::none().with_corrupt(0.01)),
        (
            "flaps",
            FaultPlan::none().with_flaps(
                2,
                SimTime::from_secs(8),
                SimDuration::from_secs(20),
                SimDuration::from_millis(600),
            ),
        ),
        (
            "rate_jitter",
            FaultPlan::none().with_rate_jitter(SimDuration::from_secs(1), 0.5, 1.2, horizon),
        ),
    ];
    for (name, plan) in classes {
        let rate = Bandwidth::from_kbps(600);
        let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).faults(plan);
        let buffer = rate.packets_per(SimDuration::from_millis(200), 500);
        let built = Discipline::Taq.spec(buffer).build(rate, 11);
        let mut sc = spec.build_with_reverse(11, built.forward, built.reverse);
        sc.add_bulk_clients(6, 30_000, SimDuration::from_secs(1));
        sc.run_until(horizon);
        let records = sc.log.lock().unwrap().records.clone();
        assert_eq!(records.len(), 6, "{name}: all transfers recorded");
        for r in &records {
            assert!(
                r.completed_at.is_some(),
                "{name}: flow tag {} never finished ({:?} faults: {:?})",
                r.tag,
                r,
                sc.fault_stats().map(|s| s.lock().unwrap().clone())
            );
        }
    }
}
