//! Compile-time proof that the simulation stack is `Send`.
//!
//! The sweep runner (taq-bench) moves fully-built scenarios into
//! `std::thread::scope` workers, so everything a run owns — the
//! simulator with its agents, qdiscs and monitors, the flow log, the
//! TAQ state pair, the telemetry hub — must be `Send`. These
//! assertions are evaluated at compile time: a regression that
//! reintroduces an `Rc`/`RefCell` anywhere in the object graph fails
//! this test's *build*, not just its run.

use taq::{TaqPair, TaqQdisc, TaqReverseQdisc};
use taq_metrics::SliceThroughput;
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime, Simulator};
use taq_tcp::TcpConfig;
use taq_telemetry::{shared_sink, RingBufferSink, Telemetry};
use taq_workloads::{DumbbellScenario, DumbbellSpec, QdiscSpec, BULK_BYTES};

fn assert_send<T: Send>() {}

#[test]
fn simulation_types_are_send() {
    assert_send::<Simulator>();
    assert_send::<TaqQdisc>();
    assert_send::<TaqReverseQdisc>();
    assert_send::<TaqPair>();
    assert_send::<DumbbellScenario>();
    assert_send::<Telemetry>();
    assert_send::<taq_tcp::SharedFlowLog>();
    assert_send::<taq::SharedTaq>();
}

/// The dynamic counterpart: a *fully populated* scenario — TAQ
/// forward/reverse pair sharing state, bulk clients, a throughput
/// monitor, and an active telemetry hub with a sink — built on one
/// thread, moved to another, run there, and inspected back on the
/// first.
#[test]
fn fully_populated_scenario_runs_on_another_thread() {
    let rate = Bandwidth::from_kbps(600);
    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).tcp(TcpConfig::default());

    let telemetry = Telemetry::new();
    let (ring, erased) = shared_sink(RingBufferSink::new(256));
    telemetry.add_shared_sink(erased);

    let mut sc = spec.build(11, &QdiscSpec::taq(spec.topo.buffer_pkts()));
    let state = sc.taq_state(0).expect("TAQ state").clone();
    state.lock().unwrap().attach_telemetry(telemetry.clone());
    let bottleneck = sc.db.bottleneck;
    let slices = sc.sim.add_monitor(Box::new(SliceThroughput::new(
        bottleneck,
        SimDuration::from_secs(5),
    )));
    sc.add_bulk_clients(8, BULK_BYTES, SimDuration::from_secs(1));

    let sc = std::thread::scope(|scope| {
        scope
            .spawn(move || {
                sc.run_until(SimTime::from_secs(20));
                sc
            })
            .join()
            .expect("worker thread panicked")
    });

    let transmitted = sc.sim.link_stats(bottleneck).transmitted_pkts;
    assert!(transmitted > 0, "the remote run moved packets");
    let jain = sc
        .sim
        .monitor::<SliceThroughput>(slices)
        .expect("slice monitor")
        .mean_jain(1, 4, 8);
    assert!((0.0..=1.0).contains(&jain));
    assert!(
        state.lock().unwrap().stats.offered > 0,
        "TAQ state observed from the spawning thread after the run"
    );
    telemetry.flush();
    assert!(
        ring.lock().unwrap().count("classified") > 0,
        "telemetry events crossed the thread boundary"
    );
}
