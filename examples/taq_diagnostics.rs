//! Diagnostic harness comparing DropTail and TAQ internals on the
//! fairness scenario, reported through the unified telemetry layer: a
//! [`SummarySink`] aggregates every structured event the middlebox and
//! simulator emit (state transitions, classification, staged drops,
//! queue-depth samples, link records) and renders one table per run.
//! Both runs use the default TCP (1 s minimum RTO) and, for TAQ, the
//! default `TaqConfig` for the link.
//!
//! Run with: `cargo run --release --example taq_diagnostics`

use taq::QueueClass;
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_sim::{Bandwidth, DumbbellConfig, SimDuration, SimTime, TelemetryBridge};
use taq_tcp::ServerHost;
use taq_telemetry::{shared_sink, SummarySink, Telemetry};
use taq_workloads::{DumbbellSpec, QdiscSpec, BULK_BYTES};

/// Bulk flows sharing the 600 kbps bottleneck.
const FLOWS: usize = 60;
/// Window of the evolution tracker behind `stalled_frac`.
const EVOLUTION_WINDOW: SimDuration = SimDuration::from_secs(1);

fn run(name: &str, qdisc: fn(usize) -> QdiscSpec) {
    let topo = DumbbellConfig::with_rtt_200ms(Bandwidth::from_kbps(600));
    let qdisc = qdisc(topo.buffer_pkts());

    let telemetry = Telemetry::new();
    let (summary, erased) = shared_sink(SummarySink::new());
    telemetry.add_shared_sink(erased);

    let mut sc = DumbbellSpec::new(topo).build(42, &qdisc);
    let taq_state = sc.taq_state(0).cloned();
    if let Some(state) = &taq_state {
        state.lock().unwrap().attach_telemetry(telemetry.clone());
    }
    let bottleneck = sc.db.bottleneck;
    let bridge = TelemetryBridge::new(telemetry.clone()).only(bottleneck);
    sc.sim.add_monitor(Box::new(bridge));
    let slices = sc.sim.add_monitor(Box::new(SliceThroughput::new(
        bottleneck,
        SimDuration::from_secs(20),
    )));
    let evo = sc.sim.add_monitor(Box::new(EvolutionTracker::new(
        bottleneck,
        EVOLUTION_WINDOW,
    )));
    sc.add_bulk_clients(FLOWS, BULK_BYTES, SimDuration::from_secs(2));
    let wall = std::time::Instant::now();
    sc.run_until(SimTime::from_secs(300));
    sc.sim.emit_telemetry_summary(&telemetry, wall.elapsed());
    telemetry.flush();

    let stats = sc.sim.link_stats(bottleneck);
    let srv = sc.sim.agent::<ServerHost>(sc.server).unwrap();
    let agg = srv.aggregate_stats();
    let slices = sc
        .sim
        .monitor::<SliceThroughput>(slices)
        .expect("slice monitor");
    let jain = slices.mean_jain(2, 15, FLOWS);
    let series = sc
        .sim
        .monitor::<EvolutionTracker>(evo)
        .expect("evolution monitor")
        .series();
    let (mut stalled, mut total) = (0, 0);
    for c in &series[series.len() / 4..] {
        stalled += c.stalled;
        total += c.total();
    }
    println!("== {name}");
    println!(
        "  jain20={jain:.3} util={:.3} drops={} ({:.1}%) tx={}",
        stats.utilization(SimDuration::from_secs(300)),
        stats.dropped_pkts,
        100.0 * stats.drop_rate(),
        stats.transmitted_pkts
    );
    println!(
        "  srv: timeouts={} fast_rtx={} retx={} sent={} max_backoff={}",
        agg.timeouts, agg.fast_retransmits, agg.retransmits, agg.segments_sent, agg.max_backoff
    );
    println!("  stalled_frac={:.3}", stalled as f64 / total.max(1) as f64);
    if let Some(state) = taq_state {
        let mut st = state.lock().unwrap();
        println!("  taq stats snapshot: {}", st.stats.snapshot().to_json());
        println!(
            "    flows tracked={} fair_share={:.0}bps",
            st.flows.len(),
            st.fair_share(SimTime::from_secs(300))
        );
        let mut states: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for f in st.flows.iter() {
            *states.entry(f.state.name()).or_default() += 1;
        }
        let states: Vec<String> = states.iter().map(|(s, n)| format!("{s}={n}")).collect();
        println!("    final states: {}", states.join(" "));
        for class in QueueClass::ALL {
            println!("    {class}: {} pkts admitted", st.stats.class_count(class));
        }
        let rates: Vec<u64> = st.flows.iter().map(|f| f.rate_bps() as u64).collect();
        println!(
            "    rate est: min={:?} max={:?}",
            rates.iter().min(),
            rates.iter().max()
        );
    }
    println!();
    print!("{}", summary.lock().unwrap().render(name));
}

fn main() {
    run("droptail", |buffer_pkts| QdiscSpec::DropTail {
        buffer_pkts,
    });
    run("taq", QdiscSpec::taq);
}
