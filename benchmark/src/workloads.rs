//! The five workloads. A *round* is what a `fig*` binary does per cell:
//! build the scenario, `run_until(horizon)`, extract the results — here
//! followed by the correctness checks the benchmark counts as
//! `attempted` / `failed`.
//!
//! All five run on `DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate))`
//! with a buffer of `rate.packets_per(200 ms, 500)`; the four scenario
//! workloads build their discipline with `QdiscSpec::…build(rate, seed)`
//! and install both halves with `build_with_reverse`, so TAQ sees ACKs
//! and SYNs as a deployed middlebox does.

use crate::harness::{self, allocs, phase, Fnv, HostSpeed, RoundClock, Segment};
use crate::wrappers::{shared_probe, HeaderLog, SharedProbe, TimedMonitor, TimedQdisc, TimedSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use taq::TaqStats;
use taq_bench::{fairness_run, sweep_indexed, Discipline, FairnessRunConfig, FairnessRunResult};
use taq_metrics::{Distribution, EvolutionTracker, SliceThroughput};
use taq_sim::{
    Bandwidth, DumbbellConfig, LinkStats, Packet, SimDuration, SimRng, SimTime, TelemetryBridge,
};
use taq_telemetry::{shared_sink, SummarySink, Telemetry};
use taq_trace::{TraceCollector, TraceConfig};
use taq_workloads::{flows_for_fair_share, weblog, DumbbellSpec, QdiscSpec, BULK_BYTES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WeblogChurn,
    ManyflowTaq,
    ManyflowDroptail,
    WeblogAttached,
    FigureSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WeblogChurn,
        Workload::ManyflowTaq,
        Workload::ManyflowDroptail,
        Workload::WeblogAttached,
        Workload::FigureSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WeblogChurn => "weblog_churn",
            Workload::ManyflowTaq => "manyflow_taq",
            Workload::ManyflowDroptail => "manyflow_droptail",
            Workload::WeblogAttached => "weblog_attached",
            Workload::FigureSweep => "figure_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_weblog(self) -> bool {
        matches!(self, Workload::WeblogChurn | Workload::WeblogAttached)
    }
}

/// Drain time after the last logged request, as `bench_report` has it.
const WEBLOG_DRAIN: SimDuration = SimDuration::from_secs(60);
/// Connections per client in the web-log replays (Fig. 1's setting).
const WEBLOG_CONNS: usize = 4;
/// Fair share the many-flow workloads aim at: the sub-packet regime.
const MANYFLOW_SHARE_BPS: u64 = 2_000;
/// Legs a scenario round's `run_until` is split into.
const RUN_SEGMENTS: u64 = 16;
/// Fairness slice and evolution window, as `fairness_run` has them.
const SLICE: SimDuration = SimDuration::from_secs(20);
const EVOLUTION_WINDOW: SimDuration = SimDuration::from_secs(2);

/// Input sizes. Flow counts and buffer sizes are the point of the
/// workloads (ring length, table population) and are never reduced at
/// full size; simulated seconds are what was cut to fit the run budget.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `campus_two_hour` divisor for `weblog_churn`.
    churn_scale: u32,
    /// `campus_two_hour` divisor for `weblog_attached`.
    attached_scale: u32,
    manyflow_rate: Bandwidth,
    manyflow_taq_secs: u64,
    manyflow_droptail_secs: u64,
    sweep_rates_kbps: &'static [u64],
    sweep_shares_bps: &'static [u64],
    /// The row that also runs RED and SFQ.
    sweep_queues_row_kbps: u64,
    sweep_secs: u64,
    /// Headers the component loops replay.
    pub capture_cap: usize,
    capture_secs: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            churn_scale: 8,
            attached_scale: 16,
            manyflow_rate: Bandwidth::from_mbps(10),
            manyflow_taq_secs: 60,
            manyflow_droptail_secs: 120,
            sweep_rates_kbps: &[200, 400, 600, 800, 1_000],
            sweep_shares_bps: &[2_000, 5_000, 10_000, 15_000, 20_000, 30_000, 50_000],
            sweep_queues_row_kbps: 600,
            sweep_secs: 80,
            capture_cap: 200_000,
            capture_secs: 20,
        }
    }

    /// Toy sizes for `--smoke`: every code path, seconds of wall clock.
    pub fn smoke() -> Size {
        Size {
            churn_scale: 96,
            attached_scale: 192,
            manyflow_rate: Bandwidth::from_mbps(1),
            manyflow_taq_secs: 10,
            manyflow_droptail_secs: 10,
            sweep_rates_kbps: &[200, 600],
            sweep_shares_bps: &[5_000, 20_000, 50_000],
            sweep_queues_row_kbps: 600,
            sweep_secs: 40,
            capture_cap: 20_000,
            capture_secs: 5,
        }
    }
}

/// One cell of the Fig. 8 grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    rate_kbps: u64,
    flows: usize,
    discipline: Discipline,
}

/// What a workload runs on, generated from the seed before any round.
pub enum Input {
    /// Per-client request schedules and the run horizon.
    Weblog {
        clients: Vec<Vec<weblog::LogEntry>>,
        horizon: SimTime,
    },
    /// Long-lived bulk flows; the seed drives start and RTT jitter
    /// inside the scenario.
    Manyflow { flows: usize, horizon: SimTime },
    /// The flattened Fig. 8 grid.
    Sweep { cells: Vec<Cell>, duration: SimTime },
}

impl Input {
    /// Simulated time one round covers.
    pub fn horizon(&self) -> SimTime {
        match self {
            Input::Weblog { horizon, .. } | Input::Manyflow { horizon, .. } => *horizon,
            Input::Sweep { duration, .. } => *duration,
        }
    }
}

pub fn generate(w: Workload, seed: u64, size: &Size) -> Input {
    match w {
        Workload::WeblogChurn | Workload::WeblogAttached => {
            let scale = if w == Workload::WeblogChurn {
                size.churn_scale
            } else {
                size.attached_scale
            };
            let cfg = weblog::WebLogConfig::campus_two_hour(scale);
            // The same derivation fig01 and bench_report use.
            let mut rng = SimRng::new(seed ^ 7);
            let log = weblog::generate(&cfg, &mut rng);
            Input::Weblog {
                clients: weblog::by_client(&log).into_values().collect(),
                horizon: SimTime::ZERO + cfg.duration + WEBLOG_DRAIN,
            }
        }
        Workload::ManyflowTaq | Workload::ManyflowDroptail => {
            let secs = if w == Workload::ManyflowTaq {
                size.manyflow_taq_secs
            } else {
                size.manyflow_droptail_secs
            };
            Input::Manyflow {
                flows: flows_for_fair_share(size.manyflow_rate, MANYFLOW_SHARE_BPS),
                horizon: SimTime::from_secs(secs),
            }
        }
        Workload::FigureSweep => {
            let mut cells = Vec::new();
            for &rate_kbps in size.sweep_rates_kbps {
                for &share in size.sweep_shares_bps {
                    let flows = flows_for_fair_share(Bandwidth::from_kbps(rate_kbps), share);
                    if !(4..=400).contains(&flows) {
                        continue;
                    }
                    let mut disciplines = vec![Discipline::DropTail, Discipline::Taq];
                    if rate_kbps == size.sweep_queues_row_kbps {
                        disciplines.extend([Discipline::Red, Discipline::Sfq]);
                    }
                    cells.extend(disciplines.into_iter().map(|discipline| Cell {
                        rate_kbps,
                        flows,
                        discipline,
                    }));
                }
            }
            Input::Sweep {
                cells,
                duration: SimTime::from_secs(size.sweep_secs),
            }
        }
    }
}

/// The probes a traced round installs. Each traced round gets a fresh
/// set, so its totals are scaled by that round's own host speed.
pub struct Probes {
    pub fwd_enqueue: SharedProbe,
    pub fwd_dequeue: SharedProbe,
    pub rev_enqueue: SharedProbe,
    pub rev_dequeue: SharedProbe,
    pub summary_sink: SharedProbe,
    pub trace_sink: SharedProbe,
    pub monitors: SharedProbe,
}

impl Probes {
    pub fn new() -> Probes {
        Probes {
            fwd_enqueue: shared_probe("qdisc.enqueue"),
            fwd_dequeue: shared_probe("qdisc.dequeue"),
            rev_enqueue: shared_probe("qdisc.reverse_enqueue"),
            rev_dequeue: shared_probe("qdisc.reverse_dequeue"),
            summary_sink: shared_probe("telemetry.summary_sink"),
            trace_sink: shared_probe("trace.collector"),
            monitors: shared_probe("metrics.monitor"),
        }
    }

    pub fn all(&self) -> [&SharedProbe; 7] {
        [
            &self.fwd_enqueue,
            &self.fwd_dequeue,
            &self.rev_enqueue,
            &self.rev_dequeue,
            &self.summary_sink,
            &self.trace_sink,
            &self.monitors,
        ]
    }
}

/// Everything one round produced.
#[derive(Debug, Default, Clone)]
pub struct RoundOutput {
    /// Whole round: construction + run + extraction, as measured.
    pub raw_s: f64,
    /// The same at reference host speed; every other time here is too.
    pub wall_s: f64,
    /// Scenario construction only.
    pub build_s: f64,
    /// The round's segments (construction, the legs of the run,
    /// extraction), each scaled by the canary readings around it.
    pub segments: Vec<Segment>,
    /// Simulator events processed (0 for `figure_sweep`, whose runs
    /// `fairness_run` owns).
    pub events: u64,
    /// FNV-1a over the simulated results; equal across rounds, seeds
    /// apart, traced or not.
    pub digest: u64,
    /// `offered = transmitted + dropped + buffered` at the bottleneck.
    pub conserved: bool,
    /// Allocation calls and events over the second half of the run.
    pub steady_allocs: u64,
    pub steady_events: u64,
    pub taq: Option<TaqStats>,
    /// Largest flow-table population seen at the quarter points.
    pub flows_peak: u64,
    pub jain_short_term: f64,
    pub shutout_fraction: f64,
    pub dl_median_s: f64,
    pub dl_p95_s: f64,
    pub events_emitted: u64,
    pub spans_completed: u64,
    /// Per-cell wall seconds (`figure_sweep` only), in grid order.
    pub cell_s: Vec<f64>,
}

fn buffer_for(rate: Bandwidth) -> usize {
    rate.packets_per(SimDuration::from_millis(200), 500)
}

fn digest_link(h: &mut Fnv, s: &LinkStats) {
    for v in [
        s.offered_pkts,
        s.offered_bytes,
        s.dropped_pkts,
        s.dropped_bytes,
        s.wire_lost_pkts,
        s.transmitted_pkts,
        s.transmitted_bytes,
        s.busy_time.as_nanos(),
    ] {
        h.u64(v);
    }
}

fn digest_time(h: &mut Fnv, t: Option<SimTime>) {
    h.u64(t.map_or(u64::MAX, SimTime::as_nanos));
}

/// How a scenario round is instrumented.
pub struct Instrument<'a> {
    pub probes: &'a Probes,
    /// Headers offered to the bottleneck are cloned here, up to the cap.
    pub capture: Option<(HeaderLog, usize)>,
}

/// One round of a scenario workload (`w` is not `FigureSweep`).
/// `attached` wires telemetry, sinks and the link bridge everywhere; it
/// is what separates `weblog_attached` from `weblog_churn`.
fn scenario_round(
    w: Workload,
    attached: bool,
    input: &Input,
    seed: u64,
    size: &Size,
    host: &mut HostSpeed,
    instrument: Option<&Instrument<'_>>,
) -> RoundOutput {
    let mut clock = RoundClock::start(host);
    let rate = if w.is_weblog() {
        Bandwidth::from_mbps(2)
    } else {
        size.manyflow_rate
    };
    let buffer = buffer_for(rate);
    let qdisc = if w == Workload::ManyflowDroptail {
        QdiscSpec::DropTail {
            buffer_pkts: buffer,
        }
    } else {
        QdiscSpec::taq(buffer)
    };
    let built = qdisc.build(rate, seed);
    let taq_state = built.taq;

    // Telemetry: a live hub with both sinks when attached, the no-op
    // handle otherwise.
    let telemetry = if attached {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    // Reads (events emitted, spans completed) back after the run,
    // through whichever sink types this round attached.
    let mut sink_counts: Option<Box<dyn Fn() -> (u64, u64)>> = None;
    if attached {
        let collector = TraceCollector::new(TraceConfig::default());
        sink_counts = Some(match instrument {
            Some(ins) => {
                let (summary, erased) = shared_sink(TimedSink::new(
                    SummarySink::new(),
                    ins.probes.summary_sink.clone(),
                ));
                telemetry.add_shared_sink(erased);
                let (trace, erased) =
                    shared_sink(TimedSink::new(collector, ins.probes.trace_sink.clone()));
                telemetry.add_shared_sink(erased);
                Box::new(move || {
                    (
                        summary
                            .lock()
                            .expect("summary sink")
                            .inner
                            .stats()
                            .total_events(),
                        trace
                            .lock()
                            .expect("trace collector")
                            .inner
                            .spans_completed(),
                    )
                })
            }
            None => {
                let (summary, erased) = shared_sink(SummarySink::new());
                telemetry.add_shared_sink(erased);
                let (trace, erased) = shared_sink(collector);
                telemetry.add_shared_sink(erased);
                Box::new(move || {
                    (
                        summary.lock().expect("summary sink").stats().total_events(),
                        trace.lock().expect("trace collector").spans_completed(),
                    )
                })
            }
        });
        if let Some(state) = &taq_state {
            state
                .lock()
                .expect("fresh TAQ state")
                .attach_telemetry(telemetry.clone());
        }
    }

    let (forward, reverse) = match instrument {
        Some(ins) => {
            let p = ins.probes;
            let mut fwd =
                TimedQdisc::new(built.forward, p.fwd_enqueue.clone(), p.fwd_dequeue.clone());
            if let Some((log, cap)) = &ins.capture {
                fwd = fwd.capturing(log.clone(), *cap);
            }
            let rev = TimedQdisc::new(built.reverse, p.rev_enqueue.clone(), p.rev_dequeue.clone());
            (
                Box::new(fwd) as Box<dyn taq_sim::Qdisc>,
                Box::new(rev) as Box<dyn taq_sim::Qdisc>,
            )
        }
        None => (built.forward, built.reverse),
    };

    let spec = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).telemetry(telemetry.clone());
    let mut sc = spec.build_with_reverse(seed, forward, reverse);
    if attached {
        sc.sim
            .add_monitor(Box::new(TelemetryBridge::new(telemetry.clone())));
    }

    // The many-flow workloads carry the monitors a Fig. 8 cell carries.
    let mut slice_ids = None;
    let (flows, horizon) = match input {
        Input::Weblog { clients, horizon } => {
            for entries in clients {
                sc.add_scheduled_client(entries, WEBLOG_CONNS, SimTime::ZERO);
            }
            (0, *horizon)
        }
        Input::Manyflow { flows, horizon } => {
            let slices = SliceThroughput::new(sc.db.bottleneck, SLICE);
            let evolution = EvolutionTracker::new(sc.db.bottleneck, EVOLUTION_WINDOW);
            slice_ids = Some(match instrument {
                Some(ins) => {
                    let probe = &ins.probes.monitors;
                    let id = sc
                        .sim
                        .add_monitor(Box::new(TimedMonitor::new(slices, probe.clone())));
                    sc.sim
                        .add_monitor(Box::new(TimedMonitor::new(evolution, probe.clone())));
                    id
                }
                None => {
                    let id = sc.sim.add_monitor(Box::new(slices));
                    sc.sim.add_monitor(Box::new(evolution));
                    id
                }
            });
            sc.add_bulk_clients(*flows, BULK_BYTES, SimDuration::from_secs(2));
            (*flows, *horizon)
        }
        Input::Sweep { .. } => unreachable!("figure_sweep has its own round"),
    };
    let build_s = clock.lap();

    // Run in segments, a canary reading between each: the flow table is
    // sampled at every boundary and allocations are charged against the
    // second half only, as `bench_report` does. The last leg goes
    // through the scenario so unfinished transfers are flushed into the
    // log.
    let flow_count = || {
        taq_state
            .as_ref()
            .map_or(0, |s| s.lock().expect("TAQ state").flows.len() as u64)
    };
    let mut flows_peak = 0;
    let mut mid = (0, 0);
    for segment in 1..=RUN_SEGMENTS {
        if segment == RUN_SEGMENTS / 2 + 1 {
            mid = (allocs(), sc.sim.events_processed());
        }
        if segment < RUN_SEGMENTS {
            sc.sim.run_until(SimTime::from_nanos(
                horizon.as_nanos() / RUN_SEGMENTS * segment,
            ));
        } else {
            sc.run_until(horizon);
        }
        clock.lap();
        flows_peak = flows_peak.max(flow_count());
    }
    let events = sc.sim.events_processed();
    let steady_allocs = allocs() - mid.0;
    let steady_events = events - mid.1;
    telemetry.flush();

    // Extraction: what the figure binaries read back after a run.
    let link = sc.sim.link_stats(sc.db.bottleneck).clone();
    let buffered = sc.sim.link_qdisc(sc.db.bottleneck).len() as u64;
    let conserved = link.offered_pkts
        == link.transmitted_pkts + link.dropped_pkts + link.wire_lost_pkts + buffered;
    let taq = taq_state
        .as_ref()
        .map(|s| s.lock().expect("TAQ state").stats.clone());

    let mut h = Fnv::new();
    h.u64(events);
    digest_link(&mut h, &link);
    if let Some(stats) = &taq {
        h.bytes(stats.snapshot().to_json().as_bytes());
    }
    let mut downloads = Vec::new();
    {
        let log = sc.log.lock().expect("flow log");
        h.u64(log.records.len() as u64);
        for r in &log.records {
            h.u64(u64::from(r.client.0));
            h.u64(u64::from(r.client_port));
            h.u64(r.tag);
            h.u64(r.bytes);
            digest_time(&mut h, Some(r.queued_at));
            digest_time(&mut h, Some(r.first_syn_at));
            digest_time(&mut h, r.established_at);
            digest_time(&mut h, r.completed_at);
            h.u64(u64::from(r.syn_retries));
            if let Some(d) = r.download_time() {
                downloads.push(d.as_secs_f64());
            }
        }
    }
    let downloads = Distribution::from_samples(downloads);

    let (mut jain_short_term, mut shutout_fraction) = (0.0, 0.0);
    if let Some(id) = slice_ids {
        let slices = match instrument {
            Some(_) => sc
                .sim
                .monitor::<TimedMonitor<SliceThroughput>>(id)
                .map(|m| &m.inner),
            None => sc.sim.monitor::<SliceThroughput>(id),
        }
        .expect("slice monitor");
        // The same startup-transient rule `fairness_run` applies.
        let n_slices = (horizon.as_nanos() / SLICE.as_nanos()) as usize;
        let skip = 2.min(n_slices.saturating_sub(1));
        jain_short_term = slices.mean_jain(skip, n_slices, flows);
        let measured = (skip..n_slices).len().max(1) as f64;
        shutout_fraction = (skip..n_slices)
            .map(|i| slices.shutout_fraction(i, flows))
            .sum::<f64>()
            / measured
            + 0.0; // an empty sum is -0.0
    }

    let (events_emitted, spans_completed) = sink_counts.map_or((0, 0), |read| read());
    if attached {
        h.u64(events_emitted);
        h.u64(spans_completed);
    }

    clock.lap();
    RoundOutput {
        raw_s: clock.raw_s,
        wall_s: clock.wall_s(),
        build_s,
        segments: clock.segments,
        events,
        digest: h.0,
        conserved,
        steady_allocs,
        steady_events,
        taq,
        flows_peak,
        jain_short_term,
        shutout_fraction,
        dl_median_s: downloads.median().unwrap_or(0.0),
        dl_p95_s: downloads.quantile(0.95).unwrap_or(0.0),
        events_emitted,
        spans_completed,
        cell_s: Vec::new(),
    }
}

/// Jain indices are summed over `HashMap` iteration order inside
/// `taq-metrics`, so their last bits vary between runs; the digest
/// takes them to six decimals.
fn digest_rounded(h: &mut Fnv, v: f64) {
    h.u64((v * 1e6).round() as i64 as u64);
}

fn digest_cell(h: &mut Fnv, r: &FairnessRunResult) {
    digest_rounded(h, r.short_term_jain);
    digest_rounded(h, r.long_term_jain);
    h.f64(r.utilization);
    h.f64(r.drop_rate);
    h.f64(r.shutout_fraction);
    for v in [
        r.evolution.maintained,
        r.evolution.dropped,
        r.evolution.arriving,
        r.evolution.stalled,
    ] {
        h.u64(v as u64);
    }
}

/// Cells per segment of a serial sweep: the clock laps (and reads the
/// canary) after every fourth cell, about as often as a scenario round's
/// legs do, and at the same cells in every round.
const SWEEP_SEGMENT_CELLS: usize = 4;

/// One pass over the Fig. 8 grid on `threads` sweep workers. A serial
/// pass runs on the calling thread and is timed in segments, a canary
/// reading between cells; a parallel pass is one segment, because the
/// canary reads the speed of the thread it runs on and the cells do not
/// run there. With `spans_under` every cell is recorded as a span under
/// that round.
pub fn sweep_round(
    input: &Input,
    seed: u64,
    threads: usize,
    host: &mut HostSpeed,
    spans_under: Option<u32>,
) -> RoundOutput {
    let Input::Sweep { cells, duration } = input else {
        unreachable!("sweep_round runs figure_sweep inputs only");
    };
    let clock = Mutex::new(RoundClock::start(host));
    let results = sweep_indexed(cells, threads, |index, cell| {
        let cfg = FairnessRunConfig::new(
            seed,
            Bandwidth::from_kbps(cell.rate_kbps),
            cell.flows,
            *duration,
        );
        let run = || {
            let t = Instant::now();
            let r = fairness_run(&cfg, cell.discipline);
            (r, t.elapsed().as_secs_f64())
        };
        let result = match spans_under {
            Some(parent) => phase("bench.cell", parent, false, |_| run()).2,
            None => run(),
        };
        if threads == 1 && (index + 1) % SWEEP_SEGMENT_CELLS == 0 {
            clock.lock().expect("the one sweep thread holds it").lap();
        }
        result
    });
    let mut clock = clock.into_inner().expect("no cell panicked");
    let mut h = Fnv::new();
    let (mut jain, mut shutout, mut taq_cells) = (0.0, 0.0, 0.0);
    let mut cell_s = Vec::with_capacity(results.len());
    for (cell, (r, secs)) in cells.iter().zip(&results) {
        digest_cell(&mut h, r);
        cell_s.push(*secs);
        if cell.discipline == Discipline::Taq {
            jain += r.short_term_jain;
            shutout += r.shutout_fraction;
            taq_cells += 1.0;
        }
    }
    // Sanity in place of packet conservation (the bottleneck counters
    // stay inside `fairness_run`): every cell carried traffic and its
    // indices are indices.
    let conserved = results.iter().all(|(r, _)| {
        r.utilization > 0.0
            && r.utilization <= 1.0 + 1e-9
            && (0.0..=1.0 + 1e-9).contains(&r.short_term_jain)
            && (0.0..=1.0).contains(&r.drop_rate)
    });
    clock.lap();
    RoundOutput {
        raw_s: clock.raw_s,
        wall_s: clock.wall_s(),
        segments: clock.segments,
        digest: h.0,
        conserved,
        jain_short_term: jain / f64::max(taq_cells, 1.0),
        shutout_fraction: shutout / f64::max(taq_cells, 1.0),
        cell_s,
        ..RoundOutput::default()
    }
}

/// Simulator events one pass over the grid processes. `fairness_run`
/// keeps its simulator to itself, so each cell is rebuilt here from the
/// same public pieces in the same order and only counted; monitors do
/// not schedule events, so leaving them out changes nothing. Run once
/// per process, outside every timed section.
pub fn sweep_events(input: &Input, seed: u64) -> u64 {
    let Input::Sweep { cells, duration } = input else {
        unreachable!("sweep_events counts figure_sweep inputs only");
    };
    sweep_indexed(cells, sweep_threads(), |_, cell| {
        let rate = Bandwidth::from_kbps(cell.rate_kbps);
        let built = cell.discipline.spec(buffer_for(rate)).build(rate, seed);
        let mut sc = DumbbellSpec::new(DumbbellConfig::with_rtt_200ms(rate)).build_with_reverse(
            seed,
            built.forward,
            built.reverse,
        );
        sc.add_bulk_clients(cell.flows, BULK_BYTES, SimDuration::from_secs(2));
        sc.run_until(*duration);
        sc.sim.events_processed()
    })
    .into_iter()
    .sum()
}

/// Sweep workers for `figure_sweep`: two where the host has them.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One round of `w` on `input`.
pub fn round(
    w: Workload,
    input: &Input,
    seed: u64,
    size: &Size,
    host: &mut HostSpeed,
    instrument: Option<&Instrument<'_>>,
    spans_under: Option<u32>,
) -> RoundOutput {
    match w {
        Workload::FigureSweep => sweep_round(input, seed, 1, host, spans_under),
        _ => scenario_round(
            w,
            w == Workload::WeblogAttached,
            input,
            seed,
            size,
            host,
            instrument,
        ),
    }
}

/// The other side of `telemetry.attached_ratio`: the same web-log input
/// replayed with telemetry flipped (attached for `weblog_churn`,
/// disabled for `weblog_attached`).
pub fn sibling_round(
    w: Workload,
    input: &Input,
    seed: u64,
    size: &Size,
    host: &mut HostSpeed,
) -> RoundOutput {
    scenario_round(
        w,
        w != Workload::WeblogAttached,
        input,
        seed,
        size,
        host,
        None,
    )
}

/// Records the headers `manyflow_taq`'s bottleneck is offered over the
/// first simulated seconds: the stream the component loops replay.
pub fn capture_headers(seed: u64, size: &Size, host: &mut HostSpeed) -> Vec<(Packet, SimTime)> {
    let input = Input::Manyflow {
        flows: flows_for_fair_share(size.manyflow_rate, MANYFLOW_SHARE_BPS),
        horizon: SimTime::from_secs(size.capture_secs),
    };
    let log: HeaderLog = Arc::new(Mutex::new(Vec::new()));
    let probes = Probes::new();
    let instrument = Instrument {
        probes: &probes,
        capture: Some((log.clone(), size.capture_cap)),
    };
    scenario_round(
        Workload::ManyflowTaq,
        false,
        &input,
        seed,
        size,
        host,
        Some(&instrument),
    );
    let headers = std::mem::take(&mut *log.lock().expect("header log"));
    headers
}

/// The bottleneck rate and buffer the component loops configure TAQ for.
pub fn manyflow_link(size: &Size) -> (Bandwidth, usize) {
    (size.manyflow_rate, buffer_for(size.manyflow_rate))
}

/// Times web-log generation alone (`workloads.weblog_gen_s`).
pub fn weblog_gen_s(seed: u64, size: &Size) -> f64 {
    let t = Instant::now();
    std::hint::black_box(generate(Workload::WeblogChurn, seed, size));
    t.elapsed().as_secs_f64()
}

/// Slowest cell ÷ mean cell: how unequal the grid's work items are.
pub fn cell_max_over_mean(cell_s: &[f64]) -> f64 {
    let mean = harness::mean(cell_s);
    if mean == 0.0 {
        return 0.0;
    }
    cell_s.iter().copied().fold(0.0, f64::max) / mean
}
