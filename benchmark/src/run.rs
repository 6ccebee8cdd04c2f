//! One run of one workload: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` executes.
//!
//! Untraced (`--trace 0`): three set-ups (input generation + scenario
//! build + one full round, the first of them cold), then timed rounds of
//! the same input until `--seconds` have passed (at least five). Yields
//! the end-to-end metrics, as one undisturbed round reads
//! (`harness::undisturbed_round`).
//!
//! Traced (`--trace 1`): a cold warm-up round, three untraced rounds (the
//! baseline), two rounds with the timing wrappers installed, the
//! workload-specific extra passes, then the component loops. Yields the
//! per-layer metrics and `spans.jsonl`.
//!
//! Every section is bracketed by canary readings and every reported
//! time is scaled to the reference host speed (`harness::CANARY_REF_NS`).

use crate::components;
use crate::harness::{
    self, host_drifted, mean, median, peak_rss_mb, phase, range_over_median, timer_overhead_ns,
    undisturbed_round, HostSpeed, Segment, Span,
};
use crate::spec::Spec;
use crate::workloads::{
    cell_max_over_mean, generate, round, sibling_round, sweep_events, sweep_round, sweep_threads,
    weblog_gen_s, Instrument, Probes, RoundOutput, Size, Workload,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use taq::QueueClass;
use taq_telemetry::Value;

/// Fewest timed rounds an untraced run takes its samples from.
const MIN_ROUNDS: usize = 5;
/// Set-ups per untraced run; `setup_s` is taken over them.
const SETUPS: usize = 3;
/// Rounds with the wrappers installed in a traced run.
const TRACED_ROUNDS: usize = 2;
/// Rounds without them in a traced run, and sibling rounds: what the
/// ratios are taken against.
const UNTRACED_ROUNDS: usize = 3;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Correctness checks made and failed so far.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# CHECK FAILED: {what}");
        }
    }

    /// The per-round checks: conservation, and the digest of round 1.
    fn round(&mut self, label: &str, out: &RoundOutput, first_digest: u64) {
        self.check(&format!("{label}: packet conservation"), out.conserved);
        self.check(
            &format!(
                "{label}: digest {:016x} equals the first round's {first_digest:016x}",
                out.digest
            ),
            out.digest == first_digest,
        );
    }
}

/// What a run hands back: the contract's result line, plus the detail
/// record written next to it.
pub struct RunResult {
    pub line: Value,
    pub detail: Value,
}

type MetricMap = BTreeMap<&'static str, f64>;
type Detail = Vec<(&'static str, Value)>;

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores, CPU model, compiler and commit: what a number was taken on.
fn fingerprint(seed: u64) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    Value::object(vec![
        ("cores", Value::UInt(cores)),
        ("cpu_model", Value::Str(cpu_model)),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::UInt(seed)),
    ])
}

pub fn run(args: &RunArgs, spec: &Spec) -> RunResult {
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let mut checks = Checks::default();
    let mut host = HostSpeed::new();
    let canary_first = host.last();
    let (mut metrics, mut detail) = if args.trace {
        traced(args, &size, &mut host, &mut checks)
    } else {
        untraced(args, &size, &mut host, &mut checks)
    };
    metrics.insert("bench.canary_ns", (canary_first + host.last()) / 2.0);

    let table = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let emitted = table
        .iter()
        .map(|metric| {
            let value = metrics.get(metric.name.as_str()).copied().unwrap_or(0.0);
            let entry = Value::object(vec![
                ("value", Value::Float(value)),
                ("unit", Value::Str(metric.unit.clone())),
            ]);
            (metric.name.clone(), entry)
        })
        .collect();
    let line = Value::object(vec![
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::UInt(checks.attempted)),
        ("failed", Value::UInt(checks.failed)),
        ("metrics", Value::Object(emitted)),
    ]);
    detail.extend([
        ("workload", Value::Str(args.workload.name().to_string())),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("seconds", Value::Float(args.seconds)),
        ("canary_first_ns", Value::Float(canary_first)),
        ("canary_last_ns", Value::Float(host.last())),
        // Taken last: spawning `rustc -V` must not sit inside `setup_s`.
        ("fingerprint", fingerprint(args.seed)),
        ("result", line.clone()),
    ]);
    RunResult {
        line,
        detail: Value::object(detail),
    }
}

fn untraced(
    args: &RunArgs,
    size: &Size,
    host: &mut HostSpeed,
    checks: &mut Checks,
) -> (MetricMap, Detail) {
    let w = args.workload;
    // Set-up, several times over: everything a fresh process does
    // before its first timed round. The first sample is the cold one.
    let mut setups: Vec<Vec<Segment>> = Vec::with_capacity(SETUPS);
    let mut setup_raw = Vec::with_capacity(SETUPS);
    let mut input = None;
    let mut first: Option<RoundOutput> = None;
    for i in 0..SETUPS {
        let ((generated, gen_raw), factor) = host.around(|| {
            let t = Instant::now();
            (generate(w, args.seed, size), t.elapsed().as_secs_f64())
        });
        let out = round(w, &generated, args.seed, size, host, None, None);
        let mut segments = vec![Segment {
            wall_s: gen_raw * factor,
            cpu_s: gen_raw * factor,
            factor,
        }];
        segments.extend(&out.segments);
        setups.push(segments);
        setup_raw.push(gen_raw + out.raw_s);
        let first_digest = first.as_ref().map_or(out.digest, |f| f.digest);
        checks.round(&format!("setup {i}"), &out, first_digest);
        first.get_or_insert(out);
        input = Some(generated);
    }
    let input = input.expect("at least one set-up ran");
    let first = first.expect("at least one set-up ran");

    let min_rounds = if args.smoke { 2 } else { MIN_ROUNDS };
    let mut rounds: Vec<Vec<Segment>> = Vec::new();
    let (mut rounds_raw, mut rounds_scaled) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        let out = round(w, &input, args.seed, size, host, None, None);
        checks.round(&format!("round {}", rounds.len()), &out, first.digest);
        rounds_raw.push(out.raw_s);
        rounds_scaled.push(out.wall_s);
        rounds.push(out.segments);
    }
    // Read before `sweep_events` runs two cells at once.
    let rss_mb = peak_rss_mb();

    let events = match w {
        Workload::FigureSweep => sweep_events(&input, args.seed),
        _ => first.events,
    };
    let typical = undisturbed_round(&rounds);
    let (wall_s, cpu_s) = (typical.wall_s, typical.cpu_s);
    let setup_s = undisturbed_round(&setups).wall_s;
    let noisy = host_drifted(&rounds) || typical.clean_share < 0.5;

    let mut m = MetricMap::new();
    m.insert("wall_s", wall_s);
    m.insert("cpu_s", cpu_s);
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", rss_mb);
    m.insert("events_per_s", events as f64 / wall_s);
    eprintln!(
        "# {} seed {}: digest {:016x}, {} events, {} rounds, wall {wall_s:.4} s \
         (spread {:.3}; as measured {:.4} s; {:.0} % of samples clean), cpu {cpu_s:.4} s, \
         setup {setup_s:.4} s, rss {:.1} MB{}",
        w.name(),
        args.seed,
        first.digest,
        events,
        rounds.len(),
        range_over_median(&rounds_scaled),
        median(&rounds_raw),
        typical.clean_share * 100.0,
        rss_mb,
        if noisy { ", NOISY" } else { "" },
    );
    let setup_scaled: Vec<f64> = setups
        .iter()
        .map(|r| r.iter().map(|s| s.wall_s).sum())
        .collect();
    // Every segment of every round as [wall, CPU, factor], so another
    // estimator can be tried on a recorded run.
    let segments = |rounds: &[Vec<Segment>]| {
        Value::Array(
            rounds
                .iter()
                .map(|r| {
                    Value::Array(
                        r.iter()
                            .map(|s| floats(&[s.wall_s, s.cpu_s, s.factor]))
                            .collect(),
                    )
                })
                .collect(),
        )
    };
    let detail = vec![
        ("digest", Value::Str(format!("{:016x}", first.digest))),
        ("events", Value::UInt(events)),
        ("noisy", Value::Bool(noisy)),
        ("clean_share", Value::Float(typical.clean_share)),
        ("rounds_s", floats(&rounds_scaled)),
        ("rounds_raw_s", floats(&rounds_raw)),
        ("round_segments", segments(&rounds)),
        ("setup_samples_s", floats(&setup_scaled)),
        ("setup_raw_s", floats(&setup_raw)),
        ("setup_segments", segments(&setups)),
    ];
    (m, detail)
}

/// What one probe holds after a round, scaled and timer-free.
struct ProbeRead {
    calls: f64,
    mean_ns: f64,
    busy_s: f64,
    p50_ns: f64,
    p99_ns: f64,
}

/// The per-layer numbers one traced round yields, at reference speed.
fn layer_metrics(probes: &Probes, out: &RoundOutput, timer_ns: f64) -> MetricMap {
    // One factor for the probes' totals: the round's own mean scale.
    let factor = out.wall_s / out.raw_s;
    let mut m = MetricMap::new();
    let read = |p: &crate::wrappers::SharedProbe| {
        let p = p.lock().expect("probe");
        ProbeRead {
            calls: p.count as f64,
            mean_ns: p.mean_ns(factor, timer_ns),
            busy_s: p.busy_s(factor, timer_ns),
            p50_ns: p.quantile_ns(0.50, factor, timer_ns),
            p99_ns: p.quantile_ns(0.99, factor, timer_ns),
        }
    };
    let (enq, deq) = (read(&probes.fwd_enqueue), read(&probes.fwd_dequeue));
    let (rev_enq, rev_deq) = (read(&probes.rev_enqueue), read(&probes.rev_dequeue));
    let (summary, collector) = (read(&probes.summary_sink), read(&probes.trace_sink));
    let monitors = read(&probes.monitors);
    let wall_s = out.wall_s;
    let qdisc_busy = enq.busy_s + deq.busy_s + rev_enq.busy_s + rev_deq.busy_s;
    // Private keys (leading underscore) feed the residual and coverage.
    m.insert(
        "_wrapped_busy_s",
        qdisc_busy + summary.busy_s + collector.busy_s + monitors.busy_s,
    );
    m.insert("_traced_wall_s", wall_s);
    if let Some(stats) = &out.taq {
        m.insert("core.enqueue_ns", enq.mean_ns);
        m.insert("core.enq_p50_ns", enq.p50_ns);
        m.insert("core.enq_p99_ns", enq.p99_ns);
        m.insert("core.dequeue_ns", deq.mean_ns);
        m.insert("core.deq_p50_ns", deq.p50_ns);
        m.insert("core.deq_p99_ns", deq.p99_ns);
        m.insert("core.reverse_ns", rev_enq.mean_ns);
        m.insert("core.busy_share", qdisc_busy / wall_s);
        m.insert("core.pkts_offered", stats.offered as f64);
        m.insert("core.pkts_dropped", stats.dropped as f64);
        let evictions: u64 = stats.drops_by_stage[1..=6].iter().sum();
        m.insert("core.evictions", evictions as f64);
        for (name, class) in [
            ("core.class_recovery_pkts", QueueClass::Recovery),
            ("core.class_newflow_pkts", QueueClass::NewFlow),
            ("core.class_overpenalized_pkts", QueueClass::OverPenalized),
            ("core.class_below_pkts", QueueClass::BelowFairShare),
            ("core.class_above_pkts", QueueClass::AboveFairShare),
        ] {
            m.insert(name, stats.class_count(class) as f64);
        }
        m.insert("core.flows_peak", out.flows_peak as f64);
        m.insert("_deq_per_enq", deq.calls / enq.calls.max(1.0));
    }
    if out.events_emitted > 0 {
        m.insert("telemetry.sink_ns_per_event", summary.mean_ns);
        m.insert("trace.collector_ns_per_event", collector.mean_ns);
        m.insert(
            "telemetry.sink_share",
            (summary.busy_s + collector.busy_s) / wall_s,
        );
    }
    m
}

/// Runs `round` [`UNTRACED_ROUNDS`] times; returns the first output (all
/// but the times repeat exactly) and the undisturbed wall-clock of one.
fn baseline(mut round: impl FnMut(usize) -> RoundOutput) -> (RoundOutput, f64) {
    let mut outputs: Vec<RoundOutput> = (0..UNTRACED_ROUNDS).map(&mut round).collect();
    let segments: Vec<Vec<Segment>> = outputs.iter().map(|o| o.segments.clone()).collect();
    (outputs.swap_remove(0), undisturbed_round(&segments).wall_s)
}

fn traced(
    args: &RunArgs,
    size: &Size,
    host: &mut HostSpeed,
    checks: &mut Checks,
) -> (MetricMap, Detail) {
    let w = args.workload;
    let seed = args.seed;
    let mut m = MetricMap::new();
    let (timer_raw, factor) = host.around(timer_overhead_ns);
    let timer_ns = timer_raw * factor;
    m.insert("bench.timer_overhead_ns", timer_ns);

    let (root, _, ()) = phase("run", 0, false, |_| ());
    let (input, _) = host.around(|| {
        phase("workloads.generate", root, false, |_| {
            generate(w, seed, size)
        })
        .2
    });
    // Web-log generation has its own metric on every workload, so a
    // change to the generator shows even where no log is replayed.
    let (gen_s, factor) = host.around(|| weblog_gen_s(seed, size));
    m.insert("workloads.weblog_gen_s", gen_s * factor);

    let plain = |name, host: &mut HostSpeed| {
        phase(name, root, false, |_| {
            round(w, &input, seed, size, host, None, None)
        })
        .2
    };
    let warmup = plain("round.warmup", host);
    checks.round("warm-up", &warmup, warmup.digest);
    // The untraced side of every ratio below: taken over three rounds,
    // so one disturbed round does not pass for the baseline.
    let (untraced, untraced_wall) = baseline(|i| {
        let out = plain("round.untraced", host);
        checks.round(&format!("untraced {i}"), &out, warmup.digest);
        out
    });

    // Traced rounds: fresh probes each, so each round's numbers are
    // scaled by that round's own host speed before they are averaged.
    let mut per_round: Vec<MetricMap> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut rounds: Vec<Vec<Segment>> = vec![untraced.segments.clone()];
    for i in 0..TRACED_ROUNDS {
        let probes = Probes::new();
        let instrument = Instrument {
            probes: &probes,
            capture: None,
        };
        let (_, _, out) = phase("round.traced", root, true, |id| {
            round(w, &input, seed, size, host, Some(&instrument), Some(id))
        });
        // Traced digest equal to untraced: the wrappers observe, never steer.
        checks.round(&format!("traced {i}"), &out, warmup.digest);
        per_round.push(layer_metrics(&probes, &out, timer_ns));
        rounds.push(out.segments);
        for probe in probes.all() {
            spans.append(&mut probe.lock().expect("probe").spans);
        }
    }
    let keys: Vec<&'static str> = per_round[0].keys().copied().collect();
    for key in keys {
        let values: Vec<f64> = per_round
            .iter()
            .filter_map(|r| r.get(key).copied())
            .collect();
        m.insert(key, mean(&values));
    }
    let traced_s: Vec<f64> = per_round.iter().map(|r| r["_traced_wall_s"]).collect();

    // sim: the whole-run numbers come from the untraced round.
    let events = match w {
        Workload::FigureSweep => sweep_events(&input, seed),
        _ => untraced.events,
    };
    host.refresh();
    let events = events as f64;
    m.insert("sim.events", events);
    if events > 0.0 {
        m.insert("sim.events_per_s", events / untraced_wall);
        m.insert("sim.ns_per_event", untraced_wall * 1e9 / events);
        m.insert(
            "sim.allocs_per_event",
            untraced.steady_allocs as f64 / untraced.steady_events.max(1) as f64,
        );
        // What the wrappers cannot reach: the engine and the TCP agents.
        // Wrapped time is free of tracing overhead, so it is taken off
        // the untraced round rather than the traced one.
        let residual_s = untraced_wall - m["_wrapped_busy_s"];
        m.insert("sim.tcp_residual_ns_per_event", residual_s * 1e9 / events);
    }
    m.insert("workloads.scenario_build_s", untraced.build_s);
    m.insert(
        "bench.trace_overhead_ratio",
        median(&traced_s) / untraced_wall,
    );
    m.insert("bench.round_spread", range_over_median(&traced_s));
    m.insert("metrics.jain_short_term", untraced.jain_short_term);
    m.insert("metrics.shutout_fraction", untraced.shutout_fraction);
    m.insert("metrics.dl_median_s", untraced.dl_median_s);
    m.insert("metrics.dl_p95_s", untraced.dl_p95_s);
    m.insert("telemetry.events_emitted", untraced.events_emitted as f64);
    m.insert("trace.spans_completed", untraced.spans_completed as f64);

    // Workload-specific extra passes.
    match w {
        Workload::FigureSweep => {
            let threads = sweep_threads();
            let (_, _, parallel) = phase("round.sweep_parallel", root, true, |id| {
                sweep_round(&input, seed, threads, host, Some(id))
            });
            // The 2-thread results equal the serial pass.
            checks.round("parallel sweep", &parallel, warmup.digest);
            m.insert("bench.sweep_serial_s", untraced_wall);
            m.insert("bench.sweep_parallel_s", parallel.wall_s);
            m.insert(
                "bench.sweep_efficiency",
                untraced_wall / (parallel.wall_s * threads as f64),
            );
            m.insert(
                "bench.cell_max_over_mean",
                cell_max_over_mean(&untraced.cell_s),
            );
        }
        Workload::WeblogChurn | Workload::WeblogAttached => {
            let (sibling, sibling_wall) = baseline(|_| {
                let (_, _, out) = phase("round.sibling", root, false, |_| {
                    sibling_round(w, &input, seed, size, host)
                });
                checks.check("sibling round: packet conservation", out.conserved);
                out
            });
            let sibling_ns = sibling_wall / sibling.events.max(1) as f64;
            let own_ns = untraced_wall / events.max(1.0);
            // Disabled ÷ attached, whichever of the two this workload is.
            m.insert(
                "telemetry.attached_ratio",
                if w == Workload::WeblogChurn {
                    own_ns / sibling_ns
                } else {
                    sibling_ns / own_ns
                },
            );
        }
        Workload::ManyflowTaq | Workload::ManyflowDroptail => {}
    }

    // Component loops: `--seconds` sets how long each one measures.
    let budget_s = if args.smoke { 0.0 } else { args.seconds / 50.0 };
    let (_, _, parts) = phase("components", root, false, |id| {
        components::run(host, seed, size, budget_s, timer_ns, id)
    });
    m.extend(parts);

    // Coverage: the component loops weighted by how often the run calls
    // them, against what the wrappers measured per offered packet.
    // Only where the loops' stream and operating point come from.
    if let (Workload::ManyflowTaq, Some(&deq_per_enq)) = (w, m.get("_deq_per_enq")) {
        let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
        let offered = get("core.pkts_offered").max(1.0);
        let evict_rate = get("core.evictions") / offered;
        // One maintenance tick per `min_epoch` of simulated time.
        let min_epoch = taq::TaqConfig::for_link(taq_sim::Bandwidth::from_mbps(1)).min_epoch;
        let tick_rate = input.horizon().as_secs_f64() / min_epoch.as_secs_f64() / offered;
        let modelled = (1.0 - evict_rate) * get("core.push_ns")
            + evict_rate * get("core.evict_ns")
            + tick_rate * get("core.tick_ns")
            + deq_per_enq * get("core.pop_ns");
        let measured = get("core.enqueue_ns") + deq_per_enq * get("core.dequeue_ns");
        if measured > 0.0 {
            m.insert("core.component_coverage", modelled / measured);
        }
    }

    // Spans: rounds and phases, plus the 1-in-64 stride each probe kept.
    spans.append(&mut harness::take_phase_spans());
    let spans_path = args.out.join(format!("{}.spans.jsonl", w.name()));
    let span_count = spans.len();
    if let Err(e) = harness::write_spans(&spans_path, spans) {
        eprintln!("# cannot write {}: {e}", spans_path.display());
    }
    eprintln!(
        "# {} seed {seed} traced: digest {:016x}, untraced {untraced_wall:.4} s, traced {:.4} s \
         (overhead x{:.2}), {span_count} spans -> {}",
        w.name(),
        warmup.digest,
        median(&traced_s),
        median(&traced_s) / untraced_wall,
        spans_path.display(),
    );
    let detail = vec![
        ("digest", Value::Str(format!("{:016x}", warmup.digest))),
        ("events", Value::UInt(events as u64)),
        ("noisy", Value::Bool(host_drifted(&rounds))),
        ("untraced_round_s", Value::Float(untraced_wall)),
        ("traced_rounds_s", floats(&traced_s)),
        ("spans", Value::UInt(span_count as u64)),
    ];
    (m, detail)
}
