//! `taq-bench <experiment> [flags]` — every experiment of the
//! reproduction behind one binary: the paper's figures, the §2.3 hang
//! table, the ablations and extensions, and the telemetry, trace and
//! fluid-model reports.
//!
//! Each experiment is a module under `experiments/` whose doc says what
//! it reproduces and what shape to expect; the table below names the
//! flags it reads. [`SweepArgs::from_args`] parses them once, so a typo,
//! a malformed value or a flag the experiment would ignore exits 2 with
//! the experiment's usage line before anything runs; so does an unknown
//! experiment, listing all of them.

use taq_bench::SweepArgs;

/// One experiment: its name, its base seed (the seed it runs, and where
/// `--runs N` counts up from), the flags it reads, and its entry point.
type Experiment = (&'static str, u64, &'static [&'static str], fn(SweepArgs));

mod experiments {
    pub mod ablation_taq;
    pub mod faults_matrix;
    pub mod fig01_download_times;
    pub mod fig02_fairness_droptail;
    pub mod fig03_buffer_tradeoff;
    pub mod fig06_model_validation;
    pub mod fig08_fairness_taq;
    pub mod fig09_flow_evolution;
    pub mod fig10_short_flows;
    pub mod fig11_testbed_fairness;
    pub mod fig12_admission_cdf;
    pub mod fluid_validation;
    pub mod model_tipping_point;
    pub mod sec23_user_hangs;
    pub mod telemetry_report;
    pub mod topo_placement;
    pub mod trace_report;
}

/// [`EXPERIMENTS`] from rows of `name: base seed, flags;`, each
/// experiment's entry point the `run` of its module.
macro_rules! experiments {
    ($($name:ident: $seed:expr, $flags:expr;)*) => {
        /// Every experiment, in the order the usage listing prints them.
        const EXPERIMENTS: &[Experiment] =
            &[$((stringify!($name), $seed, $flags, experiments::$name::run),)*];
    };
}

experiments! {
    fig01_download_times:    42, SweepArgs::SWEEP;
    fig02_fairness_droptail: 42, &["--threads N", "--full", "--smoke", "[discipline]"];
    fig03_buffer_tradeoff:   42, SweepArgs::SWEEP;
    fig06_model_validation:  42, SweepArgs::SCALE;
    fig08_fairness_taq:      42, &["--threads N", "--full", "--smoke"];
    fig09_flow_evolution:     7, &["--full", "--smoke", "--extreme"];
    fig10_short_flows:       42, &["--full", "--smoke", "[discipline]"];
    fig11_testbed_fairness:  42, SweepArgs::SCALE;
    fig12_admission_cdf:     42, SweepArgs::SCALE;
    sec23_user_hangs:        42, SweepArgs::SWEEP;
    ablation_taq:            42, SweepArgs::SCALE;
    topo_placement:          42, SweepArgs::SWEEP;
    faults_matrix:            7, SweepArgs::SWEEP;
    model_tipping_point:      0, &["--threads N"];
    fluid_validation:        11, &[
        "--seeds a,b,c", "--runs N", "--threads N", "--full", "--smoke", "--out PATH",
    ];
    telemetry_report:        42, &["--full", "--smoke", "--jsonl DIR"];
    trace_report:            42, &[
        "--input PATH", "--out PATH", "--seed N", "--silence-ms N", "--window-ms N",
    ];
}

fn usage((name, _, flags, _): &Experiment) -> String {
    flags.iter().fold(format!("taq-bench {name}"), |line, f| {
        format!("{line} [{}]", f.trim_matches(['[', ']']))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("", String::as_str);
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.0 == name) else {
        eprintln!("taq-bench: unknown experiment {name:?}; usage:");
        for e in EXPERIMENTS {
            eprintln!("  {}", usage(e));
        }
        std::process::exit(2);
    };
    let &(_, seed, flags, run) = experiment;
    run(
        SweepArgs::from_args(seed, &args[1..], flags).unwrap_or_else(|e| {
            eprintln!("taq-bench {name}: {e}\nusage: {}", usage(experiment));
            std::process::exit(2)
        }),
    );
}
