//! `taq-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! taq-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! taq-benchmark [--seed N] [--seconds S] [--smoke] [--out DIR]     every workload, both runs
//! taq-benchmark --compare A/results.json B/results.json
//! ```
//!
//! A `--workload` run prints one JSON object as the last line of its
//! standard output: `correct`, `attempted`, `failed`, `metrics`.

mod components;
mod harness;
mod report;
mod run;
mod spec;
mod workloads;
mod wrappers;

use std::path::PathBuf;
use workloads::Workload;

fn usage(problem: &str) -> ! {
    eprintln!("taq-benchmark: {problem}");
    eprintln!(
        "usage: taq-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       taq-benchmark --compare A.json B.json",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut compare = None;
    let mut i = 0;
    let value = |i: usize| -> &str {
        args.get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value(i))
                        .unwrap_or_else(|| usage(&format!("unknown workload {:?}", value(i)))),
                );
                i += 2;
            }
            "--seed" => {
                seed = value(i)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
                i += 2;
            }
            "--seconds" => {
                let s: f64 = value(i)
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(0.0..=3_600.0).contains(&s) {
                    usage("--seconds must be between 0 and 3600");
                }
                seconds = Some(s);
                i += 2;
            }
            "--trace" => {
                trace = match value(i) {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--out" => {
                out = PathBuf::from(value(i));
                i += 2;
            }
            "--compare" => {
                let b = args
                    .get(i + 2)
                    .unwrap_or_else(|| usage("--compare needs two result files"));
                compare = Some((PathBuf::from(value(i)), PathBuf::from(b)));
                i += 3;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let spec = spec::Spec::load().unwrap_or_else(|e| {
        eprintln!("taq-benchmark: {e}");
        std::process::exit(2);
    });
    if let Some((a, b)) = compare {
        std::process::exit(report::compare(&spec, &a, &b));
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("taq-benchmark: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let seconds = seconds.unwrap_or(if smoke { 0.5 } else { 10.0 });
    match workload {
        Some(workload) => {
            let args = run::RunArgs {
                workload,
                seed,
                seconds,
                trace,
                smoke,
                out,
            };
            let result = run::run(&args, &spec);
            let detail =
                args.out
                    .join(format!("{}.trace{}.json", workload.name(), u8::from(trace)));
            if let Err(e) = std::fs::write(&detail, result.detail.to_json() + "\n") {
                eprintln!("taq-benchmark: cannot write {}: {e}", detail.display());
            }
            println!("{}", result.line.to_json());
        }
        None => std::process::exit(report::run_all(&spec, seed, seconds, smoke, &out)),
    }
}
