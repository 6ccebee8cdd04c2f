//! The `taq-bench` command line: an experiment runs only under flags it
//! reads, and every CLI error exits 2 before anything is simulated.

use std::process::{Command, Output};

fn taq_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_taq-bench"))
        .args(args)
        .output()
        .expect("taq-bench runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fixed-seed figure given a seed list is an error naming the flag,
/// not seed 42's grid under the Figure 8 header.
#[test]
fn a_flag_the_experiment_does_not_read_exits_2() {
    let out = taq_bench(&["fig08_fairness_taq", "--seeds", "1,2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    assert!(stderr(&out).contains("--seeds"), "{}", stderr(&out));
}

#[test]
fn an_unknown_experiment_exits_2_and_lists_all_of_them() {
    let out = taq_bench(&["fig07_nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    for name in [
        "fig01_download_times",
        "fig02_fairness_droptail",
        "fig03_buffer_tradeoff",
        "fig06_model_validation",
        "fig08_fairness_taq",
        "fig09_flow_evolution",
        "fig10_short_flows",
        "fig11_testbed_fairness",
        "fig12_admission_cdf",
        "sec23_user_hangs",
        "ablation_taq",
        "topo_placement",
        "faults_matrix",
        "model_tipping_point",
        "fluid_validation",
        "telemetry_report",
        "trace_report",
    ] {
        assert!(err.contains(name), "{name} missing from:\n{err}");
    }
    assert!(!err.contains("taq-bench modern_stacks"), "{err}");
    assert_eq!(taq_bench(&[]).status.code(), Some(2), "no experiment named");
    let removed = taq_bench(&["modern_stacks"]);
    assert_eq!(removed.status.code(), Some(2), "a deleted experiment");
}

/// Pure math: the whole experiment runs in milliseconds.
#[test]
fn model_tipping_point_runs_under_its_one_flag() {
    let out = taq_bench(&["model_tipping_point", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("# Model analysis — TAQ (EuroSys 2014) §3\n"),
        "{stdout}"
    );
}

/// A malformed value or a misspelt flag stops `trace_report` before its
/// demo run, instead of running seed 42 with the default thresholds.
#[test]
fn trace_report_rejects_malformed_values_and_unknown_flags() {
    for args in [
        &["trace_report", "--seed", "x"][..],
        &["trace_report", "--silence-ms", "2s"],
        &["trace_report", "--windw-ms", "9"],
        &[
            "trace_report",
            "--seed",
            "x",
            "--silence-ms",
            "2s",
            "--windw-ms",
            "9",
        ],
    ] {
        let out = taq_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(stderr(&out).contains(args[1]), "{}", stderr(&out));
    }
}
