#!/usr/bin/env sh
# The local gate, tiered so CI and pre-push hooks can pick their depth.
#
#   VERIFY_TIER=quick   fast correctness gate (< 5 min): build, tests,
#                       clippy, fmt, rustdoc with warnings denied, a
#                       type-check of the repo benchmark, and every
#                       experiment that takes --smoke diffed against its
#                       golden stdout. The default.
#   VERIFY_TIER=full    quick + release smoke runs of the repo
#                       benchmark, of the sweep, fault-matrix, trace and
#                       fluid-validation experiments, of every example
#                       and of the testbed, the execution-conformance
#                       oracles in the debug and the release profile,
#                       plus the repo benchmark at full size on HEAD~1
#                       and on the working tree, compared.
#   VERIFY_OFFLINE=0    drop the --offline flags (e.g. on a CI runner
#                       with a warm crates.io mirror). Default is 1:
#                       fully offline, no network access needed.
#
# Each tier is a shell function; CI jobs call them by name via
#   scripts/verify.sh <function>
# so the workflow's job names and the local entry points stay in sync.
set -eu

cd "$(dirname "$0")/.."

VERIFY_TIER="${VERIFY_TIER:-quick}"
VERIFY_OFFLINE="${VERIFY_OFFLINE:-1}"

if [ "$VERIFY_OFFLINE" = "1" ]; then
    OFFLINE="--offline"
else
    OFFLINE=""
fi

run() {
    echo "+ $*" >&2
    "$@"
}

fmt_check() {
    run cargo fmt --check
}

lint() {
    run cargo clippy $OFFLINE --workspace --all-targets -- -D warnings
}

# Rustdoc with warnings denied: a doc link to a removed or private item
# (a deleted config field, an unexported helper) fails here instead of
# rendering as dead text.
doc_check() {
    run env RUSTDOCFLAGS="-D warnings" cargo doc $OFFLINE --workspace --no-deps
}

build_release() {
    run cargo build $OFFLINE --release
}

# The whole test suite. The root manifest's `default-members` covers the
# root package and every crate, so a bare `cargo test` runs the root
# integration suites (tests/*.rs) *and* each crate's unit tests and
# doctests — the same set as `cargo test --workspace`.
test_suite() {
    run cargo test $OFFLINE -q
}

# The repo benchmark (benchmark/, BENCHMARK.json) is a workspace of its
# own that calls the crates' public API, so nothing above compiles it.
# Type-check it in the quick tier so a crates/ API change cannot break
# it unseen; the full tier also runs it end to end at toy size
# (packet conservation and digest equality are checked inside), then
# runs its own unit and integration tests, which nothing else runs.
benchmark_check() {
    run cargo check $OFFLINE --manifest-path benchmark/Cargo.toml --all-targets
}

benchmark_smoke() {
    run bash benchmark/run.sh --smoke
    run cargo test $OFFLINE --release --manifest-path benchmark/Cargo.toml
}

# Sweep smoke: 2 seeds x 2 worker threads through the parallel runner.
# topo_placement rides along to exercise the multi-bottleneck topology
# engine (parking lot + access tree) under the same runner.
sweep_smoke() {
    run cargo run $OFFLINE --release -p taq-bench -- fig03_buffer_tradeoff --smoke --seeds 1,2 --threads 2
    run cargo run $OFFLINE --release -p taq-bench -- model_tipping_point --threads 2
    run cargo run $OFFLINE --release -p taq-bench -- topo_placement --smoke --seeds 1,2 --threads 2
}

# The release `taq-bench` binary, built, as an absolute path in $bin.
taq_bench_bin() {
    run cargo build $OFFLINE --release -p taq-bench
    bin="${CARGO_TARGET_DIR:-target}/release/taq-bench"
    case "$bin" in /*) ;; *) bin="$PWD/$bin" ;; esac
}

# Experiment smoke: every `taq-bench` experiment whose usage line lists
# --smoke, run at that scale, its stdout compared byte for byte with
# tests/golden/smoke/<name>.txt. The list is read from the binary's own
# usage output (run with no experiment, it exits 2 and prints every
# usage line), so it cannot drift from the dispatch table. Each runs in
# target/tmp/smoke/ (under CARGO_TARGET_DIR when that is set, like
# cargo's own test scratch files), where its stdout is written as
# <name>.txt and any file it writes by default (fluid_validation's
# report) lands. A mismatch keeps the fresh file there and names the golden file and the
# first line that differs; an experiment without a golden file fails
# the leg. The one exception is fig11_testbed_fairness: it runs on the
# wall clock, so no two runs print the same numbers, until the testbed
# gets a virtual clock (ROADMAP item 12). The one experiment run at its
# defaults is model_tipping_point: pure Markov-chain math, about 10 ms
# and no --smoke, pinned the same way. To update a golden file, copy
# the fresh file over it, for an intended change only, and say why in
# CHANGES.md; there is no update flag. The paper's claims are read from
# these files: a golden update that breaks one fails `cargo test --test
# paper_claims` (in test_suite), and that test's bounds are the claims,
# not to be loosened to let an update pass.
experiment_smoke() {
    taq_bench_bin
    names=$("$bin" 2>&1 | awk '$1 == "taq-bench" && /\[--smoke\]/ { print $2 }')
    if [ -z "$names" ]; then
        echo "experiment_smoke: no experiment lists --smoke" >&2
        return 1
    fi
    fresh="${CARGO_TARGET_DIR:-target}/tmp/smoke"
    rm -rf "$fresh"
    mkdir -p "$fresh"
    failed=""
    for name in $names model_tipping_point; do
        scale=--smoke
        [ "$name" = model_tipping_point ] && scale=""
        (cd "$fresh" && run "$bin" "$name" $scale >"$name.txt")
        golden="tests/golden/smoke/$name.txt"
        if [ "$name" = fig11_testbed_fairness ]; then
            continue
        elif [ ! -f "$golden" ]; then
            echo "experiment_smoke: $name has no golden file $golden" >&2
            failed="$failed $name"
        elif ! cmp -s "$golden" "$fresh/$name.txt"; then
            line=$(cmp "$golden" "$fresh/$name.txt" 2>&1 | sed -n 's/.*line \([0-9]*\).*/\1/p')
            echo "experiment_smoke: $fresh/$name.txt differs from $golden at line $line" >&2
            echo "  fresh:  $(sed -n "${line}p" "$fresh/$name.txt")" >&2
            echo "  golden: $(sed -n "${line}p" "$golden")" >&2
            failed="$failed $name"
        fi
    done
    if [ -n "$failed" ]; then
        echo "experiment_smoke: failed:$failed" >&2
        return 1
    fi
}

# Results: regenerates every committed results/<name>.txt from the
# experiment of that name at its default arguments. A file holds the
# commit it was made at (git describe --always, with -dirty when a
# tracked file outside results/ differs from it, so a second run over
# its own output writes the same line), then the binary's stdout, which
# opens with the manifest line (the arguments and the seeds); build
# output goes to the terminal, not into a figure. About 15 s in release
# for the simulated figures, plus fig11_testbed_fairness's 48 s of wall
# clock.
results() {
    taq_bench_bin
    commit=$(git describe --always)
    git diff --quiet HEAD -- . ':(exclude)results' || commit="$commit-dirty"
    for file in $(git ls-files 'results/*.txt'); do
        name=$(basename "$file" .txt)
        { echo "# commit $commit" && run "$bin" "$name"; } >"$file"
    done
}

# Examples smoke: every example under examples/ runs once in release
# and must exit 0. The list is the directory's own, so a new example
# cannot be missed. testbed_demo is left to testbed_smoke, which runs
# it the same way.
examples_smoke() {
    run cargo build $OFFLINE --release --examples
    for src in examples/*.rs; do
        name=$(basename "$src" .rs)
        if [ "$name" != testbed_demo ]; then
            run cargo run $OFFLINE --release --example "$name"
        fi
    done
}

# Fault smoke: the robustness matrix at smoke scale exercises the
# fault-injection layer end to end (burst loss, reordering, corruption,
# flaps, jitter) under the parallel sweep runner.
fault_smoke() {
    run cargo run $OFFLINE --release -p taq-bench -- faults_matrix --smoke --seeds 1,2 --threads 2
}

# Trace smoke: the packet-lifecycle tracer end to end — runs the
# faulted fig01 demo with the flight recorder attached, writes the span
# dump, and re-analyzes it through the --input path. The two reports'
# non-`#` lines must be identical, so a drift between what the
# collector writes and what the parser reads fails the leg. Next,
# --input on tests/data/trace_end_of_time.jsonl, one delivered span
# ending at u64::MAX - 1: the report keeps state and rows only for
# windows that hold a delivery, so it must finish within the timeout
# and print the empty windows before the span as one row. Then the
# two sink crates' own tests, among them the oracles that hold
# TraceCollector and SummarySink to their test-local twins on random
# event streams and the hub's sink check-out/replay tests. Those, with
# the two root suites that pin what an attached run emits
# (trace_determinism, whose seed-3 dump must equal
# tests/golden/trace_seed3.jsonl, and telemetry_events, whose seed-42
# TAQ trace must equal tests/golden/telemetry_taq_seed42.jsonl), run
# again with --release: every attached number in EXPERIMENTS.md and the
# repo benchmark comes from that profile, and test_suite covers only
# the debug one. A golden test that fails writes the fresh file under
# target/tmp/ and names the first differing line; to update a golden
# file, copy that file over it, for an intended change only, and say
# why in CHANGES.md. CI archives the dump.
trace_smoke() {
    run cargo run $OFFLINE --release -p taq-bench -- trace_report --out results/trace_dump.jsonl >results/trace_report_out.txt
    run cargo run $OFFLINE --release -p taq-bench -- trace_report --input results/trace_dump.jsonl >results/trace_report_in.txt
    cat results/trace_report_out.txt
    grep -v '^#' results/trace_report_out.txt >results/trace_report_out.body
    grep -v '^#' results/trace_report_in.txt >results/trace_report_in.body
    run diff results/trace_report_out.body results/trace_report_in.body
    run timeout 60 cargo run $OFFLINE --release -q -p taq-bench -- trace_report --input tests/data/trace_end_of_time.jsonl >results/trace_report_end_of_time.txt
    cat results/trace_report_end_of_time.txt
    run grep -q 'empty windows)$' results/trace_report_end_of_time.txt
    for profile in "" --release; do
        run cargo test $OFFLINE $profile -q -p taq-trace -p taq-telemetry
    done
    run cargo test $OFFLINE --release -q --test trace_determinism --test telemetry_events
}

# Testbed smoke: the real-time harness outside `cargo test` — eight
# clients' worth of taq-tcp hosts on threads through a TAQ middlebox,
# 12 simulated seconds at 6x (about 2 s of wall clock). The example
# exits nonzero unless every client completed at least one object.
testbed_smoke() {
    run cargo run $OFFLINE --release --example testbed_demo
}

# Execution conformance: how a run is driven (one run_until, chunked
# run_until with starts scheduled behind the queue's peeked minimum, a
# manual step loop) must not be observable; plus the event queue's own
# unit tests (the wheel against its ordered-set oracle under pushes,
# pops and cancellations, the slab, the packed key, and the timer
# handles' identity: a handle cancels its own pending event once, and a
# fired, cancelled, recycled, foreign or synthetic one matches nothing),
# the engine's (timer cancellation, failed cancels changing nothing,
# event counting, routing), the TAQ queue layer's (among them the slot
# heap against its sorted-Vec oracle), the TAQ discipline's (among them
# a full buffer under evicting arrivals and an FQ-mode backlog that
# re-keys on every call), and the reference TAQ written
# from the paper (tests/reference_taq.rs) that every class, drop, pop,
# eviction and tracker state is held to. Each command runs
# twice: in the debug profile,
# where `debug_assert`s and overflow checks are on, and with --release,
# the build every figure and benchmark number comes from — test_suite
# covers only the first. Nothing here is timed: performance is the repo
# benchmark's (bench_compare). This entry point also lets a bisecting
# developer run just the ordering contract and what it stands on.
execution_conformance() {
    for profile in "" --release; do
        run cargo test $OFFLINE $profile -q --test batch_conformance
        run cargo test $OFFLINE $profile -q -p taq-sim --lib events::
        run cargo test $OFFLINE $profile -q -p taq-sim --lib engine::
        run cargo test $OFFLINE $profile -q -p taq --lib queues::
        run cargo test $OFFLINE $profile -q -p taq --lib qdisc::
        run cargo test $OFFLINE $profile -q --test reference_taq
    done
}

# Fluid oracle: the mean-field model's own invariants (mass
# conservation, step-halving stability, DTMC agreement) as the quick
# layer; the full tier reruns the sim-vs-model convergence ladder at
# smoke scale and regenerates results/FLUID_validation.json so CI can
# archive it. The committed full-scale artifact is separately held to
# its convergence contract by tests/fluid_vs_sim.rs inside test_suite.
fluid() {
    run cargo test $OFFLINE -q -p taq-model --lib fluid
    if [ "$VERIFY_TIER" = "full" ]; then
        run cargo run $OFFLINE --release -p taq-bench -- fluid_validation --smoke --out results/FLUID_validation_smoke.json
    fi
}

# The one performance comparison: the repo benchmark at full size on
# HEAD~1 (its committed files, unpacked under .bench_build/) and on the
# working tree, then `run.sh --compare` on the two result files, whose
# exit status this returns: nonzero when an end-to-end metric is worse
# than the parent beyond its BENCHMARK.json bound. About six minutes on
# two cores. Each side builds in its own benchmark/target. The parent is
# unpacked with `git archive` and not checked out with `git worktree`,
# so an interrupted run leaves nothing registered in .git.
bench_compare() {
    work="$PWD/.bench_build"
    rm -rf "$work"
    mkdir -p "$work/parent"
    git archive HEAD~1 | tar -x -C "$work/parent"
    (cd "$work/parent" && run bash benchmark/run.sh --out "$work/parent-out")
    run bash benchmark/run.sh --out "$work/head-out"
    run bash benchmark/run.sh --compare "$work/parent-out/results.json" "$work/head-out/results.json"
}

# Dependency advisories via cargo-audit. Never a gate: the CI job runs
# it with continue-on-error, and dev boxes without the tool (it needs a
# network install) skip it outright — supply-chain advisories should
# page a human, not block an unrelated PR.
audit() {
    if ! cargo audit --version >/dev/null 2>&1; then
        echo "audit: cargo-audit not installed; skipping" >&2
        return 0
    fi
    run cargo audit
}

# Coverage: workspace line coverage via cargo-llvm-cov, written to
# coverage/ as an lcov trace plus a human-readable summary. Never a
# gate — CI archives the directory so reviewers can eyeball the trend.
# Skips itself when the tool is missing (it needs a network install),
# so offline dev boxes lose nothing.
coverage() {
    if ! cargo llvm-cov --version >/dev/null 2>&1; then
        echo "coverage: cargo-llvm-cov not installed; skipping" >&2
        return 0
    fi
    mkdir -p coverage
    run cargo llvm-cov $OFFLINE --workspace --lcov --output-path coverage/lcov.info
    run cargo llvm-cov report --summary-only > coverage/summary.txt
    cat coverage/summary.txt
}

quick() {
    fmt_check
    lint
    doc_check
    build_release
    test_suite
    benchmark_check
    experiment_smoke
}

full() {
    quick
    benchmark_smoke
    sweep_smoke
    fault_smoke
    examples_smoke
    trace_smoke
    testbed_smoke
    execution_conformance
    fluid
    bench_compare
}

if [ "$#" -gt 0 ]; then
    # Explicit entry points: scripts/verify.sh lint test_suite ...
    for target in "$@"; do
        "$target"
    done
else
    case "$VERIFY_TIER" in
        quick) quick ;;
        full) full ;;
        *)
            echo "verify.sh: unknown VERIFY_TIER '$VERIFY_TIER' (want quick|full)" >&2
            exit 2
            ;;
    esac
fi
