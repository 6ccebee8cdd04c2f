//! Parallel multi-run sweeps.
//!
//! Every figure in the paper aggregates over independent simulation
//! runs — seeds, parameter grids, discipline × load matrices. Each run
//! is single-threaded and deterministic, so the natural parallelism is
//! *across* runs: [`sweep_indexed`] fans a work list out over
//! `std::thread::scope` workers and returns results in input order,
//! which keeps merged output deterministic regardless of which worker
//! finished first. This is what the Send-clean refactor of the
//! simulation stack buys (see DESIGN.md's "Concurrency model").
//!
//! [`SweepArgs`] is the one CLI parser: `taq-bench <experiment>` hands
//! it the experiment's flag list, and every experiment reads the same
//! `--seeds`/`--runs`/`--threads`/`--full`/`--smoke` flags — those of
//! them it names — instead of growing its own ad-hoc parsing.

use crate::Discipline;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use taq_sim::SimTime;

/// Runs `f(index, &item)` for every item, fanned across at most
/// `threads` scoped worker threads, and returns the results **in input
/// order** — the output is byte-identical to the serial
/// `items.iter().enumerate().map(..)` no matter how the pool schedules.
///
/// Workers claim indices from a shared atomic counter (work stealing by
/// index), so a slow item does not stall the rest of the list. With
/// `threads <= 1` (or one item) the sweep degenerates to a plain serial
/// loop on the calling thread — no pool, no locks.
///
/// # Panics
///
/// Propagates a panic from `f` once the scope joins; remaining items
/// may or may not have run.
pub fn sweep_indexed<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

/// [`sweep_indexed`] specialised to the most common shape: one
/// independent run per seed, results merged in seed-list order.
pub fn sweep_seeds<T, F>(seeds: &[u64], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    sweep_indexed(seeds, threads, |_, &seed| f(seed))
}

/// Runs `f(&cell, seed)` for every seed of every cell, all of them
/// fanned across one pool, and returns each cell's results in seed-list
/// order, cells in input order — the shape a seed-averaged table reads.
pub fn sweep_cells<C, T, F>(cells: &[C], seeds: &[u64], threads: usize, f: F) -> Vec<Vec<T>>
where
    C: Sync,
    T: Send,
    F: Fn(&C, u64) -> T + Sync,
{
    let grid: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|c| seeds.iter().map(move |&seed| (c, seed)))
        .collect();
    let mut runs = sweep_indexed(&grid, threads, |_, &(c, seed)| f(&cells[c], seed)).into_iter();
    cells
        .iter()
        .map(|_| runs.by_ref().take(seeds.len()).collect())
        .collect()
}

/// The threads a sweep uses when the CLI does not pin one: all
/// available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The parsed command line of one experiment.
///
/// An experiment lists every flag it reads as its usage line prints
/// them: `--name` for a switch, `--name VALUE` for a flag with a value
/// (an `N` value must be a non-negative integer), `[discipline]` for a
/// positional discipline name. The shared flags are [`SweepArgs::SWEEP`]:
/// an explicit seed list, `N` seeds counting up from the base seed, the
/// worker threads (default: all cores), paper-scale and CI-smoke scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// Seeds to run, in output order.
    pub seeds: Vec<u64>,
    /// Worker threads for [`sweep_indexed`] / [`sweep_seeds`].
    pub threads: usize,
    /// Paper-scale durations requested (`--full`).
    pub full: bool,
    /// CI smoke mode requested (`--smoke`): binaries shrink grids and
    /// durations to seconds of wall clock.
    pub smoke: bool,
    /// The positional discipline, when one was given.
    pub discipline: Option<Discipline>,
    /// Every flag given, with its last value (empty for a switch).
    given: BTreeMap<&'static str, String>,
}

impl SweepArgs {
    /// The five shared flags, for an experiment that sweeps seeds.
    pub const SWEEP: &'static [&'static str] = &[
        "--seeds a,b,c",
        "--runs N",
        "--threads N",
        "--full",
        "--smoke",
    ];
    /// Duration scaling alone, for a fixed-seed serial experiment.
    pub const SCALE: &'static [&'static str] = &["--full", "--smoke"];

    /// Parses `args` against `flags`, the experiment's full flag list. An
    /// argument not in the list — a typo such as `--ful`, or a shared
    /// flag the experiment would ignore — is an error, as is a missing or
    /// malformed value. `base_seed` seeds the `--runs N` expansion and is
    /// the one seed when neither `--seeds` nor `--runs` is given.
    pub fn from_args(
        base_seed: u64,
        args: &[String],
        flags: &[&'static str],
    ) -> Result<Self, String> {
        let mut out = SweepArgs {
            seeds: vec![base_seed],
            threads: default_threads(),
            full: false,
            smoke: false,
            discipline: None,
            given: BTreeMap::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") && flags.contains(&"[discipline]") {
                let d = Discipline::parse(arg).ok_or(format!("unknown discipline {arg:?}"))?;
                out.discipline = Some(d);
                continue;
            }
            let (name, placeholder) = flags
                .iter()
                .map(|f| f.split_once(' ').unwrap_or((f, "")))
                .find(|(name, _)| name == arg)
                .ok_or(format!("{arg} is not an argument of this experiment"))?;
            let value = match placeholder {
                "" => String::new(),
                v => args
                    .next()
                    .ok_or(format!("{name} needs a value ({v})"))?
                    .clone(),
            };
            let n = value.parse::<u64>().ok();
            if placeholder == "N" && n.is_none() {
                return Err(format!("{name} needs an integer, not {value:?}"));
            }
            match (name, n) {
                ("--runs" | "--threads", Some(0)) => {
                    return Err(format!("{name} must be at least 1"))
                }
                ("--runs", Some(n)) => out.seeds = (0..n).map(|k| base_seed + k).collect(),
                ("--threads", Some(n)) => out.threads = n as usize,
                ("--seeds", _) => {
                    out.seeds = value
                        .split(',')
                        .map(|s| s.trim().parse().map_err(|_| format!("bad seed {s:?}")))
                        .collect::<Result<_, _>>()?;
                }
                ("--full", _) => out.full = true,
                ("--smoke", _) => out.smoke = true,
                _ => {}
            }
            out.given.insert(name, value);
        }
        Ok(out)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.contains_key(flag)
    }

    /// The value `flag` was last given, if any (empty for a switch).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.get(flag).map(String::as_str)
    }

    /// The integer `flag` was last given, or `default`.
    pub fn num(&self, flag: &str, default: u64) -> u64 {
        self.value(flag).map_or(default, |v| {
            v.parse().expect("N values are checked when parsed")
        })
    }

    /// Duration scaling honouring both `--smoke` and `--full` (smoke
    /// wins, since CI sets it deliberately).
    pub fn duration(&self, smoke_secs: u64, short_secs: u64, full_secs: u64) -> SimTime {
        SimTime::from_secs(self.secs(smoke_secs, short_secs, full_secs))
    }

    /// Seconds variant of [`SweepArgs::duration`] for binaries that
    /// carry durations as plain integers.
    pub fn secs(&self, smoke: u64, short: u64, full: u64) -> u64 {
        if self.smoke {
            smoke
        } else if self.full {
            full
        } else {
            short
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sweep_preserves_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let serial = sweep_indexed(&items, 1, |i, &x| (i, x * x));
        let parallel = sweep_indexed(&items, 4, |i, &x| (i, x * x));
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], (7, 49));
    }

    #[test]
    fn sweep_runs_every_item_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u64> = (0..17).collect();
        let out = sweep_seeds(&items, 3, |seed| {
            calls.fetch_add(1, Ordering::Relaxed);
            seed + 1
        });
        assert_eq!(calls.load(Ordering::Relaxed), 17);
        assert_eq!(out, (1..=17).collect::<Vec<u64>>());
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        let none: Vec<u64> = Vec::new();
        assert!(sweep_seeds(&none, 8, |s| s).is_empty());
        assert_eq!(sweep_seeds(&[9], 8, |s| s * 2), vec![18]);
    }

    #[test]
    fn empty_seed_list_is_a_no_op_at_any_thread_count() {
        let none: Vec<u64> = Vec::new();
        for threads in [1, 2, 16] {
            assert!(sweep_seeds(&none, threads, |s| s).is_empty());
            assert!(sweep_indexed(&none, threads, |i, &s| (i, s)).is_empty());
        }
    }

    #[test]
    fn single_item_grid_identical_at_any_thread_count() {
        // threads is clamped to the item count, so a grid of one runs
        // serially even under --threads N — and yields the same bytes.
        let grid = [123u64];
        let f = |s: u64| s.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial = sweep_seeds(&grid, 1, f);
        for threads in [2, 8, 64] {
            assert_eq!(sweep_seeds(&grid, threads, f), serial);
        }
    }

    #[test]
    fn worker_panic_surfaces_as_failure_not_a_hang() {
        // scope() re-raises a worker panic at join, so a dying run
        // fails the sweep instead of deadlocking the merge.
        let result = std::panic::catch_unwind(|| {
            let items: Vec<u64> = (0..8).collect();
            sweep_seeds(&items, 4, |seed| {
                assert!(seed != 5, "worker died on seed {seed}");
                seed
            })
        });
        assert!(result.is_err(), "panic must propagate to the caller");
    }

    /// Parses a whitespace-separated command line against `flags`.
    fn parse(base_seed: u64, line: &str, flags: &[&'static str]) -> Result<SweepArgs, String> {
        SweepArgs::from_args(
            base_seed,
            &args(&line.split_whitespace().collect::<Vec<_>>()),
            flags,
        )
    }

    const SWEEP: &[&str] = SweepArgs::SWEEP;

    #[test]
    fn parses_seed_list_and_threads() {
        let a = parse(42, "--seeds 1,2,3 --threads 2", SWEEP).unwrap();
        assert_eq!(a.seeds, vec![1, 2, 3]);
        assert_eq!(a.threads, 2);
        assert!(!a.full && !a.smoke);
        assert!(a.has("--seeds") && !a.has("--runs"));
    }

    #[test]
    fn parses_runs_expansion_and_modes() {
        let a = parse(10, "--runs 4 --smoke --full", SWEEP).unwrap();
        assert_eq!(a.seeds, vec![10, 11, 12, 13]);
        assert!(a.full && a.smoke);
        // Smoke wins the duration tie.
        assert_eq!(a.duration(1, 60, 600), SimTime::from_secs(1));
        assert_eq!(a.secs(1, 60, 600), 1);
    }

    #[test]
    fn defaults_and_unknown_flags() {
        let a = parse(42, "", SWEEP).unwrap();
        assert_eq!(a.seeds, vec![42]);
        assert!(a.threads >= 1);
        assert_eq!(a.duration(1, 60, 600), SimTime::from_secs(60));
        let full = parse(42, "--full", SWEEP).unwrap();
        assert_eq!(full.duration(1, 60, 600), SimTime::from_secs(600));
        // A typo must not run the default configuration under the
        // figure's header.
        let err = parse(42, "--ful", SWEEP).unwrap_err();
        assert!(err.contains("--ful"), "{err}");
        assert!(parse(42, "--whatever 7", SWEEP).is_err());
        // Nor may a shared flag the experiment does not read: a seed
        // list for a fixed-seed experiment is not seed 42 under its
        // header.
        let err = parse(42, "--seeds 1,2", &["--threads N"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
    }

    #[test]
    fn parses_own_flags_and_positionals() {
        // An experiment's own flags sit in its list next to the shared
        // ones it reads; a value flag takes the next argument.
        let flags = &[
            "--smoke",
            "--out PATH",
            "--extreme",
            "--seed N",
            "[discipline]",
        ];
        let a = parse(11, "--out x.json --smoke --extreme --seed 9 red", flags).unwrap();
        assert!(a.smoke && !a.full);
        assert_eq!(a.seeds, vec![11]);
        assert_eq!(a.value("--out"), Some("x.json"));
        assert!(a.has("--extreme"));
        assert_eq!(a.num("--seed", 42), 9);
        assert_eq!(a.num("--window-ms", 5_000), 5_000);
        assert_eq!(a.discipline, Some(Discipline::Red));
        // Naming one flag does not admit another.
        assert!(parse(7, "--extrem", flags).is_err());
        // A positional is a discipline, and only where the list says so.
        assert!(parse(7, "bogus", flags).is_err());
        assert!(parse(7, "red", SWEEP).is_err());
    }

    #[test]
    fn rejects_malformed_flags() {
        for line in ["--seeds 1,x", "--runs 0", "--threads 0", "--seeds"] {
            assert!(parse(1, line, SWEEP).is_err(), "{line}");
        }
        // An `N` value must be an integer; a missing value is an error.
        let flags = &["--seed N", "--out PATH"];
        assert!(parse(1, "--seed x", flags).unwrap_err().contains("--seed"));
        assert!(parse(1, "--out", flags).is_err());
    }

    #[test]
    fn sweep_cells_groups_each_cell_in_seed_order() {
        for threads in [1, 2, 4] {
            let out = sweep_cells(&["a", "b", "c"], &[5, 6], threads, |c, s| format!("{c}{s}"));
            assert_eq!(out, [["a5", "a6"], ["b5", "b6"], ["c5", "c6"]]);
        }
    }
}
