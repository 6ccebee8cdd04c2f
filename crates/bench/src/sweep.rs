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
//! [`SweepArgs`] is the shared CLI surface: every sweep binary accepts
//! the same `--seeds`/`--runs`/`--threads`/`--full`/`--smoke` flags
//! instead of growing its own ad-hoc parsing.

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

/// The threads a sweep uses when the CLI does not pin one: all
/// available cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Shared CLI surface for the sweep binaries: seed list, worker count,
/// and the standard duration scaling flags.
///
/// Flags (all optional):
/// - `--seeds 1,2,3` — explicit seed list
/// - `--runs N` — `N` seeds counting up from the base seed
/// - `--threads N` — worker threads (default: all cores)
/// - `--full` — paper-scale durations
/// - `--smoke` — minimal durations/grids for CI smoke runs
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
}

impl SweepArgs {
    /// The historical single-run default: one run of `base_seed`, all
    /// cores available (harmless for a one-item sweep).
    pub fn new(base_seed: u64) -> Self {
        SweepArgs {
            seeds: vec![base_seed],
            threads: default_threads(),
            full: false,
            smoke: false,
        }
    }

    /// Parses the process CLI, exiting with a message on a malformed or
    /// unknown flag. `base_seed` seeds the `--runs N` expansion and is
    /// the single default seed when neither `--seeds` nor `--runs` is
    /// given.
    pub fn parse(base_seed: u64) -> Self {
        Self::parse_with(base_seed, &[])
    }

    /// [`SweepArgs::parse`] for a binary with flags of its own: it
    /// names them in `own_flags` and reads them from `std::env::args`
    /// itself.
    pub fn parse_with(base_seed: u64, own_flags: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::from_args(base_seed, &args, own_flags) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                let own: String = own_flags.iter().map(|f| format!(" [{f}]")).collect();
                eprintln!(
                    "usage: [--seeds a,b,c | --runs N] [--threads N] [--full] [--smoke]{own}"
                );
                std::process::exit(2);
            }
        }
    }

    /// Pure parser behind [`SweepArgs::parse_with`]. A `--flag` that is
    /// neither one of the five above nor in `own_flags` is an error, so
    /// a typo (`--ful`) cannot silently run the default configuration;
    /// positional arguments (a discipline name, an own flag's value)
    /// pass through.
    pub fn from_args(base_seed: u64, args: &[String], own_flags: &[&str]) -> Result<Self, String> {
        let mut out = SweepArgs::new(base_seed);
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seeds" => {
                    let list = args.get(i + 1).ok_or("--seeds needs a list (e.g. 1,2,3)")?;
                    out.seeds = list
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<u64>()
                                .map_err(|_| format!("bad seed {s:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                    if out.seeds.is_empty() {
                        return Err("--seeds list is empty".into());
                    }
                    i += 2;
                }
                "--runs" => {
                    let n: u64 = args
                        .get(i + 1)
                        .ok_or("--runs needs a count")?
                        .parse()
                        .map_err(|_| "--runs needs an integer".to_string())?;
                    if n == 0 {
                        return Err("--runs must be at least 1".into());
                    }
                    out.seeds = (0..n).map(|k| base_seed + k).collect();
                    i += 2;
                }
                "--threads" => {
                    out.threads = args
                        .get(i + 1)
                        .ok_or("--threads needs a count")?
                        .parse()
                        .map_err(|_| "--threads needs an integer".to_string())?;
                    if out.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    i += 2;
                }
                "--full" => {
                    out.full = true;
                    i += 1;
                }
                "--smoke" => {
                    out.smoke = true;
                    i += 1;
                }
                flag if flag.starts_with("--") && !own_flags.contains(&flag) => {
                    return Err(format!("unknown flag {flag}"));
                }
                _ => i += 1,
            }
        }
        Ok(out)
    }

    /// Duration scaling honouring both `--smoke` and `--full` (smoke
    /// wins, since CI sets it deliberately).
    pub fn duration(&self, smoke_secs: u64, short_secs: u64, full_secs: u64) -> SimTime {
        if self.smoke {
            SimTime::from_secs(smoke_secs)
        } else if self.full {
            SimTime::from_secs(full_secs)
        } else {
            SimTime::from_secs(short_secs)
        }
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

    #[test]
    fn parses_seed_list_and_threads() {
        let a =
            SweepArgs::from_args(42, &args(&["--seeds", "1,2,3", "--threads", "2"]), &[]).unwrap();
        assert_eq!(a.seeds, vec![1, 2, 3]);
        assert_eq!(a.threads, 2);
        assert!(!a.full && !a.smoke);
    }

    #[test]
    fn parses_runs_expansion_and_modes() {
        let a =
            SweepArgs::from_args(10, &args(&["--runs", "4", "--smoke", "--full"]), &[]).unwrap();
        assert_eq!(a.seeds, vec![10, 11, 12, 13]);
        assert!(a.full && a.smoke);
        // Smoke wins the duration tie.
        assert_eq!(a.duration(1, 60, 600), SimTime::from_secs(1));
        assert_eq!(a.secs(1, 60, 600), 1);
    }

    #[test]
    fn defaults_and_unknown_flags() {
        let a = SweepArgs::from_args(42, &[], &[]).unwrap();
        assert_eq!(a.seeds, vec![42]);
        assert!(a.threads >= 1);
        assert_eq!(a.duration(1, 60, 600), SimTime::from_secs(60));
        let full = SweepArgs::from_args(42, &args(&["--full"]), &[]).unwrap();
        assert_eq!(full.duration(1, 60, 600), SimTime::from_secs(600));
        // A typo must not run the default configuration under the
        // figure's header.
        let err = SweepArgs::from_args(42, &args(&["--ful"]), &[]).unwrap_err();
        assert!(err.contains("--ful"), "{err}");
        assert!(SweepArgs::from_args(42, &args(&["--whatever", "7"]), &[]).is_err());
    }

    #[test]
    fn parses_own_flags_and_positionals() {
        // A binary's own flags are named in the call; their values and
        // any other positional argument pass through untouched.
        let a = SweepArgs::from_args(
            11,
            &args(&["--out", "x.json", "--smoke", "--extreme"]),
            &["--out", "--extreme"],
        )
        .unwrap();
        assert!(a.smoke && !a.full);
        assert_eq!(a.seeds, vec![11]);
        let a = SweepArgs::from_args(42, &args(&["red", "--full"]), &[]).unwrap();
        assert!(a.full);
        // Naming one flag does not admit another.
        assert!(SweepArgs::from_args(7, &args(&["--extrem"]), &["--extreme"]).is_err());
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(SweepArgs::from_args(1, &args(&["--seeds", "1,x"]), &[]).is_err());
        assert!(SweepArgs::from_args(1, &args(&["--runs", "0"]), &[]).is_err());
        assert!(SweepArgs::from_args(1, &args(&["--threads", "0"]), &[]).is_err());
        assert!(SweepArgs::from_args(1, &args(&["--seeds"]), &[]).is_err());
    }
}
