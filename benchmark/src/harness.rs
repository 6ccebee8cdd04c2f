//! Measurement primitives the benchmark owns: the trace clock, CPU and
//! memory readers, the counting allocator, the noise canary, a
//! histogram for per-call latencies, the span recorder, and the small
//! statistics helpers every report uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// Heap allocations since process start (alloc + realloc + alloc_zeroed;
/// frees are not counted) — the same definition `bench_report` uses for
/// its `allocs_per_event` column.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged; the
// counter is a relaxed side effect that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller guaranteed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller guaranteed to us.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Clocks, CPU, memory
// ---------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: the one clock
/// every span and wrapper reads.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` in Linux's
/// `<time.h>`.
const PROCESS_CPUTIME: std::ffi::c_int = 2;
const THREAD_CPUTIME: std::ffi::c_int = 3;

/// Seconds on one of the kernel's CPU-time clocks.
///
/// Not `/proc/self/stat`: its `utime`/`stime` advance in 10 ms ticks,
/// too coarse for 50 ms segments, and `/proc/thread-self/schedstat` is
/// only brought up to date at scheduler ticks. `clock_gettime` updates
/// the running thread's account before it answers, counts in
/// nanoseconds, and — what matters on a shared host — does not count
/// time the hypervisor gave to someone else.
fn cpu_clock_s(clock_id: std::ffi::c_int) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is libc's, which std already links; `ts`
    // is a live, writable `struct timespec` (two C longs on the LP64
    // Linux targets this benchmark reads `/proc` on), and the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// User + system CPU seconds of the whole process, worker threads that
/// have exited included.
pub fn cpu_seconds() -> f64 {
    cpu_clock_s(PROCESS_CPUTIME)
}

/// CPU seconds of the calling thread alone. The canary reads this one:
/// the process clock can jump just after worker threads are joined,
/// when the kernel books the last slice of an exiting thread.
fn thread_cpu_seconds() -> f64 {
    cpu_clock_s(THREAD_CPUTIME)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steps of the canary's three parts. Chosen so that each part takes
/// about a third of a reading on the reference host.
const CANARY_ALU_STEPS: u64 = 1 << 19;
const CANARY_MEM_STEPS: u64 = 1 << 13;
const CANARY_CHURN_STEPS: u64 = 10_000;
const CANARY_STEPS: u64 = CANARY_ALU_STEPS + CANARY_MEM_STEPS + CANARY_CHURN_STEPS;

/// One multiply-xorshift step: the canary's only arithmetic.
#[inline]
fn mix(x: u64, i: u64) -> u64 {
    (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i
}

/// The canary: a small fixed program whose duration depends on the
/// machine and its neighbours, never on the code under test. It does, in
/// three parts of about equal length, what a simulation round does:
/// arithmetic on eight independent chains (bound by issue width, so it
/// slows when a neighbour takes the core's other hardware thread as well
/// as when the clock drops), dependent random reads over 16 MB (cache
/// and memory pressure), and hash-map / heap / queue churn. README,
/// "Host speed", has the measurements behind the choice.
pub struct Canary {
    table: Vec<u64>,
    map: std::collections::HashMap<u64, [u64; 8]>,
    heap: std::collections::BinaryHeap<u64>,
    queue: std::collections::VecDeque<u64>,
}

impl Canary {
    fn new() -> Self {
        Canary {
            table: (0..1u64 << 21).map(|i| mix(i, i)).collect(),
            map: std::collections::HashMap::new(),
            heap: std::collections::BinaryHeap::new(),
            queue: std::collections::VecDeque::new(),
        }
    }

    /// One reading: CPU nanoseconds per step of one pass (about 4 ms in
    /// all). On the thread's CPU clock, so that a time slice the
    /// hypervisor takes away in the middle of a reading does not pass
    /// for a slow host.
    fn read(&mut self) -> f64 {
        let start = thread_cpu_seconds();
        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..CANARY_ALU_STEPS {
            for x in &mut chains {
                *x = mix(*x, i);
            }
        }
        let mask = self.table.len() as u64 - 1;
        let mut x = chains[0];
        for i in 0..CANARY_MEM_STEPS {
            x = mix(x, i) ^ self.table[(x & mask) as usize];
        }
        for i in 0..CANARY_CHURN_STEPS {
            x = mix(x, i);
            let key = x % 50_000;
            let slot = self.map.entry(key).or_insert([0; 8]);
            slot[(x % 8) as usize] += 1;
            x ^= slot[0];
            self.queue.push_back(key);
            self.heap.push(x);
            if self.queue.len() > 5_000 {
                x ^= self.queue.pop_front().expect("just checked");
                x ^= self.heap.pop().expect("pushed as often as the queue");
            }
        }
        std::hint::black_box((chains, x));
        (thread_cpu_seconds() - start) * 1e9 / CANARY_STEPS as f64
    }
}

/// The canary reading every reported time is scaled to: a duration is
/// reported as it would have read on a host whose canary runs at this
/// many nanoseconds per step (this host class, undisturbed).
pub const CANARY_REF_NS: f64 = 7.0;

/// Brackets sections with canary readings. Consecutive sections share
/// the reading between them.
pub struct HostSpeed {
    canary: Canary,
    last: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut canary = Canary::new();
        // The first pass fills the map and the queue; the second is the
        // first reading of the standing state.
        canary.read();
        let last = canary.read();
        HostSpeed { canary, last }
    }

    /// The most recent reading, ns per canary step.
    pub fn last(&self) -> f64 {
        self.last
    }

    /// Takes a new reading: call after work that ran outside `around`.
    pub fn refresh(&mut self) {
        self.last = self.canary.read();
    }

    /// Closes the section that began at the previous reading: takes a
    /// new reading and returns the factor that turns a duration measured
    /// in between into the reported one.
    pub fn close(&mut self) -> f64 {
        let before = self.last;
        self.last = self.canary.read();
        CANARY_REF_NS / ((before + self.last) / 2.0)
    }

    /// Runs `f` as one section.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let result = f();
        (result, self.close())
    }
}

/// Times a round segment by segment, a canary reading between each, so
/// a round that straddles a change of host speed is still scaled piece
/// by piece. The readings themselves are not part of the round.
pub struct RoundClock<'a> {
    host: &'a mut HostSpeed,
    segment_start: Instant,
    segment_cpu: f64,
    /// Seconds as measured, all segments together.
    pub raw_s: f64,
    /// Every segment so far, at reference host speed.
    pub segments: Vec<Segment>,
}

/// One segment of a round, at reference host speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    pub wall_s: f64,
    /// CPU seconds of the whole process over the segment.
    pub cpu_s: f64,
    /// What the measured seconds were multiplied by.
    pub factor: f64,
}

impl<'a> RoundClock<'a> {
    /// Starts the first segment at `host`'s latest reading.
    pub fn start(host: &'a mut HostSpeed) -> Self {
        RoundClock {
            host,
            segment_cpu: cpu_seconds(),
            segment_start: Instant::now(),
            raw_s: 0.0,
            segments: Vec::new(),
        }
    }

    /// Ends the current segment and starts the next; returns the ended
    /// segment's scaled seconds.
    pub fn lap(&mut self) -> f64 {
        let raw = self.segment_start.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - self.segment_cpu;
        let factor = self.host.close();
        self.raw_s += raw;
        self.segments.push(Segment {
            wall_s: raw * factor,
            cpu_s: cpu * factor,
            factor,
        });
        self.segment_cpu = cpu_seconds();
        self.segment_start = Instant::now();
        raw * factor
    }

    /// The round so far at reference host speed.
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }
}

/// Cost of one `now_ns()` pair with nothing in between: what every
/// wrapped call's measured duration includes on top of the call itself.
/// The median over batches of the batch mean, so a time slice stolen in
/// the middle of one batch does not pass for a slow clock.
pub fn timer_overhead_ns() -> f64 {
    const BATCHES: usize = 11;
    const PAIRS: u64 = 20_000;
    let batch = || {
        let mut total = 0;
        for _ in 0..PAIRS {
            let a = now_ns();
            let b = now_ns();
            total += std::hint::black_box(b - a);
        }
        total as f64 / PAIRS as f64
    };
    let means: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&means)
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// (max − min) ÷ median.
pub fn range_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample;
        // `delta` is left unclamped, as CPython leaves it.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range ÷ median: the spread the driver checks.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// A segment sample whose wall-clock exceeds its CPU time by more than
/// this factor was descheduled for part of it: the timed rounds run on
/// one thread and never block, so wall-clock and CPU time agree to within
/// a percent or two unless the hypervisor or another process took the
/// core away.
const DESCHEDULED: f64 = 1.03;

/// One round as it runs when nothing takes the core away.
pub struct Undisturbed {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Share of the segment samples that were not descheduled.
    pub clean_share: f64,
}

/// The wall-clock and CPU seconds of one undisturbed round at reference
/// host speed, from several rounds of the same work.
///
/// Every round runs the same segments, each scaled by the canary
/// readings around it. Per segment, the value is the median over the
/// rounds in which that segment was not descheduled; a segment that was
/// descheduled in every round is counted at its median CPU time, which
/// is what its wall-clock would have been. The round is the sum over its
/// segments. README, "Host speed", has the measurements behind this.
pub fn undisturbed_round(rounds: &[Vec<Segment>]) -> Undisturbed {
    let segments = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let (mut wall_s, mut cpu_s, mut clean_samples) = (0.0, 0.0, 0);
    for k in 0..segments {
        let clean: Vec<&Segment> = rounds
            .iter()
            .map(|r| &r[k])
            .filter(|s| s.wall_s <= s.cpu_s * DESCHEDULED)
            .collect();
        clean_samples += clean.len();
        if clean.is_empty() {
            let cpu = median(&rounds.iter().map(|r| r[k].cpu_s).collect::<Vec<_>>());
            wall_s += cpu;
            cpu_s += cpu;
        } else {
            wall_s += median(&clean.iter().map(|s| s.wall_s).collect::<Vec<_>>());
            cpu_s += median(&clean.iter().map(|s| s.cpu_s).collect::<Vec<_>>());
        }
    }
    Undisturbed {
        wall_s,
        cpu_s,
        clean_share: clean_samples as f64 / (segments * rounds.len()).max(1) as f64,
    }
}

/// Whether the host changed speed while these rounds ran: the mean
/// canary factor over the first third of the segments and over the last
/// third differ by more than a tenth.
pub fn host_drifted(rounds: &[Vec<Segment>]) -> bool {
    let factors: Vec<f64> = rounds.iter().flatten().map(|s| s.factor).collect();
    let third = factors.len() / 3;
    if third == 0 {
        return false;
    }
    let (first, last) = (
        mean(&factors[..third]),
        mean(&factors[factors.len() - third..]),
    );
    (first - last).abs() / first.min(last) > 0.10
}

/// 64-bit FNV-1a, fed field by field: the output digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

// ---------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------

/// Sub-buckets per power of two: quantiles are read to within 1/8.
const SUB: usize = 8;

/// Log2 histogram of nanosecond durations with [`SUB`] linear
/// sub-buckets per octave.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; 64 * SUB],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as usize; // >= 3
        let sub = ((v >> (msb - 3)) & 7) as usize;
        (msb - 2) * SUB + sub
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let msb = i / SUB + 2;
        let sub = (i % SUB) as u64;
        let width = 1u64 << (msb - 3);
        ((1u64 << msb) + sub * width, width)
    }

    #[inline]
    pub fn add(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (bucket midpoint), 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = Self::bounds(i);
                return lo as f64 + (width as f64 - 1.0) / 2.0;
            }
        }
        0.0
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded interval: name, start, end, and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent (a root span).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_SPAN_ID: AtomicU32 = AtomicU32::new(1);
/// The round span wrapped calls attach to while a round is running.
static CURRENT_ROUND: AtomicU32 = AtomicU32::new(0);
/// Round and phase spans; wrapped-call spans live in their own probes.
static PHASE_SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

pub fn next_span_id() -> u32 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The span id wrapped calls record as their parent right now.
#[inline]
pub fn current_round() -> u32 {
    CURRENT_ROUND.load(Ordering::Relaxed)
}

/// Times `f` as a phase span under `parent` and returns its id, its
/// duration in seconds, and `f`'s result. With `as_round` the span also
/// becomes the parent of every wrapped call made while `f` runs.
pub fn phase<R>(
    name: &'static str,
    parent: u32,
    as_round: bool,
    f: impl FnOnce(u32) -> R,
) -> (u32, f64, R) {
    let id = next_span_id();
    let previous = current_round();
    if as_round {
        CURRENT_ROUND.store(id, Ordering::Relaxed);
    }
    let start_ns = now_ns();
    let result = f(id);
    let end_ns = now_ns();
    if as_round {
        CURRENT_ROUND.store(previous, Ordering::Relaxed);
    }
    PHASE_SPANS
        .lock()
        .expect("no phase panicked while recording")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    (id, (end_ns - start_ns) as f64 / 1e9, result)
}

/// Takes every phase span recorded so far.
pub fn take_phase_spans() -> Vec<Span> {
    std::mem::take(
        &mut *PHASE_SPANS
            .lock()
            .expect("no phase panicked while recording"),
    )
}

/// Accumulator behind one wrapped entry point: every call is counted,
/// summed and bucketed; a deterministic 1-in-64 stride of calls is also
/// kept as a full span.
#[derive(Debug)]
pub struct Probe {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub hist: Hist,
    pub spans: Vec<Span>,
}

/// Calls between recorded spans.
const SPAN_STRIDE: u64 = 64;

impl Probe {
    pub fn new(name: &'static str) -> Self {
        Probe {
            name,
            count: 0,
            total_ns: 0,
            hist: Hist::default(),
            spans: Vec::new(),
        }
    }

    #[inline]
    pub fn record(&mut self, start_ns: u64, end_ns: u64) {
        let dt = end_ns.saturating_sub(start_ns);
        self.total_ns += dt;
        self.hist.add(dt);
        if self.count.is_multiple_of(SPAN_STRIDE) {
            self.spans.push(Span {
                id: next_span_id(),
                parent: current_round(),
                name: self.name,
                start_ns,
                end_ns,
            });
        }
        self.count += 1;
    }

    /// Mean nanoseconds per call at reference host speed (`factor`
    /// scales what was measured), the timer's own cost removed.
    pub fn mean_ns(&self, factor: f64, timer_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.total_ns as f64 / self.count as f64 * factor - timer_ns).max(0.0)
        }
    }

    /// Total seconds inside the wrapped calls, scaled and timer-free.
    pub fn busy_s(&self, factor: f64, timer_ns: f64) -> f64 {
        self.mean_ns(factor, timer_ns) * self.count as f64 / 1e9
    }

    /// A latency quantile, scaled and timer-free.
    pub fn quantile_ns(&self, q: f64, factor: f64, timer_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.hist.quantile(q) * factor - timer_ns).max(0.0)
        }
    }
}

/// Writes spans as JSON lines, ordered by start time.
pub fn write_spans(path: &std::path::Path, mut spans: Vec<Span>) -> std::io::Result<()> {
    use std::io::Write;
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Calls `pass` — which times itself and returns nanoseconds per
/// operation — for about `budget_s` seconds, at least three times, and
/// returns the median at reference host speed.
pub fn median_of_passes(host: &mut HostSpeed, budget_s: f64, mut pass: impl FnMut() -> f64) -> f64 {
    host.refresh();
    let (raw, factor) = host.around(|| {
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
            samples.push(pass());
        }
        median(&samples)
    });
    raw * factor
}

/// [`median_of_passes`] for a loop that is timed as a whole: `f` does
/// `ops_per_call` operations and returns a value so the work cannot be
/// optimised away. One untimed call warms caches first.
pub fn time_loop<R>(
    host: &mut HostSpeed,
    budget_s: f64,
    ops_per_call: u64,
    mut f: impl FnMut() -> R,
) -> f64 {
    std::hint::black_box(f());
    median_of_passes(host, budget_s, || {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_nanos() as f64 / ops_per_call.max(1) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn histogram_buckets_cover_their_values() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456, u64::MAX / 2] {
            let (lo, width) = Hist::bounds(Hist::bucket(v));
            assert!(lo <= v && v - lo < width, "{v} not in [{lo}, {lo}+{width})");
        }
        let mut h = Hist::default();
        for v in 1..=1000 {
            h.add(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.125, "p50 {p50}");
    }

    #[test]
    fn undisturbed_round_skips_descheduled_samples() {
        let seg = |wall_s, cpu_s| Segment {
            wall_s,
            cpu_s,
            factor: 1.0,
        };
        // Segment 0 is clean in two rounds of three; segment 1 in none.
        let rounds = vec![
            vec![seg(1.00, 1.00), seg(3.0, 2.0)],
            vec![seg(5.00, 1.10), seg(4.0, 2.2)],
            vec![seg(1.02, 1.00), seg(9.0, 2.4)],
        ];
        let u = undisturbed_round(&rounds);
        assert!((u.wall_s - (1.01 + 2.2)).abs() < 1e-12, "{}", u.wall_s);
        assert!((u.cpu_s - (1.00 + 2.2)).abs() < 1e-12, "{}", u.cpu_s);
        assert!((u.clean_share - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_fnv() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xAF63_DC4C_8601_EC8C);
    }
}
