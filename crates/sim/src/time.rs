//! Simulation clock types.
//!
//! The simulator measures time in integer nanoseconds. Using a fixed-point
//! integer representation (rather than `f64` seconds) keeps event ordering
//! exact and makes simulations bit-for-bit reproducible: two events
//! scheduled at the same instant compare equal, and arithmetic never
//! accumulates rounding error over long runs (the paper's longest
//! experiment spans 10,000 simulated seconds).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from whole microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from whole milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates an instant from fractional seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration; used as a sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Whole nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whole milliseconds in this duration, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// `true` if this duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// nanosecond. Used for RTO variance terms and backoff scaling.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k.is_finite() && k >= 0.0, "invalid scale: {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                // Invariant: runs end centuries before u64 nanoseconds; header-derived waits are clamped first.
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        // Invariant: callers subtract an earlier time; observed gaps use `saturating_since`.
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        // Invariant: callers step back only from times at least `rhs` past the epoch.
        SimTime(self.0.checked_sub(rhs.0).expect("time before epoch"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        // Invariant: summed durations are timers and backoffs capped far below u64 nanoseconds.
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        // Invariant: callers subtract a shorter duration; gaps use `saturating_sub`.
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        // Invariant: factors are small constants or capped backoff exponents.
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Link bandwidth in bits per second.
///
/// Wraps an integer bit rate and provides the serialization-delay
/// computation used by the engine's links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero: a zero-rate link can never transmit and
    /// would wedge the event loop.
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Creates a bandwidth from kilobits per second (decimal kilo).
    pub fn from_kbps(kbps: u64) -> Self {
        Bandwidth::from_bps(kbps * 1_000)
    }

    /// Creates a bandwidth from megabits per second (decimal mega).
    pub fn from_mbps(mbps: u64) -> Self {
        Bandwidth::from_bps(mbps * 1_000_000)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto the wire at this rate.
    ///
    /// Computed as `bytes * 8 / rate` with nanosecond rounding. Below
    /// 2^30 bytes (every real packet) `bytes * 8e9` fits a `u64` and the
    /// division is one machine instruction; above it the multiplication
    /// is done in `u128` so it cannot overflow.
    pub fn transmission_time(self, bytes: u32) -> SimDuration {
        const NS_PER_BYTE: u64 = 8 * 1_000_000_000;
        if bytes < 1 << 30 {
            return SimDuration::from_nanos(u64::from(bytes) * NS_PER_BYTE / self.0);
        }
        let bits = u128::from(bytes) * u128::from(NS_PER_BYTE);
        SimDuration::from_nanos((bits / u128::from(self.0)) as u64)
    }

    /// Number of `packet_bytes`-sized packets that fit in `window` of
    /// transmission time; used to size "one RTT worth" of buffering as the
    /// paper does.
    pub fn packets_per(self, window: SimDuration, packet_bytes: u32) -> usize {
        if packet_bytes == 0 {
            return 0;
        }
        let bits = u128::from(self.0) * u128::from(window.as_nanos()) / 1_000_000_000;
        (bits / (u128::from(packet_bytes) * 8)) as usize
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}Kbps", self.0 / 1_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_nanos(2_500_000_000).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(200);
        let b = SimDuration::from_millis(50);
        assert_eq!(a + b, SimDuration::from_millis(250));
        assert_eq!(a - b, SimDuration::from_millis(150));
        assert_eq!(a * 3, SimDuration::from_millis(600));
        assert_eq!(a / 4, SimDuration::from_millis(50));
        assert_eq!(a.mul_f64(0.5), SimDuration::from_millis(100));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn time_duration_interop() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(300);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((t + d).saturating_since(t), d);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn bandwidth_transmission_time() {
        // 500-byte packet at 1 Mbps = 4 ms, the paper's canonical setup.
        let bw = Bandwidth::from_mbps(1);
        assert_eq!(bw.transmission_time(500), SimDuration::from_millis(4));
        // 1000-byte packet at 2 Mbps = 4 ms.
        let bw = Bandwidth::from_mbps(2);
        assert_eq!(bw.transmission_time(1000), SimDuration::from_millis(4));
    }

    #[test]
    fn bandwidth_packets_per_window() {
        // One 200 ms RTT at 1 Mbps holds 50 500-byte packets, exactly the
        // paper's "50 packets worth of buffer space (one RTT)" example.
        let bw = Bandwidth::from_mbps(1);
        assert_eq!(bw.packets_per(SimDuration::from_millis(200), 500), 50);
        assert_eq!(bw.packets_per(SimDuration::ZERO, 500), 0);
        assert_eq!(bw.packets_per(SimDuration::from_millis(200), 0), 0);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::from_mbps(2).to_string(), "2Mbps");
        assert_eq!(Bandwidth::from_kbps(600).to_string(), "600Kbps");
        assert_eq!(Bandwidth::from_bps(1500).to_string(), "1500bps");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn large_packet_slow_link_no_overflow() {
        let bw = Bandwidth::from_bps(1);
        // 100 MB at 1 bps: ~8e8 seconds; must not overflow u64 ns.
        let t = bw.transmission_time(100_000_000);
        assert_eq!(t.as_nanos(), 800_000_000 * 1_000_000_000);
    }

    #[test]
    fn transmission_time_matches_the_u128_formula() {
        // The pre-fast-path body, kept as the oracle.
        let wide = |rate: u64, bytes: u32| {
            (u128::from(bytes) * 8 * 1_000_000_000 / u128::from(rate)) as u64
        };
        let check = |rate: u64, bytes: u32| {
            let got = Bandwidth::from_bps(rate).transmission_time(bytes);
            assert_eq!(got.as_nanos(), wide(rate, bytes), "{bytes} B at {rate} bps");
        };
        // Both sides of the 2^30-byte switch, at the slowest and some
        // ordinary rates.
        for bytes in [0, 1, 40, 540, (1 << 30) - 1, 1 << 30, (1 << 30) + 1] {
            for rate in [1, 7, 1_000, 600_000, 1_000_000_000, u64::MAX] {
                check(rate, bytes);
            }
        }
        check(2, u32::MAX);
        let mut rng = crate::rng::SimRng::new(0x7A11);
        for _ in 0..200_000 {
            // Rates log-uniform over 1 bps .. 2^40 bps; sizes log-uniform
            // over the whole u32 range, so both paths get their share.
            let rate = 1 + (rng.next_u64() >> rng.range_u64(24, 63));
            let bytes = (rng.next_u64() >> rng.range_u64(32, 63)) as u32;
            // Above 2^30 bytes the quotient fits a u64 only for rate >= 2.
            check(rate.max(2), bytes);
        }
    }
}
