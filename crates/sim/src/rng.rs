//! Deterministic random number generation for simulations.
//!
//! Every source of randomness in a simulation flows from a single
//! [`SimRng`] seeded by the experiment harness, so a run is reproducible
//! bit-for-bit from its seed. The generator is a self-contained
//! xoshiro256++ implementation: depending on an external crate's stream
//! internals would let a dependency upgrade silently change every
//! experiment's trajectory.
//!
//! The workload generators need heavy-tailed and exponential variates
//! (the approved dependency set has no `rand_distr`), so the sampling
//! routines live here too.

/// Deterministic pseudo-random number generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded into the 256-bit state with SplitMix64, the
    /// standard seeding procedure for the xoshiro family; any seed
    /// (including 0) yields a valid non-degenerate state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent generator for a sub-component.
    ///
    /// Components (each flow, each workload source) should draw from their
    /// own stream so that adding randomness in one place does not perturb
    /// the variates seen by every other component.
    pub fn split(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Stateless stream derivation: the generator a fresh
    /// `SimRng::new(seed)` would hand out as its first
    /// [`SimRng::split`]`(stream)`.
    ///
    /// The engine uses this to give every entity (each link's wire-loss
    /// draw, each node's [`crate::Ctx::rng`] stream) its own generator
    /// determined only by `(seed, stream)` — never by how many draws any
    /// other entity made first, so adding a lossy link or a jittered
    /// host leaves every other entity's variates unchanged.
    pub fn for_stream(seed: u64, stream: u64) -> SimRng {
        SimRng::new(seed).split(stream)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.s = [s0, s1, s2, s3];
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected: resample to stay unbiased.
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean: {mean}");
        // 1 - U avoids ln(0); U is in [0, 1).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Standard normal variate (Box-Muller; one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1]
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Log-normal variate parameterised by the underlying normal's
    /// `mu` and `sigma`. Used for web object body sizes.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Pareto variate with scale `xm > 0` and shape `alpha > 0`. Used for
    /// the heavy tail of web object sizes.
    ///
    /// # Panics
    ///
    /// Panics if `xm` or `alpha` is not positive.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0 && alpha > 0.0, "invalid pareto params");
        xm / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.next_below(items.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_order() {
        let mut root1 = SimRng::new(7);
        let mut s1 = root1.split(1);
        let mut root2 = SimRng::new(7);
        let mut s2 = root2.split(1);
        assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn for_stream_matches_first_split() {
        let mut root = SimRng::new(99);
        let mut a = root.split(42);
        let mut b = SimRng::for_stream(99, 42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct streams from the same seed diverge.
        let mut c = SimRng::for_stream(99, 43);
        assert_ne!(SimRng::for_stream(99, 42).next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.next_below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(11);
        for _ in 0..1_000 {
            let x = r.range_u64(5, 7);
            assert!((5..=7).contains(&x));
        }
        // Degenerate range.
        assert_eq!(r.range_u64(4, 4), 4);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let mean = 2.5;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.05, "estimated mean {est}");
    }

    #[test]
    fn chance_frequency() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.1)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.1).abs() < 0.01, "frequency {freq}");
    }

    #[test]
    fn pareto_at_least_scale() {
        let mut r = SimRng::new(19);
        for _ in 0..10_000 {
            assert!(r.pareto(100.0, 1.2) >= 100.0);
        }
    }

    #[test]
    fn log_normal_median_close() {
        let mut r = SimRng::new(23);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.log_normal(8.0, 1.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Median of log-normal is exp(mu) ~ 2981.
        let expect = 8.0f64.exp();
        assert!((median / expect - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = SimRng::new(31);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let v = [1, 2, 3];
        assert!(v.contains(r.choose(&v).unwrap()));
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::new(37);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
