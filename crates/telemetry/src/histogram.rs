//! A fixed-log-bucket histogram: the one aggregate the summary sink
//! keeps per distribution (queue depth, delivery latency).

use crate::value::Value;

/// A histogram over `u64` samples with fixed logarithmic (power-of-two)
/// buckets: bucket `i` holds samples whose highest set bit is `i`, i.e.
/// values in `[2^(i-1), 2^i)` for `i >= 1` and the single value 0 in
/// bucket 0. 65 buckets cover the full `u64` range with no allocation
/// after construction — the classic HdrHistogram trade dialed all the
/// way toward cheapness.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Geometric representative of a bucket (its midpoint in log space).
fn bucket_mid(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        // Bucket i spans [2^(i-1), 2^i); take 1.5 * 2^(i-1).
        (1u64 << (i - 1)) + (1u64 << (i - 1)) / 2
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in [0, 1]): the geometric midpoint of
    /// the bucket containing the q-th sample, clamped to the observed
    /// min/max so small histograms do not over-report.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Renders count/sum/min/mean/p50/p99/max as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::object(vec![
            ("count", Value::UInt(self.count)),
            ("sum", Value::UInt(self.sum)),
            ("min", Value::UInt(self.min())),
            ("mean", Value::Float(self.mean())),
            ("p50", Value::UInt(self.quantile(0.50))),
            ("p99", Value::UInt(self.quantile(0.99))),
            ("max", Value::UInt(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1107);
        // Median lands in the bucket for 2-3.
        let p50 = h.quantile(0.5);
        assert!((1..=3).contains(&p50), "p50={p50}");
        assert!(h.quantile(1.0) <= 1000);
        // Quantiles are monotone.
        let mut prev = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
