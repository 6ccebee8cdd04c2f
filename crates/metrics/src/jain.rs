//! Jain Fairness Index and time-sliced throughput accounting.

use std::collections::HashMap;
use taq_sim::{FlowKey, FxBuildHasher, LinkId, LinkMonitor, Packet, SimDuration, SimTime};

/// Per-flow byte totals. Fx-hashed: one multiply per data packet on the
/// bottleneck in place of SipHash, and an iteration order — the order
/// the float sums of [`jain_index`] see — that depends on the inserted
/// keys alone, not on a per-process random state.
type FlowBytes = HashMap<FlowKey, u64, FxBuildHasher>;

/// Jain's fairness index over a set of allocations: `(Σx)² / (n·Σx²)`,
/// ranging from `1/n` (one party hogs everything) to 1 (exact equality).
///
/// Returns 1.0 for an empty or all-zero set (nothing to be unfair
/// about), matching the convention used when plotting slices in which
/// no flow was active.
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    if sum == 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    (sum * sum) / (n as f64 * sum_sq)
}

/// Records per-flow bytes delivered over the bottleneck in fixed time
/// slices, for short- and long-term fairness analysis (the paper's
/// Figures 2, 8 and 11 use 20-second slices).
///
/// Attach as a [`LinkMonitor`] filtered to the bottleneck link; flows
/// are identified by their data-direction key, counting only data
/// packets (ACK-only packets carry no goodput).
#[derive(Debug)]
pub struct SliceThroughput {
    link: LinkId,
    slice_len: SimDuration,
    /// `slices[i][flow]` = wire bytes in slice `i`.
    slices: Vec<FlowBytes>,
}

impl SliceThroughput {
    /// Creates a recorder for `link` with the given slice length.
    pub fn new(link: LinkId, slice_len: SimDuration) -> Self {
        assert!(!slice_len.is_zero(), "zero slice length");
        SliceThroughput {
            link,
            slice_len,
            slices: Vec::new(),
        }
    }

    /// Number of slices with any recorded traffic history.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Per-flow byte totals in slice `i`.
    pub fn slice(&self, i: usize) -> Option<&FlowBytes> {
        self.slices.get(i)
    }

    /// Jain index of one slice across `expected_flows` flows: flows that
    /// transmitted nothing in the slice count as zero allocations, which
    /// is exactly the short-term-unfairness signal (shut-out flows).
    pub fn slice_jain(&self, i: usize, expected_flows: usize) -> f64 {
        let Some(slice) = self.slices.get(i) else {
            return 1.0;
        };
        let mut allocs: Vec<f64> = slice.values().map(|&b| b as f64).collect();
        while allocs.len() < expected_flows {
            allocs.push(0.0);
        }
        jain_index(&allocs)
    }

    /// Mean Jain index across slices `[from, to)`.
    pub fn mean_jain(&self, from: usize, to: usize, expected_flows: usize) -> f64 {
        let to = to.min(self.slices.len());
        if from >= to {
            return 1.0;
        }
        let sum: f64 = (from..to).map(|i| self.slice_jain(i, expected_flows)).sum();
        sum / (to - from) as f64
    }

    /// Long-term Jain index: totals across the whole run.
    pub fn overall_jain(&self, expected_flows: usize) -> f64 {
        let mut totals = FlowBytes::default();
        for slice in &self.slices {
            for (k, b) in slice {
                *totals.entry(*k).or_default() += b;
            }
        }
        let mut allocs: Vec<f64> = totals.values().map(|&b| b as f64).collect();
        while allocs.len() < expected_flows {
            allocs.push(0.0);
        }
        jain_index(&allocs)
    }

    /// Fraction of `expected_flows` that transmitted nothing in slice
    /// `i` (the paper's "completely shut down" share).
    pub fn shutout_fraction(&self, i: usize, expected_flows: usize) -> f64 {
        if expected_flows == 0 {
            return 0.0;
        }
        let active = self.slices.get(i).map_or(0, |s| s.len());
        (expected_flows.saturating_sub(active)) as f64 / expected_flows as f64
    }

    /// Fraction of link traffic in slice `i` carried by the top
    /// `top_fraction` of `expected_flows` flows (the paper's "~40% of
    /// flows consume >80% of the bandwidth" observation).
    pub fn top_share(&self, i: usize, expected_flows: usize, top_fraction: f64) -> f64 {
        let Some(slice) = self.slices.get(i) else {
            return 0.0;
        };
        let mut bytes: Vec<u64> = slice.values().copied().collect();
        bytes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = bytes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let k = ((expected_flows as f64 * top_fraction).ceil() as usize).min(bytes.len());
        let top: u64 = bytes[..k].iter().sum();
        top as f64 / total as f64
    }
}

impl LinkMonitor for SliceThroughput {
    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        if link != self.link || !pkt.is_data() {
            return;
        }
        let idx = (now.as_nanos() / self.slice_len.as_nanos()) as usize;
        while self.slices.len() <= idx {
            self.slices.push(FlowBytes::default());
        }
        *self.slices[idx].entry(pkt.flow).or_default() += u64::from(pkt.wire_len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_sim::{NodeId, PacketBuilder};

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One hog out of four: 1/n.
        assert!((jain_index(&[8.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Known value: (1+2+3)²/(3·14) = 36/42.
        assert!((jain_index(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
    }

    fn pkt(port: u16, payload: u32) -> Packet {
        PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 80,
            dst: NodeId(1),
            dst_port: port,
        })
        .payload(payload)
        .build()
    }

    #[test]
    fn slices_accumulate_per_flow() {
        let mut st = SliceThroughput::new(LinkId(0), SimDuration::from_secs(10));
        st.on_transmit(LinkId(0), &pkt(1, 460), SimTime::from_secs(1));
        st.on_transmit(LinkId(0), &pkt(1, 460), SimTime::from_secs(2));
        st.on_transmit(LinkId(0), &pkt(2, 460), SimTime::from_secs(3));
        st.on_transmit(LinkId(0), &pkt(1, 460), SimTime::from_secs(15));
        // Wrong link and pure ACKs are ignored.
        st.on_transmit(LinkId(1), &pkt(1, 460), SimTime::from_secs(4));
        st.on_transmit(LinkId(0), &pkt(1, 0), SimTime::from_secs(4));
        assert_eq!(st.slice_count(), 2);
        let s0 = st.slice(0).unwrap();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0.values().sum::<u64>(), 3 * 500);
    }

    /// Two recorders fed one input iterate their flows in one order, so
    /// the float sums behind the Jain indices see one operand order.
    #[test]
    fn iteration_order_depends_on_the_input_alone() {
        let build = || {
            let mut st = SliceThroughput::new(LinkId(0), SimDuration::from_secs(10));
            for port in (1..200u16).rev() {
                st.on_transmit(LinkId(0), &pkt(port, 460), SimTime::from_secs(1));
            }
            st
        };
        let order = |st: &SliceThroughput| -> Vec<u16> {
            st.slice(0).unwrap().keys().map(|k| k.dst_port).collect()
        };
        assert_eq!(order(&build()), order(&build()));
    }

    #[test]
    fn slice_jain_counts_silent_flows() {
        let mut st = SliceThroughput::new(LinkId(0), SimDuration::from_secs(10));
        st.on_transmit(LinkId(0), &pkt(1, 460), SimTime::from_secs(1));
        // Two flows expected, one silent: JFI = (x)²/(2x²) = 0.5.
        assert!((st.slice_jain(0, 2) - 0.5).abs() < 1e-12);
        // Both active and equal: 1.
        st.on_transmit(LinkId(0), &pkt(2, 460), SimTime::from_secs(2));
        assert!((st.slice_jain(0, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overall_vs_short_term() {
        let mut st = SliceThroughput::new(LinkId(0), SimDuration::from_secs(10));
        // Flows alternate slices: long-term fair, short-term maximally
        // unfair.
        for s in 0..10u64 {
            let port = if s % 2 == 0 { 1 } else { 2 };
            st.on_transmit(LinkId(0), &pkt(port, 460), SimTime::from_secs(s * 10 + 1));
        }
        assert!((st.overall_jain(2) - 1.0).abs() < 1e-12);
        assert!((st.mean_jain(0, 10, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shutout_and_top_share() {
        let mut st = SliceThroughput::new(LinkId(0), SimDuration::from_secs(10));
        for _ in 0..8 {
            st.on_transmit(LinkId(0), &pkt(1, 460), SimTime::from_secs(1));
        }
        st.on_transmit(LinkId(0), &pkt(2, 460), SimTime::from_secs(1));
        // 10 expected flows, 2 active.
        assert!((st.shutout_fraction(0, 10) - 0.8).abs() < 1e-12);
        // Top 10% of 10 flows = 1 flow = 8/9 of the traffic.
        assert!((st.top_share(0, 10, 0.1) - 8.0 / 9.0).abs() < 1e-12);
        assert_eq!(st.top_share(5, 10, 0.1), 0.0, "missing slice is zero");
    }
}
