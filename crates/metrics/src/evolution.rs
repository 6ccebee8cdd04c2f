//! Flow-evolution classification (the paper's Figure 9).
//!
//! In each observation window ("epoch" in the figure's terms) a flow is
//! either *active* (transmitted at least one data packet over the
//! bottleneck) or *silent*. Transitions between consecutive windows
//! classify the flow:
//!
//! - **Maintained** — active → active: continuous progress;
//! - **Dropped** — active → silent: just went quiet (timeout after a
//!   drop);
//! - **Arriving** — silent → active: came back from silence;
//! - **Stalled** — silent → silent: still stuck (repetitive timeouts).
//!
//! Flows are counted from the moment they are first seen until they are
//! explicitly marked finished (a finished flow's silence is not a
//! stall).

use taq_sim::{FlowInterner, FlowKey, LinkId, LinkMonitor, Packet, SimDuration, SimTime};

/// Per-window counts of the four evolution categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvolutionCounts {
    /// Active in both the previous and this window.
    pub maintained: usize,
    /// Active previously, silent now.
    pub dropped: usize,
    /// Silent previously, active now.
    pub arriving: usize,
    /// Silent in both.
    pub stalled: usize,
}

impl EvolutionCounts {
    /// Total classified flows in the window.
    pub fn total(&self) -> usize {
        self.maintained + self.dropped + self.arriving + self.stalled
    }
}

/// Collects per-window activity from bottleneck transmissions and
/// classifies flow evolution.
///
/// Flow keys are interned into dense ids; per-window activity is one
/// bit per id and per-flow lifespans a `Vec` indexed by id (ids are
/// never released, as every flow stays in the census until marked
/// finished).
#[derive(Debug)]
pub struct EvolutionTracker {
    link: LinkId,
    window: SimDuration,
    interner: FlowInterner,
    /// Window index -> one bit per flow, set if it transmitted in the
    /// window: bit `id % 64` of word `id / 64` (a window's words may
    /// stop short of the flow roster; missing bits are silent).
    activity: Vec<Vec<u64>>,
    /// First and last window in which each flow may be counted,
    /// indexed by interned id.
    lifespan: Vec<(usize, Option<usize>)>,
}

impl EvolutionTracker {
    /// Creates a tracker for `link` with the given window length
    /// (typically one nominal RTT or one second).
    pub fn new(link: LinkId, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "zero window");
        EvolutionTracker {
            link,
            window,
            interner: FlowInterner::new(),
            activity: Vec::new(),
            lifespan: Vec::new(),
        }
    }

    fn window_of(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.window.as_nanos()) as usize
    }

    /// Marks a flow finished at `t` (e.g. from its FIN or its
    /// [`taq_tcp::FlowRecord`]); it stops being counted after that
    /// window.
    ///
    /// [`taq_tcp::FlowRecord`]: https://docs.rs/taq-tcp
    pub fn mark_finished(&mut self, flow: FlowKey, t: SimTime) {
        let w = self.window_of(t);
        if let Some(id) = self.interner.get(&flow) {
            self.lifespan[id.index()].1 = Some(w);
        }
    }

    /// Number of complete windows recorded.
    pub fn windows(&self) -> usize {
        self.activity.len()
    }

    /// Classifies evolution for window `w` (needs `w ≥ 1`).
    pub fn counts(&self, w: usize) -> EvolutionCounts {
        let mut c = EvolutionCounts::default();
        if w == 0 || w >= self.activity.len() {
            return c;
        }
        let active_in = |window: &[u64], idx: usize| {
            window
                .get(idx / 64)
                .is_some_and(|&word| (word >> (idx % 64)) & 1 == 1)
        };
        for (idx, &(first, last)) in self.lifespan.iter().enumerate() {
            if first >= w {
                continue; // Not yet born at the previous window.
            }
            if let Some(end) = last {
                if end < w {
                    continue; // Finished before this window.
                }
            }
            let was = active_in(&self.activity[w - 1], idx);
            let is = active_in(&self.activity[w], idx);
            match (was, is) {
                (true, true) => c.maintained += 1,
                (true, false) => c.dropped += 1,
                (false, true) => c.arriving += 1,
                (false, false) => c.stalled += 1,
            }
        }
        c
    }

    /// The full evolution series, one entry per window starting at 1.
    pub fn series(&self) -> Vec<EvolutionCounts> {
        (1..self.activity.len()).map(|w| self.counts(w)).collect()
    }
}

impl LinkMonitor for EvolutionTracker {
    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        if link != self.link || !pkt.is_data() {
            return;
        }
        let w = self.window_of(now);
        while self.activity.len() <= w {
            self.activity.push(Vec::new());
        }
        let (id, fresh) = self.interner.intern(pkt.flow);
        if fresh {
            debug_assert_eq!(
                id.index(),
                self.lifespan.len(),
                "monitors never release ids"
            );
            self.lifespan.push((w, None));
        }
        let (word, bit) = (id.index() / 64, id.index() % 64);
        let window = &mut self.activity[w];
        if window.len() <= word {
            window.resize(word + 1, 0);
        }
        window[word] |= 1 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use taq_sim::{NodeId, PacketBuilder, SimRng};

    fn pkt(port: u16) -> Packet {
        PacketBuilder::new(FlowKey {
            src: NodeId(0),
            src_port: 80,
            dst: NodeId(1),
            dst_port: port,
        })
        .payload(460)
        .build()
    }

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn at_ns(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn tracker() -> EvolutionTracker {
        EvolutionTracker::new(LinkId(0), SimDuration::from_secs(1))
    }

    #[test]
    fn classifies_all_four_transitions() {
        let mut t = tracker();
        // Window 0: flows 1, 2 active; 3 appears (born) but silent later.
        t.on_transmit(LinkId(0), &pkt(1), at(0));
        t.on_transmit(LinkId(0), &pkt(2), at(0));
        t.on_transmit(LinkId(0), &pkt(3), at(0));
        // Window 1: 1 stays active; 2 goes silent; 3 goes silent; 4 born.
        t.on_transmit(LinkId(0), &pkt(1), at(1));
        t.on_transmit(LinkId(0), &pkt(4), at(1));
        // Window 2: 1 active, 2 returns, 3 still silent, 4 silent.
        t.on_transmit(LinkId(0), &pkt(1), at(2));
        t.on_transmit(LinkId(0), &pkt(2), at(2));

        let w1 = t.counts(1);
        assert_eq!(
            w1,
            EvolutionCounts {
                maintained: 1, // flow 1
                dropped: 2,    // flows 2, 3
                arriving: 0,
                stalled: 0,
            }
        );
        let w2 = t.counts(2);
        assert_eq!(
            w2,
            EvolutionCounts {
                maintained: 1, // flow 1
                dropped: 1,    // flow 4
                arriving: 1,   // flow 2
                stalled: 1,    // flow 3
            }
        );
    }

    #[test]
    fn finished_flows_leave_the_census() {
        let mut t = tracker();
        t.on_transmit(LinkId(0), &pkt(1), at(0));
        t.on_transmit(LinkId(0), &pkt(2), at(0));
        t.on_transmit(LinkId(0), &pkt(1), at(1));
        t.on_transmit(LinkId(0), &pkt(2), at(1));
        t.mark_finished(pkt(2).flow, at(1));
        // Window 2: only flow 1 remains countable.
        t.on_transmit(LinkId(0), &pkt(1), at(2));
        let w2 = t.counts(2);
        assert_eq!(w2.total(), 1);
        assert_eq!(w2.maintained, 1);
        assert_eq!(w2.stalled, 0, "finished flow is not a stall");
    }

    #[test]
    fn stalled_persists_across_windows() {
        let mut t = tracker();
        t.on_transmit(LinkId(0), &pkt(1), at(0));
        // Keep the clock moving with another flow.
        for s in 0..5 {
            t.on_transmit(LinkId(0), &pkt(9), at(s));
        }
        assert_eq!(t.counts(1).dropped, 1);
        assert_eq!(t.counts(2).stalled, 1);
        assert_eq!(t.counts(3).stalled, 1);
        assert_eq!(t.counts(4).stalled, 1);
    }

    #[test]
    fn series_length_matches_windows() {
        let mut t = tracker();
        for s in 0..10 {
            t.on_transmit(LinkId(0), &pkt(1), at(s));
        }
        assert_eq!(t.windows(), 10);
        assert_eq!(t.series().len(), 9);
        assert!(t.series().iter().all(|c| c.maintained == 1));
    }

    /// The census written the slow way: a `BTreeSet` of active flows
    /// per window, and each flow's birth and finish windows by key.
    #[derive(Default)]
    struct NaiveCensus {
        active: Vec<BTreeSet<u16>>,
        born: BTreeMap<u16, usize>,
        finished: BTreeMap<u16, usize>,
    }

    impl NaiveCensus {
        fn transmit(&mut self, port: u16, w: usize) {
            while self.active.len() <= w {
                self.active.push(BTreeSet::new());
            }
            self.born.entry(port).or_insert(w);
            self.active[w].insert(port);
        }

        fn finish(&mut self, port: u16, w: usize) {
            if self.born.contains_key(&port) {
                self.finished.insert(port, w);
            }
        }

        fn series(&self) -> Vec<EvolutionCounts> {
            let mut out = Vec::new();
            for w in 1..self.active.len() {
                let mut c = EvolutionCounts::default();
                for (port, &born) in &self.born {
                    let gone = self.finished.get(port).is_some_and(|&end| end < w);
                    if born >= w || gone {
                        continue;
                    }
                    let was = self.active[w - 1].contains(port);
                    let is = self.active[w].contains(port);
                    *match (was, is) {
                        (true, true) => &mut c.maintained,
                        (true, false) => &mut c.dropped,
                        (false, true) => &mut c.arriving,
                        (false, false) => &mut c.stalled,
                    } += 1;
                }
                out.push(c);
            }
            out
        }
    }

    #[test]
    fn bit_census_matches_a_naive_census_on_random_streams() {
        const FLOWS: u64 = 260; // ids 0..260 span five 64-bit words
        for seed in 1..=4 {
            let mut rng = SimRng::new(seed);
            let mut t = tracker();
            let mut naive = NaiveCensus::default();
            let mut now = 0u64;
            let mut empty_runs = 0;
            for _ in 0..20_000 {
                now += match rng.next_below(1_000) {
                    // A run of two to nine empty windows.
                    0 => {
                        empty_runs += 1;
                        rng.range_u64(3, 10) * 1_000_000_000
                    }
                    _ => rng.next_below(20_000_000),
                };
                let port = 1 + rng.next_below(FLOWS) as u16;
                let w = (now / 1_000_000_000) as usize;
                match rng.next_below(100) {
                    // Neither a pure ACK nor another link's packet counts.
                    0 => t.on_transmit(
                        LinkId(0),
                        &PacketBuilder::new(pkt(port).flow).build(),
                        at_ns(now),
                    ),
                    1 => t.on_transmit(LinkId(1), &pkt(port), at_ns(now)),
                    2 => {
                        t.mark_finished(pkt(port).flow, at_ns(now));
                        naive.finish(port, w);
                    }
                    _ => {
                        t.on_transmit(LinkId(0), &pkt(port), at_ns(now));
                        naive.transmit(port, w);
                    }
                }
            }
            assert!(empty_runs > 5, "seed {seed}: the stream needs gaps");
            assert!(
                naive.finished.len() > 100,
                "seed {seed}: and finished flows"
            );
            assert_eq!(t.windows(), naive.active.len(), "seed {seed}");
            assert_eq!(t.series(), naive.series(), "seed {seed}");
        }
    }

    #[test]
    fn out_of_range_window_is_empty() {
        let t = tracker();
        assert_eq!(t.counts(0), EvolutionCounts::default());
        assert_eq!(t.counts(99), EvolutionCounts::default());
    }
}
