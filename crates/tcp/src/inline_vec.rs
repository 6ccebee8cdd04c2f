//! A short list kept inline until it outgrows `N` entries.
//!
//! A connection's lists are almost always this short: a bulk client's
//! request queue holds one request until its connection opens, and a
//! receiver's out-of-order ranges number one or two. Kept inline, they
//! cost the host no allocation of its own. A list that outgrows `N`
//! moves to a `Vec` and stays there, so a flow that once needed more
//! room keeps it rather than freeing and regrowing it every loss
//! episode.

use std::ops::{Deref, DerefMut, Range};

#[derive(Debug, Clone)]
pub(crate) enum InlineVec<T: Copy + Default, const N: usize> {
    Inline { len: u8, items: [T; N] },
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize, "the inline length is a u8") };
        InlineVec::Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Makes room for one more entry, moving to the heap when the
    /// inline array is full.
    fn reserve_one(&mut self) {
        if let InlineVec::Inline { len, items } = self {
            if usize::from(*len) == N {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(items);
                *self = InlineVec::Spilled(spilled);
            }
        }
    }

    /// Inserts `item` at `index`, shifting the entries after it up.
    pub fn insert(&mut self, index: usize, item: T) {
        self.reserve_one();
        match self {
            InlineVec::Inline { len, items } => {
                let n = usize::from(*len);
                assert!(index <= n, "insert index {index} past length {n}");
                items.copy_within(index..n, index + 1);
                items[index] = item;
                *len += 1;
            }
            InlineVec::Spilled(v) => v.insert(index, item),
        }
    }

    pub fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Removes the entries in `range`, shifting the ones after it down.
    pub fn remove_range(&mut self, range: Range<usize>) {
        match self {
            InlineVec::Inline { len, items } => {
                let n = usize::from(*len);
                assert!(
                    range.start <= range.end && range.end <= n,
                    "range {range:?} past length {n}"
                );
                items.copy_within(range.end..n, range.start);
                // In range: at most `n`, which is a `u8`.
                *len -= (range.end - range.start) as u8;
            }
            InlineVec::Spilled(v) => {
                v.drain(range);
            }
        }
    }

    /// Removes and returns the first entry.
    pub fn pop_front(&mut self) -> Option<T> {
        let first = self.first().copied()?;
        self.remove_range(0..1);
        Some(first)
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, items } => &items[..usize::from(*len)],
            InlineVec::Spilled(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, items } => &mut items[..usize::from(*len)],
            InlineVec::Spilled(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taq_sim::SimRng;

    /// Random inserts, range removals and front pops answer
    /// exactly as a `Vec` does, across the move to the heap and long
    /// after it; a list that never outgrows `N` never moves.
    #[test]
    fn matches_a_vec_under_random_edits() {
        let mut rng = SimRng::new(0x1A1);
        for round in 0..200 {
            let mut list = InlineVec::<u64, 2>::default();
            let mut oracle: Vec<u64> = Vec::new();
            let mut max_len = 0;
            for step in 0..60 {
                let n = oracle.len();
                match rng.next_below(4) {
                    0 | 1 if n < 8 => {
                        let at = rng.next_below(n as u64 + 1) as usize;
                        let item = rng.next_below(1_000);
                        list.insert(at, item);
                        oracle.insert(at, item);
                    }
                    2 => {
                        let lo = rng.next_below(n as u64 + 1) as usize;
                        let hi = lo + rng.next_below((n - lo) as u64 + 1) as usize;
                        list.remove_range(lo..hi);
                        oracle.drain(lo..hi);
                    }
                    _ => {
                        let got = list.pop_front();
                        let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                        assert_eq!(got, want, "round {round} step {step}");
                    }
                }
                max_len = max_len.max(oracle.len());
                assert_eq!(&*list, oracle.as_slice(), "round {round} step {step}");
                assert_eq!(
                    matches!(list, InlineVec::Spilled(_)),
                    max_len > 2,
                    "round {round} step {step}: moves to the heap once, when outgrown"
                );
            }
        }
    }
}
