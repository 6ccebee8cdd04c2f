//! Per-link state keyed by a link id that arrives inside an event.

use std::collections::BTreeMap;

/// Link ids below this bound get a slot in the dense table. Every
/// topology in the repo numbers its links densely from 0, but the id
/// arrives inside an event (testbed, replayed JSONL), so one
/// `link: u32::MAX` must not size a table: ids at or above the bound
/// are kept in a map instead.
pub(crate) const DENSE_LINKS: usize = 4096;

/// One `T` per link: a table indexed by link id, grown on demand up to
/// [`DENSE_LINKS`], and an ordered map for the ids beyond it.
#[derive(Debug)]
pub(crate) struct LinkTable<T> {
    pub(crate) dense: Vec<T>,
    pub(crate) far: BTreeMap<u32, T>,
}

impl<T: Default> LinkTable<T> {
    pub(crate) fn new() -> Self {
        LinkTable {
            dense: Vec::new(),
            far: BTreeMap::new(),
        }
    }

    /// `link`'s value, created as `T::default()` at first sight.
    #[inline]
    pub(crate) fn entry(&mut self, link: u32) -> &mut T {
        let index = link as usize;
        if index < DENSE_LINKS {
            if index >= self.dense.len() {
                self.dense.resize_with(index + 1, T::default);
            }
            &mut self.dense[index]
        } else {
            self.far.entry(link).or_default()
        }
    }

    /// `link`'s value, if it was ever created.
    pub(crate) fn get(&self, link: u32) -> Option<&T> {
        match self.dense.get(link as usize) {
            Some(value) => Some(value),
            None => self.far.get(&link),
        }
    }

    /// Every value, in ascending link id (dense slots never touched
    /// hold `T::default()`).
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.dense.iter().chain(self.far.values())
    }
}
