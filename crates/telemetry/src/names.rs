//! A first-seen table for the small `&'static str` vocabularies events
//! carry (link kinds, TAQ class names, tracker states, fault classes).
//!
//! Aggregating sinks resolve a name to a dense slot on every event; the
//! names are string literals, so the same name almost always arrives as
//! the same pointer and a scan over a handful of pointer pairs finds
//! it. The same literal can have two addresses (one per crate that
//! spells it), so pointer equality alone is not sound: a pointer miss
//! falls back to comparing contents before a new slot is opened.

use std::ops::{Index, IndexMut};

/// Values keyed by name, in first-seen order. A name keeps its slot for
/// the table's life, so a slot index can stand in for the name.
#[derive(Debug, Clone)]
pub struct NameTable<T> {
    entries: Vec<(&'static str, T)>,
}

impl<T> Default for NameTable<T> {
    fn default() -> Self {
        NameTable {
            entries: Vec::new(),
        }
    }
}

impl<T> NameTable<T> {
    /// The slot holding `name`, opened with `make()` at first sight.
    /// `make` runs at most once per distinct name, so it may allocate
    /// or format.
    #[inline]
    pub fn slot(&mut self, name: &'static str, make: impl FnOnce() -> T) -> usize {
        match self
            .entries
            .iter()
            .position(|(known, _)| std::ptr::eq(*known, name))
        {
            Some(i) => i,
            None => self.slot_by_content(name, make),
        }
    }

    #[cold]
    fn slot_by_content(&mut self, name: &'static str, make: impl FnOnce() -> T) -> usize {
        if let Some(i) = self.entries.iter().position(|(known, _)| *known == name) {
            return i;
        }
        self.entries.push((name, make()));
        self.entries.len() - 1
    }

    /// The name a slot was opened under.
    pub fn name(&self, slot: usize) -> &'static str {
        self.entries[slot].0
    }

    /// `(name, value)` pairs in first-seen order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.entries.iter().map(|(name, value)| (*name, value))
    }
}

impl<T> Index<usize> for NameTable<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.entries[slot].1
    }
}

impl<T> IndexMut<usize> for NameTable<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.entries[slot].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_names_at_two_addresses_share_a_slot() {
        // Two allocations with the same contents stand in for one
        // literal spelled in two crates.
        let a: &'static str = String::from("Recovery").leak();
        let b: &'static str = String::from("Recovery").leak();
        assert!(!std::ptr::eq(a, b));
        let mut made = 0;
        let mut table = NameTable::default();
        let first = table.slot(a, || {
            made += 1;
            0u64
        });
        table[first] += 1;
        let second = table.slot(b, || {
            made += 1;
            0u64
        });
        table[second] += 1;
        let other = table.slot("NewFlow", || 0);
        assert_eq!((first, second, other), (0, 0, 1));
        assert_eq!(made, 1, "the second address reuses the first slot");
        let seen: Vec<_> = table.iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(seen, vec![("Recovery", 2), ("NewFlow", 0)]);
    }

    #[test]
    fn a_prefix_at_the_same_address_is_a_different_name() {
        // Fat-pointer equality includes the length: "link" inside
        // "link_summary" starts at the same byte.
        let long: &'static str = "link_summary";
        let short: &'static str = &long[..4];
        let mut table = NameTable::default();
        assert_eq!(table.slot(long, || ()), 0);
        assert_eq!(table.slot(short, || ()), 1);
    }
}
