//! Flow-key interning: dense `u32` flow ids with an FxHash map at the
//! edge.
//!
//! Per-packet flow lookups are the hottest map operations in the whole
//! stack (tracker, TAQ queues, metrics monitors all key by the 4-tuple).
//! Interning the [`FlowKey`] into a [`FlowId`] at first sight turns
//! every downstream structure into a dense `Vec` index: one cheap hash
//! per packet at the edge, zero hashes after it.
//!
//! Ids are recycled through a free list when the owner releases them
//! (flow-table GC), so long sweeps with flow churn keep the slab
//! compact. Reuse discipline is on the owner: an id must not be
//! released while any structure still holds state under it (see
//! DESIGN.md §11 on the eviction lifecycle).
//!
//! The hasher is the workspace's one Fx multiply-rotate hash, defined in
//! `taq_telemetry` (the bottom of the dependency graph) and re-exported
//! from this crate.

use crate::packet::FlowKey;
use std::collections::HashMap;
use std::hash::Hasher;
pub use taq_telemetry::{FxBuildHasher, FxHasher};

/// Dense per-flow identifier handed out by a [`FlowInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The id as a slab index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One standalone Fx hash of a flow key, perturbed by `perturb` (bucket
/// hashing, e.g. SFQ's periodically re-keyed buckets).
pub fn fx_hash_key(key: &FlowKey, perturb: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(perturb);
    h.write_u64(
        (u64::from(key.src.0) << 32) | (u64::from(key.src_port) << 16) | u64::from(key.dst_port),
    );
    h.write_u64(u64::from(key.dst.0));
    h.finish()
}

/// Interns flow keys into dense [`FlowId`]s, recycling released ids.
#[derive(Debug, Default)]
pub struct FlowInterner {
    map: HashMap<FlowKey, FlowId, FxBuildHasher>,
    keys: Vec<FlowKey>,
    free: Vec<FlowId>,
}

impl FlowInterner {
    /// An empty interner.
    pub fn new() -> Self {
        FlowInterner::default()
    }

    /// Returns `key`'s id, allocating one (new or recycled) at first
    /// sight. The boolean is `true` when the id was freshly assigned.
    pub fn intern(&mut self, key: FlowKey) -> (FlowId, bool) {
        if let Some(&id) = self.map.get(&key) {
            return (id, false);
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.keys[id.index()] = key;
                id
            }
            None => {
                let id = FlowId(self.keys.len() as u32);
                self.keys.push(key);
                id
            }
        };
        self.map.insert(key, id);
        (id, true)
    }

    /// Looks up an already-interned key.
    pub fn get(&self, key: &FlowKey) -> Option<FlowId> {
        self.map.get(key).copied()
    }

    /// The key behind a live id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated by this interner.
    pub fn key(&self, id: FlowId) -> FlowKey {
        self.keys[id.index()]
    }

    /// Releases an id for reuse. The caller guarantees no structure
    /// still indexes by it.
    pub fn release(&mut self, id: FlowId) {
        let key = self.keys[id.index()];
        if self.map.remove(&key) == Some(id) {
            self.free.push(id);
        }
    }

    /// Number of live (interned, unreleased) flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no flow is interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// One past the highest id ever allocated: the slab size needed to
    /// index every possible live id.
    pub fn slots(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeId;

    fn key(port: u16) -> FlowKey {
        FlowKey {
            src: NodeId(1),
            src_port: 80,
            dst: NodeId(2),
            dst_port: port,
        }
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut i = FlowInterner::new();
        let (a, new_a) = i.intern(key(1));
        let (b, new_b) = i.intern(key(2));
        let (a2, new_a2) = i.intern(key(1));
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(i.key(a), key(1));
        assert_eq!(i.get(&key(2)), Some(b));
        assert_eq!(i.len(), 2);
        assert_eq!(i.slots(), 2);
    }

    #[test]
    fn released_ids_are_recycled() {
        let mut i = FlowInterner::new();
        let (a, _) = i.intern(key(1));
        let (_b, _) = i.intern(key(2));
        i.release(a);
        assert_eq!(i.get(&key(1)), None);
        assert_eq!(i.len(), 1);
        // The next new flow takes the freed slot; the slab stays dense.
        let (c, fresh) = i.intern(key(3));
        assert!(fresh);
        assert_eq!(c, a);
        assert_eq!(i.key(c), key(3));
        assert_eq!(i.slots(), 2);
    }

    #[test]
    fn fx_hash_spreads_and_responds_to_perturbation() {
        let h1 = fx_hash_key(&key(1), 0);
        let h2 = fx_hash_key(&key(2), 0);
        let h1p = fx_hash_key(&key(1), 7);
        assert_ne!(h1, h2);
        assert_ne!(h1, h1p, "perturbation re-keys the hash");
        assert_eq!(h1, fx_hash_key(&key(1), 0), "deterministic");
    }
}
