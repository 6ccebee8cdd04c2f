//! The workspace's one Fx hasher: the classic multiply-rotate hash (as
//! used by rustc), written out here because the build is offline with
//! no third-party dependencies.
//!
//! It lives in this crate because this crate sits at the bottom of the
//! dependency graph: the simulator's flow interner and the trace
//! collector's per-packet tables both key by small integers millions of
//! times per run, and both reach it from here (`taq_sim` re-exports it).
//! No map keyed with it may let its iteration order reach output.

use std::hash::{BuildHasherDefault, Hasher};

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx hasher: rotate, xor, multiply per word. Not
/// collision-resistant against adversaries, but flows and packet ids in
/// a simulation are not adversarial and a 4-tuple fits in two words.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
