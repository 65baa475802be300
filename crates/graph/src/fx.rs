//! A fast, non-cryptographic hasher for integer-keyed maps.
//!
//! The default std `SipHash 1-3` is collision-resistant but slow for the
//! short integer keys this workspace hashes (vertex pairs, edge ids). This is
//! the classic "Fx" multiply-rotate hash used by rustc: low quality, very
//! fast, and more than good enough for graph workloads where keys are
//! near-uniform ids. Implemented locally so the workspace stays within its
//! sanctioned dependency set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// rustc-style Fx hasher: `hash = (rotl(hash, 5) ^ word) * SEED` per word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline(always)]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Process 8-byte chunks, then the tail. Graph keys are almost always
        // a single u32/u64 write, so this path is rarely taken.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline(always)]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline(always)]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline(always)]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline(always)]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Creates an empty [`FxHashSet`] with at least `cap` capacity.
pub fn fx_set_with_capacity<K>(cap: usize) -> FxHashSet<K> {
    FxHashSet::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(10, 11)], 20);
        assert!(!m.contains_key(&(11, 10)));
    }

    #[test]
    fn set_basics() {
        let mut s: FxHashSet<u64> = fx_set_with_capacity(4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
    }

    #[test]
    fn hash_is_deterministic() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(12345), h(12345));
        assert_ne!(h(12345), h(12346));
    }

    #[test]
    fn byte_stream_hash_handles_tails() {
        let h = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        };
        assert_ne!(h(b"abcdefghi"), h(b"abcdefgh"));
        assert_eq!(h(b"abcdefghi"), h(b"abcdefghi"));
    }
}
