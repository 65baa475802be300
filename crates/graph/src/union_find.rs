//! Disjoint-set forest (union-find) with path halving + union by size.
//!
//! Used by `FindG0` (incremental query-connectivity checks while edges
//! stream in by descending trussness) and by the Steiner-tree MST stage.

use crate::distfield::EpochMarks;
use crate::heap::vec_heap_bytes;

/// Disjoint-set forest over `0..n`.
///
/// Slots are set up lazily: a slot whose [`EpochMarks`] stamp is stale
/// reads as its own singleton set, so [`new`](Self::new) touches no slot
/// and [`reset`](Self::reset) is O(1), and a pooled query path (FindG0)
/// pays only for the elements it actually touches.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    live: EpochMarks,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: vec![0; n],
            size: vec![0; n],
            live: EpochMarks::with_len(n),
            components: n,
        }
    }

    /// Makes every element of `0..n` a singleton again. O(1) except on
    /// growth and on the epoch wraparound.
    pub fn reset(&mut self, n: usize) {
        if self.parent.len() < n {
            self.parent.resize(n, 0);
            self.size.resize(n, 0);
        }
        self.live.ensure(n);
        self.live.clear();
        self.components = n;
    }

    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.parent) + vec_heap_bytes(&self.size) + self.live.heap_bytes()
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    #[inline(always)]
    fn touch(&mut self, x: u32) {
        if self.live.insert(x as usize) {
            self.parent[x as usize] = x;
            self.size[x as usize] = 1;
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        // Only a touched slot is ever a parent, so the walk from a
        // touched `x` reads no stale slot.
        self.touch(x);
        let mut x = x;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// `true` if every element of `xs` shares one set (vacuously true for
    /// empty or singleton slices).
    pub fn all_connected(&mut self, xs: &[u32]) -> bool {
        match xs.split_first() {
            None => true,
            Some((&first, rest)) => {
                let r = self.find(first);
                rest.iter().all(|&x| self.find(x) == r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn all_connected_variants() {
        let mut uf = UnionFind::new(4);
        assert!(uf.all_connected(&[]));
        assert!(uf.all_connected(&[2]));
        uf.union(0, 1);
        assert!(uf.all_connected(&[0, 1]));
        assert!(!uf.all_connected(&[0, 1, 2]));
        uf.union(2, 3);
        uf.union(1, 3);
        assert!(uf.all_connected(&[0, 1, 2, 3]));
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn find_is_idempotent_after_compression() {
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.union(i, i + 1);
        }
        let r = uf.find(0);
        for i in 0..8 {
            assert_eq!(uf.find(i), r);
        }
    }

    /// A reset structure must behave exactly like a fresh one after every
    /// reset, including immediately after pooling reuse.
    #[test]
    fn reset_matches_fresh() {
        let mut pooled = UnionFind::default();
        for round in 0..3 {
            pooled.reset(6);
            let mut uf = UnionFind::new(6);
            let pairs = [(0u32, 1u32), (2, 3), (1, 3), (4, 5)];
            for &(a, b) in &pairs {
                assert_eq!(pooled.union(a, b), uf.union(a, b), "round {round}");
            }
            assert_eq!(pooled.component_count(), uf.component_count());
            for x in 0..6u32 {
                for y in 0..6u32 {
                    assert_eq!(
                        pooled.connected(x, y),
                        uf.connected(x, y),
                        "round {round}: {x},{y}"
                    );
                }
            }
            assert!(pooled.all_connected(&[0, 1, 2, 3]));
            assert!(!pooled.all_connected(&[0, 4]));
            assert!(pooled.all_connected(&[]));
        }
    }

    #[test]
    fn reset_grows() {
        let mut uf = UnionFind::default();
        uf.reset(2);
        uf.union(0, 1);
        uf.reset(10);
        // Old unions must be gone, new slots must be singletons.
        assert_eq!(uf.component_count(), 10);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(8, 9));
        assert!(!uf.union(9, 8));
    }
}
