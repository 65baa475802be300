//! Disjoint-set forest (union-find) with path halving + union by size.
//!
//! Used by `FindG0` (incremental query-connectivity checks while edges
//! stream in by descending trussness) and by the Steiner-tree MST stage.

use crate::heap::vec_heap_bytes;

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure tracks zero elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
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

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> usize {
        let r = self.find(x);
        self.size[r as usize] as usize
    }
}

/// A pooled union-find whose `reset` is O(1): slots are lazily
/// re-initialized to singletons via epoch stamps instead of rewriting the
/// whole parent array, so a pooled query path (FindG0) pays only for the
/// vertices it actually touches.
///
/// Same path-halving + union-by-size discipline as [`UnionFind`]; a slot
/// whose stamp is stale reads as its own singleton set.
#[derive(Clone, Debug, Default)]
pub struct EpochUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochUnionFind {
    /// An empty structure; size it per query with [`reset`](Self::reset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.parent) + vec_heap_bytes(&self.size) + vec_heap_bytes(&self.stamp)
    }

    /// Makes every element of `0..n` a singleton. O(1) except on first
    /// growth and on the u32 epoch wraparound.
    pub fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, self.epoch);
            self.parent.resize(n, 0);
            self.size.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    #[inline(always)]
    fn touch(&mut self, x: u32) {
        if self.stamp[x as usize] != self.epoch {
            self.stamp[x as usize] = self.epoch;
            self.parent[x as usize] = x;
            self.size[x as usize] = 1;
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
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
        true
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
        assert_eq!(uf.set_size(1), 3);
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

    /// The epoch variant must behave exactly like a fresh UnionFind after
    /// every reset — including immediately after pooling reuse.
    #[test]
    fn epoch_reset_matches_fresh() {
        let mut euf = EpochUnionFind::new();
        for round in 0..3 {
            euf.reset(6);
            let mut uf = UnionFind::new(6);
            let pairs = [(0u32, 1u32), (2, 3), (1, 3), (4, 5)];
            for &(a, b) in &pairs {
                assert_eq!(euf.union(a, b), uf.union(a, b), "round {round}");
            }
            for x in 0..6u32 {
                for y in 0..6u32 {
                    assert_eq!(
                        euf.find(x) == euf.find(y),
                        uf.connected(x, y),
                        "round {round}: {x},{y}"
                    );
                }
            }
            assert!(euf.all_connected(&[0, 1, 2, 3]));
            assert!(!euf.all_connected(&[0, 4]));
            assert!(euf.all_connected(&[]));
        }
    }

    #[test]
    fn epoch_reset_grows() {
        let mut euf = EpochUnionFind::new();
        euf.reset(2);
        euf.union(0, 1);
        euf.reset(10);
        // Old unions must be gone, new slots must be singletons.
        assert_ne!(euf.find(0), euf.find(1));
        assert!(euf.union(8, 9));
        assert!(!euf.union(9, 8));
    }
}
