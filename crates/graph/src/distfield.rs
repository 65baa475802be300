//! Incremental single-source distance fields over a [`DynGraph`].
//!
//! The peeling loops of the CTC algorithms (Alg. 1, 4, 5) need, every
//! round, the BFS distance from each query vertex to every live vertex.
//! Recomputing |Q| full BFS passes per round is the dominant query-time
//! cost. The paper's own complexity argument (§4.4) rests on the fact that
//! peeling only ever *deletes* vertices and edges — and under deletion,
//! shortest-path distances are monotone non-decreasing. [`DistanceField`]
//! exploits exactly that monotonicity: after a deletion batch it repairs
//! only the part of the BFS tree that lost its parent certificate, in the
//! spirit of Ramalingam–Reps dynamic SSSP restricted to unit weights.
//!
//! The repair runs in two phases:
//!
//! 1. **Disown** — every alive vertex that lost an edge to a vertex one
//!    level closer is a *suspect*. Suspects are processed in increasing
//!    old-distance order: a suspect that still has an alive neighbor at
//!    `dist − 1` keeps its distance; otherwise it is *orphaned* (distance
//!    provisionally [`INF`]) and its children become suspects.
//! 2. **Re-settle** — a multi-source BFS from the certified boundary
//!    (settled neighbors of orphans) re-labels every orphan with its new,
//!    strictly larger distance; orphans the BFS never reaches are now
//!    disconnected from the source and stay [`INF`].
//!
//! Cost per batch is `O(affected + |deleted edges|)` rather than `O(n+m)`
//! per source, and all working memory (frontier queues, bucket queues,
//!  visitation marks) is epoch-stamped and pooled, so a warm field performs
//! no heap allocation and no `O(n)` clear between rounds. The
//! from-scratch BFS ([`DistanceField::init`], plus
//! [`bfs_distances`](crate::bfs_distances)) remains the correctness oracle;
//! the property suite pins `repair == recompute` on random graphs and
//! deletion schedules.

use crate::dynamic::DynGraph;
use crate::heap::{nested_heap_bytes, vec_heap_bytes};
use crate::ids::{EdgeId, VertexId};
use crate::traversal::INF;

/// Epoch-stamped membership marks: a visited-set with `O(1)` clear.
///
/// [`clear`](Self::clear) bumps an epoch instead of touching memory; a
/// slot is marked iff its stamp equals the current epoch. On the `u32`
/// epoch wraparound every stamp is zeroed, so marks from four billion
/// clears ago can never alias. This is the one shared implementation of
/// the wraparound-sensitive idiom the BFS and repair machinery relies on
/// (distance-field settled tags, suspect marks, [`BfsScratch`]'s visited
/// set, [`UnionFind`]'s live slots, the peel scratch's changed-vertex
/// dedup in `ctc-core`).
///
/// [`BfsScratch`]: crate::BfsScratch
/// [`UnionFind`]: crate::UnionFind
#[derive(Clone, Debug)]
pub struct EpochMarks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Default for EpochMarks {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochMarks {
    /// An empty mark set; size it with [`ensure`](Self::ensure).
    pub fn new() -> Self {
        // Stamps start at 0, so the live epoch must never be 0.
        EpochMarks {
            stamp: Vec::new(),
            epoch: 1,
        }
    }

    /// An unmarked set of `n` slots. The stamps are allocated zeroed, so
    /// no page of them is written before its first mark.
    pub fn with_len(n: usize) -> Self {
        EpochMarks {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Grows to cover `n` slots (new slots come up unmarked).
    pub fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Unmarks every slot in `O(1)` (`O(n)` only on epoch wraparound).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// `true` if slot `i` is marked.
    #[inline(always)]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// Marks slot `i`; `true` if it was previously unmarked.
    #[inline(always)]
    pub fn insert(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }

    /// Heap bytes held (the stamp array's capacity).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.stamp)
    }
}

/// A pooled, incrementally-repairable single-source BFS distance array.
///
/// ```
/// use ctc_graph::{graph_from_edges, DistanceField, DynGraph, VertexId, INF};
///
/// let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]);
/// let mut live = DynGraph::new(&g);
/// let mut field = DistanceField::new();
/// field.init(&live, VertexId(0));
/// assert_eq!(field.dist(VertexId(3)), 2); // via 4
///
/// // Deleting vertex 4 re-routes 3 through the path 0-1-2-3.
/// let dead_edges = live.remove_vertex(VertexId(4));
/// field.repair(&live, &[VertexId(4)], &dead_edges);
/// assert_eq!(field.dist(VertexId(3)), 3);
/// assert_eq!(field.dist(VertexId(4)), INF);
/// ```
pub struct DistanceField {
    src: u32,
    /// Source deleted: the field reports [`INF`] everywhere.
    dead: bool,
    /// Distance per vertex slot; valid iff the slot is in `settled`.
    dist: Vec<u32>,
    /// Which slots hold a current distance (cleared per [`init`]).
    settled: EpochMarks,
    /// BFS frontier for [`init`](Self::init) (reused across runs).
    queue: Vec<u32>,
    /// Per-repair "already a suspect" mark.
    mark: EpochMarks,
    /// Phase-1 bucket queue, indexed by old distance.
    levels: Vec<Vec<u32>>,
    /// Phase-2 bucket queue, indexed by candidate new distance.
    buckets: Vec<Vec<u32>>,
    /// Alive vertices whose distance changed in the last repair.
    changed: Vec<VertexId>,
}

impl Default for DistanceField {
    fn default() -> Self {
        Self::new()
    }
}

impl DistanceField {
    /// An empty field; size adapts to the graph on [`init`](Self::init).
    pub fn new() -> Self {
        DistanceField {
            src: 0,
            dead: true,
            dist: Vec::new(),
            settled: EpochMarks::new(),
            queue: Vec::new(),
            mark: EpochMarks::new(),
            levels: Vec::new(),
            buckets: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// Heap bytes held by the field's pooled buffers (capacity, not
    /// length: the field is grow-only).
    pub fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.dist)
            + self.settled.heap_bytes()
            + vec_heap_bytes(&self.queue)
            + self.mark.heap_bytes()
            + nested_heap_bytes(&self.levels)
            + nested_heap_bytes(&self.buckets)
            + vec_heap_bytes(&self.changed)
    }

    /// The source vertex of the most recent [`init`](Self::init).
    pub fn source(&self) -> VertexId {
        VertexId(self.src)
    }

    /// `true` once the source itself has been deleted; every distance is
    /// then [`INF`].
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Alive vertices whose distance changed (strictly increased, possibly
    /// to [`INF`]) in the most recent [`repair`](Self::repair). Deleted
    /// vertices are *not* listed — the caller already knows them.
    pub fn changed(&self) -> &[VertexId] {
        &self.changed
    }

    /// Distance from the source to `v` ([`INF`] if unreachable, deleted,
    /// or the source is dead).
    #[inline(always)]
    pub fn dist(&self, v: VertexId) -> u32 {
        if self.dead || !self.settled.contains(v.index()) {
            INF
        } else {
            self.dist[v.index()]
        }
    }

    fn ensure(&mut self, n: usize) {
        self.settled.ensure(n);
        self.mark.ensure(n);
        if self.dist.len() < n {
            self.dist.resize(n, INF);
        }
    }

    /// Runs a full BFS from `src` over the alive part of `live`,
    /// overwriting the field. Epoch-stamped: no `O(n)` clear.
    pub fn init(&mut self, live: &DynGraph<'_>, src: VertexId) {
        let n = live.base().num_vertices();
        self.ensure(n);
        self.settled.clear();
        self.changed.clear();
        self.src = src.0;
        self.dead = !live.is_vertex_alive(src);
        if self.dead {
            return;
        }
        self.queue.clear();
        self.settled.insert(src.index());
        self.dist[src.index()] = 0;
        self.queue.push(src.0);
        let mut head = 0usize;
        while head < self.queue.len() {
            let v = VertexId(self.queue[head]);
            head += 1;
            let dv = self.dist[v.index()];
            for (nb, _) in live.alive_neighbors(v) {
                let i = nb.index();
                if self.settled.insert(i) {
                    self.dist[i] = dv + 1;
                    self.queue.push(nb.0);
                }
            }
        }
    }

    /// Repairs the field after `deleted_vertices` / `deleted_edges` were
    /// removed from `live` (which must already reflect the deletion — the
    /// state a [`TrussMaintainer`](../../ctc_truss) cascade leaves behind).
    ///
    /// `deleted_edges` must contain **every** edge removed by the batch
    /// (incident edges of deleted vertices included); the pre-deletion
    /// distances of just-deleted vertices are still readable and are used
    /// to decide which survivors lost their parent certificate. Distances
    /// only ever increase; vertices cut off from the source become
    /// [`INF`]. After the call, [`changed`](Self::changed) lists the alive
    /// vertices whose distance moved.
    pub fn repair(
        &mut self,
        live: &DynGraph<'_>,
        deleted_vertices: &[VertexId],
        deleted_edges: &[EdgeId],
    ) {
        self.changed.clear();
        if self.dead {
            return;
        }
        if deleted_vertices.iter().any(|&v| v.0 == self.src) {
            self.dead = true;
            return;
        }
        self.mark.clear();

        // Phase 1 — seed suspects: alive endpoints of deleted edges whose
        // recorded distance relied on the other (one-level-closer) side.
        let mut min_lvl = usize::MAX;
        let mut max_lvl = 0usize;
        for &e in deleted_edges {
            let (u, v) = live.base().edge_endpoints(e);
            for (x, parent) in [(u, v), (v, u)] {
                if !live.is_vertex_alive(x) {
                    continue;
                }
                let (xi, pi) = (x.index(), parent.index());
                if !self.settled.contains(xi) || !self.settled.contains(pi) {
                    continue; // unreachable before the batch: still unreachable
                }
                let (dx, dp) = (self.dist[xi], self.dist[pi]);
                if dp != INF && dx == dp + 1 && self.mark.insert(xi) {
                    let lvl = dx as usize;
                    if self.levels.len() <= lvl {
                        self.levels.resize_with(lvl + 1, Vec::new);
                    }
                    self.levels[lvl].push(x.0);
                    min_lvl = min_lvl.min(lvl);
                    max_lvl = max_lvl.max(lvl);
                }
            }
        }
        if min_lvl == usize::MAX {
            // No survivor lost a certificate; only the deleted slots move.
            self.invalidate_deleted(deleted_vertices);
            return;
        }

        // Phase 1 — disown: process suspects by increasing old distance.
        // When level `l` is processed every vertex below it is final, so
        // "has an alive neighbor at l−1" is a sound keep-certificate.
        let mut lvl = min_lvl;
        while lvl <= max_lvl {
            let mut bucket = std::mem::take(&mut self.levels[lvl]);
            for &x in &bucket {
                let x = VertexId(x);
                let certified = live.alive_neighbors(x).any(|(w, _)| {
                    self.settled.contains(w.index())
                        && self.dist[w.index()] != INF
                        && self.dist[w.index()] as usize + 1 == lvl
                });
                if certified {
                    continue;
                }
                self.dist[x.index()] = INF; // orphaned, to be re-settled
                self.changed.push(x);
                for (y, _) in live.alive_neighbors(x) {
                    let yi = y.index();
                    if self.settled.contains(yi)
                        && self.dist[yi] as usize == lvl + 1
                        && self.mark.insert(yi)
                    {
                        if self.levels.len() <= lvl + 1 {
                            self.levels.resize_with(lvl + 2, Vec::new);
                        }
                        self.levels[lvl + 1].push(y.0);
                        max_lvl = max_lvl.max(lvl + 1);
                    }
                }
            }
            bucket.clear();
            self.levels[lvl] = bucket;
            lvl += 1;
        }

        // Phase 2 — re-settle: multi-source BFS from the certified
        // boundary, bucketed by candidate distance (distances are unit, so
        // buckets pop in sorted order). Every alive neighbor of an orphan
        // had a finite pre-batch distance, so any INF neighbor seen here
        // is itself an unsettled orphan — never a previously-unreachable
        // vertex being wrongly revived.
        let mut min_b = usize::MAX;
        let mut max_b = 0usize;
        for i in 0..self.changed.len() {
            let o = self.changed[i];
            let mut best = INF;
            for (w, _) in live.alive_neighbors(o) {
                if self.settled.contains(w.index()) {
                    let dw = self.dist[w.index()];
                    if dw != INF {
                        best = best.min(dw + 1);
                    }
                }
            }
            if best != INF {
                let b = best as usize;
                if self.buckets.len() <= b {
                    self.buckets.resize_with(b + 1, Vec::new);
                }
                self.buckets[b].push(o.0);
                min_b = min_b.min(b);
                max_b = max_b.max(b);
            }
        }
        let mut d = min_b;
        while d <= max_b {
            if d >= self.buckets.len() {
                break;
            }
            let mut bucket = std::mem::take(&mut self.buckets[d]);
            for &x in &bucket {
                let xi = x as usize;
                if self.dist[xi] != INF {
                    continue; // settled earlier at a smaller distance
                }
                self.dist[xi] = d as u32;
                for (y, _) in live.alive_neighbors(VertexId(x)) {
                    let yi = y.index();
                    if self.settled.contains(yi) && self.dist[yi] == INF {
                        if self.buckets.len() <= d + 1 {
                            self.buckets.resize_with(d + 2, Vec::new);
                        }
                        self.buckets[d + 1].push(y.0);
                        max_b = max_b.max(d + 1);
                    }
                }
            }
            bucket.clear();
            self.buckets[d] = bucket;
            d += 1;
        }

        self.invalidate_deleted(deleted_vertices);
    }

    /// Marks this round's deleted vertices [`INF`] so later reads (and
    /// later repairs) never see their stale pre-deletion distances.
    fn invalidate_deleted(&mut self, deleted_vertices: &[VertexId]) {
        for &v in deleted_vertices {
            if self.settled.contains(v.index()) {
                self.dist[v.index()] = INF;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::csr::CsrGraph;
    use crate::traversal::bfs_distances;

    /// Marks set just before the `u32` epoch wraps must not survive the
    /// clear that wraps it, and the wrapped set must mark afresh.
    #[test]
    fn epoch_marks_clear_across_the_u32_wrap() {
        let mut marks = EpochMarks::with_len(4);
        marks.epoch = u32::MAX;
        assert!(marks.insert(0));
        assert!(marks.insert(3));
        assert!(marks.contains(0) && marks.contains(3));
        marks.clear();
        assert_eq!(marks.epoch, 1, "the live epoch skips 0");
        assert!(
            (0..4).all(|i| !marks.contains(i)),
            "a mark survived the wrap"
        );
        assert!(marks.insert(3));
        assert!(!marks.insert(3));
        assert!((0..3).all(|i| !marks.contains(i)));
    }

    /// Full-recompute oracle: field must equal a fresh BFS over `live`.
    fn assert_matches_oracle(field: &DistanceField, live: &DynGraph<'_>, src: VertexId) {
        let fresh = bfs_distances(live, src);
        for v in 0..live.base().num_vertices() {
            let v = VertexId::from(v);
            let expected = if live.is_vertex_alive(v) {
                fresh[v.index()]
            } else {
                INF
            };
            assert_eq!(
                field.dist(v),
                expected,
                "vertex {v} after deletions (src {src})"
            );
        }
    }

    fn grid() -> CsrGraph {
        // 4x4 grid: enough alternate paths to exercise re-routing.
        let mut edges = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    edges.push((v, v + 1));
                }
                if r + 1 < 4 {
                    edges.push((v, v + 4));
                }
            }
        }
        graph_from_edges(&edges)
    }

    #[test]
    fn init_matches_bfs() {
        let g = grid();
        let live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        assert_matches_oracle(&f, &live, VertexId(0));
        assert!(!f.is_dead());
        assert_eq!(f.source(), VertexId(0));
    }

    #[test]
    fn repair_after_single_vertex_deletion() {
        let g = grid();
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        let dead = live.remove_vertex(VertexId(5));
        f.repair(&live, &[VertexId(5)], &dead);
        assert_matches_oracle(&f, &live, VertexId(0));
        assert!(f.changed().iter().all(|&v| live.is_vertex_alive(v)));
    }

    #[test]
    fn repair_detects_disconnection() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        let dead = live.remove_vertex(VertexId(1));
        f.repair(&live, &[VertexId(1)], &dead);
        assert_eq!(f.dist(VertexId(2)), INF);
        assert_eq!(f.dist(VertexId(3)), INF);
        assert_eq!(f.dist(VertexId(0)), 0);
        assert_matches_oracle(&f, &live, VertexId(0));
    }

    #[test]
    fn repair_with_pure_edge_deletion() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]);
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        live.remove_edge(e);
        f.repair(&live, &[], &[e]);
        assert_matches_oracle(&f, &live, VertexId(0));
        assert_eq!(f.dist(VertexId(1)), 2, "1 re-routes via 2");
    }

    #[test]
    fn source_deletion_kills_the_field() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        let dead = live.remove_vertex(VertexId(0));
        f.repair(&live, &[VertexId(0)], &dead);
        assert!(f.is_dead());
        for v in 0..3 {
            assert_eq!(f.dist(VertexId(v)), INF);
        }
    }

    #[test]
    fn sequential_batches_stay_exact() {
        let g = grid();
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        for &victim in &[15u32, 6, 9, 3, 12] {
            let dead = live.remove_vertex(VertexId(victim));
            f.repair(&live, &[VertexId(victim)], &dead);
            assert_matches_oracle(&f, &live, VertexId(0));
        }
    }

    #[test]
    fn multi_vertex_batch() {
        let g = grid();
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(12));
        let batch = [VertexId(5), VertexId(6), VertexId(10)];
        let mut dead_edges = Vec::new();
        for &v in &batch {
            dead_edges.extend(live.remove_vertex(v));
        }
        f.repair(&live, &batch, &dead_edges);
        assert_matches_oracle(&f, &live, VertexId(12));
    }

    #[test]
    fn reinit_recycles_buffers() {
        let g = grid();
        let mut live = DynGraph::new(&g);
        let mut f = DistanceField::new();
        f.init(&live, VertexId(0));
        let dead = live.remove_vertex(VertexId(1));
        f.repair(&live, &[VertexId(1)], &dead);
        // A second session over a fresh overlay must be indistinguishable
        // from a fresh field.
        let live2 = DynGraph::new(&g);
        f.init(&live2, VertexId(7));
        assert_matches_oracle(&f, &live2, VertexId(7));
    }
}
