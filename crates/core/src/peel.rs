//! The shared greedy peeling engine behind Basic (Alg. 1), BulkDelete
//! (Alg. 4) and the LCTC inner loop (§5.2).
//!
//! Each iteration measures vertex query distances, picks a victim set
//! according to the deletion policy, removes it, and lets the truss
//! maintainer (Alg. 3) cascade. Removal times are stamped per vertex and
//! edge so the best intermediate snapshot `R = argmin_G dist_G(G, Q)` is
//! reconstructed afterwards without storing any intermediate graph — the
//! paper's `O(m')` space argument (§4.4).
//!
//! ## The incremental hot path
//!
//! Measuring `dist(·, Q)` is the dominant per-round cost. Instead of `|Q|`
//! full BFS passes over the live graph per round, [`peel_with`] keeps one
//! incremental [`DistanceField`] per query source and, after each victim
//! batch, *repairs* it: deletions only ever increase distances (the
//! monotonicity behind the paper's §4.4 complexity argument), so only the
//! part of each BFS tree that lost its parent certificate is re-settled.
//! The per-vertex max/sum profiles are patched for exactly the vertices
//! whose distances moved, victim selection runs over the live graph's
//! `O(alive)` vertex list rather than every slot, and all working state
//! lives in a caller-pooled [`PeelScratch`], so a warm peel allocates
//! nothing. The loop, like the paper's, is sequential and runs on its
//! caller's thread.
//!
//! [`peel_reference`] keeps the original full-recompute loop as the
//! correctness oracle; the property suite pins `peel_with ==
//! peel_reference` on random graphs for every policy.

use ctc_graph::{query_connected, vec_heap_bytes, EpochMarks, INF};
use ctc_graph::{BfsScratch, CsrGraph, DistanceField, DynBuffers, DynGraph, VertexId};
use ctc_truss::{CascadeReport, TrussMaintainer};

/// Victim-selection policy for one peeling iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeletePolicy {
    /// Algorithm 1: the single vertex maximizing `dist(u, Q)` (smallest id
    /// among ties, for determinism).
    SingleFurthest,
    /// Algorithm 4: every vertex with `dist(u, Q) ≥ d − 1` where `d` is
    /// the query distance of the **current** round's graph. Guarantees
    /// ≥ k deletions per round (Lemma 6).
    BulkAtLeast,
    /// LCTC variant (§5.2): among `L' = {u : dist(u, Q) ≥ d}` (again `d`
    /// of the current round), delete only the vertices with the largest
    /// total distance to the query set — slower convergence, smaller
    /// final diameter.
    LocalGreedy,
}

/// Outcome of a peeling run.
#[derive(Clone, Debug)]
pub struct PeelOutcome {
    /// Vertices of the best snapshot (local ids of the peeled graph).
    pub vertices: Vec<VertexId>,
    /// Edges of the best snapshot as local vertex pairs.
    pub edges: Vec<(VertexId, VertexId)>,
    /// `dist_R(R, Q)` of the best snapshot.
    pub query_distance: u32,
    /// Iterations executed (snapshots examined).
    pub iterations: usize,
}

/// Summary statistics of a [`peel_rounds`] run; the removal stamps needed
/// to materialize the winning snapshot stay in the [`PeelScratch`].
#[derive(Clone, Copy, Debug)]
pub struct PeelStats {
    /// `dist(G, Q)` of the best snapshot seen ([`INF`] when the query was
    /// never connected).
    pub best_dist: u32,
    /// Iteration index of the best snapshot.
    pub best_iter: u32,
    /// Iterations executed.
    pub iterations: u32,
}

/// Pooled working state for [`peel_with`]: the deletion overlay's buffers,
/// the truss maintainer, one [`DistanceField`] per query source, the
/// per-vertex distance profiles, victim buffers and removal stamps.
///
/// Create once (per worker, or per slot of the process-wide pool that
/// [`CommunityEngine::search`](crate::CommunityEngine::search) draws from)
/// and reuse across queries and graphs: after the buffers reach the
/// workload's high-water mark, a warm peel performs **zero** heap
/// allocations in its round loop — the property the counting-allocator
/// test in `ctc-core/tests` pins. Reuse across graphs is safe because
/// every buffer is grow-only and either epoch-stamped, re-armed per call,
/// or (the supports cache) keyed on the exact edge list it was filled
/// from.
#[derive(Default)]
pub struct PeelScratch {
    dyn_bufs: Option<DynBuffers>,
    maint: Option<TrussMaintainer>,
    fields: Vec<DistanceField>,
    dist_max: Vec<u32>,
    dist_sum: Vec<u64>,
    vertex_removed_at: Vec<u32>,
    edge_removed_at: Vec<u32>,
    victims: Vec<VertexId>,
    report: CascadeReport,
    /// Union of per-field changed vertices for one profile patch.
    changed_union: Vec<VertexId>,
    /// Dedup mark for `changed_union`.
    mark: EpochMarks,
    /// Initial-supports cache: the exact edge list of the last peeled
    /// subgraph and its fully-alive support table. Repeated queries into
    /// the same community (the common serving pattern — every query set
    /// inside one k-truss shares its `G0`) skip the `O(Σ deg)` support
    /// recomputation; the key is exact edge-list equality, so a hit is
    /// byte-identical to a recompute by construction.
    cached_edges: Vec<(u32, u32)>,
    cached_supports: Vec<u32>,
    cache_filled: bool,
    /// Pooled locate-phase state (FindG0 expansion + extraction), shared
    /// with the searcher so a checked-out engine scratch covers both
    /// phases of a query.
    pub(crate) find: ctc_truss::FindScratch,
    /// Pooled parent→local ids for copying `G0` into the peel's subgraph.
    pub(crate) sub: ctc_graph::SubgraphScratch,
    /// Pooled truss-decomposition state: LCTC's per-query index build,
    /// and the support count that arms the maintainer on a cache miss.
    pub(crate) decomp: ctc_truss::DecomposeScratch,
}

impl PeelScratch {
    /// An empty scratch; buffers grow to fit the graphs it peels.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes the scratch holds: the capacity of every pooled buffer,
    /// down through the deletion overlay, the truss maintainer, the
    /// distance fields, the supports cache and the locate-phase scratches.
    /// Dropping the scratch frees exactly this much.
    pub fn heap_bytes(&self) -> usize {
        self.dyn_bufs.as_ref().map_or(0, DynBuffers::heap_bytes)
            + self.maint.as_ref().map_or(0, TrussMaintainer::heap_bytes)
            + vec_heap_bytes(&self.fields)
            + self
                .fields
                .iter()
                .map(DistanceField::heap_bytes)
                .sum::<usize>()
            + vec_heap_bytes(&self.dist_max)
            + vec_heap_bytes(&self.dist_sum)
            + vec_heap_bytes(&self.vertex_removed_at)
            + vec_heap_bytes(&self.edge_removed_at)
            + vec_heap_bytes(&self.victims)
            + self.report.heap_bytes()
            + vec_heap_bytes(&self.changed_union)
            + self.mark.heap_bytes()
            + vec_heap_bytes(&self.cached_edges)
            + vec_heap_bytes(&self.cached_supports)
            + self.find.heap_bytes()
            + self.sub.heap_bytes()
            + self.decomp.heap_bytes()
    }

    /// Sizes the per-call state (stamps, profiles) for an `n`-vertex,
    /// `m`-edge subgraph. Reuses capacity; only grows allocations.
    fn prepare(&mut self, n: usize, m: usize) {
        self.vertex_removed_at.clear();
        self.vertex_removed_at.resize(n, u32::MAX);
        self.edge_removed_at.clear();
        self.edge_removed_at.resize(m, u32::MAX);
        self.dist_max.clear();
        self.dist_max.resize(n, 0);
        self.dist_sum.clear();
        self.dist_sum.resize(n, 0);
        self.mark.ensure(n);
        self.victims.clear();
        self.changed_union.clear();
    }

    /// `true` when `sub`'s edge list is exactly the cached one.
    fn supports_cached_for(&self, sub: &CsrGraph) -> bool {
        self.cache_filled
            && self.cached_edges.len() == sub.num_edges()
            && sub
                .edges()
                .all(|(e, u, v)| self.cached_edges[e.index()] == (u.0, v.0))
    }

    /// Stores `sub`'s edge list plus its fully-alive supports, counted by
    /// the oriented walk in the decomposition scratch.
    fn fill_supports_cache(&mut self, sub: &CsrGraph) {
        self.cached_edges.clear();
        self.cached_edges
            .extend(sub.edges().map(|(_, u, v)| (u.0, v.0)));
        self.decomp.count_supports(sub, &mut self.cached_supports);
        self.cache_filled = true;
    }

    /// Recomputes `dist_max`/`dist_sum` for one vertex from the fields.
    #[inline]
    fn recompute_profile_at(&mut self, v: VertexId, q_len: usize) {
        let mut max = 0u32;
        let mut sum = 0u64;
        for f in &self.fields[..q_len] {
            let d = f.dist(v);
            max = max.max(d);
            sum = sum.saturating_add(d as u64);
        }
        self.dist_max[v.index()] = max;
        self.dist_sum[v.index()] = sum;
    }
}

/// `connect(Q)` over the incremental fields: every query vertex alive and
/// reachable from the first one (equivalent to the BFS-based
/// [`query_connected`] the reference loop runs each round).
fn query_connected_fields(live: &DynGraph<'_>, q: &[VertexId], fields: &[DistanceField]) -> bool {
    let Some(f0) = fields.first() else {
        return false;
    };
    q.iter().all(|&v| live.is_vertex_alive(v)) && q.iter().all(|&v| f0.dist(v) != INF)
}

/// Victim selection for one round, shared by the incremental and reference
/// loops. `d_graph` is the query distance of the **current** snapshot —
/// the quantity Lemma 6 and §5.2 define their thresholds on. Victims come
/// back sorted ascending.
fn select_victims(
    policy: DeletePolicy,
    d_graph: u32,
    alive: impl Iterator<Item = VertexId> + Clone,
    dist_max: &[u32],
    dist_sum: &[u64],
    victims: &mut Vec<VertexId>,
) {
    victims.clear();
    match policy {
        DeletePolicy::SingleFurthest => {
            let mut best: Option<VertexId> = None;
            for v in alive {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let (dv, db) = (dist_max[v.index()], dist_max[b.index()]);
                        // Ties break toward the smaller id.
                        if dv > db || (dv == db && v < b) {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            victims.extend(best);
        }
        DeletePolicy::BulkAtLeast => {
            let threshold = d_graph.saturating_sub(1).max(1);
            victims.extend(alive.filter(|&v| dist_max[v.index()] >= threshold));
            victims.sort_unstable();
        }
        DeletePolicy::LocalGreedy => {
            let threshold = d_graph.max(1);
            // Among L' = {u : dist(u,Q) ≥ d} keep only those with the
            // largest total distance (two passes, no materialized L').
            let top = alive
                .clone()
                .filter(|&v| dist_max[v.index()] >= threshold)
                .map(|v| dist_sum[v.index()])
                .max()
                .unwrap_or(0);
            victims.extend(
                alive.filter(|&v| dist_max[v.index()] >= threshold && dist_sum[v.index()] == top),
            );
            victims.sort_unstable();
        }
    }
}

/// Runs the peeling loop on `sub` (a connected k-truss containing the
/// local query `q`) at trussness level `k`, leaving the removal stamps in
/// `scratch`. This is the allocation-free hot loop; [`peel_with`] wraps it
/// and materializes the winning snapshot.
pub fn peel_rounds(
    sub: &CsrGraph,
    q: &[VertexId],
    k: u32,
    policy: DeletePolicy,
    max_iterations: Option<usize>,
    scratch: &mut PeelScratch,
) -> PeelStats {
    let n = sub.num_vertices();
    let m = sub.num_edges();
    scratch.prepare(n, m);
    let mut live = DynGraph::with_buffers(sub, scratch.dyn_bufs.take().unwrap_or_default());
    if !scratch.supports_cached_for(sub) {
        scratch.fill_supports_cache(sub);
    }
    let mut maint = scratch.maint.take().unwrap_or_default();
    maint.reset_with(&scratch.cached_supports, &live, k);

    // One incremental distance field per query source (grow-only pool).
    let q_len = q.len();
    while scratch.fields.len() < q_len {
        scratch.fields.push(DistanceField::new());
    }
    for (f, &qv) in scratch.fields.iter_mut().zip(q) {
        f.init(&live, qv);
    }
    // Full profile build for round 0; later rounds only patch changes.
    for v in 0..n {
        scratch.recompute_profile_at(VertexId::from(v), q_len);
    }

    let mut best_dist = INF;
    let mut best_iter = 0u32;
    let mut iter = 0u32;

    while query_connected_fields(&live, q, &scratch.fields[..q_len]) {
        if let Some(cap) = max_iterations {
            if iter as usize >= cap {
                break;
            }
        }
        // Graph query distance of the current snapshot.
        let d_graph = live
            .alive_vertex_list()
            .iter()
            .map(|v| scratch.dist_max[v.index()])
            .max()
            .unwrap_or(0);
        if d_graph < best_dist {
            best_dist = d_graph;
            best_iter = iter;
        }
        if d_graph == 0 {
            break; // community collapsed onto Q itself; nothing to peel
        }
        select_victims(
            policy,
            d_graph,
            live.alive_vertex_list().iter().copied(),
            &scratch.dist_max,
            &scratch.dist_sum,
            &mut scratch.victims,
        );
        if scratch.victims.is_empty() {
            break;
        }
        // Last-round short-circuit: when a query vertex is itself a victim
        // (the common BulkDelete/LCTC termination, e.g. Example 7), the
        // loop is guaranteed to exit after this round — the deletion would
        // kill a query vertex and disconnect Q. The round's removal stamps
        // cannot change the answer either: the best snapshot precedes this
        // round, and both "removed this round" and "never removed" satisfy
        // `removed_at ≥ best_iter` in the reconstruction. Skipping the
        // cascade here elides the single most expensive round (tearing
        // down the bulk of the graph) with byte-identical output — the
        // property suite pins this against the full-delete reference.
        if q.iter().any(|v| scratch.victims.binary_search(v).is_ok()) {
            iter += 1;
            break;
        }
        maint.delete_vertices_into(&mut live, &scratch.victims, &mut scratch.report);
        for &v in &scratch.report.vertices {
            scratch.vertex_removed_at[v.index()] = iter;
        }
        for &e in &scratch.report.edges {
            scratch.edge_removed_at[e.index()] = iter;
        }
        iter += 1;
        if q.iter().any(|&v| !live.is_vertex_alive(v)) {
            // The query itself was hit: the loop is over, skip the repair.
            break;
        }
        // Repair the |Q| fields, one per query source.
        let report = &scratch.report;
        for f in &mut scratch.fields[..q_len] {
            f.repair(&live, &report.vertices, &report.edges);
        }
        // Patch the max/sum profiles for exactly the vertices that moved.
        scratch.mark.clear();
        for fi in 0..q_len {
            for ci in 0..scratch.fields[fi].changed().len() {
                let v = scratch.fields[fi].changed()[ci];
                if scratch.mark.insert(v.index()) {
                    scratch.changed_union.push(v);
                }
            }
        }
        for ci in 0..scratch.changed_union.len() {
            let v = scratch.changed_union[ci];
            scratch.recompute_profile_at(v, q_len);
        }
        scratch.changed_union.clear();
        for &v in &scratch.report.vertices {
            scratch.dist_max[v.index()] = INF;
            scratch.dist_sum[v.index()] = u64::MAX;
        }
    }

    scratch.dyn_bufs = Some(live.into_buffers());
    scratch.maint = Some(maint);
    PeelStats {
        best_dist,
        best_iter,
        iterations: iter,
    }
}

/// Materializes the best snapshot from the stamps a [`peel_rounds`] call
/// left in `scratch`: everything removed at or after `best_iter` (or
/// never) was present when it was measured.
fn reconstruct(sub: &CsrGraph, scratch: &PeelScratch, stats: PeelStats) -> PeelOutcome {
    let vertices: Vec<VertexId> = (0..sub.num_vertices())
        .map(VertexId::from)
        .filter(|&v| scratch.vertex_removed_at[v.index()] >= stats.best_iter)
        .collect();
    let edges: Vec<(VertexId, VertexId)> = sub
        .edges()
        .filter(|&(e, _, _)| scratch.edge_removed_at[e.index()] >= stats.best_iter)
        .map(|(_, u, v)| (u, v))
        .collect();
    PeelOutcome {
        vertices,
        edges,
        query_distance: stats.best_dist,
        iterations: stats.iterations as usize,
    }
}

/// [`peel_rounds`] plus snapshot materialization: the full peeling
/// algorithm over pooled scratch.
pub fn peel_with(
    sub: &CsrGraph,
    q: &[VertexId],
    k: u32,
    policy: DeletePolicy,
    max_iterations: Option<usize>,
    scratch: &mut PeelScratch,
) -> PeelOutcome {
    let stats = peel_rounds(sub, q, k, policy, max_iterations, scratch);
    reconstruct(sub, scratch, stats)
}

/// Runs the peeling loop with one-shot scratch. Prefer [`peel_with`] on
/// any warm path.
pub fn peel(
    sub: &CsrGraph,
    q: &[VertexId],
    k: u32,
    policy: DeletePolicy,
    max_iterations: Option<usize>,
) -> PeelOutcome {
    peel_with(sub, q, k, policy, max_iterations, &mut PeelScratch::new())
}

/// Per-vertex query-distance profile by full recomputation: `|Q|` BFS
/// passes plus an `O(n)` dead-slot sweep. The pre-incremental
/// implementation, kept as the reference the property suite compares
/// [`peel_with`] against.
fn query_profile_reference(
    live: &DynGraph<'_>,
    q: &[VertexId],
    scratch: &mut BfsScratch,
    max_out: &mut [u32],
    sum_out: &mut [u64],
) {
    max_out.iter_mut().for_each(|x| *x = 0);
    sum_out.iter_mut().for_each(|x| *x = 0);
    for &qv in q {
        scratch.run(live, qv);
        for v in 0..max_out.len() {
            let d = scratch.dist(VertexId::from(v));
            max_out[v] = max_out[v].max(d);
            sum_out[v] = sum_out[v].saturating_add(d as u64);
        }
    }
    for v in 0..max_out.len() {
        if !live.is_vertex_alive(VertexId::from(v)) {
            max_out[v] = INF;
            sum_out[v] = u64::MAX;
        }
    }
}

/// The full-recompute peeling loop: byte-identical outcomes to
/// [`peel_with`], paid for with `|Q|` fresh BFS passes and whole-graph
/// scans every round. This is the correctness oracle for the incremental
/// engine — slow, simple, and kept deliberately close to the paper's
/// pseudocode.
pub fn peel_reference(
    sub: &CsrGraph,
    q: &[VertexId],
    k: u32,
    policy: DeletePolicy,
    max_iterations: Option<usize>,
) -> PeelOutcome {
    let n = sub.num_vertices();
    let m = sub.num_edges();
    let mut live = DynGraph::new(sub);
    let mut maint = TrussMaintainer::new(&live, k);
    let mut scratch = BfsScratch::new(n);
    let mut dist_max = vec![0u32; n];
    let mut dist_sum = vec![0u64; n];
    let mut vertex_removed_at = vec![u32::MAX; n];
    let mut edge_removed_at = vec![u32::MAX; m];

    let mut best_dist = INF;
    let mut best_iter = 0u32;
    let mut iter = 0u32;
    let mut victims: Vec<VertexId> = Vec::new();

    while query_connected(&live, q, &mut scratch) {
        if let Some(cap) = max_iterations {
            if iter as usize >= cap {
                break;
            }
        }
        query_profile_reference(&live, q, &mut scratch, &mut dist_max, &mut dist_sum);
        let alive: Vec<VertexId> = live.alive_vertices().collect();
        let d_graph = alive.iter().map(|v| dist_max[v.index()]).max().unwrap_or(0);
        if d_graph < best_dist {
            best_dist = d_graph;
            best_iter = iter;
        }
        if d_graph == 0 {
            break;
        }
        select_victims(
            policy,
            d_graph,
            alive.iter().copied(),
            &dist_max,
            &dist_sum,
            &mut victims,
        );
        if victims.is_empty() {
            break;
        }
        let report = maint.delete_vertices(&mut live, &victims);
        for &v in &report.vertices {
            vertex_removed_at[v.index()] = iter;
        }
        for &e in &report.edges {
            edge_removed_at[e.index()] = iter;
        }
        iter += 1;
    }

    let vertices: Vec<VertexId> = (0..n)
        .map(VertexId::from)
        .filter(|&v| vertex_removed_at[v.index()] >= best_iter)
        .collect();
    let edges: Vec<(VertexId, VertexId)> = sub
        .edges()
        .filter(|&(e, _, _)| edge_removed_at[e.index()] >= best_iter)
        .map(|(_, u, v)| (u, v))
        .collect();
    PeelOutcome {
        vertices,
        edges,
        query_distance: best_dist,
        iterations: iter as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_graph::{edge_subgraph, graph_from_edges};
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
    use ctc_truss::{find_g0, TrussIndex};

    /// Extracts Figure 1's G0 for Q={q1,q2,q3} as a standalone graph plus
    /// local query ids.
    fn figure1_g0() -> (ctc_graph::Subgraph, Vec<VertexId>) {
        let g = figure1_graph();
        let idx = TrussIndex::build(&g);
        let f = Figure1Ids::default();
        let g0 = find_g0(&g, &idx, &[f.q1, f.q2, f.q3]).unwrap();
        let sub = edge_subgraph(&g, &g0.edges);
        let q = sub.locals(&[f.q1, f.q2, f.q3]).unwrap();
        (sub, q)
    }

    #[test]
    fn basic_policy_recovers_figure1b() {
        // Example 4: Basic deletes p1, cascade removes p2/p3, and the best
        // snapshot is Figure 1(b) with query distance 3.
        let (sub, q) = figure1_g0();
        let out = peel(&sub.graph, &q, 4, DeletePolicy::SingleFurthest, None);
        assert_eq!(out.query_distance, 3);
        assert_eq!(out.vertices.len(), 8);
        assert_eq!(out.edges.len(), 17);
    }

    #[test]
    fn bulk_policy_keeps_g0_on_figure1() {
        // Example 7: BD's first round deletes L ∋ {q1, q3}, disconnecting
        // Q, so the answer stays the whole G0 (11 vertices, distance 3...
        // measured as dist(G0, Q) = 3).
        let (sub, q) = figure1_g0();
        let out = peel(&sub.graph, &q, 4, DeletePolicy::BulkAtLeast, None);
        assert_eq!(out.vertices.len(), 11, "BD returns all of G0");
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn local_policy_not_worse_than_bulk() {
        let (sub, q) = figure1_g0();
        let bulk = peel(&sub.graph, &q, 4, DeletePolicy::BulkAtLeast, None);
        let local = peel(&sub.graph, &q, 4, DeletePolicy::LocalGreedy, None);
        assert!(local.query_distance <= bulk.query_distance);
        assert!(local.vertices.len() <= bulk.vertices.len());
    }

    #[test]
    fn single_query_on_k4_returns_k4() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let out = peel(&g, &[VertexId(0)], 4, DeletePolicy::SingleFurthest, None);
        assert_eq!(out.vertices.len(), 4);
        assert_eq!(out.query_distance, 1);
    }

    #[test]
    fn iteration_cap_respected() {
        let (sub, q) = figure1_g0();
        let out = peel(&sub.graph, &q, 4, DeletePolicy::SingleFurthest, Some(0));
        assert_eq!(out.iterations, 0);
        assert_eq!(out.vertices.len(), 11, "cap 0 returns G0 untouched");
    }

    #[test]
    fn outcome_is_always_a_connected_ktruss_containing_q() {
        let (sub, q) = figure1_g0();
        for policy in [
            DeletePolicy::SingleFurthest,
            DeletePolicy::BulkAtLeast,
            DeletePolicy::LocalGreedy,
        ] {
            let out = peel(&sub.graph, &q, 4, policy, None);
            // Rebuild and check.
            let mut b = ctc_graph::GraphBuilder::new();
            b.ensure_vertices(sub.graph.num_vertices());
            for &(u, v) in &out.edges {
                b.add_edge(u.0, v.0);
            }
            let rg = b.build();
            let mut scratch = BfsScratch::new(rg.num_vertices());
            assert!(
                query_connected(&rg, &q, &mut scratch),
                "{policy:?}: Q disconnected"
            );
            let sup = ctc_graph::edge_supports(&rg);
            for (e, u, v) in rg.edges() {
                if out.vertices.contains(&u) && out.vertices.contains(&v) {
                    assert!(
                        sup[e.index()] + 2 >= 4,
                        "{policy:?}: edge ({u},{v}) below 4-truss"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_reference_on_figure1() {
        let (sub, q) = figure1_g0();
        for policy in [
            DeletePolicy::SingleFurthest,
            DeletePolicy::BulkAtLeast,
            DeletePolicy::LocalGreedy,
        ] {
            let fast = peel(&sub.graph, &q, 4, policy, None);
            let slow = peel_reference(&sub.graph, &q, 4, policy, None);
            assert_eq!(fast.vertices, slow.vertices, "{policy:?}");
            assert_eq!(fast.edges, slow.edges, "{policy:?}");
            assert_eq!(fast.query_distance, slow.query_distance, "{policy:?}");
            assert_eq!(fast.iterations, slow.iterations, "{policy:?}");
        }
    }

    #[test]
    fn scratch_reuse_across_heterogeneous_calls() {
        // One scratch, many graphs/queries/policies: every call must be
        // indistinguishable from a fresh-scratch run.
        let (sub, q) = figure1_g0();
        let k4 = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut scratch = PeelScratch::new();
        for _ in 0..3 {
            for policy in [
                DeletePolicy::SingleFurthest,
                DeletePolicy::BulkAtLeast,
                DeletePolicy::LocalGreedy,
            ] {
                let warm = peel_with(&sub.graph, &q, 4, policy, None, &mut scratch);
                let cold = peel(&sub.graph, &q, 4, policy, None);
                assert_eq!(warm.vertices, cold.vertices, "{policy:?}");
                assert_eq!(warm.edges, cold.edges, "{policy:?}");
            }
            let w = peel_with(
                &k4,
                &[VertexId(0)],
                4,
                DeletePolicy::SingleFurthest,
                None,
                &mut scratch,
            );
            assert_eq!(w.vertices.len(), 4);
        }
    }

    /// Lemma 6 audit: the BulkDelete threshold is defined on the *current*
    /// round's graph query distance `d`, not on the best distance seen so
    /// far. The two diverge whenever peeling makes the graph momentarily
    /// worse (`d_graph > best_dist`): a best-so-far threshold would then
    /// be too low and delete whole extra layers.
    #[test]
    fn bulk_threshold_uses_current_round_distance() {
        let alive: Vec<VertexId> = (0..6u32).map(VertexId::from).collect();
        // Synthetic mid-peel state: best_dist (min over snapshots) was 3,
        // but the current snapshot's d_graph is 5.
        let dist_max = [0u32, 1, 2, 3, 4, 5];
        let dist_sum: Vec<u64> = dist_max.iter().map(|&d| d as u64).collect();
        let mut victims = Vec::new();
        select_victims(
            DeletePolicy::BulkAtLeast,
            5, // current-round d_graph — the Lemma 6 threshold base
            alive.iter().copied(),
            &dist_max,
            &dist_sum,
            &mut victims,
        );
        assert_eq!(
            victims,
            vec![VertexId(4), VertexId(5)],
            "threshold d−1 = 4 keeps the dist-3 vertex a best-so-far \
             threshold (3−1 = 2) would have over-deleted"
        );
        // LocalGreedy's L' = {u : dist ≥ d} likewise keys on the current d.
        select_victims(
            DeletePolicy::LocalGreedy,
            5,
            alive.iter().copied(),
            &dist_max,
            &dist_sum,
            &mut victims,
        );
        assert_eq!(victims, vec![VertexId(5)]);
    }
}
