//! Truss decomposition: compute the trussness of every edge.
//!
//! Implements the in-memory peeling algorithm of Wang & Cheng (PVLDB'12,
//! the paper's \[29\]): repeatedly remove the edge of minimum support,
//! assigning it trussness `sup + 2`, and decrement the supports of the two
//! other edges of each triangle it closed. A bucket queue keyed by support
//! gives `O(1)` re-prioritization, for `O(m^{1.5})` total time.
//!
//! [`truss_decomposition_par`] is the multi-core variant: instead of one
//! edge at a time, it peels whole same-trussness *frontiers* — every live
//! edge whose support has fallen to `k − 2` — concurrently, in the style of
//! the PKT algorithm (Kabir & Madduri, HPEC'17). Trussness is a
//! well-defined function of the graph, so both paths produce byte-identical
//! arrays; the serial path remains the correctness oracle for the parallel
//! one.

use ctc_graph::{
    edge_supports, edge_supports_par, BitsetAdjacency, BitsetBuffers, CsrGraph, DynGraph, EdgeId,
    Parallelism, VertexId, DEFAULT_DENSE_DEGREE,
};
use std::sync::atomic::{AtomicU32, Ordering};

/// The result of a truss decomposition.
#[derive(Clone, Debug)]
pub struct TrussDecomposition {
    /// `edge_truss[e]` = trussness of edge `e` (≥ 2).
    pub edge_truss: Vec<u32>,
    /// Maximum edge trussness, `τ̄(∅)` in the paper (2 for triangle-free
    /// graphs with at least one edge, 0 for edgeless graphs).
    pub max_truss: u32,
}

impl TrussDecomposition {
    /// Trussness of edge `e`.
    #[inline]
    pub fn truss(&self, e: EdgeId) -> u32 {
        self.edge_truss[e.index()]
    }

    /// Vertex trussness `τ(v) = max` incident edge trussness (0 if
    /// isolated).
    pub fn vertex_truss(&self, g: &CsrGraph, v: VertexId) -> u32 {
        g.neighbor_edge_ids(v)
            .iter()
            .map(|&e| self.edge_truss[e as usize])
            .max()
            .unwrap_or(0)
    }

    /// Vertex trussness for every vertex.
    pub fn vertex_truss_all(&self, g: &CsrGraph) -> Vec<u32> {
        (0..g.num_vertices())
            .map(|v| self.vertex_truss(g, VertexId::from(v)))
            .collect()
    }
}

/// Bucket queue over edges keyed by current support.
///
/// `sorted` holds all edge ids ordered by support; `pos[e]` locates an edge;
/// `bin_start[s]` is the first index of the bucket with support `s`.
/// Decrementing an edge's support swaps it with the first element of its
/// bucket — the classic O(1) trick from k-core decomposition.
#[derive(Clone, Debug, Default)]
struct SupportBuckets {
    sorted: Vec<u32>,
    pos: Vec<u32>,
    bin_start: Vec<u32>,
    sup: Vec<u32>,
    cursor: Vec<u32>,
}

impl SupportBuckets {
    /// Rebuilds the bucket queue for `sup`, reusing pooled capacity.
    fn reset_from(&mut self, sup: &[u32]) {
        let m = sup.len();
        self.sup.clear();
        self.sup.extend_from_slice(sup);
        let max_sup = sup.iter().copied().max().unwrap_or(0) as usize;
        self.bin_start.clear();
        self.bin_start.resize(max_sup + 2, 0);
        for &s in sup {
            self.bin_start[s as usize] += 1;
        }
        let mut acc = 0u32;
        for slot in self.bin_start.iter_mut() {
            let c = *slot;
            *slot = acc;
            acc += c;
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.bin_start);
        self.sorted.clear();
        self.sorted.resize(m, 0);
        self.pos.clear();
        self.pos.resize(m, 0);
        for (e, &s) in sup.iter().enumerate() {
            let p = self.cursor[s as usize];
            self.sorted[p as usize] = e as u32;
            self.pos[e] = p;
            self.cursor[s as usize] += 1;
        }
    }

    /// Decrements `e`'s support by one, keeping buckets valid. Must only be
    /// called when `sup[e] > floor` for the current processing frontier.
    fn decrement(&mut self, e: u32) {
        let s = self.sup[e as usize];
        debug_assert!(s > 0);
        let p = self.pos[e as usize];
        let first = self.bin_start[s as usize];
        // Swap e with the first edge of its bucket, then shrink the bucket.
        let other = self.sorted[first as usize];
        self.sorted.swap(first as usize, p as usize);
        self.pos[e as usize] = first;
        self.pos[other as usize] = p;
        self.bin_start[s as usize] = first + 1;
        self.sup[e as usize] = s - 1;
    }
}

/// Pooled working memory for [`truss_decomposition_with`]: the bitset
/// adjacency slab, the flat triangle pre-index, the `peeled` flags, and the
/// bucket-queue arrays. One scratch serves any number of decompositions;
/// a warmed scratch makes repeated per-query decompositions (LCTC's locate
/// phase) allocation-free.
#[derive(Clone, Debug, Default)]
pub struct DecomposeScratch {
    bitset: BitsetBuffers,
    sup: Vec<u32>,
    tri_start: Vec<u32>,
    tri: Vec<u32>,
    peeled: Vec<bool>,
    touched: Vec<u32>,
    buckets: SupportBuckets,
    /// Lazy bucket queue for the pre-index peel: `lazy[s]` holds edges whose
    /// support last *became* `s`; stale entries are skipped on pop.
    lazy: Vec<Vec<u32>>,
}

impl DecomposeScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Ceiling on the triangle pre-index size, in (edge, edge) slot pairs.
/// Graphs whose triangle mass exceeds it fall back to the DynGraph merge
/// loop rather than materializing a huge flat index.
fn pre_index_cap_pairs(m: usize) -> u64 {
    (32 * m as u64).max(1 << 20)
}

/// Runs the truss decomposition on `g`.
pub fn truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    truss_decomposition_with(g, &mut DecomposeScratch::new())
}

/// Runs the truss decomposition on `g` using pooled `scratch` buffers.
///
/// Identical output to [`truss_decomposition`] (which delegates here with a
/// fresh scratch). The hot path replaces the per-edge adjacency merges of
/// the classic peel with a flat *triangle pre-index*: one bitset-kernel
/// sweep lists every triangle's other two edge ids into per-edge slots, and
/// the peel loop then touches only those slots, skipping triangles already
/// broken by a `peeled` flag — no deletion overlay, no merges. Graphs whose
/// triangle mass exceeds the pre-index cap use the classic
/// [`DynGraph`] merge peel instead (same answers, bounded memory).
pub fn truss_decomposition_with(
    g: &CsrGraph,
    scratch: &mut DecomposeScratch,
) -> TrussDecomposition {
    let m = g.num_edges();
    let mut edge_truss = vec![0u32; m];
    if m == 0 {
        return TrussDecomposition {
            edge_truss,
            max_truss: 0,
        };
    }
    let adj =
        BitsetAdjacency::build_in(g, DEFAULT_DENSE_DEGREE, std::mem::take(&mut scratch.bitset));
    // Pass 1: per-edge supports via the intersection kernel (identical to
    // `edge_supports`); their sum is the triangle-slot budget.
    scratch.sup.clear();
    scratch.sup.reserve(m);
    let mut total_pairs = 0u64;
    for (_, u, v) in g.edges() {
        let s = adj.intersection_count(g, u, v);
        total_pairs += s as u64;
        scratch.sup.push(s);
    }
    let use_pre_index = total_pairs <= pre_index_cap_pairs(m) && total_pairs * 2 <= u32::MAX as u64;
    let mut max_truss = 2u32;
    if use_pre_index {
        // Pass 2: flatten every triangle into its owning edge's slot range.
        // Edges are visited in id order and the kernel emits common
        // neighbors in ascending order, so slots are filled sequentially.
        scratch.tri_start.clear();
        scratch.tri_start.reserve(m + 1);
        let mut off = 0u32;
        for &s in &scratch.sup {
            scratch.tri_start.push(off);
            off += 2 * s;
        }
        scratch.tri_start.push(off);
        scratch.tri.clear();
        scratch.tri.reserve(off as usize);
        let tri = &mut scratch.tri;
        for (_, u, v) in g.edges() {
            adj.for_each_common(g, u, v, 0, |_, euw, evw| {
                tri.push(euw.0);
                tri.push(evw.0);
            });
        }
        debug_assert_eq!(scratch.tri.len(), off as usize);
        scratch.peeled.clear();
        scratch.peeled.resize(m, false);
        // Lazy bucket peel: a decrement is one store plus one push — no
        // positional swap maintenance. `lazy[s]` may hold stale entries
        // (the edge moved on or was peeled); the pop re-checks `sup`.
        // Trussness is a confluent fixpoint of the peel, so the different
        // within-level order cannot change any output value.
        let max_sup = scratch.sup.iter().copied().max().unwrap_or(0) as usize;
        for bucket in scratch.lazy.iter_mut() {
            bucket.clear();
        }
        if scratch.lazy.len() <= max_sup {
            scratch.lazy.resize_with(max_sup + 1, Vec::new);
        }
        for (e, &s) in scratch.sup.iter().enumerate() {
            scratch.lazy[s as usize].push(e as u32);
        }
        for k in 0..=max_sup {
            let mut i = 0;
            while i < scratch.lazy[k].len() {
                let e = scratch.lazy[k][i] as usize;
                i += 1;
                if scratch.peeled[e] || scratch.sup[e] as usize != k {
                    continue; // stale entry: the edge moved on or is gone
                }
                scratch.peeled[e] = true;
                let truss = k as u32 + 2;
                edge_truss[e] = truss;
                max_truss = max_truss.max(truss);
                // A triangle survives iff neither of its other two edges
                // has been peeled — exactly the aliveness the deletion
                // overlay's merge used to test. Supports never drop below
                // the current level (the old `k_floor` clamp).
                let (a, b) = (
                    scratch.tri_start[e] as usize,
                    scratch.tri_start[e + 1] as usize,
                );
                for pair in scratch.tri[a..b].chunks_exact(2) {
                    let (e1, e2) = (pair[0] as usize, pair[1] as usize);
                    if scratch.peeled[e1] || scratch.peeled[e2] {
                        continue;
                    }
                    for f in [e1, e2] {
                        if scratch.sup[f] as usize > k {
                            scratch.sup[f] -= 1;
                            scratch.lazy[scratch.sup[f] as usize].push(f as u32);
                        }
                    }
                }
            }
            scratch.lazy[k].clear();
        }
    } else {
        scratch.buckets.reset_from(&scratch.sup);
        // Peel edges in ascending current-support order. `k_floor` tracks
        // the highest support seen at removal time; supports of later edges
        // are clamped to it implicitly because `decrement` is skipped when
        // a neighbor edge's support has already fallen to the frontier.
        let mut k_floor = 0u32;
        let buckets = &mut scratch.buckets;
        let mut live = DynGraph::new(g);
        let touched = &mut scratch.touched;
        for i in 0..m {
            let e = EdgeId(buckets.sorted[i]);
            let s = buckets.sup[e.index()];
            k_floor = k_floor.max(s);
            let truss = k_floor + 2;
            edge_truss[e.index()] = truss;
            max_truss = max_truss.max(truss);
            let (u, v) = g.edge_endpoints(e);
            // Collect first: decrementing re-orders the bucket arrays, which
            // must not race with the common-neighbor merge borrowing `live`.
            touched.clear();
            live.for_each_common_neighbor(u, v, |_, euw, evw| {
                touched.push(euw.0);
                touched.push(evw.0);
            });
            for &f in touched.iter() {
                if buckets.sup[f as usize] > k_floor {
                    buckets.decrement(f);
                }
            }
            live.remove_edge(e);
        }
    }
    scratch.bitset = adj.into_buffers();
    TrussDecomposition {
        edge_truss,
        max_truss,
    }
}

// Edge lifecycle states of the parallel peeling. Transitions are
// LIVE → NEXT (support fell to the frontier threshold mid-cascade),
// NEXT → CURR (promoted when its sub-round starts), CURR → DEAD (peeled);
// the initial per-level scan promotes LIVE → CURR directly.
const LIVE: u32 = 0;
const CURR: u32 = 1;
const NEXT: u32 = 2;
const DEAD: u32 = 3;

/// Runs the truss decomposition on `g` across `par` worker threads,
/// peeling same-trussness frontiers concurrently.
///
/// For each level `k` the frontier is the set of live edges with support
/// `≤ k − 2`; every frontier edge is assigned trussness `k`, its surviving
/// triangles are unwound with atomic support decrements, and edges whose
/// support drops to the threshold join the next sub-round's frontier.
/// A triangle shared by two frontier edges is unwound exactly once (the
/// smaller edge id wins), mirroring the serial algorithm where the second
/// removal finds the triangle already broken.
///
/// `threads = 1` delegates to the serial [`truss_decomposition`]; any
/// thread count produces a byte-identical `edge_truss` array.
///
/// ```
/// use ctc_graph::{graph_from_edges, Parallelism};
/// use ctc_truss::{truss_decomposition, truss_decomposition_par};
///
/// let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
/// let serial = truss_decomposition(&g);
/// let parallel = truss_decomposition_par(&g, Parallelism::threads(4));
/// assert_eq!(serial.edge_truss, parallel.edge_truss);
/// ```
pub fn truss_decomposition_par(g: &CsrGraph, par: Parallelism) -> TrussDecomposition {
    if par.is_serial() {
        return truss_decomposition(g);
    }
    let m = g.num_edges();
    let mut edge_truss = vec![0u32; m];
    if m == 0 {
        return TrussDecomposition {
            edge_truss,
            max_truss: 0,
        };
    }
    let sup: Vec<AtomicU32> = edge_supports_par(g, par)
        .into_iter()
        .map(AtomicU32::new)
        .collect();
    let state: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(LIVE)).collect();
    let mut live: Vec<u32> = (0..m as u32).collect();
    let mut remaining = m;
    let mut max_truss = 2u32;
    let mut k = 2u32;
    while remaining > 0 {
        live.retain(|&e| state[e as usize].load(Ordering::Relaxed) != DEAD);
        let mut frontier: Vec<u32> = Vec::new();
        for &e in &live {
            if sup[e as usize].load(Ordering::Relaxed) + 2 <= k {
                state[e as usize].store(CURR, Ordering::Relaxed);
                frontier.push(e);
            }
        }
        while !frontier.is_empty() {
            remaining -= frontier.len();
            max_truss = max_truss.max(k);
            for &e in &frontier {
                edge_truss[e as usize] = k;
            }
            // Unwind the frontier's triangles in parallel. Workers only
            // read CURR/DEAD states (both frozen for the whole sub-round),
            // so the racy LIVE → NEXT transitions never change a decrement
            // decision — only which worker first schedules an edge.
            let scheduled: Vec<Vec<u32>> = par.map_chunks(frontier.len(), |range| {
                let mut local_next: Vec<u32> = Vec::new();
                let decrement = |f: u32, out: &mut Vec<u32>| {
                    let prev = sup[f as usize].fetch_sub(1, Ordering::Relaxed);
                    debug_assert!(prev > 0, "support underflow on edge {f}");
                    if prev - 1 + 2 <= k
                        && state[f as usize]
                            .compare_exchange(LIVE, NEXT, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        out.push(f);
                    }
                };
                for &e in &frontier[range] {
                    let (u, v) = g.edge_endpoints(EdgeId(e));
                    let (ru, eu) = (g.neighbors(u), g.neighbor_edge_ids(u));
                    let (rv, ev) = (g.neighbors(v), g.neighbor_edge_ids(v));
                    let (mut i, mut j) = (0usize, 0usize);
                    while i < ru.len() && j < rv.len() {
                        if ru[i] < rv[j] {
                            i += 1;
                        } else if rv[j] < ru[i] {
                            j += 1;
                        } else {
                            let (e1, e2) = (eu[i], ev[j]);
                            let s1 = state[e1 as usize].load(Ordering::Relaxed);
                            let s2 = state[e2 as usize].load(Ordering::Relaxed);
                            if s1 != DEAD && s2 != DEAD {
                                match (s1 == CURR, s2 == CURR) {
                                    // Both peers outlive this sub-round:
                                    // the triangle dies with e alone.
                                    (false, false) => {
                                        decrement(e1, &mut local_next);
                                        decrement(e2, &mut local_next);
                                    }
                                    // A frontier peer shares the triangle:
                                    // exactly one of the two unwinds it.
                                    (true, false) => {
                                        if e < e1 {
                                            decrement(e2, &mut local_next);
                                        }
                                    }
                                    (false, true) => {
                                        if e < e2 {
                                            decrement(e1, &mut local_next);
                                        }
                                    }
                                    // Whole triangle is being peeled now.
                                    (true, true) => {}
                                }
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
                local_next
            });
            for &e in &frontier {
                state[e as usize].store(DEAD, Ordering::Relaxed);
            }
            frontier = scheduled.concat();
            for &e in &frontier {
                state[e as usize].store(CURR, Ordering::Relaxed);
            }
        }
        k += 1;
    }
    TrussDecomposition {
        edge_truss,
        max_truss,
    }
}

/// Trussness of a *standalone* graph: `2 + min edge support` (Def. 2),
/// or 0 when the graph has no edges.
pub fn graph_trussness(g: &CsrGraph) -> u32 {
    if g.num_edges() == 0 {
        return 0;
    }
    2 + edge_supports(g).iter().copied().min().unwrap_or(0)
}

/// `true` if every edge of `g` has support ≥ `k − 2` within `g`.
pub fn is_k_truss(g: &CsrGraph, k: u32) -> bool {
    if g.num_edges() == 0 {
        return true; // vacuously: no edge violates the bound
    }
    edge_supports(g).iter().all(|&s| s + 2 >= k)
}

/// Reference decomposition used as a test oracle: repeatedly strip edges of
/// support `< k − 2` for increasing `k`. O(m²)-ish; test-only.
pub fn naive_truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    let m = g.num_edges();
    let mut edge_truss = vec![0u32; m];
    if m == 0 {
        return TrussDecomposition {
            edge_truss,
            max_truss: 0,
        };
    }
    let mut live = DynGraph::new(g);
    let mut k = 2u32;
    let mut max_truss = 2u32;
    while live.num_alive_edges() > 0 {
        loop {
            let doomed: Vec<EdgeId> = live
                .alive_edges()
                .filter(|&(_, u, v)| {
                    let mut c = 0u32;
                    live.for_each_common_neighbor(u, v, |_, _, _| c += 1);
                    c + 2 < k + 1 // support < k-1, i.e. not in the (k+1)-truss
                })
                .map(|(e, _, _)| e)
                .collect();
            if doomed.is_empty() {
                break;
            }
            for e in doomed {
                if live.is_edge_alive(e) {
                    edge_truss[e.index()] = k;
                    max_truss = max_truss.max(k);
                    live.remove_edge(e);
                }
            }
        }
        k += 1;
    }
    TrussDecomposition {
        edge_truss,
        max_truss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_graph::graph_from_edges;

    #[test]
    fn k4_is_a_4_truss() {
        let g = graph_from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let d = truss_decomposition(&g);
        assert!(d.edge_truss.iter().all(|&t| t == 4));
        assert_eq!(d.max_truss, 4);
        assert_eq!(graph_trussness(&g), 4);
        assert!(is_k_truss(&g, 4));
        assert!(!is_k_truss(&g, 5));
    }

    #[test]
    fn triangle_free_graph_is_all_2() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let d = truss_decomposition(&g);
        assert!(d.edge_truss.iter().all(|&t| t == 2));
        assert_eq!(d.max_truss, 2);
    }

    #[test]
    fn pendant_edge_on_triangle() {
        // Triangle {0,1,2} plus pendant 2-3: triangle edges τ=3, pendant τ=2.
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let d = truss_decomposition(&g);
        let pendant = g.edge_between(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.truss(pendant), 2);
        for (e, _, _) in g.edges() {
            if e != pendant {
                assert_eq!(d.truss(e), 3);
            }
        }
        assert_eq!(d.vertex_truss(&g, VertexId(2)), 3);
        assert_eq!(d.vertex_truss(&g, VertexId(3)), 2);
    }

    #[test]
    fn paper_example_support_vs_truss() {
        // §2: τ(e(q2,v2)) = 4 even though sup(e) = 3 in G. Figure 1 graph.
        let g = crate::fixtures::figure1_graph();
        let f = crate::fixtures::Figure1Ids::default();
        let d = truss_decomposition(&g);
        let e = g.edge_between(f.q2, f.v2).unwrap();
        assert_eq!(ctc_graph::support_of(&g, f.q2, f.v2), Some(3));
        assert_eq!(d.truss(e), 4);
        // Whole grey region is a 4-truss; t's edges are trussness 2.
        let et1 = g.edge_between(f.q1, f.t).unwrap();
        let et2 = g.edge_between(f.t, f.q3).unwrap();
        assert_eq!(d.truss(et1), 2);
        assert_eq!(d.truss(et2), 2);
        assert_eq!(d.max_truss, 4);
        assert_eq!(d.vertex_truss(&g, f.q2), 4);
    }

    #[test]
    fn matches_naive_oracle_on_mixed_graph() {
        let g = graph_from_edges(&[
            // K5 on 0..5 → 5-truss
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            // triangle hanging off vertex 4
            (4, 5),
            (5, 6),
            (4, 6),
            // chain
            (6, 7),
            (7, 8),
        ]);
        let fast = truss_decomposition(&g);
        let slow = naive_truss_decomposition(&g);
        assert_eq!(fast.edge_truss, slow.edge_truss);
        assert_eq!(fast.max_truss, 5);
    }

    #[test]
    fn empty_graph() {
        let g = graph_from_edges(&[]);
        let d = truss_decomposition(&g);
        assert_eq!(d.max_truss, 0);
        assert_eq!(graph_trussness(&g), 0);
        assert!(is_k_truss(&g, 99));
    }

    /// The parallel frontier peeling must agree with the serial bucket
    /// peeling byte for byte on every fixture, at several thread counts.
    #[test]
    fn parallel_matches_serial_on_all_fixtures() {
        let graphs: Vec<(&str, CsrGraph)> = vec![
            ("figure1", crate::fixtures::figure1_graph()),
            ("figure4", crate::fixtures::figure4_graph()),
            ("k4", crate::fixtures::clique(4)),
            ("k7", crate::fixtures::clique(7)),
            ("c4", graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)])),
            ("single_edge", graph_from_edges(&[(0, 1)])),
            ("empty", graph_from_edges(&[])),
            (
                "mixed",
                graph_from_edges(&[
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (0, 4),
                    (1, 2),
                    (1, 3),
                    (1, 4),
                    (2, 3),
                    (2, 4),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (4, 6),
                    (6, 7),
                    (7, 8),
                ]),
            ),
        ];
        for (name, g) in &graphs {
            let serial = truss_decomposition(g);
            for threads in [2usize, 4, 8] {
                let par = truss_decomposition_par(g, Parallelism::threads(threads));
                assert_eq!(
                    par.edge_truss, serial.edge_truss,
                    "{name} diverged at threads={threads}"
                );
                assert_eq!(par.max_truss, serial.max_truss, "{name} max_truss");
            }
        }
    }

    #[test]
    fn parallel_with_one_thread_is_the_serial_path() {
        let g = crate::fixtures::figure1_graph();
        let serial = truss_decomposition(&g);
        let one = truss_decomposition_par(&g, Parallelism::serial());
        assert_eq!(one.edge_truss, serial.edge_truss);
        assert_eq!(one.max_truss, serial.max_truss);
    }

    #[test]
    fn two_overlapping_k4s_share_peel_level() {
        // Two K4s sharing an edge: the shared edge has higher support but
        // still trussness 4 (no 5-truss exists).
        let g = graph_from_edges(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
        ]);
        let d = truss_decomposition(&g);
        assert_eq!(d.max_truss, 4);
        let shared = g.edge_between(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(d.truss(shared), 4);
    }

    /// K_130 is the smallest clique whose triangle slots exceed the
    /// pre-index cap (8385 edges × 128 = 1,073,280 > 2^20), so both graphs
    /// here take the `DynGraph` merge peel: the clique alone, then with a
    /// pendant edge, a triangle and a K4 hung off clique vertex 0.
    #[test]
    fn merge_fallback_past_the_pre_index_cap() {
        let clique = crate::fixtures::clique(130);
        let mut edges: Vec<(u32, u32)> = clique.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let alone = graph_from_edges(&edges);
        edges.extend([(0, 130), (0, 131), (0, 132), (131, 132)]);
        edges.extend([
            (0, 133),
            (0, 134),
            (0, 135),
            (133, 134),
            (133, 135),
            (134, 135),
        ]);
        let hung = graph_from_edges(&edges);
        for (name, g) in [("K130", &alone), ("K130 + hangers", &hung)] {
            let slots: u64 = edge_supports(g).iter().map(|&s| u64::from(s)).sum();
            assert!(
                slots > pre_index_cap_pairs(g.num_edges()),
                "{name}: {slots} triangle slots no longer exceed the pre-index cap"
            );
            let d = truss_decomposition(g);
            let par = truss_decomposition_par(g, Parallelism::threads(2));
            assert_eq!(d.edge_truss, par.edge_truss, "{name}: serial vs parallel");
            assert_eq!(d.max_truss, 130, "{name}");
            for (e, u, v) in g.edges() {
                let want = match u.0.max(v.0) {
                    0..=129 => 130,
                    130 => 2,
                    131 | 132 => 3,
                    _ => 4,
                };
                assert_eq!(d.truss(e), want, "{name}: edge ({u}, {v})");
            }
        }
    }
}
