//! Truss decomposition: compute the trussness of every edge.
//!
//! Implements the in-memory peeling algorithm of Wang & Cheng (PVLDB'12,
//! the paper's \[29\]): repeatedly remove the edge of minimum support,
//! assigning it trussness `sup + 2`, and decrement the supports of the two
//! other edges of each triangle it closed. A bucket queue keyed by support
//! gives `O(1)` re-prioritization, for `O(m^{1.5})` total time.
//!
//! It counts supports with the workspace's one triangle kernel, the
//! *degree-oriented* walk of [`ctc_graph::Oriented`], as the forward
//! triangle-listing algorithm does: each edge is kept once, at its
//! endpoint of lower `(degree, id)` rank, so a walk over the oriented rows
//! meets each triangle exactly once, from its lowest-ranked vertex. The
//! peel then finds the triangles a removed edge breaks in whichever
//! structure holds the fewest bytes for the graph at hand: a live
//! adjacency bit matrix (small dense graphs, such as LCTC's local `Gt`),
//! a flat triangle pre-index that a second walk fills, or, past a size
//! cap, row merges over a deletion overlay.
//!
//! [`truss_decomposition_par`] is a test oracle, not a build path: it
//! peels whole same-trussness *frontiers* — every live edge whose support
//! has fallen to `k − 2` — concurrently, in the style of the PKT algorithm
//! (Kabir & Madduri, HPEC'17), counting and unwinding triangles with
//! sorted-row merges. Trussness is a well-defined function of the graph,
//! so both produce byte-identical arrays; they share no triangle-finding
//! code, so each checks the other.

use ctc_graph::{
    edge_supports, for_each_common_neighbor, vec_heap_bytes, CsrGraph, DynGraph, EdgeId, Oriented,
    Parallelism, VertexId,
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
    /// Current support per edge; the oriented count writes it directly.
    sup: Vec<u32>,
    cursor: Vec<u32>,
}

impl SupportBuckets {
    fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.sorted)
            + vec_heap_bytes(&self.pos)
            + vec_heap_bytes(&self.bin_start)
            + vec_heap_bytes(&self.sup)
            + vec_heap_bytes(&self.cursor)
    }

    /// Buckets the edges by the supports in `sup`, reusing pooled
    /// capacity.
    fn arm(&mut self) {
        let Self {
            sorted,
            pos,
            bin_start,
            sup,
            cursor,
        } = self;
        let m = sup.len();
        let max_sup = sup.iter().copied().max().unwrap_or(0) as usize;
        bin_start.clear();
        bin_start.resize(max_sup + 2, 0);
        for &s in sup.iter() {
            bin_start[s as usize] += 1;
        }
        let mut acc = 0u32;
        for slot in bin_start.iter_mut() {
            let c = *slot;
            *slot = acc;
            acc += c;
        }
        cursor.clear();
        cursor.extend_from_slice(bin_start);
        sorted.clear();
        sorted.resize(m, 0);
        pos.clear();
        pos.resize(m, 0);
        for (e, &s) in sup.iter().enumerate() {
            let p = cursor[s as usize];
            sorted[p as usize] = e as u32;
            pos[e] = p;
            cursor[s as usize] += 1;
        }
    }

    /// Decrements `e`'s support by one unless it has already fallen to
    /// `floor`, the level being peeled: supports never drop below it, and
    /// the edges at or below it are the ones the peel still has to pop at
    /// this level. Swaps `e` to the front of its bucket, which then
    /// shrinks by one, so every bucket above `floor` stays valid.
    fn decrement_above(&mut self, e: u32, floor: u32) {
        let s = self.sup[e as usize];
        if s <= floor {
            return;
        }
        let p = self.pos[e as usize];
        let first = self.bin_start[s as usize];
        let other = self.sorted[first as usize];
        self.sorted.swap(first as usize, p as usize);
        self.pos[e as usize] = first;
        self.pos[other as usize] = p;
        self.bin_start[s as usize] = first + 1;
        self.sup[e as usize] = s - 1;
    }

    /// Pops every edge in ascending current support and assigns it
    /// trussness `floor + 2`, where `floor` is the largest support popped
    /// so far. `unwind(self, e, floor)` then decrements the other two
    /// edges of each triangle that the removal of `e` breaks. Returns the
    /// largest trussness assigned.
    fn peel(&mut self, edge_truss: &mut [u32], mut unwind: impl FnMut(&mut Self, u32, u32)) -> u32 {
        let mut floor = 0u32;
        for i in 0..self.sorted.len() {
            let e = self.sorted[i];
            floor = floor.max(self.sup[e as usize]);
            edge_truss[e as usize] = floor + 2;
            unwind(self, e, floor);
        }
        floor + 2
    }
}

/// Adjacency bit matrix for the peel of a small dense graph: one row of
/// `⌈n/64⌉` words per vertex, twice over. The static rows never change
/// and, with a rank prefix per word (the popcount of the row's earlier
/// words), give a neighbor's position in its CSR row, and so its edge id.
/// The live rows lose an edge's two bits when it peels, so the AND of two
/// live rows lists exactly the triangles still standing on an edge.
#[derive(Clone, Debug, Default)]
struct LiveMatrix {
    /// Words per row.
    width: usize,
    fixed: Vec<u64>,
    live: Vec<u64>,
    rank: Vec<u32>,
}

impl LiveMatrix {
    /// Bytes the matrix holds for an `n`-vertex graph: static and live
    /// `u64` rows plus a `u32` rank prefix per word.
    fn bytes(n: usize) -> u64 {
        20 * n as u64 * n.div_ceil(64) as u64
    }

    fn heap_bytes(&self) -> usize {
        vec_heap_bytes(&self.fixed) + vec_heap_bytes(&self.live) + vec_heap_bytes(&self.rank)
    }

    /// Lays out `g`'s rows, reusing pooled capacity.
    fn build(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        let width = n.div_ceil(64);
        let words = n * width;
        self.width = width;
        self.fixed.clear();
        self.fixed.reserve_exact(words);
        self.fixed.resize(words, 0);
        for (u, row) in self.fixed.chunks_exact_mut(width).enumerate() {
            for &v in g.neighbors(VertexId(u as u32)) {
                row[v as usize >> 6] |= 1u64 << (v & 63);
            }
        }
        self.live.clear();
        self.live.reserve_exact(words);
        self.live.extend_from_slice(&self.fixed);
        self.rank.clear();
        self.rank.reserve_exact(words);
        for row in self.fixed.chunks_exact(width) {
            let mut below = 0u32;
            for &word in row {
                self.rank.push(below);
                below += word.count_ones();
            }
        }
    }

    /// Unwinds the triangles on the live edge `e = {u, v}` and clears its
    /// two bits. CSR rows are ascending, so `w`'s position in `u`'s row
    /// is the rank prefix of its word plus the static bits below it.
    fn unwind(&mut self, g: &CsrGraph, buckets: &mut SupportBuckets, e: u32, floor: u32) {
        let (u, v) = g.edge_endpoints(EdgeId(e));
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        let (eu, ev) = (g.neighbor_edge_ids(u), g.neighbor_edge_ids(v));
        let (ru, rv) = (u.index() * self.width, v.index() * self.width);
        // Only the words both static rows span can hold a common neighbor.
        let lo = nu[0].max(nv[0]) as usize >> 6;
        let hi = nu[nu.len() - 1].min(nv[nv.len() - 1]) as usize >> 6;
        for i in lo..=hi {
            let mut common = self.live[ru + i] & self.live[rv + i];
            while common != 0 {
                let below = (common & common.wrapping_neg()) - 1;
                common &= common - 1;
                let at = |r: usize| {
                    (self.rank[r + i] + (self.fixed[r + i] & below).count_ones()) as usize
                };
                buckets.decrement_above(eu[at(ru)], floor);
                buckets.decrement_above(ev[at(rv)], floor);
            }
        }
        self.live[ru + (v.index() >> 6)] &= !(1u64 << (v.0 & 63));
        self.live[rv + (u.index() >> 6)] &= !(1u64 << (u.0 & 63));
    }
}

/// How [`truss_decomposition_with`] finds the triangles a peeled edge
/// breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Peel {
    /// AND the endpoints' rows of a [`LiveMatrix`].
    Matrix,
    /// Read the edge's slots of the triangle pre-index.
    PreIndex,
    /// Merge the endpoints' rows over a [`DynGraph`] deletion overlay.
    Merge,
}

/// Ceiling on the triangle pre-index size, in (edge, edge) slot pairs.
/// At 8 bytes a pair it is also the byte budget of the live matrix;
/// graphs that fit neither fall back to the `DynGraph` merge peel rather
/// than materializing a huge structure.
fn pre_index_cap_pairs(m: usize) -> u64 {
    (32 * m as u64).max(1 << 20)
}

/// Picks the peel structure that holds the fewest bytes for a graph of
/// `n` vertices, `m` edges and `pairs = Σ sup` triangle slots: the live
/// matrix's `20·n·⌈n/64⌉` or the pre-index's `8·pairs + 4(m + 1)`, among
/// those within the cap.
fn choose_peel(n: usize, m: usize, pairs: u64) -> Peel {
    let cap = pre_index_cap_pairs(m);
    let pre_index = if pairs <= cap && 2 * pairs <= u64::from(u32::MAX) {
        8 * pairs + 4 * (m as u64 + 1)
    } else {
        u64::MAX
    };
    if LiveMatrix::bytes(n) <= pre_index.min(8 * cap) {
        Peel::Matrix
    } else if pre_index != u64::MAX {
        Peel::PreIndex
    } else {
        Peel::Merge
    }
}

/// Pooled working memory for [`truss_decomposition_with`]: the
/// degree-oriented adjacency and its marks, the bucket queue with the
/// per-edge supports, and whichever peel structure the graph took — the
/// live matrix, or the flat triangle pre-index with its `peeled` flags.
/// One scratch serves any number of decompositions; once warm on a
/// graph, a decomposition of that graph (LCTC's per-query one, say)
/// allocates only the trussness array it returns.
#[derive(Clone, Debug, Default)]
pub struct DecomposeScratch {
    oriented: Oriented,
    buckets: SupportBuckets,
    matrix: LiveMatrix,
    tri_start: Vec<u32>,
    tri: Vec<u32>,
    peeled: Vec<bool>,
}

impl DecomposeScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held (capacity of every buffer).
    pub fn heap_bytes(&self) -> usize {
        self.oriented.heap_bytes()
            + self.buckets.heap_bytes()
            + self.matrix.heap_bytes()
            + vec_heap_bytes(&self.tri_start)
            + vec_heap_bytes(&self.tri)
            + vec_heap_bytes(&self.peeled)
    }

    /// Counts the support of every edge of `g` into `sup` (equal to
    /// `edge_supports`) with one walk over the degree-oriented adjacency
    /// this scratch holds. The peel of `ctc-core` arms its truss
    /// maintainer from it.
    pub fn count_supports(&mut self, g: &CsrGraph, sup: &mut Vec<u32>) {
        self.oriented.build(g);
        self.oriented.count(sup);
    }
}

/// Runs the truss decomposition on `g`.
pub fn truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    truss_decomposition_with(g, &mut DecomposeScratch::new())
}

/// Runs the truss decomposition on `g` using pooled `scratch` buffers.
///
/// Identical output to [`truss_decomposition`] (which delegates here with a
/// fresh scratch). One walk over a degree-oriented adjacency counts the
/// supports, and the peel pops edges in ascending support from a bucket
/// queue. To find the triangles a popped edge breaks, it uses whichever
/// structure holds the fewest bytes: an adjacency bit matrix whose live
/// rows it ANDs (small dense graphs), or a flat *triangle pre-index* that
/// a second walk fills with the other two edge ids of each triangle, read
/// under a `peeled` flag. Graphs too large for both take the classic
/// [`DynGraph`] merge peel instead (same answers, bounded memory).
pub fn truss_decomposition_with(
    g: &CsrGraph,
    scratch: &mut DecomposeScratch,
) -> TrussDecomposition {
    decompose(g, scratch, None)
}

/// [`truss_decomposition_with`], taking `force`'s peel structure instead
/// of [`choose_peel`]'s when it is given.
fn decompose(
    g: &CsrGraph,
    scratch: &mut DecomposeScratch,
    force: Option<Peel>,
) -> TrussDecomposition {
    let m = g.num_edges();
    let mut edge_truss = vec![0u32; m];
    if m == 0 {
        return TrussDecomposition {
            edge_truss,
            max_truss: 0,
        };
    }
    let DecomposeScratch {
        oriented,
        buckets,
        matrix,
        tri_start,
        tri,
        peeled,
    } = scratch;
    oriented.build(g);
    oriented.count(&mut buckets.sup);
    let pairs = buckets.sup.iter().map(|&s| u64::from(s)).sum();
    let peel = force.unwrap_or_else(|| choose_peel(g.num_vertices(), m, pairs));
    buckets.arm();
    let max_truss = match peel {
        Peel::Matrix => {
            matrix.build(g);
            buckets.peel(&mut edge_truss, |b, e, floor| matrix.unwind(g, b, e, floor))
        }
        Peel::PreIndex => {
            oriented.fill(&buckets.sup, tri_start, tri);
            peeled.clear();
            peeled.resize(m, false);
            buckets.peel(&mut edge_truss, |b, e, floor| {
                peeled[e as usize] = true;
                let run = tri_start[e as usize] as usize..tri_start[e as usize + 1] as usize;
                // A triangle survives iff neither of its other two edges
                // has been peeled.
                for pair in tri[run].chunks_exact(2) {
                    if !peeled[pair[0] as usize] && !peeled[pair[1] as usize] {
                        b.decrement_above(pair[0], floor);
                        b.decrement_above(pair[1], floor);
                    }
                }
            })
        }
        Peel::Merge => {
            let mut live = DynGraph::new(g);
            buckets.peel(&mut edge_truss, |b, e, floor| {
                let (u, v) = g.edge_endpoints(EdgeId(e));
                live.for_each_common_neighbor(u, v, |_, euw, evw| {
                    b.decrement_above(euw.0, floor);
                    b.decrement_above(evw.0, floor);
                });
                live.remove_edge(EdgeId(e));
            })
        }
    };
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
/// peeling same-trussness frontiers concurrently: the oracle that
/// cross-checks [`truss_decomposition`] in the tests and in `ctc-cli
/// decompose --threads N`. No index build or search runs it.
///
/// The initial supports are counted by a row merge per edge, in `par`
/// chunks. For each level `k` the frontier is the set of live edges with
/// support `≤ k − 2`; every frontier edge is assigned trussness `k`, its
/// surviving triangles are unwound with atomic support decrements, and
/// edges whose support drops to the threshold join the next sub-round's
/// frontier. A triangle shared by two frontier edges is unwound exactly
/// once (the smaller edge id wins), mirroring the serial algorithm where
/// the second removal finds the triangle already broken.
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
    let sup: Vec<AtomicU32> = par
        .map_chunks(m, |range| {
            range
                .map(|e| {
                    let (u, v) = g.edge_endpoints(EdgeId(e as u32));
                    let mut s = 0;
                    for_each_common_neighbor(g, u, v, |_, _, _| s += 1);
                    AtomicU32::new(s)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
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
                    for_each_common_neighbor(g, u, v, |_, EdgeId(e1), EdgeId(e2)| {
                        let s1 = state[e1 as usize].load(Ordering::Relaxed);
                        let s2 = state[e2 as usize].load(Ordering::Relaxed);
                        if s1 == DEAD || s2 == DEAD {
                            return;
                        }
                        match (s1 == CURR, s2 == CURR) {
                            // Both peers outlive this sub-round: the
                            // triangle dies with e alone.
                            (false, false) => {
                                decrement(e1, &mut local_next);
                                decrement(e2, &mut local_next);
                            }
                            // A frontier peer shares the triangle: exactly
                            // one of the two unwinds it.
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
                    });
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

    /// Graphs for the per-pass checks: the paper's Figure 1, a clique, a
    /// star whose hub also sits in a K4 (the K4's other three vertices tie
    /// on degree, as do the two spokes a chord joins, so the orientation
    /// breaks those ties by id), and random samples on both sides of the
    /// pre-index cap. The dense ones exceed the cap and take the matrix;
    /// among the rest, the byte rule picks each structure at least once.
    fn pass_graphs() -> Vec<(&'static str, CsrGraph)> {
        use ctc_gen::random::{barabasi_albert, erdos_renyi_nm};
        let mut star = vec![(1, 2), (4, 9), (4, 10), (4, 11), (9, 10), (9, 11), (10, 11)];
        star.extend([0, 1, 2, 3, 5, 6, 7, 8].map(|s| (4, s)));
        let graphs = vec![
            ("figure1", crate::fixtures::figure1_graph()),
            ("k7", crate::fixtures::clique(7)),
            ("star+k4", graph_from_edges(&star)),
            ("er", erdos_renyi_nm(120, 900, 5)),
            ("ba", barabasi_albert(300, 4, 6)),
            ("dense er", erdos_renyi_nm(180, 13_000, 7)),
            ("dense ba", barabasi_albert(260, 80, 8)),
        ];
        for (name, g) in &graphs {
            let slots: u64 = edge_supports(g).iter().map(|&s| u64::from(s)).sum();
            let over = slots > pre_index_cap_pairs(g.num_edges());
            assert_eq!(over, name.starts_with("dense"), "{name}: {slots} slots");
        }
        let peels: Vec<Peel> = graphs.iter().map(|(_, g)| chosen_peel(g)).collect();
        assert!(peels.contains(&Peel::Matrix) && peels.contains(&Peel::PreIndex));
        graphs
    }

    /// The peel [`truss_decomposition_with`] takes for `g`.
    fn chosen_peel(g: &CsrGraph) -> Peel {
        let pairs = edge_supports(g).iter().map(|&s| u64::from(s)).sum();
        choose_peel(g.num_vertices(), g.num_edges(), pairs)
    }

    /// A full preset and LCTC-shaped local graphs cut from it: for each
    /// of `count` seeded query sets (|Q| = 3, top-80% degree rank,
    /// inter-distance 2), the ball of at most η = 1000 vertices that
    /// Algorithm 5's expansion grows from `Q` over edges of trussness
    /// ≥ `kt`, closed under those edges. `kt` is the level at which
    /// FindG0 connects `Q`, an upper bound on the trussness of the
    /// Steiner tree's weakest edge, which LCTC expands at.
    fn preset_cuts(name: &str, count: usize) -> (CsrGraph, Vec<CsrGraph>) {
        use ctc_gen::{network_by_name, DegreeRank, QueryGenerator};
        let g = network_by_name(name).expect("preset").data.graph;
        let idx = crate::TrussIndex::build(&g);
        let mut gen = QueryGenerator::new(&g, 11);
        let mut local = vec![u32::MAX; g.num_vertices()];
        let mut cuts = Vec::new();
        while cuts.len() < count {
            let q = gen.sample(3, DegreeRank::top(0.8), 2).expect("query set");
            let kt = crate::find_g0(&g, &idx, &q).expect("connected query").k;
            let mut picked: Vec<VertexId> = Vec::new();
            let mut head = 0;
            for v in q {
                if local[v.index()] == u32::MAX {
                    local[v.index()] = picked.len() as u32;
                    picked.push(v);
                }
            }
            while head < picked.len() && picked.len() < 1000 {
                let v = picked[head];
                head += 1;
                for (w, _, _) in idx.incident_at_least(v, kt) {
                    if picked.len() < 1000 && local[w.index()] == u32::MAX {
                        local[w.index()] = picked.len() as u32;
                        picked.push(w);
                    }
                }
            }
            let mut b = ctc_graph::GraphBuilder::new();
            b.ensure_vertices(picked.len());
            for (lu, &u) in picked.iter().enumerate() {
                for (w, _, _) in idx.incident_at_least(u, kt) {
                    if w > u && local[w.index()] != u32::MAX {
                        b.add_edge(lu as u32, local[w.index()]);
                    }
                }
            }
            for v in &picked {
                local[v.index()] = u32::MAX;
            }
            // LCTC's locate spends its decomposition on the full-η cuts.
            if picked.len() == 1000 {
                cuts.push(b.build());
            }
        }
        (g, cuts)
    }

    /// The local graphs the agreement test runs every peel on.
    fn local_graphs() -> Vec<(String, CsrGraph)> {
        let mut out = Vec::new();
        for name in ["facebook", "dblp"] {
            let (_, cuts) = preset_cuts(name, 2);
            out.extend(
                cuts.into_iter()
                    .enumerate()
                    .map(|(i, g)| (format!("{name} Gt {i}"), g)),
            );
        }
        out
    }

    /// Every peel structure, forced or chosen, assigns the trussness that
    /// PKT at 2 threads and the naive oracle agree on, through one
    /// scratch reused across graphs and structures. The naive oracle
    /// skips the two dense samples: it recounts every live edge's support
    /// each round, which takes half a minute on them in a debug build.
    #[test]
    fn every_peel_agrees_with_the_oracles() {
        let mut scratch = DecomposeScratch::new();
        let graphs = pass_graphs()
            .into_iter()
            .map(|(name, g)| (name.to_string(), g))
            .chain(local_graphs());
        for (name, g) in graphs {
            let pkt = truss_decomposition_par(&g, Parallelism::threads(2));
            if !name.starts_with("dense") {
                let naive = naive_truss_decomposition(&g);
                assert_eq!(naive.edge_truss, pkt.edge_truss, "{name}: naive vs PKT");
                assert_eq!(naive.max_truss, pkt.max_truss, "{name}: naive vs PKT");
            }
            for peel in [
                None,
                Some(Peel::Matrix),
                Some(Peel::PreIndex),
                Some(Peel::Merge),
            ] {
                let d = decompose(&g, &mut scratch, peel);
                assert_eq!(d.edge_truss, pkt.edge_truss, "{name}: {peel:?}");
                assert_eq!(d.max_truss, pkt.max_truss, "{name}: {peel:?}");
            }
        }
    }

    /// The byte rule on the presets ctcbench serves: fb's local graphs
    /// and full fb (dense) take the matrix; full dblp (32K vertices) and
    /// dblp's local graphs (sparse) keep the pre-index.
    #[test]
    fn byte_rule_picks_the_smaller_structure() {
        for (name, want) in [("facebook", Peel::Matrix), ("dblp", Peel::PreIndex)] {
            let (full, cuts) = preset_cuts(name, 3);
            assert_eq!(chosen_peel(&full), want, "full {name}");
            for (i, gt) in cuts.iter().enumerate() {
                assert_eq!(chosen_peel(gt), want, "{name} Gt {i}");
            }
        }
    }

    #[test]
    fn counted_supports_match_the_naive_supports() {
        let mut scratch = DecomposeScratch::new();
        let mut sup = vec![7; 3];
        for (name, g) in pass_graphs() {
            scratch.count_supports(&g, &mut sup);
            assert_eq!(sup, ctc_graph::triangles::naive_edge_supports(&g), "{name}");
        }
    }

    /// Each edge's slots hold one pair per triangle on it: the same
    /// triangles, by their other two edge ids, that a row merge of the
    /// edge's endpoints lists (pairs compared unordered, since a walk
    /// meets an edge from either endpoint).
    #[test]
    fn oriented_fill_matches_the_row_merge_listing() {
        let mut oriented = Oriented::default();
        let (mut sup, mut tri_start, mut tri) = (Vec::new(), Vec::new(), Vec::new());
        for (name, g) in pass_graphs() {
            oriented.build(&g);
            oriented.count(&mut sup);
            oriented.fill(&sup, &mut tri_start, &mut tri);
            assert_eq!(tri_start.len(), g.num_edges() + 1, "{name}");
            assert_eq!(tri_start[0], 0, "{name}");
            let unordered = |a: u32, b: u32| (a.min(b), a.max(b));
            for (e, u, v) in g.edges() {
                let (a, b) = (tri_start[e.index()], tri_start[e.index() + 1]);
                let mut got: Vec<_> = tri[a as usize..b as usize]
                    .chunks_exact(2)
                    .map(|p| unordered(p[0], p[1]))
                    .collect();
                let mut want = Vec::new();
                for_each_common_neighbor(&g, u, v, |_, euw, evw| {
                    want.push(unordered(euw.0, evw.0));
                });
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{name}: edge ({u}, {v})");
            }
        }
    }

    /// K_130 is the smallest clique whose triangle slots exceed the
    /// pre-index cap (8385 edges × 128 = 1,073,280 > 2^20); a path of
    /// 6000 vertices hung off clique vertex 0 makes its matrix (6130
    /// rows of 96 words, 11.8 MB) exceed the cap's 8 MiB too, so both
    /// graphs here take the `DynGraph` merge peel: the padded clique
    /// alone, then with a pendant edge, a triangle and a K4 hung off
    /// clique vertex 1.
    #[test]
    fn merge_fallback_past_the_pre_index_cap() {
        const PATH: u32 = 6000;
        let clique = crate::fixtures::clique(130);
        let mut edges: Vec<(u32, u32)> = clique.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        edges.push((0, 130));
        edges.extend((130..130 + PATH - 1).map(|v| (v, v + 1)));
        let alone = graph_from_edges(&edges);
        let x = 130 + PATH;
        edges.extend([(1, x), (1, x + 1), (1, x + 2), (x + 1, x + 2)]);
        edges.extend([
            (1, x + 3),
            (1, x + 4),
            (1, x + 5),
            (x + 3, x + 4),
            (x + 3, x + 5),
            (x + 4, x + 5),
        ]);
        let hung = graph_from_edges(&edges);
        for (name, g) in [("K130", &alone), ("K130 + hangers", &hung)] {
            assert_eq!(chosen_peel(g), Peel::Merge, "{name}");
            let d = truss_decomposition(g);
            let par = truss_decomposition_par(g, Parallelism::threads(2));
            assert_eq!(d.edge_truss, par.edge_truss, "{name}: serial vs parallel");
            assert_eq!(d.max_truss, 130, "{name}");
            for (e, u, v) in g.edges() {
                let want = match (u.0, v.0) {
                    (_, 0..=129) => 130,
                    (1, w) if w == x => 2,
                    (_, w) if w == x + 1 || w == x + 2 => 3,
                    (_, w) if w >= x + 3 => 4,
                    _ => 2,
                };
                assert_eq!(d.truss(e), want, "{name}: edge ({u}, {v})");
            }
        }
    }
}
