//! The high-level search API: one struct, one pipeline, four algorithms.
//!
//! [`CtcSearcher`] holds the truss index of a graph and runs the paper's
//! algorithm suite through one pipeline, [`CtcSearcher::search_with`]:
//! `basic` (Alg. 1, 2-approximation), `bulk_delete` (Alg. 4,
//! (2+ε)-approximation), `local` (Alg. 5, the LCTC heuristic) and
//! `truss_only` (the "Truss" baseline = bare `FindG0`) each pick an
//! [`SearchAlgo`] and call it.

use crate::config::CtcConfig;
use crate::engine::SearchAlgo;
use crate::local::expand_tree;
use crate::peel::{peel_with, DeletePolicy, PeelOutcome, PeelScratch};
use crate::result::{Community, PhaseTimings};
use crate::steiner::steiner_tree;
use ctc_graph::error::{GraphError, Result};
use ctc_graph::{BfsScratch, CsrGraph, Parallelism, Subgraph, VertexId};
use ctc_truss::{find_g0_with, Snapshot, TrussIndex, G0};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Closest-truss-community searcher over a fixed graph.
///
/// The truss index is built fresh (owned) or borrowed from a longer-lived
/// holder such as a [`Snapshot`] or the warm-start
/// [`CommunityEngine`](crate::CommunityEngine). Borrowing is what makes
/// per-query searcher construction free on the warm path.
pub struct CtcSearcher<'g> {
    g: &'g CsrGraph,
    idx: Cow<'g, TrussIndex>,
}

impl<'g> CtcSearcher<'g> {
    /// Builds the truss index for `g` and wraps it (index construction is
    /// the offline cost reported in Table 3).
    pub fn new(g: &'g CsrGraph) -> Self {
        CtcSearcher {
            g,
            idx: Cow::Owned(TrussIndex::build(g)),
        }
    }

    /// Borrows a prebuilt index (must belong to `g`) without taking
    /// ownership — the warm path: constructing the searcher costs two
    /// pointer copies, no decomposition.
    pub fn with_borrowed_index(g: &'g CsrGraph, idx: &'g TrussIndex) -> Self {
        assert_eq!(idx.num_edges(), g.num_edges(), "index does not match graph");
        CtcSearcher {
            g,
            idx: Cow::Borrowed(idx),
        }
    }

    /// Warm-starts from a loaded [`Snapshot`]: borrows its graph and index,
    /// paying none of the offline construction cost.
    ///
    /// ```
    /// use ctc_core::{CtcConfig, CtcSearcher};
    /// use ctc_truss::{fixtures, Snapshot};
    ///
    /// let snap = Snapshot::build(fixtures::figure1_graph());
    /// let f = fixtures::Figure1Ids::default();
    /// let searcher = CtcSearcher::from_snapshot(&snap);
    /// let c = searcher.basic(&[f.q1, f.q2, f.q3], &CtcConfig::default()).unwrap();
    /// assert_eq!((c.k, c.diameter()), (4, 3));
    /// ```
    pub fn from_snapshot(snap: &'g Snapshot) -> Self {
        Self::with_borrowed_index(&snap.graph, &snap.index)
    }

    /// The underlying truss index.
    pub fn index(&self) -> &TrussIndex {
        &self.idx
    }

    /// The graph being searched.
    pub fn graph(&self) -> &'g CsrGraph {
        self.g
    }

    /// Algorithm 1 (**Basic**): greedy single-vertex peeling.
    /// 2-approximation on the optimal diameter (Theorem 3).
    pub fn basic(&self, q: &[VertexId], cfg: &CtcConfig) -> Result<Community> {
        self.search_with(q, SearchAlgo::Basic, cfg, &mut PeelScratch::new())
    }

    /// Algorithm 4 (**BulkDelete / BD**): batch peeling, `O(n'/k)` rounds,
    /// `(2+ε)`-approximation (Theorem 6).
    pub fn bulk_delete(&self, q: &[VertexId], cfg: &CtcConfig) -> Result<Community> {
        self.search_with(q, SearchAlgo::BulkDelete, cfg, &mut PeelScratch::new())
    }

    /// The **Truss** baseline: `FindG0` with no diameter minimization.
    pub fn truss_only(&self, q: &[VertexId], cfg: &CtcConfig) -> Result<Community> {
        self.search_with(q, SearchAlgo::TrussOnly, cfg, &mut PeelScratch::new())
    }

    /// Algorithm 5 (**LCTC**): Steiner-seeded local exploration + local
    /// truss extraction + bulk peeling. Heuristic; the fast default.
    pub fn local(&self, q: &[VertexId], cfg: &CtcConfig) -> Result<Community> {
        self.search_with(q, SearchAlgo::Local, cfg, &mut PeelScratch::new())
    }

    /// Answers `q` with `algo` over caller-pooled `scratch` — the one
    /// pipeline behind every algorithm, and the warm path: once the
    /// scratch has grown to the workload, the peel loop allocates nothing.
    ///
    /// 1. **Normalize** the query: dedup, range checks.
    /// 2. **Locate** the starting community: `G0` from `FindG0`
    ///    (Algorithm 2) for Basic, BulkDelete and Truss; for LCTC, `Ht`
    ///    from a Steiner tree, its expansion and a local decomposition. A
    ///    fixed `k` (§7.1) caps `FindG0`'s starting level.
    /// 3. **Peel** under the algorithm's [`DeletePolicy`]. The Truss
    ///    baseline skips this step and reports `G0` as located.
    /// 4. **Assemble** the answer in parent-graph ids.
    pub fn search_with(
        &self,
        q: &[VertexId],
        algo: SearchAlgo,
        cfg: &CtcConfig,
        scratch: &mut PeelScratch,
    ) -> Result<Community> {
        let t0 = Instant::now();
        let q = self.normalize_query(q)?;
        let (g0, sub) = self.locate(&q, algo, cfg, scratch)?;
        let q_local = sub.locals(&q).ok_or(GraphError::Disconnected)?;
        let t_locate = t0.elapsed();
        let policy = match algo {
            SearchAlgo::Basic => Some(DeletePolicy::SingleFurthest),
            SearchAlgo::BulkDelete => Some(DeletePolicy::BulkAtLeast),
            SearchAlgo::Local => Some(DeletePolicy::LocalGreedy),
            SearchAlgo::TrussOnly => None,
        };
        let (out, t_peel) = match policy {
            // Unpeeled, the query-distance BFS counts as finish work.
            None => (unpeeled(&sub.graph, &q_local), Duration::ZERO),
            Some(policy) => {
                let t1 = Instant::now();
                let par = peel_parallelism(cfg, sub.graph.num_vertices(), q_local.len());
                let out = peel_with(
                    &sub.graph,
                    &q_local,
                    g0.k,
                    policy,
                    cfg.max_iterations,
                    par,
                    scratch,
                );
                (out, t1.elapsed())
            }
        };
        let timings = PhaseTimings::with_residual(t_locate, t_peel, t0.elapsed());
        Ok(assemble(&sub, &g0, out, timings))
    }

    /// Normalizes a query: dedup, validity checks.
    fn normalize_query(&self, q: &[VertexId]) -> Result<Vec<VertexId>> {
        if q.is_empty() {
            return Err(GraphError::EmptyQuery);
        }
        let n = self.g.num_vertices();
        let mut q: Vec<VertexId> = q.to_vec();
        q.sort_unstable();
        q.dedup();
        for &v in &q {
            if v.index() >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v.0, n });
            }
        }
        Ok(q)
    }

    /// The pipeline's locate step: the community the peel starts from, as
    /// a [`G0`] (for LCTC, `Ht` in `Gt`'s ids; only its `k` and size are
    /// read) and as a subgraph whose parent ids are the graph's own.
    fn locate(
        &self,
        q: &[VertexId],
        algo: SearchAlgo,
        cfg: &CtcConfig,
        scratch: &mut PeelScratch,
    ) -> Result<(G0, Subgraph)> {
        let cap = cfg.fixed_k.unwrap_or(u32::MAX);
        if algo != SearchAlgo::Local {
            let g0 = find_g0_with(self.g, &self.idx, q, cap, &mut scratch.find)?;
            // The peel breaks ties by local id, so the peeled algorithms
            // keep the discovery numbering; the Truss answer lists G0's
            // edges in parent order, which canonical numbering preserves.
            let sub = if algo == SearchAlgo::TrussOnly {
                let pairs: Vec<_> = g0.edges.iter().map(|&e| self.g.edge_endpoints(e)).collect();
                ctc_graph::subgraph_from_pairs(&pairs)
            } else {
                ctc_graph::edge_subgraph(self.g, &g0.edges)
            };
            return Ok((g0, sub));
        }
        // LCTC step 1: truss-distance Steiner tree.
        let tree = steiner_tree(self.g, &self.idx, q, cfg.gamma, cfg.steiner_mode)
            .ok_or(GraphError::Disconnected)?;
        // Step 2: expand to Gt (≤ η vertices).
        let gt = expand_tree(self.g, &self.idx, &tree, cfg.eta);
        let q_gt = gt.locals(q).ok_or(GraphError::Disconnected)?;
        // Step 3: local truss decomposition + maximal connected k-truss
        // (the online decomposition LCTC pays per query, over the pooled
        // decomposition scratch, allocation-free once warm).
        let idx_t = TrussIndex::build_with(&gt.graph, &mut scratch.decomp);
        let ht = find_g0_with(&gt.graph, &idx_t, &q_gt, cap, &mut scratch.find)?;
        // Materialize Ht in *original-graph* ids with canonical local
        // numbering: queries that reach the same community through
        // different Steiner trees peel a byte-identical subgraph, so the
        // pooled scratch's support cache keeps hitting across them.
        let pairs: Vec<_> = ht
            .edges
            .iter()
            .map(|&e| {
                let (u, v) = gt.graph.edge_endpoints(e);
                (gt.parent(u), gt.parent(v))
            })
            .collect();
        Ok((ht, ctc_graph::subgraph_from_pairs(&pairs)))
    }
}

/// Thread policy for the peel phase's per-source distance repairs.
///
/// Spreading `|Q|` independent repairs over threads only pays when there
/// are multiple sources and enough graph for each per-source BFS/repair to
/// dwarf a scoped-thread spawn+join (paid every peeling round); below
/// that, stay serial. Results are byte-identical either way — the fields
/// are independent — so this is purely a scheduling choice, and
/// [`peel_with`] itself honors whatever [`Parallelism`] it is handed.
fn peel_parallelism(cfg: &CtcConfig, n: usize, q_len: usize) -> Parallelism {
    if q_len > 1 && n >= 4096 {
        cfg.parallelism
    } else {
        Parallelism::serial()
    }
}

/// The Truss baseline's outcome: the located subgraph whole, with its
/// query distance.
fn unpeeled(sub: &CsrGraph, q: &[VertexId]) -> PeelOutcome {
    let mut bfs = BfsScratch::new(sub.num_vertices());
    PeelOutcome {
        vertices: sub.vertices().collect(),
        edges: sub.edges().map(|(_, u, v)| (u, v)).collect(),
        query_distance: ctc_graph::graph_query_distance(sub, q, &mut bfs),
        iterations: 0,
    }
}

/// Maps a [`PeelOutcome`] in `sub`-local ids back to parent ids.
fn assemble(sub: &Subgraph, g0: &G0, out: PeelOutcome, timings: PhaseTimings) -> Community {
    let mut vertices: Vec<VertexId> = out.vertices.iter().map(|&v| sub.parent(v)).collect();
    vertices.sort_unstable();
    let edges = out
        .edges
        .iter()
        .map(|&(u, v)| {
            let (pu, pv) = (sub.parent(u), sub.parent(v));
            if pu < pv {
                (pu, pv)
            } else {
                (pv, pu)
            }
        })
        .collect();
    Community {
        k: g0.k,
        vertices,
        edges,
        query_distance: out.query_distance,
        iterations: out.iterations,
        g0_size: (g0.vertices.len(), g0.edges.len()),
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_truss::fixtures::{figure1_graph, figure4_graph, Figure1Ids, Figure4Ids};

    fn searcher(g: &CsrGraph) -> CtcSearcher<'_> {
        CtcSearcher::new(g)
    }

    #[test]
    fn basic_on_figure1_finds_the_ctc() {
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let c = s.basic(&q, &CtcConfig::default()).unwrap();
        assert_eq!(c.k, 4);
        assert_eq!(c.num_vertices(), 8, "Figure 1(b)");
        assert_eq!(c.diameter(), 3, "optimal diameter (paper Example 4)");
        c.validate(&q).unwrap();
    }

    #[test]
    fn bulk_on_figure1_returns_g0() {
        // Example 7: BD terminates immediately and reports all of G0
        // (diameter 4 vs Basic's 3).
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let c = s.bulk_delete(&q, &CtcConfig::default()).unwrap();
        assert_eq!(c.k, 4);
        assert_eq!(c.num_vertices(), 11);
        assert_eq!(c.diameter(), 4);
        c.validate(&q).unwrap();
    }

    #[test]
    fn local_on_figure1_matches_basic_quality() {
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let c = s.local(&q, &CtcConfig::default()).unwrap();
        assert_eq!(c.k, 4);
        c.validate(&q).unwrap();
        assert!(c.diameter() <= 4);
        assert!(c.num_vertices() <= 11);
        // LCTC's L' policy should also drop the free riders here.
        assert!(!c.vertices.contains(&f.p1), "p1 is a free rider");
    }

    #[test]
    fn truss_baseline_reports_g0_untouched() {
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let c = s.truss_only(&q, &CtcConfig::default()).unwrap();
        assert_eq!(c.num_vertices(), 11);
        assert_eq!(c.iterations, 0);
        assert_eq!(c.query_distance, 4, "p1 is 4 hops from q1 inside G0");
        c.validate(&q).unwrap();
    }

    #[test]
    fn figure4_bridge_query_gets_k2() {
        let g = figure4_graph();
        let s = searcher(&g);
        let f = Figure4Ids::default();
        let q = [f.q1, f.q2];
        for c in [
            s.basic(&q, &CtcConfig::default()).unwrap(),
            s.bulk_delete(&q, &CtcConfig::default()).unwrap(),
            s.local(&q, &CtcConfig::default()).unwrap(),
        ] {
            assert_eq!(c.k, 2, "two K4s joined by a weak bridge");
            c.validate(&q).unwrap();
        }
    }

    #[test]
    fn fixed_k_trades_trussness_for_diameter() {
        // §7.1: at k = 2, the 5-cycle through t (diameter 2) becomes
        // admissible for Q = {q1, q2, q3}.
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let at_max = s.basic(&q, &CtcConfig::default()).unwrap();
        let at_2 = s.basic(&q, &CtcConfig::new().fixed_k(2)).unwrap();
        assert_eq!(at_max.k, 4);
        assert_eq!(at_2.k, 2);
        assert!(at_2.diameter() <= at_max.diameter());
    }

    #[test]
    fn error_paths() {
        let g = figure1_graph();
        let s = searcher(&g);
        assert_eq!(
            s.basic(&[], &CtcConfig::default()).unwrap_err(),
            GraphError::EmptyQuery
        );
        assert!(matches!(
            s.basic(&[VertexId(99)], &CtcConfig::default()).unwrap_err(),
            GraphError::VertexOutOfRange { .. }
        ));
    }

    /// A four-thread config returns the serial answers. Figure 1 is below
    /// the size where the peel fans its repairs out, so this pins the
    /// config plumbing; `peel_props.rs` runs `peel_with` itself at 1/2/4
    /// threads.
    #[test]
    fn parallel_searcher_matches_serial_end_to_end() {
        let g = figure1_graph();
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let s = CtcSearcher::new(&g);
        let cfg_par = CtcConfig::new().threads(4);
        for (a, b) in [
            (
                s.basic(&q, &CtcConfig::default()).unwrap(),
                s.basic(&q, &cfg_par).unwrap(),
            ),
            (
                s.local(&q, &CtcConfig::default()).unwrap(),
                s.local(&q, &cfg_par).unwrap(),
            ),
        ] {
            assert_eq!(a.k, b.k);
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.edges, b.edges);
        }
    }

    #[test]
    fn duplicate_query_vertices_are_deduped() {
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let c = s.basic(&[f.q1, f.q1, f.q2], &CtcConfig::default()).unwrap();
        c.validate(&[f.q1, f.q2]).unwrap();
    }

    #[test]
    fn singleton_query_all_algorithms() {
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        let q = [f.q3];
        for c in [
            s.basic(&q, &CtcConfig::default()).unwrap(),
            s.bulk_delete(&q, &CtcConfig::default()).unwrap(),
            s.local(&q, &CtcConfig::default()).unwrap(),
        ] {
            assert_eq!(c.k, 4);
            c.validate(&q).unwrap();
        }
    }

    #[test]
    fn eta_one_still_returns_a_community() {
        let g = figure1_graph();
        let s = searcher(&g);
        let f = Figure1Ids::default();
        // With a tiny η the expansion is just the tree; LCTC degrades but
        // must stay correct.
        let c = s.local(&[f.q1, f.q2], &CtcConfig::new().eta(1)).unwrap();
        c.validate(&[f.q1, f.q2]).unwrap();
    }
}
