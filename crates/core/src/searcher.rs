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
use ctc_graph::{edge_subgraph_with, CsrGraph, Subgraph, VertexId};
use ctc_truss::{find_g0_with, g0_query_distance, Snapshot, TrussIndex, G0};
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
    /// 3. **Peel** under the algorithm's [`DeletePolicy`], over a copy of
    ///    the located community with local ids. The Truss baseline skips
    ///    this step and answers from `G0` itself.
    /// 4. **Assemble** the answer in parent-graph ids.
    ///
    /// The whole pipeline runs on the caller's thread. Its timings are
    /// stamped last: locate covers steps 1–2, peel the peeling loop and
    /// the best snapshot's reconstruction, and finish the rest: step 4,
    /// or the Truss baseline's query distance and edge list.
    pub fn search_with(
        &self,
        q: &[VertexId],
        algo: SearchAlgo,
        cfg: &CtcConfig,
        scratch: &mut PeelScratch,
    ) -> Result<Community> {
        let t0 = Instant::now();
        let q = self.normalize_query(q)?;
        let policy = match algo {
            SearchAlgo::Basic => DeletePolicy::SingleFurthest,
            SearchAlgo::BulkDelete => DeletePolicy::BulkAtLeast,
            SearchAlgo::Local => DeletePolicy::LocalGreedy,
            SearchAlgo::TrussOnly => return self.truss_answer(&q, cfg, scratch, t0),
        };
        let (located, sub) = self.locate(&q, algo, cfg, scratch)?;
        let q_local = sub.locals(&q).ok_or(GraphError::Disconnected)?;
        let t_locate = t0.elapsed();
        let t1 = Instant::now();
        let out = peel_with(
            &sub.graph,
            &q_local,
            located.k,
            policy,
            cfg.max_iterations,
            scratch,
        );
        let t_peel = t1.elapsed();
        let mut community = assemble(&sub, located, out);
        community.timings = PhaseTimings::with_residual(t_locate, t_peel, t0.elapsed());
        Ok(community)
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

    /// The Truss baseline, answered from `G0` with no copy: its vertices
    /// are `G0`'s (ascending), its edges `G0`'s endpoint pairs (canonical
    /// order), and its query distance comes from BFS over the index rows
    /// that make up `G0`, which counts as finish work.
    fn truss_answer(
        &self,
        q: &[VertexId],
        cfg: &CtcConfig,
        scratch: &mut PeelScratch,
        t0: Instant,
    ) -> Result<Community> {
        let g0 = find_g0_with(self.g, &self.idx, q, level_cap(cfg), &mut scratch.find)?;
        let t_locate = t0.elapsed();
        let query_distance = g0_query_distance(&self.idx, &g0, q, &mut scratch.find);
        let edges = g0.edges.iter().map(|&e| self.g.edge_endpoints(e)).collect();
        Ok(Community {
            k: g0.k,
            g0_size: (g0.vertices.len(), g0.edges.len()),
            vertices: g0.vertices,
            edges,
            query_distance,
            iterations: 0,
            timings: PhaseTimings::with_residual(t_locate, Duration::ZERO, t0.elapsed()),
        })
    }

    /// The locate step of the peeled algorithms: the community the peel
    /// starts from, copied into a subgraph whose parent ids are the
    /// graph's own. The located lists are dropped on return; the peel and
    /// the answer read only their level and size.
    fn locate(
        &self,
        q: &[VertexId],
        algo: SearchAlgo,
        cfg: &CtcConfig,
        scratch: &mut PeelScratch,
    ) -> Result<(Located, Subgraph)> {
        let cap = level_cap(cfg);
        if algo != SearchAlgo::Local {
            let g0 = find_g0_with(self.g, &self.idx, q, cap, &mut scratch.find)?;
            // The peel breaks ties by local id, so it keeps the discovery
            // numbering.
            let sub = edge_subgraph_with(self.g, &g0.edges, &mut scratch.sub);
            return Ok((Located::of(&g0), sub));
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
        Ok((Located::of(&ht), ctc_graph::subgraph_from_pairs(&pairs)))
    }
}

/// What the peel and the answer read of a located community once it is
/// copied: its level and its `(vertices, edges)` size.
#[derive(Clone, Copy, Debug)]
struct Located {
    k: u32,
    size: (usize, usize),
}

impl Located {
    fn of(g0: &G0) -> Self {
        Located {
            k: g0.k,
            size: (g0.vertices.len(), g0.edges.len()),
        }
    }
}

/// `FindG0`'s starting level: a fixed `k` (§7.1) caps it.
fn level_cap(cfg: &CtcConfig) -> u32 {
    cfg.fixed_k.unwrap_or(u32::MAX)
}

/// Maps a [`PeelOutcome`] in `sub`-local ids back to parent ids; the
/// caller stamps the timings once this has run.
fn assemble(sub: &Subgraph, located: Located, out: PeelOutcome) -> Community {
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
        k: located.k,
        vertices,
        edges,
        query_distance: out.query_distance,
        iterations: out.iterations,
        g0_size: located.size,
        timings: PhaseTimings::default(),
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
