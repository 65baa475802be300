//! The warm-start query engine: load a snapshot once, answer many queries.
//!
//! [`CommunityEngine`] is the serving-side counterpart of the offline
//! pipeline. It holds a graph and its truss index behind [`Arc`]s, so the
//! expensive state is built (or loaded from a `.ctci` [`Snapshot`]) exactly
//! once per process and then shared freely: cloning the engine is two
//! reference bumps, every [`CommunityEngine::searcher`] borrows rather than
//! rebuilds, and [`CommunityEngine::search_batch`] fans a query batch out
//! across the [`Parallelism`] substrate with no per-query setup cost.
//!
//! ```
//! use ctc_core::{CommunityEngine, EngineQuery, SearchAlgo};
//! use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
//!
//! let engine = CommunityEngine::build(figure1_graph());
//! let f = Figure1Ids::default();
//! let queries = vec![
//!     EngineQuery::new(vec![f.q1, f.q2, f.q3]).algo(SearchAlgo::Basic),
//!     EngineQuery::new(vec![f.q3]),
//! ];
//! let answers = engine.search_batch(&queries);
//! assert_eq!(answers.len(), 2);
//! assert_eq!(answers[0].as_ref().unwrap().k, 4);
//! ```

use crate::config::CtcConfig;
use crate::peel::PeelScratch;
use crate::result::Community;
use crate::searcher::CtcSearcher;
use ctc_graph::error::Result;
use ctc_graph::{CsrGraph, Parallelism, VertexId};
use ctc_truss::snapshot::snapshot_to_bytes;
use ctc_truss::{
    DeltaLogFile, DynamicIndex, LabelTable, RecoveryReport, Snapshot, TrussIndex, UpdateReport,
};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Which of the paper's algorithms answers a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SearchAlgo {
    /// Algorithm 1 (**Basic**): 2-approximation, single-vertex peeling.
    Basic,
    /// Algorithm 4 (**BulkDelete**): (2+ε)-approximation, batch peeling.
    BulkDelete,
    /// Algorithm 5 (**LCTC**): the local heuristic — the fast default.
    #[default]
    Local,
    /// The **Truss** baseline: bare `FindG0`, no diameter minimization.
    TrussOnly,
}

impl std::str::FromStr for SearchAlgo {
    type Err = String;

    /// Parses the CLI spellings: `basic`, `bd`, `lctc`, `truss`.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "basic" => Ok(SearchAlgo::Basic),
            "bd" => Ok(SearchAlgo::BulkDelete),
            "lctc" => Ok(SearchAlgo::Local),
            "truss" => Ok(SearchAlgo::TrussOnly),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

/// One query of a batch: the query vertices plus the algorithm to run.
#[derive(Clone, Debug)]
pub struct EngineQuery {
    /// Query vertices (dense ids).
    pub vertices: Vec<VertexId>,
    /// Algorithm answering this query.
    pub algo: SearchAlgo,
}

impl EngineQuery {
    /// A query answered by the default algorithm (LCTC).
    pub fn new(vertices: Vec<VertexId>) -> Self {
        EngineQuery {
            vertices,
            algo: SearchAlgo::default(),
        }
    }

    /// Overrides the algorithm.
    pub fn algo(mut self, algo: SearchAlgo) -> Self {
        self.algo = algo;
        self
    }
}

/// A size/shape summary of a running engine — what a serving process
/// reports from its stats endpoint without walking the graph per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Vertices of the served graph.
    pub num_vertices: usize,
    /// Undirected edges of the served graph.
    pub num_edges: usize,
    /// Maximum trussness `τ̄(∅)` of the index.
    pub max_truss: u32,
    /// `true` when a non-identity label table rides along.
    pub labeled: bool,
}

/// The process's one pool of idle [`PeelScratch`] workspaces. Every
/// [`CommunityEngine::search`] draws from it: `search_batch`, every server
/// worker, every tenant and every republished engine version. A search
/// holds a scratch only while it runs, so the pool never holds more
/// scratches than the process has had concurrent searches, and no more
/// than [`ScratchPool::MAX_IDLE`]; stragglers beyond the cap are dropped.
/// Checkout is LIFO, so a single thread keeps reusing one warm scratch.
///
/// Reuse across graphs is safe (see [`PeelScratch`]); the price is that a
/// scratch grows to the union of the graphs it served rather than the
/// largest of one engine's searches.
///
/// Not a `thread_local!`: a search that unwinds drops its scratch instead
/// of returning it, so a half-updated scratch is never reused.
static SCRATCH_POOL: ScratchPool = ScratchPool {
    pool: Mutex::new(Vec::new()),
};

struct ScratchPool {
    pool: Mutex<Vec<PeelScratch>>,
}

impl ScratchPool {
    /// At most this many idle scratches are retained.
    const MAX_IDLE: usize = 64;

    fn checkout(&self) -> PeelScratch {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn restore(&self, scratch: PeelScratch) {
        let mut pool = self.pool.lock().expect("scratch pool poisoned");
        if pool.len() < Self::MAX_IDLE {
            pool.push(scratch);
        }
    }
}

/// What the process-wide scratch pool holds between searches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchPoolStats {
    /// Idle scratches the pool retains.
    pub idle: usize,
    /// Sum of [`PeelScratch::heap_bytes`] over the idle scratches.
    /// Scratches checked out by running searches are not counted.
    pub resident_bytes: usize,
}

/// Counts the idle scratches of the process-wide pool behind
/// [`CommunityEngine::search`] and the heap bytes they hold.
pub fn scratch_pool_stats() -> ScratchPoolStats {
    let pool = SCRATCH_POOL.pool.lock().expect("scratch pool poisoned");
    ScratchPoolStats {
        idle: pool.len(),
        resident_bytes: pool.iter().map(PeelScratch::heap_bytes).sum(),
    }
}

/// One edge mutation of a [`CommunityEngine::apply_batch`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineUpdate {
    /// `true` for an insertion, `false` for a deletion.
    pub insert: bool,
    /// One endpoint (dense id).
    pub u: VertexId,
    /// The other endpoint (dense id).
    pub v: VertexId,
}

impl EngineUpdate {
    /// An edge insertion.
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        EngineUpdate { insert: true, u, v }
    }

    /// An edge deletion.
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        EngineUpdate {
            insert: false,
            u,
            v,
        }
    }
}

/// What one [`CommunityEngine::apply_batch`] call did.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Updates applied.
    pub applied: usize,
    /// Updates rejected (duplicate insert, missing delete, bad endpoint).
    pub rejected: usize,
    /// Largest trussness class any applied update touched (0 when none
    /// applied) — the cache-invalidation key: cached answers at level
    /// `k > max_class` are provably unaffected (see
    /// [`UpdateReport::max_class`]).
    pub max_class: u32,
    /// Per-update outcome, in input order.
    pub results: Vec<Result<UpdateReport>>,
}

/// A loaded-once, query-many CTC engine.
///
/// Cheap to clone (all heavy state is behind [`Arc`]) and safe to share
/// across threads — batch workers borrow the same graph and index, and
/// every engine draws peel working memory from one process-wide pool.
#[derive(Clone)]
pub struct CommunityEngine {
    graph: Arc<CsrGraph>,
    index: Arc<TrussIndex>,
    /// Shared by clones, so the reverse label index is built once.
    labels: Arc<LabelTable>,
    cfg: CtcConfig,
    batch_par: Parallelism,
    /// Warm dynamic-maintenance state, created lazily on first mutation.
    /// `None` on read-only engines (and on [`CommunityEngine::frozen_clone`]s,
    /// so reader clones never force the writer's copy-on-write).
    dynamic: Option<Arc<DynamicIndex>>,
}

impl CommunityEngine {
    /// Builds graph + index cold, serially (the offline cost a snapshot
    /// avoids).
    pub fn build(graph: CsrGraph) -> Self {
        Self::from_snapshot(Snapshot::build(graph))
    }

    /// Adopts a built or loaded [`Snapshot`] — the warm path: no
    /// decomposition runs.
    pub fn from_snapshot(snap: Snapshot) -> Self {
        CommunityEngine {
            graph: Arc::new(snap.graph),
            index: Arc::new(snap.index),
            labels: Arc::new(LabelTable::new(snap.labels)),
            cfg: CtcConfig::default(),
            batch_par: Parallelism::serial(),
            dynamic: None,
        }
    }

    /// Loads a `.ctci` snapshot file and warm-starts from it.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        Ok(Self::from_snapshot(Snapshot::load(path)?))
    }

    /// Crash-recovers a serving state: loads the snapshot, repairs or
    /// quarantines the delta log per the [`ctc_truss::recover()`] taxonomy
    /// (torn tail → truncate; stale/corrupt → archive aside), replays the
    /// surviving records, and returns the warm engine plus a log handle
    /// valid for further appends and a [`RecoveryReport`] of what was
    /// done. The startup path for any process that serves with a WAL.
    pub fn recover<P: AsRef<Path>>(
        snapshot_path: P,
        log_path: Option<&Path>,
    ) -> Result<(Self, Option<DeltaLogFile>, RecoveryReport)> {
        let (snap, logfile, report) = ctc_truss::recover(snapshot_path.as_ref(), log_path)?;
        Ok((Self::from_snapshot(snap), logfile, report))
    }

    /// Persists the engine's graph + index + labels as a `.ctci` snapshot
    /// with crash-safety discipline (temp file → fsync → rename →
    /// parent-directory fsync).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let bytes = snapshot_to_bytes(&self.graph, &self.index, self.labels.as_slice());
        ctc_graph::storage::write_durable(&ctc_graph::storage::RealEnv, path.as_ref(), &bytes)
    }

    /// Replaces the per-query configuration (γ, η, fixed k, ...).
    pub fn with_config(mut self, cfg: CtcConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets how many worker threads a [`CommunityEngine::search_batch`]
    /// call spreads its queries over (default: serial).
    pub fn with_batch_parallelism(mut self, par: Parallelism) -> Self {
        self.batch_par = par;
        self
    }

    /// The served graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The shared truss index.
    pub fn index(&self) -> &TrussIndex {
        &self.index
    }

    /// Dense id → original label table (empty ⇒ identity).
    pub fn labels(&self) -> &[u64] {
        self.labels.as_slice()
    }

    /// The per-query configuration.
    pub fn config(&self) -> &CtcConfig {
        &self.cfg
    }

    /// The original label of dense vertex `v`.
    pub fn label_of(&self, v: VertexId) -> u64 {
        self.labels.label_of(v)
    }

    /// The dense id carrying original label `label`, if any: arithmetic
    /// on an identity-labeled engine, otherwise a binary search of the
    /// reverse index the first lookup builds (shared by every clone).
    pub fn vertex_of_label(&self, label: u64) -> Option<VertexId> {
        self.labels.vertex_of(label, self.graph.num_vertices())
    }

    /// Resolves a whole query of original labels to dense ids, in input
    /// order; fails with the first label the graph does not carry. The
    /// wire-facing entry point for label-addressed queries.
    ///
    /// ```
    /// use ctc_core::CommunityEngine;
    /// use ctc_truss::fixtures::figure1_graph;
    ///
    /// let engine = CommunityEngine::build(figure1_graph());
    /// assert_eq!(engine.resolve_labels(&[2, 0]).unwrap().len(), 2);
    /// assert_eq!(engine.resolve_labels(&[2, 999]), Err(999));
    /// ```
    pub fn resolve_labels(&self, labels: &[u64]) -> std::result::Result<Vec<VertexId>, u64> {
        labels
            .iter()
            .map(|&l| self.vertex_of_label(l).ok_or(l))
            .collect()
    }

    /// A constant-time summary of the served graph + index.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            num_vertices: self.graph.num_vertices(),
            num_edges: self.graph.num_edges(),
            max_truss: self.index.max_truss(),
            labeled: !self.labels.as_slice().is_empty(),
        }
    }

    /// Approximate resident bytes of the engine's immutable state: CSR
    /// graph, truss index, and label table. This is the cost weight a
    /// serving registry uses to decide which cold snapshot to evict under
    /// a memory budget.
    ///
    /// It leaves out two kinds of working memory. Peel scratches live in
    /// one process-wide pool, not in the engine: at most one per
    /// concurrent search in the whole process (at most 64 idle), each
    /// grown to the union of the graphs it served, and
    /// [`scratch_pool_stats`] reports what the idle ones hold. After 200
    /// searches in ctcbench's serving mix, one scratch held about
    /// 5.3 MiB for the facebook graph alone and 10.6 MiB for dblp alone
    /// (1.4× and 1.8× those engines' own 3.9 and 6.0 MB), and 12.3 MiB
    /// when it served both. The other is the dynamic-maintenance state a
    /// writer builds on its first update.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.index.memory_bytes() + self.labels.memory_bytes()
    }

    /// A zero-cost searcher borrowing the engine's graph and index.
    pub fn searcher(&self) -> CtcSearcher<'_> {
        CtcSearcher::with_borrowed_index(&self.graph, &self.index)
    }

    /// Answers one query with `algo` under the engine's configuration.
    ///
    /// Working memory comes from the process-wide scratch pool that every
    /// engine shares, so a warm process answers without allocating in the
    /// peeling loop, and holds one scratch per concurrent search however
    /// many engines it serves. A search that panics drops its scratch
    /// instead of returning it.
    pub fn search(&self, q: &[VertexId], algo: SearchAlgo) -> Result<Community> {
        let mut scratch = SCRATCH_POOL.checkout();
        let out = self
            .searcher()
            .search_with(q, algo, &self.cfg, &mut scratch);
        SCRATCH_POOL.restore(scratch);
        out
    }

    /// Answers a batch of queries, spread over the engine's batch
    /// [`Parallelism`]; results come back in input order, each query
    /// failing or succeeding independently.
    ///
    /// Queries share the read-only graph and index, so the fan-out is
    /// contention-free; per-query inner parallelism (the peel's
    /// per-source repairs) stays whatever the engine config says, which
    /// for batch serving should normally remain serial.
    pub fn search_batch(&self, queries: &[EngineQuery]) -> Vec<Result<Community>> {
        self.batch_par
            .map_chunks(queries.len(), |range| {
                range
                    .map(|i| self.search(&queries[i].vertices, queries[i].algo))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Inserts edge `{u, v}` (dense ids) with local truss maintenance and
    /// republishes the engine's graph + index. See
    /// [`CommunityEngine::apply_batch`] for the mechanics.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateReport> {
        let mut batch = self.apply_batch(&[EngineUpdate::insert(u, v)])?;
        batch.results.pop().expect("one update, one result")
    }

    /// Deletes edge `{u, v}` (dense ids) with local truss maintenance and
    /// republishes the engine's graph + index.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<UpdateReport> {
        let mut batch = self.apply_batch(&[EngineUpdate::delete(u, v)])?;
        batch.results.pop().expect("one update, one result")
    }

    /// Applies a batch of edge updates through the warm
    /// [`DynamicIndex`], then republishes the mutated graph + index as
    /// fresh [`Arc`]s — concurrent readers holding clones keep their old
    /// (consistent) view; searches on `self` see the new one.
    ///
    /// Each update succeeds or is rejected independently (duplicate
    /// inserts, missing deletes and bad endpoints reject with typed
    /// errors and leave no trace); one materialization at the end covers
    /// the whole batch. The vertex set and label table are fixed.
    ///
    /// The first mutation on an engine adopts the current index into the
    /// dynamic state in `O(n + m)`; later batches reuse it, so steady-state
    /// per-update cost is the local repair cascade plus the `O(n + m)`
    /// republication. The `updates` runs of `BENCH_RECORD.json` time only
    /// the [`DynamicIndex`] repair against the `O(ρm)` rebuild; the
    /// republication is ctcbench's `dynamic.materialize_p50_us`.
    ///
    /// The outer `Err` only reports internal materialization failures
    /// (never caused by rejected updates); per-update outcomes live in
    /// [`BatchReport::results`].
    pub fn apply_batch(&mut self, updates: &[EngineUpdate]) -> Result<BatchReport> {
        let mut report = BatchReport {
            results: Vec::with_capacity(updates.len()),
            ..BatchReport::default()
        };
        if self.dynamic.is_none() {
            self.dynamic = Some(Arc::new(DynamicIndex::new(&self.graph, &self.index)));
        }
        let dynx = Arc::make_mut(self.dynamic.as_mut().expect("just installed"));
        for up in updates {
            let r = if up.insert {
                dynx.insert_edge(up.u, up.v)
            } else {
                dynx.delete_edge(up.u, up.v)
            };
            match &r {
                Ok(rep) => {
                    report.applied += 1;
                    report.max_class = report.max_class.max(rep.max_class);
                }
                Err(_) => report.rejected += 1,
            }
            report.results.push(r);
        }
        if report.applied > 0 {
            let (g, idx) = self
                .dynamic
                .as_ref()
                .expect("installed above")
                .materialize()?;
            self.graph = Arc::new(g);
            self.index = Arc::new(idx);
        }
        Ok(report)
    }

    /// A clone for publishing to concurrent readers: shares all heavy
    /// state but drops the warm dynamic-maintenance handle, so readers
    /// holding it never force the writing engine's copy-on-write.
    pub fn frozen_clone(&self) -> Self {
        let mut c = self.clone();
        c.dynamic = None;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_graph::error::GraphError;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};

    fn engine() -> CommunityEngine {
        CommunityEngine::build(figure1_graph())
    }

    #[test]
    fn engine_answers_match_cold_searcher() {
        let g = figure1_graph();
        let cold = CtcSearcher::new(&g);
        let eng = engine();
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let cfg = CtcConfig::default();
        for (algo, cold_answer) in [
            (SearchAlgo::Basic, cold.basic(&q, &cfg).unwrap()),
            (SearchAlgo::BulkDelete, cold.bulk_delete(&q, &cfg).unwrap()),
            (SearchAlgo::Local, cold.local(&q, &cfg).unwrap()),
            (SearchAlgo::TrussOnly, cold.truss_only(&q, &cfg).unwrap()),
        ] {
            let warm = eng.search(&q, algo).unwrap();
            assert_eq!(warm.k, cold_answer.k, "{algo:?}");
            assert_eq!(warm.vertices, cold_answer.vertices, "{algo:?}");
            assert_eq!(warm.edges, cold_answer.edges, "{algo:?}");
        }
    }

    #[test]
    fn batch_preserves_order_and_isolates_failures() {
        let eng = engine();
        let f = Figure1Ids::default();
        let queries = vec![
            EngineQuery::new(vec![f.q1, f.q2]).algo(SearchAlgo::Basic),
            EngineQuery::new(vec![]), // empty query must fail alone
            EngineQuery::new(vec![f.t]).algo(SearchAlgo::TrussOnly),
        ];
        let answers = eng.search_batch(&queries);
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].as_ref().unwrap().k, 4);
        assert_eq!(*answers[1].as_ref().unwrap_err(), GraphError::EmptyQuery);
        assert!(answers[2].is_ok());
    }

    #[test]
    fn batch_isolates_out_of_range_vertices_from_valid_neighbors() {
        let eng = engine();
        let f = Figure1Ids::default();
        let good = [f.q1, f.q2, f.q3];
        // Invalid queries (out-of-range vertex, empty set) interleaved
        // between identical valid ones, on every algorithm: each failure
        // must surface as its own error and the valid answers must be
        // exactly what an unpolluted batch returns.
        for algo in [
            SearchAlgo::Basic,
            SearchAlgo::BulkDelete,
            SearchAlgo::Local,
            SearchAlgo::TrussOnly,
        ] {
            let queries = vec![
                EngineQuery::new(good.to_vec()).algo(algo),
                EngineQuery::new(vec![VertexId(9999)]).algo(algo),
                EngineQuery::new(good.to_vec()).algo(algo),
                EngineQuery::new(vec![]).algo(algo),
                EngineQuery::new(vec![f.q1, VertexId(u32::MAX)]).algo(algo),
                EngineQuery::new(good.to_vec()).algo(algo),
            ];
            let answers = eng.search_batch(&queries);
            assert_eq!(answers.len(), 6, "{algo:?}");
            let clean = eng.search(&good, algo).unwrap();
            for i in [0usize, 2, 5] {
                let a = answers[i].as_ref().unwrap_or_else(|e| {
                    panic!("{algo:?}: valid query {i} poisoned by neighbors: {e}")
                });
                assert_eq!(a.k, clean.k, "{algo:?} query {i}");
                assert_eq!(a.vertices, clean.vertices, "{algo:?} query {i}");
                assert_eq!(a.edges, clean.edges, "{algo:?} query {i}");
            }
            assert_eq!(
                *answers[1].as_ref().unwrap_err(),
                GraphError::VertexOutOfRange {
                    vertex: 9999,
                    n: 12
                },
                "{algo:?}"
            );
            assert_eq!(*answers[3].as_ref().unwrap_err(), GraphError::EmptyQuery);
            assert_eq!(
                *answers[4].as_ref().unwrap_err(),
                GraphError::VertexOutOfRange {
                    vertex: u32::MAX,
                    n: 12
                },
                "{algo:?}: mixed valid+invalid vertex query must still fail"
            );
        }
    }

    #[test]
    fn parallel_batch_isolates_failures_like_serial() {
        let eng = engine().with_batch_parallelism(Parallelism::threads(4));
        let f = Figure1Ids::default();
        let queries: Vec<EngineQuery> = (0..16)
            .map(|i| {
                if i % 3 == 1 {
                    EngineQuery::new(vec![VertexId(100 + i)])
                } else {
                    EngineQuery::new(vec![f.q1, f.q2])
                }
            })
            .collect();
        let answers = eng.search_batch(&queries);
        for (i, a) in answers.iter().enumerate() {
            if i % 3 == 1 {
                assert!(
                    matches!(a, Err(GraphError::VertexOutOfRange { .. })),
                    "query {i}: {a:?}"
                );
            } else {
                assert!(a.is_ok(), "query {i} poisoned: {a:?}");
            }
        }
    }

    #[test]
    fn resolve_labels_and_stats() {
        let eng = engine();
        assert_eq!(
            eng.resolve_labels(&[3, 0]),
            Ok(vec![VertexId(3), VertexId(0)])
        );
        assert_eq!(eng.resolve_labels(&[0, 777, 888]), Err(777));
        let s = eng.stats();
        assert_eq!(s.num_vertices, 12);
        assert_eq!(s.num_edges, 25);
        assert_eq!(s.max_truss, 4);
        assert!(!s.labeled);
        let snap = Snapshot::build(figure1_graph())
            .with_labels((0..12).map(|i| 1000 + i as u64).collect())
            .unwrap();
        let eng = CommunityEngine::from_snapshot(snap);
        assert!(eng.stats().labeled);
        assert_eq!(eng.resolve_labels(&[1005]), Ok(vec![VertexId(5)]));
        assert_eq!(eng.resolve_labels(&[5]), Err(5));
    }

    #[test]
    fn memory_bytes_counts_graph_index_and_labels() {
        let bare = engine();
        assert!(bare.memory_bytes() > 0);
        let snap = Snapshot::build(figure1_graph())
            .with_labels((0..12).map(|i| 1000 + i as u64).collect())
            .unwrap();
        let labeled = CommunityEngine::from_snapshot(snap);
        assert_eq!(
            labeled.memory_bytes(),
            bare.memory_bytes() + 12 * std::mem::size_of::<u64>()
        );
    }

    #[test]
    fn parallel_batch_matches_serial_batch() {
        let eng = engine();
        let f = Figure1Ids::default();
        let queries: Vec<EngineQuery> = [
            vec![f.q1],
            vec![f.q2, f.q3],
            vec![f.q1, f.q2, f.q3],
            vec![f.t],
            vec![f.p1, f.q1],
        ]
        .into_iter()
        .flat_map(|q| {
            [
                EngineQuery::new(q.clone()).algo(SearchAlgo::Basic),
                EngineQuery::new(q).algo(SearchAlgo::Local),
            ]
        })
        .collect();
        let serial = eng.search_batch(&queries);
        let par = eng
            .clone()
            .with_batch_parallelism(Parallelism::threads(4))
            .search_batch(&queries);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.k, y.k);
                    assert_eq!(x.vertices, y.vertices);
                    assert_eq!(x.edges, y.edges);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("serial/parallel disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_save_load_roundtrips_through_engine() {
        let dir = std::env::temp_dir().join("ctc_engine_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.ctci");
        let eng = engine();
        eng.save(&path).unwrap();
        let loaded = CommunityEngine::load(&path).unwrap();
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let a = eng.search(&q, SearchAlgo::Basic).unwrap();
        let b = loaded.search(&q, SearchAlgo::Basic).unwrap();
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(
            loaded.index().edge_truss_slice(),
            eng.index().edge_truss_slice()
        );
    }

    #[test]
    fn engine_clone_is_shared_not_copied() {
        let eng = engine();
        let clone = eng.clone();
        assert!(Arc::ptr_eq(&eng.graph, &clone.graph));
        assert!(Arc::ptr_eq(&eng.index, &clone.index));
    }

    #[test]
    fn label_mapping_identity_and_table() {
        let eng = engine();
        assert_eq!(eng.label_of(VertexId(3)), 3);
        assert_eq!(eng.vertex_of_label(3), Some(VertexId(3)));
        assert_eq!(eng.vertex_of_label(999), None);
        let snap = Snapshot::build(figure1_graph())
            .with_labels((0..12).map(|i| 100 - i as u64).collect())
            .unwrap();
        let eng = CommunityEngine::from_snapshot(snap);
        assert_eq!(eng.label_of(VertexId(0)), 100);
        assert_eq!(eng.vertex_of_label(100), Some(VertexId(0)));
    }

    #[test]
    fn label_lookup_agrees_with_the_scan() {
        use ctc_truss::snapshot::vertex_of_label;
        // Unsorted, with the extremes and a repeated label (the scan
        // answers its lowest id, and so must the binary search).
        let table: Vec<u64> = vec![
            u64::MAX,
            40,
            0,
            7,
            40,
            1 << 40,
            3,
            99,
            12,
            u64::MAX - 1,
            5,
            8,
        ];
        let snap = Snapshot::build(figure1_graph())
            .with_labels(table.clone())
            .unwrap();
        let eng = CommunityEngine::from_snapshot(snap);
        let clone = eng.clone();
        assert!(Arc::ptr_eq(&eng.labels, &clone.labels), "clones share");
        let n = eng.graph().num_vertices();
        let probes = table
            .iter()
            .flat_map(|&l| [l, l.wrapping_add(1), l.wrapping_sub(1)])
            .chain([1, 2, 4, 6, 11, 41, 1000, u64::MAX - 2]);
        for label in probes {
            assert_eq!(
                clone.vertex_of_label(label),
                vertex_of_label(&table, n, label),
                "label {label}"
            );
        }
        assert_eq!(eng.vertex_of_label(40), Some(VertexId(1)));
        assert_eq!(eng.resolve_labels(&[0, 6]), Err(6), "missing label");
        // Identity engines resolve arithmetically, index or no index.
        let bare = engine();
        assert_eq!(bare.vertex_of_label(11), Some(VertexId(11)));
        assert_eq!(bare.vertex_of_label(12), None);
        assert_eq!(bare.vertex_of_label(u64::MAX), None);
    }

    #[test]
    fn mutation_republishes_and_readers_keep_their_view() {
        let mut eng = engine();
        let reader = eng.frozen_clone();
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let before = reader.search(&q, SearchAlgo::Basic).unwrap();
        let rep = eng.delete_edge(f.q1, f.q2).unwrap();
        assert!(rep.max_class >= rep.edge_truss);
        // The mutated engine serves the new graph…
        assert_eq!(eng.graph().num_edges(), 24);
        let after = eng.search(&q, SearchAlgo::Basic).unwrap();
        // …and matches a cold engine built from the mutated edge list.
        let cold = CommunityEngine::build(eng.graph().clone());
        let cold_after = cold.search(&q, SearchAlgo::Basic).unwrap();
        assert_eq!(after.vertices, cold_after.vertices);
        assert_eq!(after.k, cold_after.k);
        // The reader clone still sees the pre-update world, consistently.
        assert_eq!(reader.graph().num_edges(), 25);
        let still = reader.search(&q, SearchAlgo::Basic).unwrap();
        assert_eq!(still.vertices, before.vertices);
        // Undo restores the original index byte for byte.
        eng.insert_edge(f.q1, f.q2).unwrap();
        assert_eq!(
            eng.index().edge_truss_slice(),
            reader.index().edge_truss_slice()
        );
    }

    #[test]
    fn batch_isolates_rejections_and_counts() {
        let mut eng = engine();
        let f = Figure1Ids::default();
        let updates = vec![
            EngineUpdate::delete(f.q1, f.q2),                 // ok
            EngineUpdate::delete(f.q1, f.q2),                 // now missing
            EngineUpdate::insert(f.q1, f.q2),                 // ok (restores)
            EngineUpdate::insert(f.q1, f.q2),                 // duplicate
            EngineUpdate::insert(VertexId(0), VertexId(999)), // out of range
            EngineUpdate::insert(f.t, f.t),                   // self-loop
        ];
        let rep = eng.apply_batch(&updates).unwrap();
        assert_eq!(rep.applied, 2);
        assert_eq!(rep.rejected, 4);
        assert_eq!(rep.results.len(), 6);
        assert!(rep.results[0].is_ok());
        assert!(matches!(
            rep.results[1],
            Err(GraphError::MissingEdge { .. })
        ));
        assert!(rep.results[2].is_ok());
        assert!(matches!(
            rep.results[3],
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(matches!(
            rep.results[4],
            Err(GraphError::VertexOutOfRange { vertex: 999, .. })
        ));
        assert!(matches!(rep.results[5], Err(GraphError::SelfLoop { v }) if v == f.t.0));
        // Net effect: nothing changed.
        let cold = CommunityEngine::build(figure1_graph());
        assert_eq!(
            eng.index().edge_truss_slice(),
            cold.index().edge_truss_slice()
        );
    }

    #[test]
    fn all_rejected_batch_publishes_nothing() {
        let mut eng = engine();
        let g0 = Arc::clone(&eng.graph);
        let rep = eng
            .apply_batch(&[EngineUpdate::insert(VertexId(0), VertexId(0))])
            .unwrap();
        assert_eq!(rep.applied, 0);
        assert_eq!(rep.max_class, 0);
        // No republication happened: same Arc.
        assert!(Arc::ptr_eq(&g0, &eng.graph));
    }

    #[test]
    fn algo_parses_cli_spellings() {
        assert_eq!("basic".parse(), Ok(SearchAlgo::Basic));
        assert_eq!("bd".parse(), Ok(SearchAlgo::BulkDelete));
        assert_eq!("lctc".parse(), Ok(SearchAlgo::Local));
        assert_eq!("truss".parse(), Ok(SearchAlgo::TrussOnly));
        assert!("nope".parse::<SearchAlgo>().is_err());
    }
}
