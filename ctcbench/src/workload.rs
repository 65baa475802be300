//! The four workloads, the graphs they run on, and the seeded request
//! sequences they send.
//!
//! Every sequence a run draws from is a pure function of `--seed`: the
//! query pool, the Zipf and tenant draws, the Poisson arrival offsets, the
//! unique cold-query stream and the update edges. Time decides only how
//! far into each sequence a timed phase gets before its share of
//! `--seconds` runs out. The reference queries are the one fixed input:
//! the same for every seed.

use crate::rng::{derive, exp_gap, shuffle, splitmix64, zipf_weights, Quota};
use crate::strata::{ClassOrder, Strata};
use ctc_core::{CommunityEngine, SearchAlgo};
use ctc_gen::networks::{dblp_like, facebook_like};
use ctc_gen::{DegreeRank, QueryGenerator};
use ctc_graph::{CsrGraph, VertexId};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant names (`/t/<name>/...`); a tenant's index is also the index of
/// its graph in [`Fixture::tenants`].
pub const TENANTS: [&str; 2] = ["fb", "dblp"];

/// The tenants update batches take turns on: three `fb` batches to one
/// `dblp` batch. A dblp batch republishes the larger graph and takes about
/// twice as long as an fb one; taking turns one to one would put the
/// median between the two kinds and let it jump from one to the other
/// from run to run, where 3:1 puts the median among fb batches and the
/// 90th percentile among dblp ones.
pub const UPDATE_TURNS: [usize; 4] = [0, 0, 0, 1];

/// Distinct `(query, algo)` entries per tenant in the hot pool.
pub const POOL_PER_TENANT: usize = 128;

/// Zipf exponent of pool popularity.
pub const ZIPF_S: f64 = 1.0;

/// Shares of `--seconds` given to the serving workloads' open loop (its
/// arrival count is the rate times this share) and closed loop.
pub const OPEN_SHARE: f64 = 0.75;
/// See [`OPEN_SHARE`].
pub const CLOSED_SHARE: f64 = 0.25;

/// Edges a trussness class needs before updates draw from it.
pub const MIN_CLASS_EDGES: usize = 100;

/// Update batches timed after the search phases of the workloads that
/// write nothing beside their searches: enough for 12 beyond the 90th
/// percentile.
pub const UPDATE_BATCHES: usize = 120;

/// Reference queries per tenant: the fixed set whose answers give
/// `query_dist_mean` and are checked against a cold engine.
pub const REFERENCE_PER_TENANT: usize = 32;

/// Seed of the reference queries. It is fixed, not drawn from `--seed`,
/// so `query_dist_mean` is the same number on every run of the same code,
/// and any change to it is a change to the answers.
pub const REFERENCE_SEED: u64 = 0x00c0_ffee_d15c;

/// Fresh server starts (or engine builds) whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 9;

/// A workload name from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf pool that fits the answer cache: nearly every search hits.
    ServeHot,
    /// Unique queries: every search misses and runs the engine.
    ServeCold,
    /// The hot pool with `/update` batches beside it.
    ServeMixed,
    /// No socket: `CommunityEngine::search` back to back.
    EngineDirect,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeMixed,
        Workload::EngineDirect,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::ServeMixed => "serve-mixed",
            Workload::EngineDirect => "engine-direct",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The frozen load shape: Poisson search arrivals per second in the
    /// open loop, and one `/update` batch after every so many searches
    /// (`0` for none).
    pub fn spec(self) -> (f64, usize) {
        match self {
            Workload::ServeHot => (1000.0, 0),
            Workload::ServeCold => (30.0, 0),
            Workload::ServeMixed => (30.0, 4),
            Workload::EngineDirect => (0.0, 0),
        }
    }
}

/// One request of a workload, with its wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A `/t/<tenant>/search` request.
    Search(SearchOp),
    /// A `/t/<tenant>/update` batch.
    Update(UpdateOp),
}

/// A search: query labels (sorted), algorithm and the JSON body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOp {
    /// Index into [`TENANTS`].
    pub tenant: usize,
    /// Identity of the answer: equal keys ask the same question.
    pub key: u64,
    /// Query labels, sorted (labels equal dense ids on these graphs).
    pub labels: Vec<u64>,
    /// The algorithm.
    pub algo: SearchAlgo,
    /// The query's class (see [`crate::strata`]).
    pub class: u8,
    /// The `/search` body.
    pub body: String,
}

/// An update batch: `(insert, u, v)` edge ops and the JSON body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateOp {
    /// Index into [`TENANTS`].
    pub tenant: usize,
    /// The edge ops in batch order.
    pub ops: Vec<(bool, u64, u64)>,
    /// The `/update` body.
    pub body: String,
}

impl Op {
    /// The tenant the request addresses.
    pub fn tenant(&self) -> usize {
        match self {
            Op::Search(s) => s.tenant,
            Op::Update(u) => u.tenant,
        }
    }

    /// The exact HTTP/1.1 keep-alive request bytes.
    pub fn http_bytes(&self) -> Vec<u8> {
        let (endpoint, body) = match self {
            Op::Search(s) => ("search", &s.body),
            Op::Update(u) => ("update", &u.body),
        };
        format!(
            "POST /t/{}/{endpoint} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            TENANTS[self.tenant()],
            body.len()
        )
        .into_bytes()
    }
}

/// The wire spelling of an algorithm; LCTC is the server default and is
/// sent by omission.
fn algo_field(algo: SearchAlgo) -> &'static str {
    match algo {
        SearchAlgo::Basic => r#","algo":"basic""#,
        SearchAlgo::BulkDelete => r#","algo":"bd""#,
        SearchAlgo::Local => "",
        SearchAlgo::TrussOnly => r#","algo":"truss""#,
    }
}

/// Short algorithm name used in metric names.
pub fn algo_name(algo: SearchAlgo) -> &'static str {
    match algo {
        SearchAlgo::Basic => "basic",
        SearchAlgo::BulkDelete => "bd",
        SearchAlgo::Local => "lctc",
        SearchAlgo::TrussOnly => "truss",
    }
}

/// The serving algorithm mix, stratified so every 20 consecutive entries
/// hold exactly 12 LCTC, 5 BulkDelete and 3 Truss: the mix never varies
/// with the seed, only the queries do.
pub fn serving_algo(i: usize) -> SearchAlgo {
    match (i * 7) % 20 {
        0..=11 => SearchAlgo::Local,
        12..=16 => SearchAlgo::BulkDelete,
        _ => SearchAlgo::TrussOnly,
    }
}

/// `engine-direct`'s cycle of `(tenant, algo)`: Basic, BulkDelete, LCTC
/// and Truss on fb; BulkDelete, LCTC and Truss on dblp (uncapped Basic on
/// dblp is the paper's "Inf" case).
pub const DIRECT_CYCLE: [(usize, SearchAlgo); 7] = [
    (0, SearchAlgo::Basic),
    (0, SearchAlgo::BulkDelete),
    (0, SearchAlgo::Local),
    (0, SearchAlgo::TrussOnly),
    (1, SearchAlgo::BulkDelete),
    (1, SearchAlgo::Local),
    (1, SearchAlgo::TrussOnly),
];

/// One served graph: the preset, its cold engine, and its snapshot file.
pub struct Tenant {
    /// Tenant name.
    pub name: &'static str,
    /// The preset graph.
    pub graph: CsrGraph,
    /// An engine built cold from the graph: the correctness reference.
    pub engine: CommunityEngine,
    /// Query classes of the graph.
    pub strata: Strata,
    /// The `.ctci` snapshot path-backed tenants load.
    pub snapshot: PathBuf,
    /// Wall time of `CommunityEngine::build`.
    pub build_time: Duration,
    /// Wall time of `CommunityEngine::load` of the snapshot.
    pub load_time: Duration,
}

/// Both tenants' graphs, engines and snapshots.
pub struct Fixture {
    /// `fb` (4K vertices / 87K edges) and `dblp` (32K / 128K).
    pub tenants: [Tenant; 2],
}

impl Fixture {
    /// Generates the `facebook` and `dblp` presets, builds their indexes
    /// and writes their snapshots into `dir`.
    pub fn prepare(dir: &Path) -> Result<Fixture, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let make = |name: &'static str, graph: CsrGraph| -> Result<Tenant, String> {
            let t = Instant::now();
            let engine = CommunityEngine::build(graph.clone());
            let build_time = t.elapsed();
            let snapshot = dir.join(format!("{name}.ctci"));
            engine
                .save(&snapshot)
                .map_err(|e| format!("saving {}: {e}", snapshot.display()))?;
            let t = Instant::now();
            CommunityEngine::load(&snapshot)
                .map_err(|e| format!("loading {}: {e}", snapshot.display()))?;
            let load_time = t.elapsed();
            let strata = Strata::new(&graph, engine.index());
            Ok(Tenant {
                name,
                graph,
                engine,
                strata,
                snapshot,
                build_time,
                load_time,
            })
        };
        Ok(Fixture {
            tenants: [
                make(TENANTS[0], facebook_like().data.graph)?,
                make(TENANTS[1], dblp_like().data.graph)?,
            ],
        })
    }
}

/// Builds a search op for `q` on `tenant`.
fn search_op(tenant: usize, key: u64, q: &[VertexId], algo: SearchAlgo, class: u8) -> SearchOp {
    let mut labels: Vec<u64> = q.iter().map(|v| u64::from(v.0)).collect();
    labels.sort_unstable();
    let list: Vec<String> = labels.iter().map(u64::to_string).collect();
    SearchOp {
        tenant,
        key,
        body: format!(r#"{{"query":[{}]{}}}"#, list.join(","), algo_field(algo)),
        labels,
        algo,
        class,
    }
}

/// One graph's side of a [`QueryStream`].
struct GraphDraws<'f> {
    gen: QueryGenerator<'f>,
    strata: &'f Strata,
    /// Drawn queries not used yet, by class.
    spare: BTreeMap<u8, VecDeque<Vec<VertexId>>>,
    /// The class order of each algorithm's queries.
    orders: [ClassOrder; 4],
}

/// Position of an algorithm in [`GraphDraws::orders`].
fn algo_slot(algo: SearchAlgo) -> usize {
    match algo {
        SearchAlgo::Basic => 0,
        SearchAlgo::BulkDelete => 1,
        SearchAlgo::Local => 2,
        SearchAlgo::TrussOnly => 3,
    }
}

/// Draws distinct `(tenant, query, algo)` searches: |Q| = 3, top-80%
/// degree rank, inter-distance 2 (the paper's §6 defaults). Each
/// `(tenant, algo)` takes its query classes in the fixed order of
/// [`Strata::order`]; the seed picks the queries within each class.
pub struct QueryStream<'f> {
    graphs: Vec<GraphDraws<'f>>,
    seen: HashSet<(usize, Vec<u64>, SearchAlgo)>,
    next_key: u64,
}

impl<'f> QueryStream<'f> {
    /// A stream over `fixture`'s graphs seeded by `seed` and `tag`.
    fn new(fixture: &'f Fixture, seed: u64, tag: u64) -> Self {
        QueryStream {
            graphs: fixture
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| GraphDraws {
                    gen: QueryGenerator::new(&t.graph, derive(seed, tag * 16 + i as u64)),
                    strata: &t.strata,
                    spare: BTreeMap::new(),
                    orders: std::array::from_fn(|_| t.strata.order()),
                })
                .collect(),
            seen: HashSet::new(),
            next_key: tag << 40,
        }
    }

    /// `engine-direct`'s stream.
    pub fn direct(fixture: &'f Fixture, seed: u64) -> Self {
        Self::new(fixture, seed, 7)
    }

    /// Marks a search as already asked, so the stream never repeats it.
    pub fn exclude(&mut self, op: &SearchOp) {
        self.seen.insert((op.tenant, op.labels.clone(), op.algo));
    }

    /// The next never-seen query on `tenant` answered by `algo`, in the
    /// class its order names next.
    pub fn next(&mut self, tenant: usize, algo: SearchAlgo) -> SearchOp {
        let class = self.graphs[tenant].orders[algo_slot(algo)].next_class();
        self.next_in(tenant, algo, class)
    }

    /// The next never-seen query of `class` on `tenant`.
    fn next_in(&mut self, tenant: usize, algo: SearchAlgo, class: u8) -> SearchOp {
        let g = &mut self.graphs[tenant];
        loop {
            let Some(q) = g.spare.get_mut(&class).and_then(VecDeque::pop_front) else {
                let q = g
                    .gen
                    .sample(3, DegreeRank::top(0.8), 2)
                    .expect("presets always yield |Q|=3, l=2 queries");
                g.spare
                    .entry(g.strata.class_of(&q))
                    .or_default()
                    .push_back(q);
                continue;
            };
            let op = search_op(tenant, self.next_key, &q, algo, class);
            if self.seen.insert((tenant, op.labels.clone(), algo)) {
                self.next_key += 1;
                return op;
            }
        }
    }
}

/// The popularity-ranked pool: [`POOL_PER_TENANT`] distinct entries per
/// tenant, tenant-major, rank 0 most popular. Rank `j` has algorithm
/// [`serving_algo`]`(j)` and a class fixed by the class orders, so the
/// popular head asks the same kind of question for every seed.
pub fn query_pool(fixture: &Fixture, seed: u64) -> Vec<Arc<Op>> {
    let mut stream = QueryStream::new(fixture, seed, 1);
    (0..TENANTS.len())
        .flat_map(|t| (0..POOL_PER_TENANT).map(move |j| (t, j)))
        .map(|(t, j)| Arc::new(Op::Search(stream.next(t, serving_algo(j)))))
        .collect()
}

/// The set-up probe: one Truss search per tenant in its cheapest class,
/// never part of a pool or stream, so a start costs the same for every
/// seed.
pub fn setup_probes(fixture: &Fixture, seed: u64) -> Vec<SearchOp> {
    let mut stream = QueryStream::new(fixture, seed, 2);
    (0..TENANTS.len())
        .map(|t| {
            let class = fixture.tenants[t].strata.smallest_class();
            stream.next_in(t, SearchAlgo::TrussOnly, class)
        })
        .collect()
}

/// The reference queries, the same for every `--seed`:
/// [`REFERENCE_PER_TENANT`] per tenant in the workload's algorithm mix
/// (the serving mix, or [`DIRECT_CYCLE`] for `engine-direct`), each
/// tenant taking its classes in its fixed order. They are asked after the
/// timed phases and after every deleted edge is back, so their answers
/// are those of the unchanged graphs.
pub fn reference_queries(fixture: &Fixture, workload: Workload) -> Vec<Arc<Op>> {
    let mut stream = QueryStream::new(fixture, REFERENCE_SEED, 3);
    let total = REFERENCE_PER_TENANT * TENANTS.len();
    let picks: Vec<(usize, SearchAlgo)> = match workload {
        Workload::EngineDirect => DIRECT_CYCLE.iter().copied().cycle().take(total).collect(),
        _ => (0..total)
            .map(|i| (i % TENANTS.len(), serving_algo(i / TENANTS.len())))
            .collect(),
    };
    picks
        .into_iter()
        .map(|(t, algo)| Arc::new(Op::Search(stream.next(t, algo))))
        .collect()
}

/// A source of requests for one phase. It answers with the request's due
/// offset in seconds for open-loop phases, `None` for closed-loop ones;
/// `None` overall ends the phase.
pub trait Source {
    /// The next request.
    fn next(&mut self) -> Option<(Option<f64>, Arc<Op>)>;
}

/// Replays a fixed list back to back.
pub struct ListSource(pub std::vec::IntoIter<Arc<Op>>);

impl Source for ListSource {
    fn next(&mut self) -> Option<(Option<f64>, Arc<Op>)> {
        self.0.next().map(|op| (None, op))
    }
}

/// Draws over the pool: the tenants in turn, a Zipf popularity rank, then a
/// uniform entry among those with the rank's algorithm and class.
///
/// Each rank stands for a kind of question (algorithm × class) rather
/// than one query: the few ranks at the head take most draws, and if each
/// were one query, the answer sizes of a handful of seeded queries would
/// set a whole run's latencies. Spread over their kind, the head's cost
/// is an average over dozens of queries, and it stays the same from seed
/// to seed.
///
/// The ranks follow their Zipf shares exactly ([`Quota`]), in blocks of
/// [`RANK_BLOCK`] shuffled by the seed: drawn independently, the share of
/// slow `bd` requests among 400 draws moves by a tenth from run to run,
/// and the queueing behind them moves every latency percentile with it.
pub struct PoolDraws {
    pool: Vec<Arc<Op>>,
    /// Pool indices sharing each entry's tenant, algorithm and class.
    kind: Vec<Arc<Vec<usize>>>,
    ranks: Quota,
    /// The current shuffled block of ranks, drawn from the back.
    block: Vec<usize>,
    rng: u64,
    /// Draws so far: the tenants take turns.
    count: usize,
}

/// Ranks shuffled together in [`PoolDraws`].
pub const RANK_BLOCK: usize = 64;

impl PoolDraws {
    /// Draws over `pool` seeded by `seed` and `tag`.
    fn new(pool: &[Arc<Op>], seed: u64, tag: u64) -> Self {
        let mut kinds: BTreeMap<(usize, usize, u8), Vec<usize>> = BTreeMap::new();
        let keys: Vec<(usize, usize, u8)> = pool
            .iter()
            .map(|op| match &**op {
                Op::Search(s) => (s.tenant, algo_slot(s.algo), s.class),
                Op::Update(_) => unreachable!("the pool holds searches"),
            })
            .collect();
        for (i, key) in keys.iter().enumerate() {
            kinds.entry(*key).or_default().push(i);
        }
        let kinds: BTreeMap<_, _> = kinds.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        PoolDraws {
            pool: pool.to_vec(),
            kind: keys.iter().map(|k| Arc::clone(&kinds[k])).collect(),
            ranks: Quota::new(&zipf_weights(POOL_PER_TENANT, ZIPF_S)),
            block: Vec::new(),
            rng: derive(seed, tag),
            count: 0,
        }
    }

    fn draw(&mut self) -> Arc<Op> {
        let tenant = self.count % TENANTS.len();
        self.count += 1;
        if self.block.is_empty() {
            self.block = (0..RANK_BLOCK).map(|_| self.ranks.next_index()).collect();
            shuffle(&mut self.block, &mut self.rng);
        }
        let rank = self.block.pop().expect("refilled above");
        let kind = &self.kind[tenant * POOL_PER_TENANT + rank];
        let pick = kind[(splitmix64(&mut self.rng) % kind.len() as u64) as usize];
        Arc::clone(&self.pool[pick])
    }
}

/// Unique searches in the serving mix, alternating tenants.
pub struct ColdDraws<'f> {
    stream: QueryStream<'f>,
    count: usize,
}

impl<'f> ColdDraws<'f> {
    /// A unique stream that also avoids every search in `exclude`.
    fn new(fixture: &'f Fixture, seed: u64, tag: u64, exclude: &[SearchOp]) -> Self {
        let mut stream = QueryStream::new(fixture, seed, tag);
        for op in exclude {
            stream.exclude(op);
        }
        ColdDraws { stream, count: 0 }
    }

    fn draw(&mut self) -> Arc<Op> {
        let i = self.count;
        self.count += 1;
        Arc::new(Op::Search(
            self.stream
                .next(i % TENANTS.len(), serving_algo(i / TENANTS.len())),
        ))
    }
}

/// What a search phase draws from.
pub enum Draws<'f> {
    /// The hot pool.
    Pool(PoolDraws),
    /// Never-repeating queries.
    Cold(ColdDraws<'f>),
}

impl<'f> Draws<'f> {
    /// Zipf draws over the hot pool.
    pub fn hot(pool: &[Arc<Op>], seed: u64) -> Self {
        Draws::Pool(PoolDraws::new(pool, seed, 6))
    }

    /// The never-repeating stream, which also avoids every search in
    /// `exclude`.
    pub fn cold(fixture: &'f Fixture, seed: u64, exclude: &[SearchOp]) -> Self {
        Draws::Cold(ColdDraws::new(fixture, seed, 5, exclude))
    }

    fn draw(&mut self) -> Arc<Op> {
        match self {
            Draws::Pool(p) => p.draw(),
            Draws::Cold(c) => c.draw(),
        }
    }
}

/// Update batches beside the searches: one after every `every` searches
/// over the whole run, in whichever loop draws them; none when `every` is
/// 0.
pub struct Writes {
    chain: UpdateChain,
    every: usize,
    searches: usize,
}

impl Writes {
    /// One batch from `chain` per `every` searches.
    pub fn new(chain: UpdateChain, every: usize) -> Self {
        Writes {
            chain,
            every,
            searches: 0,
        }
    }

    /// Counts one search; `true` when a batch follows it.
    fn after_search(&mut self) -> bool {
        self.searches += 1;
        self.every > 0 && self.searches.is_multiple_of(self.every)
    }

    /// `true` when batches go beside the searches.
    pub fn beside_searches(&self) -> bool {
        self.every > 0
    }

    fn batch(&mut self) -> Arc<Op> {
        Arc::new(Op::Update(self.chain.next()))
    }

    /// The next `n` batches of the chain, to send on their own.
    pub fn batches(&mut self, n: usize) -> Vec<Arc<Op>> {
        (0..n).map(|_| self.batch()).collect()
    }

    /// The batches that restore every edge the writes deleted.
    pub fn restore(&mut self) -> Vec<Arc<Op>> {
        self.chain.restore()
    }
}

/// Open loop: a fixed number of Poisson search arrivals at `rate`, each
/// [`Writes`] batch due halfway between the search it follows and the next
/// one, so it meets whatever the server is still doing rather than a
/// search sent at the same instant.
///
/// The count, not a horizon, ends the loop: every seed sends the same
/// number of searches, so what the server holds afterwards (its cached
/// answers) does not move with the seed's arrival count.
pub struct OpenSource<'a, 'f> {
    draws: &'a mut Draws<'f>,
    writes: &'a mut Writes,
    rate: f64,
    rng: u64,
    next_search: f64,
    /// Searches still to send.
    left: usize,
    /// Due time of the batch that follows the last search.
    write: Option<f64>,
}

impl<'a, 'f> OpenSource<'a, 'f> {
    /// `searches` arrivals seeded by `seed`.
    pub fn new(
        draws: &'a mut Draws<'f>,
        writes: &'a mut Writes,
        rate: f64,
        seed: u64,
        searches: usize,
    ) -> Self {
        let mut rng = derive(seed, 3);
        let next_search = exp_gap(&mut rng, rate);
        OpenSource {
            draws,
            writes,
            rate,
            rng,
            next_search,
            left: searches,
            write: None,
        }
    }
}

impl Source for OpenSource<'_, '_> {
    fn next(&mut self) -> Option<(Option<f64>, Arc<Op>)> {
        if let Some(due) = self.write.take() {
            return Some((Some(due), self.writes.batch()));
        }
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let due = self.next_search;
        self.next_search += exp_gap(&mut self.rng, self.rate);
        if self.writes.after_search() {
            self.write = Some((due + self.next_search) / 2.0);
        }
        Some((Some(due), self.draws.draw()))
    }
}

/// Closed loop: draws sent as soon as a connection is free until `until`,
/// with [`Writes`] batches after their searches.
pub struct ClosedSource<'a, 'f> {
    draws: &'a mut Draws<'f>,
    writes: &'a mut Writes,
    until: Instant,
    write: bool,
}

impl<'a, 'f> ClosedSource<'a, 'f> {
    /// Draws from `draws` until `until`, with `writes` beside them.
    pub fn new(draws: &'a mut Draws<'f>, writes: &'a mut Writes, until: Instant) -> Self {
        ClosedSource {
            draws,
            writes,
            until,
            write: false,
        }
    }
}

impl Source for ClosedSource<'_, '_> {
    fn next(&mut self) -> Option<(Option<f64>, Arc<Op>)> {
        if std::mem::take(&mut self.write) {
            return Some((None, self.writes.batch()));
        }
        if Instant::now() >= self.until {
            return None;
        }
        self.write = self.writes.after_search();
        Some((None, self.draws.draw()))
    }
}

/// Seeded delete/restore update batches, the tenants taking
/// [`UPDATE_TURNS`]. Each batch deletes two edges and restores the two the
/// tenant's previous batch deleted, so every op applies and the graph
/// drifts by at most two edges; [`Self::restore`] puts everything back.
///
/// Edges are drawn from one trussness class per graph: the lowest class
/// of at least 4 that holds [`MIN_CLASS_EDGES`] edges. Trussness ≥ 4
/// puts each edge on two edge-disjoint triangles, so removing any two
/// such edges never disconnects the graph and no query ever fails for
/// lack of a path; one fixed class makes every batch invalidate the same
/// answer classes, whatever the seed.
pub struct UpdateChain {
    candidates: Vec<Vec<(u64, u64)>>,
    /// Edges each graph's tenant has deleted and not restored.
    deleted: [Vec<(u64, u64)>; 2],
    rng: u64,
    batches: usize,
}

impl UpdateChain {
    /// A chain seeded by `seed`.
    pub fn new(fixture: &Fixture, seed: u64) -> Self {
        let candidates = fixture
            .tenants
            .iter()
            .map(|t| {
                let truss = |e| t.engine.index().edge_truss(e);
                let mut per_class = BTreeMap::<u32, usize>::new();
                for (e, _, _) in t.graph.edges() {
                    *per_class.entry(truss(e)).or_default() += 1;
                }
                let class = per_class
                    .iter()
                    .find(|&(&k, &n)| k >= 4 && n >= MIN_CLASS_EDGES)
                    .map(|(&k, _)| k)
                    .expect("presets have a populated class of trussness >= 4");
                t.graph
                    .edges()
                    .filter(|&(e, _, _)| truss(e) == class)
                    .map(|(_, u, v)| (u64::from(u.0), u64::from(v.0)))
                    .collect::<Vec<_>>()
            })
            .collect();
        UpdateChain {
            candidates,
            deleted: Default::default(),
            rng: derive(seed, 8),
            batches: 0,
        }
    }

    /// The next batch.
    pub fn next(&mut self) -> UpdateOp {
        let tenant = UPDATE_TURNS[self.batches % UPDATE_TURNS.len()];
        self.batches += 1;
        let cands = &self.candidates[tenant];
        let mut fresh: Vec<(u64, u64)> = Vec::with_capacity(2);
        while fresh.len() < 2 {
            let e = cands[(splitmix64(&mut self.rng) % cands.len() as u64) as usize];
            if !fresh.contains(&e) && !self.deleted[tenant].contains(&e) {
                fresh.push(e);
            }
        }
        let restore = std::mem::replace(&mut self.deleted[tenant], fresh.clone());
        let ops = fresh
            .iter()
            .map(|&(u, v)| (false, u, v))
            .chain(restore.iter().map(|&(u, v)| (true, u, v)))
            .collect();
        update_op(tenant, ops)
    }

    /// The batches that restore every deleted edge.
    pub fn restore(&mut self) -> Vec<Arc<Op>> {
        (0..TENANTS.len())
            .filter_map(|tenant| {
                let back = std::mem::take(&mut self.deleted[tenant]);
                (!back.is_empty()).then(|| {
                    let ops = back.iter().map(|&(u, v)| (true, u, v)).collect();
                    Arc::new(Op::Update(update_op(tenant, ops)))
                })
            })
            .collect()
    }
}

fn update_op(tenant: usize, ops: Vec<(bool, u64, u64)>) -> UpdateOp {
    let list: Vec<String> = ops
        .iter()
        .map(|&(insert, u, v)| {
            let op = if insert { "insert" } else { "delete" };
            format!(r#"{{"op":"{op}","u":{u},"v":{v}}}"#)
        })
        .collect();
    UpdateOp {
        tenant,
        body: format!(r#"{{"updates":[{}]}}"#, list.join(",")),
        ops,
    }
}
