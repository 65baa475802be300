//! The traced run's replay: the request sequence a run sent, executed
//! again in-process through the public layer functions, with a span
//! around each call, and once more through `AppState::respond`.
//!
//! Spans live in memory and are written as JSON lines when the replay
//! ends. A layer's self time is its span minus the spans it caused. The
//! replay keeps its own answer cache (the server's capacity, keyed on
//! `SearchRequest::key()`) and its own `DynamicIndex` per tenant, and
//! requires every response it assembles to be byte-identical to what
//! `AppState::respond` answers for the same bytes, so the stages it
//! times are the stages the server runs.

use crate::outcome::{Outcome, Phase};
use crate::serve::serve_config;
use crate::stats::{mean, median, percentile, us, Metrics};
use crate::workload::{algo_name, Fixture, Op, SearchOp, UpdateOp, Workload, TENANTS};
use ctc_core::{CommunityEngine, EngineUpdate, SearchAlgo};
use ctc_server::http::{parse_request, Parse, Request, Response, DEFAULT_MAX_BODY};
use ctc_server::{
    decode_search_request, decode_update_request, encode_community, encode_update_response,
    AppState, LruCache, QueryKey, UpdateOutcome,
};
use ctc_truss::{DynamicIndex, Snapshot};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics `--trace 1` prints, in `BENCHMARK.json` order.
/// The first five are the client's, from the measured run.
pub const PER_LAYER: [&str; 45] = [
    "search_p50_us",
    "search_p95_us",
    "capacity_rps",
    "update_p50_us",
    "update_p90_us",
    "engine.bd.locate_p50_us",
    "engine.bd.peel_p50_us",
    "engine.bd.finish_p50_us",
    "engine.bd.total_p50_us",
    "engine.lctc.locate_p50_us",
    "engine.lctc.peel_p50_us",
    "engine.lctc.finish_p50_us",
    "engine.lctc.total_p50_us",
    "engine.truss.locate_p50_us",
    "engine.truss.finish_p50_us",
    "engine.truss.total_p50_us",
    "engine.bd.g0_edges_mean",
    "engine.lctc.g0_edges_mean",
    "engine.truss.g0_edges_mean",
    "engine.bd.iterations_mean",
    "engine.lctc.iterations_mean",
    "http.parse_p50_us",
    "wire.decode_p50_us",
    "engine.resolve_p50_us",
    "cache.lookup_p50_us",
    "wire.encode_p50_us",
    "cache.insert_p50_us",
    "http.encode_p50_us",
    "wire.body_bytes_mean",
    "cache.hit_ratio",
    "server.respond_p50_us",
    "server.respond_p95_us",
    "wire.decode_update_p50_us",
    "dynamic.repair_p50_us",
    "dynamic.materialize_p50_us",
    "engine.frozen_clone_p50_us",
    "cache.retain_p50_us",
    "cache.invalidated_mean",
    "snapshot.load_ms.fb",
    "snapshot.load_ms.dblp",
    "index.build_ms.fb",
    "index.build_ms.dblp",
    "engine.memory_bytes.fb",
    "engine.memory_bytes.dblp",
    "trace.unattributed_p50_us",
];

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `cache.lookup`.
    pub name: &'static str,
    /// Request id: the request's position in the run's send order.
    pub req: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Start, µs since the replay began.
    pub start: f64,
    /// End, µs since the replay began.
    pub end: f64,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Times the program reports itself, µs (the engine's totals).
    times: BTreeMap<&'static str, Vec<f64>>,
    /// Counted values per name (bytes, edges, iterations, ...).
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    fn at(&self, t: Instant) -> f64 {
        us(t.saturating_duration_since(self.epoch))
    }

    fn open(&mut self, name: &'static str, req: u32, parent: Option<u32>) -> u32 {
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent,
            start: now,
            end: now,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end = self.at(Instant::now());
    }

    fn time<T>(&mut self, name: &'static str, req: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, req, Some(parent));
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    fn count(&mut self, name: &'static str, v: f64) {
        self.counts.entry(name).or_default().push(v);
    }
}

/// Span names of one algorithm's search call and its three phases.
fn engine_spans(algo: SearchAlgo) -> [&'static str; 4] {
    match algo {
        SearchAlgo::Basic => [
            "engine.basic",
            "engine.basic.locate",
            "engine.basic.peel",
            "engine.basic.finish",
        ],
        SearchAlgo::BulkDelete => [
            "engine.bd",
            "engine.bd.locate",
            "engine.bd.peel",
            "engine.bd.finish",
        ],
        SearchAlgo::Local => [
            "engine.lctc",
            "engine.lctc.locate",
            "engine.lctc.peel",
            "engine.lctc.finish",
        ],
        SearchAlgo::TrussOnly => [
            "engine.truss",
            "engine.truss.locate",
            "engine.truss.peel",
            "engine.truss.finish",
        ],
    }
}

/// Per-algorithm series: total µs, `G0` edges, peel iterations.
fn engine_values(algo: SearchAlgo) -> [&'static str; 3] {
    match algo {
        SearchAlgo::Basic => [
            "engine.basic.total",
            "engine.basic.g0_edges",
            "engine.basic.iterations",
        ],
        SearchAlgo::BulkDelete => [
            "engine.bd.total",
            "engine.bd.g0_edges",
            "engine.bd.iterations",
        ],
        SearchAlgo::Local => [
            "engine.lctc.total",
            "engine.lctc.g0_edges",
            "engine.lctc.iterations",
        ],
        SearchAlgo::TrussOnly => [
            "engine.truss.total",
            "engine.truss.g0_edges",
            "engine.truss.iterations",
        ],
    }
}

/// A tenant as the replay serves it: the current engine, the warm
/// maintenance state once updated, and the answer cache.
struct Replica {
    engine: CommunityEngine,
    dynamic: Option<DynamicIndex>,
    cache: LruCache<QueryKey, (u32, Arc<Vec<u8>>)>,
}

fn parse(bytes: &[u8]) -> Result<Request, String> {
    match parse_request(bytes, DEFAULT_MAX_BODY) {
        Ok(Parse::Complete(req, _)) => Ok(req),
        other => Err(format!("request did not parse: {other:?}")),
    }
}

/// `handle_search`'s stages, one span each. Returns the response bytes
/// and whether the cache answered.
fn search(
    tr: &mut Tracer,
    r: &mut Replica,
    root: u32,
    req: u32,
    bytes: &[u8],
) -> Result<(Vec<u8>, bool), String> {
    let request = tr.time("http.parse", req, root, || parse(bytes))?;
    let parsed = tr
        .time("wire.decode", req, root, || {
            decode_search_request(&request.body, r.engine.config())
        })
        .map_err(|e| e.message)?;
    let q = tr
        .time("engine.resolve", req, root, || {
            r.engine.resolve_labels(&parsed.labels)
        })
        .map_err(|l| format!("label {l} not in graph"))?;
    let key = parsed.key();
    if let Some((_, body)) = tr.time("cache.lookup", req, root, || r.cache.get(&key)) {
        let wire = tr.time("http.encode", req, root, || {
            Response::ok(body.as_ref().clone())
                .with_header("x-cache", "hit")
                .encode(false)
        });
        return Ok((wire, true));
    }
    let [call, locate, peel, finish] = engine_spans(parsed.algo);
    let span = tr.open(call, req, Some(root));
    let t0 = Instant::now();
    let engine = r.engine.clone().with_config(parsed.cfg.clone());
    let c = engine.search(&q, parsed.algo).map_err(|e| e.to_string())?;
    tr.close(span);
    // The engine reports its phases as durations: lay them end to end
    // from the call's start as child spans.
    let mut at = tr.at(t0);
    for (name, d) in [
        (locate, c.timings.locate),
        (peel, c.timings.peel),
        (finish, c.timings.finish),
    ] {
        tr.spans.push(Span {
            name,
            req,
            parent: Some(span),
            start: at,
            end: at + us(d),
        });
        at += us(d);
    }
    let [total, g0_edges, iterations] = engine_values(parsed.algo);
    tr.times.entry(total).or_default().push(us(c.timings.total));
    tr.count(g0_edges, c.g0_size.1 as f64);
    tr.count(iterations, c.iterations as f64);
    let body = tr.time("wire.encode", req, root, || {
        Arc::new(encode_community(&r.engine, &c))
    });
    tr.count("wire.body_bytes", body.len() as f64);
    tr.time("cache.insert", req, root, || {
        r.cache.insert(key, (c.k, Arc::clone(&body)))
    });
    let wire = tr.time("http.encode", req, root, || {
        Response::ok(body.as_ref().clone())
            .with_header("x-cache", "miss")
            .encode(false)
    });
    Ok((wire, false))
}

/// `handle_update`'s stages, one span each, with the maintenance split
/// into per-op repair and one materialization.
fn update(
    tr: &mut Tracer,
    r: &mut Replica,
    root: u32,
    req: u32,
    bytes: &[u8],
) -> Result<Vec<u8>, String> {
    let request = tr.time("http.parse", req, root, || parse(bytes))?;
    let batch = tr
        .time("wire.decode_update", req, root, || {
            decode_update_request(&request.body)
        })
        .map_err(|e| e.message)?;
    let ops = tr
        .time("engine.resolve", req, root, || {
            batch
                .ops
                .iter()
                .map(|op| {
                    let ends = r.engine.resolve_labels(&[op.u, op.v])?;
                    Ok(if op.insert {
                        EngineUpdate::insert(ends[0], ends[1])
                    } else {
                        EngineUpdate::delete(ends[0], ends[1])
                    })
                })
                .collect::<Result<Vec<_>, u64>>()
        })
        .map_err(|l| format!("label {l} not in graph"))?;
    if r.dynamic.is_none() {
        let engine = &r.engine;
        r.dynamic = Some(tr.time("dynamic.adopt", req, root, || {
            DynamicIndex::new(engine.graph(), engine.index())
        }));
    }
    let dynx = r.dynamic.as_mut().expect("adopted above");
    let mut outcomes = Vec::with_capacity(ops.len());
    let (mut applied, mut max_class) = (0u64, 0u32);
    for op in &ops {
        let res = tr.time("dynamic.repair", req, root, || {
            if op.insert {
                dynx.insert_edge(op.u, op.v)
            } else {
                dynx.delete_edge(op.u, op.v)
            }
        });
        outcomes.push(match res {
            Ok(rep) => {
                applied += 1;
                max_class = max_class.max(rep.max_class);
                UpdateOutcome::Applied {
                    trussness: rep.edge_truss,
                    changed: rep.changed as u64,
                }
            }
            Err(e) => UpdateOutcome::Rejected {
                error: e.to_string(),
            },
        });
    }
    if applied > 0 {
        let (graph, index) = tr
            .time("dynamic.materialize", req, root, || dynx.materialize())
            .map_err(|e| e.to_string())?;
        let labels = r.engine.labels().to_vec();
        let primary = CommunityEngine::from_snapshot(Snapshot {
            graph,
            index,
            labels,
        });
        r.engine = tr.time("engine.frozen_clone", req, root, || primary.frozen_clone());
        let before = r.cache.len();
        tr.time("cache.retain", req, root, || {
            r.cache
                .retain(|key, ans| key.algo != SearchAlgo::Local && ans.0 > max_class)
        });
        tr.count("cache.invalidated", (before - r.cache.len()) as f64);
    }
    let rejected = outcomes.len() as u64 - applied;
    Ok(tr.time("http.encode", req, root, || {
        Response::ok(encode_update_response(
            applied, rejected, max_class, &outcomes,
        ))
        .encode(false)
    }))
}

/// Replays `outcome`'s requests, writes the spans to `path` and returns
/// the per-layer metrics (in [`PER_LAYER`] order) and a report of every
/// span name and counted value.
pub fn replay(
    workload: Workload,
    fixture: &Fixture,
    outcome: &Outcome,
    path: &Path,
) -> Result<(Metrics, Metrics), String> {
    let cfg = serve_config();
    let app = AppState::new(
        CommunityEngine::build(ctc_truss::fixtures::figure1_graph()),
        &cfg,
    );
    let mut replicas: Vec<Replica> = TENANTS
        .iter()
        .zip(&fixture.tenants)
        .map(|(name, tenant)| {
            let engine = &tenant.engine;
            app.add_tenant_engine(name, engine.clone())?;
            Ok(Replica {
                engine: engine.clone(),
                dynamic: None,
                cache: LruCache::new(cfg.cache_cap),
            })
        })
        .collect::<Result<_, String>>()?;
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        times: BTreeMap::new(),
        counts: BTreeMap::new(),
    };
    // Hits are counted where searches are timed.
    let latency_phase = Phase::timed(workload);
    let (mut lookups, mut hits) = (0usize, 0usize);
    let mut unattributed = Vec::new();
    for (i, d) in outcome.records.iter().enumerate() {
        let req = i as u32;
        let bytes = d.op.http_bytes();
        let replica = &mut replicas[d.op.tenant()];
        // Whichever of the two executions runs second finds the caches
        // warm; alternating the order keeps that out of the comparison.
        let respond_first = i % 2 == 1;
        let respond = |tr: &mut Tracer| {
            let span = tr.open("server.respond", req, None);
            let served = std::hint::black_box(app.respond(&bytes));
            tr.close(span);
            (span, served)
        };
        let early = respond_first.then(|| respond(&mut tr));
        let root = tr.open("request", req, None);
        let assembled = match &*d.op {
            Op::Search(_) => search(&mut tr, replica, root, req, &bytes).map(|(wire, hit)| {
                if d.phase == latency_phase {
                    lookups += 1;
                    hits += usize::from(hit);
                }
                wire
            }),
            Op::Update(_) => update(&mut tr, replica, root, req, &bytes),
        };
        tr.close(root);
        let assembled = assembled.map_err(|e| format!("request {i}: {e}"))?;
        let (span, served) = match early {
            Some(done) => done,
            None => respond(&mut tr),
        };
        if served.as_deref() != Some(&assembled[..]) {
            return Err(format!(
                "request {i}: replayed stages disagree with AppState::respond"
            ));
        }
        let staged: f64 = tr.spans[root as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end - s.start)
            .sum();
        let s = &tr.spans[span as usize];
        unattributed.push(s.end - s.start - staged);
    }

    // Self time: each span minus the spans it caused.
    let mut child_time = vec![0.0f64; tr.spans.len()];
    for s in &tr.spans {
        if let Some(p) = s.parent {
            child_time[p as usize] += s.end - s.start;
        }
    }
    let mut times = std::mem::take(&mut tr.times);
    for (s, children) in tr.spans.iter().zip(&child_time) {
        times
            .entry(s.name)
            .or_default()
            .push(s.end - s.start - children);
    }
    write_jsonl(path, &tr.spans, outcome)?;

    let mut all = Metrics::default();
    for (name, v) in times.iter_mut() {
        all.put(format!("{name}_p50_us"), median(v), "us");
    }
    for (name, v) in &tr.counts {
        all.put(format!("{name}_mean"), mean(v), "count");
    }
    let respond = times
        .get_mut("server.respond")
        .ok_or("no request was replayed")?;
    all.put("server.respond_p95_us", percentile(respond, 0.95), "us");
    all.put(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    all.0.extend(outcome.client_times(workload).0);
    all.put("trace.unattributed_p50_us", median(&mut unattributed), "us");
    for t in &fixture.tenants {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        all.put(
            format!("snapshot.load_ms.{}", t.name),
            ms(t.load_time),
            "ms",
        );
        all.put(format!("index.build_ms.{}", t.name), ms(t.build_time), "ms");
        let bytes = t.engine.memory_bytes() as f64;
        all.put(format!("engine.memory_bytes.{}", t.name), bytes, "bytes");
    }
    let mut m = Metrics::default();
    for name in PER_LAYER {
        let &(_, value, unit) = all
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| format!("the trace has no {name}"))?;
        m.put(name, value, unit);
    }
    Ok((m, all))
}

/// Writes replay spans, then the run's client spans, one JSON object per
/// line.
fn write_jsonl(path: &Path, spans: &[Span], outcome: &Outcome) -> Result<(), String> {
    let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"span":{i},"name":"{}","req":{},"parent":{parent},"start_us":{:.3},"end_us":{:.3}}}"#,
            s.name, s.req, s.start, s.end
        )
        .map_err(err)?;
    }
    let epoch = outcome.records.iter().map(|d| d.due).min();
    for (i, d) in outcome.records.iter().enumerate() {
        let at = |t: Instant| us(t.saturating_duration_since(epoch.unwrap_or(t)));
        let kind = match &*d.op {
            Op::Search(SearchOp { algo, .. }) => algo_name(*algo),
            Op::Update(UpdateOp { .. }) => "update",
        };
        writeln!(
            w,
            r#"{{"client":{i},"tenant":"{}","kind":"{kind}","phase":"{}","due_us":{:.3},"sent_us":{:.3},"recv_us":{:.3},"status":{},"x_cache":"{}","bytes":{}}}"#,
            TENANTS[d.op.tenant()],
            d.phase.name(),
            at(d.due),
            at(d.sent),
            at(d.done),
            d.status,
            if d.hit { "hit" } else { "miss" },
            d.bytes
        )
        .map_err(err)?;
    }
    w.flush().map_err(err)
}
