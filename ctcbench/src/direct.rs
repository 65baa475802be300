//! `engine-direct`: the paper's library setting. One thread calls
//! `CommunityEngine::search` back to back over unique seeded queries; no
//! socket, no answer cache.
//!
//! After the timed searches, update batches go through
//! `CommunityEngine::apply_batch` on a copy of each engine, each followed
//! by the `frozen_clone` a serving writer publishes; then every deleted
//! edge is restored and the reference queries are asked of the maintained
//! copies.

use crate::outcome::{peak_rss_mb, Done, Outcome, Phase};
use crate::workload::{
    reference_queries, Fixture, Op, QueryStream, UpdateChain, Workload, DIRECT_CYCLE,
    SETUP_REPEATS, UPDATE_BATCHES,
};
use ctc_core::{Community, CommunityEngine, EngineUpdate};
use ctc_graph::VertexId;
use ctc_server::encode_community;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slices the timed searches are split into. The answers of one slice are
/// validated, untimed, before the next begins, so about five are held at
/// once and the peak memory depends little on which large answers a seed
/// draws together: with 32 slices `peak_rss_mb` spread 0.038 over ten
/// seeds, with 128 under 0.02.
const SLICES: u32 = 128;

/// Dense ids of a search's labels (labels equal ids on the presets).
fn query_of(labels: &[u64]) -> Vec<VertexId> {
    labels.iter().map(|&l| VertexId(l as u32)).collect()
}

fn record(phase: Phase, op: Arc<Op>, t0: Instant, ok: bool) -> Done {
    Done {
        phase,
        op,
        due: t0,
        queued: t0,
        sent: t0,
        done: Instant::now(),
        status: if ok { 200 } else { 0 },
        hit: false,
        bytes: 0,
    }
}

/// Runs `engine-direct`, measuring for `seconds` seconds.
pub fn run(fixture: &Fixture, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPEATS {
        let graphs: Vec<_> = fixture.tenants.iter().map(|t| t.graph.clone()).collect();
        let t = Instant::now();
        for g in graphs {
            std::hint::black_box(CommunityEngine::build(g));
        }
        out.setup.push(t.elapsed());
    }

    let mut stream = QueryStream::direct(fixture, seed);
    let mut cycle = DIRECT_CYCLE.iter().cycle();
    for _ in 0..SLICES {
        let mut answers: Vec<(Vec<VertexId>, Community)> = Vec::new();
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(seconds) / SLICES;
        while Instant::now() < until {
            let &(tenant, algo) = cycle.next().expect("the cycle never ends");
            let s = stream.next(tenant, algo);
            let q = query_of(&s.labels);
            let op = Arc::new(Op::Search(s));
            let t0 = Instant::now();
            let result = fixture.tenants[tenant].engine.search(&q, algo);
            out.records
                .push(record(Phase::Closed, op, t0, result.is_ok()));
            match result {
                Ok(c) => answers.push((q, c)),
                Err(e) => out.errors.push(format!("search failed: {e}")),
            }
        }
        out.phases.push((Phase::Closed, start, Instant::now()));
        out.errors.extend(validate(&answers));
    }
    out.peak_rss_mb = peak_rss_mb();

    let mut engines: Vec<CommunityEngine> =
        fixture.tenants.iter().map(|t| t.engine.clone()).collect();
    let mut chain = UpdateChain::new(fixture, seed);
    for (phase, batches) in [
        (
            Phase::Update,
            (0..UPDATE_BATCHES)
                .map(|_| Arc::new(Op::Update(chain.next())))
                .collect(),
        ),
        (Phase::Restore, chain.restore()),
    ] {
        let start = Instant::now();
        for op in batches {
            apply(&mut engines, phase, op, &mut out);
        }
        out.phases.push((phase, start, Instant::now()));
    }

    // After the restore the maintained engines must answer exactly like
    // the cold ones; their answers give the query distance.
    let start = Instant::now();
    let mut answers = Vec::new();
    for op in reference_queries(fixture, Workload::EngineDirect) {
        let Op::Search(s) = &*op else { continue };
        let q = query_of(&s.labels);
        let t0 = Instant::now();
        let got = engines[s.tenant].search(&q, s.algo);
        out.records
            .push(record(Phase::Reference, Arc::clone(&op), t0, got.is_ok()));
        let cold = &fixture.tenants[s.tenant].engine;
        match (got, cold.search(&q, s.algo)) {
            (Ok(a), Ok(b))
                if encode_community(&engines[s.tenant], &a) == encode_community(cold, &b) =>
            {
                out.query_dists.push(f64::from(a.query_distance));
                answers.push((q, a));
            }
            _ => out.errors.push(format!(
                "reference answer differs from a cold engine: {}",
                s.body
            )),
        }
    }
    out.phases.push((Phase::Reference, start, Instant::now()));
    out.errors.extend(validate(&answers));

    out.failed = out.records.iter().filter(|d| d.status != 200).count() as u64;
    out
}

/// Applies one update batch to its tenant's engine and publishes a frozen
/// clone of it, timed as one record.
fn apply(engines: &mut [CommunityEngine], phase: Phase, op: Arc<Op>, out: &mut Outcome) {
    let Op::Update(u) = &*op else {
        return;
    };
    let batch: Vec<EngineUpdate> = u
        .ops
        .iter()
        .map(|&(insert, a, b)| {
            let (a, b) = (VertexId(a as u32), VertexId(b as u32));
            if insert {
                EngineUpdate::insert(a, b)
            } else {
                EngineUpdate::delete(a, b)
            }
        })
        .collect();
    let t0 = Instant::now();
    let engine = &mut engines[u.tenant];
    let report = engine.apply_batch(&batch);
    std::hint::black_box(engine.frozen_clone());
    let applied = report.as_ref().is_ok_and(|r| r.applied == batch.len());
    if !applied {
        out.errors
            .push(format!("update did not apply every op: {}", u.body));
    }
    out.records
        .push(record(phase, Arc::clone(&op), t0, applied));
}

/// `Community::validate` on every answer, on two threads.
fn validate(answers: &[(Vec<VertexId>, Community)]) -> Vec<String> {
    let half = answers.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = answers
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|(q, c)| {
                            c.validate(q)
                                .err()
                                .map(|e| format!("invalid answer for {q:?}: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec!["validator panicked".into()])
            })
            .collect()
    })
}
