//! Seed determinism, a short run of every workload with all its checks
//! (5 s each: enough for serve-cold to answer the 128 it checks even on a
//! busy machine), the trace reconciliation (the stages the replay times
//! must add up to what `AppState::respond` takes), the answer digest, and
//! a query distance that no seed moves.

use crate::outcome::Outcome;
use crate::serve::Digest;
use crate::trace::{replay, PER_LAYER};
use crate::workload::{
    query_pool, reference_queries, setup_probes, Draws, Fixture, Op, OpenSource, QueryStream,
    Source, UpdateChain, Workload, Writes, DIRECT_CYCLE,
};
use ctc_graph::VertexId;
use std::path::PathBuf;
use std::sync::OnceLock;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ctcbench-test-{name}"))
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::prepare(&temp_path("fixture")).expect("fixture"))
}

/// Every byte the workloads would send for `seed`, `n` draws per stream:
/// pool, set-up probes, hot and cold open loops with writes beside them,
/// the update phase, the restore and the engine-direct queries.
fn sequence(f: &Fixture, seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut put = |due: Option<f64>, op: &Op| {
        out.extend(format!("{due:?} ").bytes());
        out.extend(op.http_bytes());
    };
    let pool = query_pool(f, seed);
    for op in &pool {
        put(None, op);
    }
    for s in setup_probes(f, seed) {
        put(None, &Op::Search(s));
    }
    let mut writes = Writes::new(UpdateChain::new(f, seed), 10);
    for mut draws in [Draws::hot(&pool, seed), Draws::cold(f, seed, &[])] {
        let mut open = OpenSource::new(&mut draws, &mut writes, 100.0, seed, n);
        for _ in 0..n {
            let (due, op) = open.next().expect("n searches and their writes");
            put(due, &op);
        }
    }
    for op in writes.batches(n).iter().chain(&writes.restore()) {
        put(None, op);
    }
    let mut stream = QueryStream::direct(f, seed);
    for &(tenant, algo) in DIRECT_CYCLE.iter().cycle().take(n) {
        put(None, &Op::Search(stream.next(tenant, algo)));
    }
    out
}

/// Means of `G0` edges, peel iterations and query distance over two
/// cycles of engine-direct's queries.
fn direct_counts(f: &Fixture, seed: u64) -> [f64; 3] {
    let mut stream = QueryStream::direct(f, seed);
    let mut sums = [0.0; 3];
    let cycles = 2;
    for &(tenant, algo) in DIRECT_CYCLE
        .iter()
        .cycle()
        .take(cycles * DIRECT_CYCLE.len())
    {
        let s = stream.next(tenant, algo);
        let q: Vec<VertexId> = s.labels.iter().map(|&l| VertexId(l as u32)).collect();
        let c = f.tenants[tenant].engine.search(&q, algo).expect("search");
        sums[0] += c.g0_size.1 as f64;
        sums[1] += c.iterations as f64;
        sums[2] += f64::from(c.query_distance);
    }
    sums.map(|s| s / (cycles * DIRECT_CYCLE.len()) as f64)
}

#[test]
fn a_seed_fixes_every_request_and_engine_count() {
    let f = fixture();
    let a = sequence(f, 7, 400);
    assert_eq!(a, sequence(f, 7, 400), "same seed, same bytes");
    assert_ne!(a, sequence(f, 8, 400), "another seed, another sequence");
    assert_eq!(direct_counts(f, 7), direct_counts(f, 7));
}

fn check_run(workload: Workload, out: &Outcome) {
    let name = workload.name();
    assert!(out.errors.is_empty(), "{name}: {:?}", out.errors);
    assert_eq!(out.failed, 0, "{name}");
    let measured = [out.end_to_end(), out.client_times(workload)];
    for (metric, value, _) in measured.iter().flat_map(|m| &m.0) {
        assert!(*value > 0.0, "{name}: {metric} = {value}");
    }
    let reference = reference_queries(fixture(), workload).len();
    assert_eq!(out.query_dists.len(), reference, "{name}");
    let path = temp_path(&format!("{name}.jsonl"));
    let (per_layer, _) = replay(workload, fixture(), out, &path).expect("replay");
    assert_eq!(per_layer.0.len(), PER_LAYER.len());
    assert!(std::fs::metadata(&path).expect("trace written").len() > 0);
    let respond = per_layer.get("server.respond_p50_us").expect("respond");
    let unattributed = per_layer
        .get("trace.unattributed_p50_us")
        .expect("unattributed");
    assert!(
        unattributed.abs() <= 0.15 * respond,
        "{name}: stages leave {unattributed} µs of {respond} µs unattributed"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn every_workload_passes_its_checks_and_reconciles() {
    for workload in Workload::ALL {
        let out = crate::run_workload(workload, fixture(), 11, 5.0);
        check_run(workload, &out);
    }
}

#[test]
fn a_digest_tells_bodies_apart() {
    let body: Vec<u8> = (0..1001u32).map(|i| i as u8).collect();
    let mut flipped = body.clone();
    flipped[500] ^= 1;
    assert_eq!(Digest::of(&body), Digest::of(&body.clone()));
    assert_ne!(Digest::of(&body), Digest::of(&flipped));
    assert_ne!(Digest::of(&body), Digest::of(&body[..1000]));
}

#[test]
fn query_distance_is_the_same_for_every_seed() {
    let dist = |seed| {
        crate::run_workload(Workload::EngineDirect, fixture(), seed, 0.5)
            .end_to_end()
            .get("query_dist_mean")
            .expect("reported")
    };
    assert_eq!(dist(1), dist(2));
}
