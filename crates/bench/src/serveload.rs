//! Zipfian load generator for the evented serving stack (the `serve`
//! section of `BENCH_RECORD.json`).
//!
//! Self-hosts a [`CtcServer`] on an ephemeral loopback port with two named
//! tenants (the mini presets), then drives it with keep-alive client
//! threads at increasing concurrency levels. Queries are drawn from a
//! fixed per-tenant pool with Zipf-distributed popularity — the classic
//! serving mix where a hot head amortizes through the answer cache while
//! the tail keeps the search path honest. Every request's wall latency is
//! recorded client-side; the document reports the p50/p99 trajectory per
//! level plus any admission sheds observed (429/503). Any other status, or
//! a connect, write or read failure, ends the run with an `Err` that names
//! the level. [`encode_run`] is the one encoding of a run, shared by
//! `bench_record --record serve.<run>` and `load_gen --json`.
//!
//! Determinism: the query pool, the Zipf draw sequence, and the
//! tenant interleave are all seeded (splitmix64 — the vendored `rand` has
//! no distributions, so the sampler is hand-rolled); latencies are of
//! course machine-dependent, which is why `bench_record --check` validates
//! a serve run's shape (levels, exact request accounting, 0 < p50 ≤ p99),
//! never absolute microseconds.

use ctc_core::CommunityEngine;
use ctc_gen::{mini_network, DegreeRank, QueryGenerator};
use ctc_graph::{Parallelism, VertexId};
use ctc_server::{AppState, CtcServer, Json, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two tenants every load run serves, in `/t/<name>/search` order.
pub const TENANTS: [&str; 2] = ["fb", "dblp"];

/// Network seed shared with the other recorded benches.
const NET_SEED: u64 = 7;

/// What to drive at the server.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Concurrency levels (keep-alive connections driving in parallel).
    pub levels: Vec<usize>,
    /// Total requests per level, split evenly across its connections.
    pub requests_per_level: usize,
    /// Zipf exponent for query popularity (1.0 ≈ classic web skew).
    pub zipf_s: f64,
    /// Distinct query sets per tenant in the popularity-ranked pool.
    pub pool_size: usize,
    /// Seed for the query pool and the draw sequence.
    pub seed: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            levels: vec![1, 4, 16, 64],
            requests_per_level: 512,
            zipf_s: 1.0,
            pool_size: 32,
            seed: 0xc7c8,
        }
    }
}

impl LoadSpec {
    /// A tiny spec for smoking the harness in `--check` runs.
    pub fn smoke() -> Self {
        LoadSpec {
            levels: vec![1, 2],
            requests_per_level: 16,
            pool_size: 4,
            ..LoadSpec::default()
        }
    }
}

/// One level's aggregated result.
#[derive(Clone, Debug)]
pub struct LevelResult {
    /// Connections driving concurrently.
    pub concurrency: usize,
    /// Requests answered 200 across all connections.
    pub ok: u64,
    /// Requests shed with 429 (per-tenant in-flight cap).
    pub shed_429: u64,
    /// Requests shed with 503 (accept/queue admission).
    pub shed_503: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

/// splitmix64: tiny, seedable, and good enough for load shaping.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A unit-interval draw from the top 53 bits.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Rank-popularity sampler: `P(i) ∝ 1/(i+1)^s` over `n` ranks, drawn by
/// binary search over the precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, state: &mut u64) -> usize {
        let u = unit(state);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Builds the popularity-ranked query pool for one preset graph.
fn query_pool(preset: &str, pool_size: usize, seed: u64) -> (CommunityEngine, Vec<String>) {
    let name = preset.strip_prefix("mini-").unwrap_or(preset);
    let net = mini_network(name, NET_SEED).expect("known mini preset");
    let graph = net.graph;
    let mut qg = QueryGenerator::new(&graph, seed);
    let bodies: Vec<String> = (0..pool_size)
        .map(|_| {
            let q: Vec<VertexId> = qg
                .sample(3, DegreeRank::top(0.8), 2)
                .expect("mini preset yields queries");
            let labels: Vec<String> = q.iter().map(|v| v.0.to_string()).collect();
            format!(r#"{{"query":[{}],"algo":"basic"}}"#, labels.join(","))
        })
        .collect();
    (CommunityEngine::build(graph), bodies)
}

/// Reads one keep-alive HTTP response; returns `(status_code, closed)`.
fn read_status(conn: &mut TcpStream, scratch: &mut Vec<u8>) -> std::io::Result<(u16, bool)> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&scratch[..head_end]).to_string();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let closed = head.contains("connection: close");
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let body_start = head_end + 4;
            while scratch.len() < body_start + len {
                let n = conn.read(&mut chunk)?;
                if n == 0 {
                    break;
                }
                scratch.extend_from_slice(&chunk[..n]);
            }
            scratch.drain(..(body_start + len).min(scratch.len()));
            return Ok((status, closed));
        }
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Ok((0, true));
        }
        scratch.extend_from_slice(&chunk[..n]);
    }
}

/// One connection's tally: latencies plus ok / 429 / 503 counts.
type ConnTally = (Vec<u64>, u64, u64, u64);

/// One client connection's share of a level: keep-alive, reconnecting
/// only if the server closed the connection (e.g. after a shed).
fn drive_conn(
    addr: SocketAddr,
    pools: &[(String, Vec<String>)],
    zipf: &Zipf,
    mut rng: u64,
    requests: usize,
) -> Result<ConnTally, String> {
    let connect = || -> Result<TcpStream, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("connect: {e}"))?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    };
    let mut conn = connect()?;
    let mut scratch = Vec::new();
    let (mut ok, mut s429, mut s503) = (0u64, 0u64, 0u64);
    let mut lat = Vec::with_capacity(requests);
    for _ in 0..requests {
        let (tenant, bodies) = &pools[(splitmix64(&mut rng) % pools.len() as u64) as usize];
        let body = &bodies[zipf.sample(&mut rng)];
        let raw = format!(
            "POST /t/{tenant}/search HTTP/1.1\r\nHost: load\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let t0 = Instant::now();
        if conn.write_all(raw.as_bytes()).is_err() {
            conn = connect()?;
            scratch.clear();
            conn.write_all(raw.as_bytes())
                .map_err(|e| format!("write after reconnect: {e}"))?;
        }
        let (status, closed) =
            read_status(&mut conn, &mut scratch).map_err(|e| format!("read: {e}"))?;
        lat.push(t0.elapsed().as_micros() as u64);
        match status {
            200 => ok += 1,
            429 => s429 += 1,
            503 => s503 += 1,
            other => return Err(format!("unexpected status {other} from /t/{tenant}/search")),
        }
        if closed {
            conn = connect()?;
            scratch.clear();
        }
    }
    Ok((lat, ok, s429, s503))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the whole trajectory: one self-hosted server, every level in
/// `spec.levels` in order, cache state carried across levels (a serving
/// process is warm; re-cold-starting per level would measure builds).
///
/// The first failure — a status other than 200, 429 or 503, or a connect,
/// write or read error — ends the run as an `Err` naming its level.
pub fn run(spec: &LoadSpec) -> Result<Vec<LevelResult>, String> {
    let (fb_engine, fb_pool) = query_pool("mini-facebook", spec.pool_size, spec.seed);
    let (dblp_engine, dblp_pool) = query_pool("mini-dblp", spec.pool_size, spec.seed ^ 1);
    let pools = vec![
        (TENANTS[0].to_string(), fb_pool),
        (TENANTS[1].to_string(), dblp_pool),
    ];
    drive(
        spec,
        vec![(TENANTS[0], fb_engine), (TENANTS[1], dblp_engine)],
        &pools,
    )
}

/// Serves `engines` as named tenants and drives every level of `spec`
/// with requests drawn from `pools`, each `(tenant, bodies)`.
fn drive(
    spec: &LoadSpec,
    engines: Vec<(&str, CommunityEngine)>,
    pools: &[(String, Vec<String>)],
) -> Result<Vec<LevelResult>, String> {
    let cfg = ServeConfig {
        pool: Parallelism::threads(2),
        max_conns: spec.levels.iter().copied().max().unwrap_or(1) + 16,
        request_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let state = Arc::new(AppState::new(engines[0].1.clone(), &cfg));
    for (name, engine) in engines {
        state.add_tenant_engine(name, engine)?;
    }
    let server = CtcServer::bind_state(Arc::clone(&state), "127.0.0.1:0", &cfg)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    let results = drive_levels(addr, spec, pools);
    handle.shutdown();
    let _ = join.join();
    results
}

/// Drives every level of `spec` at the server on `addr`, in order.
fn drive_levels(
    addr: SocketAddr,
    spec: &LoadSpec,
    pools: &[(String, Vec<String>)],
) -> Result<Vec<LevelResult>, String> {
    let zipf = Zipf::new(spec.pool_size, spec.zipf_s);
    let mut results = Vec::with_capacity(spec.levels.len());
    for (li, &level) in spec.levels.iter().enumerate() {
        let level = level.max(1);
        let share = spec.requests_per_level / level;
        let extra = spec.requests_per_level % level;
        let outcomes: Vec<Result<ConnTally, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..level)
                .map(|ci| {
                    let zipf = &zipf;
                    let requests = share + usize::from(ci < extra);
                    let rng = spec
                        .seed
                        .wrapping_mul(0x100_0003)
                        .wrapping_add((li as u64) << 32 | ci as u64);
                    scope.spawn(move || drive_conn(addr, pools, zipf, rng, requests))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut lat: Vec<u64> = Vec::with_capacity(spec.requests_per_level);
        let (mut ok, mut s429, mut s503) = (0u64, 0u64, 0u64);
        for outcome in outcomes {
            let (l, o, a, b) =
                outcome.map_err(|e| format!("level {} (concurrency {level}): {e}", li + 1))?;
            lat.extend(l);
            ok += o;
            s429 += a;
            s503 += b;
        }
        lat.sort_unstable();
        results.push(LevelResult {
            concurrency: level,
            ok,
            shed_429: s429,
            shed_503: s503,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
        });
    }
    Ok(results)
}

/// One serve run as `BENCH_RECORD.json` records it: the load shape, the
/// tenant count and one entry per level.
pub fn encode_run(spec: &LoadSpec, results: &[LevelResult]) -> Json {
    let levels = results
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("concurrency".into(), Json::Uint(r.concurrency as u64)),
                ("ok".into(), Json::Uint(r.ok)),
                ("shed_429".into(), Json::Uint(r.shed_429)),
                ("shed_503".into(), Json::Uint(r.shed_503)),
                ("p50_us".into(), Json::Uint(r.p50_us)),
                ("p99_us".into(), Json::Uint(r.p99_us)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("zipf_s".into(), Json::Float(spec.zipf_s)),
        ("pool_size".into(), Json::Uint(spec.pool_size as u64)),
        (
            "requests_per_level".into(),
            Json::Uint(spec.requests_per_level as u64),
        ),
        ("tenants".into(), Json::Uint(TENANTS.len() as u64)),
        ("levels".into(), Json::Array(levels)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(16, 1.0);
        let mut a = 42u64;
        let mut b = 42u64;
        let draws_a: Vec<usize> = (0..100).map(|_| z.sample(&mut a)).collect();
        let draws_b: Vec<usize> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same sequence");
        let head = draws_a.iter().filter(|&&r| r < 4).count();
        assert!(head > 40, "zipf(1.0) head must dominate: {head}/100");
        assert!(draws_a.iter().all(|&r| r < 16));
    }

    #[test]
    fn smoke_load_run_accounts_every_request() {
        let spec = LoadSpec::smoke();
        let results = run(&spec).expect("smoke run");
        assert_eq!(results.len(), spec.levels.len());
        for r in &results {
            assert_eq!(
                r.ok + r.shed_429 + r.shed_503,
                spec.requests_per_level as u64,
                "every request resolves: {r:?}"
            );
            assert!(r.p50_us <= r.p99_us, "{r:?}");
            assert!(r.p99_us > 0, "{r:?}");
        }
    }

    #[test]
    fn unexpected_status_is_an_err_not_a_panic() {
        let spec = LoadSpec {
            levels: vec![1, 2],
            requests_per_level: 4,
            pool_size: 1,
            ..LoadSpec::default()
        };
        let (engine, bodies) = query_pool("mini-facebook", 1, spec.seed);
        let err = drive(&spec, vec![("fb", engine)], &[("ghost".into(), bodies)])
            .expect_err("an unregistered tenant answers 404");
        assert!(err.contains("level 1 (concurrency 1)"), "{err}");
        assert!(err.contains("unexpected status 404"), "{err}");
    }
}
