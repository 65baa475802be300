//! Concurrency soak test for `ctc-serve`: a real server on a loopback
//! ephemeral port, hammered by concurrent clients, with every served
//! answer checked byte-for-byte against a direct [`CommunityEngine`]
//! answer, then a graceful shutdown with no thread leak.

use ctc::prelude::*;
use ctc::server::wire::encode_community;
use ctc::server::{CtcServer, ServeConfig};
use ctc_core::SearchAlgo;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 50;

/// One scripted request: body, expected status, expected exact payload
/// (None = only check the status and that the payload is an error body).
struct Case {
    body: String,
    status: &'static str,
    payload: Option<Vec<u8>>,
}

fn algo_name(algo: SearchAlgo) -> &'static str {
    match algo {
        SearchAlgo::Basic => "basic",
        SearchAlgo::BulkDelete => "bd",
        SearchAlgo::Local => "lctc",
        SearchAlgo::TrussOnly => "truss",
    }
}

/// Sends one request on a fresh connection and returns `(status line,
/// payload bytes)`.
fn roundtrip(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> (String, Vec<u8>) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(raw.as_bytes()).expect("write request");
    let mut response = Vec::new();
    conn.read_to_end(&mut response).expect("read response");
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8_lossy(&response[..head_end]);
    let status = head.lines().next().unwrap_or("").to_string();
    (status, response[head_end + 4..].to_vec())
}

#[test]
fn soak_concurrent_clients_get_byte_identical_answers_then_clean_shutdown() {
    let engine = CommunityEngine::build(ctc::truss::fixtures::figure1_graph());
    let f = ctc::truss::fixtures::Figure1Ids::default();

    // The request mix: all four algorithms × several label sets (orders
    // scrambled — the server normalizes), plus unknown-label and
    // malformed cases whose failures must stay per-request.
    let algos = [
        SearchAlgo::Basic,
        SearchAlgo::BulkDelete,
        SearchAlgo::Local,
        SearchAlgo::TrussOnly,
    ];
    let label_sets: Vec<Vec<u32>> = vec![
        vec![f.q1.0, f.q2.0, f.q3.0],
        vec![f.q3.0, f.q1.0], // scrambled order
        vec![f.q2.0],
        vec![f.t.0],
        vec![f.p1.0, f.q1.0],
    ];
    let mut cases: Vec<Case> = Vec::new();
    for algo in algos {
        for labels in &label_sets {
            // Expected payload = direct engine answer on the same set.
            let q: Vec<VertexId> = labels.iter().map(|&l| VertexId(l)).collect();
            let direct = engine.search(&q, algo).expect("direct answer");
            let expected = encode_community(&engine, &direct);
            let ids = labels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(",");
            cases.push(Case {
                body: format!(r#"{{"query":[{ids}],"algo":"{}"}}"#, algo_name(algo)),
                status: "HTTP/1.1 200 OK",
                payload: Some(expected),
            });
        }
        // Unknown label: per-request 404, must not poison neighbors.
        cases.push(Case {
            body: format!(r#"{{"query":[999],"algo":"{}"}}"#, algo_name(algo)),
            status: "HTTP/1.1 404 Not Found",
            payload: Some(br#"{"error":"label 999 not in graph"}"#.to_vec()),
        });
    }
    // Malformed body: per-request 400.
    cases.push(Case {
        body: "{broken".into(),
        status: "HTTP/1.1 400 Bad Request",
        payload: None,
    });

    let server = CtcServer::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            pool: Parallelism::threads(4),
            // Above the 20 distinct hot keys, so every repeat is a
            // guaranteed hit (eviction determinism is pinned by the
            // LruCache unit tests; a cyclic access pattern over a
            // smaller-than-working-set LRU can legally never hit).
            cache_cap: 32,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.serve());

    // ≥8 client threads × ≥50 requests, each walking the case list from
    // a different offset so the algorithms and failures interleave.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let cases = &cases;
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let case = &cases[(client * 7 + i) % cases.len()];
                    let (status, payload) = roundtrip(addr, "POST", "/search", &case.body);
                    assert_eq!(
                        status, case.status,
                        "client {client} request {i} body {}",
                        case.body
                    );
                    match &case.payload {
                        Some(expected) => assert_eq!(
                            &payload, expected,
                            "client {client} request {i}: served bytes diverge from the \
                             direct engine answer for {}",
                            case.body
                        ),
                        None => assert!(
                            payload.starts_with(br#"{"error":"#),
                            "client {client} request {i}: expected an error body"
                        ),
                    }
                }
            });
        }
    });

    // The health and stats endpoints answer under load aftermath.
    let (status, payload) = roundtrip(addr, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(payload, br#"{"status":"ok"}"#);
    let (status, payload) = roundtrip(addr, "GET", "/stats", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let stats_text = String::from_utf8(payload).unwrap();
    assert!(stats_text.contains(r#""num_vertices":12"#), "{stats_text}");

    // Counter arithmetic: every request was routed and tallied.
    let total_sent = (CLIENTS * REQUESTS_PER_CLIENT) as u64 + 2;
    let c = handle.counters();
    assert_eq!(c.total, total_sent, "all requests routed: {c:?}");
    assert_eq!(
        c.search_ok + c.search_err,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "every /search accounted: {c:?}"
    );
    assert!(c.search_err > 0, "failure cases ran: {c:?}");
    assert!(
        c.cache_hits > 0,
        "a 400-request soak over 20 hot keys must hit the cache: {c:?}"
    );
    assert!(
        c.cache_misses >= 20,
        "every distinct key misses at least once: {c:?}"
    );
    assert_eq!(c.cache_hits + c.cache_misses, c.search_ok, "{c:?}");

    // Graceful shutdown: serve() returns (all workers joined — the scoped
    // pool cannot leak threads past this join), and the port stops
    // accepting.
    handle.shutdown();
    let report = serve_thread.join().expect("serve thread panicked");
    assert_eq!(report.counters.total, total_sent);
    assert!(
        report.server.admitted >= total_sent,
        "one connection per request"
    );
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be gone after shutdown"
    );
}

/// Extracts `"key":<uint>` from a JSON fragment (enough for the fixed
/// server encodings; no full parser needed client-side).
fn json_uint(fragment: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let i = fragment.find(&pat).expect(key) + pat.len();
    fragment[i..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect(key)
}

/// Concurrent online updates racing live searches: writer threads toggle
/// one structurally load-bearing edge (`v1`–`v2` of the K4 in Figure 1)
/// through `POST /update` while reader threads hammer `POST /search`.
/// Every served answer must be byte-identical to the direct engine answer
/// on either the pre-update or the post-update graph — a torn read (any
/// third byte sequence) fails the test. Afterwards the `/stats` update
/// counters must sum exactly against the per-response outcomes.
#[test]
fn soak_updates_race_searches_without_torn_reads() {
    const WRITERS: usize = 3;
    const OPS_PER_WRITER: usize = 24;
    const READERS: usize = 4;
    const READS_PER_READER: usize = 32;

    let f = ctc::truss::fixtures::Figure1Ids::default();
    let algos = [
        SearchAlgo::Basic,
        SearchAlgo::BulkDelete,
        SearchAlgo::Local,
        SearchAlgo::TrussOnly,
    ];
    let query = [f.q1, f.q2];

    // The two oracles: the graph with the toggled edge, and without it.
    // Deleting (v1, v2) breaks the K4 {q1, q2, v1, v2}, so the answer for
    // {q1, q2} genuinely changes between the two states.
    let with_engine = CommunityEngine::build(ctc::truss::fixtures::figure1_graph());
    let without_engine = {
        let mut e = CommunityEngine::build(ctc::truss::fixtures::figure1_graph());
        e.delete_edge(f.v1, f.v2).expect("edge exists in figure 1");
        e
    };
    let mut oracle_with = Vec::new();
    let mut oracle_without = Vec::new();
    for algo in algos {
        let a = with_engine.search(&query, algo).unwrap();
        let b = without_engine.search(&query, algo).unwrap();
        oracle_with.push(encode_community(&with_engine, &a));
        oracle_without.push(encode_community(&without_engine, &b));
    }
    assert_ne!(
        oracle_with, oracle_without,
        "the toggled edge must change at least one answer"
    );

    let server = CtcServer::bind(
        CommunityEngine::build(ctc::truss::fixtures::figure1_graph()),
        "127.0.0.1:0",
        ServeConfig {
            pool: Parallelism::threads(4),
            cache_cap: 32,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.serve());

    let delete_body = format!(
        r#"{{"updates":[{{"op":"delete","u":{},"v":{}}}]}}"#,
        f.v1.0, f.v2.0
    );
    let insert_body = format!(
        r#"{{"updates":[{{"op":"insert","u":{},"v":{}}}]}}"#,
        f.v1.0, f.v2.0
    );

    // (applied, rejected, publications) tallied from every 200 response.
    use std::sync::atomic::{AtomicU64, Ordering};
    let applied = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let publications = AtomicU64::new(0);
    let bad_batches = AtomicU64::new(0);
    let ok_batches = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (delete_body, insert_body) = (&delete_body, &insert_body);
            let (applied, rejected, publications, bad_batches, ok_batches) = (
                &applied,
                &rejected,
                &publications,
                &bad_batches,
                &ok_batches,
            );
            scope.spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    // Alternate single-op delete/insert requests; with
                    // three writers racing on one edge, a share of ops is
                    // rejected (duplicate/missing) — by design, so the
                    // accounting below covers both outcome paths.
                    let body = if (w + i) % 2 == 0 {
                        delete_body
                    } else {
                        insert_body
                    };
                    if i == OPS_PER_WRITER / 2 {
                        // One malformed batch per writer: must 400 without
                        // disturbing the graph or the counters' arithmetic.
                        let (status, _) = roundtrip(addr, "POST", "/update", r#"{"updates":[]}"#);
                        assert_eq!(status, "HTTP/1.1 400 Bad Request");
                        bad_batches.fetch_add(1, Ordering::Relaxed);
                    }
                    let (status, payload) = roundtrip(addr, "POST", "/update", body);
                    assert_eq!(status, "HTTP/1.1 200 OK", "writer {w} op {i}");
                    let text = String::from_utf8(payload).unwrap();
                    let a = json_uint(&text, "applied");
                    let r = json_uint(&text, "rejected");
                    assert_eq!(a + r, 1, "single-op batch: {text}");
                    applied.fetch_add(a, Ordering::Relaxed);
                    rejected.fetch_add(r, Ordering::Relaxed);
                    if a > 0 {
                        publications.fetch_add(1, Ordering::Relaxed);
                    }
                    ok_batches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for r in 0..READERS {
            let (oracle_with, oracle_without) = (&oracle_with, &oracle_without);
            scope.spawn(move || {
                for i in 0..READS_PER_READER {
                    let ai = (r + i) % algos.len();
                    let body = format!(
                        r#"{{"query":[{},{}],"algo":"{}"}}"#,
                        f.q1.0,
                        f.q2.0,
                        algo_name(algos[ai])
                    );
                    let (status, payload) = roundtrip(addr, "POST", "/search", &body);
                    assert_eq!(status, "HTTP/1.1 200 OK", "reader {r} read {i}");
                    assert!(
                        payload == oracle_with[ai] || payload == oracle_without[ai],
                        "reader {r} read {i} ({}): torn read — answer matches neither \
                         the pre-update nor the post-update oracle: {}",
                        algo_name(algos[ai]),
                        String::from_utf8_lossy(&payload)
                    );
                }
            });
        }
    });

    // Reconcile: force the edge back to present (applied or rejected-as-
    // duplicate are both fine), after which every algorithm must answer
    // exactly the with-edge oracle again — including through the cache.
    let (status, payload) = roundtrip(addr, "POST", "/update", &insert_body);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let text = String::from_utf8(payload).unwrap();
    let a = json_uint(&text, "applied");
    applied.fetch_add(a, Ordering::Relaxed);
    rejected.fetch_add(json_uint(&text, "rejected"), Ordering::Relaxed);
    if a > 0 {
        publications.fetch_add(1, Ordering::Relaxed);
    }
    ok_batches.fetch_add(1, Ordering::Relaxed);
    for (ai, algo) in algos.into_iter().enumerate() {
        let body = format!(
            r#"{{"query":[{},{}],"algo":"{}"}}"#,
            f.q1.0,
            f.q2.0,
            algo_name(algo)
        );
        for round in 0..2 {
            // Twice: a cache miss then a guaranteed hit, same bytes.
            let (status, payload) = roundtrip(addr, "POST", "/search", &body);
            assert_eq!(status, "HTTP/1.1 200 OK");
            assert_eq!(
                payload,
                oracle_with[ai],
                "post-reconcile answer for {} (round {round}) must match the \
                 with-edge oracle",
                algo_name(algo)
            );
        }
    }

    // Counter arithmetic: the /stats updates object sums exactly against
    // the per-response outcomes observed client-side.
    let (status, payload) = roundtrip(addr, "GET", "/stats", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let stats_text = String::from_utf8(payload).unwrap();
    let upd_start = stats_text.find(r#""updates":{"#).expect("updates object");
    let upd = &stats_text[upd_start..stats_text[upd_start..].find('}').unwrap() + upd_start + 1];
    assert_eq!(
        json_uint(upd, "applied"),
        applied.load(Ordering::Relaxed),
        "{upd}"
    );
    assert_eq!(
        json_uint(upd, "rejected"),
        rejected.load(Ordering::Relaxed),
        "{upd}"
    );
    assert_eq!(
        json_uint(upd, "batches_ok"),
        ok_batches.load(Ordering::Relaxed),
        "{upd}"
    );
    assert_eq!(
        json_uint(upd, "batches_err"),
        bad_batches.load(Ordering::Relaxed),
        "{upd}"
    );
    assert_eq!(
        json_uint(upd, "epoch"),
        publications.load(Ordering::Relaxed),
        "{upd}"
    );
    assert!(
        applied.load(Ordering::Relaxed) > 0,
        "some toggles must land"
    );
    assert!(
        rejected.load(Ordering::Relaxed) > 0,
        "racing writers on one edge must produce rejections"
    );

    handle.shutdown();
    serve_thread.join().expect("serve thread panicked");
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let engine = CommunityEngine::build(ctc::truss::fixtures::figure1_graph());
    let f = ctc::truss::fixtures::Figure1Ids::default();
    let direct = engine.search(&[f.q2], SearchAlgo::Local).unwrap();
    let expected = encode_community(&engine, &direct);
    let server = CtcServer::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.serve());

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = format!(r#"{{"query":[{}]}}"#, f.q2.0);
    for round in 0..3 {
        let raw = format!(
            "POST /search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        conn.write_all(raw.as_bytes()).unwrap();
        // Read exactly one response: head, then content-length bytes.
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            conn.read_exact(&mut byte).unwrap();
            buf.push(byte[0]);
        }
        let head = String::from_utf8(buf).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "round {round}: {head}");
        assert!(head.contains("connection: keep-alive"), "round {round}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut payload = vec![0u8; len];
        conn.read_exact(&mut payload).unwrap();
        assert_eq!(payload, expected, "round {round}");
    }
    drop(conn);
    handle.shutdown();
    serve_thread.join().unwrap();
}

#[test]
fn shutdown_with_zero_traffic_returns_promptly() {
    let engine = CommunityEngine::build(ctc::truss::fixtures::figure1_graph());
    let server = CtcServer::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            pool: Parallelism::threads(3),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.serve());
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    // Join must complete quickly; a leaked worker or stuck acceptor would
    // hang here (and trip the harness timeout).
    let report = serve_thread.join().expect("serve returned");
    assert_eq!(report.counters.total, 0);
}
