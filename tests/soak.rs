//! Evented-serving soak: one server, two named tenants, ≥1000 concurrent
//! keep-alive connections multiplexed through the poll(2) readiness loop,
//! plus hostile clients — slow-loris tricklers and an accept flood past
//! `max_conns` — all shed with well-formed responses while the counter
//! arithmetic stays exact.
//!
//! The sizing exercises the tentpole claim directly: the worker pool has
//! 2 threads, so nothing short of readiness multiplexing can hold 1000
//! idle connections open while continuing to answer on all of them.

#![cfg(unix)]

use ctc::prelude::*;
use ctc::server::DEFAULT_TENANT;
use ctc::truss::fixtures::{figure1_graph, Figure1Ids};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keep-alive connections held open simultaneously.
const CONNS: usize = 1000;
/// Request rounds over every keep-alive connection.
const ROUNDS: usize = 3;
/// Slow-loris clients: partial request head, then silence.
const LORIS: usize = 20;
/// Flood connections raced against the admission cap.
const FLOOD: usize = 150;
/// Admission cap: CONNS + LORIS fit, then FLOOD splits 80 / 70.
const MAX_CONNS: usize = 1100;
/// No complete request within this window → the connection is dropped.
/// Generous on purpose: a phase-A round (1000 writes + 1000 reads over a
/// 2-thread pool on a possibly oversubscribed CI box) must finish well
/// inside it, or live connections get reaped mid-round and the test
/// flakes with spurious EOFs. Phases C/D overlap their waits, so the
/// test's wall time grows by far less than the deadline does.
const DEADLINE: Duration = Duration::from_secs(10);

/// Reads exactly one keep-alive HTTP response (head + content-length
/// body) and returns `(status line, body)`.
fn read_response(conn: &mut TcpStream, scratch: &mut Vec<u8>) -> (String, Vec<u8>) {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&scratch[..head_end]).to_string();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .expect("response has a content-length")
                .parse()
                .expect("numeric content-length");
            let body_start = head_end + 4;
            while scratch.len() < body_start + len {
                let n = conn.read(&mut chunk).expect("read body");
                assert!(n > 0, "EOF mid-body");
                scratch.extend_from_slice(&chunk[..n]);
            }
            let body = scratch[body_start..body_start + len].to_vec();
            scratch.drain(..body_start + len);
            let status = head.lines().next().unwrap_or("").to_string();
            return (status, body);
        }
        let n = conn.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF mid-head");
        scratch.extend_from_slice(&chunk[..n]);
    }
}

fn search_body() -> String {
    let f = Figure1Ids::default();
    format!(
        r#"{{"query":[{},{},{}],"algo":"basic"}}"#,
        f.q1.0, f.q2.0, f.q3.0
    )
}

fn request_bytes(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: soak\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn thousand_connection_soak_with_hostile_clients() {
    let cfg = ServeConfig {
        pool: Parallelism::threads(2),
        max_conns: MAX_CONNS,
        queue_cap: 2048,
        request_deadline: DEADLINE,
        ..ServeConfig::default()
    };
    let state = Arc::new(AppState::new(CommunityEngine::build(figure1_graph()), &cfg));
    state
        .add_tenant_engine("fb", CommunityEngine::build(figure1_graph()))
        .expect("register fb tenant");
    let server = CtcServer::bind_state(Arc::clone(&state), "127.0.0.1:0", &cfg).expect("bind");
    let addr: SocketAddr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());

    // Phase A: CONNS keep-alive connections, ROUNDS requests each,
    // alternating the bare default-tenant path and the named tenant.
    // Writes go out as a batch so the server pipelines the round through
    // its 2 workers while the client iterates.
    let body = search_body();
    let mut conns: Vec<(TcpStream, Vec<u8>)> = (0..CONNS)
        .map(|_| {
            let conn = TcpStream::connect(addr).expect("connect keep-alive");
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            (conn, Vec::new())
        })
        .collect();
    for _round in 0..ROUNDS {
        for (i, (conn, _)) in conns.iter_mut().enumerate() {
            let target = if i % 2 == 0 {
                "/search"
            } else {
                "/t/fb/search"
            };
            conn.write_all(&request_bytes(target, &body))
                .expect("write round");
        }
        for (i, (conn, scratch)) in conns.iter_mut().enumerate() {
            let (status, payload) = read_response(conn, scratch);
            assert!(status.starts_with("HTTP/1.1 200 OK"), "conn {i}: {status}");
            assert!(!payload.is_empty(), "conn {i}: empty answer");
        }
    }
    // Both tenants answered the same query on the same graph: identical
    // community bytes through either path.
    {
        let (c0, s0) = &mut conns[0];
        c0.write_all(&request_bytes("/search", &body)).unwrap();
        let a = read_response(c0, s0).1;
        let (c1, s1) = &mut conns[1];
        c1.write_all(&request_bytes("/t/fb/search", &body)).unwrap();
        let b = read_response(c1, s1).1;
        assert_eq!(a, b, "tenant answers diverged");
        // Those two extra requests keep the per-tenant split exact.
    }

    // Phase B: slow-loris clients trickle a partial head and stall. The
    // readiness loop must keep them on a pollfd, not a worker.
    let loris: Vec<TcpStream> = (0..LORIS)
        .map(|_| {
            let mut conn = TcpStream::connect(addr).expect("connect loris");
            conn.write_all(b"GET /healthz HTT").expect("trickle");
            conn
        })
        .collect();

    // Phase C: flood past the admission cap. 1020 connections are open,
    // so exactly MAX_CONNS - 1020 = 80 floods are admitted (and then
    // idle into their deadline) and 70 are shed with a well-formed 503.
    let flood: Vec<TcpStream> = (0..FLOOD)
        .map(|_| {
            let conn = TcpStream::connect(addr).expect("connect flood");
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            conn
        })
        .collect();
    let (mut shed, mut idle_dropped) = (0usize, 0usize);
    for mut conn in flood {
        let mut response = Vec::new();
        conn.read_to_end(&mut response).expect("read flood outcome");
        if response.is_empty() {
            // Admitted, never spoke, dropped at the request deadline.
            idle_dropped += 1;
        } else {
            let text = String::from_utf8_lossy(&response);
            assert!(
                text.starts_with("HTTP/1.1 503 Service Unavailable"),
                "flood response: {text}"
            );
            assert!(text.contains("connection: close"), "{text}");
            assert!(
                text.contains(r#"{"error":"#),
                "503 body must be JSON: {text}"
            );
            shed += 1;
        }
    }
    assert_eq!(
        (shed, idle_dropped),
        (
            FLOOD - (MAX_CONNS - CONNS - LORIS),
            MAX_CONNS - CONNS - LORIS
        ),
        "admission split must be exact"
    );

    // The loris clients are dropped at the deadline without a response.
    for mut conn in loris {
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut response = Vec::new();
        let n = conn.read_to_end(&mut response).unwrap_or(0);
        assert_eq!(n, 0, "loris must be dropped responseless");
    }

    // Phase D: by now every connection (keep-alive, loris, admitted
    // floods) has idled past the deadline. Wait for the loop to reap
    // them all, then check the books.
    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = handle.server_counters();
        if (s.open_conns, s.queued) == (0, 0) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let s = handle.server_counters();
    assert_eq!(s.open_conns, 0, "no connection may leak: {s:?}");
    assert_eq!(s.queued, 0, "dispatch queue must drain: {s:?}");
    assert_eq!(s.accepted as usize, CONNS + LORIS + FLOOD, "{s:?}");
    assert_eq!(s.admitted as usize, MAX_CONNS, "{s:?}");
    assert_eq!(
        s.sheds_accept as usize,
        FLOOD - (MAX_CONNS - CONNS - LORIS),
        "{s:?}"
    );
    assert_eq!(s.sheds_queue, 0, "{s:?}");
    assert_eq!(
        s.deadline_drops as usize, MAX_CONNS,
        "every admitted conn idled out: {s:?}"
    );
    assert_eq!(s.panics, 0, "{s:?}");

    // Exact per-tenant arithmetic: ROUNDS * CONNS requests split evenly,
    // plus the two divergence-check requests.
    let half = (ROUNDS * CONNS / 2 + 1) as u64;
    let default = state
        .registry()
        .counters_of(DEFAULT_TENANT)
        .expect("default counters");
    let fb = state.registry().counters_of("fb").expect("fb counters");
    assert_eq!(default.search_ok.load(Ordering::SeqCst), half);
    assert_eq!(fb.search_ok.load(Ordering::SeqCst), half);
    assert_eq!(default.in_flight.load(Ordering::SeqCst), 0);
    assert_eq!(fb.in_flight.load(Ordering::SeqCst), 0);
    let c = handle.counters();
    assert_eq!(c.search_ok, 2 * half, "global total is the tenant sum");
    assert_eq!(c.search_err, 0);
    assert_eq!(
        c.cache_hits + c.cache_misses,
        c.search_ok,
        "every 200 is a hit or a miss: {c:?}"
    );

    // Graceful drain: the server still answers and then exits cleanly.
    handle.shutdown();
    let report = join.join().expect("serve thread panicked");
    assert_eq!(report.server.open_conns, 0);
    assert_eq!(report.server.admitted as usize, MAX_CONNS);
}
