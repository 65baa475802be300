//! The serving workloads: an in-process `ctc-serve` with two path-backed
//! tenants, driven over loopback by one generator thread on two
//! keep-alive connections multiplexed with `poll(2)`.
//!
//! A run: the set-up starts, the warm-up (hot pool), the open loop, the
//! closed loop, then, outside the `--seconds` the two loops share, the
//! update batches (unless the workload writes beside its searches), the
//! batches that restore every deleted edge, and the reference queries.

use crate::client::{self, complete_response};
use crate::outcome::{peak_rss_mb, Done, Outcome, Phase};
use crate::rng::derive;
use crate::workload::{
    query_pool, reference_queries, setup_probes, ClosedSource, Draws, Fixture, ListSource, Op,
    OpenSource, SearchOp, Source, UpdateChain, Workload, Writes, CLOSED_SHARE, OPEN_SHARE,
    SETUP_REPEATS, TENANTS, UPDATE_BATCHES,
};
use ctc_core::CommunityEngine;
use ctc_graph::Parallelism;
use ctc_server::evented::{poll_fds, PollFd};
use ctc_server::{encode_community, AppState, CtcServer, ServeConfig, ServeReport, ServerHandle};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections: never more than the machine's two cores.
pub const CONNECTIONS: usize = 2;

/// Answers compared byte for byte against a cold engine per run.
pub const CHECKED_ANSWERS: usize = 128;

/// Below this distance to the next arrival the generator polls without
/// blocking (and yields) instead of parking in `poll`, whose timeout has
/// millisecond resolution.
const SPIN: Duration = Duration::from_millis(1);

/// The server's configuration: the 2-thread worker pool, everything else
/// at its defaults (1024-entry answer cache per tenant).
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        pool: Parallelism::threads(2),
        ..ServeConfig::default()
    }
}

/// A running in-process server.
pub struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<ServeReport>,
}

impl Running {
    /// Shuts the server down and waits for it to drain.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.join
            .join()
            .map(|_| ())
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// One fresh start: bind, register the snapshots as path-backed tenants,
/// serve, and wait until each tenant has answered its first search (the
/// lazy snapshot load included). Returns the server and the time taken.
pub fn start_server(
    fixture: &Fixture,
    default_engine: &CommunityEngine,
    first: &[SearchOp],
) -> Result<(Running, Duration), String> {
    let cfg = serve_config();
    let t = Instant::now();
    let state = Arc::new(AppState::new(default_engine.clone(), &cfg));
    for (name, tenant) in TENANTS.iter().zip(&fixture.tenants) {
        state.add_tenant_path(name, tenant.snapshot.clone())?;
    }
    let server = CtcServer::bind_state(state, "127.0.0.1:0", &cfg).map_err(|e| e.to_string())?;
    let running = Running {
        addr: server.local_addr(),
        handle: server.handle(),
        join: std::thread::spawn(move || server.serve()),
    };
    let mut conn = client::connect(running.addr, false).map_err(|e| e.to_string())?;
    for op in first {
        let (head, _) = client::roundtrip(&mut conn, &Op::Search(op.clone()).http_bytes())
            .map_err(|e| format!("first search: {e}"))?;
        if head.status != 200 {
            return Err(format!("first search answered {}", head.status));
        }
    }
    Ok((running, t.elapsed()))
}

struct InFlight {
    op: Arc<Op>,
    due: Instant,
    queued: Instant,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: Option<InFlight>,
}

/// The load generator: one thread, keep-alive connections, a FIFO of
/// requests that are due but have no free connection yet.
pub struct LoadGen {
    addr: SocketAddr,
    conns: Vec<Conn>,
    /// Every finished request, in completion order.
    pub done: Vec<Done>,
    /// `(phase, start, end)` of each phase run.
    pub phases: Vec<(Phase, Instant, Instant)>,
}

impl LoadGen {
    /// Opens [`CONNECTIONS`] connections to `addr`.
    pub fn new(addr: SocketAddr) -> std::io::Result<LoadGen> {
        let conns = (0..CONNECTIONS)
            .map(|_| {
                Ok(Conn {
                    stream: client::connect(addr, true)?,
                    buf: Vec::new(),
                    inflight: None,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(LoadGen {
            addr,
            conns,
            done: Vec::new(),
            phases: Vec::new(),
        })
    }

    /// Runs one phase on the first `nconns` connections until `src` ends,
    /// then waits for every in-flight request. `on_reply` sees each
    /// finished request with its response body.
    pub fn run(
        &mut self,
        phase: Phase,
        src: &mut dyn Source,
        nconns: usize,
        on_reply: &mut dyn FnMut(&Done, &[u8]),
    ) {
        let start = Instant::now();
        let mut fifo: VecDeque<(Arc<Op>, Instant, Instant)> = VecDeque::new();
        let mut pending: Option<(Option<f64>, Arc<Op>)> = None;
        let mut drawing = true;
        loop {
            let now = Instant::now();
            // Admit every arrival that is due (open loop) or that a free
            // connection can take (closed loop).
            while drawing {
                if pending.is_none() {
                    pending = src.next();
                }
                let Some((offset, _)) = &pending else {
                    drawing = false;
                    break;
                };
                let due = match offset {
                    Some(off) => start + Duration::from_secs_f64(*off),
                    None => now,
                };
                let idle = self.conns[..nconns]
                    .iter()
                    .filter(|c| c.inflight.is_none())
                    .count();
                if due > now || (offset.is_none() && fifo.len() >= idle) {
                    break;
                }
                let (_, op) = pending.take().expect("checked above");
                fifo.push_back((op, due, now));
            }
            for i in 0..nconns {
                if self.conns[i].inflight.is_none() {
                    if let Some((op, due, queued)) = fifo.pop_front() {
                        self.send(i, op, due, queued, phase, on_reply);
                    }
                }
            }
            let busy: Vec<usize> = (0..nconns)
                .filter(|&i| self.conns[i].inflight.is_some())
                .collect();
            if !drawing && fifo.is_empty() && busy.is_empty() {
                break;
            }
            // Park until a reply or the next arrival.
            let next_due = match (&pending, drawing) {
                (Some((Some(off), _)), true) => Some(start + Duration::from_secs_f64(*off)),
                _ => None,
            };
            let mut fds: Vec<PollFd> = busy
                .iter()
                .map(|&i| PollFd::readable(self.conns[i].stream.as_raw_fd()))
                .collect();
            // Without a next arrival some connection is busy (else the
            // phase has ended), so the poll wakes on its reply.
            let wait = match next_due {
                Some(due) => due.saturating_duration_since(Instant::now()),
                None => Duration::from_millis(100),
            };
            let ready = if wait < SPIN {
                poll_fds(&mut fds, Some(Duration::ZERO)).unwrap_or(0)
            } else {
                poll_fds(&mut fds, Some(wait - SPIN)).unwrap_or(0)
            };
            if ready == 0 && wait < SPIN {
                std::thread::yield_now();
            }
            for (slot, &i) in busy.iter().enumerate() {
                if fds[slot].is_actionable() {
                    self.receive(i, phase, on_reply);
                }
            }
        }
        self.phases.push((phase, start, Instant::now()));
    }

    fn send(
        &mut self,
        i: usize,
        op: Arc<Op>,
        due: Instant,
        queued: Instant,
        phase: Phase,
        on_reply: &mut dyn FnMut(&Done, &[u8]),
    ) {
        let sent = Instant::now();
        let bytes = op.http_bytes();
        let conn = &mut self.conns[i];
        conn.inflight = Some(InFlight {
            op,
            due,
            queued,
            sent,
        });
        if client::send_all(&mut conn.stream, &bytes).is_err() {
            self.fail(i, phase, on_reply);
        }
    }

    fn receive(&mut self, i: usize, phase: Phase, on_reply: &mut dyn FnMut(&Done, &[u8])) {
        let conn = &mut self.conns[i];
        let open = client::fill(&mut conn.stream, &mut conn.buf);
        if let Some(head) = complete_response(&conn.buf) {
            let f = conn.inflight.take().expect("reply to a sent request");
            let done = Done {
                phase,
                op: f.op,
                due: f.due,
                queued: f.queued,
                sent: f.sent,
                done: Instant::now(),
                status: head.status,
                hit: head.hit,
                bytes: head.body_len,
            };
            on_reply(&done, &conn.buf[head.head_len..head.total()]);
            conn.buf.drain(..head.total());
            self.done.push(done);
            if head.close {
                self.reconnect(i);
            }
        } else if !matches!(open, Ok(true)) {
            self.fail(i, phase, on_reply);
        }
    }

    /// A transport error: the in-flight request fails (status 0) and the
    /// connection is replaced.
    fn fail(&mut self, i: usize, phase: Phase, on_reply: &mut dyn FnMut(&Done, &[u8])) {
        if let Some(f) = self.conns[i].inflight.take() {
            let done = Done {
                phase,
                op: f.op,
                due: f.due,
                queued: f.queued,
                sent: f.sent,
                done: Instant::now(),
                status: 0,
                hit: false,
                bytes: 0,
            };
            on_reply(&done, &[]);
            self.done.push(done);
        }
        self.reconnect(i);
    }

    fn reconnect(&mut self, i: usize) {
        self.conns[i].buf.clear();
        // A failed reconnect leaves the old socket in place; its next
        // request fails and retries the connect.
        if let Ok(stream) = client::connect(self.addr, true) {
            self.conns[i].stream = stream;
        }
    }
}

/// A body's length and a 64-bit hash of it. Sampled answers keep this
/// until they are checked, not the body: the samples would otherwise hold
/// tens of MiB that `peak_rss_mb` counts and that the seed moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(usize, u64);

impl Digest {
    /// The digest of `bytes`. Each step (xor, odd multiply, rotate) is a
    /// bijection of the state, so two equal-length inputs that differ in
    /// one word always differ; one multiply per word keeps a 1 MiB answer
    /// under a millisecond on the generator thread.
    pub fn of(bytes: &[u8]) -> Digest {
        let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        let mut words = bytes.chunks_exact(8);
        let mut h = 0;
        for w in &mut words {
            h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            h = step(h, u64::from(b));
        }
        Digest(bytes.len(), h)
    }
}

/// What the reply callback keeps: a seeded sample of answers to check,
/// the reference answers with their query distances, and update batches
/// that did not apply in full.
struct Keep {
    seed: u64,
    sample: bool,
    sampled: BTreeMap<u64, (Arc<Op>, Digest)>,
    reference: Vec<(Arc<Op>, Digest)>,
    query_dists: Vec<f64>,
    errors: Vec<String>,
}

impl Keep {
    fn on_reply(&mut self, d: &Done, body: &[u8]) {
        if d.status != 200 {
            return;
        }
        match &*d.op {
            Op::Search(s) => {
                if d.phase == Phase::Reference {
                    self.reference.push((Arc::clone(&d.op), Digest::of(body)));
                    match client::query_distance(body) {
                        Some(qd) => self.query_dists.push(f64::from(qd)),
                        None => self
                            .errors
                            .push(format!("answer without a query distance: {}", s.body)),
                    }
                    return;
                }
                // Bottom-k by a seeded hash of the answer key: a uniform
                // sample of distinct answers, fixed by the seed.
                let rank = derive(self.seed, s.key);
                if self.sample && !self.sampled.contains_key(&rank) {
                    let full = self.sampled.len() >= CHECKED_ANSWERS;
                    if !full || rank < *self.sampled.keys().next_back().expect("full") {
                        self.sampled
                            .insert(rank, (Arc::clone(&d.op), Digest::of(body)));
                        if full {
                            self.sampled.pop_last();
                        }
                    }
                }
            }
            Op::Update(u) => {
                if !client::all_applied(body, u.ops.len()) {
                    self.errors.push(format!(
                        "update on {} did not apply every op: {}",
                        TENANTS[u.tenant],
                        String::from_utf8_lossy(body)
                    ));
                }
            }
        }
    }
}

/// Runs a serving workload that measures for `seconds` seconds.
pub fn run(workload: Workload, fixture: &Fixture, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let pool = query_pool(fixture, seed);
    let first = setup_probes(fixture, seed);
    let default_engine = CommunityEngine::build(ctc_truss::fixtures::figure1_graph());
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            out.errors.extend(Running::stop(old).err());
        }
        match start_server(fixture, &default_engine, &first) {
            Ok((running, t)) => {
                out.setup.push(t);
                server = Some(running);
            }
            Err(e) => {
                out.errors.push(format!("server start: {e}"));
                return out;
            }
        }
    }
    let server = server.expect("at least one start");
    let mut load = match LoadGen::new(server.addr) {
        Ok(d) => d,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            out.errors.extend(server.stop().err());
            return out;
        }
    };
    let mut keep = Keep {
        seed,
        sample: workload != Workload::ServeMixed,
        sampled: BTreeMap::new(),
        reference: Vec::new(),
        query_dists: Vec::new(),
        errors: Vec::new(),
    };
    let mut cb = |d: &Done, body: &[u8]| keep.on_reply(d, body);
    let mut draws = match workload {
        Workload::ServeCold => Draws::cold(fixture, seed, &first),
        _ => {
            let mut warmup = ListSource(pool.clone().into_iter());
            load.run(Phase::Warmup, &mut warmup, CONNECTIONS, &mut cb);
            Draws::hot(&pool, seed)
        }
    };
    let (rate, searches_per_write) = workload.spec();
    let mut writes = Writes::new(UpdateChain::new(fixture, seed), searches_per_write);
    let searches = (rate * seconds * OPEN_SHARE).round() as usize;
    let mut open = OpenSource::new(&mut draws, &mut writes, rate, seed, searches);
    load.run(Phase::Open, &mut open, CONNECTIONS, &mut cb);
    // The open loop sends what the seed fixes, however fast the server
    // is; the closed loop caches more answers on a faster one.
    out.peak_rss_mb = peak_rss_mb();
    let until = Instant::now() + Duration::from_secs_f64(seconds * CLOSED_SHARE);
    let mut closed = ClosedSource::new(&mut draws, &mut writes, until);
    load.run(Phase::Closed, &mut closed, CONNECTIONS, &mut cb);
    // The write path with the caches the searches left behind.
    if !writes.beside_searches() {
        let batches = writes.batches(UPDATE_BATCHES);
        load.run(
            Phase::Update,
            &mut ListSource(batches.into_iter()),
            1,
            &mut cb,
        );
    }
    load.run(
        Phase::Restore,
        &mut ListSource(writes.restore().into_iter()),
        1,
        &mut cb,
    );
    let reference = reference_queries(fixture, workload);
    let expected = reference.len();
    load.run(
        Phase::Reference,
        &mut ListSource(reference.into_iter()),
        CONNECTIONS,
        &mut cb,
    );
    load.conns.clear();
    out.errors.extend(server.stop().err());

    let mut records = std::mem::take(&mut load.done);
    records.sort_by_key(|d| d.sent);
    out.failed = records.iter().filter(|d| d.status != 200).count() as u64;
    out.records = records;
    out.phases = std::mem::take(&mut load.phases);
    out.errors.append(&mut keep.errors);
    out.query_dists = keep.query_dists;
    if out.query_dists.len() != expected {
        out.errors.push(format!(
            "{} of {expected} reference queries answered",
            out.query_dists.len()
        ));
    }
    let mut checks: Vec<(Arc<Op>, Digest)> = keep.sampled.into_values().collect();
    if keep.sample && checks.len() < CHECKED_ANSWERS {
        out.errors.push(format!(
            "only {} distinct answers to check, want {CHECKED_ANSWERS}",
            checks.len()
        ));
    }
    checks.append(&mut keep.reference);
    out.errors.extend(check_answers(fixture, &checks));
    out
}

/// Compares the digest of each served body with that of `encode_community`
/// of a direct search on the cold reference engine, on two threads.
/// Returns one line per mismatch.
pub fn check_answers(fixture: &Fixture, answers: &[(Arc<Op>, Digest)]) -> Vec<String> {
    let half = answers.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = answers
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|(op, digest)| {
                            let Op::Search(s) = &**op else {
                                return None;
                            };
                            let engine = &fixture.tenants[s.tenant].engine;
                            let expect = engine
                                .resolve_labels(&s.labels)
                                .map_err(|l| format!("label {l}"))
                                .and_then(|q| engine.search(&q, s.algo).map_err(|e| e.to_string()))
                                .map(|c| Digest::of(&encode_community(engine, &c)));
                            match expect {
                                Ok(d) if d == *digest => None,
                                Ok(_) => {
                                    Some(format!("answer differs from direct search: {}", s.body))
                                }
                                Err(e) => Some(format!("direct search failed on {}: {e}", s.body)),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|_| vec!["checker panicked".into()]))
            .collect()
    })
}
