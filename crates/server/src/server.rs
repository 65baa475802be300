//! The daemon: readiness loop, worker pool, multi-tenant router,
//! admission control, graceful shutdown.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//!                 ┌─────────────────────────────┐  readable conn   ┌──────────────────┐
//!  TcpListener ──►│ event loop (poll(2), one    │─────────────────►│ ConnQueue        │
//!  (nonblocking)  │ thread): accept + admission │  bounded push    │ (bounded; full → │
//!  wake socket ──►│ cap, idle keep-alive conns, │  (full → 503)    │ shed with 503)   │
//!  give-backs ───►│ per-request deadlines       │                  └────────┬─────────┘
//!                 └─────────────▲───────────────┘                           │ pop
//!                               │ conn handed back      ┌───────────┬───────┼─────────┐
//!                               │ after one bounded     ▼           ▼       ▼         ▼
//!                               │ read + responses   worker 0    worker 1  ...   worker N-1
//!                               └────────────────── (read → parse → route → respond,
//!                                                    panics caught per connection)
//! ```
//!
//! Idle keep-alive connections cost one `pollfd` slot, not a parked
//! worker thread: the event loop multiplexes thousands of them over the
//! fixed pool via [`crate::evented`], dispatching a connection only when
//! it is readable. A worker performs one bounded read on a socket known
//! to be readable, answers every complete pipelined request in the
//! buffer, and hands the connection back to the loop.
//!
//! The pool is still the PR-2 [`Parallelism`] substrate:
//! [`CtcServer::serve`] calls `pool.map_chunks(workers, ..)` with one
//! index per worker, so worker threads are the same scoped fork-join
//! primitive every other parallel phase of the workspace uses, and
//! `serve` returns only once every worker has drained and joined — clean
//! shutdown is structural, not best-effort. Because `map_chunks`
//! *propagates* worker panics, each connection is serviced under
//! [`std::panic::catch_unwind`]: a panicking handler costs that request a
//! `500` and its connection, never the server (the `panics` counter in
//! `/stats` makes it visible).
//!
//! Requests route per tenant — `/t/<name>/search|update|stats` against
//! the [`Registry`] — while the bare `/search`, `/update`, `/stats`
//! endpoints alias the `default` tenant, byte-compatible with the
//! single-tenant wire format. Admission control sheds early and
//! well-formed: over `max_conns` → `503` at accept; dispatch queue full
//! → `503`; tenant over its in-flight cap → `429` with `retry-after`.
//!
//! Shutdown ("SIGTERM-equivalent"): [`ServerHandle::shutdown`] (or a
//! `POST /shutdown` request) sets the shared flag and pokes the listener
//! with a loopback connection so the parked `poll` wakes, the event loop
//! drops idle connections and closes the queue, workers finish their
//! in-flight requests, drain what was already queued, and exit.

use crate::cache::LruCache;
#[cfg(unix)]
use crate::evented::{poll_fds, PollFd, WakePair};
use crate::http::{parse_request, HttpError, Parse, Request, Response, DEFAULT_MAX_BODY};
use crate::json::Json;
use crate::registry::{
    CachedAnswer, HealthPolicy, Registry, TenantCounters, TenantError, TenantState, TenantSummary,
};
use crate::wire::{
    decode_search_request, decode_update_request, encode_community, encode_error,
    encode_update_response, search_error_response, UpdateOutcome,
};
use ctc_core::{CommunityEngine, EngineUpdate, SearchAlgo};
use ctc_graph::Parallelism;
use ctc_truss::{DeltaLogFile, DeltaOp, DeltaRecord};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker-pool size (the `Parallelism` substrate; serial = 1 worker).
    pub pool: Parallelism,
    /// Per-tenant LRU answer-cache capacity; `0` disables caching.
    pub cache_cap: usize,
    /// Per-request body cap, bytes.
    pub max_body: usize,
    /// Socket read/write timeout, so a stalled client cannot pin a worker.
    pub io_timeout: Duration,
    /// Hard deadline for receiving one complete request. Unlike
    /// `io_timeout` (which a slow-loris client resets with every
    /// trickled byte), this bounds total time-to-request, so a worker
    /// can never be pinned longer than this per request. The clock
    /// restarts after each answered request, so healthy keep-alive
    /// connections live indefinitely — but an *idle* keep-alive
    /// connection is dropped once it goes this long without completing
    /// a request.
    pub request_deadline: Duration,
    /// Admission cap on concurrently open connections; an accept beyond
    /// it is answered with a well-formed `503` and closed.
    pub max_conns: usize,
    /// Bound on the event-loop → worker dispatch queue. A readable
    /// connection that does not fit is shed with a `503` instead of
    /// growing an unbounded queue.
    pub queue_cap: usize,
    /// Per-tenant cap on requests concurrently inside search/update
    /// handlers; beyond it requests shed with `429` + `retry-after`.
    /// `0` disables the cap.
    pub tenant_inflight: u64,
    /// Registry memory budget in bytes for resident engines; exceeding
    /// it evicts cold clean tenants (see [`Registry`]). `0` disables
    /// eviction.
    pub mem_budget: usize,
    /// Enables `POST /debug/panic` and `POST /debug/sleep` (global and
    /// per-tenant), the deterministic failure-injection hooks the
    /// admission and panic-isolation tests drive. Never enable in
    /// production.
    pub debug_endpoints: bool,
    /// Per-tenant health state machine tuning: how many consecutive
    /// failures quarantine a tenant, and the reload-probe backoff range.
    pub health: HealthPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool: Parallelism::serial(),
            cache_cap: 1024,
            max_body: DEFAULT_MAX_BODY,
            io_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            max_conns: 4096,
            queue_cap: 4096,
            tenant_inflight: 0,
            mem_budget: 0,
            debug_endpoints: false,
            health: HealthPolicy::default(),
        }
    }
}

/// Serving-layer counters: connection lifecycle, admission sheds, panic
/// isolation. Distinct from [`Counters`] (request routing) because these
/// move per *connection event*, not per routed request.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted from the listener (sheds included).
    pub accepted: AtomicU64,
    /// Connections admitted past the `max_conns` cap.
    pub admitted: AtomicU64,
    /// Currently open admitted connections (gauge).
    pub open_conns: AtomicU64,
    /// Connections currently sitting in the dispatch queue (gauge).
    pub queued: AtomicU64,
    /// Accepts shed with `503` because `max_conns` was reached.
    pub sheds_accept: AtomicU64,
    /// Readable connections shed with `503` because the dispatch queue
    /// was full.
    pub sheds_queue: AtomicU64,
    /// Requests shed with `429` because a tenant was at its in-flight
    /// cap (sum over tenants).
    pub sheds_429: AtomicU64,
    /// Connections dropped (no response) for exceeding the per-request
    /// deadline — slow-loris clients and idle-past-deadline keep-alives.
    pub deadline_drops: AtomicU64,
    /// Request handlers that panicked and were isolated (`500`, counted,
    /// server kept serving).
    pub panics: AtomicU64,
}

/// A plain-data copy of [`ServerCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCountersSnapshot {
    /// See [`ServerCounters::accepted`].
    pub accepted: u64,
    /// See [`ServerCounters::admitted`].
    pub admitted: u64,
    /// See [`ServerCounters::open_conns`].
    pub open_conns: u64,
    /// See [`ServerCounters::queued`].
    pub queued: u64,
    /// See [`ServerCounters::sheds_accept`].
    pub sheds_accept: u64,
    /// See [`ServerCounters::sheds_queue`].
    pub sheds_queue: u64,
    /// See [`ServerCounters::sheds_429`].
    pub sheds_429: u64,
    /// See [`ServerCounters::deadline_drops`].
    pub deadline_drops: u64,
    /// See [`ServerCounters::panics`].
    pub panics: u64,
}

impl ServerCounters {
    fn snapshot(&self) -> ServerCountersSnapshot {
        ServerCountersSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            open_conns: self.open_conns.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            sheds_accept: self.sheds_accept.load(Ordering::Relaxed),
            sheds_queue: self.sheds_queue.load(Ordering::Relaxed),
            sheds_429: self.sheds_429.load(Ordering::Relaxed),
            deadline_drops: self.deadline_drops.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Monotonic request counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests routed (any endpoint, any outcome).
    pub total: AtomicU64,
    /// `/search` answers served (cache hits included).
    pub search_ok: AtomicU64,
    /// `/search` requests that failed (bad body, unknown label, no
    /// community).
    pub search_err: AtomicU64,
    /// `/search` answers served from the LRU cache.
    pub cache_hits: AtomicU64,
    /// `/search` answers that ran the full search path.
    pub cache_misses: AtomicU64,
    /// `/healthz` hits.
    pub healthz: AtomicU64,
    /// `/stats` hits.
    pub stats: AtomicU64,
    /// Byte streams rejected by the HTTP parser.
    pub http_rejects: AtomicU64,
    /// `/update` batches answered `200` (individual ops inside may still
    /// have been rejected — see `updates_applied` / `updates_rejected`).
    pub update_ok: AtomicU64,
    /// `/update` requests whose body failed to decode (`400`) or whose
    /// batch failed internally (`500`).
    pub update_err: AtomicU64,
    /// Individual edge updates applied across all `200` batches. Together
    /// with `updates_rejected` this sums exactly to the per-op outcomes
    /// reported in `/update` response bodies — the invariant the soak
    /// test pins.
    pub updates_applied: AtomicU64,
    /// Individual edge updates rejected (duplicate edge, missing edge,
    /// unknown label, self-loop) across all `200` batches.
    pub updates_rejected: AtomicU64,
    /// Cumulative microseconds spent locating `G0`/`Gt` across uncached
    /// `/search` answers. With `phase_peel_us`, `phase_finish_us` and
    /// `phase_total_us` this makes phase regressions visible in production
    /// without a profiler: `GET /stats` divides them by `cache_misses`.
    pub phase_locate_us: AtomicU64,
    /// Cumulative peel-phase microseconds across uncached `/search`
    /// answers.
    pub phase_peel_us: AtomicU64,
    /// Cumulative post-peel (result assembly) microseconds across uncached
    /// `/search` answers. Accumulated as `total − locate − peel` per
    /// request, so `locate + peel + finish == total` holds exactly at the
    /// counter level.
    pub phase_finish_us: AtomicU64,
    /// Cumulative end-to-end search microseconds across uncached
    /// `/search` answers.
    pub phase_total_us: AtomicU64,
}

/// A plain-data copy of [`Counters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// See [`Counters::total`].
    pub total: u64,
    /// See [`Counters::search_ok`].
    pub search_ok: u64,
    /// See [`Counters::search_err`].
    pub search_err: u64,
    /// See [`Counters::cache_hits`].
    pub cache_hits: u64,
    /// See [`Counters::cache_misses`].
    pub cache_misses: u64,
    /// See [`Counters::healthz`].
    pub healthz: u64,
    /// See [`Counters::stats`].
    pub stats: u64,
    /// See [`Counters::http_rejects`].
    pub http_rejects: u64,
    /// See [`Counters::update_ok`].
    pub update_ok: u64,
    /// See [`Counters::update_err`].
    pub update_err: u64,
    /// See [`Counters::updates_applied`].
    pub updates_applied: u64,
    /// See [`Counters::updates_rejected`].
    pub updates_rejected: u64,
    /// See [`Counters::phase_locate_us`].
    pub phase_locate_us: u64,
    /// See [`Counters::phase_peel_us`].
    pub phase_peel_us: u64,
    /// See [`Counters::phase_finish_us`].
    pub phase_finish_us: u64,
    /// See [`Counters::phase_total_us`].
    pub phase_total_us: u64,
}

impl Counters {
    fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            total: self.total.load(Ordering::Relaxed),
            search_ok: self.search_ok.load(Ordering::Relaxed),
            search_err: self.search_err.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            healthz: self.healthz.load(Ordering::Relaxed),
            stats: self.stats.load(Ordering::Relaxed),
            http_rejects: self.http_rejects.load(Ordering::Relaxed),
            update_ok: self.update_ok.load(Ordering::Relaxed),
            update_err: self.update_err.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            updates_rejected: self.updates_rejected.load(Ordering::Relaxed),
            phase_locate_us: self.phase_locate_us.load(Ordering::Relaxed),
            phase_peel_us: self.phase_peel_us.load(Ordering::Relaxed),
            phase_finish_us: self.phase_finish_us.load(Ordering::Relaxed),
            phase_total_us: self.phase_total_us.load(Ordering::Relaxed),
        }
    }
}

/// The name the bare `/search|/update|/stats` endpoints alias.
pub const DEFAULT_TENANT: &str = "default";

/// Everything a request needs, shared across workers behind one [`Arc`]:
/// the tenant [`Registry`] (each tenant bundling its engines + answer
/// cache), counters and the shutdown flag. Also usable standalone —
/// without any socket — via [`AppState::respond`], which is how the fuzz
/// battery and the serve bench drive the full parse → dispatch → encode
/// path in-process.
///
/// Online updates split every tenant's engine in two:
///
/// * `primary` — the writer's engine, holding the warm [`DynamicIndex`]
///   maintenance state. Every `/update` serializes through this mutex.
/// * `serving` — the readers' engine, a frozen clone republished after
///   each applied batch. A `/search` clones it (Arc bumps) under a short
///   read lock and computes against that immutable view, so readers are
///   never blocked by a writer mid-maintenance and never observe a
///   half-applied batch.
///
/// [`DynamicIndex`]: ctc_truss::DynamicIndex
pub struct AppState {
    registry: Registry,
    /// The `default` tenant, resolved once: the single-tenant fast path
    /// (and a permanent pin — the default tenant is never evicted).
    default_tenant: Arc<TenantState>,
    counters: Counters,
    serving: ServerCounters,
    shutdown: AtomicBool,
    max_body: usize,
    tenant_inflight: u64,
    debug_endpoints: bool,
    /// Set once the listener is bound; the shutdown poke connects here.
    wake_addr: Mutex<Option<SocketAddr>>,
}

/// RAII admission token: holding it means the request is counted inside
/// its tenant's `in_flight` gauge; dropping (normally or via unwind)
/// releases the slot.
struct InflightGuard<'a>(&'a TenantCounters);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Locks a tenant's answer cache, recovering from poisoning: a handler
/// that panicked mid-insert may have left a partially updated recency
/// list, so the recovered cache is cleared — dropping answers is always
/// safe, serving from a corrupt structure is not.
fn lock_cache<'a>(
    t: &'a TenantState,
) -> MutexGuard<'a, LruCache<crate::wire::QueryKey, CachedAnswer>> {
    match t.cache.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        }
    }
}

/// A tenant's `cache` stats object. `bytes` sums the cached bodies,
/// read from the cache itself under the caller's lock rather than kept
/// as a second counter.
fn cache_stats(
    cache: &LruCache<crate::wire::QueryKey, CachedAnswer>,
    hits: u64,
    misses: u64,
) -> Json {
    let bytes: usize = cache.values().map(|a| a.body.len()).sum();
    Json::Object(vec![
        ("capacity".into(), Json::Uint(cache.capacity() as u64)),
        ("entries".into(), Json::Uint(cache.len() as u64)),
        ("bytes".into(), Json::Uint(bytes as u64)),
        ("hits".into(), Json::Uint(hits)),
        ("misses".into(), Json::Uint(misses)),
    ])
}

impl AppState {
    /// State over `engine` (registered as the `default` tenant) with the
    /// given tuning (no socket required).
    pub fn new(engine: CommunityEngine, cfg: &ServeConfig) -> Self {
        let registry = Registry::with_policy(cfg.mem_budget, cfg.cache_cap, cfg.health.clone());
        registry
            .add_engine(DEFAULT_TENANT, engine)
            .expect("fresh registry accepts the default tenant");
        let default_tenant = registry
            .get(DEFAULT_TENANT)
            .expect("default tenant just registered");
        AppState {
            registry,
            default_tenant,
            counters: Counters::default(),
            serving: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            max_body: cfg.max_body,
            tenant_inflight: cfg.tenant_inflight,
            debug_endpoints: cfg.debug_endpoints,
            wake_addr: Mutex::new(None),
        }
    }

    /// Registers an additional engine-backed tenant under `name`.
    pub fn add_tenant_engine(&self, name: &str, engine: CommunityEngine) -> Result<(), String> {
        self.registry.add_engine(name, engine)
    }

    /// Registers a path-backed tenant: the `.ctci` snapshot at `path` is
    /// loaded lazily on the first `/t/<name>/…` request and is eligible
    /// for bytes-weighted eviction when a memory budget is set.
    pub fn add_tenant_path(&self, name: &str, path: PathBuf) -> Result<(), String> {
        self.registry.add_path(name, path)
    }

    /// Attaches a write-ahead delta log to the `default` tenant: every
    /// applied `/update` op is appended (and synced) before the response,
    /// so a crashed server recovers its online updates on restart instead
    /// of silently reverting to the snapshot. The log must already be
    /// bound to the snapshot the default engine was built from (the
    /// `serve --log` path opens or recovers it first).
    pub fn attach_default_wal(&self, wal: DeltaLogFile) {
        let mut slot = self
            .default_tenant
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *slot = Some(wal);
    }

    /// The tenant registry (names, summaries, eviction counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The default tenant's state.
    pub fn default_tenant(&self) -> &Arc<TenantState> {
        &self.default_tenant
    }

    /// A clone of the default tenant's currently served (read-side)
    /// engine — Arc bumps, not a data copy. The clone is an immutable
    /// consistent view: later `/update`s republish rather than mutate in
    /// place.
    pub fn engine(&self) -> CommunityEngine {
        self.default_tenant
            .serving
            .read()
            .expect("serving poisoned")
            .clone()
    }

    /// The default tenant's publication epoch: how many update batches
    /// have republished its serving engine so far.
    pub fn epoch(&self) -> u64 {
        self.default_tenant.epoch()
    }

    /// Serving-layer counters (admission, sheds, panics).
    pub fn server_counters(&self) -> ServerCountersSnapshot {
        self.serving.snapshot()
    }

    /// Current counter values.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: sets the flag and pokes the listener (if bound)
    /// so the blocking accept wakes. Idempotent.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let addr = *self.wake_addr.lock().expect("wake_addr poisoned");
        if let Some(mut addr) = addr {
            // A listener bound to the unspecified address (0.0.0.0/[::])
            // reports it back from local_addr(), but connecting *to* the
            // unspecified address is invalid on some platforms — poke
            // loopback on the same port instead.
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                    SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
                });
            }
            // Poke the blocking accept awake. Retried with backoff: under
            // fd exhaustion the first connect fails, but draining workers
            // free sockets within moments, and without a successful poke
            // (or incoming traffic, or an accept error — both of which
            // also observe the flag) the acceptor would stay blocked.
            for _ in 0..10 {
                if TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }

    /// Runs one buffered byte stream through the full request path:
    /// parse → route → encode. Returns `None` when the bytes are a valid
    /// prefix of a request (the server would keep reading; a standalone
    /// caller treats it as a clean close), otherwise the exact response
    /// bytes the server would write. Never panics on any input — the
    /// property the fuzz battery pins.
    pub fn respond(&self, raw: &[u8]) -> Option<Vec<u8>> {
        match parse_request(raw, self.max_body) {
            Ok(Parse::Incomplete) => None,
            Ok(Parse::Complete(req, _)) => {
                // Route first: a /shutdown request must see its own effect
                // (its response, and every later one, carries
                // `connection: close`).
                let (response, panicked) = self.route_caught(&req);
                let close = panicked || req.wants_close() || self.is_shutting_down();
                Some(response.encode(close))
            }
            Err(e) => Some(self.reject(e).encode(true)),
        }
    }

    /// The error response for a stream the parser rejected.
    fn reject(&self, e: HttpError) -> Response {
        self.counters.http_rejects.fetch_add(1, Ordering::Relaxed);
        let (status, reason) = e.status();
        Response::error(status, reason, encode_error(e.detail()))
    }

    /// Routes one parsed request with panic isolation: a panicking
    /// handler yields a `500` and `panicked = true` (the caller must
    /// close the connection — handler state mid-panic is unknowable),
    /// never an unwind into the worker pool's scoped join.
    fn route_caught(&self, req: &Request) -> (Response, bool) {
        match catch_unwind(AssertUnwindSafe(|| self.route(req))) {
            Ok(response) => (response, false),
            Err(_) => {
                self.serving.panics.fetch_add(1, Ordering::Relaxed);
                (
                    Response::error(
                        500,
                        "Internal Server Error",
                        encode_error("request handler panicked; connection closed"),
                    ),
                    true,
                )
            }
        }
    }

    /// Admission check: counts the request into the tenant's in-flight
    /// gauge, or sheds with a well-formed `429` when the tenant is at
    /// its cap.
    fn admit<'a>(&self, t: &'a TenantState) -> Result<InflightGuard<'a>, Response> {
        let prev = t.counters.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.tenant_inflight > 0 && prev >= self.tenant_inflight {
            t.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
            t.counters.sheds_429.fetch_add(1, Ordering::Relaxed);
            self.serving.sheds_429.fetch_add(1, Ordering::Relaxed);
            return Err(Response::error(
                429,
                "Too Many Requests",
                encode_error(&format!(
                    "tenant {} is at its in-flight cap ({})",
                    t.name(),
                    self.tenant_inflight
                )),
            )
            .with_header("retry-after", "1"));
        }
        Ok(InflightGuard(&t.counters))
    }

    /// Routes one parsed request to its endpoint handler.
    fn route(&self, req: &Request) -> Response {
        self.counters.total.fetch_add(1, Ordering::Relaxed);
        let method = req.method.as_str();
        let target = req.target.as_str();
        if let Some(rest) = target.strip_prefix("/t/") {
            return match rest.split_once('/') {
                Some((name, tail)) => self.route_tenant(method, name, tail, req),
                None => Response::error(
                    404,
                    "Not Found",
                    encode_error("tenant endpoints are /t/<name>/search|update|stats"),
                ),
            };
        }
        match (method, target) {
            ("POST", "/search") => self.tenant_request(&self.default_tenant, req, true),
            ("POST", "/update") => self.tenant_request(&self.default_tenant, req, false),
            ("GET", "/healthz") => {
                self.counters.healthz.fetch_add(1, Ordering::Relaxed);
                // Non-200 while any tenant is quarantined, so orchestrator
                // probes see a sick daemon; the healthy body stays the
                // byte-exact `{"status":"ok"}` the smoke scripts grep.
                let quarantined = self.registry.quarantined_names();
                if quarantined.is_empty() {
                    Response::ok(
                        Json::Object(vec![("status".into(), Json::Str("ok".into()))])
                            .encode()
                            .into_bytes(),
                    )
                } else {
                    Response::error(
                        503,
                        "Service Unavailable",
                        Json::Object(vec![
                            ("status".into(), Json::Str("degraded".into())),
                            (
                                "quarantined".into(),
                                Json::Array(quarantined.into_iter().map(Json::Str).collect()),
                            ),
                        ])
                        .encode()
                        .into_bytes(),
                    )
                }
            }
            ("GET", "/stats") => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Response::ok(self.encode_stats())
            }
            ("POST", "/shutdown") => {
                self.request_shutdown();
                Response::ok(
                    Json::Object(vec![("status".into(), Json::Str("shutting down".into()))])
                        .encode()
                        .into_bytes(),
                )
            }
            ("POST", "/debug/panic") if self.debug_endpoints => {
                self.with_panic_attribution(&self.default_tenant, Self::debug_panic)
            }
            ("POST", "/debug/sleep") if self.debug_endpoints => {
                self.debug_sleep(&self.default_tenant, req)
            }
            (_, "/search" | "/update" | "/healthz" | "/stats" | "/shutdown") => Response::error(
                405,
                "Method Not Allowed",
                encode_error("method not allowed for this endpoint"),
            ),
            _ => Response::error(404, "Not Found", encode_error("no such endpoint")),
        }
    }

    /// Routes a `/t/<name>/<tail>` request. Endpoint and method are
    /// validated *before* the registry lookup, so a 404/405 never loads
    /// a snapshot.
    fn route_tenant(&self, method: &str, name: &str, tail: &str, req: &Request) -> Response {
        let known = matches!(tail, "search" | "update" | "stats")
            || (self.debug_endpoints && matches!(tail, "debug/panic" | "debug/sleep"));
        if !known {
            return Response::error(404, "Not Found", encode_error("no such tenant endpoint"));
        }
        let want_post = tail != "stats";
        if (want_post && method != "POST") || (!want_post && method != "GET") {
            return Response::error(
                405,
                "Method Not Allowed",
                encode_error("method not allowed for this endpoint"),
            );
        }
        let tenant = match self.registry.get(name) {
            Ok(t) => t,
            Err(TenantError::Unknown) => {
                return Response::error(
                    404,
                    "Not Found",
                    encode_error(&format!("no such tenant: {name}")),
                )
            }
            Err(TenantError::Load(msg)) => {
                return Response::error(503, "Service Unavailable", encode_error(&msg))
            }
            Err(TenantError::Quarantined {
                retry_after_secs,
                reason,
            }) => return Self::quarantined_response(name, retry_after_secs, &reason),
        };
        match tail {
            "search" => self.tenant_request(&tenant, req, true),
            "update" => self.tenant_request(&tenant, req, false),
            "stats" => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Response::ok(self.encode_tenant_stats(&tenant))
            }
            "debug/panic" => self.with_panic_attribution(&tenant, Self::debug_panic),
            "debug/sleep" => self.debug_sleep(&tenant, req),
            _ => unreachable!("tail validated above"),
        }
    }

    /// The `503` a quarantined tenant answers with: `retry-after` carries
    /// the remaining backoff so well-behaved clients pace themselves.
    fn quarantined_response(name: &str, retry_after_secs: u64, reason: &str) -> Response {
        Response::error(
            503,
            "Service Unavailable",
            encode_error(&format!("tenant {name} is quarantined: {reason}")),
        )
        .with_header("retry-after", retry_after_secs.to_string())
    }

    /// Runs `f` with its outcome attributed to the tenant's health state
    /// machine: a normal return records a success, a panic records a
    /// failure and resumes unwinding (so the outer [`Self::route_caught`]
    /// still answers `500` and closes the connection). Repeated panics
    /// quarantine the tenant exactly like repeated load failures.
    fn with_panic_attribution(
        &self,
        tenant: &TenantState,
        f: impl FnOnce() -> Response,
    ) -> Response {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(response) => {
                tenant.health.record_success();
                response
            }
            Err(payload) => {
                tenant.health.record_failure("request handler panicked");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Admission-gated dispatch to a tenant's search or update handler:
    /// quarantine first (503 + `retry-after`), then the in-flight cap
    /// (429), then the handler under panic attribution.
    fn tenant_request(&self, tenant: &TenantState, req: &Request, search: bool) -> Response {
        if let Err((retry_after_secs, reason)) = tenant.health.check_admit() {
            return Self::quarantined_response(tenant.name(), retry_after_secs, &reason);
        }
        let guard = match self.admit(tenant) {
            Ok(g) => g,
            Err(shed) => return shed,
        };
        let response = self.with_panic_attribution(tenant, || {
            if search {
                self.handle_search(tenant, req)
            } else {
                self.handle_update(tenant, req)
            }
        });
        drop(guard);
        response
    }

    /// `POST /debug/panic`: panics inside the handler — the trap the
    /// poisoned-handler test springs to prove isolation.
    fn debug_panic() -> Response {
        panic!("debug panic endpoint");
    }

    /// `POST /debug/sleep {"ms":N}`: holds an admission slot for `ms`
    /// (clamped to 10s), making queue-flood and 429 tests deterministic.
    fn debug_sleep(&self, tenant: &TenantState, req: &Request) -> Response {
        let guard = match self.admit(tenant) {
            Ok(g) => g,
            Err(shed) => return shed,
        };
        let ms = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|json| match json {
                Json::Object(pairs) => pairs.into_iter().find_map(|(k, v)| match (k, v) {
                    (k, Json::Uint(n)) if k == "ms" => Some(n),
                    _ => None,
                }),
                _ => None,
            })
            .unwrap_or(50)
            .min(10_000);
        std::thread::sleep(Duration::from_millis(ms));
        drop(guard);
        Response::ok(
            Json::Object(vec![("slept_ms".into(), Json::Uint(ms))])
                .encode()
                .into_bytes(),
        )
    }

    /// `POST /search` (any tenant): decode → resolve labels → cache →
    /// engine → encode. Search counters move on both the global set and
    /// the tenant's own.
    fn handle_search(&self, tenant: &TenantState, req: &Request) -> Response {
        // Capture the serving engine and the publication epoch under one
        // read lock: the pair is what makes "which graph answered this"
        // well-defined while /update batches republish concurrently.
        let (snapshot, epoch) = {
            let guard = tenant.serving.read().expect("serving poisoned");
            (guard.clone(), tenant.epoch.load(Ordering::SeqCst))
        };
        let search_err = || {
            self.counters.search_err.fetch_add(1, Ordering::Relaxed);
            tenant.counters.search_err.fetch_add(1, Ordering::Relaxed);
        };
        let parsed = match decode_search_request(&req.body, snapshot.config()) {
            Ok(p) => p,
            Err(e) => {
                search_err();
                return Response::error(e.status, "Bad Request", encode_error(&e.message));
            }
        };
        let q = match snapshot.resolve_labels(&parsed.labels) {
            Ok(q) => q,
            Err(label) => {
                search_err();
                return Response::error(
                    404,
                    "Not Found",
                    encode_error(&format!("label {label} not in graph")),
                );
            }
        };
        let key = parsed.key();
        // Bind the lookup to its own statement so the cache mutex is
        // released at once: under the lock a hit is only an Arc bump, and
        // the response shares the cached body, never copying it, here or
        // on its way to the socket.
        let hit = lock_cache(tenant).get(&key);
        if let Some(ans) = hit {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.counters.search_ok.fetch_add(1, Ordering::Relaxed);
            tenant.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            tenant.counters.search_ok.fetch_add(1, Ordering::Relaxed);
            return Response::shared(ans.body).with_header("x-cache", "hit");
        }
        // Miss: run the search under the per-request config. The engine
        // clone is three Arc bumps; per-query inner parallelism stays
        // whatever the base config says (serial for serving — the pool
        // already owns the cores).
        let engine = snapshot.clone().with_config(parsed.cfg);
        match engine.search(&q, parsed.algo) {
            Ok(c) => {
                self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                self.counters.search_ok.fetch_add(1, Ordering::Relaxed);
                tenant.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                tenant.counters.search_ok.fetch_add(1, Ordering::Relaxed);
                // The finish counter absorbs the integer-truncation residue
                // along with the assembly time, keeping
                // locate + peel + finish == total exact in the µs domain.
                let lu = c.timings.locate.as_micros() as u64;
                let pu = c.timings.peel.as_micros() as u64;
                let tu = c.timings.total.as_micros() as u64;
                self.counters
                    .phase_locate_us
                    .fetch_add(lu, Ordering::Relaxed);
                self.counters.phase_peel_us.fetch_add(pu, Ordering::Relaxed);
                self.counters
                    .phase_finish_us
                    .fetch_add(tu.saturating_sub(lu).saturating_sub(pu), Ordering::Relaxed);
                self.counters
                    .phase_total_us
                    .fetch_add(tu, Ordering::Relaxed);
                // Encode once into an exact-size buffer that the cache
                // and this response share: a later hit neither re-encodes
                // nor copies the community.
                let body = Arc::new(encode_community(&snapshot, &c));
                {
                    let mut cache = lock_cache(tenant);
                    // Re-check the epoch under the cache lock: if an
                    // update published while this search ran, the answer
                    // was computed against a superseded graph. Inserting
                    // it after the update's invalidation pass would poison
                    // the cache; skipping the insert is always safe.
                    if tenant.epoch.load(Ordering::SeqCst) == epoch {
                        cache.insert(
                            key,
                            CachedAnswer {
                                k: c.k,
                                body: Arc::clone(&body),
                            },
                        );
                    }
                }
                Response::shared(body).with_header("x-cache", "miss")
            }
            Err(e) => {
                search_err();
                let (status, reason, body) = search_error_response(&e);
                Response::error(status, reason, body)
            }
        }
    }

    /// `POST /update`: decode → resolve labels per-op → maintain the
    /// primary index → republish a frozen clone → invalidate affected
    /// cache classes. Always `200` with per-op outcomes when the body
    /// decodes; individual ops reject independently.
    fn handle_update(&self, tenant: &TenantState, req: &Request) -> Response {
        let update_err = || {
            self.counters.update_err.fetch_add(1, Ordering::Relaxed);
            tenant.counters.update_err.fetch_add(1, Ordering::Relaxed);
        };
        let parsed = match decode_update_request(&req.body) {
            Ok(p) => p,
            Err(e) => {
                update_err();
                return Response::error(e.status, "Bad Request", encode_error(&e.message));
            }
        };
        // One writer at a time: the whole resolve → maintain → publish
        // sequence holds the primary lock, so batches are serialized and
        // the serving engine always corresponds to a prefix of batches.
        let mut primary = tenant.primary.lock().expect("primary poisoned");
        // Resolve labels per-op. An unknown label rejects that op alone;
        // resolved ops keep their batch position so outcomes line up.
        let mut slots: Vec<Result<EngineUpdate, String>> = Vec::with_capacity(parsed.ops.len());
        for op in &parsed.ops {
            let resolve = |label: u64| {
                primary
                    .resolve_labels(&[label])
                    .map(|v| v[0])
                    .map_err(|l| format!("label {l} not in graph"))
            };
            slots.push(resolve(op.u).and_then(|u| {
                resolve(op.v).map(|v| {
                    if op.insert {
                        EngineUpdate::insert(u, v)
                    } else {
                        EngineUpdate::delete(u, v)
                    }
                })
            }));
        }
        let batch: Vec<EngineUpdate> = slots.iter().filter_map(|s| s.clone().ok()).collect();
        let report = match primary.apply_batch(&batch) {
            Ok(r) => r,
            Err(e) => {
                // Internal failure (the maintained state could not be
                // re-materialized) — nothing was published.
                update_err();
                let (status, reason, body) = search_error_response(&e);
                return Response::error(status, reason, body);
            }
        };
        if report.applied > 0 {
            // Publish a frozen clone for readers, then drop the affected
            // cache classes. The epoch bump happens under the write lock,
            // so a reader's (engine, epoch) capture is always consistent.
            let frozen = primary.frozen_clone();
            {
                let mut serving = tenant.serving.write().expect("serving poisoned");
                *serving = frozen;
                tenant.epoch.fetch_add(1, Ordering::SeqCst);
            }
            // The maintained graph now exists only in memory: mark the
            // tenant dirty so the registry never evicts it (a reload
            // from the snapshot would silently discard this batch).
            tenant.dirty.store(true, Ordering::SeqCst);
            let max_class = report.max_class;
            // Exact algorithms answer from τ ≥ k subgraphs, which are
            // untouched for k > max_class; LCTC explores the raw graph
            // around the query, so any applied update invalidates it.
            lock_cache(tenant)
                .retain(|key, ans| key.algo != SearchAlgo::Local && ans.k > max_class);
            // Journal the applied ops before answering. Each append syncs,
            // so an acknowledged batch survives kill -9 (`serve --log`
            // recovers and replays the log on restart). Still under the
            // primary lock: batches reach the log in publication order.
            let mut wal = tenant.wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(lf) = wal.as_mut() {
                let mut failed = false;
                for (upd, res) in batch.iter().zip(report.results.iter()) {
                    if res.is_err() {
                        continue;
                    }
                    let op = if upd.insert {
                        DeltaOp::Insert
                    } else {
                        DeltaOp::Delete
                    };
                    if lf.append(DeltaRecord::new(op, upd.u.0, upd.v.0)).is_err() {
                        failed = true;
                        break;
                    }
                    tenant.counters.wal_appended.fetch_add(1, Ordering::Relaxed);
                }
                if failed {
                    // After a failed append the file may trail the handle's
                    // in-memory view: detach instead of writing at a stale
                    // offset, count it so `/stats` shows the loss, and keep
                    // the 200 — the served state is correct, durability is
                    // what was lost (a restart recovers the legal prefix).
                    tenant.counters.wal_errors.fetch_add(1, Ordering::Relaxed);
                    *wal = None;
                }
            }
            drop(wal);
        }
        // Zip engine results back into batch positions.
        let mut engine_results = report.results.into_iter();
        let outcomes: Vec<UpdateOutcome> = slots
            .into_iter()
            .map(|slot| match slot {
                Err(error) => UpdateOutcome::Rejected { error },
                Ok(_) => match engine_results.next().expect("one result per applied op") {
                    Ok(r) => UpdateOutcome::Applied {
                        trussness: r.edge_truss,
                        changed: r.changed as u64,
                    },
                    Err(e) => UpdateOutcome::Rejected {
                        error: e.to_string(),
                    },
                },
            })
            .collect();
        drop(primary);
        let applied = report.applied as u64;
        let rejected = (outcomes.len() - report.applied) as u64;
        self.counters.update_ok.fetch_add(1, Ordering::Relaxed);
        self.counters
            .updates_applied
            .fetch_add(applied, Ordering::Relaxed);
        self.counters
            .updates_rejected
            .fetch_add(rejected, Ordering::Relaxed);
        tenant.counters.update_ok.fetch_add(1, Ordering::Relaxed);
        tenant
            .counters
            .updates_applied
            .fetch_add(applied, Ordering::Relaxed);
        tenant
            .counters
            .updates_rejected
            .fetch_add(rejected, Ordering::Relaxed);
        Response::ok(encode_update_response(
            applied,
            rejected,
            report.max_class,
            &outcomes,
        ))
    }

    /// The `server` stats object: serving-layer counters + registry
    /// summary, appended to both the global and per-tenant stats bodies.
    fn encode_server_object(&self) -> Json {
        let v = self.serving.snapshot();
        let summaries: Vec<TenantSummary> = self.registry.summaries();
        Json::Object(vec![
            ("accepted".into(), Json::Uint(v.accepted)),
            ("admitted".into(), Json::Uint(v.admitted)),
            ("open_conns".into(), Json::Uint(v.open_conns)),
            ("queued".into(), Json::Uint(v.queued)),
            ("sheds_accept".into(), Json::Uint(v.sheds_accept)),
            ("sheds_queue".into(), Json::Uint(v.sheds_queue)),
            ("sheds_429".into(), Json::Uint(v.sheds_429)),
            ("deadline_drops".into(), Json::Uint(v.deadline_drops)),
            ("panics".into(), Json::Uint(v.panics)),
            (
                "health".into(),
                Json::Object(vec![
                    (
                        "status".into(),
                        Json::Str(
                            if summaries
                                .iter()
                                .any(|t| t.health == crate::registry::HealthStatus::Quarantined)
                            {
                                "degraded".into()
                            } else {
                                "ok".into()
                            },
                        ),
                    ),
                    (
                        "quarantined".into(),
                        Json::Array(
                            summaries
                                .iter()
                                .filter(|t| t.health == crate::registry::HealthStatus::Quarantined)
                                .map(|t| Json::Str(t.name.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "registry".into(),
                Json::Object(vec![
                    ("tenants".into(), Json::Uint(summaries.len() as u64)),
                    (
                        "loaded".into(),
                        Json::Uint(summaries.iter().filter(|t| t.loaded).count() as u64),
                    ),
                    (
                        "resident_bytes".into(),
                        Json::Uint(self.registry.resident_bytes() as u64),
                    ),
                    (
                        "budget_bytes".into(),
                        Json::Uint(self.registry.budget_bytes() as u64),
                    ),
                    ("loads".into(), Json::Uint(self.registry.loads())),
                    ("evictions".into(), Json::Uint(self.registry.evictions())),
                ]),
            ),
        ])
    }

    /// The `/t/<name>/stats` body: the tenant's own graph, cache, and
    /// request counters (these survive eviction/reload — the registry
    /// owns them).
    fn encode_tenant_stats(&self, tenant: &TenantState) -> Vec<u8> {
        let s = tenant.serving.read().expect("serving poisoned").stats();
        let c = &tenant.counters;
        let load = |a: &AtomicU64| Json::Uint(a.load(Ordering::Relaxed));
        let cache = cache_stats(
            &lock_cache(tenant),
            c.cache_hits.load(Ordering::Relaxed),
            c.cache_misses.load(Ordering::Relaxed),
        );
        let h = tenant.health.snapshot();
        Json::Object(vec![
            ("tenant".into(), Json::Str(tenant.name().into())),
            ("dirty".into(), Json::Bool(tenant.is_dirty())),
            ("cost_bytes".into(), Json::Uint(tenant.cost_bytes() as u64)),
            ("load_us".into(), load(&c.load_us)),
            (
                "health".into(),
                Json::Object(vec![
                    ("status".into(), Json::Str(h.status.as_str().into())),
                    (
                        "consecutive_failures".into(),
                        Json::Uint(h.consecutive_failures as u64),
                    ),
                    ("quarantines".into(), Json::Uint(h.quarantines)),
                    (
                        "retry_in_secs".into(),
                        h.retry_in_secs.map_or(Json::Null, Json::Uint),
                    ),
                    ("reason".into(), Json::Str(h.reason)),
                ]),
            ),
            (
                "graph".into(),
                Json::Object(vec![
                    ("num_vertices".into(), Json::Uint(s.num_vertices as u64)),
                    ("num_edges".into(), Json::Uint(s.num_edges as u64)),
                    ("max_truss".into(), Json::Uint(s.max_truss as u64)),
                    ("labeled".into(), Json::Bool(s.labeled)),
                ]),
            ),
            ("cache".into(), cache),
            (
                "requests".into(),
                Json::Object(vec![
                    ("search_ok".into(), load(&c.search_ok)),
                    ("search_err".into(), load(&c.search_err)),
                    ("sheds_429".into(), load(&c.sheds_429)),
                    ("in_flight".into(), load(&c.in_flight)),
                ]),
            ),
            (
                "updates".into(),
                Json::Object(vec![
                    ("batches_ok".into(), load(&c.update_ok)),
                    ("batches_err".into(), load(&c.update_err)),
                    ("applied".into(), load(&c.updates_applied)),
                    ("rejected".into(), load(&c.updates_rejected)),
                    ("epoch".into(), Json::Uint(tenant.epoch())),
                    ("wal_appended".into(), load(&c.wal_appended)),
                    ("wal_errors".into(), load(&c.wal_errors)),
                ]),
            ),
        ])
        .encode()
        .into_bytes()
    }

    /// The `/stats` body: graph/index summary + request counters. The
    /// graph and cache objects describe the `default` tenant (wire
    /// compatibility with the single-tenant format); request/update
    /// counters are global aggregates, and the `server` object carries
    /// serving-layer and registry state.
    fn encode_stats(&self) -> Vec<u8> {
        let s = self.engine().stats();
        let c = self.counters.snapshot();
        let cache = cache_stats(
            &lock_cache(&self.default_tenant),
            c.cache_hits,
            c.cache_misses,
        );
        Json::Object(vec![
            (
                "graph".into(),
                Json::Object(vec![
                    ("num_vertices".into(), Json::Uint(s.num_vertices as u64)),
                    ("num_edges".into(), Json::Uint(s.num_edges as u64)),
                    ("max_truss".into(), Json::Uint(s.max_truss as u64)),
                    ("labeled".into(), Json::Bool(s.labeled)),
                ]),
            ),
            ("cache".into(), cache),
            (
                "requests".into(),
                Json::Object(vec![
                    ("total".into(), Json::Uint(c.total)),
                    ("search_ok".into(), Json::Uint(c.search_ok)),
                    ("search_err".into(), Json::Uint(c.search_err)),
                    ("healthz".into(), Json::Uint(c.healthz)),
                    ("stats".into(), Json::Uint(c.stats)),
                    ("http_rejects".into(), Json::Uint(c.http_rejects)),
                ]),
            ),
            // Online-update accounting: batches_ok + batches_err covers
            // every /update request; applied + rejected sums exactly over
            // the per-op outcomes of the 200 responses (the soak test
            // pins this), and epoch counts publications.
            (
                "updates".into(),
                Json::Object(vec![
                    ("batches_ok".into(), Json::Uint(c.update_ok)),
                    ("batches_err".into(), Json::Uint(c.update_err)),
                    ("applied".into(), Json::Uint(c.updates_applied)),
                    ("rejected".into(), Json::Uint(c.updates_rejected)),
                    ("epoch".into(), Json::Uint(self.epoch())),
                ]),
            ),
            // Cumulative per-phase search time over uncached answers:
            // divide by cache.misses for means; watch peel_us to catch
            // query-hot-path regressions in production (docs/PERF.md).
            (
                "phases".into(),
                Json::Object(vec![
                    ("locate_us".into(), Json::Uint(c.phase_locate_us)),
                    ("peel_us".into(), Json::Uint(c.phase_peel_us)),
                    ("finish_us".into(), Json::Uint(c.phase_finish_us)),
                    ("total_us".into(), Json::Uint(c.phase_total_us)),
                ]),
            ),
            ("server".into(), self.encode_server_object()),
        ])
        .encode()
        .into_bytes()
    }
}

/// One admitted connection's state: the socket (kept *blocking* — the
/// event loop only uses readiness to decide when to dispatch; workers
/// bound every read/write with timeouts), bytes of a not-yet-complete
/// request, and the running per-request deadline.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
}

impl Conn {
    fn new(stream: TcpStream, io_timeout: Duration, deadline: Instant) -> Conn {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(io_timeout));
        Conn {
            stream,
            buf: Vec::new(),
            deadline,
        }
    }
}

/// The *bounded* dispatch queue between the event loop and the workers.
/// `push` refuses past `cap` (or once closed) and returns the item, so
/// the caller sheds it with a well-formed `503` — a connection flood
/// costs rejected requests, never unbounded queue memory (the prior
/// unbounded `VecDeque` turned floods into OOM).
struct ConnQueue<T> {
    cap: usize,
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> ConnQueue<T> {
    fn new(cap: usize) -> Self {
        ConnQueue {
            cap: cap.max(1),
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`, or returns it when the queue is full or closed.
    fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.items.len() >= self.cap {
            return Err(item);
        }
        inner.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once closed *and* drained, so
    /// queued requests are still answered during shutdown.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// Writes a well-formed `503` and lets the drop close the socket. The
/// socket may not have a write timeout yet (accept-time shed), so one is
/// set first — the body is small enough that the write never blocks on a
/// healthy kernel buffer anyway.
fn shed_503(stream: &mut TcpStream, io_timeout: Duration, detail: &str) {
    let _ = stream.set_write_timeout(Some(io_timeout));
    let _ =
        Response::error(503, "Service Unavailable", encode_error(detail)).write_to(stream, true);
}

/// What [`CtcServer::serve`] reports after a graceful shutdown.
#[derive(Clone, Copy, Debug)]
pub struct ServeReport {
    /// Final counter values.
    pub counters: CountersSnapshot,
    /// Final serving-layer counters (admission, sheds, panics).
    pub server: ServerCountersSnapshot,
    /// Connections admitted across the server's lifetime.
    pub connections: u64,
}

/// A bound-but-not-yet-serving server.
pub struct CtcServer {
    listener: TcpListener,
    state: Arc<AppState>,
    pool: Parallelism,
    io_timeout: Duration,
    request_deadline: Duration,
    max_conns: usize,
    queue_cap: usize,
}

/// A cheap handle for stopping and observing a running server from
/// another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<AppState>,
}

impl ServerHandle {
    /// Triggers graceful shutdown: in-flight and already-queued requests
    /// are answered, then `serve` returns. Idempotent.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Current counter values.
    pub fn counters(&self) -> CountersSnapshot {
        self.state.counters()
    }

    /// Current serving-layer counter values.
    pub fn server_counters(&self) -> ServerCountersSnapshot {
        self.state.server_counters()
    }
}

impl CtcServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares to serve `engine`.
    pub fn bind(
        engine: CommunityEngine,
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
    ) -> std::io::Result<CtcServer> {
        let state = Arc::new(AppState::new(engine, &cfg));
        Self::bind_state(state, addr, &cfg)
    }

    /// Binds `addr` over pre-built state — the multi-tenant entry point:
    /// build an [`AppState`], register tenants, then bind.
    pub fn bind_state(
        state: Arc<AppState>,
        addr: impl ToSocketAddrs,
        cfg: &ServeConfig,
    ) -> std::io::Result<CtcServer> {
        let listener = TcpListener::bind(addr)?;
        *state.wake_addr.lock().expect("wake_addr poisoned") = Some(listener.local_addr()?);
        Ok(CtcServer {
            listener,
            state,
            pool: cfg.pool,
            io_timeout: cfg.io_timeout,
            request_deadline: cfg.request_deadline,
            max_conns: cfg.max_conns,
            queue_cap: cfg.queue_cap,
        })
    }

    /// The bound address (the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("listener has a local addr")
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Shared application state (for in-process drivers and tests).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown is requested, then drains and returns.
    /// Blocks the calling thread; run it in a dedicated thread when the
    /// caller needs to keep working (see `tests/serve.rs`).
    ///
    /// On unix this runs the poll(2) readiness loop (idle keep-alive
    /// connections cost a `pollfd` slot, not a worker); elsewhere it
    /// falls back to the blocking acceptor with the same bounded-queue
    /// admission control.
    pub fn serve(self) -> ServeReport {
        let CtcServer {
            listener,
            state,
            pool,
            io_timeout,
            request_deadline,
            max_conns,
            queue_cap,
        } = self;
        let queue: ConnQueue<Conn> = ConnQueue::new(queue_cap);
        let workers = pool.get();
        #[cfg(unix)]
        {
            listener
                .set_nonblocking(true)
                .expect("listener supports nonblocking accept");
            let wake = WakePair::new().expect("loopback wake pair");
            let waker = wake.waker();
            let injector: Mutex<Vec<Conn>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                let ev = scope.spawn(|| {
                    event_loop(EventLoopEnv {
                        listener: &listener,
                        state: &state,
                        queue: &queue,
                        injector: &injector,
                        wake: &wake,
                        io_timeout,
                        request_deadline,
                        max_conns,
                    })
                });
                // The worker pool: one queue-draining loop per
                // Parallelism worker, scheduled through the same
                // fork-join substrate as every other parallel phase.
                // map_chunks returns only when every worker has exited,
                // i.e. the queue is closed and drained.
                pool.map_chunks(workers, |_range| {
                    worker_loop(&state, &queue, io_timeout, request_deadline, |conn| {
                        // Hand the keep-alive connection back to the
                        // event loop's idle set and wake its poll.
                        injector
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(conn);
                        waker.wake();
                        None
                    });
                });
                // No user code runs on the event-loop thread, so a panic
                // there is a server bug worth propagating — unlike
                // handler panics, which are isolated per connection.
                ev.join().expect("event loop panicked");
            });
            // Connections handed back after the loop exited: close them
            // now so the open-connection gauge ends exact.
            for conn in injector.into_inner().unwrap_or_else(|e| e.into_inner()) {
                drop(conn);
                state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
        #[cfg(not(unix))]
        {
            std::thread::scope(|scope| {
                let acceptor = scope.spawn(|| {
                    loop {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if state.is_shutting_down() {
                                    // The wake poke (or a straggler):
                                    // drop it and stop accepting.
                                    drop(stream);
                                    break;
                                }
                                accept_one(
                                    &state,
                                    &queue,
                                    stream,
                                    io_timeout,
                                    request_deadline,
                                    max_conns,
                                );
                            }
                            Err(_) => {
                                if state.is_shutting_down() {
                                    break;
                                }
                                // Transient accept failure (EMFILE,
                                // aborted handshake): keep serving, but
                                // back off so a persistent error cannot
                                // pin a core in a hot accept loop.
                                std::thread::sleep(Duration::from_millis(50));
                            }
                        }
                    }
                    queue.close();
                });
                pool.map_chunks(workers, |_range| {
                    // No event loop to hand connections back to: the
                    // worker keeps servicing its keep-alive connection
                    // inline (blocking reads, as before the readiness
                    // loop).
                    worker_loop(&state, &queue, io_timeout, request_deadline, Some);
                });
                acceptor.join().expect("acceptor panicked");
            });
        }
        ServeReport {
            counters: state.counters(),
            server: state.server_counters(),
            connections: state.serving.admitted.load(Ordering::Relaxed),
        }
    }
}

/// Admission at accept time: over `max_conns` sheds with `503`,
/// otherwise the connection is admitted and queued (non-unix fallback
/// path; the evented loop admits into its idle set instead).
#[cfg(not(unix))]
fn accept_one(
    state: &AppState,
    queue: &ConnQueue<Conn>,
    mut stream: TcpStream,
    io_timeout: Duration,
    request_deadline: Duration,
    max_conns: usize,
) {
    state.serving.accepted.fetch_add(1, Ordering::Relaxed);
    if state.serving.open_conns.load(Ordering::SeqCst) as usize >= max_conns {
        state.serving.sheds_accept.fetch_add(1, Ordering::Relaxed);
        shed_503(
            &mut stream,
            io_timeout,
            "server at connection capacity; retry later",
        );
        return;
    }
    state.serving.admitted.fetch_add(1, Ordering::Relaxed);
    state.serving.open_conns.fetch_add(1, Ordering::SeqCst);
    let conn = Conn::new(stream, io_timeout, Instant::now() + request_deadline);
    match queue.push(conn) {
        Ok(()) => {
            state.serving.queued.fetch_add(1, Ordering::SeqCst);
        }
        Err(mut conn) => {
            state.serving.sheds_queue.fetch_add(1, Ordering::Relaxed);
            shed_503(
                &mut conn.stream,
                io_timeout,
                "dispatch queue full; retry later",
            );
            state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Everything the readiness loop borrows from `serve`'s stack.
#[cfg(unix)]
struct EventLoopEnv<'a> {
    listener: &'a TcpListener,
    state: &'a AppState,
    queue: &'a ConnQueue<Conn>,
    injector: &'a Mutex<Vec<Conn>>,
    wake: &'a WakePair,
    io_timeout: Duration,
    request_deadline: Duration,
    max_conns: usize,
}

/// The readiness loop: multiplexes the listener, the wake channel, and
/// every idle admitted connection through one `poll(2)` set. Readable
/// connections dispatch to the bounded worker queue (full → shed 503);
/// idle connections past their request deadline are dropped; accepts
/// beyond `max_conns` shed with 503.
#[cfg(unix)]
fn event_loop(env: EventLoopEnv<'_>) {
    let EventLoopEnv {
        listener,
        state,
        queue,
        injector,
        wake,
        io_timeout,
        request_deadline,
        max_conns,
    } = env;
    // The idle set: admitted connections currently owned by the loop
    // (not queued, not inside a worker).
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if state.is_shutting_down() {
            break;
        }
        let mut fds = Vec::with_capacity(2 + conns.len());
        fds.push(PollFd::readable(wake.poll_fd()));
        fds.push(PollFd::readable(listener.as_raw_fd()));
        for conn in &conns {
            fds.push(PollFd::readable(conn.stream.as_raw_fd()));
        }
        // Park until traffic, a wake byte, or the nearest deadline.
        let now = Instant::now();
        let timeout = conns
            .iter()
            .map(|c| c.deadline.saturating_duration_since(now))
            .min();
        if poll_fds(&mut fds, timeout).is_err() {
            // poll(2) failing outright (ENOMEM) has no per-iteration
            // remedy; back off instead of spinning hot.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        if state.is_shutting_down() {
            break;
        }
        wake.drain();
        // Re-admit connections workers handed back. They were not in
        // this round's poll set; the next iteration covers them.
        conns.append(&mut injector.lock().unwrap_or_else(|e| e.into_inner()));
        // Dispatch readable connections (fds[i + 2] watches conns[i]).
        // Reverse order keeps pending swap_remove indices valid, and the
        // appended give-backs live past the polled prefix so swaps never
        // disturb an index still to be visited.
        for i in (0..fds.len().saturating_sub(2)).rev() {
            if !fds[i + 2].is_actionable() {
                continue;
            }
            let conn = conns.swap_remove(i);
            match queue.push(conn) {
                Ok(()) => {
                    state.serving.queued.fetch_add(1, Ordering::SeqCst);
                }
                Err(mut conn) => {
                    state.serving.sheds_queue.fetch_add(1, Ordering::Relaxed);
                    shed_503(
                        &mut conn.stream,
                        io_timeout,
                        "dispatch queue full; retry later",
                    );
                    state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
        // Expire connections past their request deadline: dropped with
        // no response — the slow-loris shed.
        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            if now >= conns[i].deadline {
                drop(conns.swap_remove(i));
                state.serving.deadline_drops.fetch_add(1, Ordering::Relaxed);
                state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
            } else {
                i += 1;
            }
        }
        // Drain the accept backlog (nonblocking, level-triggered).
        if fds[1].is_actionable() {
            loop {
                match listener.accept() {
                    Ok((mut stream, _peer)) => {
                        if state.is_shutting_down() {
                            drop(stream);
                            break;
                        }
                        state.serving.accepted.fetch_add(1, Ordering::Relaxed);
                        if state.serving.open_conns.load(Ordering::SeqCst) as usize >= max_conns {
                            state.serving.sheds_accept.fetch_add(1, Ordering::Relaxed);
                            shed_503(
                                &mut stream,
                                io_timeout,
                                "server at connection capacity; retry later",
                            );
                            continue;
                        }
                        state.serving.admitted.fetch_add(1, Ordering::Relaxed);
                        state.serving.open_conns.fetch_add(1, Ordering::SeqCst);
                        conns.push(Conn::new(
                            stream,
                            io_timeout,
                            Instant::now() + request_deadline,
                        ));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    // Transient accept failure (EMFILE, aborted
                    // handshake): stop draining; the next poll round
                    // paces the retry, so no hot loop.
                    Err(_) => break,
                }
            }
        }
    }
    // Shutdown: idle connections are dropped; queued ones drain through
    // the workers, each answered with `connection: close`.
    for conn in conns.drain(..) {
        drop(conn);
        state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
    }
    queue.close();
}

/// What one `service_conn` round decided about the connection.
enum Fate {
    /// A request may still arrive: back to the idle set (or, without an
    /// event loop, another blocking read).
    KeepAlive,
    /// Done: client EOF, error, `connection: close`, or shutdown.
    Close,
    /// No complete request within the deadline: drop with no response.
    DeadlineDrop,
}

/// One dispatch round for a connection a worker received: one bounded
/// read, then every complete pipelined request in the buffer is routed
/// and answered. Never blocks longer than `min(io_timeout, remaining
/// deadline)` on the read and `io_timeout` per response write.
fn service_conn(
    state: &AppState,
    conn: &mut Conn,
    io_timeout: Duration,
    request_deadline: Duration,
) -> Fate {
    // The deadline is checked *after* the read-and-answer pass, never
    // before it: a connection that queued behind a dispatch burst may be
    // past its deadline by the time a worker pops it, but if a complete
    // request is sitting in its socket the client did everything right —
    // answering it resets the deadline. Only silence is dropped.
    let budget = conn
        .deadline
        .saturating_duration_since(Instant::now())
        .min(io_timeout);
    let _ = conn
        .stream
        .set_read_timeout(Some(budget.max(Duration::from_millis(1))));
    let mut chunk = [0u8; 16384];
    match conn.stream.read(&mut chunk) {
        // EOF with nothing (or only a partial request) buffered: clean
        // close, nothing to answer.
        Ok(0) => return Fate::Close,
        Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::Interrupted
            ) =>
        {
            // Spurious readiness or a timed-out blocking read: nothing
            // new buffered; the deadline check below decides.
        }
        Err(_) => return Fate::Close,
    }
    // Answer every complete request already buffered (pipelining).
    loop {
        match parse_request(&conn.buf, state.max_body) {
            Ok(Parse::Incomplete) => break,
            Ok(Parse::Complete(req, consumed)) => {
                conn.buf.drain(..consumed);
                // Route before deciding keep-alive, so a /shutdown
                // request closes its own connection instead of pinning
                // a worker until the client hangs up. A panicking
                // handler forces the close: its in-flight state is
                // unknowable.
                let (routed, panicked) = state.route_caught(&req);
                let close = panicked || req.wants_close() || state.is_shutting_down();
                if routed.write_to(&mut conn.stream, close).is_err() {
                    return Fate::Close;
                }
                if close {
                    return Fate::Close;
                }
                conn.deadline = Instant::now() + request_deadline;
            }
            Err(e) => {
                let _ = state.reject(e).write_to(&mut conn.stream, true);
                return Fate::Close;
            }
        }
    }
    if Instant::now() >= conn.deadline {
        return Fate::DeadlineDrop;
    }
    Fate::KeepAlive
}

/// A worker: drains the dispatch queue, servicing one connection round
/// at a time under `catch_unwind` (the pool's scoped join propagates
/// panics, so an unwind here would kill the whole server — the prior
/// panic-kills-server bug). `give_back` returns `None` when it took the
/// keep-alive connection (evented mode) or hands it back for inline
/// servicing (fallback mode).
fn worker_loop(
    state: &AppState,
    queue: &ConnQueue<Conn>,
    io_timeout: Duration,
    request_deadline: Duration,
    give_back: impl Fn(Conn) -> Option<Conn>,
) {
    while let Some(conn) = queue.pop() {
        state.serving.queued.fetch_sub(1, Ordering::SeqCst);
        let mut slot = Some(conn);
        loop {
            let mut conn = slot.take().expect("connection present");
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let fate = service_conn(state, &mut conn, io_timeout, request_deadline);
                (fate, conn)
            }));
            match outcome {
                Ok((Fate::KeepAlive, conn)) => match give_back(conn) {
                    None => break,
                    Some(conn) => {
                        slot = Some(conn);
                    }
                },
                Ok((Fate::Close, conn)) => {
                    drop(conn);
                    state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
                Ok((Fate::DeadlineDrop, conn)) => {
                    drop(conn);
                    state.serving.deadline_drops.fetch_add(1, Ordering::Relaxed);
                    state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
                Err(_) => {
                    // route_caught already isolates handler panics; this
                    // is the outer belt for the read/parse/encode path.
                    // The connection unwound with the closure — count
                    // and keep serving.
                    state.serving.panics.fetch_add(1, Ordering::Relaxed);
                    state.serving.open_conns.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_core::SearchAlgo;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
    use std::io::Write;

    fn state(cache_cap: usize) -> AppState {
        AppState::new(
            CommunityEngine::build(figure1_graph()),
            &ServeConfig {
                cache_cap,
                ..ServeConfig::default()
            },
        )
    }

    fn req(method: &str, target: &str, body: &str) -> Vec<u8> {
        format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn split(response: &[u8]) -> (String, Vec<u8>) {
        let pos = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response has a head");
        (
            String::from_utf8(response[..pos].to_vec()).unwrap(),
            response[pos + 4..].to_vec(),
        )
    }

    #[test]
    fn healthz_and_stats_roundtrip() {
        let s = state(8);
        let (head, body) = split(&s.respond(&req("GET", "/healthz", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, br#"{"status":"ok"}"#);
        let (head, body) = split(&s.respond(&req("GET", "/stats", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains(r#""num_vertices":12"#), "{text}");
        assert!(text.contains(r#""healthz":1"#), "{text}");
    }

    #[test]
    fn search_matches_direct_engine_answer_and_caches() {
        let s = state(8);
        let f = Figure1Ids::default();
        let body = format!(
            r#"{{"query":[{},{},{}],"algo":"basic"}}"#,
            f.q1.0, f.q2.0, f.q3.0
        );
        let first = s.respond(&req("POST", "/search", &body)).unwrap();
        let (head, payload) = split(&first);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("x-cache: miss"), "{head}");
        let direct = s
            .engine()
            .search(&[f.q1, f.q2, f.q3], SearchAlgo::Basic)
            .unwrap();
        assert_eq!(payload, encode_community(&s.engine(), &direct));
        // Second identical request: byte-identical body, served by cache.
        let second = s.respond(&req("POST", "/search", &body)).unwrap();
        let (head2, payload2) = split(&second);
        assert!(head2.contains("x-cache: hit"), "{head2}");
        assert_eq!(payload2, payload, "cached body must be byte-identical");
        let c = s.counters();
        assert_eq!((c.cache_hits, c.cache_misses), (1, 1));
        // A permuted query with duplicates hits the same slot.
        let permuted = format!(
            r#"{{"query":[{},{},{},{}]}}"#,
            f.q3.0, f.q1.0, f.q2.0, f.q1.0
        );
        let algo_pinned = format!(r#"{{"query":[{},{},{}]}}"#, f.q1.0, f.q2.0, f.q3.0);
        let a = s.respond(&req("POST", "/search", &permuted)).unwrap();
        let b = s.respond(&req("POST", "/search", &algo_pinned)).unwrap();
        assert_eq!(split(&a).1, split(&b).1);
    }

    #[test]
    fn stats_reports_cumulative_phase_micros() {
        let s = state(8);
        let f = Figure1Ids::default();
        let body = format!(
            r#"{{"query":[{},{},{}],"algo":"basic"}}"#,
            f.q1.0, f.q2.0, f.q3.0
        );
        // Before any search: all phase counters zero.
        let (_, stats0) = split(&s.respond(&req("GET", "/stats", "")).unwrap());
        let text0 = String::from_utf8(stats0).unwrap();
        assert!(
            text0.contains(r#""phases":{"locate_us":0,"peel_us":0,"finish_us":0,"total_us":0}"#),
            "{text0}"
        );
        // One uncached search accumulates micros; a cache hit must not.
        s.respond(&req("POST", "/search", &body)).unwrap();
        let c1 = s.counters();
        assert_eq!(
            c1.phase_locate_us + c1.phase_peel_us + c1.phase_finish_us,
            c1.phase_total_us,
            "phases must partition the total exactly: {c1:?}"
        );
        s.respond(&req("POST", "/search", &body)).unwrap();
        let c2 = s.counters();
        assert_eq!(
            (
                c2.phase_locate_us,
                c2.phase_peel_us,
                c2.phase_finish_us,
                c2.phase_total_us
            ),
            (
                c1.phase_locate_us,
                c1.phase_peel_us,
                c1.phase_finish_us,
                c1.phase_total_us
            ),
            "cache hits must not move the phase counters"
        );
        let (_, stats1) = split(&s.respond(&req("GET", "/stats", "")).unwrap());
        let text1 = String::from_utf8(stats1).unwrap();
        assert!(
            text1.contains(&format!(r#""peel_us":{}"#, c2.phase_peel_us)),
            "{text1}"
        );
    }

    /// The counter arithmetic must stay exact across many uncached
    /// searches of different algorithms — the sum of per-request integer
    /// truncation residue lands in `finish_us`, never lost.
    #[test]
    fn phase_counters_sum_exactly_across_requests() {
        let s = state(8);
        let f = Figure1Ids::default();
        let queries = [f.q1, f.q2, f.q3];
        for (i, algo) in ["basic", "bd", "lctc", "truss"].iter().enumerate() {
            let body = format!(r#"{{"query":[{}],"algo":"{algo}"}}"#, queries[i % 3].0);
            let _ = s.respond(&req("POST", "/search", &body));
        }
        let c = s.counters();
        assert!(c.cache_misses >= 3, "expected several uncached searches");
        assert_eq!(
            c.phase_locate_us + c.phase_peel_us + c.phase_finish_us,
            c.phase_total_us,
            "locate + peel + finish must equal total: {c:?}"
        );
    }

    #[test]
    fn update_applies_and_reports_per_op_outcomes() {
        let s = state(8);
        let f = Figure1Ids::default();
        let (q1, q2, t) = (f.q1.0, f.q2.0, f.t.0);
        // Four ops: a real delete, its re-insert, an unknown label, and a
        // duplicate insert. The rejections must not poison the batch.
        let body = format!(
            r#"{{"updates":[{{"op":"delete","u":{q1},"v":{t}}},{{"op":"insert","u":{q1},"v":{t}}},{{"op":"insert","u":{q1},"v":9999}},{{"op":"insert","u":{q1},"v":{q2}}}]}}"#
        );
        let (head, payload) = split(&s.respond(&req("POST", "/update", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let text = String::from_utf8(payload).unwrap();
        assert!(
            text.starts_with(r#"{"applied":2,"rejected":2,"max_class":2,"#),
            "{text}"
        );
        // The bridge is a support-0 edge: trussness 2, no cascade.
        assert!(
            text.contains(r#"{"status":"applied","trussness":2,"changed":0}"#),
            "{text}"
        );
        assert!(text.contains("label 9999 not in graph"), "{text}");
        assert!(text.contains("already present"), "{text}");
        let c = s.counters();
        assert_eq!((c.update_ok, c.update_err), (1, 0));
        assert_eq!((c.updates_applied, c.updates_rejected), (2, 2));
        // One publication for the batch; the graph ends where it began.
        assert_eq!(s.epoch(), 1);
        let (_, stats) = split(&s.respond(&req("GET", "/stats", "")).unwrap());
        let stats = String::from_utf8(stats).unwrap();
        assert!(stats.contains(r#""num_edges":25"#), "{stats}");
        assert!(
            stats.contains(
                r#""updates":{"batches_ok":1,"batches_err":0,"applied":2,"rejected":2,"epoch":1}"#
            ),
            "{stats}"
        );
    }

    #[test]
    fn update_rejections_and_bad_bodies() {
        let s = state(8);
        let f = Figure1Ids::default();
        // Malformed body: 400, no publication.
        let (head, _) = split(&s.respond(&req("POST", "/update", "{nope")).unwrap());
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        // All ops rejected: still 200, but nothing published.
        let body = format!(
            r#"{{"updates":[{{"op":"delete","u":{},"v":{}}}]}}"#,
            f.q1.0, f.q3.0
        );
        let (head, payload) = split(&s.respond(&req("POST", "/update", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let text = String::from_utf8(payload).unwrap();
        assert!(
            text.starts_with(r#"{"applied":0,"rejected":1,"max_class":0,"#),
            "{text}"
        );
        assert!(text.contains("is not present"), "{text}");
        assert_eq!(s.epoch(), 0, "an all-rejected batch must not republish");
        let c = s.counters();
        assert_eq!((c.update_ok, c.update_err), (1, 1));
        // Wrong method on /update is 405, not 404.
        let (head, _) = split(&s.respond(&req("GET", "/update", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
    }

    #[test]
    fn update_invalidates_by_class_and_keeps_unaffected_answers() {
        let s = state(8);
        let f = Figure1Ids::default();
        let (q1, q2, q3, t) = (f.q1.0, f.q2.0, f.q3.0, f.t.0);
        let basic = format!(r#"{{"query":[{q1},{q2},{q3}],"algo":"basic"}}"#);
        let lctc = format!(r#"{{"query":[{q1},{q2},{q3}],"algo":"lctc"}}"#);
        s.respond(&req("POST", "/search", &basic)).unwrap();
        s.respond(&req("POST", "/search", &lctc)).unwrap();
        // Deleting the bridge touches only class 2; the k=4 Basic answer
        // is provably unaffected and must survive, while the heuristic
        // LCTC answer (graph-shape dependent) must be dropped.
        let update = format!(r#"{{"updates":[{{"op":"delete","u":{q1},"v":{t}}}]}}"#);
        let (head, _) = split(&s.respond(&req("POST", "/update", &update)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let (head, _) = split(&s.respond(&req("POST", "/search", &basic)).unwrap());
        assert!(head.contains("x-cache: hit"), "k=4 > max_class=2: {head}");
        let (head, _) = split(&s.respond(&req("POST", "/search", &lctc)).unwrap());
        assert!(head.contains("x-cache: miss"), "LCTC always drops: {head}");
        // A deletion inside the community touches class 4: the Basic
        // entry now goes too.
        let update = format!(r#"{{"updates":[{{"op":"delete","u":{q1},"v":{q2}}}]}}"#);
        s.respond(&req("POST", "/update", &update)).unwrap();
        let (head, _) = split(&s.respond(&req("POST", "/search", &basic)).unwrap());
        assert!(head.contains("x-cache: miss"), "{head}");
    }

    #[test]
    fn readers_observe_published_updates() {
        let s = state(0);
        let f = Figure1Ids::default();
        let before = s.engine();
        let update = format!(
            r#"{{"updates":[{{"op":"delete","u":{},"v":{}}}]}}"#,
            f.q1.0, f.t.0
        );
        s.respond(&req("POST", "/update", &update)).unwrap();
        // A clone captured before the update keeps its consistent view;
        // fresh captures see the mutated graph.
        assert_eq!(before.stats().num_edges, 25);
        assert_eq!(s.engine().stats().num_edges, 24);
        let (_, stats) = split(&s.respond(&req("GET", "/stats", "")).unwrap());
        assert!(String::from_utf8(stats)
            .unwrap()
            .contains(r#""num_edges":24"#));
    }

    #[test]
    fn cache_key_respects_config_knobs() {
        let s = state(8);
        let f = Figure1Ids::default();
        let base = format!(r#"{{"query":[{}]}}"#, f.q1.0);
        let tuned = format!(r#"{{"query":[{}],"eta":64}}"#, f.q1.0);
        s.respond(&req("POST", "/search", &base)).unwrap();
        s.respond(&req("POST", "/search", &tuned)).unwrap();
        let c = s.counters();
        assert_eq!(
            (c.cache_hits, c.cache_misses),
            (0, 2),
            "an eta override must not hit the default-config slot"
        );
    }

    #[test]
    fn search_error_paths_map_to_statuses() {
        let s = state(8);
        for (body, status) in [
            ("{not json", "400"),
            (r#"{"query":[9999]}"#, "404"),
            (r#"{"query":[1],"nope":1}"#, "400"),
        ] {
            let (head, payload) = split(&s.respond(&req("POST", "/search", body)).unwrap());
            assert!(
                head.starts_with(&format!("HTTP/1.1 {status}")),
                "{body}: {head}"
            );
            assert!(payload.starts_with(br#"{"error":"#), "{body}");
        }
        let c = s.counters();
        assert_eq!(c.search_err, 3);
        assert_eq!(c.search_ok, 0);
    }

    #[test]
    fn unknown_routes_and_methods() {
        let s = state(8);
        let (head, _) = split(&s.respond(&req("GET", "/nope", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 404"));
        let (head, _) = split(&s.respond(&req("DELETE", "/search", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 405"));
        let (head, _) = split(&s.respond(b"GET / HTTP/2\r\n\r\n").unwrap());
        assert!(head.starts_with("HTTP/1.1 505"));
        assert_eq!(s.counters().http_rejects, 1);
    }

    fn search_body(algo: &str) -> String {
        let f = Figure1Ids::default();
        format!(
            r#"{{"query":[{},{},{}],"algo":"{algo}"}}"#,
            f.q1.0, f.q2.0, f.q3.0
        )
    }

    #[test]
    fn hits_share_the_cached_body_allocation() {
        let s = state(8);
        let raw = req("POST", "/search", &search_body("bd"));
        let Ok(Parse::Complete(r, _)) = parse_request(&raw, DEFAULT_MAX_BODY) else {
            panic!("complete request");
        };
        let [miss, hit, again] = [s.route(&r), s.route(&r), s.route(&r)];
        assert_eq!(miss.headers, [("x-cache", "miss".to_string())]);
        assert_eq!(hit.headers, [("x-cache", "hit".to_string())]);
        assert!(Arc::ptr_eq(&hit.body, &again.body), "a hit copied the body");
        assert!(
            Arc::ptr_eq(&miss.body, &hit.body),
            "the miss answers from the buffer it cached"
        );
    }

    #[test]
    fn keep_alive_socket_pipelines_a_miss_and_a_hit_byte_for_byte() {
        let body = search_body("lctc");
        let search = req("POST", "/search", &body);
        let closing = format!(
            "POST /search HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        let reference = state(8);
        let mut expected = reference.respond(&search).unwrap();
        expected.extend(reference.respond(&closing).unwrap());
        let server = CtcServer::bind(
            CommunityEngine::build(figure1_graph()),
            "127.0.0.1:0",
            ServeConfig {
                pool: Parallelism::threads(2),
                cache_cap: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.write_all(&[search, closing].concat()).unwrap();
        let mut got = Vec::new();
        conn.read_to_end(&mut got).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected)
        );
        handle.shutdown();
        let report = join.join().expect("serve thread panicked");
        assert_eq!(
            (report.counters.cache_misses, report.counters.cache_hits),
            (1, 1)
        );
    }

    #[test]
    fn stats_cache_bytes_sum_the_cached_bodies() {
        let s = state(2);
        let stats = |target: &str| {
            let (_, body) = split(&s.respond(&req("GET", target, "")).unwrap());
            let json = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            let cache = json.get("cache").expect("cache object");
            (
                cache.get("entries").and_then(Json::as_u64).unwrap(),
                cache.get("bytes").and_then(Json::as_u64).unwrap(),
            )
        };
        assert_eq!(stats("/stats"), (0, 0));
        let mut sizes = Vec::new();
        for algo in ["basic", "bd", "lctc"] {
            let raw = s.respond(&req("POST", "/search", &search_body(algo)));
            sizes.push(split(&raw.unwrap()).1.len() as u64);
        }
        // Capacity 2: the first answer was evicted, the last two remain.
        let want = (2, sizes[1] + sizes[2]);
        assert_eq!(stats("/stats"), want);
        assert_eq!(stats("/t/default/stats"), want);
        // A hit moves nothing.
        s.respond(&req("POST", "/search", &search_body("lctc")));
        assert_eq!(stats("/stats"), want);
    }

    #[test]
    fn labels_past_u32_are_unknown_not_panics() {
        let s = state(8);
        let (head, body) = split(
            &s.respond(&req(
                "POST",
                "/search",
                r#"{"query":[18446744073709551615]}"#,
            ))
            .unwrap(),
        );
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(
            body,
            br#"{"error":"label 18446744073709551615 not in graph"}"#
        );
        let (head, body) = split(
            &s.respond(&req(
                "POST",
                "/update",
                r#"{"updates":[{"op":"insert","u":0,"v":4294967296}]}"#,
            ))
            .unwrap(),
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            String::from_utf8(body).unwrap().contains(r#""rejected":1"#),
            "the op is rejected alone"
        );
        assert_eq!(s.server_counters().panics, 0);
    }

    #[test]
    fn respond_is_none_on_partial_streams() {
        let s = state(8);
        assert_eq!(s.respond(b""), None);
        assert_eq!(
            s.respond(b"POST /search HTTP/1.1\r\ncontent-length: 99\r\n\r\n{"),
            None
        );
    }

    #[test]
    fn shutdown_endpoint_sets_the_flag() {
        let s = state(8);
        assert!(!s.is_shutting_down());
        let (head, _) = split(&s.respond(&req("POST", "/shutdown", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(
            head.contains("connection: close"),
            "the shutdown response itself must close its connection, not \
             pin a worker on keep-alive until the io timeout: {head}"
        );
        assert!(s.is_shutting_down());
        // Responses now carry connection: close.
        let bytes = s.respond(&req("GET", "/healthz", "")).unwrap();
        assert!(String::from_utf8(bytes)
            .unwrap()
            .contains("connection: close"));
    }

    #[test]
    fn bound_server_serves_and_shuts_down_over_tcp() {
        let engine = CommunityEngine::build(figure1_graph());
        let server = CtcServer::bind(
            engine,
            "127.0.0.1:0",
            ServeConfig {
                pool: Parallelism::threads(2),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response).unwrap();
        assert!(response.starts_with(b"HTTP/1.1 200 OK"));
        handle.shutdown();
        let report = join.join().expect("serve thread panicked");
        assert_eq!(report.counters.healthz, 1);
        assert!(report.connections >= 1);
    }

    #[test]
    fn trickling_client_is_dropped_at_the_request_deadline() {
        let engine = CommunityEngine::build(figure1_graph());
        let server = CtcServer::bind(
            engine,
            "127.0.0.1:0",
            ServeConfig {
                request_deadline: Duration::from_millis(200),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        // A slow-loris client: partial head, then silence. The single
        // serial worker must shed it at the deadline instead of being
        // pinned, leaving the server able to answer the next client.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"GET /healthz HTT").unwrap();
        let t0 = Instant::now();
        let mut end = Vec::new();
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = loris.read_to_end(&mut end).unwrap_or(1);
        assert_eq!(n, 0, "trickler must be dropped without a response");
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "drop must come from the deadline, not a long io timeout"
        );
        // The worker is free again: a healthy client gets answered.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response).unwrap();
        assert!(response.starts_with(b"HTTP/1.1 200 OK"));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn queue_close_unblocks_poppers_and_drains() {
        let q: ConnQueue<u32> = ConnQueue::new(4);
        std::thread::scope(|scope| {
            let popper = scope.spawn(|| q.pop());
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert!(popper.join().unwrap().is_none());
        });
    }

    #[test]
    fn queue_is_bounded_and_rejects_overflow() {
        let q: ConnQueue<u32> = ConnQueue::new(2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        // Full: the element comes back to the caller (who sheds it with
        // a 503) instead of growing the queue without bound.
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(()));
        q.close();
        // Closed: pushes bounce, queued elements still drain.
        assert_eq!(q.push(4), Err(4));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn panicking_handler_gets_500_and_server_keeps_serving() {
        let s = AppState::new(
            CommunityEngine::build(figure1_graph()),
            &ServeConfig {
                debug_endpoints: true,
                ..ServeConfig::default()
            },
        );
        let bytes = s.respond(&req("POST", "/debug/panic", "")).unwrap();
        let (head, payload) = split(&bytes);
        assert!(head.starts_with("HTTP/1.1 500"), "{head}");
        assert!(
            head.contains("connection: close"),
            "a panicked handler's connection must close: {head}"
        );
        assert!(payload.starts_with(br#"{"error":"#));
        assert_eq!(s.server_counters().panics, 1);
        // The state survives: routing, search, and stats still work.
        let (head, _) = split(&s.respond(&req("GET", "/healthz", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let f = Figure1Ids::default();
        let body = format!(r#"{{"query":[{}]}}"#, f.q1.0);
        let (head, _) = split(&s.respond(&req("POST", "/search", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let (_, stats) = split(&s.respond(&req("GET", "/stats", "")).unwrap());
        let text = String::from_utf8(stats).unwrap();
        assert!(text.contains(r#""panics":1"#), "{text}");
    }

    #[test]
    fn debug_endpoints_are_gated_off_by_default() {
        let s = state(8);
        let (head, _) = split(&s.respond(&req("POST", "/debug/panic", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(s.server_counters().panics, 0);
    }

    #[test]
    fn tenant_inflight_cap_sheds_429_with_retry_after() {
        let s = AppState::new(
            CommunityEngine::build(figure1_graph()),
            &ServeConfig {
                tenant_inflight: 1,
                ..ServeConfig::default()
            },
        );
        // Hold the single admission slot on the default tenant, then
        // race a second request against it.
        let guard = s
            .default_tenant()
            .counters
            .in_flight
            .fetch_add(1, Ordering::SeqCst);
        assert_eq!(guard, 0);
        let f = Figure1Ids::default();
        let body = format!(r#"{{"query":[{}]}}"#, f.q1.0);
        let (head, payload) = split(&s.respond(&req("POST", "/search", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 429"), "{head}");
        assert!(head.contains("retry-after: 1"), "{head}");
        assert!(payload.starts_with(br#"{"error":"#));
        assert_eq!(
            s.default_tenant().counters.sheds_429.load(Ordering::SeqCst),
            1
        );
        // Release the slot: the next request is admitted.
        s.default_tenant()
            .counters
            .in_flight
            .fetch_sub(1, Ordering::SeqCst);
        let (head, _) = split(&s.respond(&req("POST", "/search", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }

    #[test]
    fn tenant_scoped_routes_serve_named_engines() {
        let s = state(8);
        s.add_tenant_engine("fig", CommunityEngine::build(figure1_graph()))
            .unwrap();
        let f = Figure1Ids::default();
        let body = format!(r#"{{"query":[{}]}}"#, f.q1.0);
        // Same engine, same answer, through the tenant-scoped path.
        let bare = s.respond(&req("POST", "/search", &body)).unwrap();
        let scoped = s.respond(&req("POST", "/t/fig/search", &body)).unwrap();
        assert_eq!(split(&bare).1, split(&scoped).1);
        // Explicit default-tenant path is the same slot as the bare one.
        let aliased = s.respond(&req("POST", "/t/default/search", &body)).unwrap();
        assert_eq!(split(&bare).1, split(&aliased).1);
        // Tenant counters are isolated: fig saw one search, default two.
        let (_, stats) = split(&s.respond(&req("GET", "/t/fig/stats", "")).unwrap());
        let text = String::from_utf8(stats).unwrap();
        assert!(text.contains(r#""tenant":"fig""#), "{text}");
        assert!(text.contains(r#""search_ok":1"#), "{text}");
        // Unknown tenants 404 (valid name) or 400 (invalid name); a bad
        // endpoint under a known tenant 404s without loading anything.
        let (head, _) = split(&s.respond(&req("POST", "/t/ghost/search", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = split(
            &s.respond(&req("POST", "/t/bad!name/search", &body))
                .unwrap(),
        );
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = split(&s.respond(&req("GET", "/t/fig/nope", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = split(&s.respond(&req("DELETE", "/t/fig/search", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
    }

    #[test]
    fn tenant_stats_report_the_snapshot_load_time() {
        let dir = std::env::temp_dir().join(format!("ctc-server-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.ctci");
        CommunityEngine::build(figure1_graph()).save(&path).unwrap();
        let s = state(8);
        s.add_tenant_path("fig", path).unwrap();
        s.add_tenant_engine("mem", CommunityEngine::build(figure1_graph()))
            .unwrap();
        let load_us = |tenant: &str| {
            let target = format!("/t/{tenant}/stats");
            let (_, stats) = split(&s.respond(&req("GET", &target, "")).unwrap());
            let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
            stats.get("load_us").and_then(Json::as_u64).unwrap()
        };
        // The stats request is fig's first: it loads the snapshot.
        assert!(load_us("fig") > 0);
        assert_eq!(load_us("mem"), 0, "an in-memory tenant never loads");
        assert_eq!(load_us("default"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_updates_do_not_cross_tenants() {
        let s = state(8);
        s.add_tenant_engine("fig", CommunityEngine::build(figure1_graph()))
            .unwrap();
        let f = Figure1Ids::default();
        let update = format!(
            r#"{{"updates":[{{"op":"delete","u":{},"v":{}}}]}}"#,
            f.q1.0, f.t.0
        );
        let (head, _) = split(&s.respond(&req("POST", "/t/fig/update", &update)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        // fig lost the edge; default still has all 25.
        let (_, stats) = split(&s.respond(&req("GET", "/t/fig/stats", "")).unwrap());
        let text = String::from_utf8(stats).unwrap();
        assert!(text.contains(r#""num_edges":24"#), "{text}");
        assert!(text.contains(r#""dirty":true"#), "{text}");
        assert_eq!(s.engine().stats().num_edges, 25);
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn repeated_panics_quarantine_then_heal_after_backoff() {
        let s = AppState::new(
            CommunityEngine::build(figure1_graph()),
            &ServeConfig {
                debug_endpoints: true,
                health: HealthPolicy {
                    quarantine_after: 2,
                    base_backoff: Duration::from_millis(40),
                    max_backoff: Duration::from_millis(200),
                },
                ..ServeConfig::default()
            },
        );
        let f = Figure1Ids::default();
        let body = format!(r#"{{"query":[{}]}}"#, f.q1.0);
        // Two consecutive handler panics trip the default tenant into
        // quarantine.
        for _ in 0..2 {
            let (head, _) = split(&s.respond(&req("POST", "/debug/panic", "")).unwrap());
            assert!(head.starts_with("HTTP/1.1 500"), "{head}");
        }
        // /healthz is now non-200 and names the quarantined tenant.
        let (head, payload) = split(&s.respond(&req("GET", "/healthz", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        let text = String::from_utf8(payload).unwrap();
        assert!(text.contains(r#""status":"degraded""#), "{text}");
        assert!(text.contains(r#""quarantined":["default"]"#), "{text}");
        // Requests shed with 503 + retry-after while the backoff runs.
        let (head, payload) = split(&s.respond(&req("POST", "/search", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(head.contains("retry-after:"), "{head}");
        assert!(
            String::from_utf8(payload).unwrap().contains("quarantined"),
            "shed body names the quarantine"
        );
        // Stats surface the health state while quarantined.
        let (_, stats) = split(&s.respond(&req("GET", "/t/default/stats", "")).unwrap());
        let text = String::from_utf8(stats).unwrap();
        assert!(text.contains(r#""status":"quarantined""#), "{text}");
        assert!(
            text.contains(r#""reason":"request handler panicked""#),
            "{text}"
        );
        // After the backoff, the probe request is admitted, succeeds, and
        // heals the tenant: serving resumes and /healthz is 200 again.
        std::thread::sleep(Duration::from_millis(60));
        let (head, _) = split(&s.respond(&req("POST", "/search", &body)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let (head, payload) = split(&s.respond(&req("GET", "/healthz", "")).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(payload, br#"{"status":"ok"}"#);
    }

    #[test]
    fn attached_wal_journals_applied_updates_for_recovery() {
        use ctc_truss::{recover, Snapshot};
        let dir = std::env::temp_dir().join(format!("ctc-server-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("g.ctci");
        let log_path = dir.join("g.ctcd");
        let snap = Snapshot::build(figure1_graph());
        snap.save(&snap_path).unwrap();
        let base = ctc_graph::io::fnv1a64(&std::fs::read(&snap_path).unwrap());
        let s = state(8);
        s.attach_default_wal(DeltaLogFile::create(&log_path, base).unwrap());
        let f = Figure1Ids::default();
        // A batch with one applied and one rejected op: only the applied
        // op reaches the log.
        let update = format!(
            r#"{{"updates":[{{"op":"delete","u":{},"v":{}}},{{"op":"delete","u":{},"v":{}}}]}}"#,
            f.q1.0, f.t.0, f.q1.0, f.t.0
        );
        let (head, _) = split(&s.respond(&req("POST", "/update", &update)).unwrap());
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let c = s
            .default_tenant()
            .counters
            .wal_appended
            .load(Ordering::Relaxed);
        assert_eq!(c, 1, "one applied op journaled, the duplicate rejected");
        // Crash-equivalent: drop the state and recover from disk. The
        // recovered graph matches the served (maintained) one.
        let served_edges = s.engine().stats().num_edges;
        drop(s);
        let (rec, _, report) = recover(&snap_path, Some(&log_path)).unwrap();
        assert!(report.log.is_clean(), "{:?}", report.log);
        assert_eq!(rec.graph.num_edges(), served_edges);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
