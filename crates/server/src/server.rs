//! The request handler: parse → route → tenant handlers → stats bodies,
//! with no socket and no connection state.
//!
//! [`AppState::respond`] runs one buffered byte stream through the whole
//! path and returns the exact bytes the daemon would write; the
//! transport ([`crate::transport`]) answers its connections through the
//! same function. Parsing and routing run under the server's one panic
//! boundary: a panicking handler answers `500` with `connection: close`
//! and counts in `server.panics`, and its tenant's admission guard
//! reports the panic to that tenant's health state machine.
//!
//! Requests route per tenant — `/t/<name>/search|update|stats` against
//! the [`Registry`] — while the bare `/search`, `/update`, `/stats`
//! endpoints alias the `default` tenant, byte-compatible with the
//! single-tenant wire format. A tenant admits a request only when it is
//! not quarantined (`503` + `retry-after`) and is under its in-flight
//! cap (`429` + `retry-after`).
//!
//! Each event is counted once. Searches, cache lookups, updates and
//! `429`s are counted in their tenant's [`crate::TenantCounters`], and the
//! process-wide values are sums over the registry; everything no tenant
//! owns (routing, connections, panics, search phases) lives in one
//! process-wide counter set.

use crate::http::{parse_request, Parse, Request, Response, DEFAULT_MAX_BODY};
use crate::json::Json;
use crate::registry::{
    AnswerCache, CachedAnswer, HealthPolicy, ListId, Registry, TenantError, TenantState,
    TenantSummary,
};
use crate::wire::{
    decode_search_request, decode_update_request, encode_community_parts, encode_error,
    encode_update_response, search_error_response, UpdateOutcome,
};
use ctc_core::{scratch_pool_stats, CommunityEngine, EngineUpdate, SearchAlgo};
use ctc_graph::Parallelism;
use ctc_truss::{DeltaLogFile, DeltaOp, DeltaRecord};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// The process-wide counters: the events no tenant owns. The snapshot
/// types document each field; per-tenant events live in
/// [`crate::TenantCounters`] only.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) total: AtomicU64,
    pub(crate) healthz: AtomicU64,
    pub(crate) stats: AtomicU64,
    pub(crate) http_rejects: AtomicU64,
    pub(crate) phase_locate_us: AtomicU64,
    pub(crate) phase_peel_us: AtomicU64,
    pub(crate) phase_finish_us: AtomicU64,
    pub(crate) phase_total_us: AtomicU64,
    pub(crate) accepted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) open_conns: AtomicU64,
    pub(crate) queued: AtomicU64,
    pub(crate) sheds_accept: AtomicU64,
    pub(crate) sheds_queue: AtomicU64,
    pub(crate) deadline_drops: AtomicU64,
    pub(crate) panics: AtomicU64,
}

/// Serving-layer counters at one instant: connection lifecycle,
/// admission sheds, panic isolation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCountersSnapshot {
    /// Connections accepted from the listener (sheds included).
    pub accepted: u64,
    /// Connections admitted past the `max_conns` cap.
    pub admitted: u64,
    /// Currently open admitted connections (gauge).
    pub open_conns: u64,
    /// Connections currently sitting in the dispatch queue (gauge).
    pub queued: u64,
    /// Accepts shed with `503` because `max_conns` was reached.
    pub sheds_accept: u64,
    /// Readable connections shed with `503` because the dispatch queue
    /// was full.
    pub sheds_queue: u64,
    /// Requests shed with `429` because a tenant was at its in-flight
    /// cap (sum over tenants).
    pub sheds_429: u64,
    /// Connections dropped (no response) for exceeding the per-request
    /// deadline — slow-loris clients and idle-past-deadline keep-alives.
    pub deadline_drops: u64,
    /// Requests whose parsing or handler panicked and were isolated
    /// (`500`, counted, server kept serving).
    pub panics: u64,
}

/// Request counters at one instant. The search, cache and update counts
/// are sums over the registry's tenants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Requests routed (any endpoint, any outcome).
    pub total: u64,
    /// `/search` answers served (cache hits included).
    pub search_ok: u64,
    /// `/search` requests that failed (bad body, unknown label, no
    /// community).
    pub search_err: u64,
    /// `/search` answers served from an answer cache.
    pub cache_hits: u64,
    /// `/search` answers that ran the full search path.
    pub cache_misses: u64,
    /// `/healthz` hits.
    pub healthz: u64,
    /// `/stats` and `/t/<name>/stats` hits.
    pub stats: u64,
    /// Byte streams rejected by the HTTP parser.
    pub http_rejects: u64,
    /// `/update` batches answered `200` (individual ops inside may still
    /// have been rejected — see `updates_applied` / `updates_rejected`).
    pub update_ok: u64,
    /// `/update` requests whose body failed to decode (`400`) or whose
    /// batch failed internally (`500`).
    pub update_err: u64,
    /// Individual edge updates applied across all `200` batches. Together
    /// with `updates_rejected` this sums exactly to the per-op outcomes
    /// reported in `/update` response bodies — the invariant the soak
    /// test pins.
    pub updates_applied: u64,
    /// Individual edge updates rejected (duplicate edge, missing edge,
    /// unknown label, self-loop) across all `200` batches.
    pub updates_rejected: u64,
    /// Cumulative microseconds spent locating `G0`/`Gt` across uncached
    /// `/search` answers. With `phase_peel_us`, `phase_finish_us` and
    /// `phase_total_us` this makes phase regressions visible in production
    /// without a profiler: divide them by `cache_misses` for means.
    pub phase_locate_us: u64,
    /// Cumulative peel-phase microseconds across uncached `/search`
    /// answers.
    pub phase_peel_us: u64,
    /// Cumulative post-peel (result assembly) microseconds across uncached
    /// `/search` answers. Accumulated as `total − locate − peel` per
    /// request, so `locate + peel + finish == total` holds exactly at the
    /// counter level.
    pub phase_finish_us: u64,
    /// Cumulative end-to-end search microseconds across uncached
    /// `/search` answers.
    pub phase_total_us: u64,
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
    pub(crate) counters: Counters,
    shutdown: AtomicBool,
    max_body: usize,
    tenant_inflight: u64,
    debug_endpoints: bool,
    /// Set once the listener is bound; the shutdown poke connects here.
    pub(crate) wake_addr: Mutex<Option<SocketAddr>>,
}

/// A tenant endpoint's handler, run once [`AppState`] has admitted the
/// request to the tenant.
type Handler = fn(&AppState, &TenantState, &Request) -> Response;

/// RAII admission token: holding it means the request is counted inside
/// its tenant's `in_flight` gauge. Dropping it — normally or during an
/// unwind — releases the slot and reports the handler's outcome to the
/// tenant's health: a panic records a failure, so repeated panics
/// quarantine the tenant exactly like repeated load failures; a return
/// records a success.
struct InflightGuard<'a>(&'a TenantState);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            self.0.health.record_failure("request handler panicked");
        } else {
            self.0.health.record_success();
        }
    }
}

/// Locks a tenant's answer cache, recovering from poisoning: a handler
/// that panicked mid-insert may have left a partially updated recency
/// list, so the recovered cache is cleared — dropping answers is always
/// safe, serving from a corrupt structure is not.
fn lock_cache(t: &TenantState) -> MutexGuard<'_, AnswerCache> {
    match t.cache.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        }
    }
}

/// A tenant's `cache` stats object. `bytes` sums the bodies the cached
/// answers serve and `resident_bytes` what they hold, each shared member
/// list once; both are read from the cache itself under the caller's
/// lock rather than kept as second counters.
fn cache_stats(cache: &AnswerCache, hits: u64, misses: u64) -> Json {
    Json::Object(vec![
        ("capacity".into(), Json::Uint(cache.capacity() as u64)),
        ("entries".into(), Json::Uint(cache.len() as u64)),
        ("bytes".into(), Json::Uint(cache.bytes() as u64)),
        (
            "resident_bytes".into(),
            Json::Uint(cache.resident_bytes() as u64),
        ),
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
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerCountersSnapshot {
            accepted: load(&c.accepted),
            admitted: load(&c.admitted),
            open_conns: load(&c.open_conns),
            queued: load(&c.queued),
            sheds_accept: load(&c.sheds_accept),
            sheds_queue: load(&c.sheds_queue),
            sheds_429: self.registry.sum(|t| &t.sheds_429),
            deadline_drops: load(&c.deadline_drops),
            panics: load(&c.panics),
        }
    }

    /// Current counter values.
    pub fn counters(&self) -> CountersSnapshot {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CountersSnapshot {
            total: load(&c.total),
            search_ok: self.registry.sum(|t| &t.search_ok),
            search_err: self.registry.sum(|t| &t.search_err),
            cache_hits: self.registry.sum(|t| &t.cache_hits),
            cache_misses: self.registry.sum(|t| &t.cache_misses),
            healthz: load(&c.healthz),
            stats: load(&c.stats),
            http_rejects: load(&c.http_rejects),
            update_ok: self.registry.sum(|t| &t.update_ok),
            update_err: self.registry.sum(|t| &t.update_err),
            updates_applied: self.registry.sum(|t| &t.updates_applied),
            updates_rejected: self.registry.sum(|t| &t.updates_rejected),
            phase_locate_us: load(&c.phase_locate_us),
            phase_peel_us: load(&c.phase_peel_us),
            phase_finish_us: load(&c.phase_finish_us),
            phase_total_us: load(&c.phase_total_us),
        }
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
        self.answer(raw)
            .map(|(response, _, close)| response.encode(close))
    }

    /// Answers the first request in `raw`: `None` while the bytes are
    /// only a prefix of one, otherwise the response, the bytes the
    /// request took, and whether the connection must close after it.
    /// This is the server's one panic boundary. A panic anywhere in
    /// parsing or routing answers `500` and closes the connection (what
    /// a handler left behind mid-panic is unknowable); by then the
    /// tenant's admission guard has reported it to the tenant's health.
    pub(crate) fn answer(&self, raw: &[u8]) -> Option<(Response, usize, bool)> {
        catch_unwind(AssertUnwindSafe(|| {
            match parse_request(raw, self.max_body) {
                Ok(Parse::Incomplete) => None,
                Ok(Parse::Complete(req, consumed)) => {
                    // Route first: a /shutdown request must see its own effect
                    // (its response, and every later one, carries
                    // `connection: close`).
                    let response = self.route(&req);
                    let close = req.wants_close() || self.is_shutting_down();
                    Some((response, consumed, close))
                }
                Err(e) => {
                    self.counters.http_rejects.fetch_add(1, Ordering::Relaxed);
                    let (status, reason) = e.status();
                    let response = Response::error(status, reason, encode_error(e.detail()));
                    Some((response, raw.len(), true))
                }
            }
        }))
        .unwrap_or_else(|_| {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            let body = encode_error("request handler panicked; connection closed");
            Some((
                Response::error(500, "Internal Server Error", body),
                raw.len(),
                true,
            ))
        })
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
        let default = &self.default_tenant;
        match (method, target) {
            ("POST", "/search") => self.tenant_request(default, req, Self::handle_search),
            ("POST", "/update") => self.tenant_request(default, req, Self::handle_update),
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
                self.tenant_request(default, req, Self::debug_panic)
            }
            ("POST", "/debug/sleep") if self.debug_endpoints => {
                self.tenant_request(default, req, Self::debug_sleep)
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
    /// a snapshot. `stats` is the one endpoint without a handler behind
    /// admission.
    fn route_tenant(&self, method: &str, name: &str, tail: &str, req: &Request) -> Response {
        let handler: Option<Handler> = match tail {
            "search" => Some(Self::handle_search),
            "update" => Some(Self::handle_update),
            "debug/panic" if self.debug_endpoints => Some(Self::debug_panic),
            "debug/sleep" if self.debug_endpoints => Some(Self::debug_sleep),
            "stats" => None,
            _ => return Response::error(404, "Not Found", encode_error("no such tenant endpoint")),
        };
        let want = if handler.is_some() { "POST" } else { "GET" };
        if method != want {
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
        match handler {
            Some(handler) => self.tenant_request(&tenant, req, handler),
            None => {
                self.counters.stats.fetch_add(1, Ordering::Relaxed);
                Response::ok(self.encode_tenant_stats(&tenant))
            }
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

    /// Admission-gated dispatch to one of a tenant's handlers: quarantine
    /// first (`503` + `retry-after`), then the in-flight cap (`429` +
    /// `retry-after`), then the handler, whose outcome the admission
    /// guard reports to the tenant's health.
    fn tenant_request(&self, tenant: &TenantState, req: &Request, handler: Handler) -> Response {
        if let Err((retry_after_secs, reason)) = tenant.health.check_admit() {
            return Self::quarantined_response(tenant.name(), retry_after_secs, &reason);
        }
        let prev = tenant.counters.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.tenant_inflight > 0 && prev >= self.tenant_inflight {
            tenant.counters.in_flight.fetch_sub(1, Ordering::SeqCst);
            tenant.counters.sheds_429.fetch_add(1, Ordering::Relaxed);
            return Response::error(
                429,
                "Too Many Requests",
                encode_error(&format!(
                    "tenant {} is at its in-flight cap ({})",
                    tenant.name(),
                    self.tenant_inflight
                )),
            )
            .with_header("retry-after", "1");
        }
        let _admitted = InflightGuard(tenant);
        handler(self, tenant, req)
    }

    /// `POST /debug/panic`: panics inside the handler — the trap the
    /// panic-isolation tests spring.
    fn debug_panic(&self, _: &TenantState, _: &Request) -> Response {
        panic!("debug panic endpoint");
    }

    /// `POST /debug/sleep {"ms":N}`: holds an admission slot for `ms`
    /// (clamped to 10s), making queue-flood and 429 tests deterministic.
    fn debug_sleep(&self, _: &TenantState, req: &Request) -> Response {
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
        Response::ok(
            Json::Object(vec![("slept_ms".into(), Json::Uint(ms))])
                .encode()
                .into_bytes(),
        )
    }

    /// `POST /search` (any tenant): decode → resolve labels → cache →
    /// engine → encode. Search counters move on the tenant's own set.
    fn handle_search(&self, tenant: &TenantState, req: &Request) -> Response {
        // Capture the serving engine and the publication epoch under one
        // read lock: the pair is what makes "which graph answered this"
        // well-defined while /update batches republish concurrently.
        let (snapshot, epoch) = {
            let guard = tenant.serving.read().expect("serving poisoned");
            (guard.clone(), tenant.epoch.load(Ordering::SeqCst))
        };
        let search_err = || {
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
        // released at once: under the lock a hit is only two Arc bumps,
        // and the response shares the cached body parts, never copying
        // them, here or on its way to the socket.
        let hit = lock_cache(tenant).get(&key);
        if let Some(ans) = hit {
            tenant.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            tenant.counters.search_ok.fetch_add(1, Ordering::Relaxed);
            return Response::shared_parts(ans.fields, ans.lists).with_header("x-cache", "hit");
        }
        // Miss: run the search under the per-request config, on this
        // worker's thread (the pool owns the cores). The engine clone is
        // three Arc bumps.
        let engine = snapshot.clone().with_config(parsed.cfg);
        match engine.search(&q, parsed.algo) {
            Ok(c) => {
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
                // Encode once, into exact-size fields and member lists that
                // the cache and this response share: a later hit neither
                // re-encodes nor copies the community.
                let (fields, lists) = encode_community_parts(&snapshot, &c);
                let mut answer = CachedAnswer {
                    k: c.k,
                    fields: Arc::new(fields),
                    lists: Arc::new(lists),
                };
                let caching = lock_cache(tenant).capacity() > 0;
                if caching {
                    // Share an equal list that a cached answer already
                    // holds. The hash and the byte comparison run outside
                    // the cache lock, which is held only to look up.
                    let id = ListId::of(&answer.lists);
                    let candidate = lock_cache(tenant).shared_list(id);
                    if let Some(lists) = candidate.filter(|l| *l == answer.lists) {
                        answer.lists = lists;
                    }
                    let mut cache = lock_cache(tenant);
                    // Re-check the epoch under the cache lock: if an
                    // update published while this search ran, the answer
                    // was computed against a superseded graph. Inserting
                    // it after the update's invalidation pass would poison
                    // the cache; skipping the insert is always safe.
                    if tenant.epoch.load(Ordering::SeqCst) == epoch {
                        cache.insert(key, answer.clone(), id);
                    }
                }
                Response::shared_parts(answer.fields, answer.lists).with_header("x-cache", "miss")
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

    /// The `/stats` body's `server` object: serving-layer counters,
    /// tenant health, the registry summary, and the process-wide pool of
    /// idle search scratches.
    fn encode_server_object(&self) -> Json {
        let v = self.server_counters();
        let summaries: Vec<TenantSummary> = self.registry.summaries();
        let scratch = scratch_pool_stats();
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
            (
                "scratch".into(),
                Json::Object(vec![
                    ("idle".into(), Json::Uint(scratch.idle as u64)),
                    (
                        "resident_bytes".into(),
                        Json::Uint(scratch.resident_bytes as u64),
                    ),
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
    /// graph object and the cache's capacity, entries and bytes describe
    /// the `default` tenant (wire compatibility with the single-tenant
    /// format); the request, cache hit/miss, update and phase counters
    /// are process-wide, and the `server` object carries serving-layer
    /// and registry state.
    fn encode_stats(&self) -> Vec<u8> {
        let s = self.engine().stats();
        let c = self.counters();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::CtcServer;
    use crate::wire::encode_community;
    use ctc_core::SearchAlgo;
    use ctc_graph::VertexId;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};
    use std::io::{Read, Write};
    use std::time::Instant;

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
        // The process-wide scratch pool sits beside the registry; other
        // tests share the pool, so only the shape is pinned here.
        let stats = Json::parse(&text).unwrap();
        let scratch = stats.get("server").and_then(|s| s.get("scratch"));
        for field in ["idle", "resident_bytes"] {
            let value = scratch.and_then(|s| s.get(field)).and_then(Json::as_u64);
            assert!(value.is_some(), "server.scratch.{field}: {text}");
        }
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

    /// `changed` counts the other edges whose trussness moved, never the
    /// updated edge: closing the path 0–1–2 into a triangle lifts its two
    /// edges to 3, and opening it again drops them back.
    #[test]
    fn update_changed_counts_other_edges_only() {
        let s = AppState::new(
            CommunityEngine::build(ctc_graph::graph_from_edges(&[(0, 1), (1, 2)])),
            &ServeConfig::default(),
        );
        for op in ["insert", "delete"] {
            let body = format!(r#"{{"updates":[{{"op":"{op}","u":0,"v":2}}]}}"#);
            let (head, payload) = split(&s.respond(&req("POST", "/update", &body)).unwrap());
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{op}: {head}");
            let text = String::from_utf8(payload).unwrap();
            assert!(
                text.contains(r#"{"status":"applied","trussness":3,"changed":2}"#),
                "{op}: {text}"
            );
        }
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

    /// Routes one raw request to its response, unencoded.
    fn route(s: &AppState, raw: &[u8]) -> Response {
        let Ok(Parse::Complete(r, _)) = parse_request(raw, DEFAULT_MAX_BODY) else {
            panic!("complete request");
        };
        s.route(&r)
    }

    /// The response's member-list part.
    fn lists_of(response: &Response) -> &Arc<Vec<u8>> {
        response
            .tail
            .as_ref()
            .expect("a search answer has two parts")
    }

    #[test]
    fn hits_share_the_cached_body_allocation() {
        let s = state(8);
        let raw = req("POST", "/search", &search_body("bd"));
        let [miss, hit, again] = [route(&s, &raw), route(&s, &raw), route(&s, &raw)];
        assert_eq!(miss.headers, [("x-cache", "miss".to_string())]);
        assert_eq!(hit.headers, [("x-cache", "hit".to_string())]);
        assert!(
            Arc::ptr_eq(&hit.body, &again.body),
            "a hit copied the fields"
        );
        assert!(Arc::ptr_eq(lists_of(&hit), lists_of(&again)));
        assert!(
            Arc::ptr_eq(&miss.body, &hit.body) && Arc::ptr_eq(lists_of(&miss), lists_of(&hit)),
            "the miss answers from the buffers it cached"
        );
    }

    /// `{"query":[labels],"algo":algo}` as a `/search` request.
    fn search(labels: &[VertexId], algo: &str) -> Vec<u8> {
        let labels: Vec<String> = labels.iter().map(|v| v.0.to_string()).collect();
        let body = format!(r#"{{"query":[{}],"algo":"{algo}"}}"#, labels.join(","));
        req("POST", "/search", &body)
    }

    #[test]
    fn answers_with_one_community_share_one_list_allocation() {
        let s = state(8);
        let f = Figure1Ids::default();
        // The Truss baseline answers G0, the grey k=4 region, for any
        // query inside it; Basic answers the smaller Figure 1(b).
        let all = route(&s, &search(&[f.q1, f.q2, f.q3], "truss"));
        let one = route(&s, &search(&[f.q1], "truss"));
        let basic = route(&s, &search(&[f.q1, f.q2, f.q3], "basic"));
        assert!(
            Arc::ptr_eq(lists_of(&all), lists_of(&one)),
            "one community, one list allocation"
        );
        assert_ne!(lists_of(&all), lists_of(&basic));
        // Responses stay byte-identical to a direct search.
        for (response, q, algo) in [
            (&all, &[f.q1, f.q2, f.q3][..], SearchAlgo::TrussOnly),
            (&one, &[f.q1][..], SearchAlgo::TrussOnly),
            (&basic, &[f.q1, f.q2, f.q3][..], SearchAlgo::Basic),
        ] {
            let direct = s.engine().search(q, algo).unwrap();
            assert_eq!(
                split(&response.encode(false)).1,
                encode_community(&s.engine(), &direct)
            );
        }
        // A hit on the second query serves the shared list too.
        let hit = route(&s, &search(&[f.q1], "truss"));
        assert_eq!(hit.headers, [("x-cache", "hit".to_string())]);
        assert!(Arc::ptr_eq(lists_of(&hit), lists_of(&all)));
        assert_eq!(lock_cache(s.default_tenant()).interned(), 2);
    }

    #[test]
    fn intern_table_stays_within_twice_the_cache_entries() {
        // 40 disjoint K4s: a query in clique i answers clique i, so every
        // query brings a new community.
        let edges: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|c| {
                let b = 4 * c;
                [
                    (b, b + 1),
                    (b, b + 2),
                    (b, b + 3),
                    (b + 1, b + 2),
                    (b + 1, b + 3),
                    (b + 2, b + 3),
                ]
            })
            .collect();
        let s = AppState::new(
            CommunityEngine::build(ctc_graph::graph_from_edges(&edges)),
            &ServeConfig {
                cache_cap: 3,
                ..ServeConfig::default()
            },
        );
        let mut held = Vec::new();
        for c in 0..40u32 {
            let response = route(&s, &search(&[VertexId(4 * c)], "truss"));
            assert_eq!(response.headers, [("x-cache", "miss".to_string())]);
            // Keep every fourth response alive, as a slow client would:
            // its list outlives the cached answer that held it.
            if c % 4 == 0 {
                held.push(response);
            }
            let cache = lock_cache(s.default_tenant());
            assert!(cache.len() <= 3);
            assert!(
                cache.interned() <= 2 * cache.len(),
                "{} interned lists for {} answers",
                cache.interned(),
                cache.len()
            );
        }
        // An evicted list is freed with its last holder: the table keeps
        // none alive. Clique 1 and the three after it are held nowhere.
        let evicted = Arc::downgrade(lists_of(&route(&s, &search(&[VertexId(5)], "truss"))));
        for c in [2u32, 3, 5] {
            route(&s, &search(&[VertexId(4 * c + 1)], "truss"));
        }
        assert_eq!(evicted.strong_count(), 0, "an evicted list stayed alive");
        drop(held);
    }

    #[test]
    fn cache_cap_zero_interns_nothing() {
        let s = state(0);
        let f = Figure1Ids::default();
        let first = route(&s, &search(&[f.q1], "truss"));
        let second = route(&s, &search(&[f.q2], "truss"));
        assert_eq!(lists_of(&first), lists_of(&second), "equal lists");
        assert!(
            !Arc::ptr_eq(lists_of(&first), lists_of(&second)),
            "not shared"
        );
        let cache = lock_cache(s.default_tenant());
        assert_eq!(
            (cache.len(), cache.interned(), cache.resident_bytes()),
            (0, 0, 0)
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
            let field = |name: &str| cache.get(name).and_then(Json::as_u64).unwrap();
            (field("entries"), field("bytes"), field("resident_bytes"))
        };
        assert_eq!(stats("/stats"), (0, 0, 0));
        // An answer's (fields, lists) byte counts.
        let answer = |raw: Vec<u8>| {
            let response = route(&s, &raw);
            (response.body.len() as u64, lists_of(&response).len() as u64)
        };
        let [_, (f1, l1), (f2, l2)] =
            ["basic", "bd", "lctc"].map(|algo| answer(req("POST", "/search", &search_body(algo))));
        // Capacity 2: the first answer was evicted, the last two remain.
        let (_, bytes, _) = stats("/stats");
        assert_eq!(bytes, f1 + l1 + f2 + l2);
        assert_eq!(stats("/t/default/stats"), stats("/stats"));
        // A hit moves nothing.
        let before = stats("/stats");
        s.respond(&req("POST", "/search", &search_body("lctc")));
        assert_eq!(stats("/stats"), before);
        // Two queries whose answers are one community (the Truss
        // baseline's G0): both bodies count in `bytes`, their shared
        // lists once in `resident_bytes`.
        let f = Figure1Ids::default();
        let (fa, la) = answer(search(&[f.q1, f.q2, f.q3], "truss"));
        let (fb, lb) = answer(search(&[f.q1], "truss"));
        assert_eq!(la, lb);
        let shared = stats("/stats");
        assert_eq!(shared, (2, fa + la + fb + lb, fa + fb + la));
        // Evicting the first only frees its fields; evicting the second
        // frees G0's lists too, and `resident_bytes` falls.
        let (fc, lc) = answer(search(&[f.q1, f.q2, f.q3], "basic"));
        let one_left = stats("/stats");
        assert_eq!(one_left.2, shared.2 - fa + fc + lc);
        answer(search(&[f.q1, f.q2], "basic"));
        let evicted = stats("/stats");
        assert!(evicted.2 < one_left.2, "{evicted:?} after {one_left:?}");
        assert_eq!(evicted.0, 2);
        assert_eq!(stats("/t/default/stats"), evicted);
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
    fn handler_panic_over_tcp_answers_500_and_keeps_serving() {
        let server = CtcServer::bind(
            CommunityEngine::build(figure1_graph()),
            "127.0.0.1:0",
            ServeConfig {
                pool: Parallelism::threads(2),
                debug_endpoints: true,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let state = server.state();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        // One request per connection, read until the server closes it.
        let exchange = |raw: &[u8]| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            conn.write_all(raw).unwrap();
            let mut got = Vec::new();
            conn.read_to_end(&mut got).unwrap();
            split(&got)
        };
        // The request asks for keep-alive; the panic closes it anyway.
        let (head, payload) = exchange(&req("POST", "/debug/panic", ""));
        assert!(head.starts_with("HTTP/1.1 500"), "{head}");
        assert!(head.contains("connection: close"), "{head}");
        let error = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert!(error.get("error").is_some(), "{error:?}");
        let (head, payload) = exchange(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(payload, br#"{"status":"ok"}"#);
        let health = state.default_tenant().health().snapshot();
        assert_eq!(health.consecutive_failures, 1, "{health:?}");
        handle.shutdown();
        let report = join.join().expect("serve thread panicked");
        assert_eq!(report.server.panics, 1, "{:?}", report.server);
        assert_eq!(report.server.open_conns, 0, "{:?}", report.server);
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

    /// Every per-tenant event is counted once, in its tenant; `/stats`
    /// reports the sums over the tenants.
    #[test]
    fn stats_are_sums_over_tenants() {
        let s = AppState::new(
            CommunityEngine::build(figure1_graph()),
            &ServeConfig {
                tenant_inflight: 1,
                ..ServeConfig::default()
            },
        );
        s.add_tenant_engine("fig", CommunityEngine::build(figure1_graph()))
            .unwrap();
        let status = |target: &str, body: &str| {
            let (head, _) = split(&s.respond(&req("POST", target, body)).unwrap());
            head[9..12].to_string()
        };
        // A miss and a hit on each tenant.
        for target in ["/search", "/t/fig/search"] {
            assert_eq!(status(target, &search_body("bd")), "200");
            assert_eq!(status(target, &search_body("bd")), "200");
        }
        assert_eq!(status("/search", "{nope"), "400");
        assert_eq!(status("/t/fig/search", r#"{"query":[9999]}"#), "404");
        // Hold the default tenant's single admission slot: one 429.
        let in_flight = &s.default_tenant().counters.in_flight;
        in_flight.fetch_add(1, Ordering::SeqCst);
        assert_eq!(status("/search", &search_body("bd")), "429");
        in_flight.fetch_sub(1, Ordering::SeqCst);
        // A two-op batch on fig (one applied, one rejected) and a
        // malformed batch on the default tenant.
        let f = Figure1Ids::default();
        let delete = format!(r#"{{"op":"delete","u":{},"v":{}}}"#, f.q1.0, f.t.0);
        let batch = format!(r#"{{"updates":[{delete},{delete}]}}"#);
        assert_eq!(status("/t/fig/update", &batch), "200");
        assert_eq!(status("/update", "{nope"), "400");
        let stats = |target: &str| {
            let (_, body) = split(&s.respond(&req("GET", target, "")).unwrap());
            Json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
        };
        let global = stats("/stats");
        let tenants = [stats("/t/default/stats"), stats("/t/fig/stats")];
        for (object, field, tenant_object, want) in [
            ("requests", "search_ok", "requests", 4),
            ("requests", "search_err", "requests", 2),
            ("cache", "hits", "cache", 2),
            ("cache", "misses", "cache", 2),
            ("updates", "batches_ok", "updates", 1),
            ("updates", "batches_err", "updates", 1),
            ("updates", "applied", "updates", 1),
            ("updates", "rejected", "updates", 1),
            ("server", "sheds_429", "requests", 1),
        ] {
            let value = |json: &Json, object: &str| {
                let v = json.get(object).and_then(|o| o.get(field));
                v.and_then(Json::as_u64).expect("counter present")
            };
            let sum: u64 = tenants.iter().map(|t| value(t, tenant_object)).sum();
            assert_eq!(value(&global, object), sum, "{object}.{field}");
            assert_eq!(sum, want, "{object}.{field}");
        }
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

    #[test]
    fn failed_wal_append_detaches_the_log_and_keeps_serving() {
        use ctc_graph::{Fault, FaultEnv};
        let env = Arc::new(FaultEnv::new(7));
        let log = DeltaLogFile::create_in(env.clone(), std::path::Path::new("g.ctcd"), 0).unwrap();
        // One recorded failure would quarantine this tenant, so its
        // `quarantines` count shows whether the failed append touched
        // health at all.
        let s = AppState::new(
            CommunityEngine::build(figure1_graph()),
            &ServeConfig {
                health: HealthPolicy {
                    quarantine_after: 1,
                    ..HealthPolicy::default()
                },
                ..ServeConfig::default()
            },
        );
        s.attach_default_wal(log);
        // The disk is full from the next storage operation on: the first
        // append's write.
        env.fault_at(env.ops(), Fault::Enospc);
        let f = Figure1Ids::default();
        let batch = |op: &str| {
            let body = format!(
                r#"{{"updates":[{{"op":"{op}","u":{},"v":{}}}]}}"#,
                f.q1.0, f.t.0
            );
            let (head, payload) = split(&s.respond(&req("POST", "/update", &body)).unwrap());
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert!(payload.starts_with(br#"{"applied":1,"#), "{head}");
            let (_, stats) = split(&s.respond(&req("GET", "/t/default/stats", "")).unwrap());
            Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap()
        };
        let wal = |stats: &Json| {
            let updates = stats.get("updates").unwrap();
            let count = |k: &str| updates.get(k).and_then(Json::as_u64).unwrap();
            (count("wal_appended"), count("wal_errors"))
        };
        // The op applies and answers 200; durability is what was lost.
        let stats = batch("delete");
        assert_eq!(wal(&stats), (0, 1));
        let health = stats.get("health").unwrap();
        assert_eq!(health.get("status"), Some(&Json::Str("healthy".into())));
        assert_eq!(health.get("quarantines").and_then(Json::as_u64), Some(0));
        // The log stays detached: the next applied batch touches no
        // storage and counts no second failure.
        let ops = env.ops();
        assert_eq!(wal(&batch("insert")), (0, 1));
        assert_eq!(env.ops(), ops);
    }
}
