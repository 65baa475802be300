//! The snapshot registry: many named engines behind one daemon.
//!
//! Each *tenant* is a named engine the server routes to under
//! `/t/<name>/search|update|stats`. A tenant is either **engine-backed**
//! (handed to the registry already built — the default tenant, tests,
//! in-process drivers) or **path-backed** (a `.ctci` snapshot loaded
//! lazily on first request). Path-backed tenants are the point: one
//! daemon fronts a directory of indexed graphs without paying resident
//! memory for all of them at once.
//!
//! Cold tenants are evicted under a bytes-weighted LRU policy:
//!
//! * every loaded tenant is weighted by [`CommunityEngine::memory_bytes`];
//! * when the resident total exceeds the budget, the least recently used
//!   *evictable* tenant is unloaded until the total fits;
//! * a tenant is evictable only when it is path-backed (it can come
//!   back), **clean** (no applied updates since load — reloading a dirty
//!   tenant would silently discard maintained edits), and **unpinned**
//!   (no in-flight request holds its state: pinning is the `Arc` strong
//!   count, so eviction never yanks an engine out from under a search —
//!   the bytes are reclaimed when the last in-flight request finishes).
//!
//! Per-tenant request counters live in the registry *entry*, not the
//! loaded state, so `/t/<name>/stats` arithmetic stays exact across an
//! evict → reload cycle.

use crate::cache::LruCache;
use crate::wire::QueryKey;
use ctc_core::CommunityEngine;
use ctc_graph::io::lanes64;
use ctc_truss::DeltaLogFile;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};
use std::time::{Duration, Instant};

/// Tuning for the per-tenant health state machine (see [`TenantHealth`]).
#[derive(Clone, Debug)]
pub struct HealthPolicy {
    /// Consecutive failures (failed snapshot loads, panicking handlers)
    /// that trip a tenant from degraded to quarantined.
    pub quarantine_after: u32,
    /// How long a freshly quarantined tenant sheds requests before one
    /// probe request is admitted to attempt a reload.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff between probes.
    pub max_backoff: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            quarantine_after: 3,
            base_backoff: Duration::from_secs(1),
            max_backoff: Duration::from_secs(60),
        }
    }
}

/// Where a tenant sits in the health state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthStatus {
    /// Serving normally.
    Healthy,
    /// Recent failures below the quarantine threshold; still serving.
    Degraded,
    /// Repeated failures: requests shed with `503` + `retry-after` until
    /// a backoff-paced probe succeeds.
    Quarantined,
}

impl HealthStatus {
    /// The wire spelling used in `/healthz` and `/stats` bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Quarantined => "quarantined",
        }
    }
}

#[derive(Debug)]
struct HealthInner {
    status: HealthStatus,
    consecutive_failures: u32,
    backoff: Duration,
    /// While quarantined: no request is admitted before this instant;
    /// the first one after it is the probe.
    retry_at: Option<Instant>,
    reason: String,
    quarantines: u64,
}

/// A point-in-time copy of one tenant's health, for `/stats`.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Current state-machine position.
    pub status: HealthStatus,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// What the last failure was (empty when healthy).
    pub reason: String,
    /// Times this tenant has entered quarantine.
    pub quarantines: u64,
    /// Seconds until the next probe is admitted (`None` unless
    /// quarantined with a pending backoff).
    pub retry_in_secs: Option<u64>,
}

/// The per-tenant health state machine: healthy → degraded → quarantined,
/// driven by load failures and panicking handlers, healed by a successful
/// backoff-paced probe.
///
/// Shared (like [`TenantCounters`]) between the registry entry and the
/// loaded [`TenantState`], so health survives eviction and reload — a
/// tenant that quarantined while unloaded stays quarantined until a probe
/// load succeeds.
#[derive(Debug)]
pub struct TenantHealth {
    policy: HealthPolicy,
    inner: Mutex<HealthInner>,
}

impl TenantHealth {
    /// A healthy tenant under `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        let backoff = policy.base_backoff;
        TenantHealth {
            policy,
            inner: Mutex::new(HealthInner {
                status: HealthStatus::Healthy,
                consecutive_failures: 0,
                backoff,
                retry_at: None,
                reason: String::new(),
                quarantines: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HealthInner> {
        // Health transitions are tiny scalar writes; a panic between them
        // leaves nothing structurally invalid, so poisoning is ignored.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current state-machine position.
    pub fn status(&self) -> HealthStatus {
        self.lock().status
    }

    /// A point-in-time copy for `/stats`.
    pub fn snapshot(&self) -> HealthSnapshot {
        let inner = self.lock();
        HealthSnapshot {
            status: inner.status,
            consecutive_failures: inner.consecutive_failures,
            reason: inner.reason.clone(),
            quarantines: inner.quarantines,
            retry_in_secs: inner
                .retry_at
                .map(|t| t.saturating_duration_since(Instant::now()).as_secs()),
        }
    }

    /// Admission gate. `Ok` admits the request; while quarantined with
    /// backoff remaining it returns `Err((retry_after_secs, reason))` so
    /// the caller sheds with `503` + `retry-after`. Once the backoff
    /// elapses exactly one request is admitted as the *probe* — the gate
    /// re-arms immediately, so concurrent requests keep shedding while
    /// the probe runs; the probe's outcome (success or another failure)
    /// decides what happens next.
    pub fn check_admit(&self) -> Result<(), (u64, String)> {
        let mut inner = self.lock();
        if inner.status != HealthStatus::Quarantined {
            return Ok(());
        }
        let now = Instant::now();
        match inner.retry_at {
            Some(t) if t > now => {
                let secs = t.saturating_duration_since(now).as_secs().max(1);
                Err((secs, inner.reason.clone()))
            }
            _ => {
                let backoff = inner.backoff;
                inner.retry_at = Some(now + backoff);
                Ok(())
            }
        }
    }

    /// Records a failure (failed load, panicking handler). Transitions
    /// degraded → quarantined at the policy threshold; a failure while
    /// already quarantined doubles the backoff (capped).
    pub fn record_failure(&self, what: &str) {
        let mut inner = self.lock();
        inner.consecutive_failures += 1;
        inner.reason = what.to_string();
        let now = Instant::now();
        match inner.status {
            HealthStatus::Quarantined => {
                inner.backoff = (inner.backoff * 2).min(self.policy.max_backoff);
                inner.retry_at = Some(now + inner.backoff);
            }
            _ if inner.consecutive_failures >= self.policy.quarantine_after => {
                inner.status = HealthStatus::Quarantined;
                inner.quarantines += 1;
                inner.backoff = self.policy.base_backoff;
                inner.retry_at = Some(now + inner.backoff);
            }
            _ => inner.status = HealthStatus::Degraded,
        }
    }

    /// Records a success: the tenant returns to healthy and the backoff
    /// resets.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.status = HealthStatus::Healthy;
        inner.consecutive_failures = 0;
        inner.backoff = self.policy.base_backoff;
        inner.retry_at = None;
        inner.reason.clear();
    }
}

/// A cached `/search` answer: the encoded body in its two parts plus the
/// answer's trussness `k`, the class-keyed invalidation handle — an
/// applied update with `max_class < k` provably cannot change this answer
/// (for the exact algorithms), so the entry survives the update.
#[derive(Clone)]
pub(crate) struct CachedAnswer {
    pub(crate) k: u32,
    /// The answer's own fields, `{"k":…,"num_vertices":…,…,`.
    pub(crate) fields: Arc<Vec<u8>>,
    /// The member lists, `"vertices":[…],"edges":[…]}`: one allocation
    /// for every cached answer over the same community.
    pub(crate) lists: Arc<Vec<u8>>,
}

/// What a member list is interned under: its byte length and [`lanes64`]
/// of its bytes. Equal lists have equal ids; a list is shared only after
/// a byte-for-byte comparison, so a collision costs sharing, never a
/// wrong answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ListId(usize, u64);

impl ListId {
    /// The id of `lists`: one pass over its bytes.
    pub(crate) fn of(lists: &[u8]) -> Self {
        ListId(lists.len(), lanes64(lists))
    }
}

/// One tenant's answer cache: an LRU of answers keyed on [`QueryKey`],
/// and an intern table through which answers with one community share
/// their member lists. Many queries get the same community back (the
/// Truss baseline answers G0, which depends only on the pair (k,
/// component)), and the lists are nearly all of a body's bytes.
pub(crate) struct AnswerCache {
    answers: LruCache<QueryKey, CachedAnswer>,
    /// Member lists of cached answers by id. The table holds no list
    /// alive: a list is freed once no cached answer, or response in
    /// flight, holds it. Entries whose list no cached answer holds are
    /// pruned whenever the table outgrows twice the answers, so it never
    /// does.
    lists: HashMap<ListId, Weak<Vec<u8>>>,
}

impl AnswerCache {
    /// An empty cache of at most `cap` answers; `0` caches nothing.
    pub(crate) fn new(cap: usize) -> Self {
        AnswerCache {
            answers: LruCache::new(cap),
            lists: HashMap::new(),
        }
    }

    /// The configured capacity, in answers.
    pub(crate) fn capacity(&self) -> usize {
        self.answers.capacity()
    }

    /// Looks up `key`, refreshing its recency on a hit: reference bumps,
    /// no copy.
    pub(crate) fn get(&mut self, key: &QueryKey) -> Option<CachedAnswer> {
        self.answers.get(key)
    }

    /// The member list interned under `id`, while a holder keeps it. The
    /// caller compares it with its own list before sharing it.
    pub(crate) fn shared_list(&self, id: ListId) -> Option<Arc<Vec<u8>>> {
        self.lists.get(&id).and_then(Weak::upgrade)
    }

    /// Caches `answer` under `key`, evicting the least recently used
    /// answer at capacity, and interns its member lists under `id` unless
    /// a live list already holds that id.
    pub(crate) fn insert(&mut self, key: QueryKey, answer: CachedAnswer, id: ListId) {
        let list = Arc::downgrade(&answer.lists);
        self.answers.insert(key, answer);
        let slot = self.lists.entry(id).or_default();
        if slot.strong_count() == 0 {
            *slot = list;
        }
        if self.lists.len() > 2 * self.answers.len() {
            self.prune();
        }
    }

    /// Keeps only the answers for which `keep` returns `true`; see
    /// [`LruCache::retain`].
    pub(crate) fn retain(&mut self, keep: impl FnMut(&QueryKey, &CachedAnswer) -> bool) {
        self.answers.retain(keep);
        self.prune();
    }

    /// Drops every answer and every interned list.
    pub(crate) fn clear(&mut self) {
        self.answers.clear();
        self.lists.clear();
    }

    /// Forgets the lists no cached answer holds.
    fn prune(&mut self) {
        let held: HashSet<*const Vec<u8>> = self
            .answers
            .values()
            .map(|a| Arc::as_ptr(&a.lists))
            .collect();
        // A dead `Weak` still owns its allocation, so its address cannot
        // be a live list's.
        self.lists.retain(|_, list| held.contains(&list.as_ptr()));
    }

    /// Entries of the intern table, dead ones included.
    #[cfg(test)]
    pub(crate) fn interned(&self) -> usize {
        self.lists.len()
    }

    /// Number of cached answers.
    pub(crate) fn len(&self) -> usize {
        self.answers.len()
    }

    /// The body bytes the cached answers serve: each answer's fields and
    /// lists, shared or not.
    pub(crate) fn bytes(&self) -> usize {
        self.answers
            .values()
            .map(|a| a.fields.len() + a.lists.len())
            .sum()
    }

    /// The body bytes the cached answers hold: each answer's fields, plus
    /// each distinct list allocation once.
    pub(crate) fn resident_bytes(&self) -> usize {
        let mut seen = HashSet::new();
        self.answers
            .values()
            .map(|a| {
                let list = if seen.insert(Arc::as_ptr(&a.lists)) {
                    a.lists.len()
                } else {
                    0
                };
                a.fields.len() + list
            })
            .sum()
    }
}

/// Monotonic per-tenant counters. Owned by the registry entry and shared
/// into the loaded [`TenantState`], so values survive eviction/reload.
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// `/t/<name>/search` answers served (cache hits included).
    pub search_ok: AtomicU64,
    /// `/t/<name>/search` requests that failed.
    pub search_err: AtomicU64,
    /// Answers served from this tenant's LRU cache.
    pub cache_hits: AtomicU64,
    /// Answers that ran the full search path.
    pub cache_misses: AtomicU64,
    /// `/t/<name>/update` batches answered `200`.
    pub update_ok: AtomicU64,
    /// `/t/<name>/update` requests rejected (`400`/`500`).
    pub update_err: AtomicU64,
    /// Individual edge updates applied across `200` batches.
    pub updates_applied: AtomicU64,
    /// Individual edge updates rejected across `200` batches.
    pub updates_rejected: AtomicU64,
    /// Requests shed with `429` because the tenant was at its in-flight
    /// cap — admission control, not failure.
    pub sheds_429: AtomicU64,
    /// Applied updates journaled to the tenant's write-ahead delta log.
    pub wal_appended: AtomicU64,
    /// Write-ahead append failures. The first one detaches the log (its
    /// in-memory view may be ahead of the file), so later batches are not
    /// journaled. Health is untouched: the update applied in memory and
    /// readers are consistent, so durability is lost but serving
    /// continues.
    pub wal_errors: AtomicU64,
    /// Requests currently inside this tenant's search/update handlers
    /// (a gauge, not a monotonic counter).
    pub in_flight: AtomicU64,
    /// Wall time in microseconds of the tenant's last successful snapshot
    /// load ([`CommunityEngine::load`], run under the registry lock); 0
    /// for an in-memory tenant or one not loaded yet.
    pub load_us: AtomicU64,
}

/// One tenant's loaded serving state. The engine split mirrors the
/// single-tenant design: `primary` is the writer's engine holding warm
/// maintenance state, `serving` is the readers' frozen clone republished
/// per applied batch, and `epoch` counts publications.
pub struct TenantState {
    /// The tenant's registry name.
    pub(crate) name: String,
    pub(crate) primary: Mutex<CommunityEngine>,
    pub(crate) serving: RwLock<CommunityEngine>,
    pub(crate) epoch: AtomicU64,
    pub(crate) cache: Mutex<AnswerCache>,
    pub(crate) counters: Arc<TenantCounters>,
    /// Shared health state machine (registry entry owns the other ref,
    /// so health survives eviction/reload).
    pub(crate) health: Arc<TenantHealth>,
    /// Write-ahead delta log for applied updates, when attached (the
    /// `serve --log` path). Appended under the `primary` lock.
    pub(crate) wal: Mutex<Option<DeltaLogFile>>,
    /// Set on the first applied update batch; a dirty tenant is never
    /// evicted (its maintained graph exists only in memory).
    pub(crate) dirty: AtomicBool,
    /// [`CommunityEngine::memory_bytes`] at load time — the eviction
    /// weight.
    pub(crate) cost_bytes: usize,
}

impl TenantState {
    fn new(
        name: &str,
        engine: CommunityEngine,
        counters: Arc<TenantCounters>,
        health: Arc<TenantHealth>,
        cache_cap: usize,
    ) -> Self {
        let cost_bytes = engine.memory_bytes();
        let serving = engine.frozen_clone();
        TenantState {
            name: name.to_string(),
            primary: Mutex::new(engine),
            serving: RwLock::new(serving),
            epoch: AtomicU64::new(0),
            cache: Mutex::new(AnswerCache::new(cache_cap)),
            counters,
            health,
            wal: Mutex::new(None),
            dirty: AtomicBool::new(false),
            cost_bytes,
        }
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The publication epoch: applied update batches since load.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The eviction weight captured at load time.
    pub fn cost_bytes(&self) -> usize {
        self.cost_bytes
    }

    /// `true` once an update batch has been applied since load.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::SeqCst)
    }

    /// The tenant's health state machine.
    pub fn health(&self) -> &TenantHealth {
        &self.health
    }
}

impl std::fmt::Debug for TenantState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantState")
            .field("name", &self.name)
            .field("epoch", &self.epoch())
            .field("dirty", &self.is_dirty())
            .field("cost_bytes", &self.cost_bytes)
            .finish_non_exhaustive()
    }
}

/// Why a tenant lookup failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantError {
    /// No tenant registered under that name.
    Unknown,
    /// The tenant is path-backed and its snapshot failed to load.
    Load(String),
    /// The tenant is quarantined: repeated failures tripped the health
    /// state machine, and the reload backoff has not yet elapsed.
    Quarantined {
        /// Seconds until the next reload probe is admitted.
        retry_after_secs: u64,
        /// The failure that put (or kept) the tenant in quarantine.
        reason: String,
    },
}

struct TenantEntry {
    name: String,
    /// `Some` for path-backed tenants (reloadable after eviction).
    source: Option<PathBuf>,
    state: Option<Arc<TenantState>>,
    counters: Arc<TenantCounters>,
    health: Arc<TenantHealth>,
    /// Logical-clock stamp of the last lookup; eviction takes the
    /// minimum among evictable entries, so order is deterministic.
    last_used: u64,
}

struct Inner {
    entries: Vec<TenantEntry>,
    by_name: HashMap<String, usize>,
    clock: u64,
}

/// A point-in-time summary of one registry entry, for `/stats`.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Registry name.
    pub name: String,
    /// `true` when the engine is currently resident.
    pub loaded: bool,
    /// `true` when the tenant has applied updates since load.
    pub dirty: bool,
    /// Resident cost in bytes (`0` when not loaded).
    pub cost_bytes: usize,
    /// Health state-machine position.
    pub health: HealthStatus,
}

/// The named-engine registry with bytes-weighted LRU eviction.
pub struct Registry {
    inner: Mutex<Inner>,
    /// Resident-bytes budget; `0` means unlimited.
    budget_bytes: usize,
    cache_cap: usize,
    policy: HealthPolicy,
    loads: AtomicU64,
    evictions: AtomicU64,
}

/// Tenant names are path segments: bounded, and no `/`, `.`-games or
/// control bytes.
pub fn is_valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl Registry {
    /// An empty registry. `budget_bytes == 0` disables eviction;
    /// `cache_cap` sizes each tenant's answer cache. Tenants use the
    /// default [`HealthPolicy`]; see [`Registry::with_policy`].
    pub fn new(budget_bytes: usize, cache_cap: usize) -> Self {
        Self::with_policy(budget_bytes, cache_cap, HealthPolicy::default())
    }

    /// An empty registry whose tenants run the given health policy.
    pub fn with_policy(budget_bytes: usize, cache_cap: usize, policy: HealthPolicy) -> Self {
        Registry {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                by_name: HashMap::new(),
                clock: 0,
            }),
            budget_bytes,
            cache_cap,
            policy,
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Registers an already-built engine under `name`. Engine-backed
    /// tenants are never evicted (there is nothing to reload them from).
    pub fn add_engine(&self, name: &str, engine: CommunityEngine) -> Result<(), String> {
        let mut inner = self.lock();
        Self::validate_new(&inner, name)?;
        let counters = Arc::new(TenantCounters::default());
        let health = Arc::new(TenantHealth::new(self.policy.clone()));
        let state = Arc::new(TenantState::new(
            name,
            engine,
            Arc::clone(&counters),
            Arc::clone(&health),
            self.cache_cap,
        ));
        self.loads.fetch_add(1, Ordering::Relaxed);
        let idx = inner.entries.len();
        inner.entries.push(TenantEntry {
            name: name.to_string(),
            source: None,
            state: Some(state),
            counters,
            health,
            last_used: 0,
        });
        inner.by_name.insert(name.to_string(), idx);
        Ok(())
    }

    /// Registers a path-backed tenant. The snapshot is not touched until
    /// the first request for it — registration of a directory of
    /// snapshots is free.
    pub fn add_path(&self, name: &str, path: PathBuf) -> Result<(), String> {
        let mut inner = self.lock();
        Self::validate_new(&inner, name)?;
        let idx = inner.entries.len();
        inner.entries.push(TenantEntry {
            name: name.to_string(),
            source: Some(path),
            state: None,
            counters: Arc::new(TenantCounters::default()),
            health: Arc::new(TenantHealth::new(self.policy.clone())),
            last_used: 0,
        });
        inner.by_name.insert(name.to_string(), idx);
        Ok(())
    }

    fn validate_new(inner: &Inner, name: &str) -> Result<(), String> {
        if !is_valid_tenant_name(name) {
            return Err(format!(
                "invalid tenant name {name:?}: want 1-64 chars of [A-Za-z0-9_-]"
            ));
        }
        if inner.by_name.contains_key(name) {
            return Err(format!("tenant {name:?} already registered"));
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The registry lock only guards bookkeeping (no user code runs
        // under it except snapshot loading), but a panicking load must
        // not wedge every later request.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up (and if necessary loads) tenant `name`, refreshing its
    /// recency and evicting colder tenants if the budget is now
    /// exceeded. The returned `Arc` pins the state: it stays usable even
    /// if the tenant is evicted while the request runs.
    pub fn get(&self, name: &str) -> Result<Arc<TenantState>, TenantError> {
        let mut inner = self.lock();
        let idx = *inner.by_name.get(name).ok_or(TenantError::Unknown)?;
        inner.clock += 1;
        let clock = inner.clock;
        inner.entries[idx].last_used = clock;
        if let Some(state) = &inner.entries[idx].state {
            return Ok(Arc::clone(state));
        }
        // Cold path-backed tenant. Quarantine gates the reload *before*
        // the filesystem is touched: while the backoff runs, requests
        // shed with a typed error instead of re-hitting a known-bad
        // snapshot; once it elapses, exactly one request probes.
        let health = Arc::clone(&inner.entries[idx].health);
        if let Err((retry_after_secs, reason)) = health.check_admit() {
            return Err(TenantError::Quarantined {
                retry_after_secs,
                reason,
            });
        }
        // Load while holding the registry lock. Concurrent first requests
        // for the same tenant would otherwise race duplicate multi-MB
        // loads; requests for *loaded* tenants queue behind a bounded
        // bookkeeping section either way.
        let path = inner.entries[idx]
            .source
            .clone()
            .expect("unloaded tenant has a source path");
        let started = Instant::now();
        let engine = CommunityEngine::load(&path).map_err(|e| {
            let msg = format!("loading {}: {e}", path.display());
            health.record_failure(&msg);
            TenantError::Load(msg)
        })?;
        let load_us = started.elapsed().as_micros() as u64;
        health.record_success();
        let counters = Arc::clone(&inner.entries[idx].counters);
        counters.load_us.store(load_us, Ordering::Relaxed);
        let state = Arc::new(TenantState::new(
            name,
            engine,
            counters,
            health,
            self.cache_cap,
        ));
        inner.entries[idx].state = Some(Arc::clone(&state));
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.evict_over_budget(&mut inner, idx);
        Ok(state)
    }

    /// Unloads least-recently-used evictable tenants until the resident
    /// total fits the budget (or nothing more can go). `keep` is the
    /// entry that triggered the pass — never its own victim.
    fn evict_over_budget(&self, inner: &mut Inner, keep: usize) {
        if self.budget_bytes == 0 {
            return;
        }
        loop {
            let resident: usize = inner
                .entries
                .iter()
                .filter_map(|e| e.state.as_ref())
                .map(|s| s.cost_bytes)
                .sum();
            if resident <= self.budget_bytes {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .filter(|(i, e)| {
                    *i != keep
                        && e.source.is_some()
                        && e.state
                            .as_ref()
                            .is_some_and(|s| !s.is_dirty() && Arc::strong_count(s) == 1)
                })
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    inner.entries[i].state = None;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything still resident is pinned, dirty, or
                // engine-backed: the budget is soft against correctness.
                None => return,
            }
        }
    }

    /// Tenant names in registration order.
    pub fn names(&self) -> Vec<String> {
        self.lock().entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Per-tenant summaries in registration order.
    pub fn summaries(&self) -> Vec<TenantSummary> {
        self.lock()
            .entries
            .iter()
            .map(|e| TenantSummary {
                name: e.name.clone(),
                loaded: e.state.is_some(),
                dirty: e.state.as_ref().is_some_and(|s| s.is_dirty()),
                cost_bytes: e.state.as_ref().map_or(0, |s| s.cost_bytes),
                health: e.health.status(),
            })
            .collect()
    }

    /// The per-tenant counters handle (valid whether or not the tenant
    /// is currently loaded).
    pub fn counters_of(&self, name: &str) -> Option<Arc<TenantCounters>> {
        let inner = self.lock();
        let idx = *inner.by_name.get(name)?;
        Some(Arc::clone(&inner.entries[idx].counters))
    }

    /// `field` of [`TenantCounters`] summed over every registered tenant:
    /// the process-wide count. Exact, because every search, update and
    /// `429` belongs to some tenant and entries are never removed.
    pub(crate) fn sum(&self, field: fn(&TenantCounters) -> &AtomicU64) -> u64 {
        self.lock()
            .entries
            .iter()
            .map(|e| field(&e.counters).load(Ordering::Relaxed))
            .sum()
    }

    /// The per-tenant health handle (valid whether or not the tenant is
    /// currently loaded).
    pub fn health_of(&self, name: &str) -> Option<Arc<TenantHealth>> {
        let inner = self.lock();
        let idx = *inner.by_name.get(name)?;
        Some(Arc::clone(&inner.entries[idx].health))
    }

    /// Names of currently quarantined tenants, in registration order —
    /// the `/healthz` discriminator.
    pub fn quarantined_names(&self) -> Vec<String> {
        self.lock()
            .entries
            .iter()
            .filter(|e| e.health.status() == HealthStatus::Quarantined)
            .map(|e| e.name.clone())
            .collect()
    }

    /// Bytes currently resident across loaded tenants.
    pub fn resident_bytes(&self) -> usize {
        self.lock()
            .entries
            .iter()
            .filter_map(|e| e.state.as_ref())
            .map(|s| s.cost_bytes)
            .sum()
    }

    /// The configured budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Snapshot loads performed (initial registrations included).
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_truss::fixtures::figure1_graph;

    fn engine() -> CommunityEngine {
        CommunityEngine::build(figure1_graph())
    }

    fn saved(dir: &std::path::Path, name: &str) -> PathBuf {
        let path = dir.join(format!("{name}.ctci"));
        engine().save(&path).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ctc-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_validate_and_duplicates_reject() {
        let r = Registry::new(0, 8);
        assert!(r.add_engine("fb-01_x", engine()).is_ok());
        assert!(r.add_engine("fb-01_x", engine()).is_err());
        for bad in ["", "a/b", "a.b", "é", &"x".repeat(65)] {
            assert!(r.add_engine(bad, engine()).is_err(), "{bad:?}");
        }
        assert_eq!(r.get("nope").unwrap_err(), TenantError::Unknown);
        assert_eq!(r.names(), vec!["fb-01_x".to_string()]);
    }

    #[test]
    fn path_backed_tenants_load_lazily_and_survive_counter_reloads() {
        let dir = tmpdir("lazy");
        let r = Registry::new(0, 8);
        r.add_path("a", saved(&dir, "a")).unwrap();
        assert_eq!(r.loads(), 0, "registration must not touch the snapshot");
        assert!(!r.summaries()[0].loaded);
        let state = r.get("a").unwrap();
        assert_eq!(r.loads(), 1);
        assert_eq!(state.name(), "a");
        assert!(state.cost_bytes() > 0);
        // Second lookup: same pinned state, no reload.
        let again = r.get("a").unwrap();
        assert!(Arc::ptr_eq(&state, &again));
        assert_eq!(r.loads(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_lru_weighted_and_reload_keeps_counters() {
        let dir = tmpdir("evict");
        // Budget below two engines: loading the second evicts the first.
        let one = engine().memory_bytes();
        let r = Registry::new(one + one / 2, 8);
        r.add_path("a", saved(&dir, "a")).unwrap();
        r.add_path("b", saved(&dir, "b")).unwrap();
        let a = r.get("a").unwrap();
        a.counters.search_ok.fetch_add(7, Ordering::Relaxed);
        drop(a); // unpin
        let b = r.get("b").unwrap();
        assert_eq!(r.evictions(), 1);
        let s = r.summaries();
        assert!(!s[0].loaded, "a evicted");
        assert!(s[1].loaded, "b resident");
        assert!(r.resident_bytes() <= r.budget_bytes());
        // Unpin b, then reload a (evicts b): counters survived eviction.
        let b_counters = Arc::clone(&b.counters);
        drop(b);
        let a = r.get("a").unwrap();
        assert_eq!(r.evictions(), 2);
        assert_eq!(r.loads(), 3);
        assert_eq!(a.counters.search_ok.load(Ordering::Relaxed), 7);
        // The evicted b keeps the time of its last load.
        assert!(b_counters.load_us.load(Ordering::Relaxed) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_and_dirty_tenants_are_never_evicted() {
        let dir = tmpdir("pin");
        let one = engine().memory_bytes();
        let r = Registry::new(one, 8);
        r.add_path("a", saved(&dir, "a")).unwrap();
        r.add_path("b", saved(&dir, "b")).unwrap();
        r.add_path("c", saved(&dir, "c")).unwrap();
        // Pinned: holding the Arc while b loads keeps a resident even
        // though the budget fits only one engine.
        let a = r.get("a").unwrap();
        let b = r.get("b").unwrap();
        assert_eq!(r.evictions(), 0, "both pinned: budget is soft");
        assert!(r.resident_bytes() > r.budget_bytes());
        // Dirty: a marked dirty survives even unpinned; clean b goes.
        a.dirty.store(true, Ordering::SeqCst);
        drop(a);
        drop(b);
        let _c = r.get("c").unwrap();
        let s = r.summaries();
        assert!(s[0].loaded, "dirty a survives");
        assert!(!s[1].loaded, "clean unpinned b evicted");
        assert_eq!(r.evictions(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_backed_tenants_are_not_evictable() {
        let r = Registry::new(1, 8); // budget below anything
        r.add_engine("a", engine()).unwrap();
        r.add_engine("b", engine()).unwrap();
        let _ = r.get("a").unwrap();
        let _ = r.get("b").unwrap();
        assert_eq!(r.evictions(), 0);
        assert_eq!(r.summaries().iter().filter(|s| s.loaded).count(), 2);
    }

    #[test]
    fn load_failure_is_reported_not_cached() {
        let r = Registry::new(0, 8);
        r.add_path("ghost", PathBuf::from("/nonexistent/ghost.ctci"))
            .unwrap();
        match r.get("ghost") {
            Err(TenantError::Load(msg)) => assert!(msg.contains("ghost.ctci"), "{msg}"),
            Err(other) => panic!("want load error, got {other:?}"),
            Ok(_) => panic!("want load error, got a loaded tenant"),
        }
        assert!(!r.summaries()[0].loaded);
        assert_eq!(r.summaries()[0].health, HealthStatus::Degraded);
    }

    fn fast_policy() -> HealthPolicy {
        HealthPolicy {
            quarantine_after: 3,
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(200),
        }
    }

    #[test]
    fn repeated_load_failures_quarantine_then_shed() {
        let r = Registry::with_policy(0, 8, fast_policy());
        r.add_path("ghost", PathBuf::from("/nonexistent/ghost.ctci"))
            .unwrap();
        // Three consecutive failures: healthy → degraded → quarantined.
        for _ in 0..3 {
            assert!(matches!(r.get("ghost"), Err(TenantError::Load(_))));
        }
        assert_eq!(
            r.health_of("ghost").unwrap().status(),
            HealthStatus::Quarantined
        );
        assert_eq!(r.quarantined_names(), vec!["ghost".to_string()]);
        // Inside the backoff window: shed with a typed quarantine error,
        // without touching the filesystem again.
        match r.get("ghost") {
            Err(TenantError::Quarantined {
                retry_after_secs,
                reason,
            }) => {
                assert!(retry_after_secs >= 1);
                assert!(reason.contains("ghost.ctci"), "{reason}");
            }
            other => panic!("want quarantine shed, got {other:?}"),
        }
        // Once the backoff elapses, exactly one probe is admitted; it
        // fails again (the file still does not exist) and the backoff
        // doubles.
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(r.get("ghost"), Err(TenantError::Load(_))));
        assert!(matches!(
            r.get("ghost"),
            Err(TenantError::Quarantined { .. })
        ));
        let snap = r.health_of("ghost").unwrap().snapshot();
        assert_eq!(snap.status, HealthStatus::Quarantined);
        assert!(snap.quarantines >= 1);
        assert!(snap.consecutive_failures >= 4);
    }

    #[test]
    fn quarantined_tenant_heals_after_successful_probe() {
        let dir = tmpdir("heal");
        let path = dir.join("flaky.ctci");
        let r = Registry::with_policy(0, 8, fast_policy());
        r.add_path("flaky", path.clone()).unwrap();
        // The snapshot does not exist yet: fail into quarantine.
        for _ in 0..3 {
            assert!(matches!(r.get("flaky"), Err(TenantError::Load(_))));
        }
        assert_eq!(
            r.health_of("flaky").unwrap().status(),
            HealthStatus::Quarantined
        );
        // Operator repairs the snapshot; the next probe heals the tenant.
        engine().save(&path).unwrap();
        assert!(matches!(
            r.get("flaky"),
            Err(TenantError::Quarantined { .. })
        ));
        std::thread::sleep(Duration::from_millis(60));
        let state = r.get("flaky").expect("probe load succeeds");
        assert_eq!(state.name(), "flaky");
        assert_eq!(
            r.health_of("flaky").unwrap().status(),
            HealthStatus::Healthy
        );
        assert!(r.quarantined_names().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_survives_eviction_and_reload() {
        let dir = tmpdir("health-evict");
        let one = engine().memory_bytes();
        let r = Registry::with_policy(one + one / 2, 8, fast_policy());
        r.add_path("a", saved(&dir, "a")).unwrap();
        r.add_path("b", saved(&dir, "b")).unwrap();
        let a = r.get("a").unwrap();
        a.health().record_failure("handler panicked");
        assert_eq!(a.health().status(), HealthStatus::Degraded);
        drop(a);
        let _b = r.get("b").unwrap();
        assert!(!r.summaries()[0].loaded, "a evicted");
        // The registry entry still carries the degraded state, and the
        // reloaded state shares the same machine.
        assert_eq!(r.health_of("a").unwrap().status(), HealthStatus::Degraded);
        let a = r.get("a").unwrap();
        assert_eq!(
            a.health().status(),
            HealthStatus::Healthy,
            "probe load healed it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
