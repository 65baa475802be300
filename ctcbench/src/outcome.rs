//! What a workload run records, and the end-to-end metrics derived from
//! it.

use crate::stats::{mean, median, percentile, us, Metrics};
use crate::workload::{Op, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The phases of a run, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Each pool entry once, so the cache holds the pool.
    Warmup,
    /// Seeded Poisson arrivals at the workload's frozen rate.
    Open,
    /// Back-to-back requests on every connection.
    Closed,
    /// Back-to-back update batches after the search phases, on one
    /// connection, in the workloads that write nothing beside their
    /// searches.
    Update,
    /// The batches that put every deleted edge back.
    Restore,
    /// The reference queries, after the graph is restored.
    Reference,
}

impl Phase {
    /// The phase whose searches are timed: the open loop, or
    /// `engine-direct`'s closed loop.
    pub fn timed(workload: Workload) -> Phase {
        match workload {
            Workload::EngineDirect => Phase::Closed,
            _ => Phase::Open,
        }
    }

    /// The phase whose update batches are timed: `serve-mixed`'s open
    /// loop, where they go beside the searches, else the update phase.
    pub fn updates(workload: Workload) -> Phase {
        match workload {
            Workload::ServeMixed => Phase::Open,
            _ => Phase::Update,
        }
    }

    /// Lower-case name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Open => "open",
            Phase::Closed => "closed",
            Phase::Update => "update",
            Phase::Restore => "restore",
            Phase::Reference => "reference",
        }
    }
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Done {
    /// The phase that sent it.
    pub phase: Phase,
    /// The request.
    pub op: Arc<Op>,
    /// When it was due (open loop), else when it was sent.
    pub due: Instant,
    /// When the generator put it in its FIFO.
    pub queued: Instant,
    /// When its first byte was written.
    pub sent: Instant,
    /// When its last response byte arrived.
    pub done: Instant,
    /// Response status; `0` for a transport error.
    pub status: u16,
    /// `x-cache: hit`.
    pub hit: bool,
    /// Response body bytes.
    pub bytes: usize,
}

impl Done {
    /// Latency charged from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// `true` for a `/search` request.
    pub fn is_search(&self) -> bool {
        matches!(*self.op, Op::Search(_))
    }
}

/// Everything one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Every request, in the order it was sent.
    pub records: Vec<Done>,
    /// `(phase, start, end)` of each phase that ran.
    pub phases: Vec<(Phase, Instant, Instant)>,
    /// Duration of each fresh start (or engine build) of the set-up.
    pub setup: Vec<Duration>,
    /// Query distance of each reference query's answer.
    pub query_dists: Vec<f64>,
    /// `VmHWM` after the timed searches whose count the seed fixes (the
    /// open loop; `engine-direct`'s searches hold nothing), MiB.
    pub peak_rss_mb: f64,
    /// Correctness failures, one line each.
    pub errors: Vec<String>,
    /// Requests or calls that did not return a 200 / `Ok`.
    pub failed: u64,
}

impl Outcome {
    /// Records of `phase` that succeeded and match `pred`.
    pub fn ok_records(&self, phase: Phase, pred: impl Fn(&Done) -> bool) -> Vec<&Done> {
        self.records
            .iter()
            .filter(|d| d.phase == phase && d.status == 200 && pred(d))
            .collect()
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order: the ones that
    /// repeat within their bounds from run to run (see [`crate::doc`]).
    pub fn end_to_end(&self) -> Metrics {
        let mut setup: Vec<f64> = self.setup.iter().map(Duration::as_secs_f64).collect();
        let mut m = Metrics::default();
        m.put("setup_s", median(&mut setup), "s");
        m.put("query_dist_mean", mean(&self.query_dists), "hops");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m
    }

    /// The latencies and capacity the client measured, in `BENCHMARK.json`
    /// order. On a shared two-core machine they move by more than the
    /// end-to-end bounds between runs of the same inputs, so they are
    /// per-layer metrics. Searches are timed in [`Phase::timed`], update
    /// batches in [`Phase::updates`]; capacity comes from the closed loop.
    pub fn client_times(&self, workload: Workload) -> Metrics {
        let latencies = |phase, pred: &dyn Fn(&Done) -> bool| -> Vec<f64> {
            self.ok_records(phase, pred)
                .into_iter()
                .map(|d| us(d.latency()))
                .collect()
        };
        let mut search = latencies(Phase::timed(workload), &Done::is_search);
        let mut update = latencies(Phase::updates(workload), &|d| !d.is_search());
        let closed_time: f64 = self
            .phases
            .iter()
            .filter(|p| p.0 == Phase::Closed)
            .map(|&(_, s, e)| (e - s).as_secs_f64())
            .sum();
        let capacity =
            self.ok_records(Phase::Closed, Done::is_search).len() as f64 / closed_time.max(1e-9);
        let mut m = Metrics::default();
        m.put("search_p50_us", median(&mut search), "us");
        m.put("search_p95_us", percentile(&mut search, 0.95), "us");
        m.put("capacity_rps", capacity, "req/s");
        m.put("update_p50_us", median(&mut update), "us");
        m.put("update_p90_us", percentile(&mut update, 0.90), "us");
        m
    }

    /// Report-only numbers: sample counts, hit ratio and the load
    /// generator's own clock (how late it ran, how long requests waited
    /// for a connection, how deep its FIFO got).
    pub fn report(&self, workload: Workload) -> Metrics {
        let mut m = Metrics::default();
        let searches: Vec<&Done> = self
            .records
            .iter()
            .filter(|d| d.is_search() && d.phase == Phase::Open)
            .collect();
        let hits = searches.iter().filter(|d| d.hit).count();
        m.put(
            "samples.open",
            self.ok_records(Phase::Open, |_| true).len() as f64,
            "count",
        );
        m.put(
            "samples.closed",
            self.ok_records(Phase::Closed, |_| true).len() as f64,
            "count",
        );
        m.put(
            "samples.update",
            self.ok_records(Phase::updates(workload), |d| !d.is_search())
                .len() as f64,
            "count",
        );
        m.put("samples.reference", self.query_dists.len() as f64, "count");
        m.put(
            "cache.hit_ratio",
            hits as f64 / searches.len().max(1) as f64,
            "ratio",
        );
        let open: Vec<&Done> = self
            .records
            .iter()
            .filter(|d| d.phase == Phase::Open)
            .collect();
        let mut late: Vec<f64> = open.iter().map(|d| us(d.queued - d.due)).collect();
        let mut wait: Vec<f64> = open.iter().map(|d| us(d.sent - d.queued)).collect();
        let mut service: Vec<f64> = open
            .iter()
            .filter(|d| d.is_search() && d.status == 200)
            .map(|d| us(d.done - d.sent))
            .collect();
        m.put("search.service_p50_us", median(&mut service), "us");
        m.put("loadgen.late_p99_us", percentile(&mut late, 0.99), "us");
        m.put(
            "loadgen.conn_wait_p99_us",
            percentile(&mut wait, 0.99),
            "us",
        );
        m.put("loadgen.backlog_max", backlog_max(&open) as f64, "count");
        m
    }
}

/// The deepest the generator's FIFO got: requests due but not yet sent.
fn backlog_max(open: &[&Done]) -> usize {
    let mut events: Vec<(Instant, i32)> = open
        .iter()
        .flat_map(|d| [(d.queued, 1), (d.sent, -1)])
        .collect();
    events.sort_by_key(|&(t, delta)| (t, delta));
    let (mut depth, mut max) = (0i32, 0i32);
    for (_, delta) in events {
        depth += delta;
        max = max.max(depth);
    }
    max as usize
}

/// The process's peak resident set (`VmHWM`), MiB; `0` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and stolen CPU time so far (`/proc/stat`, clock ticks): the
/// share stolen over a run says how much the machine's other tenants
/// slowed it. `(0, 0)` where `/proc/stat` does not exist.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}
