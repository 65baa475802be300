//! Experiment harness: timed, budgeted runs over query workloads.
//!
//! The paper reports averages over 100 (Exp-1) or 1000 (Exp-3) random query
//! sets with a one-hour per-query timeout ("we treat the runtime of a query
//! as infinite if its runtime exceeds 1 hour"). [`run_workload`] mirrors
//! that: a wall-clock budget per *workload*, and failures and timeouts
//! recorded rather than panicking. Queries run one after another on the
//! caller's thread, so each one's wall time is its own.

use std::time::{Duration, Instant};

/// Result of running one algorithm over one query set.
#[derive(Clone, Debug)]
pub enum RunOutcome<T> {
    /// Completed with a value in the given time.
    Done(T, Duration),
    /// Errored (e.g. disconnected query).
    Failed(String),
    /// Skipped: the workload's time budget was already exhausted.
    OverBudget,
}

impl<T> RunOutcome<T> {
    /// The wall time, if completed.
    pub fn duration(&self) -> Option<Duration> {
        match self {
            RunOutcome::Done(_, d) => Some(*d),
            _ => None,
        }
    }

    /// The value, if completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            RunOutcome::Done(v, _) => Some(v),
            _ => None,
        }
    }
}

/// Aggregate statistics over a workload run.
#[derive(Clone, Debug, Default)]
pub struct WorkloadStats {
    /// Number of completed queries.
    pub completed: usize,
    /// Number of failed queries.
    pub failed: usize,
    /// Number skipped over budget.
    pub skipped: usize,
    /// Mean wall time of completed queries (seconds).
    pub mean_seconds: f64,
}

/// Runs `f` over every query in `queries` sequentially, respecting a total
/// wall-clock `budget` (queries after exhaustion are [`RunOutcome::OverBudget`]).
///
/// ```
/// use ctc_eval::run_workload;
/// use std::time::Duration;
///
/// let queries = [1u32, 2, 3];
/// let (outcomes, stats) =
///     run_workload(&queries, Duration::from_secs(60), |&q| Ok::<_, String>(q * 2));
/// assert_eq!((stats.completed, stats.failed, stats.skipped), (3, 0, 0));
/// assert_eq!(outcomes[1].value(), Some(&4));
/// ```
pub fn run_workload<Q, T>(
    queries: &[Q],
    budget: Duration,
    mut f: impl FnMut(&Q) -> Result<T, String>,
) -> (Vec<RunOutcome<T>>, WorkloadStats) {
    let start = Instant::now();
    let mut out = Vec::with_capacity(queries.len());
    for q in queries {
        if start.elapsed() > budget {
            out.push(RunOutcome::OverBudget);
            continue;
        }
        let t0 = Instant::now();
        match f(q) {
            Ok(v) => out.push(RunOutcome::Done(v, t0.elapsed())),
            Err(e) => out.push(RunOutcome::Failed(e)),
        }
    }
    let stats = summarize(&out);
    (out, stats)
}

fn summarize<T>(outcomes: &[RunOutcome<T>]) -> WorkloadStats {
    let mut stats = WorkloadStats::default();
    let mut total = Duration::ZERO;
    for o in outcomes {
        match o {
            RunOutcome::Done(_, d) => {
                stats.completed += 1;
                total += *d;
            }
            RunOutcome::Failed(_) => stats.failed += 1,
            RunOutcome::OverBudget => stats.skipped += 1,
        }
    }
    if stats.completed > 0 {
        stats.mean_seconds = total.as_secs_f64() / stats.completed as f64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_runs_everything_in_budget() {
        let qs: Vec<u32> = (0..10).collect();
        let (out, stats) =
            run_workload(&qs, Duration::from_secs(60), |&q| Ok::<u32, String>(q * 2));
        assert_eq!(stats.completed, 10);
        assert_eq!(out[3].value(), Some(&6));
    }

    #[test]
    fn failures_are_recorded_not_fatal() {
        let qs: Vec<u32> = (0..4).collect();
        let (out, stats) = run_workload(&qs, Duration::from_secs(60), |&q| {
            if q % 2 == 0 {
                Ok(q)
            } else {
                Err("odd".into())
            }
        });
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
        assert!(matches!(out[1], RunOutcome::Failed(_)));
    }

    #[test]
    fn zero_budget_skips() {
        let qs: Vec<u32> = (0..5).collect();
        let (_, stats) = run_workload(&qs, Duration::ZERO, |_| {
            std::thread::sleep(Duration::from_millis(2));
            Ok::<(), String>(())
        });
        // First query may run (budget checked before each), rest skipped.
        assert!(stats.skipped >= 4);
    }

    #[test]
    fn mean_seconds_positive_when_work_done() {
        let qs = vec![(); 3];
        let (_, stats) = run_workload(&qs, Duration::from_secs(60), |_| {
            std::thread::sleep(Duration::from_millis(1));
            Ok::<(), String>(())
        });
        assert!(stats.mean_seconds > 0.0);
    }
}
