//! The parallel execution substrate shared by the workspace's fan-outs.
//!
//! [`Parallelism`] makes "how work is spread across cores" a first-class,
//! explicit concept: a thread count plus two structured fork-join helpers
//! built on `std::thread::scope`, with no thread-pool crate. It spreads
//! work that is independent by construction: a batch of searches, the
//! peel's per-source distance repairs, the server's worker pool, and the
//! PKT frontier peel that cross-checks the serial truss decomposition.
//! `threads = 1` runs every helper inline on the caller's thread.
//!
//! ```
//! use ctc_graph::Parallelism;
//!
//! // Sum of squares, split across 4 workers.
//! let par = Parallelism::threads(4);
//! let partial: Vec<u64> = par.map_chunks(1000, |range| {
//!     range.map(|i| (i as u64) * (i as u64)).sum()
//! });
//! let total: u64 = partial.iter().sum();
//! assert_eq!(total, (0..1000u64).map(|i| i * i).sum());
//! assert_eq!(par.get(), 4);
//! assert!(!par.is_serial());
//! ```

use std::num::NonZeroUsize;
use std::ops::Range;

/// A thread-count policy for the workspace's parallel algorithms.
///
/// Wraps a non-zero worker count and provides deterministic, contiguous
/// chunking over index spaces. All helpers degrade to a plain in-thread
/// call when one worker suffices, so `Parallelism::serial()` adds zero
/// overhead and *is* the serial code path.
///
/// ```
/// use ctc_graph::Parallelism;
///
/// assert!(Parallelism::serial().is_serial());
/// assert_eq!(Parallelism::threads(8).get(), 8);
/// assert_eq!(Parallelism::threads(1), Parallelism::serial());
/// // 0 means "use all available cores".
/// assert!(Parallelism::threads(0).get() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Default for Parallelism {
    /// Defaults to serial: parallelism is always an explicit opt-in.
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Exactly one worker: the serial reference path.
    pub fn serial() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// A fixed worker count. `0` is interpreted as "all available cores"
    /// ([`Parallelism::available`]), matching the CLI's `--threads 0`.
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(threads) => Parallelism { threads },
            None => Self::available(),
        }
    }

    /// One worker per core reported by the OS (1 if detection fails).
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The worker count.
    #[inline(always)]
    pub fn get(self) -> usize {
        self.threads.get()
    }

    /// `true` when this is the single-worker serial path.
    #[inline(always)]
    pub fn is_serial(self) -> bool {
        self.threads.get() == 1
    }

    /// Number of workers actually used for `len` items (never more workers
    /// than items, never zero).
    #[inline]
    fn workers_for(self, len: usize) -> usize {
        self.threads.get().min(len).max(1)
    }

    /// Splits `0..len` into at most `get()` contiguous chunks and runs `f`
    /// on each, in parallel, returning the per-chunk results **in chunk
    /// order** (so the output is independent of thread scheduling).
    ///
    /// With one worker (or one item) `f` runs inline on the caller's
    /// thread. Panics in workers propagate to the caller.
    pub fn map_chunks<R, F>(self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let workers = self.workers_for(len);
        if workers == 1 {
            return vec![f(0..len)];
        }
        let chunk = len.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|i| {
                    let lo = (i * chunk).min(len);
                    let hi = ((i + 1) * chunk).min(len);
                    let f = &f;
                    scope.spawn(move || f(lo..hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel worker panicked"))
                .collect()
        })
    }

    /// Splits `out` into at most `get()` contiguous sub-slices and runs
    /// `f(start, chunk)` on each in parallel, where `start` is the chunk's
    /// offset in `out`. Because the sub-slices are disjoint, each worker
    /// writes its region without any synchronization — the pattern behind
    /// the peel's per-source distance repairs.
    pub fn fill_chunks<T, F>(self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = out.len();
        if len == 0 {
            return;
        }
        let workers = self.workers_for(len);
        if workers == 1 {
            f(0, out);
            return;
        }
        let chunk = len.div_ceil(workers);
        std::thread::scope(|scope| {
            for (i, piece) in out.chunks_mut(chunk).enumerate() {
                let f = &f;
                scope.spawn(move || f(i * chunk, piece));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_default_are_one_thread() {
        assert_eq!(Parallelism::serial().get(), 1);
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(Parallelism::serial().is_serial());
        assert!(!Parallelism::threads(2).is_serial());
    }

    #[test]
    fn zero_means_available() {
        assert_eq!(Parallelism::threads(0), Parallelism::available());
        assert!(Parallelism::available().get() >= 1);
    }

    #[test]
    fn map_chunks_covers_range_in_order() {
        for threads in [1, 2, 3, 8] {
            let par = Parallelism::threads(threads);
            // 17 with 8 workers regresses the ceil-chunking case where a
            // trailing worker's start offset would overshoot the length.
            for len in [0usize, 1, 2, 7, 17, 100] {
                let pieces = par.map_chunks(len, |r| r.collect::<Vec<_>>());
                let flat: Vec<usize> = pieces.into_iter().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "t={threads} len={len}");
            }
        }
    }

    #[test]
    fn map_chunks_never_spawns_more_workers_than_items() {
        let par = Parallelism::threads(16);
        let pieces = par.map_chunks(3, |r| r.len());
        assert_eq!(pieces.len(), 3);
        assert!(pieces.iter().all(|&l| l == 1));
    }

    #[test]
    fn fill_chunks_writes_every_slot_once() {
        for threads in [1, 2, 5] {
            let par = Parallelism::threads(threads);
            let mut out = vec![0usize; 37];
            par.fill_chunks(&mut out, |start, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + i;
                }
            });
            assert_eq!(out, (0..37).collect::<Vec<_>>(), "t={threads}");
        }
    }

    #[test]
    fn fill_chunks_empty_slice_is_fine() {
        let mut out: Vec<u32> = Vec::new();
        Parallelism::threads(4).fill_chunks(&mut out, |_, _| panic!("no chunks expected"));
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        Parallelism::threads(2).map_chunks(10, |r| {
            if r.contains(&9) {
                panic!("boom");
            }
        });
    }
}
