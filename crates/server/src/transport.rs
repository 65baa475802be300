//! The transport: listener, connections, readiness loop and worker pool
//! around the socket-free handler in [`crate::server`].
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
//!                               └────────────────── (read → AppState::answer → write)
//! ```
//!
//! Idle keep-alive connections cost one `pollfd` slot, not a parked
//! worker thread: the event loop multiplexes thousands of them over the
//! fixed pool via [`crate::evented`], dispatching a connection only when
//! it is readable. A worker performs one bounded read on a socket known
//! to be readable, answers every complete pipelined request in the
//! buffer, and hands the connection back to the loop.
//!
//! The pool is the [`Parallelism`] substrate: [`CtcServer::serve`] calls
//! `pool.map_chunks(workers, ..)` with one index per worker, so worker
//! threads are scoped fork-join threads, and `serve` returns only once
//! every worker has drained and joined — clean shutdown is structural,
//! not best-effort. The pool is where queries meet threads: each worker
//! runs whole searches, and a search runs on its worker's thread. `map_chunks` propagates worker panics, so the transport
//! catches none: a panicking request handler is already answered `500`
//! inside the handler's one panic boundary, and a panic in the transport
//! itself is a server bug, like one on the event-loop thread.
//!
//! Admission control sheds early and well-formed: over `max_conns` →
//! `503` at accept; dispatch queue full → `503`. Each admitted
//! connection holds its place in the `open_conns` gauge from admission
//! until it drops, whichever path closes it.
//!
//! Shutdown ("SIGTERM-equivalent"): [`ServerHandle::shutdown`] (or a
//! `POST /shutdown` request) sets the shared flag and pokes the listener
//! with a loopback connection so the parked `poll` wakes, the event loop
//! drops idle connections and closes the queue, workers finish their
//! in-flight requests, drain what was already queued, and exit.

#[cfg(unix)]
use crate::evented::{poll_fds, PollFd, WakePair};
use crate::http::Response;
use crate::server::{AppState, Counters, CountersSnapshot, ServeConfig, ServerCountersSnapshot};
use crate::wire::encode_error;
use ctc_core::CommunityEngine;
use ctc_graph::Parallelism;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One admitted connection's state: the socket (kept *blocking* — the
/// event loop only uses readiness to decide when to dispatch; workers
/// bound every read/write with timeouts), bytes of a not-yet-complete
/// request, and the running per-request deadline. Creating one counts
/// the connection admitted and open; dropping it releases `open_conns`,
/// so the gauge stays exact on every path that closes a connection.
struct Conn<'a> {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
    counters: &'a Counters,
}

impl<'a> Conn<'a> {
    fn new(
        stream: TcpStream,
        counters: &'a Counters,
        io_timeout: Duration,
        deadline: Instant,
    ) -> Self {
        counters.admitted.fetch_add(1, Ordering::Relaxed);
        counters.open_conns.fetch_add(1, Ordering::SeqCst);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(io_timeout));
        Conn {
            stream,
            buf: Vec::new(),
            deadline,
            counters,
        }
    }
}

impl Drop for Conn<'_> {
    fn drop(&mut self) {
        self.counters.open_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The *bounded* dispatch queue between the event loop and the workers.
/// `push` refuses past `cap` (or once closed) and returns the item, so
/// the caller sheds it with a well-formed `503` — a connection flood
/// costs rejected requests, never unbounded queue memory.
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
        let shared = Shared {
            state: &self.state,
            queue: ConnQueue::new(self.queue_cap),
            io_timeout: self.io_timeout,
            request_deadline: self.request_deadline,
            max_conns: self.max_conns,
        };
        let workers = self.pool.get();
        #[cfg(unix)]
        {
            self.listener
                .set_nonblocking(true)
                .expect("listener supports nonblocking accept");
            let wake = WakePair::new().expect("loopback wake pair");
            let waker = wake.waker();
            let injector: Mutex<Vec<Conn>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                let ev = scope.spawn(|| shared.event_loop(&self.listener, &injector, &wake));
                // The worker pool: one queue-draining loop per
                // Parallelism worker. map_chunks returns only when every
                // worker has exited, i.e. the queue is closed and drained.
                self.pool.map_chunks(workers, |_range| {
                    shared.worker(|conn| {
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
                ev.join().expect("event loop panicked");
            });
            // Connections handed back after the loop exited close as the
            // injector drops, before the report reads the gauge.
        }
        #[cfg(not(unix))]
        {
            std::thread::scope(|scope| {
                let acceptor = scope.spawn(|| shared.acceptor(&self.listener));
                // No event loop to hand connections back to: the worker
                // keeps servicing its keep-alive connection inline
                // (blocking reads).
                self.pool.map_chunks(workers, |_range| shared.worker(Some));
                acceptor.join().expect("acceptor panicked");
            });
        }
        ServeReport {
            counters: self.state.counters(),
            server: self.state.server_counters(),
        }
    }
}

/// What the event loop (or the acceptor) and the workers share while
/// [`CtcServer::serve`] runs.
struct Shared<'a> {
    state: &'a AppState,
    queue: ConnQueue<Conn<'a>>,
    io_timeout: Duration,
    request_deadline: Duration,
    max_conns: usize,
}

impl<'a> Shared<'a> {
    /// Admission at accept time: past `max_conns` the connection is shed
    /// with a `503`, otherwise it is admitted with a fresh request
    /// deadline.
    fn admit(&self, mut stream: TcpStream) -> Option<Conn<'a>> {
        let counters = &self.state.counters;
        counters.accepted.fetch_add(1, Ordering::Relaxed);
        if counters.open_conns.load(Ordering::SeqCst) as usize >= self.max_conns {
            counters.sheds_accept.fetch_add(1, Ordering::Relaxed);
            shed_503(
                &mut stream,
                self.io_timeout,
                "server at connection capacity; retry later",
            );
            return None;
        }
        let deadline = Instant::now() + self.request_deadline;
        Some(Conn::new(stream, counters, self.io_timeout, deadline))
    }

    /// Queues a connection for the workers, or sheds it with a `503` when
    /// the dispatch queue is full or closed.
    fn dispatch(&self, conn: Conn<'a>) {
        let counters = &self.state.counters;
        match self.queue.push(conn) {
            Ok(()) => {
                counters.queued.fetch_add(1, Ordering::SeqCst);
            }
            Err(mut conn) => {
                counters.sheds_queue.fetch_add(1, Ordering::Relaxed);
                shed_503(
                    &mut conn.stream,
                    self.io_timeout,
                    "dispatch queue full; retry later",
                );
            }
        }
    }

    /// The readiness loop: multiplexes the listener, the wake channel,
    /// and every idle admitted connection through one `poll(2)` set.
    /// Readable connections are dispatched, idle connections past their
    /// request deadline are dropped, and accepts go through admission.
    #[cfg(unix)]
    fn event_loop(&self, listener: &TcpListener, injector: &Mutex<Vec<Conn<'a>>>, wake: &WakePair) {
        // The idle set: admitted connections currently owned by the loop
        // (not queued, not inside a worker).
        let mut conns: Vec<Conn> = Vec::new();
        while !self.state.is_shutting_down() {
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
            if self.state.is_shutting_down() {
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
            for i in (0..fds.len() - 2).rev() {
                if fds[i + 2].is_actionable() {
                    self.dispatch(conns.swap_remove(i));
                }
            }
            // Expire connections past their request deadline: dropped with
            // no response — the slow-loris shed.
            let now = Instant::now();
            let idle = conns.len();
            conns.retain(|c| now < c.deadline);
            let expired = (idle - conns.len()) as u64;
            self.state
                .counters
                .deadline_drops
                .fetch_add(expired, Ordering::Relaxed);
            // Drain the accept backlog (nonblocking, level-triggered). Any
            // error ends the drain: `WouldBlock` means it is empty, and a
            // transient failure (EMFILE, aborted handshake) is retried at
            // the pace of the next poll round, so never in a hot loop.
            if fds[1].is_actionable() {
                while let Ok((stream, _peer)) = listener.accept() {
                    if self.state.is_shutting_down() {
                        break;
                    }
                    conns.extend(self.admit(stream));
                }
            }
        }
        // Shutdown: idle connections close here; queued ones drain through
        // the workers, each answered with `connection: close`.
        drop(conns);
        self.queue.close();
    }

    /// The blocking acceptor of targets without `poll(2)`: admits and
    /// dispatches each connection as it is accepted.
    #[cfg(not(unix))]
    fn acceptor(&self, listener: &TcpListener) {
        loop {
            let accepted = listener.accept();
            // After shutdown the accept is the wake poke (or a
            // straggler): drop it and stop accepting.
            if self.state.is_shutting_down() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    if let Some(conn) = self.admit(stream) {
                        self.dispatch(conn);
                    }
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // keep serving, but back off so a persistent error cannot
                // pin a core in a hot accept loop.
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        self.queue.close();
    }

    /// A worker: drains the dispatch queue one connection round at a
    /// time. `give_back` takes a connection that may carry another
    /// request and returns `None` once the event loop owns it again, or
    /// hands it back for another blocking round (no event loop).
    fn worker(&self, give_back: impl Fn(Conn<'a>) -> Option<Conn<'a>>) {
        while let Some(mut conn) = self.queue.pop() {
            self.state.counters.queued.fetch_sub(1, Ordering::SeqCst);
            while self.service(&mut conn) {
                match give_back(conn) {
                    Some(back) => conn = back,
                    None => break,
                }
            }
        }
    }

    /// One dispatch round for a connection a worker received: one
    /// bounded read, then every complete pipelined request in the buffer
    /// is answered. Never blocks longer than `min(io_timeout, remaining
    /// deadline)` on the read and `io_timeout` per response write.
    /// Returns whether the connection stays open for another request; a
    /// connection still silent at its deadline counts as a deadline drop.
    fn service(&self, conn: &mut Conn<'_>) -> bool {
        // The deadline is checked *after* the read-and-answer pass, never
        // before it: a connection that queued behind a dispatch burst may be
        // past its deadline by the time a worker pops it, but if a complete
        // request is sitting in its socket the client did everything right —
        // answering it resets the deadline. Only silence is dropped.
        let budget = conn
            .deadline
            .saturating_duration_since(Instant::now())
            .min(self.io_timeout);
        let _ = conn
            .stream
            .set_read_timeout(Some(budget.max(Duration::from_millis(1))));
        let mut chunk = [0u8; 16384];
        match conn.stream.read(&mut chunk) {
            // EOF with nothing (or only a partial request) buffered: clean
            // close, nothing to answer.
            Ok(0) => return false,
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
            Err(_) => return false,
        }
        // Answer every complete request already buffered (pipelining).
        while let Some((response, consumed, close)) = self.state.answer(&conn.buf) {
            conn.buf.drain(..consumed);
            if response.write_to(&mut conn.stream, close).is_err() || close {
                return false;
            }
            conn.deadline = Instant::now() + self.request_deadline;
        }
        if Instant::now() >= conn.deadline {
            self.state
                .counters
                .deadline_drops
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
