//! # ctc-server — a std-only concurrent query server over [`CommunityEngine`]
//!
//! The deployment mode the paper motivates for its query-time algorithms:
//! pay the offline truss-index build once (a `.ctci` snapshot), then
//! answer closest-truss-community queries online, over a wire. The build
//! environment is offline with vendored crates only, so the whole wire
//! stack is hand-rolled on `std`:
//!
//! * [`http`] — a bounded, incremental HTTP/1.1 request parser and a
//!   deterministic response encoder (no panics on arbitrary bytes, hard
//!   caps on head/headers/target/body);
//! * [`json`] — a minimal JSON codec with `u64`-exact labels, full string
//!   escaping and a nesting-depth cap;
//! * [`cache`] — a deterministic LRU over normalized query keys, so hot
//!   queries skip the search path entirely;
//! * [`wire`] — the `/search` and `/update` request/response schemas and
//!   the [`wire::QueryKey`] a request normalizes to;
//! * [`evented`] — a libc-free `poll(2)` readiness shim (unix): the
//!   event loop multiplexes thousands of idle keep-alive connections
//!   over one descriptor set and a loopback wake channel;
//! * [`registry`] — the multi-tenant snapshot registry: many named
//!   engines behind one listener, loaded lazily from `.ctci` paths and
//!   evicted cost-aware (bytes-weighted LRU, never pinned or dirty), each
//!   with an answer cache whose answers share the member lists of one
//!   community;
//! * [`server`] — the request handler, with no socket: routing, the
//!   tenant handlers behind per-tenant admission (quarantine → `503`,
//!   in-flight cap → `429`), the stats bodies, and the one panic
//!   boundary, which answers a panicking request `500`. Online edge
//!   updates (`POST /update`) maintain the truss index in place on a
//!   writer-serialized primary engine and republish frozen clones to
//!   readers, with class-keyed answer-cache invalidation;
//! * [`transport`] — the daemon around the handler: readiness loop +
//!   fixed worker pool built on the [`ctc_graph::Parallelism`]
//!   fork-join substrate, bounded connection admission (accept cap,
//!   dispatch queue — overload sheds well-formed `503`s instead of
//!   queueing unboundedly), per-request deadlines, and graceful
//!   drain-then-exit shutdown.
//!
//! Endpoints: `POST /search`, `POST /update`, `GET /healthz`,
//! `GET /stats`, `POST /shutdown` — plus the tenant-scoped forms
//! `/t/<name>/search|update|stats` (the bare paths alias tenant
//! `"default"`) — specified in `docs/SERVING.md`.
//!
//! The full request path is also callable without any socket, which is
//! how the fuzz battery and the latency bench drive it:
//!
//! ```
//! use ctc_core::CommunityEngine;
//! use ctc_server::{AppState, ServeConfig};
//! use ctc_truss::fixtures::figure1_graph;
//!
//! let state = AppState::new(
//!     CommunityEngine::build(figure1_graph()),
//!     &ServeConfig::default(),
//! );
//! let response = state
//!     .respond(b"GET /healthz HTTP/1.1\r\n\r\n")
//!     .expect("complete request");
//! assert!(response.starts_with(b"HTTP/1.1 200 OK"));
//! ```

#![warn(missing_docs)]

pub mod cache;
#[cfg(unix)]
pub mod evented;
pub mod http;
pub mod json;
pub mod registry;
pub mod server;
pub mod transport;
pub mod wire;

pub use cache::LruCache;
pub use json::Json;
pub use registry::{
    HealthPolicy, HealthSnapshot, HealthStatus, Registry, TenantCounters, TenantError,
    TenantHealth, TenantState, TenantSummary,
};
pub use server::{AppState, CountersSnapshot, ServeConfig, ServerCountersSnapshot, DEFAULT_TENANT};
pub use transport::{CtcServer, ServeReport, ServerHandle};
pub use wire::{
    decode_search_request, decode_update_request, encode_community, encode_community_parts,
    encode_error, encode_update_response, QueryKey, SearchRequest, UpdateOutcome, UpdateRequest,
    WireUpdate,
};

// Re-exported so downstreams of the server crate name the engine types
// without an extra dependency edge.
pub use ctc_core::CommunityEngine;
