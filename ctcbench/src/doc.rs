//! # The benchmark: workloads, metrics, traces
//!
//! ## Running it
//!
//! From the repository root (the benchmark builds the repository's crates
//! by path, with the repository's release profile):
//!
//! ```text
//! cargo run --release --manifest-path ctcbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 20 --trace 0
//! cargo test --release --manifest-path ctcbench/Cargo.toml
//! ```
//!
//! `--workload all` runs the four workloads in turn, one result line each.
//! Every run prints `# <workload> <name> <value> <unit>` report lines and
//! ends with one JSON line: `correct` (every check passed), `attempted`
//! and `failed` (requests or engine calls; a non-200 status, a shed or a
//! transport error is a failure, so `failed / attempted` is the error
//! ratio) and `metrics`. The process exits 1 when a check fails and 2 on a
//! bad command line. Snapshots and traces go under `.bench_build/ctcbench/`.
//!
//! `--seconds` is how long the timed searches run: a slower program does
//! less in the same time rather than taking longer. The seed fixes every
//! sequence a phase draws from, and a time-bounded phase sends a prefix of
//! its sequence. At `--seconds 20` a run takes 23–28 s on two cores
//! (`engine-direct` 31–36 s): the rest is building the fixture, the set-up
//! starts, `serve-hot`'s warm-up, the update batches and the checks
//! (`engine-direct` validates every answer).
//!
//! ## Set-up and load shape
//!
//! The graphs are the full `facebook` (4K vertices, 87K edges) and `dblp`
//! (32K, 128K) presets. Each run builds their indexes, writes their
//! `.ctci` snapshots and serves them in-process as the path-backed tenants
//! `fb` and `dblp` (`AppState::add_tenant_path`, as `ctc-cli serve
//! --tenant` does). The server pool is `Parallelism::threads(2)` with the
//! default 1024-entry answer cache per tenant. The load comes from one
//! generator thread in the same process, on two keep-alive connections
//! multiplexed with `ctc_server::evented::poll_fds`: never more threads or
//! connections than the machine's two cores.
//!
//! `--seed` fixes everything sent: the query pool and streams
//! (`QueryGenerator`, |Q| = 3, top-80% degree rank, inter-distance 2), the
//! Zipf (s = 1.0) and tenant draws, the Poisson arrival offsets and the
//! update edges. The algorithm mix of the serving workloads is 60% LCTC
//! (sent by omission, the server default), 25% BulkDelete, 15% Truss,
//! stratified so every 20 consecutive queries hold exactly that mix.
//!
//! A query costs microseconds or tens of milliseconds depending on the
//! size of the largest-k truss that holds it, and drawn freely the share
//! of costly queries moves from seed to seed by several points. So every
//! stream draws query classes (the decade of that truss's edge count,
//! computed from trussness alone) in one fixed order whose shares match
//! the generator's, and the seed picks the queries within each class; see
//! `strata.rs`.
//!
//! A serving run, in order:
//!
//! * **Set-up**: 9 fresh server starts; the last one serves the run.
//! * **Warm-up** (`serve-hot`, `serve-mixed`): each pool entry once.
//! * **Open loop** (the rate × 75% of `--seconds` searches): seeded
//!   Poisson arrivals at the workload's fixed rate. A request due while
//!   both connections are busy waits in the generator's FIFO and is timed
//!   from its due time, so a stall is charged to the requests behind it.
//!   The search latencies come from here. The count, not a deadline, ends
//!   the loop, so the answers the server caches do not depend on its
//!   speed.
//! * **Closed loop** (25% of `--seconds`): both connections back to back;
//!   `capacity_rps` comes from here.
//! * **Updates** (`serve-hot`, `serve-cold`): 120 batches back to back on
//!   one connection, to the searched tenants, with the caches the searches
//!   left. `serve-mixed` writes beside its searches instead (below).
//! * **Restore**: batches that put every deleted edge back (untimed).
//! * **Reference queries**: the fixed set `query_dist_mean` comes from.
//!
//! An update batch deletes two seeded edges of one trussness class and
//! restores the two the tenant's previous batch deleted. Each edge has
//! trussness ≥ 4, so no deletion disconnects a query. Three `fb` batches go
//! for each `dblp` one: a dblp batch republishes the larger graph and
//! takes about twice as long, and one to one would put the median between
//! the two kinds, where it jumps from one to the other from run to run.
//!
//! Only `serve-mixed` writes beside its searches. The other workloads
//! write too because every metric is reported on every workload and a
//! latency that reads 0 on every run is not a measurement; their batches
//! go after the timed searches, so they take nothing from them.
//!
//! ## Workloads
//!
//! | name | what it runs | why |
//! |---|---|---|
//! | `serve-hot` | 128 (query, algo) entries per tenant, Zipf draws over them, each entry sent once first; open loop at 1000 req/s | The pool fits the answer cache, so every search hits: `http`, `wire`, `cache` and the event-loop/worker transport do the work and the engine none. |
//! | `serve-cold` | Never-repeating queries in the same mix; open loop at 30 req/s | Every search misses: locate/peel/finish and `encode_community` dominate and the cache only inserts. The opposite split to `serve-hot`. |
//! | `serve-mixed` | The `serve-hot` pool at 30 req/s, with one `/update` batch after every 4 searches in both loops, due halfway to the next search | Writes beside reads: `DynamicIndex` repair, the O(n+m) republish and class-keyed invalidation (which always drops LCTC answers), so hits fall to about 0.06 and the pool's questions are answered again and again on a graph that keeps changing. A gain for searches that costs updates, or the reverse, shows here. |
//! | `engine-direct` | No socket: one thread calls `CommunityEngine::search` back to back over unique queries, cycling Basic/BD/LCTC/Truss on fb and BD/LCTC/Truss on dblp; then 120 batches through `CommunityEngine::apply_batch` plus the `frozen_clone` a serving writer publishes | The paper's library setting: transport and cache are bypassed, so engine gains show with the least noise. Basic on dblp is left out: uncapped it took 1.0–2.2 s per query, the paper's "Inf" case. |
//!
//! A Zipf rank of the hot pool stands for a kind of question (its
//! algorithm and class), and each draw of a rank picks one of the pool's
//! entries of that kind at random: the few ranks at the head take most
//! draws, and if each were one query, the answer sizes of a handful of
//! seeded queries would set a run's latencies. The tenants take turns,
//! and the ranks come in their exact Zipf shares, shuffled by the seed in
//! blocks of 64.
//!
//! The open-loop rates are fixed. `serve-hot` at 1000 req/s and
//! `serve-cold` at 30 req/s are about a tenth and a third of the
//! closed-loop capacity on two cores (9 000–13 000 and 65–100 req/s): at
//! half of capacity, queueing in front of two connections turned the
//! machine's own speed swings into much wider latency swings.
//!
//! ## End-to-end metrics
//!
//! Measured with tracing off. Every metric is reported on every workload.
//!
//! | name | unit | better | bound | what |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 0.25 | Median of 9 fresh starts: serving, from `AppState` creation and bind until each tenant has answered a first search in its cheapest class (the lazy snapshot load included); `engine-direct`, `CommunityEngine::build` of both graphs. |
//! | `query_dist_mean` | hops | lower | 0.001 | Mean query distance of the answers to 64 reference queries (32 per tenant, in the workload's algorithm mix), read from the response bodies (`engine-direct`: from the `Community`). |
//! | `peak_rss_mb` | MiB | lower | 0.10 | `VmHWM` of the process (one process per workload) after the open loop, whose request count the seed fixes: the fixture, the served engines and what the answer caches hold. `engine-direct` reads it after its searches. |
//!
//! `query_dist_mean` puts answer quality next to answer time, so a faster
//! but looser community counts as a regression. The reference queries come
//! from a fixed seed, not from `--seed`, and are asked after every deleted
//! edge is back, so the number is the same on every run of the same code
//! and moves only when an answer does. Its bound is 0 in effect: one hop
//! more on one of the 64 answers moves the mean by 0.3% or more, three
//! times the bound, and a bound above 0 holds whether "within" is read as
//! `<` or `≤`.
//!
//! `setup_s` has the largest bound: the machine's speed moves it, by a
//! fifth between two sets of runs ten minutes apart on `engine-direct`
//! (see Spread).
//!
//! The error ratio is `failed / attempted` of the result line; it is 0 on
//! every workload, and a metric that is always 0 is not reported. A run
//! whose checks fail reports `correct: false` and exits 1.
//!
//! ### Why the latencies are per-layer metrics
//!
//! A metric whose run-to-run spread exceeds its bound is not an end-to-end
//! metric: it cannot tell a regression from noise. Every client time
//! spreads by more than 10% on at least one workload (see Spread), and not
//! because of the seed: the same seed, so byte-identical inputs, run
//! six times in a row spread as below, with the hypervisor's steal under 1%
//! throughout. The machine's neighbours set it: `engine-direct` is one
//! thread over the same queries in the same order.
//!
//! | same seed, 6 runs | `search_p50_us` | `search_p95_us` | `capacity_rps` | `update_p50_us` | `update_p90_us` |
//! |---|---|---|---|---|---|
//! | `serve-cold` | 0.16 | 0.11 | 0.17 | 0.24 | 0.25 |
//! | `engine-direct` | 0.19 | 0.18 | 0.12 | 0.20 | 0.19 |
//!
//! So `search_p50_us`, `search_p95_us`, `capacity_rps`, `update_p50_us`
//! and `update_p90_us` are per-layer metrics: `--trace 1` prints them from
//! its measured run, which is the untraced run, and `--trace 0` lists them
//! among its report lines. On a quieter machine, where they repeat within
//! 10%, they can go back to the end-to-end list with that bound.
//!
//! The percentiles: `search_p95_us` rather than p99, because
//! `serve-cold` times about 450 searches a run and the p95 keeps 22 beyond
//! it; `update_p90_us` keeps 11 beyond it on `serve-mixed`'s 112 batches.
//! `update_*` on `serve-mixed` are the batches of its open loop, beside the
//! searches, elsewhere the update phase's.
//!
//! ## Per-layer metrics
//!
//! `--trace 1` runs the workload exactly as `--trace 0` does, then
//! replays the request sequence it sent in-process: once through the
//! public layer functions with a span around each call, and once through
//! `AppState::respond` on a fresh `AppState`. The replay keeps its own
//! `LruCache` of the server's capacity, keyed on `SearchRequest::key()`,
//! and its own `DynamicIndex` per tenant, and it requires every response it
//! assembles to be byte-identical to the one `AppState::respond` returns,
//! so the stages it times are the stages the server runs. Times are self
//! times (span minus the spans it caused), p50 over the run. The measured
//! run itself records nothing, so tracing adds nothing to the client's
//! numbers.
//!
//! | per-layer metric | from | moves | on |
//! |---|---|---|---|
//! | `search_p50_us`, `search_p95_us` | open-loop search latency from the due time (`engine-direct`: per call) | what users wait | all |
//! | `capacity_rps` | searches per second in the closed loop (`serve-mixed`: with its writes) | what the server sustains | all |
//! | `update_p50_us`, `update_p90_us` | latency of a four-op batch (`engine-direct`: `apply_batch` plus `frozen_clone`) | what writers wait | all; `serve-mixed` beside searches |
//! | `engine.{bd,lctc}.{locate,peel,finish,total}_p50_us`, `engine.truss.{locate,finish,total}_p50_us` | `PhaseTimings` of each search the replay runs | `search_p50_us`, `capacity_rps` | `serve-cold`, `engine-direct` |
//! | `engine.{bd,lctc,truss}.g0_edges_mean`, `engine.{bd,lctc}.iterations_mean` | `Community::g0_size`, `iterations` (exact counts) | `search_p50_us` | `engine-direct` |
//! | `http.parse_p50_us`, `wire.decode_p50_us`, `engine.resolve_p50_us`, `cache.lookup_p50_us`, `http.encode_p50_us` | `parse_request`, `decode_search_request`, `resolve_labels`, `LruCache::get`, `Response::encode` | `search_p50_us`, `capacity_rps` | `serve-hot` |
//! | `wire.encode_p50_us`, `cache.insert_p50_us`, `wire.body_bytes_mean` | `encode_community`, `LruCache::insert`, body length | `search_p50_us` | `serve-cold` (a hit skips both) |
//! | `cache.hit_ratio` | lookups that hit where latency is timed | `search_p50_us`, `search_p95_us` | `serve-hot` (1), `serve-mixed` (about 0.06), `serve-cold` and `engine-direct` (0) |
//! | `server.respond_p50_us`, `server.respond_p95_us` | `AppState::respond` on the same bytes | every search metric; `search_p50_us` minus `server.respond_p50_us` is the transport's share | all |
//! | `wire.decode_update_p50_us`, `dynamic.repair_p50_us` (per op), `dynamic.materialize_p50_us`, `engine.frozen_clone_p50_us` | `decode_update_request`, `DynamicIndex::{insert,delete}_edge`, `DynamicIndex::materialize`, `frozen_clone` | `update_p50_us`, `update_p90_us` | all |
//! | `cache.retain_p50_us`, `cache.invalidated_mean` | `LruCache::retain` with the server's predicate (LCTC, or k ≤ the batch's class) | `update_p50_us`; `search_p50_us` through misses | `serve-mixed` |
//! | `snapshot.load_ms.<t>`, `index.build_ms.<t>`, `engine.memory_bytes.<t>` | `CommunityEngine::{load,build,memory_bytes}` while preparing | `setup_s`, `peak_rss_mb` | all |
//! | `trace.unattributed_p50_us` | `AppState::respond` minus the sum of the stage spans, per request | check: the tests require it to stay within 15% of `server.respond_p50_us` | all |
//!
//! The report lines of a traced run also list every span's p50 (Basic's
//! phases on `engine-direct`, `dynamic.adopt`, ...). Every run's report
//! lines include the load generator's own clock: `loadgen.late_p99_us`
//! (how late the generator noticed a due request),
//! `loadgen.conn_wait_p99_us` (how long a noticed request waited for a free
//! connection), `loadgen.backlog_max`, the open-loop hit ratio, sample
//! counts and `host.steal_ratio` (CPU time the hypervisor took).
//!
//! ## Reading a trace
//!
//! `.bench_build/ctcbench/trace-<workload>-<seed>.jsonl` holds one JSON
//! object per line. Replay spans come first:
//! `{"span":i,"name":..,"req":r,"parent":p|null,"start_us":..,"end_us":..}`,
//! where `req` is the request's position in the run's send order and
//! `parent` the index of the enclosing span (`request` for the stages,
//! `engine.<algo>` for its phases; `server.respond` is a root of its own).
//! Then the client spans of the measured run:
//! `{"client":r,"tenant":..,"kind":..,"phase":..,"due_us":..,"sent_us":..,"recv_us":..,"status":..,"x_cache":..,"bytes":..}`.
//! To see why request `r` was slow, compare its client span (due → sent
//! is queueing in the generator, sent → received the server) with the
//! replay spans of the same `req`.
//!
//! ## Checks
//!
//! * `serve-hot`, `serve-cold`: 128 distinct answers, sampled by a seeded
//!   hash of their key, must be byte-identical to `encode_community` of a
//!   direct search on a cold engine of the same graph. A sampled answer
//!   keeps only its length and a 64-bit hash of its bytes until the check
//!   compares them with the direct search's, so the sample adds nothing to
//!   `peak_rss_mb`.
//! * Every workload: every update op must report applied, and after the
//!   restoring batches the 64 reference queries must answer
//!   byte-identically to a cold engine.
//! * `engine-direct`: every answer, timed or reference, must pass
//!   `Community::validate`.
//!
//! ## Spread
//!
//! Measured as the bounds are checked: each workload run on seeds 1–10
//! (set A), then on seeds 101–110 (set B), `--seconds 20`, on a two-core
//! KVM guest (Intel Xeon, sharing its host with other guests; steal under
//! 2.5% in every run). A cell is the interquartile range of the ten
//! values over their median, as `statistics.quantiles(v, n=4)` gives the
//! quartiles; `drift` is how much worse set B's median is than set A's.
//!
//! | workload | `setup_s` A / B | `query_dist_mean` | `peak_rss_mb` A / B | drift `setup_s` / `peak_rss_mb` |
//! |---|---|---|---|---|
//! | `serve-hot` | 0.047 / 0.075 | 0 / 0 | 0.029 / 0.010 | +0.032 / +0.002 |
//! | `serve-cold` | 0.189 / 0.086 | 0 / 0 | 0.029 / 0.023 | −0.026 / −0.014 |
//! | `serve-mixed` | 0.140 / 0.094 | 0 / 0 | 0.031 / 0.040 | +0.001 / −0.011 |
//! | `engine-direct` | 0.204 / 0.159 | 0 / 0 | 0.017 / 0.009 | −0.193 / +0.010 |
//!
//! Medians: `setup_s` 20–21 ms serving, 109–135 ms `engine-direct`;
//! `query_dist_mean` 4.14 serving, 5.23 `engine-direct`; `peak_rss_mb`
//! 185, 238, 209 and 66 MiB. `peak_rss_mb` stays under a third of its
//! bound except on `serve-mixed`, where which answers and engine versions
//! are alive when a republish lands depends on timing. Two choices keep it
//! that low: the checked sample holds digests rather than bodies (held
//! bodies made `serve-hot` spread 0.061), and `engine-direct` validates its
//! answers in 128 slices rather than 32 (0.038).
//!
//! The per-layer client times on the same runs, A / B:
//!
//! | workload | `search_p50_us` | `search_p95_us` | `capacity_rps` | `update_p50_us` | `update_p90_us` |
//! |---|---|---|---|---|---|
//! | `serve-hot` | 0.13 / 0.08 | 0.10 / 0.21 | 0.16 / 0.11 | 0.16 / 0.07 | 0.11 / 0.12 |
//! | `serve-cold` | 0.21 / 0.11 | 0.16 / 0.07 | 0.14 / 0.10 | 0.16 / 0.23 | 0.11 / 0.16 |
//! | `serve-mixed` | 0.06 / 0.06 | 0.09 / 0.09 | 0.11 / 0.13 | 0.19 / 0.27 | 0.40 / 0.21 |
//! | `engine-direct` | 0.17 / 0.19 | 0.12 / 0.14 | 0.13 / 0.14 | 0.14 / 0.31 | 0.13 / 0.30 |
//!
//! Medians: `search_p50_us` 121 µs, 20 ms, 17.5 ms and 16.5 ms;
//! `capacity_rps` 10 600, 83, 89 and 32 req/s.
//!
//! ## Out of scope
//!
//! * A `crates/bench/src/benchmark/` module: the benchmark lives in a
//!   directory of its own and builds against the repository's crates
//!   without changing them, so `crates/bench`'s `serveload` and `load_gen`
//!   keep their own client (which still panics on a non-200), and `cargo
//!   test --workspace` does not run this package's tests.
//! * Folding the older `BENCH_5`–`BENCH_8` recorders into this benchmark
//!   and deleting their checkers.
//! * Latency histograms in `/stats`; the benchmark reads nothing from
//!   `/stats`.
//! * WAL fsync cost: no tenant has a write-ahead log.
//! * Concurrency above the two cores.
//! * Basic on dblp.
