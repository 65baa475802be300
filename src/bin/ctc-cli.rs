//! Command-line front end for closest truss community search.
//!
//! ```text
//! ctc-cli stats <edge-list>
//! ctc-cli decompose <edge-list> [--threads N]
//! ctc-cli index build <edge-list> -o graph.ctci
//! ctc-cli index info graph.ctci
//! ctc-cli index update graph.ctci [--insert U,V]... [--delete U,V]...
//!                                 [--log graph.ctcd] [--compact]
//! ctc-cli index recover graph.ctci [--log graph.ctcd]
//! ctc-cli search <edge-list> --query 3,17,42 [--algo basic|bd|lctc|truss]
//!                            [--gamma 3] [--eta 1000] [--k K] [--timings]
//! ctc-cli search --index graph.ctci --query 3,17,42 [...same flags]
//! ctc-cli serve graph.ctci [--addr 127.0.0.1:7341] [--threads N]
//!                          [--cache-cap C] [--log graph.ctcd]
//! ctc-cli generate <preset> <out-path>    # facebook|amazon|dblp|youtube|...
//!                                         # mini-facebook|mini-dblp
//! ```
//!
//! Edge lists are SNAP format: `u v` per line, `#` comments. Vertex labels
//! in `--query` refer to the file's original labels (preserved inside
//! `.ctci` snapshots, so `search --index` answers label-addressed queries
//! identically to a cold `search`). Every index build runs the serial
//! truss decomposition, and a search runs on one thread. `--threads N`
//! (`0` = all cores, default `1`, at most 1024) means one thing per
//! command that takes it: `decompose` cross-checks the serial kernel with
//! the PKT frontier peel on `N` threads (same histogram), and `serve`
//! sizes the worker pool. A flag its command does not take (a stale
//! `--threads` on `stats` or `search`, a misspelling) exits 2 with the
//! usage text.
//!
//! `index build` pays the offline `O(ρ·m)` construction once and writes a
//! checksummed snapshot; `search --index` then skips straight to the
//! online query phase. `index update` applies edge insertions/deletions
//! to an existing snapshot with *local* truss maintenance — no `O(ρ·m)`
//! rebuild. With `--log` the updates append to a `.ctcd` write-ahead
//! delta log and the snapshot stays untouched until `--compact` folds the
//! log back in; without `--log` the snapshot is rewritten in place
//! (temp-file + rename). `serve` keeps the warm engine resident: a
//! std-only HTTP daemon (`POST /search`, `POST /update`, `GET /healthz`,
//! `GET /stats`, `POST /shutdown` — see `docs/SERVING.md`) with a fixed
//! worker pool and a class-invalidated LRU answer cache; `serve --log`
//! runs crash recovery over the snapshot + delta-log pair before binding
//! (repairing a torn log tail, quarantining corruption) and journals
//! applied `/update` batches back into the log, so a killed server
//! restarts with its acknowledged updates intact. `index recover` runs
//! the same protocol standalone with typed exit codes (see
//! `docs/RELIABILITY.md`).

use ctc::prelude::*;
use ctc_graph::io::{load_edge_list_path, save_edge_list_path};
use ctc_truss::snapshot_version;
use std::process::ExitCode;

/// The usage text, printed with exit code 2 for a missing or unknown
/// command and for a flag its command does not take.
const USAGE: &str = "\
usage: ctc-cli <stats|decompose|index|search|serve|generate> ...

  stats <edge-list>                     graph summary + truss levels
  decompose <edge-list> [--threads N]   trussness histogram
  index build <edge-list> -o g.ctci     build + persist the truss index
  index info g.ctci                     inspect a snapshot
  index update g.ctci                   apply edge updates with local
      [--insert U,V]... [--delete U,V]...   truss maintenance
      [--log g.ctcd] [--compact]        (see docs/INDEX_FORMAT.md)
  index recover g.ctci [--log g.ctcd]   crash recovery: repair a torn
      log tail or quarantine corruption (exit 0 clean,
      3 repaired, 4 quarantined, 1 fatal; docs/RELIABILITY.md)
  search <edge-list> --query a,b,c      find the closest truss community
      [--algo basic|bd|lctc|truss] [--gamma G] [--eta N] [--k K]
      [--timings]                       (--timings: per-phase breakdown)
  search --index g.ctci --query a,b,c   same, warm-started from a snapshot
  serve g.ctci [--addr HOST:PORT]       HTTP query server over the snapshot
      [--threads N] [--cache-cap C]     (POST /search, GET /healthz|/stats)
      [--tenant NAME=PATH]...           extra engines at /t/NAME/...
      [--max-conns N] [--queue-cap N]   admission bounds (503 on overflow)
      [--tenant-cap N] [--mem-budget BYTES]  429 cap / eviction budget
      [--log g.ctcd]                    recover, then journal /update batches
  generate <preset> <out>               write a synthetic network
      presets: facebook amazon dblp youtube livejournal orkut
               mini-facebook mini-dblp (small, for smoke tests)

--threads N (0 = all cores, 1 = serial; default 1; at most 1024):
  decompose  cross-check with the PKT frontier peel
  serve      worker pool size (a search runs on one worker's thread)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(&args) {
        let words = if args[0] == "index" { 2 } else { 1 };
        eprintln!(
            "error: {} does not take {flag}\n\n{USAGE}",
            args[..words].join(" ")
        );
        return ExitCode::from(2);
    }
    // Commands return their exit code so `index recover` can report the
    // recovery outcome through typed codes (0 clean, 3 repaired, 4
    // quarantined) instead of flattening everything to success/failure.
    let result: Result<ExitCode, String> = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("decompose") => cmd_decompose(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("index") => cmd_index(&args[1..]),
        Some("search") => cmd_search(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("serve") => cmd_serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("generate") => cmd_generate(&args[1..]).map(|()| ExitCode::SUCCESS),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The flags a command takes: those followed by a value, then the
/// switches. `None` for a command line that names no known command.
fn flags_of(args: &[String]) -> Option<(&'static [&'static str], &'static [&'static str])> {
    let command = args.first()?.as_str();
    Some(match (command, args.get(1).map(String::as_str)) {
        ("stats" | "generate", _) | ("index", Some("info")) => (&[], &[]),
        ("decompose", _) => (&["--threads"], &[]),
        ("index", Some("build")) => (&["-o", "--out"], &[]),
        ("index", Some("update")) => (&["--insert", "--delete", "--log"], &["--compact"]),
        ("index", Some("recover")) => (&["--log"], &[]),
        ("search", _) => (
            &["--query", "--index", "--algo", "--gamma", "--eta", "--k"],
            &["--timings"],
        ),
        ("serve", _) => (
            &[
                "--addr",
                "--threads",
                "--cache-cap",
                "--log",
                "--tenant",
                "--max-conns",
                "--queue-cap",
                "--tenant-cap",
                "--mem-budget",
            ],
            &[],
        ),
        _ => return None,
    })
}

/// The first argument that looks like a flag (`-…`) but is not one its
/// command takes. A value flag's value is skipped, so `--gamma -5` reaches
/// the command, which rejects it with a message that names the flag.
fn unknown_flag(args: &[String]) -> Option<&str> {
    let (valued, switches) = flags_of(args)?;
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with('-') && !switches.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn load(args: &[String]) -> Result<(ctc_graph::CsrGraph, Vec<u64>), String> {
    let path = args.first().ok_or("missing edge-list path")?;
    load_edge_list_path(path).map_err(|e| format!("loading {path}: {e}"))
}

/// Parses flag `name` as a `T` that satisfies `ok`, failing with "`name`
/// must be `rule`" otherwise; `None` when the flag is absent.
fn flag_checked<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    ok: fn(&T) -> bool,
    rule: &str,
) -> Result<Option<T>, String> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(raw) => match raw.parse() {
            Ok(v) if ok(&v) => Ok(Some(v)),
            _ => Err(format!("{name} must be {rule}")),
        },
    }
}

/// The largest `--threads` count: `serve` starts one thread per count.
const MAX_THREADS: usize = 1024;

/// Parses `--threads N` (0 = all cores; absent = serial).
fn flag_threads(args: &[String]) -> Result<Parallelism, String> {
    let rule = format!("an integer from 0 (all cores) to {MAX_THREADS}");
    let n = flag_checked(args, "--threads", |&n: &usize| n <= MAX_THREADS, &rule)?;
    Ok(n.map_or(Parallelism::serial(), Parallelism::threads))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (g, _) = load(args)?;
    let s = ctc_graph::graph_stats(&g);
    let max_truss = ctc::truss::truss_decomposition(&g).max_truss;
    let mut t = Table::new(["metric", "value"]);
    t.row(["vertices".to_string(), s.num_vertices.to_string()]);
    t.row(["edges".to_string(), s.num_edges.to_string()]);
    t.row(["max degree".to_string(), s.max_degree.to_string()]);
    t.row(["avg degree".to_string(), format!("{:.2}", s.avg_degree)]);
    t.row(["triangles".to_string(), s.triangles.to_string()]);
    t.row([
        "avg clustering".to_string(),
        format!("{:.4}", s.avg_clustering),
    ]);
    t.row(["max trussness τ̄(∅)".to_string(), max_truss.to_string()]);
    println!("{}", t.render());
    Ok(())
}

/// `decompose`: the trussness histogram. With `--threads N > 1` it comes
/// from the PKT frontier peel, which shares no triangle code with the
/// serial kernel, so equal output is a cross-check.
fn cmd_decompose(args: &[String]) -> Result<(), String> {
    let par = flag_threads(args)?;
    let (g, _) = load(args)?;
    let d = ctc::truss::truss_decomposition_par(&g, par);
    let mut hist: std::collections::BTreeMap<u32, usize> = Default::default();
    for &t in &d.edge_truss {
        *hist.entry(t).or_default() += 1;
    }
    let mut t = Table::new(["trussness", "edges"]);
    for (k, count) in hist {
        t.row([k.to_string(), count.to_string()]);
    }
    println!("{}", t.render());
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_index_build(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("info") => cmd_index_info(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("update") => cmd_index_update(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("recover") => cmd_index_recover(&args[1..]),
        _ => Err("usage: index <build|info|update|recover> ...".into()),
    }
}

/// `index recover`: runs the startup recovery protocol over a snapshot
/// and (optionally) its delta log, reporting what was repaired. Exit
/// codes type the outcome for scripts:
///
/// * `0` — clean: nothing needed repair;
/// * `3` — recovered: a torn log tail was truncated and resealed (the
///   legal prefix survives);
/// * `4` — quarantined: the log was archived (`.corrupt` / `.stale`) and
///   the snapshot alone carries the state;
/// * `1` — fatal: the snapshot itself is unreadable or corrupt.
fn cmd_index_recover(args: &[String]) -> Result<ExitCode, String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: index recover <g.ctci> [--log g.ctcd]")?;
    let log_path = flag_value(args, "--log").map(std::path::Path::new);
    let (snap, _, report) = ctc::truss::recover(path, log_path).map_err(|e| {
        format!("recovering {path}: {e} (snapshot unusable — restore from backup or rebuild)")
    })?;
    for line in report.describe() {
        println!("{line}");
    }
    println!(
        "recovered: {} vertices, {} edges, max trussness {}, {} replayed updates",
        snap.graph.num_vertices(),
        snap.graph.num_edges(),
        snap.index.max_truss(),
        report.replayed,
    );
    Ok(if report.log.was_quarantined() {
        ExitCode::from(4)
    } else if report.log.was_repaired() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_index_build(args: &[String]) -> Result<(), String> {
    let (g, labels) = load(args)?;
    let out = flag_value(args, "-o")
        .or_else(|| flag_value(args, "--out"))
        .ok_or("missing -o <out.ctci>")?;
    let t0 = std::time::Instant::now();
    let snap = Snapshot::build(g)
        .with_labels(labels)
        .map_err(|e| e.to_string())?;
    let built = t0.elapsed();
    snap.save(out).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "indexed {} vertices, {} edges (max trussness {}) in {:.1}ms; wrote {} ({} bytes)",
        snap.graph.num_vertices(),
        snap.graph.num_edges(),
        snap.index.max_truss(),
        built.as_secs_f64() * 1e3,
        out,
        std::fs::metadata(out).map(|m| m.len()).unwrap_or(0),
    );
    Ok(())
}

fn cmd_index_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing snapshot path")?;
    let t0 = std::time::Instant::now();
    let bytes = std::fs::read(path).map_err(|e| format!("loading {path}: {e}"))?;
    let version = snapshot_version(&bytes).map_err(|e| format!("loading {path}: {e}"))?;
    let snap = Snapshot::from_bytes(&bytes).map_err(|e| format!("loading {path}: {e}"))?;
    let loaded = t0.elapsed();
    let mut t = Table::new(["field", "value"]);
    t.row([
        "format".to_string(),
        match version {
            1 => "1 (FNV-1a trailer)".to_string(),
            v => v.to_string(),
        },
    ]);
    t.row([
        "vertices".to_string(),
        snap.graph.num_vertices().to_string(),
    ]);
    t.row(["edges".to_string(), snap.graph.num_edges().to_string()]);
    t.row([
        "max trussness τ̄(∅)".to_string(),
        snap.index.max_truss().to_string(),
    ]);
    t.row([
        "label table".to_string(),
        if snap.labels.is_empty() {
            "identity (dense ids)".to_string()
        } else {
            format!("{} labels", snap.labels.len())
        },
    ]);
    t.row([
        "load time".to_string(),
        format!("{:.1}ms", loaded.as_secs_f64() * 1e3),
    ]);
    println!("{}", t.render());
    Ok(())
}

/// Parses one `--insert U,V` / `--delete U,V` value into a label pair.
fn parse_edge_pair(raw: &str) -> Result<(u64, u64), String> {
    let (u, v) = raw
        .split_once(',')
        .ok_or(format!("bad edge {raw:?} (want U,V)"))?;
    let parse = |s: &str| {
        s.trim()
            .parse::<u64>()
            .map_err(|_| format!("bad vertex label {s:?} in {raw:?}"))
    };
    Ok((parse(u)?, parse(v)?))
}

/// `index update`: edge insertions/deletions over a snapshot with local
/// truss maintenance (never an `O(ρ·m)` rebuild). Persistence modes:
///
/// * no `--log` — the maintained state is rewritten into the snapshot
///   (temp-file + rename, so a crash leaves old or new, never torn);
/// * `--log g.ctcd` — updates append to the write-ahead delta log (and
///   replay any records already in it first); the snapshot stays as-is;
/// * `--log g.ctcd --compact` — after applying, the replayed state is
///   folded into a fresh snapshot and the log resets to empty.
fn cmd_index_update(args: &[String]) -> Result<(), String> {
    use ctc::truss::{DeltaLogFile, DeltaOp, DeltaRecord, DynamicIndex};
    use ctc_graph::io::fnv1a64;

    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing snapshot path")?;
    // Collect updates in command-line order: interleaved --insert /
    // --delete flags apply exactly as written.
    let mut ops: Vec<(bool, u64, u64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--insert" | "--delete") => {
                let raw = args.get(i + 1).ok_or(format!("missing value for {flag}"))?;
                let (u, v) = parse_edge_pair(raw)?;
                ops.push((flag == "--insert", u, v));
                i += 2;
            }
            _ => i += 1,
        }
    }
    let log_path = flag_value(args, "--log");
    let compact = args.iter().any(|a| a == "--compact");
    if compact && log_path.is_none() {
        return Err(
            "--compact requires --log (without a log the snapshot is always rewritten)".into(),
        );
    }
    if ops.is_empty() && !compact {
        return Err(
            "nothing to do: pass --insert U,V / --delete U,V (and/or --log ... --compact)".into(),
        );
    }

    let bytes = std::fs::read(path).map_err(|e| format!("loading {path}: {e}"))?;
    let snap = Snapshot::from_bytes(&bytes).map_err(|e| format!("loading {path}: {e}"))?;
    let mut dynx = DynamicIndex::new(&snap.graph, &snap.index);
    let mut logfile = match log_path {
        Some(lp) => {
            let lf = DeltaLogFile::open_or_create(lp, fnv1a64(&bytes))
                .map_err(|e| format!("opening {lp}: {e}"))?;
            lf.log()
                .replay(&mut dynx)
                .map_err(|e| format!("replaying {lp}: {e}"))?;
            if !lf.log().is_empty() {
                println!("replayed {} logged updates from {lp}", lf.log().len());
            }
            Some(lf)
        }
        None => None,
    };

    let (mut applied, mut rejected, mut max_class) = (0usize, 0usize, 0u32);
    for &(insert, lu, lv) in &ops {
        let verb = if insert { "insert" } else { "delete" };
        let resolve = |label: u64| {
            snap.vertex_of_label(label)
                .ok_or(format!("label {label} not in graph"))
        };
        let outcome = resolve(lu)
            .and_then(|u| Ok((u, resolve(lv)?)))
            .and_then(|(u, v)| {
                let r = if insert {
                    dynx.insert_edge(u, v)
                } else {
                    dynx.delete_edge(u, v)
                }
                .map_err(|e| e.to_string())?;
                if let Some(lf) = &mut logfile {
                    let op = if insert {
                        DeltaOp::Insert
                    } else {
                        DeltaOp::Delete
                    };
                    lf.append(DeltaRecord::new(op, u.0, v.0))
                        .map_err(|e| format!("appending to {}: {e}", lf.path().display()))?;
                }
                Ok(r)
            });
        match outcome {
            Ok(r) => {
                applied += 1;
                max_class = max_class.max(r.max_class);
                println!(
                    "{verb} {lu},{lv}: trussness {}, {} other edges retrussed (class {})",
                    r.edge_truss, r.changed, r.max_class
                );
            }
            Err(e) => {
                rejected += 1;
                println!("{verb} {lu},{lv}: rejected ({e})");
            }
        }
    }

    match &mut logfile {
        Some(lf) if compact => {
            let (graph, index) = dynx.materialize().map_err(|e| e.to_string())?;
            let new_snap = Snapshot {
                graph,
                index,
                labels: snap.labels.clone(),
            };
            let base = lf
                .compact(path, &new_snap)
                .map_err(|e| format!("compacting into {path}: {e}"))?;
            println!(
                "compacted {} into {path} ({} vertices, {} edges, max trussness {}); \
                 log reset, bound to snapshot {base:016x}",
                lf.path().display(),
                new_snap.graph.num_vertices(),
                new_snap.graph.num_edges(),
                new_snap.index.max_truss(),
            );
        }
        Some(lf) => println!(
            "{} now holds {} updates over {path} (compact with: index update {path} --log {} --compact)",
            lf.path().display(),
            lf.log().len(),
            lf.path().display(),
        ),
        None => {
            if applied > 0 {
                let (graph, index) = dynx.materialize().map_err(|e| e.to_string())?;
                let new_snap = Snapshot {
                    graph,
                    index,
                    labels: snap.labels.clone(),
                };
                // Snapshot::save is durable end to end: temp file, fsync,
                // rename, directory fsync — a crash leaves old or new,
                // never torn, and the rename survives power loss.
                new_snap
                    .save(path)
                    .map_err(|e| format!("writing {path}: {e}"))?;
                println!(
                    "rewrote {path}: {} vertices, {} edges, max trussness {}",
                    new_snap.graph.num_vertices(),
                    new_snap.graph.num_edges(),
                    new_snap.index.max_truss(),
                );
            }
        }
    }
    println!("applied {applied}, rejected {rejected}, max touched class {max_class}");
    Ok(())
}

/// Loads the graph for `search`: warm from `--index <file.ctci>`, or cold
/// from a positional edge-list path (building the index in-process).
///
/// Query labels are validated against the label table *before* the
/// `O(ρ·m)` index build on the cold path, so a typo fails in milliseconds
/// rather than after a full decomposition of a large graph.
fn load_search_engine(args: &[String], query_labels: &[u64]) -> Result<CommunityEngine, String> {
    match flag_value(args, "--index") {
        Some(path) => {
            let snap = Snapshot::load(path).map_err(|e| format!("loading {path}: {e}"))?;
            Ok(CommunityEngine::from_snapshot(snap))
        }
        None => {
            let (g, labels) = load(args)?;
            for &label in query_labels {
                if ctc::truss::snapshot::vertex_of_label(&labels, g.num_vertices(), label).is_none()
                {
                    return Err(format!("label {label} not in graph"));
                }
            }
            let snap = Snapshot::build(g)
                .with_labels(labels)
                .map_err(|e| e.to_string())?;
            Ok(CommunityEngine::from_snapshot(snap))
        }
    }
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let query_raw = flag_value(args, "--query").ok_or("missing --query a,b,c")?;
    // Parse the query labels first: syntax errors never cost a graph load.
    let mut query_labels = Vec::new();
    for tok in query_raw.split(',') {
        let label: u64 = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad query label {tok:?}"))?;
        query_labels.push(label);
    }
    // The rules `/search` applies to the same knobs.
    let mut cfg = CtcConfig::default();
    let finite = |g: &f64| g.is_finite() && *g >= 0.0;
    if let Some(gamma) = flag_checked(args, "--gamma", finite, "finite and >= 0")? {
        cfg = cfg.gamma(gamma);
    }
    if let Some(eta) = flag_checked(args, "--eta", |&e: &usize| e >= 1, "an integer >= 1")? {
        cfg = cfg.eta(eta);
    }
    if let Some(k) = flag_checked(args, "--k", |&k: &u32| k >= 2, "an integer >= 2")? {
        cfg = cfg.fixed_k(k);
    }
    let algo: SearchAlgo = flag_value(args, "--algo").unwrap_or("lctc").parse()?;
    let engine = load_search_engine(args, &query_labels)?.with_config(cfg);
    // Map original labels to dense ids.
    let mut q = Vec::new();
    for &label in &query_labels {
        let dense = engine
            .vertex_of_label(label)
            .ok_or(format!("label {label} not in graph"))?;
        q.push(dense);
    }
    let c = engine.search(&q, algo).map_err(|e| e.to_string())?;
    println!(
        "community: k = {}, {} vertices, {} edges, diameter {}, density {:.3}, \
         query distance {}, found in {:.1}ms",
        c.k,
        c.num_vertices(),
        c.num_edges(),
        c.diameter(),
        c.density(),
        c.query_distance,
        c.timings.total.as_secs_f64() * 1e3
    );
    if args.iter().any(|a| a == "--timings") {
        println!(
            "timings: locate {:.3}ms, peel {:.3}ms, finish {:.3}ms, total {:.3}ms",
            c.timings.locate.as_secs_f64() * 1e3,
            c.timings.peel.as_secs_f64() * 1e3,
            c.timings.finish.as_secs_f64() * 1e3,
            c.timings.total.as_secs_f64() * 1e3,
        );
    }
    let members: Vec<String> = c
        .vertices
        .iter()
        .map(|&v| engine.label_of(v).to_string())
        .collect();
    println!("members: {}", members.join(" "));
    Ok(())
}

/// Starts the HTTP query server over a `.ctci` snapshot and blocks until
/// a `POST /shutdown` request (or process termination).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing snapshot path (build one with: index build <edge-list> -o g.ctci)")?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7341");
    let pool = flag_threads(args)?;
    let cache_cap = match flag_value(args, "--cache-cap") {
        None => 1024,
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad --cache-cap {raw:?}"))?,
    };
    // With --log, start through the recovery protocol: sweep strays,
    // truncate a torn log tail, quarantine interior corruption (serving
    // falls back to the snapshot), replay the surviving records, and
    // keep the log handle so applied /update batches journal through it.
    let (engine, logfile) = match flag_value(args, "--log") {
        Some(lp) => {
            let (engine, logfile, report) =
                CommunityEngine::recover(path, Some(std::path::Path::new(lp)))
                    .map_err(|e| format!("recovering {path}: {e}"))?;
            for line in report.describe() {
                println!("recovery: {line}");
            }
            if report.replayed > 0 {
                println!("replayed {} logged updates from {lp}", report.replayed);
            }
            (engine, logfile)
        }
        None => {
            let snap = Snapshot::load(path).map_err(|e| format!("loading {path}: {e}"))?;
            (CommunityEngine::from_snapshot(snap), None)
        }
    };
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("bad {name} {raw:?}")),
        }
    };
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        pool,
        cache_cap,
        max_conns: parse_usize("--max-conns", defaults.max_conns)?,
        queue_cap: parse_usize("--queue-cap", defaults.queue_cap)?,
        tenant_inflight: parse_usize("--tenant-cap", 0)? as u64,
        mem_budget: parse_usize("--mem-budget", 0)?,
        ..defaults
    };
    let stats = engine.stats();
    let state = std::sync::Arc::new(AppState::new(engine, &cfg));
    // Journal applied /update batches into the recovered log, so a crash
    // (kill -9 included) loses at most the in-flight record.
    if let Some(lf) = logfile {
        state.attach_default_wal(lf);
    }
    // Additional named tenants (`--tenant NAME=PATH`, repeatable): lazily
    // loaded snapshots served at /t/NAME/search|update|stats, evicted
    // LRU-by-bytes when --mem-budget is exceeded.
    let mut tenants = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg != "--tenant" {
            continue;
        }
        let spec = it.next().ok_or("--tenant needs NAME=PATH")?;
        let (name, tpath) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --tenant {spec:?}: want NAME=PATH"))?;
        state
            .add_tenant_path(name, std::path::PathBuf::from(tpath))
            .map_err(|e| format!("registering tenant {name:?}: {e}"))?;
        tenants += 1;
    }
    let server =
        CtcServer::bind_state(state, addr, &cfg).map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "ctc-serve listening on {} ({} vertices, {} edges, max trussness {}; \
         {} workers, cache capacity {}, {} named tenants)",
        server.local_addr(),
        stats.num_vertices,
        stats.num_edges,
        stats.max_truss,
        pool.get(),
        cache_cap,
        tenants,
    );
    let report = server.serve();
    println!(
        "ctc-serve drained: {} connections, {} requests ({} search ok, {} search err, \
         {} cache hits, {} rejects)",
        report.server.admitted,
        report.counters.total,
        report.counters.search_ok,
        report.counters.search_err,
        report.counters.cache_hits,
        report.counters.http_rejects,
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let preset = args.first().ok_or("missing preset name")?;
    let out = args.get(1).ok_or("missing output path")?;
    if let Some(mini) = preset.strip_prefix("mini-") {
        let net = ctc::gen::mini_network(mini, 7).ok_or(format!("unknown preset {preset}"))?;
        save_edge_list_path(&net.graph, out).map_err(|e| e.to_string())?;
        println!(
            "wrote {}: {} vertices, {} edges ({} ground-truth communities)",
            out,
            net.graph.num_vertices(),
            net.graph.num_edges(),
            net.communities.len()
        );
        return Ok(());
    }
    let net = ctc::gen::network_by_name(preset).ok_or(format!("unknown preset {preset}"))?;
    save_edge_list_path(&net.data.graph, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} vertices, {} edges ({} ground-truth communities)",
        out,
        net.data.graph.num_vertices(),
        net.data.graph.num_edges(),
        net.data.communities.len()
    );
    Ok(())
}
