//! Persistent index serving: build → save → load → batch query.
//!
//! The offline/online split of the paper (§4.3: the `O(ρ·m)` index build
//! is paid once; queries are fast thereafter) made durable: the truss
//! index is persisted as a checksummed `.ctci` snapshot, a warm process
//! loads it without re-running the decomposition, and a
//! `CommunityEngine` answers a whole batch of queries warm.
//!
//! Run with: `cargo run --release --example persistent_index`

use ctc::prelude::*;
use ctc_gen::mini_network;
use std::time::Instant;

fn main() {
    let net = mini_network("facebook", 7).expect("mini preset");
    let g = net.graph;
    println!(
        "network: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // --- Offline: build once, persist. -----------------------------------
    let t = Instant::now();
    let snap = Snapshot::build(g);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let dir = std::env::temp_dir().join("ctc_persistent_index_example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("facebook-mini.ctci");
    snap.save(&path).expect("save snapshot");
    let file_kb = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) / 1024;
    println!(
        "offline: built index (max trussness {}) in {build_ms:.1}ms, wrote {} ({file_kb} KiB)",
        snap.index.max_truss(),
        path.display()
    );

    // --- Warm start: load without decomposing. ---------------------------
    let t = Instant::now();
    let engine = CommunityEngine::load(&path).expect("load snapshot");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("warm start: loaded + validated snapshot in {load_ms:.1}ms\n");

    // --- Online: answer a batch of queries against the shared index. -----
    let mut qg = QueryGenerator::new(engine.graph(), 11);
    let queries: Vec<EngineQuery> = (0..8)
        .map(|i| {
            let q = qg.sample(2, DegreeRank::top(0.8), 2).expect("query");
            let algo = if i % 2 == 0 {
                SearchAlgo::Local
            } else {
                SearchAlgo::Basic
            };
            EngineQuery::new(q).algo(algo)
        })
        .collect();
    let t = Instant::now();
    let answers = engine.search_batch(&queries);
    let batch_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut table = Table::new(["query", "algo", "k", "|V|", "|E|", "diameter"]);
    for (query, answer) in queries.iter().zip(&answers) {
        let qs: Vec<String> = query.vertices.iter().map(|v| v.to_string()).collect();
        let row = match answer {
            Ok(c) => [
                qs.join(","),
                format!("{:?}", query.algo),
                c.k.to_string(),
                c.num_vertices().to_string(),
                c.num_edges().to_string(),
                c.diameter().to_string(),
            ],
            Err(e) => [
                qs.join(","),
                format!("{:?}", query.algo),
                "-".into(),
                "-".into(),
                "-".into(),
                e.to_string(),
            ],
        };
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "online: answered {} queries in {batch_ms:.1}ms total — the index build \
         never ran in the warm path",
        answers.len()
    );
}
