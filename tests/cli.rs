//! End-to-end tests of the `ctc-cli` binary via its public interface.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ctc-cli"))
}

/// The value column of `field`'s row in an `index info` table.
fn info_row<'t>(table: &'t str, field: &str) -> &'t str {
    table
        .lines()
        .find_map(|l| l.strip_prefix(field).filter(|v| v.starts_with(' ')))
        .unwrap_or_else(|| panic!("no {field:?} row in {table}"))
        .trim()
}

fn write_figure1(path: &std::path::Path) {
    let g = ctc::truss::fixtures::figure1_graph();
    ctc::graph::io::save_edge_list_path(&g, path).unwrap();
}

#[test]
fn stats_subcommand() {
    let dir = std::env::temp_dir().join("ctc_cli_test_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    let out = cli()
        .args(["stats", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("12"), "vertex count missing: {text}");
    assert!(text.contains("25"), "edge count missing: {text}");
}

#[test]
fn decompose_subcommand() {
    let dir = std::env::temp_dir().join("ctc_cli_test_decomp");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    let out = cli()
        .args(["decompose", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Figure 1: 23 trussness-4 edges and 2 trussness-2 edges.
    assert!(text.contains("4"), "level 4 missing: {text}");
    assert!(text.contains("23"), "level-4 count missing: {text}");
}

#[test]
fn search_subcommand_finds_figure1b() {
    let dir = std::env::temp_dir().join("ctc_cli_test_search");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    // Labels equal dense ids here (the writer emits dense ids): q1=0,q2=1,q3=2.
    let out = cli()
        .args([
            "search",
            file.to_str().unwrap(),
            "--query",
            "0,1,2",
            "--algo",
            "basic",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("k = 4"), "wrong trussness: {text}");
    assert!(text.contains("8 vertices"), "wrong size: {text}");
    assert!(text.contains("diameter 3"), "wrong diameter: {text}");
    assert!(
        !text.contains("timings:"),
        "phase timings must be opt-in: {text}"
    );
}

#[test]
fn search_timings_flag_prints_phases() {
    let dir = std::env::temp_dir().join("ctc_cli_test_timings");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    let out = cli()
        .args([
            "search",
            file.to_str().unwrap(),
            "--query",
            "0,1,2",
            "--algo",
            "bd",
            "--timings",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let timings = text
        .lines()
        .find(|l| l.starts_with("timings:"))
        .unwrap_or_else(|| panic!("no timings line: {text}"));
    for phase in ["locate", "peel", "total"] {
        assert!(timings.contains(phase), "{phase} missing: {timings}");
    }
}

#[test]
fn decompose_with_threads_matches_serial_histogram() {
    let dir = std::env::temp_dir().join("ctc_cli_test_threads");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    let hist = |extra: &[&str]| {
        let mut args = vec!["decompose", file.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = cli().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "args {args:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    // The PKT frontier peel gives the serial kernel's histogram, up to the
    // largest count accepted (Figure 1's 25 edges cap the threads at 25).
    let serial = hist(&[]);
    for t in ["4", "0", "1024"] {
        assert_eq!(hist(&["--threads", t]), serial, "--threads {t} diverged");
    }
    // Malformed and oversized thread counts are a clean error that names
    // the flag, not a panic.
    for bad in ["lots", "1025", "-1"] {
        let out = cli()
            .args(["decompose", file.to_str().unwrap(), "--threads", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--threads {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--threads"), "--threads {bad}: {err}");
    }
}

#[test]
fn index_build_then_search_matches_direct_search() {
    let dir = std::env::temp_dir().join("ctc_cli_test_index");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    let idx = dir.join("fig1.ctci");
    write_figure1(&file);
    let out = cli()
        .args([
            "index",
            "build",
            file.to_str().unwrap(),
            "-o",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "index build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(idx.exists());
    // `index info` reads the file back.
    let out = cli()
        .args(["index", "info", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("12"), "vertex count missing: {text}");
    assert!(text.contains("25"), "edge count missing: {text}");
    assert_eq!(
        info_row(&text, "format"),
        "2",
        "fresh builds write v2: {text}"
    );
    // A snapshot written by format version 1 still reads, and says so.
    let v1 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/truss/tests/data/figure1_v1.ctci"
    );
    let out = cli().args(["index", "info", v1]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(info_row(&text, "format"), "1 (FNV-1a trailer)", "{text}");
    assert_eq!(info_row(&text, "edges"), "25", "{text}");
    assert_eq!(info_row(&text, "label table"), "12 labels", "{text}");
    // Warm search over the snapshot must answer exactly like direct search,
    // for every algorithm.
    let members = |args: &[&str]| {
        let out = cli().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "args {args:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("members:"))
            .expect("members line")
            .to_string()
    };
    for algo in ["basic", "bd", "lctc", "truss"] {
        let direct = members(&[
            "search",
            file.to_str().unwrap(),
            "--query",
            "0,1,2",
            "--algo",
            algo,
        ]);
        let warm = members(&[
            "search",
            "--index",
            idx.to_str().unwrap(),
            "--query",
            "0,1,2",
            "--algo",
            algo,
        ]);
        assert_eq!(direct, warm, "--algo {algo} diverged on the warm path");
    }
}

#[test]
fn snapshot_preserves_original_labels() {
    // A graph whose file labels are NOT dense ids: the snapshot must carry
    // the label table so label-addressed queries keep working.
    let dir = std::env::temp_dir().join("ctc_cli_test_labels");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("tri.txt");
    let idx = dir.join("tri.ctci");
    std::fs::write(&file, "500 700\n700 900\n500 900\n").unwrap();
    let out = cli()
        .args([
            "index",
            "build",
            file.to_str().unwrap(),
            "-o",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args([
            "search",
            "--index",
            idx.to_str().unwrap(),
            "--query",
            "500,900",
            "--algo",
            "basic",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("members: 500 700 900"),
        "original labels lost: {text}"
    );
    // A dense id that is not an original label must be rejected.
    let out = cli()
        .args(["search", "--index", idx.to_str().unwrap(), "--query", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn index_subcommand_error_paths() {
    let dir = std::env::temp_dir().join("ctc_cli_test_index_err");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    // Missing -o.
    let out = cli()
        .args(["index", "build", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("-o"));
    // Unknown sub-subcommand.
    let out = cli().args(["index", "rebuild"]).output().unwrap();
    assert!(!out.status.success());
    // Corrupt snapshot file → clean error, not a panic.
    let bad = dir.join("bad.ctci");
    std::fs::write(&bad, b"CTCI garbage").unwrap();
    let out = cli()
        .args(["index", "info", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "unexpected stderr: {err}");
    let out = cli()
        .args(["search", "--index", bad.to_str().unwrap(), "--query", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn search_rejects_unknown_label_and_algo() {
    let dir = std::env::temp_dir().join("ctc_cli_test_err");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    write_figure1(&file);
    let out = cli()
        .args(["search", file.to_str().unwrap(), "--query", "999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = cli()
        .args([
            "search",
            file.to_str().unwrap(),
            "--query",
            "0",
            "--algo",
            "nope",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Knob values `/search` rejects with 400 fail here too, naming the flag.
    for (flag, value) in [
        ("--k", "0"),
        ("--k", "1"),
        ("--gamma", "nan"),
        ("--gamma", "-5"),
        ("--eta", "0"),
    ] {
        let out = cli()
            .args([
                "search",
                file.to_str().unwrap(),
                "--query",
                "0",
                flag,
                value,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag),
            "{flag} {value}: unexpected stderr: {err}"
        );
    }
}

#[test]
fn usage_on_no_args() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    let dir = std::env::temp_dir().join("ctc_cli_test_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    let idx = dir.join("fig1.ctci");
    write_figure1(&file);
    let (f, i) = (file.to_str().unwrap(), idx.to_str().unwrap());
    for args in [
        // A stale --threads, dropped from these commands.
        vec!["stats", f, "--threads", "2"],
        vec!["index", "build", f, "-o", i, "--threads", "0"],
        vec!["search", f, "--query", "0,1,2", "--threads", "2"],
        // A flag no command takes, and a misspelt one.
        vec!["stats", f, "--bogus-flag", "7"],
        vec!["search", f, "--query", "0,1,2", "--timing"],
        vec!["search", f, "--query", "0,1,2", "-k", "3"],
    ] {
        let out = cli().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
        let flag = args.iter().rev().find(|a| a.starts_with('-')).unwrap();
        assert!(
            stderr.contains(&format!("does not take {flag}")),
            "{stderr}"
        );
    }
    assert!(!idx.exists(), "a rejected command must not run");
}

/// Every flag the usage text lists reaches its command: with a missing
/// input file each exits 1 (the load fails), never 2.
#[test]
fn every_flag_in_the_usage_text_is_accepted() {
    let usage = String::from_utf8_lossy(&cli().output().unwrap().stderr).to_string();
    let missing = std::env::temp_dir().join("ctc_cli_test_no_such_file");
    let missing = missing.to_str().unwrap();
    let mut command: Vec<String> = Vec::new();
    let mut checked = 0;
    for line in usage.lines() {
        let indent = line.len() - line.trim_start().len();
        let words: Vec<&str> = line.split_whitespace().collect();
        match indent {
            // A command line names the command; `index` takes a second word.
            2 => {
                let n = if words[0] == "index" { 2 } else { 1 };
                command = words[..n].iter().map(|w| w.to_string()).collect();
            }
            0 => command.clear(),
            _ => {}
        }
        if command.is_empty() {
            continue;
        }
        for word in &words {
            let word = word.trim_start_matches(['[', '(']);
            let flag: String = word
                .chars()
                .take_while(|c| *c == '-' || c.is_ascii_lowercase())
                .collect();
            if !flag.starts_with('-') || flag.trim_start_matches('-').is_empty() {
                continue;
            }
            let mut args = command.clone();
            args.extend([missing.to_string(), flag.clone(), "1".to_string()]);
            let out = cli().args(&args).output().unwrap();
            assert_eq!(
                out.status.code(),
                Some(1),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} flags found in:\n{usage}");
}

#[test]
fn generate_mini_preset_writes_a_small_network() {
    let dir = std::env::temp_dir().join("ctc_cli_test_mini");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("mini_fb.txt");
    let out = cli()
        .args(["generate", "mini-facebook", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(file.exists());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("400 vertices"), "unexpected size: {text}");
    let out = cli()
        .args(["generate", "mini-nope", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_subcommand_answers_and_shuts_down() {
    use std::io::{BufRead, BufReader, Read as _, Write as _};

    let dir = std::env::temp_dir().join("ctc_cli_test_serve");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fig1.txt");
    let idx = dir.join("fig1.ctci");
    write_figure1(&file);
    let out = cli()
        .args([
            "index",
            "build",
            file.to_str().unwrap(),
            "-o",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Ephemeral port; the daemon prints the bound address on one line.
    let mut child = cli()
        .args([
            "serve",
            idx.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--cache-cap",
            "8",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    assert!(banner.contains("listening on"), "banner: {banner}");
    let addr: std::net::SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in banner")
        .parse()
        .expect("parsable address");

    let request = |method: &str, target: &str, body: &str| -> (String, String) {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(
            format!(
                "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response).unwrap();
        let text = String::from_utf8_lossy(&response);
        let (head, payload) = text.split_once("\r\n\r\n").expect("head/body split");
        (
            head.lines().next().unwrap().to_string(),
            payload.to_string(),
        )
    };

    let (status, payload) = request("POST", "/search", r#"{"query":[0,1,2],"algo":"basic"}"#);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(payload.starts_with(r#"{"k":4,"#), "payload: {payload}");
    let (status, _) = request("GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, _) = request("POST", "/shutdown", "");
    assert_eq!(status, "HTTP/1.1 200 OK");

    let code = child.wait().unwrap();
    assert!(code.success(), "serve must exit 0 after graceful shutdown");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained"), "drain report missing: {rest}");
}
