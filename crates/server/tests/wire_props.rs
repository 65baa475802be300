//! Property/fuzz battery for the wire layer.
//!
//! Pins the three contracts the serving stack rests on:
//!
//! 1. The HTTP parser (and the whole request path behind it) **never
//!    panics** on arbitrary byte streams and always yields either a
//!    well-formed HTTP response or a clean close (`None`), whatever the
//!    client sends.
//! 2. The JSON encoder **round-trips arbitrary strings** — any label
//!    string, with any escaping-hostile content — through the decoder
//!    unchanged.
//! 3. A `/search` body's two parts, the answer's fields and its member
//!    lists, **concatenate to `encode_community`**, the oracle body.
//!
//! The vendored proptest stand-in samples deterministically from the test
//! name, so failures are reproducible.

use ctc_core::{Community, CommunityEngine, SearchAlgo};
use ctc_graph::{GraphBuilder, VertexId};
use ctc_server::json::Json;
use ctc_server::{encode_community, encode_community_parts, AppState, ServeConfig};
use ctc_truss::fixtures::figure1_graph;
use ctc_truss::Snapshot;
use proptest::prelude::*;

fn state() -> AppState {
    AppState::new(
        CommunityEngine::build(figure1_graph()),
        &ServeConfig {
            cache_cap: 16,
            // Small cap so the fuzzer can actually reach the 413 path.
            max_body: 512,
            ..ServeConfig::default()
        },
    )
}

/// Checks the respond contract for one byte stream: no panic (implied by
/// returning at all), and any produced response is a well-formed HTTP/1.1
/// message with a parsable status code and a blank-line head terminator.
fn respond_contract(state: &AppState, bytes: &[u8]) -> Result<(), TestCaseError> {
    match state.respond(bytes) {
        None => Ok(()), // clean close: valid prefix of a request
        Some(response) => {
            prop_assert!(
                response.starts_with(b"HTTP/1.1 "),
                "response must carry a status line, got {:?}",
                String::from_utf8_lossy(&response[..response.len().min(40)])
            );
            let status: u16 = std::str::from_utf8(&response[9..12])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| TestCaseError::fail("unparsable status code"))?;
            prop_assert!((200..=599).contains(&status), "implausible status {status}");
            prop_assert!(
                response.windows(4).any(|w| w == b"\r\n\r\n"),
                "response head never terminates"
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Contract 1 on pure noise: arbitrary bytes, arbitrary lengths.
    #[test]
    fn parser_survives_arbitrary_bytes(raw in proptest::collection::vec(0u16..256, 0..600)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let s = state();
        respond_contract(&s, &bytes)?;
    }

    /// Contract 1 on near-valid traffic: a plausible request line and
    /// framing with fuzzed method/target/header/body fragments — this
    /// reaches the deeper routing and JSON layers the pure-noise case
    /// rarely penetrates.
    #[test]
    fn parser_survives_structured_fuzz(
        method_i in 0usize..6,
        target_i in 0usize..6,
        version_i in 0usize..4,
        body in proptest::collection::vec(0u16..256, 0..200),
        header_junk in proptest::collection::vec((0u16..128, 0u16..128), 0..6),
        declared_delta in 0i64..3,
    ) {
        let methods = ["GET", "POST", "PUT", "", "P\u{1}ST", "POSTPOSTPOSTPOST"];
        let targets = ["/search", "/healthz", "/stats", "/", "/search?x=1", "nope"];
        let versions = ["HTTP/1.1", "HTTP/1.0", "HTTP/9.9", "HTCPCP/1.0"];
        let body: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        // Sometimes lie about the length (shorter → pipelined garbage,
        // longer → incomplete stream).
        let declared = (body.len() as i64 + declared_delta - 1).max(0);
        let mut raw = format!(
            "{} {} {}\r\n",
            methods[method_i], targets[target_i], versions[version_i]
        )
        .into_bytes();
        for (a, b) in &header_junk {
            raw.extend_from_slice(
                format!("{}{}: {}\r\n", (*a as u8) as char, "x", (*b as u8) as char).as_bytes(),
            );
        }
        raw.extend_from_slice(format!("content-length: {declared}\r\n\r\n").as_bytes());
        raw.extend_from_slice(&body);
        let s = state();
        respond_contract(&s, &raw)?;
    }

    /// Contract 1 through the `/search` JSON layer: syntactically wild
    /// bodies with correct HTTP framing must never panic and must always
    /// be answered (a framed complete request is never a clean close).
    #[test]
    fn search_bodies_never_panic(body in proptest::collection::vec(0u16..256, 0..300)) {
        let body: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        let mut raw =
            format!("POST /search HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len())
                .into_bytes();
        raw.extend_from_slice(&body);
        let s = state();
        let response = s.respond(&raw);
        prop_assert!(
            response.is_some(),
            "a complete framed request must be answered"
        );
        respond_contract(&s, &raw)?;
    }

    /// Contract 2: arbitrary strings (controls, quotes, backslashes,
    /// astral plane) survive encode → parse exactly.
    #[test]
    fn json_strings_round_trip(codes in proptest::collection::vec(0u32..0x110000, 0..48)) {
        let s: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        let v = Json::Str(s.clone());
        let encoded = v.encode();
        let decoded = Json::parse(&encoded)
            .map_err(|e| TestCaseError::fail(format!("rejected own encoding of {s:?}: {e}")))?;
        prop_assert_eq!(decoded, v);
    }

    /// Contract 2 on the escaping-hostile corner specifically: strings
    /// drawn from the escape-relevant alphabet.
    #[test]
    fn json_hostile_strings_round_trip(picks in proptest::collection::vec(0usize..12, 1..64)) {
        let alphabet = ['"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '/', 'u', '🦀'];
        let s: String = picks.iter().map(|&i| alphabet[i]).collect();
        let v = Json::Str(s);
        prop_assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    /// Labels round-trip exactly across the full u64 range (no f64
    /// truncation), inside arrays like the wire schema uses.
    #[test]
    fn json_u64_labels_round_trip(labels in proptest::collection::vec(0u64..u64::MAX, 0..32)) {
        let v = Json::Array(labels.iter().map(|&l| Json::Uint(l)).collect());
        prop_assert_eq!(Json::parse(&v.encode()).unwrap(), v);
    }

    /// Valid requests with arbitrary well-formed framing always parse and
    /// route: the parser must not over-reject either.
    #[test]
    fn valid_requests_always_answered(q1 in 0u32..12, q2 in 0u32..12, algo_i in 0usize..4) {
        let algo = ["basic", "bd", "lctc", "truss"][algo_i];
        let body = format!(r#"{{"query":[{q1},{q2}],"algo":"{algo}"}}"#);
        let raw = format!(
            "POST /search HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let s = state();
        let response = s.respond(raw.as_bytes()).expect("complete request");
        prop_assert!(
            response.starts_with(b"HTTP/1.1 200")
                || response.starts_with(b"HTTP/1.1 422"),
            "valid in-range query must succeed or be cleanly unservable, got {:?}",
            String::from_utf8_lossy(&response[..20])
        );
    }
}

/// Contract 3 for one community: the fields, then the lists, are the
/// encoded body, and each part sits in a buffer of exactly its size.
fn parts_contract(engine: &CommunityEngine, c: &Community) -> Result<(), TestCaseError> {
    let (fields, lists) = encode_community_parts(engine, c);
    prop_assert_eq!(
        [&fields[..], &lists[..]].concat(),
        encode_community(engine, c)
    );
    prop_assert!(fields.starts_with(br#"{"k":"#) && fields.ends_with(b","));
    prop_assert!(lists.starts_with(br#""vertices":["#) && lists.ends_with(b"]}"));
    prop_assert_eq!(fields.capacity(), fields.len());
    prop_assert_eq!(lists.capacity(), lists.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Contract 3 on every algorithm's answers over random graphs with
    /// random labels (every digit count), and on communities drawn at
    /// random outside any search.
    #[test]
    fn community_parts_concatenate_to_the_encoded_body(
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..64),
        labels in proptest::collection::vec(0u64..u64::MAX, 16..17),
        query in proptest::collection::vec(0u32..16, 1..4),
        header in (0u32..u32::MAX, 0u32..u32::MAX),
        members in proptest::collection::vec(0u32..16, 0..16),
    ) {
        let mut b = GraphBuilder::new();
        b.extend_edges(edges.iter().copied());
        b.ensure_vertices(16);
        let engine = CommunityEngine::from_snapshot(
            Snapshot::build(b.build()).with_labels(labels).expect("one label per vertex"),
        );
        let q: Vec<VertexId> = query.iter().map(|&v| VertexId(v)).collect();
        for algo in [
            SearchAlgo::Basic,
            SearchAlgo::BulkDelete,
            SearchAlgo::Local,
            SearchAlgo::TrussOnly,
        ] {
            if let Ok(c) = engine.search(&q, algo) {
                parts_contract(&engine, &c)?;
            }
        }
        let vertices: Vec<VertexId> = members.iter().map(|&v| VertexId(v)).collect();
        let drawn = Community {
            k: header.0,
            edges: vertices.windows(2).map(|w| (w[0], w[1])).collect(),
            vertices,
            query_distance: header.1,
            iterations: 0,
            g0_size: (0, 0),
            timings: Default::default(),
        };
        parts_contract(&engine, &drawn)?;
    }
}

/// Truncation sweep over a known-good request: every prefix must be
/// Incomplete (clean close) or a well-formed error/answer — never a
/// panic. Deterministic, so a plain test rather than a property.
#[test]
fn every_prefix_of_a_valid_request_is_handled() {
    let body = r#"{"query":[0,1,2],"algo":"basic"}"#;
    let raw = format!(
        "POST /search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let s = state();
    for cut in 0..=raw.len() {
        let slice = &raw.as_bytes()[..cut];
        match s.respond(slice) {
            None => {}
            Some(response) => assert!(
                response.starts_with(b"HTTP/1.1 "),
                "prefix {cut}: malformed response"
            ),
        }
    }
    // The full request answers 200.
    assert!(s
        .respond(raw.as_bytes())
        .unwrap()
        .starts_with(b"HTTP/1.1 200"));
}

/// Interleaving noise into the head always yields a response or clean
/// close; a pathological unterminated head is eventually rejected at the
/// cap instead of buffering forever.
#[test]
fn unterminated_heads_hit_the_cap() {
    let s = state();
    let junk = vec![b'a'; ctc_server::http::MAX_HEAD_BYTES + 2];
    let response = s.respond(&junk).expect("over-cap head must be rejected");
    assert!(response.starts_with(b"HTTP/1.1 431"));
}
