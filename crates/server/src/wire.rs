//! The serving protocol: JSON request/response schemas over
//! [`crate::json`], plus the cache key a request normalizes to.
//!
//! The full protocol (endpoints, schemas, status codes) is specified in
//! `docs/SERVING.md`. Two properties matter architecturally:
//!
//! * **Determinism** — [`encode_community`] writes fields in a fixed
//!   order with no timing or identity data, so the same [`Community`]
//!   always encodes to the same bytes. The server encodes each answer
//!   once, as two exact-size parts ([`encode_community_parts`]): the
//!   answer's own fields and its member lists, which the answer cache
//!   shares between answers with one community. Every response serving
//!   the answer shares both parts, never copying them; the soak test
//!   pins that a served answer is byte-identical to a directly computed
//!   one, cached or not.
//! * **Normalization** — a query is a vertex *set*; [`SearchRequest`]
//!   sorts and deduplicates labels, so every permutation of the same set
//!   shares one [`QueryKey`] (and therefore one cache slot), and the
//!   answer equals a direct [`CommunityEngine::search`] on the sorted
//!   label set (the searcher itself normalizes identically).

use crate::json::{Json, JsonError};
use ctc_core::{Community, CommunityEngine, CtcConfig, SearchAlgo};
use ctc_graph::error::GraphError;

/// Hard cap on query labels per request (a 10k-label "set" is a client
/// bug, not a workload).
pub const MAX_QUERY_LABELS: usize = 1024;

/// Hard cap on edge updates per `/update` batch. Bigger reshapes belong
/// offline (rebuild the snapshot); a bounded batch keeps the writer's
/// critical section — and therefore reader staleness — bounded too.
pub const MAX_BATCH_UPDATES: usize = 4096;

/// A decoded, validated `/search` request body.
#[derive(Clone, Debug)]
pub struct SearchRequest {
    /// Query labels, sorted and deduplicated.
    pub labels: Vec<u64>,
    /// Which algorithm answers the query.
    pub algo: SearchAlgo,
    /// The effective per-request configuration (server base + overrides).
    pub cfg: CtcConfig,
}

impl SearchRequest {
    /// The cache key this request normalizes to.
    pub fn key(&self) -> QueryKey {
        QueryKey {
            labels: self.labels.clone(),
            algo: self.algo,
            cfg: self.cfg.clone(),
        }
    }
}

/// The identity of an answer: normalized labels + algorithm + config.
/// Everything that can change the response body is in here; nothing else
/// is.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Sorted, deduplicated query labels.
    pub labels: Vec<u64>,
    /// The algorithm.
    pub algo: SearchAlgo,
    /// The config (γ, η, fixed k, iteration cap), every field of which
    /// can change an answer. γ compares by its bits; the decoder stores a
    /// requested −0 as 0, so the two share a key.
    pub cfg: CtcConfig,
}

/// Why a `/search` body was rejected, with the HTTP status it maps to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Status code (always `400` today; typed for future richness).
    pub status: u16,
    /// Human-readable description, returned in the error body.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> Self {
        DecodeError {
            status: 400,
            message: message.into(),
        }
    }
}

impl From<JsonError> for DecodeError {
    fn from(e: JsonError) -> Self {
        DecodeError::new(e.to_string())
    }
}

/// Decodes and validates a `/search` body against the schema
/// `{"query": [u64...], "algo"?: str, "gamma"?: num, "eta"?: u64, "k"?: u64,
/// "max_iterations"?: u64}`. Unknown fields are rejected (a typoed knob
/// silently ignored would serve wrong-config answers).
pub fn decode_search_request(body: &[u8], base: &CtcConfig) -> Result<SearchRequest, DecodeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| DecodeError::new("request body is not valid UTF-8"))?;
    let root = Json::parse(text)?;
    let Json::Object(pairs) = &root else {
        return Err(DecodeError::new("request body must be a JSON object"));
    };
    const KNOWN_FIELDS: [&str; 6] = ["query", "algo", "gamma", "eta", "k", "max_iterations"];
    for (key, _) in pairs {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(DecodeError::new(format!("unknown field {key:?}")));
        }
    }
    // Duplicate keys would be silently first-wins through `Json::get` —
    // the same wrong-config hazard the unknown-field rejection exists
    // for. All keys are known here, so by pigeonhole any object larger
    // than the field set has duplicates, and the remaining quadratic
    // scan is over at most KNOWN_FIELDS.len() entries.
    if pairs.len() > KNOWN_FIELDS.len() {
        return Err(DecodeError::new("duplicate fields in request"));
    }
    for (i, (key, _)) in pairs.iter().enumerate() {
        if pairs[..i].iter().any(|(prev, _)| prev == key) {
            return Err(DecodeError::new(format!("duplicate field {key:?}")));
        }
    }

    let query = root
        .get("query")
        .ok_or_else(|| DecodeError::new("missing required field \"query\""))?
        .as_array()
        .ok_or_else(|| DecodeError::new("\"query\" must be an array of vertex labels"))?;
    if query.is_empty() {
        return Err(DecodeError::new("\"query\" must not be empty"));
    }
    if query.len() > MAX_QUERY_LABELS {
        return Err(DecodeError::new(format!(
            "\"query\" holds more than {MAX_QUERY_LABELS} labels"
        )));
    }
    let mut labels: Vec<u64> = Vec::with_capacity(query.len());
    for v in query {
        labels.push(v.as_u64().ok_or_else(|| {
            DecodeError::new("\"query\" entries must be non-negative integer labels")
        })?);
    }
    labels.sort_unstable();
    labels.dedup();

    let algo = match root.get("algo") {
        None => SearchAlgo::default(),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| DecodeError::new("\"algo\" must be a string"))?;
            s.parse().map_err(|e: String| DecodeError::new(e))?
        }
    };

    let mut cfg = base.clone();
    if let Some(v) = root.get("gamma") {
        let gamma = v
            .as_f64()
            .ok_or_else(|| DecodeError::new("\"gamma\" must be a number"))?;
        if !gamma.is_finite() || gamma < 0.0 {
            return Err(DecodeError::new("\"gamma\" must be finite and >= 0"));
        }
        // JSON's `-0` parses as −0.0, which passes the check above. The
        // key compares γ by its bits, so −0 is stored as 0 to keep the
        // two spellings of one γ in one cache slot.
        cfg = cfg.gamma(if gamma == 0.0 { 0.0 } else { gamma });
    }
    if let Some(v) = root.get("eta") {
        let eta = v
            .as_u64()
            .ok_or_else(|| DecodeError::new("\"eta\" must be an integer >= 1"))?;
        let eta = usize::try_from(eta).map_err(|_| DecodeError::new("\"eta\" is too large"))?;
        if eta == 0 {
            // Reject rather than clamp: a silently altered knob would
            // serve an answer the client did not configure.
            return Err(DecodeError::new("\"eta\" must be an integer >= 1"));
        }
        cfg = cfg.eta(eta);
    }
    if let Some(v) = root.get("k") {
        let k = v
            .as_u64()
            .ok_or_else(|| DecodeError::new("\"k\" must be an integer >= 2"))?;
        let k = u32::try_from(k).map_err(|_| DecodeError::new("\"k\" is too large"))?;
        if k < 2 {
            return Err(DecodeError::new("\"k\" must be an integer >= 2"));
        }
        cfg = cfg.fixed_k(k);
    }
    if let Some(v) = root.get("max_iterations") {
        let n = v
            .as_u64()
            .ok_or_else(|| DecodeError::new("\"max_iterations\" must be a non-negative integer"))?;
        let n =
            usize::try_from(n).map_err(|_| DecodeError::new("\"max_iterations\" is too large"))?;
        cfg = cfg.max_iterations(n);
    }

    Ok(SearchRequest { labels, algo, cfg })
}

/// One edge update from a `/update` batch, in *label* space (the server
/// resolves labels to dense ids per-op, so an unknown endpoint rejects
/// that op alone, not the batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireUpdate {
    /// `true` for `"op":"insert"`, `false` for `"op":"delete"`.
    pub insert: bool,
    /// One endpoint, as an original vertex label.
    pub u: u64,
    /// The other endpoint, as an original vertex label.
    pub v: u64,
}

/// A decoded, validated `/update` request body.
#[derive(Clone, Debug)]
pub struct UpdateRequest {
    /// The batch, in request order.
    pub ops: Vec<WireUpdate>,
}

/// Decodes and validates a `/update` body against the schema
/// `{"updates": [{"op": "insert"|"delete", "u": label, "v": label}...]}`.
/// Unknown and duplicate fields are rejected at both nesting levels —
/// the same typo-safety stance as [`decode_search_request`].
pub fn decode_update_request(body: &[u8]) -> Result<UpdateRequest, DecodeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| DecodeError::new("request body is not valid UTF-8"))?;
    let root = Json::parse(text)?;
    let Json::Object(pairs) = &root else {
        return Err(DecodeError::new("request body must be a JSON object"));
    };
    for (key, _) in pairs {
        if key != "updates" {
            return Err(DecodeError::new(format!("unknown field {key:?}")));
        }
    }
    if pairs.len() > 1 {
        return Err(DecodeError::new("duplicate field \"updates\""));
    }
    let updates = root
        .get("updates")
        .ok_or_else(|| DecodeError::new("missing required field \"updates\""))?
        .as_array()
        .ok_or_else(|| DecodeError::new("\"updates\" must be an array of edge updates"))?;
    if updates.is_empty() {
        return Err(DecodeError::new("\"updates\" must not be empty"));
    }
    if updates.len() > MAX_BATCH_UPDATES {
        return Err(DecodeError::new(format!(
            "\"updates\" holds more than {MAX_BATCH_UPDATES} entries"
        )));
    }
    let mut ops = Vec::with_capacity(updates.len());
    for (i, entry) in updates.iter().enumerate() {
        let Json::Object(fields) = entry else {
            return Err(DecodeError::new(format!(
                "updates[{i}] must be an object {{\"op\", \"u\", \"v\"}}"
            )));
        };
        const KNOWN: [&str; 3] = ["op", "u", "v"];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(DecodeError::new(format!(
                    "updates[{i}]: unknown field {key:?}"
                )));
            }
        }
        if fields.len() > KNOWN.len() {
            return Err(DecodeError::new(format!("updates[{i}]: duplicate fields")));
        }
        for (j, (key, _)) in fields.iter().enumerate() {
            if fields[..j].iter().any(|(prev, _)| prev == key) {
                return Err(DecodeError::new(format!(
                    "updates[{i}]: duplicate field {key:?}"
                )));
            }
        }
        let op = entry
            .get("op")
            .ok_or_else(|| DecodeError::new(format!("updates[{i}]: missing field \"op\"")))?
            .as_str()
            .ok_or_else(|| {
                DecodeError::new(format!(
                    "updates[{i}]: \"op\" must be \"insert\" or \"delete\""
                ))
            })?;
        let insert = match op {
            "insert" => true,
            "delete" => false,
            other => {
                return Err(DecodeError::new(format!(
                    "updates[{i}]: unknown op {other:?} (expected \"insert\" or \"delete\")"
                )))
            }
        };
        let endpoint = |name: &str| {
            entry
                .get(name)
                .ok_or_else(|| DecodeError::new(format!("updates[{i}]: missing field {name:?}")))?
                .as_u64()
                .ok_or_else(|| {
                    DecodeError::new(format!(
                        "updates[{i}]: {name:?} must be a non-negative integer label"
                    ))
                })
        };
        ops.push(WireUpdate {
            insert,
            u: endpoint("u")?,
            v: endpoint("v")?,
        });
    }
    Ok(UpdateRequest { ops })
}

/// Per-op outcome reported back in the `/update` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The update applied and the index was maintained in place.
    Applied {
        /// The edge's new trussness after an insertion, or its former
        /// trussness after a deletion.
        trussness: u32,
        /// Other edges whose trussness the cascade changed (the
        /// inserted or deleted edge itself is never counted).
        changed: u64,
    },
    /// The update was rejected; the rest of the batch is unaffected.
    Rejected {
        /// Why (e.g. duplicate edge, unknown label, self-loop).
        error: String,
    },
}

/// Encodes the deterministic `/update` response body: batch counts, the
/// cache-invalidation class, and per-op outcomes in request order.
pub fn encode_update_response(
    applied: u64,
    rejected: u64,
    max_class: u32,
    results: &[UpdateOutcome],
) -> Vec<u8> {
    let results = Json::Array(
        results
            .iter()
            .map(|r| match r {
                UpdateOutcome::Applied { trussness, changed } => Json::Object(vec![
                    ("status".into(), Json::Str("applied".into())),
                    ("trussness".into(), Json::Uint(u64::from(*trussness))),
                    ("changed".into(), Json::Uint(*changed)),
                ]),
                UpdateOutcome::Rejected { error } => Json::Object(vec![
                    ("status".into(), Json::Str("rejected".into())),
                    ("error".into(), Json::Str(error.clone())),
                ]),
            })
            .collect(),
    );
    Json::Object(vec![
        ("applied".into(), Json::Uint(applied)),
        ("rejected".into(), Json::Uint(rejected)),
        ("max_class".into(), Json::Uint(u64::from(max_class))),
        ("results".into(), results),
    ])
    .encode()
    .into_bytes()
}

/// Encodes a community as the deterministic `/search` response body.
/// Vertices and edges are reported as *original labels* (the engine's
/// label table applies); field order is fixed; no timings ride along, so
/// identical communities encode to identical bytes.
///
/// The body is the compact JSON of
/// `{"k","num_vertices","num_edges","query_distance","vertices","edges"}`,
/// written without building a [`Json`] tree: one pass sums the exact
/// length (fixed punctuation plus the digit count of every number), the
/// second writes the bytes into a buffer allocated at exactly that size,
/// so the body never reallocates and carries no spare capacity.
///
/// It is the concatenation of the two parts [`encode_community_parts`]
/// returns.
pub fn encode_community(engine: &CommunityEngine, c: &Community) -> Vec<u8> {
    let len = measure(|n| {
        write_fields(c, n);
        write_lists(engine, c, n);
    });
    exact(len, |out| {
        write_fields(c, out);
        write_lists(engine, c, out);
    })
}

/// The `/search` body of `c` as two exact-size buffers: the answer's own
/// fields, `{"k":…,"num_vertices":…,"num_edges":…,"query_distance":…,`,
/// and its member lists, `"vertices":[…],"edges":[…]}`. The answer cache
/// keeps them apart so that answers with one community share a single
/// copy of its lists, which hold nearly all of a body's bytes.
pub fn encode_community_parts(engine: &CommunityEngine, c: &Community) -> (Vec<u8>, Vec<u8>) {
    let fields = exact(measure(|n| write_fields(c, n)), |out| write_fields(c, out));
    let lists = exact(measure(|n| write_lists(engine, c, n)), |out| {
        write_lists(engine, c, out)
    });
    (fields, lists)
}

/// The byte count `write` produces.
fn measure(write: impl FnOnce(&mut usize)) -> usize {
    let mut len = 0;
    write(&mut len);
    len
}

/// What `write` produces, in a buffer allocated at its measured `len`.
fn exact(len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    write(&mut out);
    debug_assert_eq!(out.len(), len, "measured and written body lengths differ");
    out
}

/// Where [`write_fields`] and [`write_lists`] send the body: a `usize`
/// counts its bytes, a `Vec<u8>` receives them. One writer drives both,
/// so the measured length and the written bytes cannot disagree.
trait BodySink {
    fn put(&mut self, bytes: &[u8]);
    fn uint(&mut self, n: u64);
}

impl BodySink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }

    fn uint(&mut self, n: u64) {
        *self += n.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

impl BodySink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn uint(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.extend_from_slice(&digits[at..]);
    }
}

/// The `/search` body of `c` up to its member lists, field by field, in
/// the order and spelling `Json::encode` gives the equivalent object.
fn write_fields(c: &Community, out: &mut impl BodySink) {
    out.put(br#"{"k":"#);
    out.uint(u64::from(c.k));
    out.put(br#","num_vertices":"#);
    out.uint(c.num_vertices() as u64);
    out.put(br#","num_edges":"#);
    out.uint(c.num_edges() as u64);
    out.put(br#","query_distance":"#);
    out.uint(u64::from(c.query_distance));
    out.put(b",");
}

/// The rest of the `/search` body of `c`: its vertices and edges as
/// original labels, through the closing brace.
fn write_lists(engine: &CommunityEngine, c: &Community, out: &mut impl BodySink) {
    out.put(br#""vertices":["#);
    for (i, &v) in c.vertices.iter().enumerate() {
        if i > 0 {
            out.put(b",");
        }
        out.uint(engine.label_of(v));
    }
    out.put(br#"],"edges":["#);
    for (i, &(u, v)) in c.edges.iter().enumerate() {
        out.put(if i > 0 { b",[" } else { b"[" });
        out.uint(engine.label_of(u));
        out.put(b",");
        out.uint(engine.label_of(v));
        out.put(b"]");
    }
    out.put(b"]}");
}

/// Encodes the uniform error body `{"error": message}`.
pub fn encode_error(message: &str) -> Vec<u8> {
    Json::Object(vec![("error".into(), Json::Str(message.into()))])
        .encode()
        .into_bytes()
}

/// Maps a search failure to `(status, reason, body)`.
pub fn search_error_response(e: &GraphError) -> (u16, &'static str, Vec<u8>) {
    let (status, reason) = match e {
        GraphError::EmptyQuery => (400, "Bad Request"),
        GraphError::VertexOutOfRange { .. } => (404, "Not Found"),
        GraphError::Disconnected => (422, "Unprocessable Entity"),
        _ => (500, "Internal Server Error"),
    };
    (status, reason, encode_error(&e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};

    fn decode(body: &str) -> Result<SearchRequest, DecodeError> {
        decode_search_request(body.as_bytes(), &CtcConfig::default())
    }

    #[test]
    fn minimal_request_decodes_with_defaults() {
        let r = decode(r#"{"query":[3,1,2,1]}"#).unwrap();
        assert_eq!(r.labels, vec![1, 2, 3], "sorted + deduped");
        assert_eq!(r.algo, SearchAlgo::Local);
        assert_eq!(r.cfg, CtcConfig::default());
    }

    #[test]
    fn knobs_override_the_base_config() {
        let r = decode(r#"{"query":[1],"algo":"bd","gamma":2.5,"eta":50,"k":4}"#).unwrap();
        assert_eq!(r.algo, SearchAlgo::BulkDelete);
        assert_eq!(r.cfg.gamma, 2.5);
        assert_eq!(r.cfg.eta, 50);
        assert_eq!(r.cfg.fixed_k, Some(4));
        // The base config's non-overridden knobs survive.
        let base = CtcConfig::default().max_iterations(7);
        let r = decode_search_request(br#"{"query":[1]}"#, &base).unwrap();
        assert_eq!(r.cfg.max_iterations, Some(7));
    }

    #[test]
    fn negative_zero_gamma_shares_the_zero_gamma_key() {
        fn hash_of(key: &QueryKey) -> u64 {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        }
        let zero = decode(r#"{"query":[1,2],"gamma":0}"#).unwrap();
        for body in [
            r#"{"query":[1,2],"gamma":-0}"#,
            r#"{"query":[1,2],"gamma":-0.0}"#,
        ] {
            let negative = decode(body).unwrap();
            assert!(negative.cfg.gamma.is_sign_positive(), "{body}");
            assert_eq!(negative.key(), zero.key(), "{body}");
            assert_eq!(hash_of(&negative.key()), hash_of(&zero.key()), "{body}");
        }
    }

    #[test]
    fn permutations_share_a_cache_key_config_changes_bust_it() {
        let a = decode(r#"{"query":[3,1,2]}"#).unwrap().key();
        let b = decode(r#"{"query":[2,3,1,3]}"#).unwrap().key();
        assert_eq!(a, b, "query order and duplicates must not split the cache");
        let c = decode(r#"{"query":[1,2,3],"gamma":2.0}"#).unwrap().key();
        assert_ne!(a, c, "config change must bust the key");
        let d = decode(r#"{"query":[1,2,3],"algo":"basic"}"#).unwrap().key();
        assert_ne!(a, d, "algorithm change must bust the key");
    }

    #[test]
    fn bad_bodies_are_rejected_with_reasons() {
        for (body, needle) in [
            ("", "json error"),
            ("[]", "must be a JSON object"),
            ("{}", "missing required field"),
            (r#"{"query":[]}"#, "must not be empty"),
            (r#"{"query":"ab"}"#, "must be an array"),
            (r#"{"query":[1.5]}"#, "non-negative integer labels"),
            (r#"{"query":[-1]}"#, "non-negative integer labels"),
            (r#"{"query":[1],"algo":"nope"}"#, "unknown algorithm"),
            (r#"{"query":[1],"algo":7}"#, "must be a string"),
            (r#"{"query":[1],"gamma":"x"}"#, "must be a number"),
            (r#"{"query":[1],"gama":3}"#, "unknown field"),
            (r#"{"query":[1],"k":99999999999}"#, "too large"),
            (
                r#"{"query":[1],"gamma":2.0,"gamma":3.0}"#,
                "duplicate field",
            ),
            (r#"{"query":[1],"query":[2]}"#, "duplicate field"),
            (r#"{"query":[1],"eta":0}"#, ">= 1"),
            (r#"{"query":[1],"k":1}"#, ">= 2"),
            (r#"{"query":[1],"k":0}"#, ">= 2"),
        ] {
            let e = decode(body).unwrap_err();
            assert_eq!(e.status, 400, "{body}");
            assert!(
                e.message.contains(needle),
                "{body}: {} should mention {needle:?}",
                e.message
            );
        }
        let too_many: String = format!(
            r#"{{"query":[{}]}}"#,
            (0..=MAX_QUERY_LABELS)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(decode(&too_many).unwrap_err().message.contains("more than"));
    }

    #[test]
    fn update_request_decodes_in_order() {
        let r = decode_update_request(
            br#"{"updates":[{"op":"insert","u":3,"v":7},{"op":"delete","v":1,"u":2}]}"#,
        )
        .unwrap();
        assert_eq!(
            r.ops,
            vec![
                WireUpdate {
                    insert: true,
                    u: 3,
                    v: 7
                },
                WireUpdate {
                    insert: false,
                    u: 2,
                    v: 1
                },
            ]
        );
    }

    #[test]
    fn bad_update_bodies_are_rejected_with_reasons() {
        for (body, needle) in [
            ("", "json error"),
            ("[]", "must be a JSON object"),
            ("{}", "missing required field"),
            (r#"{"updates":[]}"#, "must not be empty"),
            (r#"{"updates":7}"#, "must be an array"),
            (r#"{"updates":[7]}"#, "must be an object"),
            (
                r#"{"updates":[{"op":"insert","u":1,"v":2}],"x":1}"#,
                "unknown field \"x\"",
            ),
            (
                r#"{"updates":[{"op":"upsert","u":1,"v":2}]}"#,
                "unknown op \"upsert\"",
            ),
            (
                r#"{"updates":[{"op":"insert","u":1}]}"#,
                "missing field \"v\"",
            ),
            (r#"{"updates":[{"u":1,"v":2}]}"#, "missing field \"op\""),
            (
                r#"{"updates":[{"op":"insert","u":-1,"v":2}]}"#,
                "non-negative integer label",
            ),
            (
                r#"{"updates":[{"op":"insert","u":1,"v":2,"w":3}]}"#,
                "unknown field \"w\"",
            ),
            (
                r#"{"updates":[{"op":"insert","u":1,"v":2,"u":3}]}"#,
                "duplicate field",
            ),
            (
                r#"{"updates":[{"op":"insert","u":1,"v":2}],"updates":[]}"#,
                "duplicate field",
            ),
        ] {
            let e = decode_update_request(body.as_bytes()).unwrap_err();
            assert_eq!(e.status, 400, "{body}");
            assert!(
                e.message.contains(needle),
                "{body}: {} should mention {needle:?}",
                e.message
            );
        }
        let huge = format!(
            r#"{{"updates":[{}]}}"#,
            (0..=MAX_BATCH_UPDATES)
                .map(|i| format!(r#"{{"op":"insert","u":{i},"v":{}}}"#, i + 1))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(decode_update_request(huge.as_bytes())
            .unwrap_err()
            .message
            .contains("more than"));
    }

    #[test]
    fn update_response_encoding_is_fixed_order() {
        let body = encode_update_response(
            1,
            1,
            4,
            &[
                UpdateOutcome::Applied {
                    trussness: 3,
                    changed: 5,
                },
                UpdateOutcome::Rejected {
                    error: "edge (1,2) is already present".into(),
                },
            ],
        );
        assert_eq!(
            String::from_utf8(body).unwrap(),
            r#"{"applied":1,"rejected":1,"max_class":4,"results":[{"status":"applied","trussness":3,"changed":5},{"status":"rejected","error":"edge (1,2) is already present"}]}"#
        );
    }

    #[test]
    fn community_encoding_is_deterministic_and_labeled() {
        let engine = CommunityEngine::build(figure1_graph());
        let f = Figure1Ids::default();
        let c = engine
            .search(&[f.q1, f.q2, f.q3], SearchAlgo::Basic)
            .unwrap();
        let a = encode_community(&engine, &c);
        let b = encode_community(&engine, &c);
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with(r#"{"k":4,"#), "prefix of {text}");
        assert!(text.contains(r#""num_vertices":8"#));
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("vertices")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(8)
        );
        // Identity labels here: encoded vertices equal the dense ids.
        assert_eq!(
            parsed.get("vertices").unwrap().as_array().unwrap()[0],
            Json::Uint(c.vertices[0].0 as u64)
        );
    }

    /// The `Json`-tree encoding `encode_community` replaced, kept as its
    /// oracle: the two must agree byte for byte.
    fn encode_community_tree(engine: &CommunityEngine, c: &Community) -> Vec<u8> {
        let vertices = Json::Array(
            c.vertices
                .iter()
                .map(|&v| Json::Uint(engine.label_of(v)))
                .collect(),
        );
        let edges = Json::Array(
            c.edges
                .iter()
                .map(|&(u, v)| {
                    Json::Array(vec![
                        Json::Uint(engine.label_of(u)),
                        Json::Uint(engine.label_of(v)),
                    ])
                })
                .collect(),
        );
        Json::Object(vec![
            ("k".into(), Json::Uint(c.k as u64)),
            ("num_vertices".into(), Json::Uint(c.num_vertices() as u64)),
            ("num_edges".into(), Json::Uint(c.num_edges() as u64)),
            ("query_distance".into(), Json::Uint(c.query_distance as u64)),
            ("vertices".into(), vertices),
            ("edges".into(), edges),
        ])
        .encode()
        .into_bytes()
    }

    /// Figure 1 under a label table of digit-count boundaries, from `0`
    /// to `u64::MAX`, one per vertex.
    fn labeled_engine() -> CommunityEngine {
        let labels = vec![
            u64::MAX,
            0,
            9,
            10,
            99,
            100,
            u64::from(u32::MAX),
            1 << 32,
            9_999_999_999_999_999_999,
            10_000_000_000_000_000_000,
            u64::MAX - 1,
            7,
        ];
        CommunityEngine::from_snapshot(
            ctc_truss::Snapshot::build(figure1_graph())
                .with_labels(labels)
                .unwrap(),
        )
    }

    fn community(k: u32, query_distance: u32, vertices: &[u32], edges: &[(u32, u32)]) -> Community {
        use ctc_graph::VertexId;
        Community {
            k,
            vertices: vertices.iter().map(|&v| VertexId(v)).collect(),
            edges: edges
                .iter()
                .map(|&(u, v)| (VertexId(u), VertexId(v)))
                .collect(),
            query_distance,
            iterations: 0,
            g0_size: (0, 0),
            timings: Default::default(),
        }
    }

    /// Encodes with both encoders and checks they agree, and that the new
    /// one's buffer is exactly the body's size.
    fn assert_matches_oracle(engine: &CommunityEngine, c: &Community) -> Vec<u8> {
        let body = encode_community(engine, c);
        assert_eq!(
            String::from_utf8_lossy(&body),
            String::from_utf8_lossy(&encode_community_tree(engine, c))
        );
        assert_eq!(body.capacity(), body.len(), "exact-size buffer");
        body
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..Default::default()
        })]

        /// Random communities over the labeled table (every digit count
        /// from 1 to 20) and over identity labels spanning the `u32` ids.
        #[test]
        fn community_encoding_matches_the_json_tree(
            header in (0u32..u32::MAX, 0u32..u32::MAX),
            small in proptest::collection::vec(0u32..12, 0..24),
            small_edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
            wide in proptest::collection::vec(0u32..u32::MAX, 0..24),
            wide_edges in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..24),
        ) {
            let labeled = labeled_engine();
            let identity = CommunityEngine::build(figure1_graph());
            let (k, qd) = header;
            for (engine, c) in [
                (&labeled, community(k, qd, &small, &small_edges)),
                (&identity, community(k, qd, &small, &small_edges)),
                (&identity, community(k % 16, qd % 8, &wide, &wide_edges)),
            ] {
                let body = encode_community(engine, &c);
                proptest::prop_assert_eq!(
                    &body,
                    &encode_community_tree(engine, &c),
                    "{c:?}"
                );
                proptest::prop_assert_eq!(body.capacity(), body.len());
            }
        }
    }

    #[test]
    fn community_encoding_edge_cases_match_the_json_tree() {
        let labeled = labeled_engine();
        let identity = CommunityEngine::build(figure1_graph());
        for engine in [&labeled, &identity] {
            let empty = assert_matches_oracle(engine, &community(0, 0, &[], &[]));
            assert_eq!(
                empty,
                br#"{"k":0,"num_vertices":0,"num_edges":0,"query_distance":0,"vertices":[],"edges":[]}"#
            );
            assert_matches_oracle(engine, &community(2, 1, &[0, 1], &[(0, 1)]));
            assert_matches_oracle(engine, &community(u32::MAX, u32::MAX, &[0], &[]));
        }
        // Labels 0 and u64::MAX end to end.
        let one_edge = assert_matches_oracle(&labeled, &community(2, 1, &[0, 1], &[(1, 0)]));
        assert_eq!(
            one_edge,
            br#"{"k":2,"num_vertices":2,"num_edges":1,"query_distance":1,"vertices":[18446744073709551615,0],"edges":[[0,18446744073709551615]]}"#
        );
        // Real answers, every algorithm, both label modes.
        let f = Figure1Ids::default();
        for engine in [&labeled, &identity] {
            for algo in [
                SearchAlgo::Basic,
                SearchAlgo::BulkDelete,
                SearchAlgo::Local,
                SearchAlgo::TrussOnly,
            ] {
                let c = engine.search(&[f.q1, f.q2, f.q3], algo).unwrap();
                assert_matches_oracle(engine, &c);
            }
        }
    }

    #[test]
    fn error_mapping_covers_the_taxonomy() {
        assert_eq!(search_error_response(&GraphError::EmptyQuery).0, 400);
        assert_eq!(
            search_error_response(&GraphError::VertexOutOfRange { vertex: 9, n: 3 }).0,
            404
        );
        assert_eq!(search_error_response(&GraphError::Disconnected).0, 422);
        assert_eq!(search_error_response(&GraphError::Io("x".into())).0, 500);
        let (_, _, body) = search_error_response(&GraphError::EmptyQuery);
        assert_eq!(body, br#"{"error":"query vertex set is empty"}"#);
    }

    #[test]
    fn encode_error_escapes() {
        assert_eq!(
            encode_error("a \"quoted\" thing"),
            br#"{"error":"a \"quoted\" thing"}"#
        );
    }
}
