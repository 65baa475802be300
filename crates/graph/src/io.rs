//! Graph serialization: SNAP-style edge lists, a compact binary image, and
//! the building blocks of the `.ctci` snapshot format.
//!
//! The paper's datasets ship as whitespace-separated edge lists with `#`
//! comments (SNAP format); [`read_edge_list`] accepts exactly that. The
//! binary image is a little-endian `u32` dump framed with a magic header,
//! assembled through the `bytes` crate.
//!
//! The snapshot layer (consumed by `ctc_truss::snapshot`, specified
//! byte-for-byte in `docs/INDEX_FORMAT.md`) builds on three primitives
//! defined here: length-prefixed little-endian word sections
//! ([`put_u32_section`] / [`get_u32_section`] and the `u64` variants), the
//! checksums that seal a snapshot against corruption ([`lanes64`] since
//! format version 2, [`fnv1a64`] before), and the graph section
//! ([`put_graph_section`] / [`get_graph_section`]) that dumps the CSR
//! arrays verbatim so loading skips the `O(m log m)` rebuild.

/// The storage seam persistence code writes through (re-exported here
/// because file IO is this module's concern; defined in
/// [`crate::storage`]).
pub use crate::storage::{real_env, tmp_path, write_durable, FaultEnv, RealEnv, StorageEnv};

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::fx::FxHashMap;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Magic bytes prefixing the binary graph image.
pub const MAGIC: &[u8; 4] = b"CTCG";
/// Binary image format version.
pub const VERSION: u32 = 1;

/// Reads a SNAP-style edge list: one `u v` pair per line, `#` comments and
/// blank lines ignored. Vertex labels may be arbitrary non-negative
/// integers; they are compacted to dense ids in first-seen order. Returns
/// the graph and the dense-id → original-label table.
pub fn read_edge_list<R: Read>(reader: R) -> Result<(CsrGraph, Vec<u64>)> {
    let reader = BufReader::new(reader);
    let mut relabel: FxHashMap<u64, u32> = FxHashMap::default();
    let mut labels: Vec<u64> = Vec::new();
    let mut builder = GraphBuilder::new();
    let intern = |raw: u64, labels: &mut Vec<u64>, relabel: &mut FxHashMap<u64, u32>| -> u32 {
        *relabel.entry(raw).or_insert_with(|| {
            labels.push(raw);
            (labels.len() - 1) as u32
        })
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64> {
            let tok = tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: "expected two vertex ids".into(),
            })?;
            tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                message: format!("not a vertex id: {tok:?}"),
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        let lu = intern(u, &mut labels, &mut relabel);
        let lv = intern(v, &mut labels, &mut relabel);
        builder.add_edge(lu, lv);
    }
    builder.ensure_vertices(labels.len());
    Ok((builder.build(), labels))
}

/// Writes `g` as an edge list (`u v` per line, dense ids).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> Result<()> {
    writeln!(
        w,
        "# ctc graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Serializes `g` into the compact binary image.
pub fn to_bytes(g: &CsrGraph) -> Bytes {
    let m = g.num_edges();
    let mut buf = BytesMut::with_capacity(16 + 8 * m);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(g.num_vertices() as u32);
    buf.put_u32_le(m as u32);
    for (_, u, v) in g.edges() {
        buf.put_u32_le(u.0);
        buf.put_u32_le(v.0);
    }
    buf.freeze()
}

/// Deserializes a graph from the binary image produced by [`to_bytes`].
pub fn from_bytes(mut data: &[u8]) -> Result<CsrGraph> {
    if data.len() < 16 {
        return Err(GraphError::Corrupt("image shorter than header".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::Corrupt("bad magic".into()));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(GraphError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let n = data.get_u32_le() as usize;
    let m = data.get_u32_le() as usize;
    if data.remaining() < 8 * m {
        return Err(GraphError::Corrupt(format!(
            "truncated edge section: want {} bytes, have {}",
            8 * m,
            data.remaining()
        )));
    }
    let mut builder = GraphBuilder::with_capacity(m);
    builder.ensure_vertices(n);
    for _ in 0..m {
        let u = data.get_u32_le();
        let v = data.get_u32_le();
        if u as usize >= n || v as usize >= n {
            return Err(GraphError::Corrupt(format!(
                "edge ({u},{v}) out of range for n={n}"
            )));
        }
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

// ---------------------------------------------------------------------------
// Snapshot primitives (`.ctci` building blocks; see docs/INDEX_FORMAT.md).
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash: the trailer of version-1 `.ctci` snapshots and the
/// `.ctcd` delta log's checksum.
///
/// Chosen over a table-driven CRC for being 6 lines of dependency-free code
/// while still detecting every single-byte corruption: each step
/// `h ← (h ⊕ b) × p` is a bijection of the running state, so two byte
/// streams differing in one position can never re-converge. The chain is
/// byte-serial, one multiply per byte; [`lanes64`] keeps the guarantee at
/// word width across four independent lanes.
///
/// ```
/// use ctc_graph::io::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325); // the FNV offset basis
/// assert_ne!(fnv1a64(b"ctci"), fnv1a64(b"ctcj"));
/// ```
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Multiplier of the [`lanes64`] step: `2⁶⁴/φ`, odd.
const LANE_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation of the [`lanes64`] step.
const LANE_ROTATE: u32 = 31;
/// Start states of the four [`lanes64`] lanes, then of the fold: the
/// first five SHA-512 initial hash words.
const LANE_SEEDS: [u64; 5] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
];

/// One [`lanes64`] step, `rotl((h ⊕ w) · P, r)`: a bijection of `h` for a
/// fixed `w` and of `w` for a fixed `h` (xor, multiplication by an odd
/// constant mod 2⁶⁴ and rotation are each invertible).
#[inline(always)]
fn lane_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(LANE_PRIME).rotate_left(LANE_ROTATE)
}

/// The word-parallel checksum sealing `.ctci` snapshots from format
/// version 2 on.
///
/// The input is read as little-endian `u64` words in 32-byte blocks; word
/// `i` of every block feeds lane `i` through the step
/// `h ← rotl((h ⊕ w) · P, r)`. A fold seeded with the fifth seed then
/// steps in the byte length, the four lane states in lane order, and the
/// tail of fewer than 32 bytes as 8-byte words, the last one zero-padded.
/// Every step is a bijection in both arguments, so inputs of one length
/// that differ in a single byte differ in exactly one word and can never
/// re-converge — the guarantee [`fnv1a64`] gives, but four independent
/// multiply chains run at once. `docs/INDEX_FORMAT.md` specifies the
/// function for independent readers.
///
/// ```
/// use ctc_graph::io::lanes64;
///
/// assert_eq!(lanes64(b""), 0x062a_b1e9_a544_b174);
/// assert_ne!(lanes64(b"ctci"), lanes64(b"ctcj"));
/// ```
pub fn lanes64(data: &[u8]) -> u64 {
    let (blocks, tail) = data.as_chunks::<32>();
    let [mut a, mut b, mut c, mut d, seed] = LANE_SEEDS;
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        a = lane_step(a, u64::from_le_bytes(words[0]));
        b = lane_step(b, u64::from_le_bytes(words[1]));
        c = lane_step(c, u64::from_le_bytes(words[2]));
        d = lane_step(d, u64::from_le_bytes(words[3]));
    }
    let mut h = lane_step(seed, data.len() as u64);
    for lane in [a, b, c, d] {
        h = lane_step(h, lane);
    }
    for chunk in tail.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = lane_step(h, u64::from_le_bytes(word));
    }
    h
}

/// Appends a length-prefixed little-endian `u32` section: the word count as
/// a `u32`, then the words.
pub fn put_u32_section(buf: &mut BytesMut, words: &[u32]) {
    buf.put_u32_le(words.len() as u32);
    for &w in words {
        buf.put_u32_le(w);
    }
}

/// Splits a length-prefixed section of `W`-byte words off the front of
/// `data` and returns the words' raw bytes. `what` names the section in
/// the [`GraphError::Corrupt`] message.
fn take_section<'a, const W: usize>(data: &mut &'a [u8], what: &str) -> Result<&'a [[u8; W]]> {
    let Some((len, rest)) = data.split_first_chunk::<4>() else {
        return Err(GraphError::Corrupt(format!(
            "truncated before {what} section length"
        )));
    };
    let len = u32::from_le_bytes(*len) as usize;
    // Divide instead of multiplying so a crafted length can't overflow
    // usize (32-bit targets) and sneak past the bound.
    if rest.len() / W < len {
        return Err(GraphError::Corrupt(format!(
            "truncated {what} section: want {len} words, have {} bytes",
            rest.len()
        )));
    }
    let (words, rest) = rest.split_at(len * W);
    *data = rest;
    Ok(words.as_chunks::<W>().0)
}

/// Reads a section written by [`put_u32_section`], advancing `data` past
/// it. `what` names the section in the [`GraphError::Corrupt`] message.
pub fn get_u32_section(data: &mut &[u8], what: &str) -> Result<Vec<u32>> {
    let words = take_section::<4>(data, what)?;
    Ok(words.iter().map(|&w| u32::from_le_bytes(w)).collect())
}

/// Appends a length-prefixed little-endian `u64` section (count as `u32`,
/// then the words) — used for the snapshot's vertex-label table.
pub fn put_u64_section(buf: &mut BytesMut, words: &[u64]) {
    buf.put_u32_le(words.len() as u32);
    for &w in words {
        buf.put_u64_le(w);
    }
}

/// Reads a section written by [`put_u64_section`].
pub fn get_u64_section(data: &mut &[u8], what: &str) -> Result<Vec<u64>> {
    let words = take_section::<8>(data, what)?;
    Ok(words.iter().map(|&w| u64::from_le_bytes(w)).collect())
}

/// Appends the snapshot graph section: `n`, `m`, then the four raw CSR
/// arrays (offsets, neighbors, arc edge ids, canonical endpoint pairs) as
/// `u32` sections. Dumping the arrays verbatim is what makes snapshot loads
/// cheap — [`get_graph_section`] revalidates instead of rebuilding.
pub fn put_graph_section(buf: &mut BytesMut, g: &CsrGraph) {
    buf.put_u32_le(g.num_vertices() as u32);
    buf.put_u32_le(g.num_edges() as u32);
    put_u32_section(buf, g.offsets_raw());
    put_u32_section(buf, g.neighbors_raw());
    put_u32_section(buf, g.arc_edges_raw());
    let mut flat = Vec::with_capacity(2 * g.num_edges());
    for (_, u, v) in g.edges() {
        flat.push(u.0);
        flat.push(v.0);
    }
    put_u32_section(buf, &flat);
}

/// Reads a graph section written by [`put_graph_section`], fully
/// revalidating the CSR invariants via [`CsrGraph::from_raw_parts`] so a
/// corrupt file can never yield a structurally broken graph.
pub fn get_graph_section(data: &mut &[u8]) -> Result<CsrGraph> {
    if data.remaining() < 8 {
        return Err(GraphError::Corrupt("truncated graph header".into()));
    }
    let n = data.get_u32_le() as usize;
    let m = data.get_u32_le() as usize;
    let offsets = get_u32_section(data, "offsets")?;
    let neighbors = get_u32_section(data, "neighbors")?;
    let arc_edge = get_u32_section(data, "arc edge ids")?;
    let flat = take_section::<4>(data, "edge endpoints")?;
    if offsets.len() != n + 1 {
        return Err(GraphError::Corrupt(format!(
            "offsets section has {} entries, want n+1 = {}",
            offsets.len(),
            n + 1
        )));
    }
    if flat.len() != 2 * m {
        return Err(GraphError::Corrupt(format!(
            "edge section has {} words, want 2m = {}",
            flat.len(),
            2 * m
        )));
    }
    let edges: Vec<(u32, u32)> = flat
        .as_chunks::<2>()
        .0
        .iter()
        .map(|[u, v]| (u32::from_le_bytes(*u), u32::from_le_bytes(*v)))
        .collect();
    CsrGraph::from_raw_parts(offsets, neighbors, arc_edge, edges)
}

/// Loads an edge-list file from disk.
pub fn load_edge_list_path<P: AsRef<Path>>(path: P) -> Result<(CsrGraph, Vec<u64>)> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f)
}

/// Saves an edge-list file to disk.
pub fn save_edge_list_path<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::ids::VertexId;

    #[test]
    fn edge_list_roundtrip() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let (g2, labels) = read_edge_list(&out[..]).unwrap();
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn snap_style_input_parses() {
        let text = "# comment line\n\n5 7\n7 9\n5 9\n";
        let (g, labels) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(labels, vec![5, 7, 9]);
        // Dense relabeling: original 5 is dense 0.
        assert!(g.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\n2 x\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_token_is_parse_error() {
        let err = read_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn binary_roundtrip() {
        let g = graph_from_edges(&[(0, 3), (1, 3), (2, 3), (0, 1)]);
        let img = to_bytes(&g);
        let g2 = from_bytes(&img).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_bytes(b"nope").is_err());
        assert!(from_bytes(b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").is_err());
        // Valid header claiming edges that are not present.
        let mut img = BytesMut::new();
        img.put_slice(MAGIC);
        img.put_u32_le(VERSION);
        img.put_u32_le(2);
        img.put_u32_le(5);
        assert!(from_bytes(&img).is_err());
    }

    #[test]
    fn version_mismatch_is_typed() {
        let g = graph_from_edges(&[(0, 1)]);
        let mut img = BytesMut::new();
        img.put_slice(&to_bytes(&g));
        let mut raw = img.to_vec();
        raw[4] = 99; // bump the version field
        assert_eq!(
            from_bytes(&raw).unwrap_err(),
            GraphError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            }
        );
    }

    #[test]
    fn u32_sections_roundtrip_and_reject_truncation() {
        let mut buf = BytesMut::new();
        put_u32_section(&mut buf, &[7, 8, 9]);
        put_u32_section(&mut buf, &[]);
        let raw = buf.to_vec();
        let mut data = &raw[..];
        assert_eq!(get_u32_section(&mut data, "a").unwrap(), vec![7, 8, 9]);
        assert_eq!(get_u32_section(&mut data, "b").unwrap(), Vec::<u32>::new());
        assert!(data.is_empty());
        let mut short = &raw[..raw.len() - 2];
        assert!(get_u32_section(&mut short, "a").is_ok());
        assert!(matches!(
            get_u32_section(&mut short, "b").unwrap_err(),
            GraphError::Corrupt(_)
        ));
        let mut empty: &[u8] = &[];
        assert!(get_u32_section(&mut empty, "c").is_err());
    }

    #[test]
    fn huge_section_length_is_rejected_not_panicking() {
        // A length word near u32::MAX must fail the bound check cleanly on
        // every target width, never reach the Buf reads.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0x4000_0002);
        buf.put_u32_le(7);
        let raw = buf.to_vec();
        let mut data = &raw[..];
        assert!(get_u32_section(&mut data, "huge").is_err());
        let mut data = &raw[..];
        assert!(get_u64_section(&mut data, "huge").is_err());
    }

    #[test]
    fn u64_sections_roundtrip() {
        let mut buf = BytesMut::new();
        put_u64_section(&mut buf, &[u64::MAX, 0, 42]);
        let raw = buf.to_vec();
        let mut data = &raw[..];
        assert_eq!(
            get_u64_section(&mut data, "labels").unwrap(),
            vec![u64::MAX, 0, 42]
        );
        let mut short = &raw[..raw.len() - 1];
        assert!(get_u64_section(&mut short, "labels").is_err());
    }

    #[test]
    fn graph_section_roundtrip() {
        let g = graph_from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3), (1, 4)]);
        let mut buf = BytesMut::new();
        put_graph_section(&mut buf, &g);
        let raw = buf.to_vec();
        let mut data = &raw[..];
        let g2 = get_graph_section(&mut data).unwrap();
        assert_eq!(g, g2);
        assert!(data.is_empty());
        // Any truncation point fails cleanly.
        for cut in [0, 4, 9, raw.len() - 1] {
            let mut short = &raw[..cut];
            assert!(get_graph_section(&mut short).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn fnv_checksum_is_stable_and_sensitive() {
        let a = fnv1a64(b"closest truss community");
        assert_eq!(a, fnv1a64(b"closest truss community"));
        for i in 0..23 {
            let mut flipped = b"closest truss community".to_vec();
            flipped[i] ^= 0x10;
            assert_ne!(a, fnv1a64(&flipped), "flip at byte {i} undetected");
        }
    }

    /// `len` bytes, byte `i` = `i mod 251` (the golden-vector input of
    /// docs/INDEX_FORMAT.md).
    fn mod251(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn lanes64_golden_values() {
        // Pinned: lanes64 seals every snapshot on disk, so any change to
        // its constants, lane order, fold order or tail handling must
        // fail here rather than orphan existing files.
        for (len, want) in [
            (0, 0x062a_b1e9_a544_b174),
            (1, 0x30fc_fe89_7fea_32ed),
            (31, 0x5906_822c_d61e_8a63),
            (32, 0x894c_a038_7b24_a010),
            (33, 0xa841_f3b0_23b5_35e9),
            (1 << 20, 0x8bef_0a3c_2906_cd2f),
        ] {
            assert_eq!(lanes64(&mod251(len)), want, "{len}-byte input");
        }
    }

    #[test]
    fn lanes64_detects_every_single_byte_change() {
        // Every length covers a different split into lanes, fold and tail:
        // 0..=100 spans zero to three full blocks and every tail size.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in 0..=100usize {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let want = lanes64(&data);
            for pos in 0..len {
                for mask in [0x01, 0x80, 0xff] {
                    let mut changed = data.clone();
                    changed[pos] ^= mask;
                    assert_ne!(
                        lanes64(&changed),
                        want,
                        "{len} bytes: xor {mask:#04x} at {pos} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes64_covers_the_length() {
        // Zero padding of the tail word never aliases a shorter input.
        for len in 0..40 {
            assert_ne!(lanes64(&vec![0; len]), lanes64(&vec![0; len + 1]));
        }
    }

    #[test]
    fn binary_rejects_out_of_range_edge() {
        let mut img = BytesMut::new();
        img.put_slice(MAGIC);
        img.put_u32_le(VERSION);
        img.put_u32_le(2); // n = 2
        img.put_u32_le(1); // m = 1
        img.put_u32_le(0);
        img.put_u32_le(7); // vertex 7 out of range
        assert!(from_bytes(&img).is_err());
    }
}
