//! Persistent truss-index snapshots: the `.ctci` on-disk format.
//!
//! The paper splits CTC search into an offline `O(ρ·m)` index construction
//! (§4.3, Remark 1) and fast online queries — but an index that only lives
//! in memory pays the offline cost on every process start. A [`Snapshot`]
//! captures everything the online phase needs — the CSR graph, the
//! per-edge trussness array, and the original vertex labels — in one
//! versioned, checksummed little-endian file, so a serving process loads
//! in `O(n + m)` with no triangle counting, no peeling, and no row
//! sorting beyond the deterministic truss-order rebuild.
//!
//! Byte-level layout (specified independently in `docs/INDEX_FORMAT.md`):
//!
//! ```text
//! magic   "CTCI"                          4 bytes
//! version u32 LE                          (currently 1)
//! graph   n, m, offsets, neighbors,       u32-LE sections
//!         arc edge ids, edge endpoints
//! labels  dense id → original label       u64-LE section (may be empty)
//! truss   per-edge trussness, max truss   u32-LE section + u32
//! trailer FNV-1a 64 over all prior bytes  8 bytes LE
//! ```
//!
//! Corruption (truncation, bit flips, inconsistent arrays) surfaces as
//! [`GraphError::Corrupt`]; a file written by a newer format surfaces as
//! [`GraphError::UnsupportedVersion`]. Neither path panics.
//!
//! ```
//! use ctc_truss::{fixtures, Snapshot};
//!
//! let snap = Snapshot::build(fixtures::figure1_graph());
//! let bytes = snap.to_bytes();
//! let loaded = Snapshot::from_bytes(&bytes).unwrap();
//! assert_eq!(loaded.graph, snap.graph);
//! assert_eq!(loaded.index.edge_truss_slice(), snap.index.edge_truss_slice());
//! ```

use crate::decompose::TrussDecomposition;
use crate::index::TrussIndex;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ctc_graph::error::{GraphError, Result};
use ctc_graph::io::{
    fnv1a64, get_graph_section, get_u32_section, get_u64_section, put_graph_section,
    put_u32_section, put_u64_section,
};
use ctc_graph::storage::{write_durable, RealEnv, StorageEnv};
use ctc_graph::{CsrGraph, Parallelism, VertexId};
use std::path::Path;
use std::sync::OnceLock;

/// Magic bytes opening a `.ctci` snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"CTCI";
/// Newest snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Bytes of the FNV-1a 64 checksum trailer.
const TRAILER_LEN: usize = 8;
/// Bytes of magic + version header.
const HEADER_LEN: usize = 8;

/// A graph, its truss index, and the vertex-label table, as one loadable
/// unit.
///
/// `labels` maps dense vertex ids back to the input file's original vertex
/// labels (the table [`ctc_graph::io::read_edge_list`] returns); an empty
/// table means labels equal dense ids. Keeping it inside the snapshot is
/// what lets `ctc-cli search --index` answer label-addressed queries
/// identically to a cold run over the original edge list.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The indexed graph.
    pub graph: CsrGraph,
    /// Its truss index.
    pub index: TrussIndex,
    /// Dense id → original label (empty ⇒ identity).
    pub labels: Vec<u64>,
}

impl Snapshot {
    /// Builds graph + index into a snapshot (serial decomposition; the
    /// offline cost of Table 3).
    pub fn build(graph: CsrGraph) -> Self {
        Self::build_par(graph, Parallelism::serial())
    }

    /// Builds with the decomposition spread over `par` worker threads.
    /// Identical output for every thread count.
    pub fn build_par(graph: CsrGraph, par: Parallelism) -> Self {
        let index = TrussIndex::build_par(&graph, par);
        Snapshot {
            graph,
            index,
            labels: Vec::new(),
        }
    }

    /// Attaches a dense-id → original-label table (must have one entry per
    /// vertex, or be empty for the identity mapping).
    pub fn with_labels(mut self, labels: Vec<u64>) -> Result<Self> {
        if !labels.is_empty() && labels.len() != self.graph.num_vertices() {
            return Err(GraphError::Corrupt(format!(
                "label table has {} entries for {} vertices",
                labels.len(),
                self.graph.num_vertices()
            )));
        }
        self.labels = labels;
        Ok(self)
    }

    /// The original label of dense vertex `v`.
    pub fn label_of(&self, v: VertexId) -> u64 {
        label_of(&self.labels, v)
    }

    /// The dense id carrying original label `label`, if any (linear scan,
    /// mirroring the CLI's label resolution).
    pub fn vertex_of_label(&self, label: u64) -> Option<VertexId> {
        vertex_of_label(&self.labels, self.graph.num_vertices(), label)
    }

    /// Serializes to the `.ctci` byte image.
    pub fn to_bytes(&self) -> Bytes {
        snapshot_to_bytes(&self.graph, &self.index, &self.labels)
    }

    /// Deserializes a `.ctci` byte image, verifying the checksum and every
    /// structural invariant.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        snapshot_from_bytes(data)
    }

    /// Writes the snapshot to `path` (conventionally `*.ctci`) with
    /// crash-safety discipline: sibling temp file → fsync → rename →
    /// parent-directory fsync. After a crash at any point `path` holds
    /// either the complete old image or the complete new one.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        self.save_in(&RealEnv, path.as_ref())
    }

    /// [`save`](Self::save) against an explicit storage environment.
    pub fn save_in(&self, env: &dyn StorageEnv, path: &Path) -> Result<()> {
        write_durable(env, path, &self.to_bytes())
    }

    /// Loads a snapshot file written by [`Snapshot::save`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::load_in(&RealEnv, path.as_ref())
    }

    /// [`load`](Self::load) against an explicit storage environment.
    pub fn load_in(env: &dyn StorageEnv, path: &Path) -> Result<Self> {
        let data = env.read(path)?;
        Self::from_bytes(&data)
    }
}

/// The original label of dense vertex `v` under a label table (empty ⇒
/// identity). Shared by [`Snapshot`] and the warm-start engine so the two
/// can never diverge on label semantics.
pub fn label_of(labels: &[u64], v: VertexId) -> u64 {
    if labels.is_empty() {
        v.0 as u64
    } else {
        labels[v.index()]
    }
}

/// The dense id carrying original label `label` under a table covering `n`
/// vertices, if any (linear scan; empty table ⇒ identity).
pub fn vertex_of_label(labels: &[u64], n: usize, label: u64) -> Option<VertexId> {
    if labels.is_empty() {
        return usize::try_from(label)
            .ok()
            .filter(|&v| v < n)
            .map(VertexId::from);
    }
    labels.iter().position(|&l| l == label).map(VertexId::from)
}

/// A label table that resolves labels by binary search: the reverse
/// `(label, id)` index is sorted on the first lookup and kept, so a
/// long-lived holder (a serving engine, shared by its clones behind an
/// `Arc`) pays one sort rather than a scan per label. An empty
/// (identity) table resolves arithmetically and never builds the index.
#[derive(Debug)]
pub struct LabelTable {
    labels: Vec<u64>,
    by_label: OnceLock<Box<[(u64, VertexId)]>>,
}

impl LabelTable {
    /// Wraps a dense id → original label table (empty ⇒ identity).
    pub fn new(labels: Vec<u64>) -> Self {
        LabelTable {
            labels,
            by_label: OnceLock::new(),
        }
    }

    /// The dense id → original label table.
    pub fn as_slice(&self) -> &[u64] {
        &self.labels
    }

    /// The original label of dense vertex `v`.
    pub fn label_of(&self, v: VertexId) -> u64 {
        label_of(&self.labels, v)
    }

    /// The dense id carrying `label` among `n` vertices, if any — the
    /// same answer as [`vertex_of_label`], the lowest such id when a
    /// label repeats.
    pub fn vertex_of(&self, label: u64, n: usize) -> Option<VertexId> {
        if self.labels.is_empty() {
            return vertex_of_label(&self.labels, n, label);
        }
        let sorted = self.by_label.get_or_init(|| {
            let mut pairs: Vec<(u64, VertexId)> = self
                .labels
                .iter()
                .enumerate()
                .map(|(i, &l)| (l, VertexId::from(i)))
                .collect();
            pairs.sort_unstable();
            pairs.into_boxed_slice()
        });
        let at = sorted.partition_point(|&(l, _)| l < label);
        sorted
            .get(at)
            .filter(|&&(l, _)| l == label)
            .map(|&(_, v)| v)
    }

    /// Heap bytes held: the table, plus the reverse index once built.
    pub fn memory_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<u64>()
            + self
                .by_label
                .get()
                .map_or(0, |t| std::mem::size_of_val::<[(u64, VertexId)]>(t))
    }
}

/// Serializes graph + index + labels without requiring ownership (the
/// warm-start engine saves through this from its shared `Arc`s).
pub fn snapshot_to_bytes(g: &CsrGraph, idx: &TrussIndex, labels: &[u64]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + 40 * g.num_edges() + 8 * labels.len());
    buf.put_slice(SNAPSHOT_MAGIC);
    buf.put_u32_le(SNAPSHOT_VERSION);
    put_graph_section(&mut buf, g);
    put_u64_section(&mut buf, labels);
    put_u32_section(&mut buf, idx.edge_truss_slice());
    buf.put_u32_le(idx.max_truss());
    let checksum = fnv1a64(&buf);
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Deserializes a `.ctci` image into its three parts.
///
/// Validation order: magic, version, checksum over everything before the
/// trailer, then section-by-section structural checks. The truss index is
/// rebuilt from the stored per-edge trussness via the same deterministic
/// row sort as a cold [`TrussIndex::build`], so every query answer is
/// byte-identical to a cold build's.
pub fn snapshot_from_bytes(data: &[u8]) -> Result<Snapshot> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(GraphError::Corrupt("snapshot shorter than header".into()));
    }
    if &data[..4] != SNAPSHOT_MAGIC {
        return Err(GraphError::Corrupt("bad snapshot magic".into()));
    }
    let mut cursor = &data[4..];
    let version = cursor.get_u32_le();
    if version != SNAPSHOT_VERSION {
        return Err(GraphError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let body = &data[..data.len() - TRAILER_LEN];
    let mut trailer = &data[data.len() - TRAILER_LEN..];
    let want = trailer.get_u64_le();
    let got = fnv1a64(body);
    if got != want {
        return Err(GraphError::Corrupt(format!(
            "checksum mismatch: file says {want:#018x}, content hashes to {got:#018x}"
        )));
    }
    let mut cursor = &body[HEADER_LEN..];
    let graph = get_graph_section(&mut cursor)?;
    let labels = get_u64_section(&mut cursor, "labels")?;
    if !labels.is_empty() && labels.len() != graph.num_vertices() {
        return Err(GraphError::Corrupt(format!(
            "label table has {} entries for {} vertices",
            labels.len(),
            graph.num_vertices()
        )));
    }
    let edge_truss = get_u32_section(&mut cursor, "edge trussness")?;
    if edge_truss.len() != graph.num_edges() {
        return Err(GraphError::Corrupt(format!(
            "trussness section has {} entries for {} edges",
            edge_truss.len(),
            graph.num_edges()
        )));
    }
    if cursor.remaining() < 4 {
        return Err(GraphError::Corrupt("truncated before max trussness".into()));
    }
    let max_truss = cursor.get_u32_le();
    if max_truss != edge_truss.iter().copied().max().unwrap_or(0) {
        return Err(GraphError::Corrupt(format!(
            "stored max trussness {max_truss} disagrees with the trussness array"
        )));
    }
    if cursor.remaining() > 0 {
        return Err(GraphError::Corrupt(format!(
            "{} trailing bytes after the truss section",
            cursor.remaining()
        )));
    }
    let decomp = TrussDecomposition {
        edge_truss,
        max_truss,
    };
    let index = TrussIndex::from_decomposition(&graph, &decomp);
    Ok(Snapshot {
        graph,
        index,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure1_graph;
    use ctc_graph::graph_from_edges;

    fn fig1_snapshot() -> Snapshot {
        Snapshot::build(figure1_graph())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = fig1_snapshot()
            .with_labels((0..12).map(|i| 1000 + i as u64).collect())
            .unwrap();
        let loaded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(loaded.graph, snap.graph);
        assert_eq!(
            loaded.index.edge_truss_slice(),
            snap.index.edge_truss_slice()
        );
        assert_eq!(loaded.index.max_truss(), snap.index.max_truss());
        assert_eq!(loaded.labels, snap.labels);
        for v in snap.graph.vertices() {
            assert_eq!(loaded.index.sorted_row(v), snap.index.sorted_row(v));
            assert_eq!(loaded.index.vertex_truss(v), snap.index.vertex_truss(v));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ctc_snapshot_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.ctci");
        let snap = fig1_snapshot();
        snap.save(&path).unwrap();
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.graph, snap.graph);
        assert_eq!(
            loaded.index.edge_truss_slice(),
            snap.index.edge_truss_slice()
        );
    }

    #[test]
    fn every_truncation_is_an_error() {
        let raw = fig1_snapshot().to_bytes();
        for cut in 0..raw.len() {
            assert!(
                Snapshot::from_bytes(&raw[..cut]).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_an_error() {
        let raw = fig1_snapshot().to_bytes().to_vec();
        for i in 0..raw.len() {
            let mut bad = raw.clone();
            bad[i] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn newer_version_is_typed_not_corrupt() {
        let mut raw = fig1_snapshot().to_bytes().to_vec();
        raw[4] = 2; // version field
        assert_eq!(
            Snapshot::from_bytes(&raw).unwrap_err(),
            GraphError::UnsupportedVersion {
                found: 2,
                supported: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut raw = fig1_snapshot().to_bytes().to_vec();
        raw[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&raw).unwrap_err(),
            GraphError::Corrupt(_)
        ));
    }

    #[test]
    fn wrong_label_count_rejected() {
        let snap = fig1_snapshot();
        assert!(snap.with_labels(vec![1, 2, 3]).is_err());
    }

    #[test]
    fn label_resolution_identity_and_table() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        let bare = Snapshot::build(g.clone());
        assert_eq!(bare.label_of(VertexId(1)), 1);
        assert_eq!(bare.vertex_of_label(2), Some(VertexId(2)));
        assert_eq!(bare.vertex_of_label(99), None);
        let labeled = Snapshot::build(g).with_labels(vec![50, 60, 70]).unwrap();
        assert_eq!(labeled.label_of(VertexId(1)), 60);
        assert_eq!(labeled.vertex_of_label(70), Some(VertexId(2)));
        assert_eq!(labeled.vertex_of_label(0), None);
    }

    #[test]
    fn empty_graph_snapshots() {
        let g = graph_from_edges(&[]);
        let snap = Snapshot::build(g);
        let loaded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 0);
        assert_eq!(loaded.index.max_truss(), 0);
    }
}
