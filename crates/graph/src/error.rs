//! Error type shared across the graph substrate.

use std::fmt;

/// Errors produced while building, loading or querying graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id referenced a vertex outside the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// An operation required a connected graph but the input was not.
    Disconnected,
    /// The query set was empty where at least one query vertex is required.
    EmptyQuery,
    /// A parse error while reading an edge-list file.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O failure, carried as a string so the error stays `Clone + Eq`.
    Io(String),
    /// A malformed snapshot or log (bad magic, truncated section, checksum
    /// mismatch, inconsistent arrays).
    Corrupt(String),
    /// A snapshot or log written by a newer, forward-incompatible format
    /// version. Distinct from [`GraphError::Corrupt`]: the file is
    /// intact, this build is just too old to read it.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Newest version this build can read.
        supported: u32,
    },
    /// An edge insertion named an edge the graph already carries.
    DuplicateEdge {
        /// Smaller endpoint (canonical order).
        u: u32,
        /// Larger endpoint (canonical order).
        v: u32,
    },
    /// An edge deletion (or lookup) named an edge the graph does not carry.
    MissingEdge {
        /// Smaller endpoint (canonical order).
        u: u32,
        /// Larger endpoint (canonical order).
        v: u32,
    },
    /// An update named the same vertex as both endpoints; the graphs here
    /// are simple (no self-loops).
    SelfLoop {
        /// The repeated endpoint.
        v: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex id {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::EmptyQuery => write!(f, "query vertex set is empty"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "io error: {msg}"),
            GraphError::Corrupt(msg) => write!(f, "corrupt graph image: {msg}"),
            GraphError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge ({u},{v}) is already present")
            }
            GraphError::MissingEdge { u, v } => {
                write!(f, "edge ({u},{v}) is not present")
            }
            GraphError::SelfLoop { v } => {
                write!(f, "self-loop ({v},{v}) is not allowed")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 9, n: 3 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("3"));
        assert!(GraphError::Disconnected.to_string().contains("connected"));
        let p = GraphError::Parse {
            line: 4,
            message: "bad token".into(),
        };
        assert!(p.to_string().contains("line 4"));
    }

    #[test]
    fn unsupported_version_names_both_versions() {
        let e = GraphError::UnsupportedVersion {
            found: 7,
            supported: 1,
        };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("1"));
    }

    #[test]
    fn update_rejections_name_the_edge() {
        let d = GraphError::DuplicateEdge { u: 3, v: 17 };
        assert!(d.to_string().contains("(3,17)"));
        assert!(d.to_string().contains("already"));
        let m = GraphError::MissingEdge { u: 5, v: 9 };
        assert!(m.to_string().contains("(5,9)"));
        assert!(m.to_string().contains("not present"));
        let s = GraphError::SelfLoop { v: 4 };
        assert!(s.to_string().contains("(4,4)"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}
