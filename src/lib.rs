//! Umbrella crate for the TESC reproduction workspace.
//!
//! This crate exists to host the repository-level examples
//! (`examples/`) and the cross-crate integration tests (`tests/`);
//! it simply re-exports the workspace members:
//!
//! * [`tesc`] — the TESC measure and testing framework (the paper's
//!   contribution).
//! * [`tesc_graph`] — CSR graphs, BFS toolkit, vicinity index,
//!   generators.
//! * [`tesc_stats`] — Kendall's τ, tie-corrected variance, normal
//!   distribution.
//! * [`tesc_events`] — event stores and the Sec. 5.2 event simulator.
//! * [`tesc_baselines`] — transaction correlation, proximity pattern
//!   mining, hitting time.
//! * [`tesc_datasets`] — DBLP-like / Intrusion-like / Twitter-like
//!   scenario builders.
//!
//! Start with `examples/quickstart.rs`, or see README.md.

#![warn(missing_docs)]

pub use tesc;
pub use tesc_baselines;
pub use tesc_datasets;
pub use tesc_events;
pub use tesc_graph;
pub use tesc_stats;

/// Parse a human-readable byte size as used by the `--cache-budget`
/// flags of `tesc-cli` and `tesc-serve`.
///
/// Accepts plain byte counts (`1048576`), binary-suffixed sizes
/// (`64K`, `64M`, `2G`, case-insensitive, 1024-based), and the
/// unbounded spellings `inf` / `none` / `unbounded` (returning
/// `None`).
///
/// ```
/// use tesc_repro::parse_byte_size;
/// assert_eq!(parse_byte_size("64M"), Ok(Some(64 << 20)));
/// assert_eq!(parse_byte_size("1024"), Ok(Some(1024)));
/// assert_eq!(parse_byte_size("inf"), Ok(None));
/// assert!(parse_byte_size("64Q").is_err());
/// ```
pub fn parse_byte_size(text: &str) -> Result<Option<usize>, String> {
    let text = text.trim();
    if text.eq_ignore_ascii_case("inf")
        || text.eq_ignore_ascii_case("none")
        || text.eq_ignore_ascii_case("unbounded")
    {
        return Ok(None);
    }
    let (digits, shift) = match text.chars().last() {
        Some('k') | Some('K') => (&text[..text.len() - 1], 10),
        Some('m') | Some('M') => (&text[..text.len() - 1], 20),
        Some('g') | Some('G') => (&text[..text.len() - 1], 30),
        Some(c) if c.is_ascii_digit() => (text, 0),
        _ => return Err(format!("bad byte size {text:?} (use e.g. 64M, 1G, inf)")),
    };
    let base: usize = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad byte size {text:?} (use e.g. 64M, 1G, inf)"))?;
    base.checked_shl(shift)
        .filter(|_| base.leading_zeros() >= shift)
        .map(Some)
        .ok_or_else(|| format!("byte size {text:?} overflows"))
}

/// A graph file as loaded from disk by `tesc-cli`'s read-only
/// commands: either a plain-text edge list parsed into a
/// [`tesc_graph::CsrGraph`] or a binary `.tgraph` container holding
/// the delta-encoded, varint-packed [`tesc_graph::CompressedCsr`].
///
/// Both encodings describe the same graph bit-identically — the
/// container re-validates its section CRCs, structural invariants and
/// fingerprint on decode.
#[derive(Debug)]
pub enum LoadedGraph {
    /// Parsed from a text edge list.
    Plain(tesc_graph::CsrGraph),
    /// Decoded from a `.tgraph` container.
    Compressed(tesc_graph::CompressedCsr),
}

impl LoadedGraph {
    /// The adjacency encoding this file used, for log lines.
    pub fn encoding(&self) -> &'static str {
        match self {
            LoadedGraph::Plain(_) => "edge-list",
            LoadedGraph::Compressed(..) => ".tgraph",
        }
    }

    /// Number of nodes, independent of the encoding.
    pub fn num_nodes(&self) -> usize {
        match self {
            LoadedGraph::Plain(g) => g.num_nodes(),
            LoadedGraph::Compressed(c) => c.num_nodes(),
        }
    }

    /// Number of undirected edges, independent of the encoding.
    pub fn num_edges(&self) -> usize {
        match self {
            LoadedGraph::Plain(g) => g.num_edges(),
            LoadedGraph::Compressed(c) => c.num_edges(),
        }
    }
}

/// Load a graph file, sniffing the binary `.tgraph` magic and falling
/// back to the text edge-list parser.
///
/// `.tgraph` containers decode in near-zero-parse time (CRC sweep +
/// varint directory walk, no float/int text parsing); text edge lists
/// go through [`tesc_graph::io::read_edge_list`] as before. Either
/// way every failure is a descriptive `Err`, never a panic.
pub fn load_graph(path: &str) -> Result<LoadedGraph, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if tesc_graph::is_tgraph(&bytes) {
        let t = tesc_graph::decode_tgraph(&bytes).map_err(|e| format!("decoding {path}: {e}"))?;
        Ok(LoadedGraph::Compressed(t.graph))
    } else {
        read_edge_list(path, bytes).map(LoadedGraph::Plain)
    }
}

/// [`load_graph`] for callers that need a plain CSR graph (the mutable
/// [`tesc::context::TescContext`] ingestion path): a `.tgraph`
/// container decodes straight to plain rows, never packed first.
pub fn load_csr(path: &str) -> Result<tesc_graph::CsrGraph, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if tesc_graph::is_tgraph(&bytes) {
        tesc_graph::decode_tgraph_csr(&bytes)
            .map(|t| t.graph)
            .map_err(|e| format!("decoding {path}: {e}"))
    } else {
        read_edge_list(path, bytes)
    }
}

fn read_edge_list(path: &str, bytes: Vec<u8>) -> Result<tesc_graph::CsrGraph, String> {
    tesc_graph::io::read_edge_list(&mut std::io::Cursor::new(bytes))
        .map_err(|e| format!("reading {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::parse_byte_size;

    #[test]
    fn parses_suffixes_and_unbounded() {
        assert_eq!(parse_byte_size("0"), Ok(Some(0)));
        assert_eq!(parse_byte_size("512"), Ok(Some(512)));
        assert_eq!(parse_byte_size("4k"), Ok(Some(4096)));
        assert_eq!(parse_byte_size("64M"), Ok(Some(64 << 20)));
        assert_eq!(parse_byte_size("2G"), Ok(Some(2 << 30)));
        assert_eq!(parse_byte_size(" inf "), Ok(None));
        assert_eq!(parse_byte_size("NONE"), Ok(None));
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("12T").is_err());
        assert!(parse_byte_size("-5").is_err());
        assert!(parse_byte_size(&format!("{}G", usize::MAX)).is_err());
    }
}
