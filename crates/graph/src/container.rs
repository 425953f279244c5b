//! The `.tgraph` binary graph container.
//!
//! The on-disk form of [`CompressedCsr`]: little-endian throughout,
//! magic + version up front, and every section independently
//! CRC-32-checksummed — the same codec/CRC discipline as
//! `tesc::persist` (the snapshot and WAL formats re-export this
//! crate's [`crate::codec`] and [`crate::crc`] modules, so all binary
//! frames in the workspace share one dialect).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     8 B   b"TGRAPH02" (version is the trailing two digits)
//! num_nodes 8 B
//! num_edges 8 B   undirected count
//! fingerprint 8 B CsrGraph::fingerprint of the content
//! flags     8 B   bit 0: node-order section present
//! header_crc 4 B  CRC-32 of the 40 bytes above
//! section: directory   u64 len | LEB128 *up*-degree per node | u32 crc
//! section: adjacency   u64 len | packed half-adjacency gaps  | u32 crc
//! section: node order  u64 len | u32 `to_old` per node       | u32 crc  (optional, legacy)
//! ```
//!
//! On disk, each undirected edge is stored **once**: node `v`'s row
//! holds only its *up-neighbors* (`w > v`), delta-encoded against
//! `v + 1` (first gap `w₀ − v − 1`, then successive deltas minus one)
//! and packed with the same fixed-width chunk codec the in-memory
//! stream uses. That halves the entry count relative to the resident
//! form — and because upper-triangle gaps are measured from `v`, they
//! are *smaller* than full-row gaps, so the per-entry byte cost drops
//! too. The directory stores the varint up-degree per node (most fit
//! one byte); full degrees and row offsets are recomputed at load.
//!
//! Loading is a single linear decode of the half stream plus one
//! cursor pass that scatters each edge `(v, w)` into both endpoint
//! rows. Rows come out sorted *without a sort*: within row `r`, the
//! down-entries (mirrored from rows `v < r`) arrive in ascending `v`
//! order because the stream is walked in row order, the up-entries
//! are ascending by the gap encoding, and every down-entry `< r <`
//! every up-entry. Assembling the plain graph hashes it once (its
//! stored [`CsrGraph::fingerprint`]), and that value is checked
//! against the header — a flipped bit has to beat a section CRC *and*
//! a 64-bit fingerprint to be accepted, and the fuzz suite
//! (`tests/fuzz_parsers.rs`) holds the decoder to "typed error, never
//! a panic" on arbitrary garbage. [`decode_tgraph_csr`] returns that
//! plain graph; [`decode_tgraph`] packs it into a [`CompressedCsr`].
//!
//! **Versions.** `TGRAPH02` headers hold the current fingerprint, the
//! set hash `mix(|V|) + Σ mix(u << 32 | v)` over every directed arc
//! (see [`crate::csr`]). `TGRAPH01` files have the same layout, but
//! their header holds the older FNV-1a hash of the CSR arrays; they
//! still decode, their header checked by that older hash, and the
//! decoded graph carries the current fingerprint. Only v02 is
//! written.
//!
//! The optional node-order section is a legacy of the deleted
//! locality relabeling, which stored its permutation there. The
//! decoder still accepts it — CRC-checked and validated as a bijection
//! over the node ids — and returns it as [`TgraphFile::node_order`],
//! but nothing reads it, and `tesc-cli convert` no longer writes it.
//! The adjacency itself always stays in original id order, so
//! fingerprints are encoding-independent.

use crate::codec::{put_u32, put_u64, Cursor, DecodeError};
use crate::compressed::{
    checked_read_varint, checked_walk_chunks, encode_gaps_chunked, write_varint, CompressedCsr,
};
use crate::crc::crc32;
use crate::csr::{CsrGraph, NodeId};

/// Magic + version prefix of every `.tgraph` file this crate writes.
pub const TGRAPH_MAGIC: &[u8; 8] = b"TGRAPH02";

/// Magic of first-generation files (FNV header fingerprint), still
/// read.
const TGRAPH_MAGIC_V1: &[u8; 8] = b"TGRAPH01";

/// Flag bit: the optional node-order section is present.
const FLAG_NODE_ORDER: u64 = 1;

/// A decoded `.tgraph` container: the graph — packed by
/// [`decode_tgraph`], plain by [`decode_tgraph_csr`] — plus the
/// optional stored node order (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct TgraphFile<G = CompressedCsr> {
    /// The (validated) graph.
    pub graph: G,
    /// The node order in the legacy section, if the writer stored one:
    /// entry `v` is the original id of position `v`.
    pub node_order: Option<Vec<NodeId>>,
}

/// Does `bytes` start with a `.tgraph` magic (either version)? The
/// sniff used by loaders that accept both text edge lists and binary
/// containers.
pub fn is_tgraph(bytes: &[u8]) -> bool {
    bytes.starts_with(TGRAPH_MAGIC) || bytes.starts_with(TGRAPH_MAGIC_V1)
}

/// The `TGRAPH01` header fingerprint: FNV-1a over `|V|`, the plain CSR
/// offsets and the neighbor array, in that order. Checked against v01
/// headers only, so files written before the set hash keep decoding.
fn fnv_v1_fingerprint(g: &CsrGraph) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |x: u64| h = (h ^ x).wrapping_mul(PRIME);
    feed(g.num_nodes() as u64);
    feed(0);
    let mut offset = 0u64;
    for v in g.nodes() {
        offset += g.degree(v) as u64;
        feed(offset);
    }
    for v in g.nodes() {
        g.neighbors(v).iter().for_each(|&w| feed(u64::from(w)));
    }
    h
}

fn put_section(out: &mut Vec<u8>, payload: &[u8]) {
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

/// Serialize `graph` (and optionally a node order, in `to_old` form,
/// into the legacy node-order section) into `.tgraph` bytes.
///
/// # Panics
///
/// Panics if `order` covers a different node count than the graph.
pub fn encode_tgraph(graph: &CompressedCsr, order: Option<&[NodeId]>) -> Vec<u8> {
    if let Some(o) = order {
        assert_eq!(
            o.len(),
            graph.num_nodes(),
            "node order covers {} ids, graph has {} nodes",
            o.len(),
            graph.num_nodes()
        );
    }
    let n = graph.num_nodes();
    let mut directory = Vec::with_capacity(n);
    let mut half = Vec::with_capacity(graph.adjacency_bytes() / 2 + 1);
    let mut gaps: Vec<u32> = Vec::new();
    for v in 0..n as NodeId {
        gaps.clear();
        let mut base = v + 1;
        graph.for_each_neighbor(v, |w| {
            if w > v {
                gaps.push(w - base);
                base = w + 1;
            }
        });
        write_varint(&mut directory, gaps.len() as u32);
        encode_gaps_chunked(&mut half, &gaps);
    }
    let mut out = Vec::with_capacity(
        48 + directory.len() + half.len() + order.map_or(0, |o| 4 * o.len() + 12),
    );
    out.extend_from_slice(TGRAPH_MAGIC);
    put_u64(&mut out, graph.num_nodes() as u64);
    put_u64(&mut out, graph.num_edges() as u64);
    put_u64(&mut out, graph.fingerprint());
    put_u64(&mut out, if order.is_some() { FLAG_NODE_ORDER } else { 0 });
    let header_crc = crc32(&out);
    put_u32(&mut out, header_crc);
    put_section(&mut out, &directory);
    put_section(&mut out, &half);
    if let Some(o) = order {
        let mut payload = Vec::with_capacity(4 * o.len());
        for &v in o {
            put_u32(&mut payload, v);
        }
        put_section(&mut out, &payload);
    }
    out
}

fn take_section<'a>(c: &mut Cursor<'a>, what: &str) -> Result<&'a [u8], DecodeError> {
    let len = c.len_prefix(1)?;
    let start = c.pos();
    let payload = c.take(len)?;
    let stored = c.u32()?;
    let actual = crc32(payload);
    if stored != actual {
        return Err(DecodeError {
            offset: start,
            message: format!(
                "{what} section CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ),
        });
    }
    Ok(payload)
}

/// Decode and fully validate `.tgraph` bytes (either version) into a
/// packed [`CompressedCsr`]: [`decode_tgraph_csr`], then
/// [`CompressedCsr::from_graph`].
pub fn decode_tgraph(bytes: &[u8]) -> Result<TgraphFile, DecodeError> {
    let file = decode_tgraph_csr(bytes)?;
    Ok(TgraphFile {
        graph: CompressedCsr::from_graph(&file.graph),
        node_order: file.node_order,
    })
}

/// Decode and fully validate `.tgraph` bytes (either version),
/// reconstructing the plain symmetric [`CsrGraph`] from the
/// half-adjacency stream. Every acceptance path goes through the
/// section CRCs plus a full structural walk and fingerprint
/// recomputation; any failure is a typed [`DecodeError`], never a
/// panic.
pub fn decode_tgraph_csr(bytes: &[u8]) -> Result<TgraphFile<CsrGraph>, DecodeError> {
    let mut c = Cursor::new(bytes);
    let magic = c.take(8)?;
    let v1 = magic == TGRAPH_MAGIC_V1;
    if magic != TGRAPH_MAGIC && !v1 {
        return Err(DecodeError {
            offset: 0,
            message: format!("bad magic {magic:02x?}, expected {TGRAPH_MAGIC:02x?}"),
        });
    }
    let num_nodes = c.u64()?;
    let num_edges = c.u64()?;
    let fingerprint = c.u64()?;
    let flags = c.u64()?;
    let header_end = c.pos();
    let stored = c.u32()?;
    let actual = crc32(&bytes[..header_end]);
    if stored != actual {
        return Err(DecodeError {
            offset: header_end,
            message: format!("header CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        });
    }
    if flags & !FLAG_NODE_ORDER != 0 {
        return Err(DecodeError {
            offset: 32,
            message: format!("unknown flags {flags:#x}"),
        });
    }
    let n = usize::try_from(num_nodes).map_err(|_| DecodeError {
        offset: 8,
        message: format!("node count {num_nodes} overflows"),
    })?;
    // A degree varint is ≥ 1 byte, so the directory section itself
    // bounds n; reject counts the remaining bytes cannot cover before
    // allocating anything.
    if n > c.remaining() {
        return Err(DecodeError {
            offset: 8,
            message: format!("{n} nodes cannot fit in {} remaining bytes", c.remaining()),
        });
    }
    if n > u32::MAX as usize {
        return Err(DecodeError {
            offset: 8,
            message: format!("{n} nodes do not fit u32 ids"),
        });
    }

    let directory = take_section(&mut c, "directory")?;
    let mut ups = Vec::with_capacity(n);
    let mut pos = 0usize;
    for v in 0..n {
        ups.push(
            checked_read_varint(directory, &mut pos).map_err(|e| DecodeError {
                offset: e.offset,
                message: format!("directory entry {v}: {}", e.message),
            })?,
        );
    }
    if pos != directory.len() {
        return Err(DecodeError {
            offset: pos,
            message: format!("{} trailing directory bytes", directory.len() - pos),
        });
    }
    let up_sum: u64 = ups.iter().map(|&d| d as u64).sum();
    if up_sum != num_edges {
        return Err(DecodeError {
            offset: 16,
            message: format!("header claims {num_edges} edges, directory sums to {up_sum}"),
        });
    }

    // Pass A over the half-adjacency stream: full structural
    // validation (chunk walk, id ranges, exact consumption) plus the
    // down-degree counts — before the edge arrays are allocated, so a
    // lying header cannot provoke a huge allocation.
    let half = take_section(&mut c, "adjacency")?;
    let mut full_deg = vec![0u32; n];
    let mut pos = 0usize;
    for (v, &up) in ups.iter().enumerate() {
        let mut base = v as u64 + 1;
        checked_walk_chunks(half, &mut pos, up, |gap| {
            let w = base + gap as u64;
            if w >= n as u64 {
                return Err(DecodeError {
                    offset: 0,
                    message: format!("node {v} up-neighbor {w} out of range for {n} nodes"),
                });
            }
            full_deg[w as usize] += 1;
            base = w + 1;
            Ok(())
        })?;
    }
    if pos != half.len() {
        return Err(DecodeError {
            offset: pos,
            message: format!("{} trailing adjacency bytes", half.len() - pos),
        });
    }
    for (d, &up) in full_deg.iter_mut().zip(ups.iter()) {
        *d += up;
    }

    // Offsets from the full degrees, then pass B scatters each stored
    // edge (v, w) into both endpoint rows. The cursor fill emits every
    // row already sorted (see the module docs), so the plain CSR can
    // be assembled directly.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut prefix = 0u64;
    offsets.push(0u64);
    for &d in &full_deg {
        prefix += d as u64;
        offsets.push(prefix);
    }
    let mut cursor: Vec<u64> = offsets[..n].to_vec();
    let mut neighbors = vec![0 as NodeId; prefix as usize];
    let mut pos = 0usize;
    for (v, &up) in ups.iter().enumerate() {
        let mut base = v as NodeId + 1;
        // The stream was validated in pass A; this walk cannot fail.
        checked_walk_chunks(half, &mut pos, up, |gap| {
            let w = base + gap;
            neighbors[cursor[v] as usize] = w;
            cursor[v] += 1;
            neighbors[cursor[w as usize] as usize] = v as NodeId;
            cursor[w as usize] += 1;
            base = w + 1;
            Ok(())
        })?;
    }
    let graph = CsrGraph::from_parts(offsets.into_boxed_slice(), neighbors.into_boxed_slice());
    let content = if v1 {
        fnv_v1_fingerprint(&graph)
    } else {
        graph.fingerprint()
    };
    if content != fingerprint {
        return Err(DecodeError {
            offset: 24,
            message: format!("content fingerprint {content:#018x} != header {fingerprint:#018x}"),
        });
    }

    let node_order = if flags & FLAG_NODE_ORDER != 0 {
        let payload = take_section(&mut c, "node order")?;
        if payload.len() != 4 * n {
            return Err(DecodeError {
                offset: 0,
                message: format!(
                    "node order section is {} bytes, expected {}",
                    payload.len(),
                    4 * n
                ),
            });
        }
        let to_old: Vec<NodeId> = payload
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let mut seen = vec![false; n];
        for &v in &to_old {
            if (v as usize) >= n || std::mem::replace(&mut seen[v as usize], true) {
                return Err(DecodeError {
                    offset: 0,
                    message: "node order section is not a bijection over the node ids".into(),
                });
            }
        }
        Some(to_old)
    } else {
        None
    };

    if !c.is_empty() {
        return Err(DecodeError {
            offset: c.pos(),
            message: format!("{} trailing bytes after the last section", c.remaining()),
        });
    }
    Ok(TgraphFile { graph, node_order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> CompressedCsr {
        let mut rng = StdRng::seed_from_u64(3);
        CompressedCsr::from_graph(&generators::barabasi_albert(200, 3, &mut rng))
    }

    /// A container written before locality relabeling was deleted:
    /// the 9-node graph of [`every_single_byte_flip_is_rejected`] with
    /// its locality permutation `[3, 0, 1, 8, 2, 7, 4, 5, 6]` in the
    /// node-order section (flag bit 0 set). Kept byte for byte, so old
    /// files must keep decoding.
    const LEGACY_FLAGGED: [u8; 133] = [
        84, 71, 82, 65, 80, 72, 48, 49, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 180, 107,
        54, 30, 143, 127, 75, 237, 1, 0, 0, 0, 0, 0, 0, 0, 75, 116, 70, 193, 9, 0, 0, 0, 0, 0, 0,
        0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 98, 216, 243, 80, 8, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 3, 4,
        3, 4, 192, 163, 88, 127, 36, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 8, 0,
        0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 182, 236, 84, 132,
    ];
    const LEGACY_ORDER: [NodeId; 9] = [3, 0, 1, 8, 2, 7, 4, 5, 6];

    /// The same graph as an unflagged `TGRAPH01` container (no
    /// node-order section), kept byte for byte.
    const LEGACY_UNFLAGGED: [u8; 85] = [
        84, 71, 82, 65, 80, 72, 48, 49, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 180, 107,
        54, 30, 143, 127, 75, 237, 0, 0, 0, 0, 0, 0, 0, 0, 213, 116, 236, 13, 9, 0, 0, 0, 0, 0, 0,
        0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 98, 216, 243, 80, 8, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 3, 4,
        3, 4, 192, 163, 88, 127,
    ];

    /// [`LEGACY_FLAGGED`] as this crate writes it today: `TGRAPH02`
    /// and the set-hash fingerprint in the header (bytes 7, 24..32
    /// and the header CRC at 40..44 differ; every section is the same).
    const FLAGGED: [u8; 133] = [
        84, 71, 82, 65, 80, 72, 48, 50, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 162, 141,
        76, 230, 116, 227, 47, 221, 1, 0, 0, 0, 0, 0, 0, 0, 255, 93, 78, 105, 9, 0, 0, 0, 0, 0, 0,
        0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 98, 216, 243, 80, 8, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 3, 4,
        3, 4, 192, 163, 88, 127, 36, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 8, 0,
        0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 182, 236, 84, 132,
    ];

    fn nine_node() -> CompressedCsr {
        CompressedCsr::from_graph(&from_edges(9, &[(0, 3), (1, 3), (3, 8), (2, 7)]))
    }

    #[test]
    fn round_trips_without_permutation() {
        let c = sample();
        let bytes = encode_tgraph(&c, None);
        assert!(is_tgraph(&bytes));
        let file = decode_tgraph(&bytes).expect("round trip");
        assert_eq!(file.graph, c);
        assert!(file.node_order.is_none());
    }

    #[test]
    fn round_trips_with_permutation() {
        let c = nine_node();
        let bytes = encode_tgraph(&c, Some(&LEGACY_ORDER));
        assert_eq!(bytes, FLAGGED, "the v02 format is unchanged");
        let file = decode_tgraph(&bytes).expect("round trip");
        assert_eq!(file.graph, c);
        assert_eq!(file.node_order.as_deref(), Some(&LEGACY_ORDER[..]));
    }

    #[test]
    fn legacy_flagged_container_decodes_to_the_same_graph() {
        let file = decode_tgraph(&LEGACY_FLAGGED).expect("legacy container");
        assert_eq!(file.graph, nine_node());
        assert_eq!(file.graph.fingerprint(), 0xdd2f_e374_e64c_8da2);
        assert_eq!(file.graph.fingerprint(), nine_node().fingerprint());
        assert_eq!(file.node_order.as_deref(), Some(&LEGACY_ORDER[..]));
        // The header carries the FNV value the v01 writer stored.
        assert_eq!(
            &LEGACY_FLAGGED[24..32],
            &0xed4b_7f8f_1e36_6bb4u64.to_le_bytes()
        );
    }

    #[test]
    fn legacy_unflagged_container_decodes_to_the_same_graph() {
        assert!(is_tgraph(&LEGACY_UNFLAGGED));
        let file = decode_tgraph(&LEGACY_UNFLAGGED).expect("legacy container");
        assert_eq!(file.graph, nine_node());
        assert!(file.node_order.is_none());
        let plain = decode_tgraph_csr(&LEGACY_UNFLAGGED).expect("legacy container");
        assert_eq!(plain.graph, nine_node().to_csr());
        // Re-encoding writes v02 with the same sections.
        let bytes = encode_tgraph(&file.graph, None);
        assert_eq!(&bytes[..8], TGRAPH_MAGIC);
        assert_eq!(bytes[44..], LEGACY_UNFLAGGED[44..]);
    }

    /// `bytes` with the header fingerprint replaced by `fingerprint`
    /// and the header CRC fixed up, so only the content check can
    /// catch it.
    fn with_header_fingerprint(bytes: &[u8], fingerprint: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[24..32].copy_from_slice(&fingerprint.to_le_bytes());
        let fixed = crc32(&out[..40]).to_le_bytes();
        out[40..44].copy_from_slice(&fixed);
        out
    }

    #[test]
    fn wrong_header_fingerprints_are_rejected_in_both_versions() {
        let current = nine_node().fingerprint();
        for (version, bytes) in [("v01", &LEGACY_UNFLAGGED[..]), ("v02", &FLAGGED[..])] {
            let stored = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            assert!(decode_tgraph(&with_header_fingerprint(bytes, stored)).is_ok());
            let err = decode_tgraph(&with_header_fingerprint(bytes, stored ^ 1)).unwrap_err();
            assert!(err.message.contains("fingerprint"), "{version}: {err}");
        }
        // Each version is checked by its own hash: a v01 header holding
        // the v02 value is as wrong as any other.
        assert!(decode_tgraph(&with_header_fingerprint(&LEGACY_UNFLAGGED, current)).is_err());
        let mut v02 = LEGACY_UNFLAGGED;
        v02[7] = b'2';
        assert!(decode_tgraph(&with_header_fingerprint(&v02, current)).is_ok());
    }

    #[test]
    fn non_bijective_node_order_is_rejected() {
        let c = nine_node();
        let mut order = LEGACY_ORDER;
        order[0] = order[1];
        let err = decode_tgraph(&encode_tgraph(&c, Some(&order))).unwrap_err();
        assert!(err.message.contains("bijection"), "unexpected error: {err}");
        order[0] = 9;
        assert!(decode_tgraph(&encode_tgraph(&c, Some(&order))).is_err());
    }

    #[test]
    fn smaller_than_plain_pairs_on_disk() {
        let c = sample();
        let bytes = encode_tgraph(&c, None);
        // Raw (u32, u32) pairs would cost 8 B/edge; the container must
        // beat that handily even with headers and CRCs.
        assert!(
            bytes.len() < 8 * c.num_edges(),
            "{} B container vs {} B raw pairs",
            bytes.len(),
            8 * c.num_edges()
        );
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        for bytes in [&FLAGGED[..], &LEGACY_FLAGGED[..], &LEGACY_UNFLAGGED[..]] {
            for i in 0..bytes.len() {
                let mut bad = bytes.to_vec();
                bad[i] ^= 0x10;
                assert!(decode_tgraph(&bad).is_err(), "flip at byte {i} accepted");
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = encode_tgraph(&sample(), None);
        for k in 0..bytes.len() {
            assert!(decode_tgraph(&bytes[..k]).is_err(), "truncation at {k}");
        }
        for k in 0..LEGACY_FLAGGED.len() {
            let cut = &LEGACY_FLAGGED[..k];
            assert!(decode_tgraph(cut).is_err(), "flagged truncation at {k}");
        }
    }

    #[test]
    fn header_lies_are_rejected() {
        let c = sample();
        // Tamper with the edge count but fix up the header CRC, so
        // only the content cross-check can catch it.
        let mut bytes = encode_tgraph(&c, None);
        let lied = (c.num_edges() as u64 + 1).to_le_bytes();
        bytes[16..24].copy_from_slice(&lied);
        let fixed = crc32(&bytes[..40]).to_le_bytes();
        bytes[40..44].copy_from_slice(&fixed);
        let err = decode_tgraph(&bytes).unwrap_err();
        assert!(err.message.contains("edges"), "unexpected error: {err}");
    }

    #[test]
    fn empty_graph_round_trips() {
        let c = CompressedCsr::from_graph(&from_edges(0, &[]));
        let file = decode_tgraph(&encode_tgraph(&c, None)).expect("empty");
        assert_eq!(file.graph.num_nodes(), 0);
    }
}
