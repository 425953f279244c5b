//! The versioned, checksummed binary snapshot format.
//!
//! A snapshot file is a self-contained image of the durable half of a
//! [`crate::context::Snapshot`] — the graph and the event store.
//! Everything else a snapshot carries (vicinity index, density cache)
//! is derived state and is rebuilt on load.
//!
//! Two generations exist. Writers emit **v2**, whose graph payload is
//! an embedded [`.tgraph` container](tesc_graph::container) — the
//! delta-encoded, varint-packed adjacency with its own header and
//! section CRCs — instead of v1's raw `(u32, u32)` edge pairs. On a
//! Barabási–Albert graph at `m = 8` that is ~3.6 B/edge rather than
//! 8 B/edge of body, which is what `fig13_recovery` measures as
//! snapshot bytes and load time. Readers accept both generations, so
//! stores written before the container era keep recovering.
//!
//! ```text
//! offset  size  field                         (v2; v1 differs only in
//! 0       8     magic  "TESCSNP2"              the graph payload: it
//! 8       ..    body:                          inlines edge pairs)
//!                 u64  context version
//!                 u64  tgraph_len, `.tgraph` container bytes
//!                 u64  num_events
//!                 per event:
//!                   u64 name_len, name bytes (UTF-8)
//!                   u64 occ_len,  u32 × occ_len  (sorted node ids)
//! end−4   4     u32  CRC-32 of the body
//! ```
//!
//! Decoding reads the whole file, verifies the magic and the trailing
//! CRC over the body, then parses with bounds-checked reads — the
//! embedded container additionally re-validates its own section CRCs,
//! structural invariants and fingerprint. A truncated, bit-flipped or
//! torn snapshot yields a clean [`DecodeError`], never a panic and
//! never a half-built graph.

use tesc_events::EventStore;
use tesc_graph::{decode_tgraph_csr, encode_tgraph, CompressedCsr, CsrGraph, GraphBuilder, NodeId};

use super::codec::{put_u32, put_u64, Cursor, DecodeError};
use super::crc::crc32;

/// Magic prefix of every current-generation snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"TESCSNP2";

/// Magic prefix of first-generation snapshots (raw edge pairs);
/// accepted by [`decode_snapshot`] for recovery compatibility.
pub const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"TESCSNP1";

/// Serialize `(version, graph, events)` into a snapshot file image
/// (v2: the graph travels as an embedded `.tgraph` container).
pub fn encode_snapshot(version: u64, graph: &CsrGraph, events: &EventStore) -> Vec<u8> {
    let tgraph = encode_tgraph(&CompressedCsr::from_graph(graph), None);
    let mut body = Vec::with_capacity(32 + tgraph.len());
    put_u64(&mut body, version);
    put_u64(&mut body, tgraph.len() as u64);
    body.extend_from_slice(&tgraph);
    encode_event_table(&mut body, events);
    frame(SNAPSHOT_MAGIC, body)
}

fn encode_event_table(body: &mut Vec<u8>, events: &EventStore) {
    put_u64(body, events.num_events() as u64);
    for (_, name, nodes) in events.iter() {
        put_u64(body, name.len() as u64);
        body.extend_from_slice(name.as_bytes());
        put_u64(body, nodes.len() as u64);
        for &n in nodes {
            put_u32(body, n);
        }
    }
}

fn frame(magic: &[u8; 8], body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(magic.len() + body.len() + 4);
    out.extend_from_slice(magic);
    let crc = crc32(&body);
    out.extend_from_slice(&body);
    put_u32(&mut out, crc);
    out
}

/// Decode a snapshot file image (either generation) back into
/// `(version, graph, events)`.
///
/// Every failure mode — short file, wrong magic, CRC mismatch,
/// inconsistent lengths, out-of-range node ids, corrupt embedded
/// container — is a [`DecodeError`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, CsrGraph, EventStore), DecodeError> {
    let fail = |offset: usize, message: &str| DecodeError {
        offset,
        message: message.into(),
    };
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(fail(bytes.len(), "file shorter than magic + checksum"));
    }
    let magic = &bytes[..SNAPSHOT_MAGIC.len()];
    let v2 = if magic == SNAPSHOT_MAGIC {
        true
    } else if magic == SNAPSHOT_MAGIC_V1 {
        false
    } else {
        return Err(fail(0, "bad snapshot magic"));
    };
    let body = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(fail(bytes.len() - 4, "snapshot checksum mismatch"));
    }

    let mut c = Cursor::new(body);
    let version = c.u64()?;
    let graph = if v2 {
        let tgraph_len = c.len_prefix(1)?;
        let container = c.take(tgraph_len)?;
        decode_tgraph_csr(container)?.graph
    } else {
        decode_v1_edges(&mut c, &fail)?
    };
    let num_nodes = graph.num_nodes();

    let num_events = c.len_prefix(16)?; // ≥ 16 bytes per event (two length fields)
    let mut events = EventStore::new();
    for _ in 0..num_events {
        let name_len = c.len_prefix(1)?;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| fail(c.pos(), "event name is not UTF-8"))?
            .to_string();
        let occ_len = c.len_prefix(4)?;
        let mut nodes = Vec::with_capacity(occ_len);
        for _ in 0..occ_len {
            let n = c.u32()?;
            if n as usize >= num_nodes {
                return Err(fail(c.pos(), "occurrence node out of range"));
            }
            nodes.push(n);
        }
        events
            .try_add_event(name, nodes)
            .map_err(|e| fail(c.pos(), &format!("invalid event table: {e}")))?;
    }
    if !c.is_empty() {
        return Err(fail(c.pos(), "trailing bytes after the event table"));
    }
    Ok((version, graph, events))
}

/// The v1 graph payload: `u64 num_nodes, u64 num_edges,
/// (u32 u, u32 v) × num_edges` with `u < v` ascending.
fn decode_v1_edges(
    c: &mut Cursor<'_>,
    fail: &dyn Fn(usize, &str) -> DecodeError,
) -> Result<CsrGraph, DecodeError> {
    let num_nodes_raw = c.u64()?;
    if num_nodes_raw > NodeId::MAX as u64 + 1 {
        return Err(fail(c.pos(), "node count exceeds the u32 id space"));
    }
    let num_nodes = num_nodes_raw as usize;
    let num_edges = c.len_prefix(8)?;
    let mut builder = GraphBuilder::with_capacity(num_nodes, num_edges);
    for _ in 0..num_edges {
        let u = c.u32()?;
        let v = c.u32()?;
        if u >= v || (v as usize) >= num_nodes {
            return Err(fail(c.pos(), "edge endpoints out of order or range"));
        }
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesc_graph::generators::grid;

    fn sample() -> (CsrGraph, EventStore) {
        let graph = grid(6, 6);
        let mut events = EventStore::new();
        events.add_event("alpha", vec![0, 3, 5, 9]);
        events.add_event("beta", vec![2, 3, 30]);
        events.add_event("empty", vec![]);
        (graph, events)
    }

    /// The v1 writer, kept verbatim so compatibility tests exercise
    /// genuine first-generation images.
    fn encode_snapshot_v1(version: u64, graph: &CsrGraph, events: &EventStore) -> Vec<u8> {
        let mut body = Vec::with_capacity(32 + graph.num_edges() * 8);
        put_u64(&mut body, version);
        put_u64(&mut body, graph.num_nodes() as u64);
        put_u64(&mut body, graph.num_edges() as u64);
        for (u, v) in graph.edges() {
            put_u32(&mut body, u);
            put_u32(&mut body, v);
        }
        encode_event_table(&mut body, events);
        frame(SNAPSHOT_MAGIC_V1, body)
    }

    #[test]
    fn round_trips_bit_identically() {
        let (graph, events) = sample();
        let bytes = encode_snapshot(17, &graph, &events);
        let (version, g2, e2) = decode_snapshot(&bytes).unwrap();
        assert_eq!(version, 17);
        assert_eq!(g2.fingerprint(), graph.fingerprint());
        assert_eq!(e2.fingerprint(), events.fingerprint());
        assert_eq!(g2, graph);
        // And re-encoding is deterministic.
        assert_eq!(encode_snapshot(17, &g2, &e2), bytes);
    }

    #[test]
    fn v1_images_still_decode() {
        let (graph, events) = sample();
        let bytes = encode_snapshot_v1(9, &graph, &events);
        let (version, g2, e2) = decode_snapshot(&bytes).unwrap();
        assert_eq!(version, 9);
        assert_eq!(g2, graph);
        assert_eq!(e2.fingerprint(), events.fingerprint());
        // Both generations describe the same world.
        let (_, g3, e3) = decode_snapshot(&encode_snapshot(9, &graph, &events)).unwrap();
        assert_eq!(g2, g3);
        assert_eq!(e2.fingerprint(), e3.fingerprint());
    }

    #[test]
    fn v2_body_is_smaller_than_v1_on_dense_graphs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let graph = tesc_graph::generators::barabasi_albert(2000, 8, &mut rng);
        let events = EventStore::new();
        let v1 = encode_snapshot_v1(1, &graph, &events).len();
        let v2 = encode_snapshot(1, &graph, &events).len();
        assert!(
            v2 < v1,
            "container snapshot ({v2} B) must undercut edge pairs ({v1} B)"
        );
    }

    #[test]
    fn every_truncation_point_is_a_clean_error() {
        let (graph, events) = sample();
        for bytes in [
            encode_snapshot(3, &graph, &events),
            encode_snapshot_v1(3, &graph, &events),
        ] {
            for k in 0..bytes.len() {
                assert!(
                    decode_snapshot(&bytes[..k]).is_err(),
                    "truncation at byte {k} must not decode"
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let (graph, events) = sample();
        for bytes in [
            encode_snapshot(3, &graph, &events),
            encode_snapshot_v1(3, &graph, &events),
        ] {
            for k in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[k] ^= 0x10;
                assert!(
                    decode_snapshot(&flipped).is_err(),
                    "bit flip at byte {k} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (graph, events) = sample();
        let mut bytes = encode_snapshot(3, &graph, &events);
        bytes.extend_from_slice(b"tail");
        assert!(decode_snapshot(&bytes).is_err());
    }
}
