//! Delta-encoded, bit-packed CSR adjacency ([`CompressedCsr`]).
//!
//! At the million-node scale the h-hop vicinity BFS is bound by memory
//! bandwidth, not instructions: the kernels stream adjacency rows and
//! the plain CSR spends 4 bytes per neighbor id. This module stores
//! each (sorted) neighbor row as *gaps* (first id, then successive
//! deltas minus one), packed in chunks of [`CHUNK_GAPS`] gaps at a
//! fixed per-chunk bit width — one header byte per chunk, then the
//! gaps back to back, LSB first. On real graphs that is ~2.3 bytes per
//! entry, so a row scan streams roughly half the bytes of plain CSR,
//! and the decoder is **branch-free per gap**: one unaligned `u64`
//! load, a shift, and a mask (the fixed width makes the hot loop free
//! of the length branches an LEB128 varint pays per byte).
//! `fig14_scale` measures the trade instead of asserting it;
//! `docs/PERFORMANCE.md` §7 discusses when it loses.
//!
//! Layout:
//!
//! * a per-node **directory**: byte offset into the packed stream
//!   (`u32` — the stream is capped at 4 GiB) plus degree (`u32`);
//! * the **packed adjacency stream**, grouped into blocks of
//!   [`BLOCK_NODES`] consecutive nodes; every block starts on a
//!   [`BLOCK_ALIGN`]-byte (cache-line) boundary, zero-padded, so a
//!   block's rows never share a line with a neighboring block and
//!   streaming a block touches only its own lines. The stream ends
//!   with [`TAIL_PAD`] zero bytes so the decoder's 8-byte window loads
//!   never run past the allocation.
//!
//! A [`CompressedCsr`] carries the [`CsrGraph::fingerprint`] of the
//! plain content it encodes: equal fingerprints mean identical
//! topology regardless of encoding, which is what lets density caches
//! interoperate across the two representations. The decoder
//! ([`CompressedCsr::neighbors_iter`]) streams a row without
//! materializing it;
//! [`CompressedCsr::for_each_neighbor`] is the internal-iteration
//! fast path the BFS kernels use (chunk constants hoisted out of the
//! gap loop), and [`CompressedCsr::decode_neighbors_into`] fills a
//! reused scratch buffer for slice consumers. The on-disk form of
//! this structure is the `.tgraph` container ([`crate::container`]),
//! which packs each edge *once* (upper-triangle rows) with the same
//! chunk codec.

use crate::adjacency::Adjacency;
use crate::codec::DecodeError;
use crate::csr::{CsrGraph, NodeId};

/// Nodes per alignment block of the packed stream.
pub const BLOCK_NODES: usize = 64;

/// Byte alignment of every block start (one cache line).
pub const BLOCK_ALIGN: usize = 64;

/// Gaps per fixed-width chunk of a packed row. Small enough that one
/// outlier gap inflates at most 15 companions' widths, large enough
/// that the header byte costs only half a bit per gap.
pub const CHUNK_GAPS: usize = 16;

/// Zero bytes appended after the last row so the decoder's 8-byte
/// window loads stay inside the buffer at any in-stream bit position.
pub const TAIL_PAD: usize = 8;

// --- varint codec --------------------------------------------------------

/// Append `value` as an LEB128 varint (7 payload bits per byte,
/// continuation in the high bit; 1–5 bytes for a `u32`). Used by the
/// `.tgraph` degree directory, not the packed gap stream.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        buf.push((value as u8 & 0x7F) | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Decode one LEB128 varint from `bytes` at `*pos`, advancing `*pos`.
///
/// Trusted-input fast path: the caller guarantees a well-formed stream
/// (all in-memory streams are validated at construction), so this
/// panics on truncation like any slice index rather than returning a
/// `Result`. Untrusted bytes go through [`checked_read_varint`].
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut b = bytes[*pos];
    *pos += 1;
    let mut acc = (b & 0x7F) as u32;
    let mut shift = 7u32;
    while b & 0x80 != 0 {
        b = bytes[*pos];
        *pos += 1;
        acc |= ((b & 0x7F) as u32) << shift;
        shift += 7;
    }
    acc
}

/// Decode one varint from untrusted bytes: bounds-checked, rejects
/// encodings longer than 5 bytes or overflowing a `u32`.
pub fn checked_read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let mut acc = 0u64;
    for i in 0..5 {
        let b = *bytes.get(*pos).ok_or_else(|| DecodeError {
            offset: *pos,
            message: "varint truncated".into(),
        })?;
        *pos += 1;
        acc |= ((b & 0x7F) as u64) << (7 * i);
        if b & 0x80 == 0 {
            return u32::try_from(acc).map_err(|_| DecodeError {
                offset: *pos,
                message: format!("varint value {acc} overflows u32"),
            });
        }
    }
    Err(DecodeError {
        offset: *pos,
        message: "varint longer than 5 bytes".into(),
    })
}

// --- chunked fixed-width gap codec ---------------------------------------

/// 8-byte little-endian window at `byte`. Trusted path: the caller
/// guarantees `byte + 8 <= bytes.len()` (every in-memory stream ends
/// with [`TAIL_PAD`] zeros, so any in-stream position qualifies).
#[inline]
fn window(bytes: &[u8], byte: usize) -> u64 {
    u64::from_le_bytes(bytes[byte..byte + 8].try_into().unwrap())
}

/// Like [`window`] but clamped at the end of `bytes` (missing tail
/// bytes read as zero) — the untrusted-path variant, where the stream
/// carries no tail padding. `byte` may be at most `bytes.len()`.
#[inline]
fn checked_window(bytes: &[u8], byte: usize) -> u64 {
    let mut buf = [0u8; 8];
    let end = bytes.len().min(byte + 8);
    buf[..end - byte].copy_from_slice(&bytes[byte..end]);
    u64::from_le_bytes(buf)
}

/// Append `gaps` to `buf` as fixed-width chunks: per [`CHUNK_GAPS`]
/// gaps, one header byte holding the chunk's bit width (the widest
/// gap's bit length, 0–32), then the gaps packed LSB-first. Chunks are
/// byte-aligned; a width-0 chunk (all gaps zero — a consecutive id
/// run) has no payload at all.
pub(crate) fn encode_gaps_chunked(buf: &mut Vec<u8>, gaps: &[u32]) {
    for chunk in gaps.chunks(CHUNK_GAPS) {
        let width = chunk
            .iter()
            .map(|&g| 32 - g.leading_zeros())
            .max()
            .unwrap_or(0);
        buf.push(width as u8);
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &g in chunk {
            acc |= (g as u64) << nbits;
            nbits += width;
            while nbits >= 8 {
                buf.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            buf.push(acc as u8);
        }
    }
}

/// Walk `count` gaps of chunked fixed-width stream from untrusted
/// `bytes` at `*pos`, advancing `*pos` past the consumed chunks and
/// invoking `emit` per decoded gap. Every structural hazard — missing
/// header, width over 32, truncated payload — is a typed error;
/// `emit` may veto with its own error (id out of range, etc.).
pub(crate) fn checked_walk_chunks(
    bytes: &[u8],
    pos: &mut usize,
    count: u32,
    mut emit: impl FnMut(u32) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    let mut remaining = count;
    while remaining > 0 {
        let width = *bytes.get(*pos).ok_or_else(|| DecodeError {
            offset: *pos,
            message: "chunk header past the end of the stream".into(),
        })? as usize;
        if width > 32 {
            return Err(DecodeError {
                offset: *pos,
                message: format!("chunk width {width} exceeds 32 bits"),
            });
        }
        *pos += 1;
        let cnt = remaining.min(CHUNK_GAPS as u32) as usize;
        let payload = (cnt * width).div_ceil(8);
        if bytes.len() - *pos < payload {
            return Err(DecodeError {
                offset: *pos,
                message: format!(
                    "chunk payload truncated: {payload} bytes needed, {} left",
                    bytes.len() - *pos
                ),
            });
        }
        let mask = (1u64 << width) - 1;
        let mut bit = *pos * 8;
        for _ in 0..cnt {
            let gap = ((checked_window(bytes, bit >> 3) >> (bit & 7)) & mask) as u32;
            bit += width;
            emit(gap)?;
        }
        *pos += payload;
        remaining -= cnt as u32;
    }
    Ok(())
}

// --- cache-line-aligned byte storage -------------------------------------

/// Immutable byte buffer whose first byte sits on a [`BLOCK_ALIGN`]
/// boundary, so the in-stream block alignment is alignment in memory,
/// not just relative to the stream start.
struct AlignedBytes {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: `AlignedBytes` is an immutable owned allocation — shared
// references only ever read it, exactly like `Box<[u8]>`.
unsafe impl Send for AlignedBytes {}
unsafe impl Sync for AlignedBytes {}

impl AlignedBytes {
    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len, BLOCK_ALIGN).expect("valid layout")
    }

    fn copy_from(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return AlignedBytes {
                ptr: std::ptr::NonNull::dangling(),
                len: 0,
            };
        }
        // SAFETY: the layout is non-zero-sized; the copy writes
        // exactly `len` bytes into the fresh allocation.
        unsafe {
            let raw = std::alloc::alloc(Self::layout(bytes.len()));
            let ptr = match std::ptr::NonNull::new(raw) {
                Some(p) => p,
                None => std::alloc::handle_alloc_error(Self::layout(bytes.len())),
            };
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr.as_ptr(), bytes.len());
            AlignedBytes {
                ptr,
                len: bytes.len(),
            }
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` initialized bytes we own.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `copy_from` with the same layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), Self::layout(self.len)) }
        }
    }
}

impl Clone for AlignedBytes {
    fn clone(&self) -> Self {
        AlignedBytes::copy_from(self.as_slice())
    }
}

// --- the compressed graph ------------------------------------------------

/// An immutable undirected simple graph with delta/bit-packed
/// adjacency. See the [module docs](self).
#[derive(Clone)]
pub struct CompressedCsr {
    /// Directory, part 1: `offsets[v]` is the byte offset of `v`'s row
    /// in `bytes`; `offsets[n]` is the end of the last row (the tail
    /// padding lies beyond it).
    offsets: Box<[u32]>,
    /// Directory, part 2: `degrees[v]` is `v`'s neighbor count.
    degrees: Box<[u32]>,
    /// The packed adjacency stream (cache-line-aligned base).
    bytes: AlignedBytes,
    degree_sum: u64,
    /// [`CsrGraph::fingerprint`] of the plain content.
    fingerprint: u64,
}

impl std::fmt::Debug for CompressedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedCsr")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .field("adjacency_bytes", &self.bytes.len)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

impl PartialEq for CompressedCsr {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.degrees == other.degrees
            && self.bytes.as_slice() == other.bytes.as_slice()
            && self.fingerprint == other.fingerprint
    }
}

impl Eq for CompressedCsr {}

impl CompressedCsr {
    /// Compress a plain CSR graph. `O(|V| + |E|)`; the result's
    /// [`fingerprint`](Self::fingerprint) equals `g.fingerprint()`.
    ///
    /// # Panics
    ///
    /// Panics if the packed stream would exceed the directory's 4 GiB
    /// offset range (≈ 1.5 billion undirected edges at typical gap
    /// widths — beyond the `u32` node ids long before that).
    pub fn from_graph(g: &CsrGraph) -> CompressedCsr {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut degrees = Vec::with_capacity(n);
        // ~2.3 B/entry is typical; the Vec grows if a graph is gappier.
        let mut bytes =
            Vec::with_capacity(5 * g.degree_sum() as usize / 2 + BLOCK_ALIGN + TAIL_PAD);
        let mut gaps: Vec<u32> = Vec::new();
        let push_offset = |offsets: &mut Vec<u32>, pos: usize| {
            offsets.push(u32::try_from(pos).expect("packed adjacency stream exceeds 4 GiB"));
        };
        for v in 0..n {
            if v % BLOCK_NODES == 0 {
                while bytes.len() % BLOCK_ALIGN != 0 {
                    bytes.push(0);
                }
            }
            push_offset(&mut offsets, bytes.len());
            let row = g.neighbors(v as NodeId);
            degrees.push(row.len() as u32);
            gaps.clear();
            let mut base = 0 as NodeId;
            for &w in row {
                gaps.push(w - base);
                base = w + 1;
            }
            encode_gaps_chunked(&mut bytes, &gaps);
        }
        push_offset(&mut offsets, bytes.len());
        bytes.extend_from_slice(&[0u8; TAIL_PAD]);
        CompressedCsr {
            offsets: offsets.into_boxed_slice(),
            degrees: degrees.into_boxed_slice(),
            bytes: AlignedBytes::copy_from(&bytes),
            degree_sum: g.degree_sum(),
            fingerprint: g.fingerprint(),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        (self.degree_sum / 2) as usize
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// Sum of degrees (`2|E|`).
    #[inline]
    pub fn degree_sum(&self) -> u64 {
        self.degree_sum
    }

    /// [`CsrGraph::fingerprint`] of the plain content this graph
    /// encodes, carried over from the graph it was built from. `O(1)`.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Average degree `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.degree_sum as f64 / self.num_nodes() as f64
        }
    }

    /// Stream `v`'s neighbors in ascending order, decoding gaps on the
    /// fly — no per-row allocation, ever.
    #[inline]
    pub fn neighbors_iter(&self, v: NodeId) -> CompressedNeighbors<'_> {
        CompressedNeighbors {
            bytes: self.bytes.as_slice(),
            bit: (self.offsets[v as usize] as usize) << 3,
            remaining: self.degrees[v as usize],
            chunk_left: 0,
            width: 0,
            mask: 0,
            base: 0,
        }
    }

    /// Internal-iteration decode of `v`'s row: `f(w)` per neighbor,
    /// ascending. This is the kernels' hot path — the per-chunk width
    /// and mask are hoisted out of the gap loop, which is then one
    /// window load + shift + mask + add per neighbor, branch-free.
    #[inline]
    pub fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        let mut remaining = self.degrees[v as usize];
        if remaining == 0 {
            return;
        }
        let bytes = self.bytes.as_slice();
        let mut byte = self.offsets[v as usize] as usize;
        let mut base: NodeId = 0;
        while remaining > 0 {
            let width = bytes[byte] as usize;
            let cnt = remaining.min(CHUNK_GAPS as u32);
            let mask = (1u64 << width) - 1;
            let mut bit = (byte + 1) << 3;
            for _ in 0..cnt {
                let gap = ((window(bytes, bit >> 3) >> (bit & 7)) & mask) as u32;
                bit += width;
                let w = base + gap;
                f(w);
                base = w + 1;
            }
            byte = (bit + 7) >> 3;
            remaining -= cnt;
        }
    }

    /// Decode `v`'s neighbor row into `out` (cleared first) — the
    /// reused-scratch-buffer path for consumers that need a slice.
    pub fn decode_neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.reserve(self.degrees[v as usize] as usize);
        self.for_each_neighbor(v, |w| out.push(w));
    }

    /// Decompress back to a plain [`CsrGraph`] (bit-identical to the
    /// graph this was built from). The fingerprint is passed on, not
    /// recomputed.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut prefix = 0u64;
        offsets.push(0u64);
        for &d in self.degrees.iter() {
            prefix += d as u64;
            offsets.push(prefix);
        }
        let mut neighbors = Vec::with_capacity(self.degree_sum as usize);
        for v in 0..n {
            self.for_each_neighbor(v as NodeId, |w| neighbors.push(w));
        }
        CsrGraph::from_hashed_parts(
            offsets.into_boxed_slice(),
            neighbors.into_boxed_slice(),
            self.fingerprint,
        )
    }

    /// Bytes of the packed adjacency stream (block and tail padding
    /// included) — what a whole-graph scan streams from memory.
    #[inline]
    pub fn adjacency_bytes(&self) -> usize {
        self.bytes.len
    }

    /// Bytes of the (offset, degree) directory.
    #[inline]
    pub fn directory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.degrees.len() * std::mem::size_of::<u32>()
    }

    /// Packed-stream bytes a scan of `v`'s row streams (its extent up
    /// to the next row's start, so block padding is accounted to the
    /// row that precedes it).
    #[inline]
    pub fn row_bytes(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The raw packed stream (test support).
    #[cfg(test)]
    pub(crate) fn bytes_raw(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    #[cfg(test)]
    pub(crate) fn offsets_raw(&self) -> &[u32] {
        &self.offsets
    }
}

impl Adjacency for CompressedCsr {
    #[inline]
    fn num_nodes(&self) -> usize {
        CompressedCsr::num_nodes(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CompressedCsr::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        CompressedCsr::degree(self, v)
    }

    #[inline]
    fn degree_sum(&self) -> u64 {
        CompressedCsr::degree_sum(self)
    }

    #[inline]
    fn fingerprint(&self) -> u64 {
        CompressedCsr::fingerprint(self)
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        self.adjacency_bytes() + self.directory_bytes()
    }

    #[inline]
    fn neighbors_iter(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        CompressedCsr::neighbors_iter(self, v)
    }

    #[inline]
    fn for_each_neighbor(&self, v: NodeId, f: impl FnMut(NodeId)) {
        CompressedCsr::for_each_neighbor(self, v, f)
    }

    #[inline]
    fn average_degree(&self) -> f64 {
        CompressedCsr::average_degree(self)
    }
}

/// Streaming row decoder returned by [`CompressedCsr::neighbors_iter`]:
/// one window load + shift + mask per entry at the current chunk's
/// fixed width; the only branch is the per-[`CHUNK_GAPS`] header read.
#[derive(Debug, Clone)]
pub struct CompressedNeighbors<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor into `bytes`.
    bit: usize,
    /// Gaps left in the row.
    remaining: u32,
    /// Gaps left in the current chunk (0 forces a header read).
    chunk_left: u32,
    width: u32,
    mask: u64,
    base: NodeId,
}

impl Iterator for CompressedNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        if self.chunk_left == 0 {
            // Chunks are byte-aligned: round up, read the width header.
            let byte = (self.bit + 7) >> 3;
            self.width = self.bytes[byte] as u32;
            self.mask = (1u64 << self.width) - 1;
            self.chunk_left = self.remaining.min(CHUNK_GAPS as u32);
            self.bit = (byte + 1) << 3;
        }
        let gap = ((window(self.bytes, self.bit >> 3) >> (self.bit & 7)) & self.mask) as u32;
        self.bit += self.width as usize;
        self.remaining -= 1;
        self.chunk_left -= 1;
        let v = self.base + gap;
        self.base = v + 1;
        Some(v)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for CompressedNeighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [
            0u32,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            0x1F_FFFF,
            0x20_0000,
            0xFFF_FFFF,
            0x1000_0000,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 5);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
            let mut pos = 0;
            assert_eq!(checked_read_varint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn checked_varint_rejects_truncation_and_overflow() {
        assert!(checked_read_varint(&[], &mut 0).is_err());
        assert!(checked_read_varint(&[0x80], &mut 0).is_err());
        assert!(checked_read_varint(&[0x80, 0x80, 0x80, 0x80], &mut 0).is_err());
        // 6-byte encoding: too long even if the value would fit.
        assert!(checked_read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut 0).is_err());
        // 5 bytes whose value exceeds u32::MAX.
        assert!(checked_read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F], &mut 0).is_err());
    }

    /// The chunk codec round-trips arbitrary gap sequences through the
    /// checked walker, including widths 0 and 32, chunk-boundary
    /// lengths, and empty input.
    #[test]
    fn chunk_codec_round_trips_gap_sequences() {
        let mut rng = StdRng::seed_from_u64(0xBD7);
        let mut cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0; CHUNK_GAPS],
            vec![0; CHUNK_GAPS + 1],
            (0..3 * CHUNK_GAPS as u32).collect(),
        ];
        for _ in 0..32 {
            let len = rng.gen_range(0..80usize);
            let shift = rng.gen_range(0..32u32);
            cases.push(
                (0..len)
                    .map(|_| rng.gen_range(0..=u32::MAX >> shift))
                    .collect(),
            );
        }
        for (i, gaps) in cases.iter().enumerate() {
            let mut buf = Vec::new();
            encode_gaps_chunked(&mut buf, gaps);
            let mut back = Vec::new();
            let mut pos = 0usize;
            checked_walk_chunks(&buf, &mut pos, gaps.len() as u32, |g| {
                back.push(g);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("case {i}: {e}"));
            assert_eq!(&back, gaps, "case {i}");
            assert_eq!(pos, buf.len(), "case {i} consumes exactly");
            // Truncations of the stream must be typed errors.
            if !buf.is_empty() {
                let mut pos = 0usize;
                assert!(
                    checked_walk_chunks(&buf[..buf.len() - 1], &mut pos, gaps.len() as u32, |_| {
                        Ok(())
                    })
                    .is_err(),
                    "case {i} truncation accepted"
                );
            }
        }
        // A width header over 32 is rejected.
        let mut pos = 0usize;
        assert!(checked_walk_chunks(&[33, 0, 0, 0, 0], &mut pos, 1, |_| Ok(())).is_err());
    }

    #[test]
    fn compresses_and_streams_back_identically() {
        let g = from_edges(6, &[(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]);
        let c = CompressedCsr::from_graph(&g);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.degree_sum(), g.degree_sum());
        assert_eq!(c.fingerprint(), g.fingerprint());
        let mut scratch = Vec::new();
        for v in g.nodes() {
            assert_eq!(c.degree(v), g.degree(v));
            let row: Vec<NodeId> = c.neighbors_iter(v).collect();
            assert_eq!(row, g.neighbors(v), "node {v}");
            c.decode_neighbors_into(v, &mut scratch);
            assert_eq!(scratch, g.neighbors(v), "node {v} via scratch");
            let mut streamed = Vec::new();
            c.for_each_neighbor(v, |w| streamed.push(w));
            assert_eq!(streamed, g.neighbors(v), "node {v} via for_each");
        }
        assert_eq!(c.to_csr(), g);
    }

    #[test]
    fn blocks_are_cache_line_aligned() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::erdos_renyi_gnp(300, 0.05, &mut rng);
        let c = CompressedCsr::from_graph(&g);
        // Base pointer and every block-leading row start on a line.
        assert_eq!(c.bytes_raw().as_ptr() as usize % BLOCK_ALIGN, 0);
        for v in (0..c.num_nodes()).step_by(BLOCK_NODES) {
            assert_eq!(
                c.offsets_raw()[v] as usize % BLOCK_ALIGN,
                0,
                "block at node {v} misaligned"
            );
        }
        assert_eq!(c.to_csr(), g);
    }

    /// Property test: 128 seeded random degree/gap distributions —
    /// including degree-0 nodes and a max-gap row that spans the whole
    /// id range — must round-trip bit-identically through compress →
    /// stream-decode and compress → decompress.
    #[test]
    fn codec_round_trips_random_degree_gap_distributions() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for case in 0..128 {
            let n = rng.gen_range(2..400usize);
            let mut edges = Vec::new();
            // Random density, clustered and uniform gaps mixed.
            let attempts = rng.gen_range(0..6 * n);
            for _ in 0..attempts {
                let u = rng.gen_range(0..n as NodeId);
                let w = rng.gen_range(0..n as NodeId);
                if u != w {
                    edges.push((u, w));
                }
            }
            // Max-gap row: node 0 adjacent to the last node only
            // (plus whatever it randomly drew).
            edges.push((0, n as NodeId - 1));
            let g = from_edges(n, &edges);
            let c = CompressedCsr::from_graph(&g);
            assert_eq!(c.to_csr(), g, "case {case} (n = {n})");
            for v in g.nodes() {
                assert!(c.neighbors_iter(v).eq(g.neighbors(v).iter().copied()));
            }
            // Degree-0 nodes exist with high probability at these
            // densities; exercise them explicitly when present.
            if let Some(iso) = g.nodes().find(|&v| g.degree(v) == 0) {
                assert_eq!(c.neighbors_iter(iso).count(), 0);
            }
            assert_eq!(c.fingerprint(), g.fingerprint(), "case {case}");
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = CompressedCsr::from_graph(&from_edges(0, &[]));
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.num_edges(), 0);
        assert_eq!(empty.average_degree(), 0.0);
        let iso = CompressedCsr::from_graph(&from_edges(3, &[]));
        assert_eq!(iso.num_nodes(), 3);
        assert_eq!(iso.neighbors_iter(1).count(), 0);
        // Empty rows pack to zero bytes; only the tail padding remains.
        assert_eq!(iso.adjacency_bytes(), TAIL_PAD);
    }
}
