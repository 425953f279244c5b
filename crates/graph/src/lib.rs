//! Graph substrate for the TESC reproduction.
//!
//! The paper (*Measuring Two-Event Structural Correlations on Graphs*,
//! VLDB 2012) works on large undirected, unweighted graphs stored as
//! adjacency lists (Sec. 4.4: "The major space cost is O(|E|), for
//! storing the graph as adjacency lists"). This crate provides that
//! substrate, built from scratch:
//!
//! * [`csr`] — a compact immutable CSR (compressed sparse row) graph
//!   plus a mutable [`csr::GraphBuilder`].
//! * [`adjacency`] — the [`Adjacency`] trait the BFS kernels are
//!   generic over, implemented by plain and compressed CSR.
//! * [`compressed`] — delta-encoded, varint-packed adjacency
//!   ([`compressed::CompressedCsr`]) with a streaming block-wise
//!   decoder, for the bandwidth-bound million-node tier.
//! * [`container`] — the `.tgraph` binary graph container
//!   (magic/version/LE header, CRC-32-checksummed sections).
//! * [`bfs`] — the BFS toolkit: single-source `h`-hop BFS and the
//!   multi-source **Batch BFS** of Algorithm 1, with reusable,
//!   epoch-stamped scratch space so repeated searches allocate nothing.
//! * [`budget`] — cooperative deadline/cancellation tokens
//!   ([`budget::Budget`]) the budgeted kernel variants check once per
//!   frontier level, unwinding with a typed [`budget::Interrupted`].
//! * [`vicinity`] — the offline `|V^h_v|` index of Sec. 4.2 used by
//!   rejection/importance sampling, with incremental maintenance.
//! * [`generators`] — random-graph generators (Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz, planted partition) standing in
//!   for the paper's real datasets, plus deterministic toy graphs.
//! * [`pool`] — a thread-safe [`pool::ScratchPool`] of BFS scratches,
//!   the sharing primitive behind the parallel batch engine
//!   (`tesc::batch`).
//! * [`perturb`] — random edge addition/removal (the Fig. 8 experiment).
//! * [`dist`] — bounded shortest-path helpers used by the event
//!   simulator and tests.
//! * [`io`] — plain-text edge-list serialization for the examples.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adjacency;
pub mod bfs;
pub mod budget;
pub mod codec;
pub mod compressed;
pub mod container;
pub mod crc;
pub mod csr;
pub mod dist;
pub mod generators;
pub mod io;
pub mod perturb;
pub mod pool;
pub mod vicinity;

pub use adjacency::Adjacency;
pub use bfs::{
    multi_mask_counts, BfsKernel, BfsScratch, MsBfsScratch, MAX_GROUP_SOURCES, MULTI_MIN_SOURCES,
    SOURCE_GROUP_SIZE,
};
pub use budget::{Budget, Interrupted};
pub use compressed::CompressedCsr;
pub use container::{
    decode_tgraph, decode_tgraph_csr, encode_tgraph, is_tgraph, TgraphFile, TGRAPH_MAGIC,
};
pub use csr::{CsrGraph, EdgeError, GraphBuilder, NodeId};
pub use pool::{PooledMultiScratch, PooledScratch, ScratchPool, PARALLEL_MIN_NODES};
pub use vicinity::VicinityIndex;
