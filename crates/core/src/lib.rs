//! # TESC — Two-Event Structural Correlation on graphs
//!
//! A from-scratch Rust implementation of
//! *Measuring Two-Event Structural Correlations on Graphs*
//! (Ziyu Guan, Xifeng Yan, Lance M. Kaplan; PVLDB 5(11), VLDB 2012).
//!
//! Given two events `a` and `b` occurring on the nodes of a graph, the
//! TESC test decides whether the events **attract** or **repulse** each
//! other within `h`-hop neighborhoods:
//!
//! 1. Sample `n` *reference nodes* uniformly from `V^h_{a∪b}` — the set
//!    of nodes that can "see" at least one occurrence within `h` hops.
//! 2. For each reference node `r`, measure the densities
//!    `s^h_a(r) = |V_a ∩ V^h_r| / |V^h_r|` and likewise for `b` (Eq. 2).
//! 3. Compute Kendall's τ over all reference-node pairs (Eq. 4) and the
//!    z-score from τ's asymptotic normality under independence
//!    (Eq. 5–7, tie-corrected).
//!
//! # Quick start
//!
//! ```
//! use tesc::{TescConfig, TescEngine, SamplerKind};
//! use tesc_graph::generators::grid;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = grid(30, 30);
//! let engine = TescEngine::new(&g);
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // Two events occupying the same corner of the grid: attraction.
//! let va: Vec<u32> = (0..40).collect();
//! let vb: Vec<u32> = (10..50).collect();
//!
//! let cfg = TescConfig::new(1).with_sample_size(200);
//! let result = engine.test(&va, &vb, &cfg, &mut rng).unwrap();
//! assert!(result.outcome.z > 0.0);
//! ```
//!
//! # Modules
//!
//! * [`density`] — Eq. 2 event densities, one BFS per reference node,
//!   with a pooled parallel fan-out for the per-test hot loop.
//! * [`sampler`] — the reference-node samplers of Sec. 4: Batch BFS
//!   (Alg. 1), rejection sampling, importance sampling (Alg. 2, with
//!   the batched variant of Sec. 5.2.2) and whole-graph sampling
//!   (Alg. 3).
//! * [`engine`] — the end-to-end statistical test (Sec. 3).
//! * [`batch`] — the parallel batch engine: run many tests against one
//!   shared graph/vicinity index with deterministic per-test RNG
//!   streams (bit-identical to serial execution).
//! * [`planner`] — the pair-set query planner: stage many tests as
//!   plan → sample → **fused multi-event density** → scatter →
//!   correlate, so a pair set sharing events runs ONE density BFS per
//!   distinct reference node instead of one per (pair, node).
//! * [`rank`] — top-K event-pair ranking over the planner:
//!   content-seeded (permutation-invariant) scoring with a sound
//!   significance-budget early exit for `--top-k` runs.
//! * [`anytime`] — the progressive ranking executor behind
//!   `RankMode::Anytime`: score pairs on a small sample prefix,
//!   confidence-interval the projected full-sample score, and only
//!   escalate (geometric doubling, re-entering the planner per round)
//!   while the interval straddles the top-K cutoff; `eps = 0` is
//!   bit-identical to exact.
//! * [`cache`] — the cross-pair density cache: memoized
//!   `(event, node, h)` vicinity counts so batches over pair lists
//!   sharing an event do the shared BFS work once.
//! * [`context`] — the versioned [`context::TescContext`]: immutable
//!   `Arc` snapshots of graph + vicinity index + event store with
//!   incremental ingestion (`add_edges`, `add_event_occurrences`) —
//!   readers pin a consistent version while writers publish the next.
//! * [`serve`] — the `tesc-serve` daemon: a std-only HTTP/1.1 server
//!   over a [`context::TescContext`] (bounded worker pool, admission
//!   control, concurrent snapshot-pinned queries, serialized
//!   ingestion, per-endpoint metrics).
//! * [`persist`] — crash-safe persistence for the context: versioned
//!   checksummed snapshots + a CRC-framed ingestion WAL, fsync'd
//!   before publish, with snapshot-fallback recovery and fault
//!   injection for testing it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anytime;
pub mod batch;
pub mod cache;
pub mod context;
pub mod density;
pub mod engine;
pub mod intensity;
pub mod persist;
pub mod planner;
pub mod rank;
pub mod sampler;
pub mod serve;

pub use anytime::{escalation_schedule, ANYTIME_FLOOR};
pub use batch::{run_batch, BatchReport, BatchRequest, EventPair};
pub use cache::{DensityCache, EventKey};
pub use context::{IngestError, MemoryStats, Snapshot, TescContext};
pub use engine::{Statistic, TescConfig, TescEngine, TescError, TescResult};
pub use persist::{PersistError, StoreOptions};
pub use planner::{FusedDensities, PairSetPlan};
pub use rank::{
    content_seed, direction_score, rank_pairs, RankEntry, RankMode, RankReport, RankRequest,
};
pub use sampler::SamplerKind;

// Re-export the pieces of the public API that come from substrates so
// downstream users need only depend on `tesc`.
pub use tesc_events::{simulate, EventId, EventStore, EventStoreError, NodeMask};
pub use tesc_graph::{
    BfsKernel, BfsScratch, Budget, CsrGraph, EdgeError, GraphBuilder, Interrupted, NodeId,
    VicinityIndex,
};
pub use tesc_stats::{SignificanceLevel, Tail, TestOutcome};
