//! The pinned API surface: **every** call from the benchmark into the
//! repository's crates goes through this file.
//!
//! The rest of the package imports types and functions from here and
//! never names `tesc*` crates itself, so a refactor of the library
//! (ROADMAP item 3) has exactly one file to keep compiling. The
//! surface is deliberately the narrow, long-lived one — `TescEngine::
//! {new, with_vicinity_index, with_density_kernel, test}`,
//! `rank_pairs`, the three `PairSetPlan` stages, `TescContext`
//! ingestion and recovery, `Snapshot::engine`, the `DensityCache`
//! counters, `kendall_tau`, `Json`, the `.tgraph` codec and the
//! scenario builders — and none of the `density_vectors_*`,
//! `*_budgeted` or `run_batch_*` twins. `README.md` lists it.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

pub use rand::Rng;
pub use tesc::batch::EventPair;
pub use tesc::context::{Snapshot, TescContext};
pub use tesc::planner::{FusedDensities, PairSetPlan};
pub use tesc::rank::{RankMode, RankReport, RankRequest};
pub use tesc::serve::json::Json;
pub use tesc::{SamplerKind, Tail, TescConfig, TescEngine};
pub use tesc_datasets::{DblpConfig, DblpScenario, TwitterConfig, TwitterScenario};
pub use tesc_events::EventStore;
pub use tesc_graph::{BfsKernel, CsrGraph, NodeId, VicinityIndex};

use tesc::persist::StoreOptions;
use tesc_graph::CompressedCsr;
use tesc_stats::kendall::{kendall_tau, KendallMethod};

/// The repository's deterministic generator, seeded.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A graph from an explicit edge list (unit tests of the reference BFS).
#[cfg(test)]
pub fn graph_from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
    tesc_graph::csr::from_edges(num_nodes, edges)
}

// ---------------------------------------------------------------- index

/// `|V^h_v|` index up to `max_level`, built on `threads` workers.
pub fn build_vicinity(g: &CsrGraph, max_level: u32, threads: usize) -> VicinityIndex {
    VicinityIndex::build_parallel(g, max_level, threads)
}

// --------------------------------------------------------------- engine

/// A cache-less engine over a caller-owned graph and index.
pub fn engine<'a>(g: &'a CsrGraph, vicinity: &'a VicinityIndex) -> TescEngine<'a> {
    TescEngine::with_vicinity_index(g, vicinity)
}

/// [`engine`] with the density kernel forced.
pub fn engine_with_kernel<'a>(
    g: &'a CsrGraph,
    vicinity: &'a VicinityIndex,
    kernel: BfsKernel,
) -> TescEngine<'a> {
    TescEngine::with_vicinity_index(g, vicinity).with_density_kernel(kernel)
}

/// One TESC test; the z-score's bit pattern, or the error text.
pub fn test_z_bits(
    engine: &TescEngine<'_>,
    pair: &EventPair,
    cfg: &TescConfig,
    seed: u64,
) -> Result<u64, String> {
    engine
        .test(&pair.a, &pair.b, cfg, &mut rng(seed))
        .map(|r| r.z().to_bits())
        .map_err(|e| e.to_string())
}

// ----------------------------------------------------------------- rank

/// A top-`k` ranking request over `pairs` (seed set per run with
/// [`rank`]).
pub fn rank_request(
    pairs: &[EventPair],
    cfg: TescConfig,
    threads: usize,
    k: usize,
    mode: RankMode,
) -> RankRequest {
    RankRequest::new(cfg)
        .with_threads(threads)
        .with_top_k(k)
        .with_mode(mode)
        .with_pairs(pairs.iter().cloned())
}

/// Run `req` under master seed `seed`.
pub fn rank(engine: &TescEngine<'_>, req: &mut RankRequest, seed: u64) -> RankReport {
    req.seed = seed;
    tesc::rank::rank_pairs(engine, req)
}

/// The per-pair seeds [`rank`] derives from a master seed.
pub fn content_seeds(master: u64, pairs: &[EventPair]) -> Vec<u64> {
    pairs
        .iter()
        .map(|p| tesc::rank::content_seed(master, &p.a, &p.b))
        .collect()
}

// -------------------------------------------------------------- planner

/// Stage (a): sample every pair and dedupe the reference workset.
pub fn plan_build<'e, 'g>(
    engine: &'e TescEngine<'g>,
    pairs: &[EventPair],
    cfg: &TescConfig,
    seeds: &[u64],
    threads: usize,
) -> PairSetPlan<'e, 'g> {
    PairSetPlan::build(engine, pairs, cfg, seeds, threads)
}

/// Stage (b): the fused density pass.
pub fn plan_density(plan: &PairSetPlan<'_, '_>, threads: usize) -> FusedDensities {
    plan.run_density(threads)
}

/// Stage (c): scatter + correlate; per pair the z-score bits, `None`
/// where the pair's test failed.
pub fn plan_finish(plan: &PairSetPlan<'_, '_>, fused: &FusedDensities) -> Vec<Option<u64>> {
    plan.finish(fused)
        .into_iter()
        .map(|o| o.result.ok().map(|r| r.z().to_bits()))
        .collect()
}

// -------------------------------------------------------------- context

fn store_options(snapshot_every: u64) -> StoreOptions {
    StoreOptions {
        snapshot_every,
        ..StoreOptions::default()
    }
}

/// A versioned context (builds its own vicinity index to `max_level`).
pub fn context_new(
    graph: CsrGraph,
    events: EventStore,
    max_level: u32,
    threads: usize,
) -> TescContext {
    TescContext::with_threads(graph, events, max_level, threads)
}

/// Make `ctx` crash-safe in the (empty) directory `dir`.
pub fn context_durable(
    ctx: TescContext,
    dir: &Path,
    snapshot_every: u64,
) -> Result<TescContext, String> {
    ctx.with_durability(dir, store_options(snapshot_every))
        .map_err(|e| e.to_string())
}

/// Recover the context persisted in `dir`.
pub fn context_open(
    dir: &Path,
    max_level: u32,
    threads: usize,
    snapshot_every: u64,
) -> Result<TescContext, String> {
    match TescContext::open_dir(dir, max_level, threads, store_options(snapshot_every)) {
        Ok(Some(ctx)) => Ok(ctx),
        Ok(None) => Err(format!("{} holds no data", dir.display())),
        Err(e) => Err(e.to_string()),
    }
}

/// Pin the current version.
pub fn context_snapshot(ctx: &TescContext) -> Arc<Snapshot> {
    ctx.snapshot()
}

/// Ingest an edge delta; the version it produced.
pub fn context_add_edges(ctx: &TescContext, edges: &[(NodeId, NodeId)]) -> Result<u64, String> {
    ctx.add_edges(edges)
        .map(|s| s.version())
        .map_err(|e| e.to_string())
}

/// Append occurrences to the event called `name`; the version it
/// produced.
pub fn context_add_occurrences(
    ctx: &TescContext,
    name: &str,
    nodes: &[NodeId],
) -> Result<u64, String> {
    let id = ctx
        .snapshot()
        .events()
        .id_by_name(name)
        .ok_or_else(|| format!("unknown event {name}"))?;
    ctx.add_event_occurrences(id, nodes)
        .map(|s| s.version())
        .map_err(|e| e.to_string())
}

/// Force a checkpoint (snapshot + WAL rotation).
pub fn context_checkpoint(ctx: &TescContext) -> Result<(), String> {
    match ctx.checkpoint() {
        Ok(true) => Ok(()),
        Ok(false) => Err("no data directory attached".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The snapshot's cache-wired engine.
pub fn snapshot_engine(snap: &Snapshot) -> TescEngine<'_> {
    snap.engine()
}

/// The registered pair `(a, b)` of a snapshot, by event name.
pub fn snapshot_pair(snap: &Snapshot, a: &str, b: &str) -> Option<EventPair> {
    let events = snap.events();
    Some(snap.event_pair(events.id_by_name(a)?, events.id_by_name(b)?))
}

/// Every registered pair involving `focus` — the candidate set the
/// server's `/top-k {"focus": …}` ranks.
pub fn snapshot_focus_pairs(snap: &Snapshot, focus: &str) -> Vec<EventPair> {
    let events = snap.events();
    match events.id_by_name(focus) {
        Some(id) => events
            .pairs_with(id)
            .into_iter()
            .map(|(a, b)| snap.event_pair(a, b))
            .collect(),
        None => Vec::new(),
    }
}

/// Counters of a snapshot's cross-pair density cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Density BFS searches run on the cache's behalf.
    pub bfs_invocations: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Bytes resident now.
    pub resident_bytes: u64,
}

/// Read the cache counters of `snap`.
pub fn cache_counters(snap: &Snapshot) -> CacheCounters {
    let c = snap.density_cache();
    CacheCounters {
        hits: c.hits(),
        misses: c.misses(),
        bfs_invocations: c.bfs_invocations(),
        evictions: c.evictions(),
        resident_bytes: c.resident_bytes() as u64,
    }
}

// ---------------------------------------------------------------- stats

/// Kendall's τ z-score (merge-sort method, tie-corrected).
pub fn kendall_z(x: &[f64], y: &[f64]) -> f64 {
    kendall_tau(x, y, KendallMethod::MergeSort).z
}

// ---------------------------------------------------------------- files

/// `.tgraph` container bytes of `g`.
pub fn encode_graph(g: &CsrGraph) -> Vec<u8> {
    tesc_graph::encode_tgraph(&CompressedCsr::from_graph(g), None)
}

/// Decode `.tgraph` bytes back to a plain CSR.
pub fn decode_graph(bytes: &[u8]) -> Result<CsrGraph, String> {
    tesc_graph::decode_tgraph(bytes)
        .map(|f| f.graph.to_csr())
        .map_err(|e| e.to_string())
}

/// The named-events file `tesc-serve --events` reads.
pub fn encode_events(events: &EventStore) -> Vec<u8> {
    let mut out = Vec::new();
    tesc_events::io::write_named_events(events, &mut out).expect("writing to a Vec cannot fail");
    out
}
