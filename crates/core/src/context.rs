//! Versioned [`TescContext`] — the serving-shaped core of the stack.
//!
//! The paper notes the vicinity index "can be efficiently updated as
//! the graph changes" (Sec. 4.2); this module turns that observation
//! into an ingestion architecture. A [`TescContext`] owns a sequence
//! of immutable [`Snapshot`]s — `Arc` bundles of
//! [`CsrGraph`] + [`VicinityIndex`] + [`EventStore`] stamped with a
//! monotone version — and an ingestion API
//! ([`TescContext::add_edges`], [`TescContext::add_event_occurrences`],
//! [`TescContext::add_event`]) that *prepares the next snapshot off to
//! the side* and atomically publishes it:
//!
//! * **Readers never block and never tear.** [`TescContext::snapshot`]
//!   is an `Arc` clone; a long-lived engine or batch run keeps working
//!   against the graph/index/events triple it started with, even while
//!   writers publish newer versions (the snapshot-separation idea of
//!   HTAP designs, scaled to this library).
//! * **Writers pay copy + delta.** `add_edges` splices the delta into
//!   a copy of the CSR ([`CsrGraph::with_edges`]: untouched rows are
//!   block-copied, touched rows merged — no edge list, no sort) and
//!   re-derives only the dirty region of the vicinity index via the
//!   per-node rebuild path of [`VicinityIndex::refresh`]: the
//!   `(max_level − 1)`-ball around the new edges' endpoints, the only
//!   nodes that can see a new `≤ max_level` path. What remains
//!   proportional to the whole graph is copying arrays that must
//!   exist twice anyway (readers keep the old snapshot); the new
//!   version's fingerprint is the old one plus the new arcs' terms,
//!   so pinning its cache hashes nothing. WAL replay
//!   ([`TescContext::open_dir`]) applies edge records through the same
//!   splice. Event ingestion reuses the graph and index entirely.
//! * **Each snapshot carries a cross-pair [`DensityCache`]** shared by
//!   every engine derived from it. Graph-changing ingests get a fresh
//!   cache (memoized vicinity counts can never leak across graph
//!   versions); event-only ingests keep riding the previous
//!   snapshot's warm cache, which stays valid because entries are
//!   content-addressed by occurrence set and depend only on the
//!   unchanged graph.
//!
//! ```
//! use tesc::context::TescContext;
//! use tesc::{EventStore, TescConfig};
//! use tesc_graph::generators::grid;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut events = EventStore::new();
//! let a = events.add_event("a", (0..20).collect());
//! let b = events.add_event("b", (10..30).collect());
//! let ctx = TescContext::new(grid(20, 20), events, 2);
//!
//! let before = ctx.snapshot();                 // readers pin version 1
//! ctx.add_edges(&[(0, 399)]).unwrap();         // writers publish version 2
//! ctx.add_event_occurrences(b, &[399]).unwrap(); // ... and version 3
//!
//! let after = ctx.snapshot();
//! assert_eq!((before.version(), after.version()), (1, 3));
//! // `before` still serves the pre-ingestion world:
//! assert!(!before.graph().has_edge(0, 399));
//! let cfg = TescConfig::new(2).with_sample_size(100);
//! let r = after
//!     .engine()
//!     .test(after.events().nodes(a), after.events().nodes(b), &cfg,
//!           &mut StdRng::seed_from_u64(7))
//!     .unwrap();
//! assert!(r.n_refs > 0);
//! ```

use crate::batch::{BatchReport, BatchRequest, EventPair};
use crate::cache::DensityCache;
use crate::engine::TescEngine;
use crate::persist::{Durability, PersistError, Store, StoreOptions, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use tesc_events::{EventId, EventStore, EventStoreError};
use tesc_graph::{Adjacency, CsrGraph, EdgeError, NodeId, ScratchPool, VicinityIndex};

/// Failure modes of the ingestion API. All checks run before any
/// state is built, so a failed ingest publishes nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// An edge of the delta is invalid for the current graph.
    BadEdge(EdgeError),
    /// An event mutation failed (unknown id, duplicate name).
    BadEvent(EventStoreError),
    /// An occurrence node is not a node of the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// The durability layer could not log the mutation to the WAL.
    /// Nothing was published: the context still serves the previous
    /// version, consistent with what recovery would reconstruct.
    Persist {
        /// The underlying persistence error, stringified.
        message: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::BadEdge(e) => write!(f, "bad edge delta: {e}"),
            IngestError::BadEvent(e) => write!(f, "bad event delta: {e}"),
            IngestError::NodeOutOfRange { node, num_nodes } => write!(
                f,
                "occurrence node {node} out of range for {num_nodes} nodes"
            ),
            IngestError::Persist { message } => {
                write!(f, "durable log append failed: {message}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<EdgeError> for IngestError {
    fn from(e: EdgeError) -> Self {
        IngestError::BadEdge(e)
    }
}

impl From<EventStoreError> for IngestError {
    fn from(e: EventStoreError) -> Self {
        IngestError::BadEvent(e)
    }
}

/// Resident-memory accounting of one snapshot's durable state —
/// what `GET /stats` serves under `"memory"`. Derived quantities the
/// snapshot also carries (vicinity index, density cache) report
/// their own sizes; the cache's live byte count in particular keeps
/// moving, so it is read from [`DensityCache::resident_bytes`] at
/// query time rather than frozen here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Adjacency bytes of the snapshot's plain-CSR graph (offsets +
    /// neighbor array).
    pub graph_plain_bytes: usize,
    /// What the same topology costs in the delta/varint compressed
    /// encoding ([`tesc_graph::CompressedCsr`]) — the footprint a
    /// `.tgraph`-loaded serving process would hold resident.
    pub graph_compressed_bytes: usize,
    /// Event-registry bytes (names + occurrence lists).
    pub event_bytes: usize,
}

/// One immutable, internally consistent version of the world:
/// graph, vicinity index, event store and a version stamp, plus a
/// snapshot-local cross-pair density cache.
///
/// Snapshots are handed out as `Arc<Snapshot>`; holding one pins the
/// version for as long as needed regardless of writer activity.
#[derive(Debug)]
pub struct Snapshot {
    graph: Arc<CsrGraph>,
    vicinity: Arc<VicinityIndex>,
    events: Arc<EventStore>,
    cache: Arc<DensityCache>,
    /// BFS scratches for every engine this snapshot makes. Carried
    /// across **all** versions (ingestion never changes the node
    /// count), so a served request starts on a warm scratch instead of
    /// allocating and page-faulting a fresh one.
    pool: Arc<ScratchPool>,
    version: u64,
    /// Memory accounting, computed on first request (the compressed
    /// figure costs an `O(E)` encoding pass, which ingestion publishes
    /// should not pay) and then pinned for the snapshot's lifetime.
    memory: std::sync::OnceLock<MemoryStats>,
}

impl Snapshot {
    /// `reuse_cache` carries the previous snapshot's cache forward
    /// when the graph is unchanged (event-only deltas): entries are
    /// content-addressed by occurrence set and depend only on the
    /// graph, so they stay valid — and stay warm. Graph changes must
    /// pass `None` to get a fresh cache, built with `cache_budget`
    /// (the context's bounded-memory knob — see
    /// [`TescContext::with_cache_budget`]). `pool` is the context's
    /// one scratch pool.
    fn assemble(
        graph: Arc<CsrGraph>,
        vicinity: Arc<VicinityIndex>,
        events: Arc<EventStore>,
        version: u64,
        reuse_cache: Option<Arc<DensityCache>>,
        cache_budget: Option<usize>,
        pool: Arc<ScratchPool>,
    ) -> Arc<Self> {
        let cache =
            reuse_cache.unwrap_or_else(|| Arc::new(DensityCache::new(&*graph, cache_budget)));
        Arc::new(Snapshot {
            graph,
            vicinity,
            events,
            cache,
            pool,
            version,
            memory: std::sync::OnceLock::new(),
        })
    }

    /// Resident-memory accounting of this snapshot (see
    /// [`MemoryStats`]); the compressed-graph figure is measured on
    /// first call and memoized.
    pub fn memory(&self) -> MemoryStats {
        *self.memory.get_or_init(|| MemoryStats {
            graph_plain_bytes: self.graph.resident_bytes(),
            graph_compressed_bytes: tesc_graph::CompressedCsr::from_graph(&self.graph)
                .resident_bytes(),
            event_bytes: self.events.resident_bytes(),
        })
    }

    /// Monotone version stamp (the context's first snapshot is 1).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// 64-bit fingerprint of the snapshot's durable state: graph
    /// fingerprint × event-store fingerprint × version, FNV-mixed.
    /// Recovery equivalence is asserted against this — two snapshots
    /// with equal fingerprints serve bit-identical answers to every
    /// seeded query.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.graph.fingerprint();
        h = (h ^ self.events.fingerprint()).wrapping_mul(PRIME);
        h = (h ^ self.version).wrapping_mul(PRIME);
        h
    }

    /// The snapshot's graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The snapshot's `|V^h_v|` index (levels `1..=max_level` of the
    /// context).
    #[inline]
    pub fn vicinity(&self) -> &VicinityIndex {
        &self.vicinity
    }

    /// The snapshot's event registry.
    #[inline]
    pub fn events(&self) -> &EventStore {
        &self.events
    }

    /// The snapshot-local cross-pair density cache (shared by every
    /// engine derived from this snapshot, so repeated batches against
    /// one version keep amortizing).
    #[inline]
    pub fn density_cache(&self) -> &Arc<DensityCache> {
        &self.cache
    }

    /// A fully wired engine over this snapshot: vicinity-index-backed
    /// (all samplers available) with the snapshot's density cache
    /// attached. Every engine draws its BFS scratches from the
    /// snapshot's shared pool. The engine borrows the snapshot, so keep
    /// the `Arc<Snapshot>` alive for the engine's lifetime.
    pub fn engine(&self) -> TescEngine<'_> {
        TescEngine::with_vicinity_arc(&*self.graph, self.vicinity.clone())
            .with_density_cache(self.cache.clone())
            .with_scratch_pool(self.pool.clone())
    }

    /// Resolve two registered events into a labeled
    /// [`EventPair`] (`"a×b"`) for batch requests.
    pub fn event_pair(&self, a: EventId, b: EventId) -> EventPair {
        EventPair::new(
            format!("{}×{}", self.events.name(a), self.events.name(b)),
            self.events.nodes(a).to_vec(),
            self.events.nodes(b).to_vec(),
        )
    }

    /// Run a batch request against this snapshot with the snapshot's
    /// cache-wired engine — the one-liner for "test these pairs at
    /// this version".
    pub fn run_batch(&self, req: &BatchRequest) -> BatchReport {
        crate::batch::run_batch(&self.engine(), req)
    }
}

/// Versioned, concurrently readable TESC state with incremental
/// ingestion. See the module docs for the architecture.
#[derive(Debug)]
pub struct TescContext {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes writers so each prepares its snapshot against the
    /// latest published one; held while the next snapshot is
    /// prepared, while `current`'s lock is only held for the swap.
    writer: Mutex<()>,
    max_level: u32,
    /// Byte budget handed to every freshly created snapshot cache
    /// (`None` = unbounded append-only caches, the batch default).
    cache_budget: Option<usize>,
    /// Durable sink (ingestion WAL + periodic snapshots) when the
    /// context is attached to a data directory. Mutated only under
    /// `writer` — the `Mutex` exists because the writer methods take
    /// `&self`; the lock ordering is always `writer` → `durability`.
    durability: Mutex<Option<Durability>>,
}

impl TescContext {
    /// Context over an initial graph and event store; builds the
    /// vicinity index for levels `1..=max_level` single-threaded.
    ///
    /// # Panics
    ///
    /// Panics if the event store references out-of-range nodes — use
    /// [`TescContext::try_new`] to handle that as an error.
    pub fn new(graph: CsrGraph, events: EventStore, max_level: u32) -> Self {
        Self::with_threads(graph, events, max_level, 1)
    }

    /// Fallible [`TescContext::new`].
    pub fn try_new(
        graph: CsrGraph,
        events: EventStore,
        max_level: u32,
    ) -> Result<Self, IngestError> {
        Self::try_with_threads(graph, events, max_level, 1)
    }

    /// [`TescContext::new`] with the offline index sweep fanned out
    /// over `threads` workers via [`VicinityIndex::build_parallel`].
    ///
    /// # Panics
    ///
    /// Panics if the event store references out-of-range nodes — use
    /// [`TescContext::try_with_threads`] to handle that as an error.
    pub fn with_threads(
        graph: CsrGraph,
        events: EventStore,
        max_level: u32,
        threads: usize,
    ) -> Self {
        Self::try_with_threads(graph, events, max_level, threads)
            .unwrap_or_else(|e| panic!("invalid initial event store: {e}"))
    }

    /// Fallible [`TescContext::with_threads`]: the initial event store
    /// is validated against the graph exactly like later ingests, so
    /// out-of-range occurrences surface as
    /// [`IngestError::NodeOutOfRange`] here instead of panicking
    /// inside the first test.
    pub fn try_with_threads(
        graph: CsrGraph,
        events: EventStore,
        max_level: u32,
        threads: usize,
    ) -> Result<Self, IngestError> {
        Self::try_with_threads_at(graph, events, max_level, threads, 1)
    }

    /// [`TescContext::try_with_threads`] starting at an arbitrary
    /// version stamp — the recovery path re-creating a context "as of"
    /// the version its data directory reached.
    fn try_with_threads_at(
        graph: CsrGraph,
        events: EventStore,
        max_level: u32,
        threads: usize,
        version: u64,
    ) -> Result<Self, IngestError> {
        for (_, _, nodes) in events.iter() {
            check_nodes(graph.num_nodes(), nodes)?;
        }
        let vicinity = VicinityIndex::build_parallel(&graph, max_level, threads);
        let pool = Arc::new(ScratchPool::for_graph(&graph));
        Ok(TescContext {
            current: RwLock::new(Snapshot::assemble(
                Arc::new(graph),
                Arc::new(vicinity),
                Arc::new(events),
                version,
                None,
                None,
                pool,
            )),
            writer: Mutex::new(()),
            max_level,
            cache_budget: None,
            durability: Mutex::new(None),
        })
    }

    /// Cap every snapshot cache's resident memory at (approximately)
    /// `bytes` via the second-chance eviction policy of
    /// [`DensityCache::for_graph_bounded`] (`None` restores the
    /// unbounded default). Long-lived contexts — a serving daemon, a
    /// `tesc-cli stream` replay — should run bounded: the append-only
    /// cache is a leak when the event stream never ends. Results are
    /// bit-identical either way; only hit rates differ. Builder-style —
    /// call right after construction; the current snapshot is
    /// re-published (same version) with a fresh budgeted cache, and
    /// every later graph-version cache inherits the budget.
    pub fn with_cache_budget(self, bytes: Option<usize>) -> Self {
        let mut ctx = self;
        ctx.cache_budget = bytes;
        let base = ctx.snapshot();
        let next = Snapshot::assemble(
            base.graph.clone(),
            base.vicinity.clone(),
            base.events.clone(),
            base.version,
            None, // fresh cache under the new budget
            bytes,
            base.pool.clone(),
        );
        *ctx.current.write().expect("context lock poisoned") = next;
        ctx
    }

    /// The byte budget freshly created snapshot caches run under
    /// (`None` = unbounded).
    #[inline]
    pub fn cache_budget(&self) -> Option<usize> {
        self.cache_budget
    }

    /// The vicinity level every snapshot's index covers.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// The currently published version stamp.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Pin the currently published snapshot (an `Arc` clone — cheap,
    /// non-blocking with respect to writers preparing the next one).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.read().expect("context lock poisoned").clone()
    }

    fn publish(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        *self.current.write().expect("context lock poisoned") = next.clone();
        next
    }

    /// Log the record producing version `seq` — called by the writer
    /// methods (under the writer lock) strictly *before* publishing.
    /// A no-op without an attached data directory; a failed append
    /// aborts the ingest with nothing published, keeping the served
    /// state equal to what recovery would reconstruct.
    fn log_wal(&self, seq: u64, record: &WalRecord) -> Result<(), IngestError> {
        let mut durability = self.durability.lock().expect("durability lock poisoned");
        if let Some(d) = durability.as_mut() {
            d.log(seq, record).map_err(|e| IngestError::Persist {
                message: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Checkpoint (snapshot + WAL rotation) if enough records have
    /// accumulated — called by the writer methods after publishing.
    fn maybe_checkpoint(&self, snap: &Snapshot) {
        let mut durability = self.durability.lock().expect("durability lock poisoned");
        if let Some(d) = durability.as_mut() {
            d.maybe_checkpoint(snap.version, &snap.graph, &snap.events);
        }
    }

    /// Ingest an edge delta: validate, splice it into a copy of the
    /// CSR, incrementally refresh the vicinity index around the
    /// touched endpoints (the per-node rebuild path of
    /// [`VicinityIndex::refresh`]) and publish the result as the next
    /// version. Edges already present
    /// are ignored; a delta with no genuinely new edge returns the
    /// current snapshot unchanged (no version bump). Readers holding
    /// older snapshots are unaffected.
    pub fn add_edges(&self, edges: &[(NodeId, NodeId)]) -> Result<Arc<Snapshot>, IngestError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        base.graph.check_edges(edges)?;
        let new_edges: Vec<(NodeId, NodeId)> = {
            let mut seen: Vec<(NodeId, NodeId)> = edges
                .iter()
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .filter(|&(u, v)| !base.graph.has_edge(u, v))
                .collect();
            seen.sort_unstable();
            seen.dedup();
            seen
        };
        if new_edges.is_empty() {
            return Ok(base);
        }
        let touched: Vec<NodeId> = {
            let mut t: Vec<NodeId> = new_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let graph = Arc::new(base.graph.with_edges(&new_edges));
        // Pure additions: the new graph is a supergraph of the old, so
        // the dirty region discovered through the new adjacency covers
        // every node whose vicinity changed (no `g_old` needed).
        let vicinity = Arc::new(base.vicinity.refreshed(&*graph, None, &touched));
        self.log_wal(
            base.version + 1,
            &WalRecord::AddEdges {
                edges: new_edges.clone(),
            },
        )?;
        let next = self.publish(Snapshot::assemble(
            graph,
            vicinity,
            base.events.clone(),
            base.version + 1,
            None, // the graph changed: memoized counts are stale
            self.cache_budget,
            base.pool.clone(),
        ));
        self.maybe_checkpoint(&next);
        Ok(next)
    }

    /// Register a new event and publish the next version. The graph,
    /// vicinity index *and density cache* are shared with the previous
    /// snapshot (cached counts depend only on the unchanged graph).
    pub fn add_event(
        &self,
        name: impl Into<String>,
        nodes: Vec<NodeId>,
    ) -> Result<(EventId, Arc<Snapshot>), IngestError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        let name: String = name.into();
        check_nodes(base.graph.num_nodes(), &nodes)?;
        let mut events = (*base.events).clone();
        let id = events.try_add_event(name.clone(), nodes.clone())?;
        self.log_wal(base.version + 1, &WalRecord::AddEvent { name, nodes })?;
        let next = self.publish(Snapshot::assemble(
            base.graph.clone(),
            base.vicinity.clone(),
            Arc::new(events),
            base.version + 1,
            Some(base.cache.clone()),
            self.cache_budget,
            base.pool.clone(),
        ));
        self.maybe_checkpoint(&next);
        Ok((id, next))
    }

    /// Append occurrences to a registered event and publish the next
    /// version (graph, index and density cache shared — the grown
    /// event has a new content-addressed cache key, so its old
    /// entries are simply never looked up again). Appending nothing
    /// new still publishes — occurrence deltas are usually part of a
    /// stream whose consumers key re-tests off the version stamp.
    pub fn add_event_occurrences(
        &self,
        id: EventId,
        nodes: &[NodeId],
    ) -> Result<Arc<Snapshot>, IngestError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.snapshot();
        check_nodes(base.graph.num_nodes(), nodes)?;
        let mut events = (*base.events).clone();
        events.add_occurrences(id, nodes)?;
        self.log_wal(
            base.version + 1,
            &WalRecord::AddOccurrences {
                event: id.0,
                nodes: nodes.to_vec(),
            },
        )?;
        let next = self.publish(Snapshot::assemble(
            base.graph.clone(),
            base.vicinity.clone(),
            Arc::new(events),
            base.version + 1,
            Some(base.cache.clone()),
            self.cache_budget,
            base.pool.clone(),
        ));
        self.maybe_checkpoint(&next);
        Ok(next)
    }

    /// Attach this context to a data directory, making every later
    /// ingest crash-safe: the mutation is appended and fsync'd to the
    /// WAL *before* the new version is published, and a checkpoint
    /// (snapshot + WAL rotation) runs on the writer path every
    /// [`StoreOptions::snapshot_every`] records.
    ///
    /// An empty directory is initialized with a snapshot of the
    /// current state. A non-empty directory must hold exactly this
    /// context's state (version and fingerprints) — recover it with
    /// [`TescContext::open_dir`] first — otherwise
    /// [`PersistError::StateMismatch`] is returned. Attaching also
    /// applies the recovery cleanup plan: torn WAL tails are truncated
    /// away and unusable files deleted.
    pub fn with_durability(self, dir: &Path, options: StoreOptions) -> Result<Self, PersistError> {
        let store = Store::open(dir, options)?;
        let recovery = store.recover()?;
        let snap = self.snapshot();
        if let Some(rec) = &recovery {
            if rec.version != snap.version
                || rec.graph.fingerprint() != snap.graph.fingerprint()
                || rec.events.fingerprint() != snap.events.fingerprint()
            {
                return Err(PersistError::StateMismatch {
                    disk_version: rec.version,
                    ctx_version: snap.version,
                });
            }
        }
        let durability = Durability::attach(
            store,
            recovery
                .as_ref()
                .map(|rec| (rec.snapshot_version, &rec.plan)),
            snap.version,
            &snap.graph,
            &snap.events,
        )?;
        *self.durability.lock().expect("durability lock poisoned") = Some(durability);
        Ok(self)
    }

    /// Recover the context persisted in `dir` — newest valid snapshot
    /// plus clean WAL tail — rebuild its derived state (vicinity index
    /// over `max_level` with `threads` workers), and re-attach
    /// durability for further ingestion. Recovery runs exactly once.
    /// `Ok(None)` means the directory holds no data yet: construct the
    /// initial context yourself and call
    /// [`TescContext::with_durability`].
    pub fn open_dir(
        dir: &Path,
        max_level: u32,
        threads: usize,
        options: StoreOptions,
    ) -> Result<Option<Self>, PersistError> {
        let store = Store::open(dir, options)?;
        let Some(recovery) = store.recover()? else {
            return Ok(None);
        };
        let ctx = Self::try_with_threads_at(
            recovery.graph,
            recovery.events,
            max_level,
            threads,
            recovery.version,
        )
        .map_err(|e| PersistError::Io {
            path: dir.to_path_buf(),
            message: format!("recovered state failed validation: {e}"),
        })?;
        let snap = ctx.snapshot();
        let durability = Durability::attach(
            store,
            Some((recovery.snapshot_version, &recovery.plan)),
            snap.version,
            &snap.graph,
            &snap.events,
        )?;
        *ctx.durability.lock().expect("durability lock poisoned") = Some(durability);
        Ok(Some(ctx))
    }

    /// Force a checkpoint now (snapshot of the current version, WAL
    /// rotation, pruning). `Ok(false)` if no data directory is
    /// attached.
    pub fn checkpoint(&self) -> Result<bool, PersistError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let snap = self.snapshot();
        let mut durability = self.durability.lock().expect("durability lock poisoned");
        match durability.as_mut() {
            Some(d) => {
                d.checkpoint(snap.version, &snap.graph, &snap.events)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The attached data directory, if any.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.durability
            .lock()
            .expect("durability lock poisoned")
            .as_ref()
            .map(|d| d.dir().to_path_buf())
    }

    /// WAL records appended since the last checkpoint (`None` without
    /// an attached data directory).
    pub fn wal_records_since_checkpoint(&self) -> Option<u64> {
        self.durability
            .lock()
            .expect("durability lock poisoned")
            .as_ref()
            .map(|d| d.records_since_checkpoint())
    }
}

fn check_nodes(num_nodes: usize, nodes: &[NodeId]) -> Result<(), IngestError> {
    match nodes.iter().find(|&&v| v as usize >= num_nodes) {
        Some(&node) => Err(IngestError::NodeOutOfRange { node, num_nodes }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TescConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tesc_graph::generators::grid;

    fn ctx() -> (TescContext, EventId, EventId) {
        let mut events = EventStore::new();
        let a = events.add_event("a", (0..15).collect());
        let b = events.add_event("b", (8..25).collect());
        (TescContext::new(grid(12, 12), events, 2), a, b)
    }

    #[test]
    fn snapshots_are_pinned_and_versions_monotone() {
        let (ctx, _, b) = ctx();
        let s1 = ctx.snapshot();
        assert_eq!(s1.version(), 1);
        let s2 = ctx.add_edges(&[(0, 143)]).unwrap();
        assert_eq!(s2.version(), 2);
        assert!(!s1.graph().has_edge(0, 143), "old snapshot untouched");
        assert!(s2.graph().has_edge(0, 143));
        let s3 = ctx.add_event_occurrences(b, &[140]).unwrap();
        assert_eq!(s3.version(), 3);
        assert_eq!(s1.events().size(b), 17);
        assert!(s3.events().nodes(b).contains(&140));
        assert_eq!(ctx.version(), 3);
        // Graph-only deltas share the event store; event-only deltas
        // share graph and index.
        assert!(Arc::ptr_eq(&s1.events, &s2.events));
        assert!(Arc::ptr_eq(&s2.graph, &s3.graph));
        assert!(Arc::ptr_eq(&s2.vicinity, &s3.vicinity));
        // Graph changes invalidate the cache; event-only deltas keep
        // riding the warm one (entries depend only on the graph).
        assert!(!Arc::ptr_eq(s1.density_cache(), s2.density_cache()));
        assert!(Arc::ptr_eq(s2.density_cache(), s3.density_cache()));
    }

    #[test]
    fn cache_budget_survives_graph_changing_ingests() {
        let (ctx, _, b) = ctx();
        assert_eq!(ctx.cache_budget(), None);
        let budget = 1 << 20;
        let ctx = ctx.with_cache_budget(Some(budget));
        assert_eq!(ctx.cache_budget(), Some(budget));
        // Re-publish keeps the version but swaps in a budgeted cache.
        let s1 = ctx.snapshot();
        assert_eq!(s1.version(), 1);
        assert_eq!(s1.density_cache().byte_budget(), Some(budget));
        // Graph-changing ingests rebuild the cache — still budgeted.
        let s2 = ctx.add_edges(&[(0, 143)]).unwrap();
        assert_eq!(s2.density_cache().byte_budget(), Some(budget));
        // Event-only ingests reuse the (budgeted) cache.
        let s3 = ctx.add_event_occurrences(b, &[140]).unwrap();
        assert!(Arc::ptr_eq(s2.density_cache(), s3.density_cache()));
        // And the budget can be lifted again.
        let ctx = ctx.with_cache_budget(None);
        assert_eq!(ctx.snapshot().density_cache().byte_budget(), None);
    }

    #[test]
    fn constructor_validates_initial_events() {
        let mut events = EventStore::new();
        events.add_event("oob", vec![999]);
        let err = TescContext::try_new(grid(4, 4), events, 1).unwrap_err();
        assert_eq!(
            err,
            IngestError::NodeOutOfRange {
                node: 999,
                num_nodes: 16
            }
        );
    }

    #[test]
    #[should_panic(expected = "invalid initial event store")]
    fn panicking_constructor_reports_bad_events() {
        let mut events = EventStore::new();
        events.add_event("oob", vec![999]);
        let _ = TescContext::new(grid(4, 4), events, 1);
    }

    #[test]
    fn incremental_index_matches_rebuild() {
        let (ctx, _, _) = ctx();
        let s = ctx.add_edges(&[(0, 143), (5, 100), (77, 3)]).unwrap();
        assert_eq!(*s.vicinity(), VicinityIndex::build(s.graph(), 2));
    }

    #[test]
    fn duplicate_only_delta_is_a_no_op() {
        let (ctx, _, _) = ctx();
        let s1 = ctx.snapshot();
        let s2 = ctx.add_edges(&[(0, 1), (1, 0)]).unwrap(); // grid edge already present
        assert_eq!(s2.version(), 1);
        assert!(Arc::ptr_eq(&s1, &s2));
    }

    #[test]
    fn ingest_validation_publishes_nothing() {
        let (ctx, _, b) = ctx();
        assert_eq!(
            ctx.add_edges(&[(3, 3)]).unwrap_err(),
            IngestError::BadEdge(EdgeError::SelfLoop { node: 3 })
        );
        assert!(matches!(
            ctx.add_edges(&[(0, 999)]).unwrap_err(),
            IngestError::BadEdge(EdgeError::OutOfRange { .. })
        ));
        assert_eq!(
            ctx.add_event_occurrences(b, &[999]).unwrap_err(),
            IngestError::NodeOutOfRange {
                node: 999,
                num_nodes: 144
            }
        );
        assert_eq!(
            ctx.add_event("a", vec![1]).unwrap_err(),
            IngestError::BadEvent(EventStoreError::DuplicateName { name: "a".into() })
        );
        assert!(matches!(
            ctx.add_event_occurrences(EventId(9), &[1]).unwrap_err(),
            IngestError::BadEvent(EventStoreError::UnknownEvent { .. })
        ));
        assert_eq!(ctx.version(), 1, "failed ingests publish nothing");
    }

    #[test]
    fn snapshot_engine_serves_old_and_new_versions() {
        let (ctx, a, b) = ctx();
        let old = ctx.snapshot();
        ctx.add_edges(&[(0, 143)]).unwrap();
        let new = ctx.snapshot();
        let cfg = TescConfig::new(2).with_sample_size(80);
        let r_old = old
            .engine()
            .test(
                old.events().nodes(a),
                old.events().nodes(b),
                &cfg,
                &mut StdRng::seed_from_u64(3),
            )
            .unwrap();
        let r_new = new
            .engine()
            .test(
                new.events().nodes(a),
                new.events().nodes(b),
                &cfg,
                &mut StdRng::seed_from_u64(3),
            )
            .unwrap();
        assert!(r_old.n_refs >= 3 && r_new.n_refs >= 3);
        // The old snapshot must reproduce its pre-ingestion numbers
        // even after the write: pin-stability.
        let r_old_again = old
            .engine()
            .test(
                old.events().nodes(a),
                old.events().nodes(b),
                &cfg,
                &mut StdRng::seed_from_u64(3),
            )
            .unwrap();
        assert_eq!(r_old, r_old_again);
    }

    #[test]
    fn engines_share_the_snapshot_scratch_pool_across_versions() {
        let (ctx, a, b) = ctx();
        let s1 = ctx.snapshot();
        assert_eq!(s1.engine().pool().idle(), 0, "nothing warmed yet");
        let cfg = TescConfig::new(2).with_sample_size(30);
        s1.engine()
            .test(
                s1.events().nodes(a),
                s1.events().nodes(b),
                &cfg,
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        // The scratch that request warmed is waiting for the next
        // engine — of this version, of an event-only successor and of
        // a graph-changing one (the node count never changes).
        assert_eq!(s1.engine().pool().idle(), 1);
        let s2 = ctx.add_event_occurrences(b, &[100]).unwrap();
        let s3 = ctx.add_edges(&[(0, 143)]).unwrap();
        for s in [&s2, &s3] {
            assert!(Arc::ptr_eq(&s1.pool, &s.pool), "v{}", s.version());
            assert_eq!(s.engine().pool().idle(), 1, "v{}", s.version());
        }
    }

    #[test]
    fn event_pair_and_run_batch_helpers() {
        let (ctx, a, b) = ctx();
        let snap = ctx.snapshot();
        let pair = snap.event_pair(a, b);
        assert_eq!(pair.label, "a×b");
        let req = BatchRequest::new(TescConfig::new(1).with_sample_size(40))
            .with_seed(11)
            .with_pair(pair.clone());
        let report = snap.run_batch(&req);
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.outcomes[0].result.is_ok());
        // One pair of small events resolves from the event side, which
        // bypasses the cache; a planner pass (a list long enough to fan
        // out) fills it.
        assert!(snap.density_cache().is_empty(), "one-pair event pass");
        let long = BatchRequest::new(TescConfig::new(1).with_sample_size(40))
            .with_seed(11)
            .with_threads(2)
            .with_pairs((0..crate::batch::PARALLEL_MIN_PAIRS).map(|_| pair.clone()));
        assert!(snap
            .run_batch(&long)
            .outcomes
            .iter()
            .all(|o| o.result.is_ok()));
        assert!(snap.density_cache().bfs_invocations() > 0, "cache engaged");
    }

    #[test]
    fn concurrent_readers_during_writes() {
        let (ctx, a, b) = ctx();
        let cfg = TescConfig::new(1).with_sample_size(30);
        std::thread::scope(|scope| {
            let ctx = &ctx;
            for t in 0..3u64 {
                scope.spawn(move || {
                    for i in 0..5u64 {
                        let snap = ctx.snapshot();
                        let r = snap.engine().test(
                            snap.events().nodes(a),
                            snap.events().nodes(b),
                            &cfg,
                            &mut StdRng::seed_from_u64(t * 100 + i),
                        );
                        assert!(r.is_ok());
                    }
                });
            }
            scope.spawn(move || {
                for i in 0..5u32 {
                    ctx.add_edges(&[(i, 143 - i)]).unwrap();
                    ctx.add_event_occurrences(b, &[100 + i]).unwrap();
                }
            });
        });
        assert_eq!(ctx.version(), 11);
        let last = ctx.snapshot();
        assert_eq!(*last.vicinity(), VicinityIndex::build(last.graph(), 2));
    }
}
