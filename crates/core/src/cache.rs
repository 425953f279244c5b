//! Cross-pair density cache — memoized `(event, node, h)` vicinity
//! counts for batch workloads.
//!
//! A batch over a keyword-pair list usually shares events between
//! pairs (Sec. 5.3's DBLP study tests one keyword against many
//! others). Without a cache, every pair redoes the density BFS of
//! every reference node from scratch, recomputing
//! `|V_a ∩ V^h_r| / |V^h_r|` for the shared event `a` once *per
//! pair*. [`DensityCache`] memoizes the integer ingredients of Eq. 2 —
//! `(|V^h_r|, |V_e ∩ V^h_r|)` keyed by `(event, reference node, h)` —
//! so each is computed once per reference node and reused by every
//! pair that shares the event.
//!
//! **Identity is content-addressed.** An event is keyed by its
//! *normalized occurrence set* (sorted, deduplicated), wrapped in an
//! [`EventKey`] carrying a precomputed hash; two pairs naming the same
//! node set share cache entries no matter how the sets were
//! constructed. Hash collisions cannot corrupt results: key equality
//! compares the node sets themselves.
//!
//! **Bit-identity.** Cached entries are the exact integer counts the
//! uncached BFS produces, and densities are derived with the identical
//! `count as f64 / size as f64` arithmetic, so cached results are
//! bit-identical to the uncached path (asserted in
//! `tests/pipeline.rs` for every sampler).
//!
//! **Consistency.** Counts are only valid for the graph they were
//! measured on. A cache is therefore pinned to one graph's structural
//! fingerprint at construction ([`DensityCache::for_graph`]) and
//! [`TescEngine::with_density_cache`](crate::TescEngine::with_density_cache)
//! asserts the match; the versioned
//! [`TescContext`](crate::context::TescContext) creates a fresh cache
//! whenever the graph changes (stale counts can never leak across
//! graph versions) and shares the warm cache across event-only
//! versions, where every entry remains valid.
//!
//! **Who fills it.** The one density executor,
//! [`crate::density::run_density`], owns the one protocol — probe
//! first, traverse only for what missed, insert only counts from
//! completed traversals — on every route of
//! [`crate::density::choose_route`]; the caller only decides whether a
//! pass uses the cache. The pair-set planner passes it on every route,
//! so its warm repeat is probes only, and so does a one-pair
//! [`TescEngine::test`](crate::TescEngine::test) that stays on the
//! reference side. The exception is the **one-pair bypass rule**: a
//! single `TescEngine::test` that resolves from the *event side*
//! neither probes nor inserts, like the importance and intensity
//! phases. Its entries could only skip work on an exact repeat of the
//! same seeded sample, and that work is two cheap traversals — yet on
//! a serving path those inserts are what fills the cache (measured:
//! +19 % peak RSS with them, +5 % without; `docs/PERFORMANCE.md` §9).
//!
//! **Bounded memory.** By default the cache is append-only — correct
//! for batch runs that die with the process, a leak for a long-lived
//! server whose event stream never ends. [`DensityCache::for_graph_bounded`]
//! caps resident memory with a sharded **second-chance (CLOCK)**
//! policy: each shard keeps a FIFO ring over its entry slabs plus a
//! per-entry referenced bit set on every hit; when an insert pushes
//! the shard past its slice of the byte budget, the ring is swept —
//! recently referenced entries get a second chance (bit cleared,
//! re-queued), unreferenced ones are evicted. Eviction only ever
//! forgets *memoized work*: a later probe misses and the count is
//! re-measured by the same deterministic BFS, so results stay
//! bit-identical to the unbounded (and the uncached) path — asserted
//! in `tests/cache_eviction.rs` across kernel configs.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tesc_graph::{Adjacency, NodeId};

/// A [`ProbeGovernor`] probes unconditionally for this many
/// skip-or-BFS decisions (a *decision* = one reference node resolved
/// through a batched probe: either every needed slot hit and the BFS
/// was skipped, or the node went to BFS). After the window, the
/// measured sharing decides.
pub const PROBE_WINDOW: u64 = 64;

/// The measured-sharing bypass threshold: after [`PROBE_WINDOW`]
/// decisions of one executor pass, further *probes* stop if fewer than
/// one decision in this many skipped a BFS — below that rate the
/// lookups cost more than the skipped searches saved (the batch-bench
/// regression this mechanism fixes). Inserts continue regardless, so a
/// cold cache warms at full speed and the next pass re-evaluates from
/// scratch; results are identical either way — the bypass is purely a
/// cost switch.
const BYPASS_SKIP_DENOM: u64 = 4;

/// Call-scoped measured-sharing governor for one cached density pass.
///
/// Every cached executor creates one per pass and consults
/// [`ProbeGovernor::engaged`] before probing each reference node: the
/// first [`PROBE_WINDOW`] nodes always probe, and beyond the window
/// probing continues only while at least a quarter of the observed
/// decisions actually skipped their BFS. A bypassed pass still
/// *inserts* every fresh count — warming is an investment with its own
/// payoff — and the next pass starts a fresh window, so a cache warmed
/// by earlier (even bypassed) passes re-engages the moment its hits
/// prove it. Thread-safe: the window is positional evidence, not a
/// temporal prefix, so racy interleaving only perturbs timing.
#[derive(Debug, Default)]
pub struct ProbeGovernor {
    decisions: AtomicU64,
    skips: AtomicU64,
    bypassed: AtomicBool,
}

impl ProbeGovernor {
    /// Fresh governor for one executor pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Should the next reference node be probed?
    pub fn engaged(&self) -> bool {
        if self.bypassed.load(Ordering::Relaxed) {
            return false;
        }
        let decisions = self.decisions.load(Ordering::Relaxed);
        if decisions < PROBE_WINDOW {
            return true;
        }
        if self
            .skips
            .load(Ordering::Relaxed)
            .saturating_mul(BYPASS_SKIP_DENOM)
            < decisions
        {
            self.bypassed.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Record one skip-or-BFS decision (`skipped` = every slot hit).
    #[inline]
    pub fn record(&self, skipped: bool) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if skipped {
            self.skips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// SplitMix64-finalizing hasher for the memo tables.
///
/// Every key hashed here already carries high-quality entropy — an
/// [`EventKey`] feeds its precomputed content hash, the inner slot key
/// packs `(node, h)` into one word — so the table needs a *finalizer*,
/// not a cryptographic stream: one multiply-xor cascade per written
/// word instead of SipHash's per-byte rounds. On the density hot path
/// a cache probe is two hashes; with the default hasher those probes
/// cost more than they saved whenever cross-pair sharing was low (the
/// batch-bench regression this replaces). HashDoS resistance is
/// irrelevant for an internal memo table keyed by measured data.
#[derive(Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by our keys): FNV-style fold.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        // SplitMix64 finalizer over the running state.
        let mut z = (self.0 ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type MixBuild = BuildHasherDefault<MixHasher>;

/// Content-addressed identity of an event's occurrence set.
///
/// Construction sorts/dedups once and precomputes a hash; clones are
/// `Arc`-cheap, so a key can be shared across batch worker threads.
#[derive(Debug, Clone)]
pub struct EventKey {
    hash: u64,
    nodes: Arc<[NodeId]>,
}

impl EventKey {
    /// Key for an occurrence list (any order, duplicates allowed).
    pub fn new(nodes: &[NodeId]) -> Self {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_normalized(sorted)
    }

    /// Key for a list that is already sorted and deduplicated (the
    /// engine's normalized form) — skips the re-sort.
    pub fn from_normalized(nodes: Vec<NodeId>) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "not normalized");
        let mut hasher = DefaultHasher::new();
        nodes.hash(&mut hasher);
        EventKey {
            hash: hasher.finish(),
            nodes: nodes.into(),
        }
    }

    /// The normalized occurrence set this key addresses.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        // Hash first (cheap reject), then the sets themselves — a
        // 64-bit collision must not alias two distinct events.
        self.hash == other.hash
            && (Arc::ptr_eq(&self.nodes, &other.nodes) || self.nodes == other.nodes)
    }
}

impl Eq for EventKey {}

impl Hash for EventKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The memoized integer ingredients of one event density (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedCount {
    /// `|V^h_r|` (includes `r` itself).
    pub vicinity_size: u32,
    /// `|V_e ∩ V^h_r|` for the keyed event `e`.
    pub count: u32,
}

impl CachedCount {
    /// `s^h_e(r)` — identical arithmetic to the uncached
    /// [`DensityCounts`](crate::density::DensityCounts) accessors, so
    /// cached and uncached densities are bit-identical.
    #[inline]
    pub fn density(&self) -> f64 {
        self.count as f64 / self.vicinity_size as f64
    }
}

const SHARDS: usize = 16;

/// Approximate heap bytes charged per memoized `(event, node, h)`
/// slot: the inner-map entry (key word + count + hash-table slack)
/// plus its second-chance ring slot. The budget arithmetic only needs
/// to be *proportional* to real usage — the policy evicts in entry
/// units either way — so a fixed per-slot estimate keeps accounting
/// off the probe hot path.
pub const SLOT_BYTES: usize = 64;

/// Approximate heap bytes charged once per event per shard: the outer
/// map entry, the shared `Arc<[NodeId]>` occurrence set (4 bytes per
/// node) and the fresh-compute tally slot.
fn event_bytes(key: &EventKey) -> usize {
    96 + 4 * key.nodes().len()
}

/// Inner slot key: `(reference node, h)` packed into one word, so a
/// probe hashes a single `u64` through [`MixHasher`].
#[inline]
fn slot_key(r: NodeId, h: u32) -> u64 {
    (r as u64) << 32 | h as u64
}

/// One memoized slot: the count plus the second-chance referenced bit
/// (set on every hit, cleared by the eviction sweep).
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    value: CachedCount,
    referenced: bool,
}

/// One shard of the memo table, nested `event → (node, h) → count`.
///
/// The nesting is load-bearing for probe cost: the outer lookup takes
/// the [`EventKey`] **by reference** (no `Arc` clone per probe, unlike
/// a flat `(EventKey, node, h)` tuple key, which must be constructed
/// owned), and the inner key is one packed word. An event's entries
/// for one reference node also share the outer bucket, so the batched
/// probe ([`DensityCache::lookup_many`]) touches each event's inner map
/// once. The fresh-compute tally lives in
/// the shard too, so an insert updates it under the lock it already
/// holds instead of taking a second, global one.
///
/// Under a byte budget the shard additionally maintains `ring`, the
/// second-chance FIFO over its resident `(event, slot)` identities
/// (each exactly once — pushed on fresh insert, removed on eviction);
/// `resident_bytes` tracks the estimated footprint either way, so an
/// unbounded cache can still report its size.
#[derive(Debug, Default)]
struct Shard {
    slots: HashMap<EventKey, HashMap<u64, SlotEntry, MixBuild>, MixBuild>,
    fresh: HashMap<EventKey, u64, MixBuild>,
    ring: VecDeque<(EventKey, u64)>,
    resident_bytes: usize,
    evictions: u64,
}

impl Shard {
    /// Insert one measured count, tallying freshness on first fill.
    /// `shard_budget` is this shard's slice of the byte budget (`None`
    /// = unbounded, today's append-only behavior: no ring, no sweep).
    fn insert(
        &mut self,
        event: &EventKey,
        slot: u64,
        value: CachedCount,
        shard_budget: Option<usize>,
    ) {
        let entry = SlotEntry {
            value,
            referenced: false,
        };
        // Clone the key only on the event's first entry in this shard;
        // steady-state inserts take the single-hash fast path.
        let fresh_slot = match self.slots.get_mut(event) {
            Some(slots) => slots.insert(slot, entry).is_none(),
            None => {
                let mut slots = HashMap::<u64, SlotEntry, MixBuild>::default();
                slots.insert(slot, entry);
                self.slots.insert(event.clone(), slots);
                self.resident_bytes += event_bytes(event);
                true
            }
        };
        if fresh_slot {
            self.resident_bytes += SLOT_BYTES;
            match self.fresh.get_mut(event) {
                Some(tally) => *tally += 1,
                None => {
                    self.fresh.insert(event.clone(), 1);
                }
            }
            if let Some(budget) = shard_budget {
                self.ring.push_back((event.clone(), slot));
                self.evict_to_budget(budget);
            }
        }
    }

    /// Second-chance sweep: pop the ring front; a referenced entry has
    /// its bit cleared and re-queues, an unreferenced one is evicted.
    /// Terminates because every iteration either evicts (shrinking the
    /// ring) or clears one referenced bit (bits are only re-set by
    /// lookups, which cannot run while this shard's lock is held). The
    /// newest entry is always retained, so a budget smaller than one
    /// entry degrades to a one-entry cache instead of thrashing the
    /// insert that is currently being paid for.
    fn evict_to_budget(&mut self, budget: usize) {
        while self.resident_bytes > budget && self.ring.len() > 1 {
            let (event, slot) = self.ring.pop_front().expect("ring non-empty");
            let Some(slots) = self.slots.get_mut(&event) else {
                debug_assert!(false, "ring names an evicted event");
                continue;
            };
            match slots.get_mut(&slot) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    self.ring.push_back((event, slot));
                }
                Some(_) => {
                    slots.remove(&slot);
                    self.resident_bytes -= SLOT_BYTES;
                    self.evictions += 1;
                    if slots.is_empty() {
                        self.slots.remove(&event);
                        self.resident_bytes -= event_bytes(&event);
                    }
                }
                None => debug_assert!(false, "ring names an evicted slot"),
            }
        }
    }

    /// Probe one slot, marking it referenced on a hit.
    #[inline]
    fn probe(&mut self, event: &EventKey, slot: u64) -> Option<CachedCount> {
        let e = self.slots.get_mut(event)?.get_mut(&slot)?;
        e.referenced = true;
        Some(e.value)
    }
}

/// Thread-safe `(event, node, h) → (|V^h_r|, count)` memo table.
///
/// Sharded by reference node so concurrent batch workers rarely
/// contend; all counters are monotone atomics. See the module docs for
/// the consistency contract.
#[derive(Debug)]
pub struct DensityCache {
    shards: Vec<Mutex<Shard>>,
    /// Structural fingerprint of the graph this cache's counts were
    /// measured on — counts alone would collide under count-neutral
    /// rewirings like `tesc_graph::perturb`.
    graph_fingerprint: u64,
    /// Total byte budget (`None` = unbounded append-only cache); each
    /// shard enforces `budget / SHARDS`.
    byte_budget: Option<usize>,
    bfs_invocations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DensityCache {
    /// Empty cache pinned to `g`'s structure.
    pub fn for_graph<G: Adjacency>(g: &G) -> Self {
        Self::new(g, None)
    }

    /// Empty cache pinned to `g`'s structure with a resident-memory
    /// cap of (approximately) `byte_budget` bytes, enforced by the
    /// sharded second-chance policy described in the module docs.
    /// Results remain bit-identical to the unbounded cache; only the
    /// hit rate (and therefore the BFS count) can differ.
    pub fn for_graph_bounded<G: Adjacency>(g: &G, byte_budget: usize) -> Self {
        Self::new(g, Some(byte_budget))
    }

    /// Shared constructor: `None` = unbounded.
    pub(crate) fn new<G: Adjacency>(g: &G, byte_budget: Option<usize>) -> Self {
        DensityCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            graph_fingerprint: g.fingerprint(),
            byte_budget,
            bfs_invocations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured byte budget (`None` = unbounded).
    #[inline]
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// Per-shard slice of the byte budget.
    #[inline]
    fn shard_budget(&self) -> Option<usize> {
        self.byte_budget.map(|b| b / SHARDS)
    }

    /// Was this cache created for (a graph structurally identical to)
    /// `g`? Compares [`Adjacency::fingerprint`]s, so count-neutral
    /// rewirings are caught too.
    pub fn matches_graph<G: Adjacency>(&self, g: &G) -> bool {
        self.graph_fingerprint == g.fingerprint()
    }

    #[inline]
    fn shard(&self, r: NodeId) -> &Mutex<Shard> {
        &self.shards[r as usize % SHARDS]
    }

    /// Look up the memoized count for `(event, r, h)`, recording a
    /// hit/miss (and, under a byte budget, marking the entry
    /// recently-referenced for the second-chance sweep).
    pub fn lookup(&self, event: &EventKey, r: NodeId, h: u32) -> Option<CachedCount> {
        let got = self
            .shard(r)
            .lock()
            .expect("density cache poisoned")
            .probe(event, slot_key(r, h));
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Multi-event probe — the fused-pass counterpart of
    /// [`DensityCache::lookup`]: resolve `(event, r, h)` for *every*
    /// key of `events` under **one** shard-lock acquisition (all slots
    /// of one reference node live in the same shard, so the fused
    /// density executor pays one lock per node instead of one per
    /// event). `out` is cleared and receives one slot per key in
    /// order; the return value says whether every slot hit (= the BFS
    /// for `r` can be skipped entirely). Hit/miss counters advance per
    /// key, exactly like repeated `lookup` calls.
    pub fn lookup_many<'k>(
        &self,
        events: impl IntoIterator<Item = &'k EventKey>,
        r: NodeId,
        h: u32,
        out: &mut Vec<Option<CachedCount>>,
    ) -> bool {
        out.clear();
        let slot = slot_key(r, h);
        let mut hits = 0u64;
        let mut misses = 0u64;
        {
            let mut shard = self.shard(r).lock().expect("density cache poisoned");
            for key in events {
                let got = shard.probe(key, slot);
                match got {
                    Some(_) => hits += 1,
                    None => misses += 1,
                }
                out.push(got);
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        misses == 0
    }

    /// Insert freshly measured counts for reference node `r` under
    /// **one** shard-lock acquisition. Counts an insertion against the
    /// event's fresh-compute tally only if the slot was empty (a
    /// re-inserted slot holds the same deterministic value either way).
    pub fn insert<'k>(
        &self,
        entries: impl IntoIterator<Item = (&'k EventKey, CachedCount)>,
        r: NodeId,
        h: u32,
    ) {
        let slot = slot_key(r, h);
        let budget = self.shard_budget();
        let mut shard = self.shard(r).lock().expect("density cache poisoned");
        for (event, value) in entries {
            shard.insert(event, slot, value, budget);
        }
    }

    /// Bulk insertion across many reference nodes, bucketed by shard
    /// so a whole grouped density pass pays one lock acquisition per
    /// *shard* (16) instead of one per node (thousands). Used by the
    /// density executor's fill stage; semantics per entry are identical
    /// to [`DensityCache::insert`].
    pub fn insert_bulk<'k>(
        &self,
        h: u32,
        entries: impl IntoIterator<Item = (NodeId, &'k EventKey, CachedCount)>,
    ) {
        let mut buckets: Vec<Vec<(u64, &EventKey, CachedCount)>> =
            (0..SHARDS).map(|_| Vec::new()).collect();
        for (r, event, value) in entries {
            buckets[r as usize % SHARDS].push((slot_key(r, h), event, value));
        }
        let budget = self.shard_budget();
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("density cache poisoned");
            for (slot, event, value) in bucket {
                shard.insert(event, slot, value, budget);
            }
        }
    }

    /// Record `n` density BFS lanes executed through the cache in one
    /// counter update.
    #[inline]
    pub fn record_bfs_n(&self, n: u64) {
        self.bfs_invocations.fetch_add(n, Ordering::Relaxed);
    }

    /// Total density BFS invocations executed through the cache — the
    /// work the cache could not avoid.
    pub fn bfs_invocations(&self) -> u64 {
        self.bfs_invocations.load(Ordering::Relaxed)
    }

    /// Lookups answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the second-chance policy (always 0 for an
    /// unbounded cache).
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("density cache poisoned").evictions)
            .sum()
    }

    /// Estimated resident heap footprint of the memo tables, in bytes
    /// (the quantity the byte budget bounds; see [`SLOT_BYTES`]).
    /// Maintained for unbounded caches too, so `/stats` can report the
    /// append-only growth a budget would have capped.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("density cache poisoned").resident_bytes)
            .sum()
    }

    /// Total fresh slot computations across all events. For a bounded
    /// cache the books must balance:
    /// `fresh_inserts() == len() + evictions()` — every slot ever
    /// freshly measured is either still resident or was evicted
    /// (asserted in `tests/cache_eviction.rs`).
    pub fn fresh_inserts(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("density cache poisoned")
                    .fresh
                    .values()
                    .sum::<u64>()
            })
            .sum()
    }

    /// How many distinct `(node, h)` slots were freshly computed for
    /// `event` — "density BFS once per reference node" means this
    /// equals the number of distinct reference nodes the batch touched
    /// for the event.
    pub fn fresh_computes(&self, event: &EventKey) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("density cache poisoned")
                    .fresh
                    .get(event)
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Number of memoized `(event, node, h)` entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("density cache poisoned")
                    .slots
                    .values()
                    .map(HashMap::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesc_graph::csr::{from_edges, CsrGraph};

    fn g() -> CsrGraph {
        from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn event_key_is_order_and_dup_insensitive() {
        let a = EventKey::new(&[3, 1, 2, 1]);
        let b = EventKey::new(&[1, 2, 3]);
        let c = EventKey::new(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.nodes(), &[1, 2, 3]);
    }

    #[test]
    fn lookup_insert_round_trip_with_counters() {
        let cache = DensityCache::for_graph(&g());
        let e = EventKey::new(&[0, 2]);
        assert_eq!(cache.lookup(&e, 1, 1), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let v = CachedCount {
            vicinity_size: 3,
            count: 2,
        };
        cache.insert([(&e, v)], 1, 1);
        assert_eq!(cache.lookup(&e, 1, 1), Some(v));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.fresh_computes(&e), 1);
        assert_eq!(cache.len(), 1);
        // Same node, different h → distinct slot.
        assert_eq!(cache.lookup(&e, 1, 2), None);
        // Re-inserting the same slot does not double-count freshness.
        cache.insert([(&e, v)], 1, 1);
        assert_eq!(cache.fresh_computes(&e), 1);
    }

    #[test]
    fn lookup_many_resolves_all_slots_in_order() {
        let cache = DensityCache::for_graph(&g());
        let (e1, e2, e3) = (
            EventKey::new(&[0]),
            EventKey::new(&[1, 2]),
            EventKey::new(&[3]),
        );
        let v1 = CachedCount {
            vicinity_size: 3,
            count: 1,
        };
        let v3 = CachedCount {
            vicinity_size: 3,
            count: 2,
        };
        cache.insert([(&e1, v1)], 2, 1);
        cache.insert([(&e3, v3)], 2, 1);
        let mut out = Vec::new();
        // Partial hit: slot order preserved, missing slot is None.
        let all = cache.lookup_many([&e1, &e2, &e3], 2, 1, &mut out);
        assert!(!all);
        assert_eq!(out, vec![Some(v1), None, Some(v3)]);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // Full hit after the gap is filled.
        cache.insert([(&e2, v1)], 2, 1);
        let all = cache.lookup_many([&e1, &e2, &e3], 2, 1, &mut out);
        assert!(all, "every slot memoized ⇒ BFS skippable");
        assert_eq!(out.len(), 3);
        assert_eq!((cache.hits(), cache.misses()), (5, 1));
        // Different node: clean misses, `out` re-cleared.
        assert!(!cache.lookup_many([&e1], 0, 1, &mut out));
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn two_event_lookup_many_matches_two_lookups() {
        let cache = DensityCache::for_graph(&g());
        let (ea, eb) = (EventKey::new(&[0, 1]), EventKey::new(&[2, 3]));
        let v = CachedCount {
            vicinity_size: 4,
            count: 2,
        };
        let mut out = Vec::new();
        assert!(!cache.lookup_many([&ea, &eb], 1, 1, &mut out));
        assert_eq!(out, [None, None]);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        cache.insert([(&ea, v)], 1, 1);
        assert!(!cache.lookup_many([&ea, &eb], 1, 1, &mut out));
        assert_eq!(out, [Some(v), None]);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        cache.insert([(&eb, v)], 1, 1);
        assert!(cache.lookup_many([&ea, &eb], 1, 1, &mut out));
        assert_eq!(out, [Some(v), Some(v)]);
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
    }

    #[test]
    fn insert_many_batches_under_one_lock_with_fresh_tallies() {
        let cache = DensityCache::for_graph(&g());
        let (ea, eb) = (EventKey::new(&[0]), EventKey::new(&[1]));
        let v = CachedCount {
            vicinity_size: 3,
            count: 1,
        };
        cache.insert([(&ea, v), (&eb, v)], 2, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.fresh_computes(&ea), 1);
        assert_eq!(cache.fresh_computes(&eb), 1);
        // Re-inserting occupied slots does not double-count freshness.
        cache.insert([(&ea, v), (&eb, v)], 2, 1);
        assert_eq!(cache.fresh_computes(&ea), 1);
        assert_eq!(cache.lookup(&ea, 2, 1), Some(v));
    }

    #[test]
    fn density_matches_uncached_arithmetic() {
        let v = CachedCount {
            vicinity_size: 3,
            count: 1,
        };
        assert_eq!(v.density().to_bits(), (1.0f64 / 3.0f64).to_bits());
    }

    #[test]
    fn graph_shape_pinning() {
        let cache = DensityCache::for_graph(&g());
        assert!(cache.matches_graph(&g()));
        assert!(!cache.matches_graph(&g().with_edges(&[(0, 3)])));
        // Count-neutral rewiring (same |V|, same |E|) is caught too.
        let rewired = from_edges(4, &[(0, 1), (1, 3), (2, 3)]);
        assert_eq!(rewired.num_edges(), g().num_edges());
        assert!(!cache.matches_graph(&rewired));
    }

    #[test]
    fn cache_is_sync() {
        const fn assert_sync<T: Sync + Send>() {}
        assert_sync::<DensityCache>();
        assert_sync::<EventKey>();
    }

    #[test]
    fn unbounded_cache_never_evicts_and_tracks_bytes() {
        let cache = DensityCache::for_graph(&g());
        assert_eq!(cache.byte_budget(), None);
        let e = EventKey::new(&[0, 1]);
        let v = CachedCount {
            vicinity_size: 3,
            count: 1,
        };
        for r in 0..4u32 {
            cache.insert([(&e, v)], r, 1);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.fresh_inserts(), 4);
        // 4 slots + the event registered in however many shards it
        // landed in (4 distinct nodes → up to 4 shards).
        assert!(cache.resident_bytes() >= 4 * SLOT_BYTES);
    }

    #[test]
    fn bounded_cache_evicts_to_budget_and_books_balance() {
        // Route everything through one shard (same node, varying h) so
        // the tiny budget is exercised deterministically.
        let budget = SHARDS * (SLOT_BYTES * 3 + 200);
        let cache = DensityCache::for_graph_bounded(&g(), budget);
        assert_eq!(cache.byte_budget(), Some(budget));
        let e = EventKey::new(&[0, 1]);
        let v = CachedCount {
            vicinity_size: 3,
            count: 1,
        };
        for h in 1..=20u32 {
            cache.insert([(&e, v)], 1, h);
        }
        assert!(cache.evictions() > 0, "budget forced evictions");
        assert!(
            cache.resident_bytes() <= budget / SHARDS + event_bytes(&e) + SLOT_BYTES,
            "resident {} far over shard budget",
            cache.resident_bytes()
        );
        // Every fresh insert is either resident or evicted.
        assert_eq!(
            cache.fresh_inserts(),
            cache.len() as u64 + cache.evictions()
        );
        // Evicted slots simply miss again; re-inserting works.
        assert_eq!(cache.lookup(&e, 1, 1), None);
        cache.insert([(&e, v)], 1, 1);
        assert_eq!(cache.lookup(&e, 1, 1), Some(v));
    }

    #[test]
    fn second_chance_prefers_unreferenced_victims() {
        // Budget fits ~3 slots per shard; everything lands in node 1's
        // shard. Keep slot h=1 hot via lookups and verify the sweep
        // spares it while colder slots churn.
        let budget = SHARDS * (SLOT_BYTES * 3 + 200);
        let cache = DensityCache::for_graph_bounded(&g(), budget);
        let e = EventKey::new(&[0, 2]);
        let v = CachedCount {
            vicinity_size: 3,
            count: 2,
        };
        cache.insert([(&e, v)], 1, 1);
        for h in 2..=12u32 {
            // Touch the hot slot before each insert so its referenced
            // bit is set whenever the sweep reaches it.
            assert_eq!(cache.lookup(&e, 1, 1), Some(v), "hot slot at h={h}");
            cache.insert([(&e, v)], 1, h);
        }
        assert!(cache.evictions() > 0);
        assert_eq!(
            cache.lookup(&e, 1, 1),
            Some(v),
            "recently referenced entry survived the sweeps"
        );
    }

    #[test]
    fn eviction_drops_empty_event_slabs() {
        // One-slot budget: each insert evicts the previous slot; when
        // an event's last slot goes, its slab bytes are released.
        let budget = 1; // 0 per shard → retain-one-entry floor
        let cache = DensityCache::for_graph_bounded(&g(), budget);
        let (ea, eb) = (EventKey::new(&[0]), EventKey::new(&[1, 2, 3]));
        let v = CachedCount {
            vicinity_size: 2,
            count: 1,
        };
        cache.insert([(&ea, v)], 1, 1);
        let with_a = cache.resident_bytes();
        cache.insert([(&eb, v)], 1, 1);
        // `ea`'s only slot was evicted, so its slab went with it.
        assert_eq!(cache.lookup(&ea, 1, 1), None);
        assert_eq!(cache.lookup(&eb, 1, 1), Some(v));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.resident_bytes(),
            with_a - event_bytes(&ea) + event_bytes(&eb)
        );
    }
}
