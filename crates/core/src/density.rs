//! Event densities in reference-node vicinities (Eq. 2 of the paper).
//!
//! `s^h_a(r) = |V_a ∩ V^h_r| / |V^h_r|` — the occurrence count
//! normalized by the vicinity's node count, the graph analogue of
//! density per unit area. One `h`-hop BFS per reference node collects
//! every count the test needs (size, `a` hits, `b` hits, union hits),
//! so the density phase costs at most `n` BFS searches.
//!
//! Every density pass — one [`TescEngine::test`], its importance and
//! exact variants, and the pair-set planner's stage (b) — runs through
//! **one executor**, [`run_density`]: the input is a [`Workset`]
//! (distinct reference nodes, each with the event slots it is scored
//! against), the output is flat sizes and counts ([`FusedDensities`]).
//! The executor owns the one cache protocol (probe, traverse what
//! missed, insert only counts from completed traversals) and resolves
//! the traversals by the pass's [`Route`]: one BFS per node fanned out
//! over scoped workers, each with its own [`BfsScratch`] checked out
//! of a shared [`ScratchPool`], or 64-lane
//! multi-source traversals from either side of the join. No RNG is
//! involved and every output slot is written by exactly one worker, so
//! every route and thread count is bit-identical to a serial loop over
//! [`density_counts`].
//!
//! Every executor takes the request's [`Budget`], checked per BFS
//! frontier level: an exhausted budget yields the typed
//! [`Interrupted`] error, never partial counts.

use crate::cache::{CachedCount, DensityCache, EventKey, ProbeGovernor};
use crate::engine::TescEngine;
use std::ops::Range;
use tesc_events::NodeMask;
use tesc_graph::bfs::{BfsKernel, BfsScratch, MsBfsScratch};
use tesc_graph::budget::{Budget, Interrupted};
use tesc_graph::{Adjacency, NodeId, ScratchPool, VicinityIndex, MAX_GROUP_SOURCES};

/// All per-reference-node counts gathered in a single BFS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensityCounts {
    /// `|V^h_r|` (includes `r` itself).
    pub vicinity_size: usize,
    /// `|V_a ∩ V^h_r|`.
    pub count_a: usize,
    /// `|V_b ∩ V^h_r|`.
    pub count_b: usize,
    /// `|V_{a∪b} ∩ V^h_r|` — the `c` of Procedure RejectSamp step 3.
    pub count_union: usize,
}

impl DensityCounts {
    /// `s^h_a(r)`.
    #[inline]
    pub fn density_a(&self) -> f64 {
        self.count_a as f64 / self.vicinity_size as f64
    }

    /// `s^h_b(r)`.
    #[inline]
    pub fn density_b(&self) -> f64 {
        self.count_b as f64 / self.vicinity_size as f64
    }

    /// Is `r` an eligible reference node (Def. 3) — can it see any
    /// occurrence of `a` or `b` within `h` hops?
    #[inline]
    pub fn is_reference(&self) -> bool {
        self.count_union > 0
    }
}

/// Gather [`DensityCounts`] for reference node `r` with one scalar
/// `h`-hop BFS — the reference every other kernel and route must
/// match bit for bit. `budget` is checked per frontier level; an
/// interrupted search returns the typed error instead of partial
/// counts.
pub fn density_counts<G: Adjacency>(
    g: &G,
    scratch: &mut BfsScratch,
    r: NodeId,
    h: u32,
    mask_a: &NodeMask,
    mask_b: &NodeMask,
    budget: &Budget,
) -> Result<DensityCounts, Interrupted> {
    let mut count_a = 0usize;
    let mut count_b = 0usize;
    let mut count_union = 0usize;
    let vicinity_size = scratch.visit_h_vicinity(g, &[r], h, budget, |v, _| {
        let in_a = mask_a.contains(v);
        let in_b = mask_b.contains(v);
        count_a += in_a as usize;
        count_b += in_b as usize;
        count_union += (in_a || in_b) as usize;
    })?;
    Ok(DensityCounts {
        vicinity_size,
        count_a,
        count_b,
        count_union,
    })
}

/// The per-node kernel: one `h`-hop BFS per reference node scored
/// against **M** event masks, so a single search serves every event
/// slot that touches the node. The kernel may be scalar (per-node
/// membership probes) or bitset (one hybrid bitmap BFS + one
/// word-major multi-mask sweep via [`tesc_graph::multi_mask_counts`]);
/// both produce the identical integers as M separate
/// [`density_counts`] calls — the kernels visit identical sets.
#[derive(Debug, Clone, Copy)]
struct MultiKernelPlan<'a, G> {
    /// The graph the BFS runs on.
    graph: &'a G,
    /// Every registered event mask; a per-reference-node *slot list*
    /// selects which of these one BFS scores.
    masks: &'a [NodeMask],
    /// Engage the bitset kernel + word-level multi-mask sweep.
    use_bitset: bool,
    /// Vicinity level `h`.
    h: u32,
}

impl<'a, G: Adjacency> MultiKernelPlan<'a, G> {
    /// Count `|V_e ∩ V^h_r|` for every event slot in `slots` with one
    /// BFS from reference node `r` into `counts` (one cell per slot, in
    /// slot order); the return value is `|V^h_r|`. `words` is the
    /// caller's reusable buffer for the slots' mask words. `budget` is
    /// checked per frontier level; an interrupted search returns the
    /// typed error and `counts` must be discarded.
    fn counts_for(
        &self,
        scratch: &mut BfsScratch,
        words: &mut Vec<&'a [u64]>,
        r: NodeId,
        slots: &[u32],
        counts: &mut [u32],
        budget: &Budget,
    ) -> Result<usize, Interrupted> {
        words.clear();
        words.extend(slots.iter().map(|&s| self.masks[s as usize].words()));
        counts.fill(0);
        if self.use_bitset {
            let size = scratch.visit_h_vicinity_bitset(self.graph, &[r], self.h, budget)?;
            scratch.visited_multi_mask_counts(words, counts);
            Ok(size)
        } else {
            scratch.visit_h_vicinity(self.graph, &[r], self.h, budget, |v, _| {
                let (word, bit) = ((v >> 6) as usize, v & 63);
                for (c, w) in counts.iter_mut().zip(words.iter()) {
                    *c += (w[word] >> bit) as u32 & 1;
                }
            })
        }
    }
}

/// How a density pass resolves its `(reference node, event)` counts.
/// Chosen once per pass by [`choose_route`]; every route produces the
/// identical integers.
///
/// The two grouped routes share one kernel, the 64-lane multi-source
/// traversal ([`MsBfsScratch::visit_h_vicinity_multi`], one bit-lane
/// per source, so one edge scan serves every grouped source — the
/// data-movement lever the per-source kernels cannot reach, see
/// `docs/PERFORMANCE.md`), run in one of two **directions**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One single-source BFS per reference node, scored against all of
    /// the node's event slots in one pass (scalar or bitset kernel).
    PerNode,
    /// Reference nodes as lanes, in groups of up to 64: per-lane
    /// scoring reads only an event's members
    /// ([`MsBfsScratch::lane_member_counts`]), `O(|V_e|)` per (event,
    /// group), and `|V^h_r|` is a positional popcount of the lane words.
    RefLanes,
    /// Event occurrence nodes as lanes, ≤ 64 per traversal. On an
    /// undirected graph `r ∈ V^h_v ⇔ v ∈ V^h_r`, so `|V_e ∩ V^h_r|` is
    /// the number of event lanes that reached `r`
    /// ([`MsBfsScratch::reached_lanes`]), summed over the event's
    /// chunks, and `|V^h_r|` is read from the engine's vicinity index,
    /// which must [`cover`](VicinityIndex::covers) `h`. The cost is
    /// `⌈|V_e|/64⌉` traversals per event however many reference nodes
    /// ask — the smaller side of the reachability join drives it.
    EventLanes,
}

/// Event-lane cost: nanoseconds per graph node per ≤ 64-lane chunk (the
/// traversal's `O(|V|)` lane-word reset).
const EVENT_CHUNK_NS_PER_NODE: f64 = 0.16;
/// Event-lane cost: nanoseconds per (event node, visited node)
/// incidence, `Σ_{v ∈ V_e} |V^h_v|`.
const EVENT_VISIT_NS: f64 = 2.0;
/// Reference-side cost: fixed nanoseconds per reference-node search.
const REF_FIXED_NS: f64 = 20.0;
/// Reference-side cost: nanoseconds per (reference node, visited node)
/// incidence, `Σ_r |V^h_r|`.
const REF_VISIT_NS: f64 = 5.0;
/// The event side is taken only when its estimate is below this
/// fraction of the reference side's: at parity (the DBLP-like
/// 2×1000-node pair against 300 reference nodes) the pass stays where
/// the cache and the multi-source sharing heuristic already work, and
/// what staying can cost — `1 / 0.92 ≈ 1.09` for an exact estimate —
/// is inside the bench's Auto-regret gate of 1.1.
const EVENT_MARGIN: f64 = 0.92;

/// The one route decision of a density pass: which executor resolves
/// `|V_e ∩ V^h_r|` for `refs` × `events` (occurrence lists of every
/// event slot the pass scores).
///
/// Explicit kernels force the reference side — `Scalar`/`Bitset` the
/// per-node route, `Multi` reference lanes — so they stay the
/// oracles every other route is compared against. `Auto` takes the
/// **event side** when the index covers `h` and the cost estimate says
/// so with margin: `⌈|V_e|/64⌉·|V|` lane words reset plus
/// `Σ_{v∈V_e} |V^h_v|` lane visits per event, against one search plus
/// `|V^h_r|` visits per reference node — both sums read off the index
/// ([`VicinityIndex::sum_over`]), so the decision is a pure function
/// of its arguments (identical at any thread count). Otherwise the
/// reference side's own sharing heuristic
/// ([`BfsKernel::use_multi_source`]) picks lanes or per-node. The
/// constants are calibrated by the `density_kernel` bench's crossover
/// sweep (`docs/PERFORMANCE.md` §9).
pub fn choose_route<G: Adjacency>(
    kernel: BfsKernel,
    g: &G,
    index: Option<&VicinityIndex>,
    h: u32,
    refs: &[NodeId],
    events: &[&[NodeId]],
) -> Route {
    match kernel {
        BfsKernel::Scalar | BfsKernel::Bitset => return Route::PerNode,
        BfsKernel::Multi => return Route::RefLanes,
        BfsKernel::Auto => {}
    }
    if let Some(index) = index.filter(|i| i.covers(h)) {
        let reset_ns = g.num_nodes() as f64 * EVENT_CHUNK_NS_PER_NODE;
        let event_ns: f64 = events
            .iter()
            .map(|e| {
                e.len().div_ceil(MAX_GROUP_SOURCES) as f64 * reset_ns
                    + index.sum_over(e, h) as f64 * EVENT_VISIT_NS
            })
            .sum();
        let ref_ns =
            refs.len() as f64 * REF_FIXED_NS + index.sum_over(refs, h) as f64 * REF_VISIT_NS;
        if event_ns < EVENT_MARGIN * ref_ns {
            return Route::EventLanes;
        }
    }
    if kernel.use_multi_source(g, h, refs.len()) {
        Route::RefLanes
    } else {
        Route::PerNode
    }
}

/// The input of a density pass — the `(reference node × event)` join
/// to resolve at level `h`: the registered events (slot `s` is
/// `keys()[s]`) and the distinct reference nodes, ascending, each with
/// the sorted, distinct slots it is scored against. Node `i`'s slots —
/// and, in the pass's [`FusedDensities`], its counts — occupy the flat
/// cells `starts[i]..starts[i + 1]`.
#[derive(Debug, Clone)]
pub struct Workset {
    h: u32,
    keys: Vec<EventKey>,
    nodes: Vec<NodeId>,
    starts: Vec<u32>,
    slots: Vec<u32>,
}

impl Workset {
    /// The workset of every `(node, slot)` incidence (any order,
    /// repeats allowed): packed into one word each, sorted and
    /// deduplicated — distinct nodes ascending, each with its sorted
    /// distinct slots.
    pub(crate) fn new(
        h: u32,
        keys: Vec<EventKey>,
        incidences: impl IntoIterator<Item = (NodeId, u32)>,
    ) -> Self {
        let mut cells: Vec<u64> = incidences
            .into_iter()
            .map(|(r, s)| (r as u64) << 32 | s as u64)
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(cells.len());
        for cell in cells {
            let r = (cell >> 32) as NodeId;
            if nodes.last() != Some(&r) {
                nodes.push(r);
                starts.push(slots.len() as u32);
            }
            debug_assert!((cell as u32 as usize) < keys.len(), "unregistered slot");
            slots.push(cell as u32);
        }
        starts.push(slots.len() as u32);
        Workset {
            h,
            keys,
            nodes,
            starts,
            slots,
        }
    }

    /// The one-pair shape: the distinct nodes of `refs` (any order,
    /// repeats allowed), each scored against every key in key order.
    /// Also returns each `refs[i]`'s position in the workset, so the
    /// caller reads its counts back in its own order without a search
    /// ([`FusedDensities::at`]).
    pub fn uniform(h: u32, keys: Vec<EventKey>, refs: &[NodeId]) -> (Self, Vec<usize>) {
        // (node, index) packed into one word: one sort orders the nodes
        // and carries each index along.
        let mut order: Vec<u64> = refs
            .iter()
            .enumerate()
            .map(|(i, &r)| (r as u64) << 32 | i as u64)
            .collect();
        order.sort_unstable();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(refs.len());
        let mut positions = vec![0usize; refs.len()];
        for packed in order {
            let r = (packed >> 32) as NodeId;
            if nodes.last() != Some(&r) {
                nodes.push(r);
            }
            positions[packed as u32 as usize] = nodes.len() - 1;
        }
        let k = keys.len();
        let work = Workset {
            h,
            starts: (0..=nodes.len()).map(|i| (i * k) as u32).collect(),
            slots: (0..nodes.len()).flat_map(|_| 0..k as u32).collect(),
            keys,
            nodes,
        };
        (work, positions)
    }

    /// Vicinity level `h` of the pass.
    #[inline]
    pub(crate) fn h(&self) -> u32 {
        self.h
    }

    /// The registered events, indexed by slot.
    #[inline]
    pub(crate) fn keys(&self) -> &[EventKey] {
        &self.keys
    }

    /// The distinct reference nodes, ascending.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Position of workset node `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not in the workset.
    #[inline]
    pub(crate) fn position(&self, r: NodeId) -> usize {
        self.nodes.binary_search(&r).expect("node in the workset")
    }

    /// Flat cell range of node `i`.
    #[inline]
    fn cells(&self, i: usize) -> Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    /// The sorted distinct slots node `i` is scored against.
    #[inline]
    pub(crate) fn slots_of(&self, i: usize) -> &[u32] {
        &self.slots[self.cells(i)]
    }
}

/// The output of [`run_density`]: per workset node, `|V^h_r|` and one
/// intersection count per event slot of that node (flat, in the
/// workset's cell layout).
#[derive(Debug, Clone, Default)]
pub struct FusedDensities {
    sizes: Vec<u32>,
    counts: Vec<u32>,
    bfs_run: u64,
    traversals: u64,
    interrupted: Option<Interrupted>,
}

impl FusedDensities {
    /// The output of a pass the budget interrupted: no counts.
    pub(crate) fn interrupted_by(i: Interrupted) -> Self {
        FusedDensities {
            interrupted: Some(i),
            ..FusedDensities::default()
        }
    }

    /// How many reference nodes the pass resolved by traversal (nodes
    /// whose every slot hit an attached cache are skipped). Counted per
    /// **node**, not per traversal, so cache accounting is identical
    /// whether those nodes ran one single-source search each, were
    /// batched 64 to a multi-source traversal, or were reached by
    /// event lanes — see [`FusedDensities::traversals`] for the
    /// physical count.
    #[inline]
    pub fn bfs_run(&self) -> u64 {
        self.bfs_run
    }

    /// How many graph traversals the pass physically executed: equals
    /// [`FusedDensities::bfs_run`] on the per-node route, the number of
    /// source groups (`⌈bfs_run / 64⌉`) on the reference-lane route,
    /// and the number of event chunks (`Σ ⌈|V_e|/64⌉` over the events
    /// with an unresolved count) on the event-lane route.
    #[inline]
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// `Some` when the engine's [`Budget`] ran out during the pass. The
    /// pass then published nothing — no counts, no cache entries — and
    /// [`crate::planner::PairSetPlan::finish`] reports every pair as
    /// `Err(Interrupted)`.
    #[inline]
    pub fn interrupted(&self) -> Option<Interrupted> {
        self.interrupted
    }

    /// `|V^h_r|` and the counts of the workset's node `i`, one per slot
    /// of the node in slot order.
    #[inline]
    pub fn at(&self, work: &Workset, i: usize) -> (u32, &[u32]) {
        (self.sizes[i], &self.counts[work.cells(i)])
    }

    /// `(|V^h_r|, |V_e ∩ V^h_r|)` for workset node `r` and event slot
    /// `slot`.
    ///
    /// # Panics
    ///
    /// Panics unless the workset scores `r` against `slot`.
    pub fn count(&self, work: &Workset, r: NodeId, slot: u32) -> (u32, u32) {
        let i = work.position(r);
        let j = work
            .slots_of(i)
            .binary_search(&slot)
            .expect("slot scored at this node");
        (self.sizes[i], self.counts[work.cells(i).start + j])
    }

    /// `s^h_e(r) = |V_e ∩ V^h_r| / |V^h_r|` (Eq. 2) of event slot `slot`
    /// at every node of `refs` (workset nodes, any order), in `refs`
    /// order — the vectors the rank-correlation stage consumes.
    pub fn densities(&self, work: &Workset, refs: &[NodeId], slot: u32) -> Vec<f64> {
        refs.iter()
            .map(|&r| {
                let (size, count) = self.count(work, r, slot);
                count as f64 / size as f64
            })
            .collect()
    }
}

/// Apply `f(state, i)` to every index in `0..count`, fanned out over
/// `threads` scoped workers in contiguous chunks, each worker building
/// its own `state` once (a pooled BFS scratch, or nothing). Output slot
/// `i` always holds `f`'s result for `i` — positionally identical to a
/// serial map at any thread count, which is every executor's
/// determinism contract. Fewer than `serial_below` items run serially
/// on one state.
fn fan_out<S, T, F>(
    count: usize,
    threads: usize,
    serial_below: usize,
    default: T,
    state: impl Fn() -> S + Sync,
    f: F,
) -> Vec<T>
where
    T: Clone + Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out = vec![default; count];
    fan_out_mut(&mut out, threads, serial_below, state, |st, i, slot| {
        *slot = f(st, i)
    });
    out
}

/// [`fan_out`] over caller-owned items: `f(state, i, &mut items[i])`
/// for every item, same chunking, same determinism contract.
fn fan_out_mut<S, T, F>(
    items: &mut [T],
    threads: usize,
    serial_below: usize,
    state: impl Fn() -> S + Sync,
    f: F,
) where
    T: Send,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let count = items.len();
    let threads = threads.max(1).min(count.max(1));
    if threads == 1 || count < serial_below {
        let mut st = state();
        for (i, item) in items.iter_mut().enumerate() {
            f(&mut st, i, item);
        }
        return;
    }
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, items_c) in items.chunks_mut(chunk).enumerate() {
            let (f, state) = (&f, &state);
            scope.spawn(move || {
                let mut st = state();
                for (off, item) in items_c.iter_mut().enumerate() {
                    f(&mut st, ci * chunk + off, item);
                }
            });
        }
    });
}

/// Apply `f(i)` for every index in `0..count` over `threads` workers
/// ([`fan_out`] with no per-worker state) — used by the planner's
/// stage (a) and the executor's cache-probe stage (a probe takes
/// locks, not a BFS scratch, and a warm pass is *nothing but* probes,
/// so it must not serialize).
pub(crate) fn map_indexed<T, F>(count: usize, threads: usize, default: T, f: F) -> Vec<T>
where
    T: Clone + Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(count, threads, 2 * threads, default, || (), |_, i| f(i))
}

/// Apply `f(scratch, r)` to every reference node over `threads`
/// scoped workers in contiguous chunks, each with its own scratch
/// checked out of `pool`; output slot `i` holds `f`'s result for
/// `refs[i]` at any thread count (the per-node work must not consume
/// shared randomness, which holds for every density/count computation
/// in this crate). This is the engine's `density_threads` primitive,
/// shared by every per-node loop (the executor's per-node route and
/// the intensity densities).
///
/// `f` runs under `budget`: once it exhausts, the remaining nodes are
/// skipped and an interrupted node's slot holds `T::default()`.
/// Exhaustion is sticky, so the post-map check is then guaranteed to
/// fail and discard every slot — no partial vector escapes.
pub fn map_refs_pooled<T, F>(
    pool: &ScratchPool,
    refs: &[NodeId],
    threads: usize,
    budget: &Budget,
    f: F,
) -> Result<Vec<T>, Interrupted>
where
    T: Clone + Default + Send,
    F: Fn(&mut BfsScratch, NodeId) -> Result<T, Interrupted> + Sync,
{
    let out = fan_out(
        refs.len(),
        threads,
        2 * threads,
        T::default(),
        || pool.acquire(),
        |scratch, i| {
            if budget.is_exhausted() {
                return T::default();
            }
            f(scratch, refs[i]).unwrap_or_default()
        },
    );
    budget.check()?;
    Ok(out)
}

/// The density executor — the one place `|V^h_r|` and `|V_e ∩ V^h_r|`
/// are computed, for one pair and for a pair set alike. Resolves every
/// cell of `work` with `engine`'s graph, kernel, vicinity index,
/// scratch pool and budget, over `threads` workers, by `route`
/// (reference lanes group up to `group_size` nodes per traversal; the
/// engine and the planner use [`tesc_graph::SOURCE_GROUP_SIZE`]). The
/// output is positionally deterministic at any thread count and
/// bit-identical on every route.
///
/// With a `cache`, every node's slots are probed first under one
/// shard lock ([`DensityCache::lookup_many`]; the pass's
/// [`ProbeGovernor`] drops the probes once measured sharing stops
/// paying for them); only nodes with a miss are traversed for, and
/// once every traversal completed the missing cells are inserted — so
/// a warm repeat is probes only. The caller decides whether a pass
/// uses the cache (the one-pair bypass rule, see [`crate::cache`]).
///
/// The budget is checked per BFS frontier level and per source group;
/// an interrupted pass returns the typed error, inserts nothing and
/// publishes no counts.
pub fn run_density<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    work: &Workset,
    route: Route,
    cache: Option<&DensityCache>,
    threads: usize,
    group_size: usize,
) -> Result<FusedDensities, Interrupted> {
    let (n, h) = (work.nodes.len(), work.h);
    let mut out = FusedDensities {
        sizes: vec![0; n],
        counts: vec![0; work.slots.len()],
        ..FusedDensities::default()
    };
    // Cache-probe stage: fully memoized nodes resolve without a
    // traversal; the rest stay pending with their hit vectors (empty
    // when every slot missed or the governor dropped the probe — the
    // node is then a full miss whose fresh counts still warm the cache).
    let (pending, pending_hits): (Vec<usize>, Vec<Vec<Option<CachedCount>>>) = match cache {
        None => ((0..n).collect(), Vec::new()),
        Some(cache) => {
            let governor = ProbeGovernor::new();
            let probes = map_indexed(n, threads, Vec::new(), |i| {
                let mut hits: Vec<Option<CachedCount>> = Vec::new();
                if governor.engaged() {
                    let slots = work.slots_of(i).iter();
                    let keys = slots.map(|&s| &work.keys[s as usize]);
                    governor.record(cache.lookup_many(keys, work.nodes[i], h, &mut hits));
                    if hits.iter().all(Option::is_none) {
                        hits = Vec::new();
                    }
                }
                hits
            });
            let mut pending = (Vec::new(), Vec::new());
            for (i, hits) in probes.into_iter().enumerate() {
                if hits.is_empty() || hits.iter().any(Option::is_none) {
                    pending.0.push(i);
                    pending.1.push(hits);
                    continue;
                }
                let size = hits[0].expect("all slots hit").vicinity_size;
                out.sizes[i] = size;
                for (cell, hit) in out.counts[work.cells(i)].iter_mut().zip(&hits) {
                    let hit = hit.expect("all slots hit");
                    debug_assert_eq!(hit.vicinity_size, size, "inconsistent cache");
                    *cell = hit.count;
                }
            }
            pending
        }
    };

    let budget = engine.budget();
    out.traversals = if pending.is_empty() {
        // Nothing to traverse (say, a warm cache resolved every node),
        // yet an exhausted budget fails the pass like any other.
        budget.check()?;
        0
    } else {
        match route {
            Route::PerNode => per_node(engine, work, &pending, threads, &mut out)?,
            Route::RefLanes => ref_lanes(engine, work, &pending, threads, group_size, &mut out)?,
            Route::EventLanes => event_lanes(engine, work, &pending, threads, &mut out)?,
        }
    };
    out.bfs_run = pending.len() as u64;

    // Every traversal completed: insert the cells that missed, in
    // bounded batches — one lock per shard per batch, never a
    // pass-wide staging vector. A slot that hit holds the same integer
    // the traversal measured.
    if let Some(cache) = cache {
        const FILL_BATCH: usize = 4096;
        let mut batch: Vec<(NodeId, &EventKey, CachedCount)> = Vec::new();
        for (&i, hits) in pending.iter().zip(&pending_hits) {
            let size = out.sizes[i];
            for (j, cell) in work.cells(i).enumerate() {
                let fresh = CachedCount {
                    vicinity_size: size,
                    count: out.counts[cell],
                };
                match hits.get(j).copied().flatten() {
                    Some(hit) => debug_assert_eq!(hit, fresh, "inconsistent cache"),
                    None => {
                        batch.push((work.nodes[i], &work.keys[work.slots[cell] as usize], fresh))
                    }
                }
            }
            if batch.len() >= FILL_BATCH {
                cache.insert_bulk(h, batch.drain(..));
            }
        }
        cache.record_bfs_n(pending.len() as u64);
        cache.insert_bulk(h, batch);
    }
    Ok(out)
}

/// [`Route::PerNode`]: one `h`-hop BFS per pending node (fanned out
/// over `threads` pooled workers), scored against all of the node's
/// slots in one sweep. The event masks are built here, the only route
/// that reads them. Returns the traversal count.
fn per_node<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    work: &Workset,
    pending: &[usize],
    threads: usize,
    out: &mut FusedDensities,
) -> Result<u64, Interrupted> {
    let (g, h, budget) = (engine.graph(), work.h, engine.budget());
    let masks: Vec<NodeMask> = work
        .keys
        .iter()
        .map(|k| NodeMask::from_nodes(g.num_nodes(), k.nodes()))
        .collect();
    let plan = MultiKernelPlan {
        graph: g,
        masks: &masks,
        use_bitset: engine.density_kernel().use_bitset(g, h),
        h,
    };
    // Each pending node's own output cells (disjoint, ascending), so
    // the workers write the counts in place.
    let mut targets: Vec<(usize, &mut u32, &mut [u32])> = Vec::with_capacity(pending.len());
    let (mut sizes, mut counts) = (&mut out.sizes[..], &mut out.counts[..]);
    let (mut next_node, mut next_cell) = (0, 0);
    for &i in pending {
        let cells = work.cells(i);
        let (size, rest) = std::mem::take(&mut sizes)[i - next_node..]
            .split_first_mut()
            .expect("pending node in the workset");
        let (cell_counts, tail) =
            std::mem::take(&mut counts)[cells.start - next_cell..].split_at_mut(cells.len());
        (sizes, counts, next_node, next_cell) = (rest, tail, i + 1, cells.end);
        targets.push((i, size, cell_counts));
    }
    let state = || (engine.pool().acquire(), Vec::new());
    fan_out_mut(
        &mut targets,
        threads,
        2 * threads,
        state,
        |(scratch, words), _, target| {
            // Exhaustion is sticky: skipped and interrupted nodes leave
            // partial cells that the post-map check below discards.
            let (i, size, cell_counts) = target;
            if !budget.is_exhausted() {
                let r = work.nodes[*i];
                let got =
                    plan.counts_for(scratch, words, r, work.slots_of(*i), cell_counts, budget);
                **size = got.unwrap_or_default() as u32;
            }
        },
    );
    budget.check()?;
    Ok(pending.len() as u64)
}

/// [`Route::RefLanes`]: the pending nodes (ascending, so nearby ids —
/// which share vicinities strongly in practice — share a group) in
/// groups of at most `group_size`, one multi-source traversal per
/// group, parallel over groups. Grouping cannot affect any count (each
/// lane is an independent traversal). Returns the traversal count.
fn ref_lanes<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    work: &Workset,
    pending: &[usize],
    threads: usize,
    group_size: usize,
    out: &mut FusedDensities,
) -> Result<u64, Interrupted> {
    let budget = engine.budget();
    let groups: Vec<&[usize]> = pending
        .chunks(group_size.clamp(1, MAX_GROUP_SOURCES))
        .collect();
    // One group already holds up to 64 sources' worth of BFS work, so
    // even two groups are worth a second worker.
    let per_group = fan_out(
        groups.len(),
        threads,
        2,
        (Vec::new(), Vec::new()),
        || engine.pool().acquire_multi(),
        |scratch, gi| {
            // Exhaustion is sticky: skipped groups leave empty sentinel
            // results, and the post-map check below is then guaranteed
            // to discard the whole pass.
            if budget.is_exhausted() {
                return (Vec::new(), Vec::new());
            }
            group_counts(engine.graph(), work, groups[gi], scratch, budget).unwrap_or_default()
        },
    );
    budget.check()?;
    for (group, (sizes, counts)) in groups.iter().zip(per_group) {
        let mut lane_cells = counts.into_iter();
        for (&i, size) in group.iter().zip(sizes) {
            out.sizes[i] = size;
            for cell in &mut out.counts[work.cells(i)] {
                *cell = lane_cells.next().expect("one count per lane cell");
            }
        }
    }
    Ok(groups.len() as u64)
}

/// Score one group of up to 64 workset nodes with a single
/// multi-source traversal: the per-lane `|V^h_r|` and the lane-major
/// flat counts (lane `k`'s cells in its slot order). Each distinct slot
/// of the group is scored **once** against all lanes and scattered to
/// the lanes that asked for it.
fn group_counts<G: Adjacency>(
    g: &G,
    work: &Workset,
    group: &[usize],
    scratch: &mut MsBfsScratch,
    budget: &Budget,
) -> Result<(Vec<u32>, Vec<u32>), Interrupted> {
    let nodes: Vec<NodeId> = group.iter().map(|&i| work.nodes[i]).collect();
    scratch.visit_h_vicinity_multi(g, &nodes, work.h, budget)?;
    let mut sizes = vec![0u32; nodes.len()];
    scratch.lane_sizes(&mut sizes);
    let mut lane_start = Vec::with_capacity(group.len());
    let mut cells = 0usize;
    for &i in group {
        lane_start.push(cells);
        cells += work.cells(i).len();
    }
    let mut counts = vec![0u32; cells];
    let mut group_slots: Vec<u32> = group
        .iter()
        .flat_map(|&i| work.slots_of(i).iter().copied())
        .collect();
    group_slots.sort_unstable();
    group_slots.dedup();
    let mut lane_counts = vec![0u32; nodes.len()];
    for &slot in &group_slots {
        scratch.lane_member_counts(work.keys[slot as usize].nodes(), &mut lane_counts);
        for (lane, &i) in group.iter().enumerate() {
            if let Ok(j) = work.slots_of(i).binary_search(&slot) {
                counts[lane_start[lane] + j] = lane_counts[lane];
            }
        }
    }
    Ok((sizes, counts))
}

/// [`Route::EventLanes`]: per wanted slot (parallel over slots), the
/// slot's occurrence nodes traverse in chunks of ≤ 64 lanes and every
/// chunk adds `reached_lanes(r).count_ones()` into the slot's one
/// accumulator; `|V^h_r|` is read from the engine's index. Temporaries
/// are flat and `O(cells)`: a slot-major inversion of the pending
/// cells, one accumulator per slot. Returns the traversal count.
fn event_lanes<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    work: &Workset,
    pending: &[usize],
    threads: usize,
    out: &mut FusedDensities,
) -> Result<u64, Interrupted> {
    let (h, budget) = (work.h, engine.budget());
    let index = engine
        .vicinity_index()
        .filter(|i| i.covers(h))
        .unwrap_or_else(|| panic!("event-side density needs an index covering h = {h}"));
    // Slot-major inversion of the pending cells (a counting sort): slot
    // `s` owns `by_slot[slot_start[s]..slot_start[s + 1]]`, each entry
    // a (reference node, cell) pair.
    let num_slots = work.keys.len();
    let mut slot_start = vec![0usize; num_slots + 1];
    for &i in pending {
        for &s in work.slots_of(i) {
            slot_start[s as usize + 1] += 1;
        }
    }
    for s in 0..num_slots {
        slot_start[s + 1] += slot_start[s];
    }
    let mut cursor = slot_start.clone();
    let mut by_slot = vec![(0 as NodeId, 0u32); slot_start[num_slots]];
    for &i in pending {
        for cell in work.cells(i) {
            let s = work.slots[cell] as usize;
            by_slot[cursor[s]] = (work.nodes[i], cell as u32);
            cursor[s] += 1;
        }
    }
    let wanted: Vec<usize> = (0..num_slots)
        .filter(|&s| slot_start[s + 1] > slot_start[s])
        .collect();
    let per_slot = fan_out(
        wanted.len(),
        threads,
        2,
        Vec::new(),
        || engine.pool().acquire_multi(),
        |scratch, wi| {
            let s = wanted[wi];
            let cells = &by_slot[slot_start[s]..slot_start[s + 1]];
            let mut acc = vec![0u32; cells.len()];
            for chunk in work.keys[s].nodes().chunks(MAX_GROUP_SOURCES) {
                // An interrupted (or skipped: exhaustion is sticky) chunk
                // leaves partial sums that the post-map check discards.
                if budget.is_exhausted()
                    || scratch
                        .visit_h_vicinity_multi(engine.graph(), chunk, h, budget)
                        .is_err()
                {
                    break;
                }
                for (a, &(r, _)) in acc.iter_mut().zip(cells) {
                    *a += scratch.reached_lanes(r).count_ones();
                }
            }
            acc
        },
    );
    budget.check()?;
    let mut traversals = 0u64;
    for (&s, acc) in wanted.iter().zip(per_slot) {
        traversals += work.keys[s].nodes().len().div_ceil(MAX_GROUP_SOURCES) as u64;
        for (&(_, cell), c) in by_slot[slot_start[s]..].iter().zip(acc) {
            out.counts[cell as usize] = c;
        }
    }
    for &i in pending {
        out.sizes[i] = index.size(work.nodes[i], h) as u32;
    }
    Ok(traversals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesc_graph::csr::{from_edges, CsrGraph};
    use tesc_graph::generators::{path, star};

    fn masks(n: usize, a: &[NodeId], b: &[NodeId]) -> (NodeMask, NodeMask) {
        (NodeMask::from_nodes(n, a), NodeMask::from_nodes(n, b))
    }

    /// [`density_counts`] under no budget.
    fn counts(
        g: &CsrGraph,
        s: &mut BfsScratch,
        r: NodeId,
        h: u32,
        ma: &NodeMask,
        mb: &NodeMask,
    ) -> DensityCounts {
        density_counts(g, s, r, h, ma, mb, &Budget::unlimited()).unwrap()
    }

    /// The serial scalar reference: one [`density_counts`] per node.
    fn serial_vectors(
        g: &CsrGraph,
        refs: &[NodeId],
        h: u32,
        ma: &NodeMask,
        mb: &NodeMask,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut s = BfsScratch::new(g.num_nodes());
        refs.iter()
            .map(|&r| {
                let c = counts(g, &mut s, r, h, ma, mb);
                (c.density_a(), c.density_b())
            })
            .unzip()
    }

    /// The one-pair workset of `refs` × `[a, b]`.
    fn pair_work(h: u32, a: &[NodeId], b: &[NodeId], refs: &[NodeId]) -> Workset {
        Workset::uniform(h, vec![EventKey::new(a), EventKey::new(b)], refs).0
    }

    /// [`run_density`] over a one-pair workset, read back as
    /// `(s_a, s_b)` in `refs` order.
    fn vectors(
        engine: &TescEngine<'_>,
        work: &Workset,
        refs: &[NodeId],
        route: Route,
        cache: Option<&DensityCache>,
        threads: usize,
        group_size: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), Interrupted> {
        let d = run_density(engine, work, route, cache, threads, group_size)?;
        Ok((d.densities(work, refs, 0), d.densities(work, refs, 1)))
    }

    /// The executor's [`DensityCounts`] of workset node `r` over the
    /// slots `[a, b, a∪b]`.
    fn executor_counts(d: &FusedDensities, work: &Workset, r: NodeId) -> DensityCounts {
        let (size, count_a) = d.count(work, r, 0);
        DensityCounts {
            vicinity_size: size as usize,
            count_a: count_a as usize,
            count_b: d.count(work, r, 1).1 as usize,
            count_union: d.count(work, r, 2).1 as usize,
        }
    }

    fn scalar(g: &CsrGraph) -> TescEngine<'_> {
        TescEngine::new(g).with_density_kernel(BfsKernel::Scalar)
    }

    fn bitset(g: &CsrGraph) -> TescEngine<'_> {
        TescEngine::new(g).with_density_kernel(BfsKernel::Bitset)
    }

    const GROUP: usize = MAX_GROUP_SOURCES;

    #[test]
    fn counts_on_path() {
        // 0-1-2-3-4 ; a on {0,1}, b on {3}.
        let g = path(5);
        let (ma, mb) = masks(5, &[0, 1], &[3]);
        let mut s = BfsScratch::new(5);
        let c = counts(&g, &mut s, 2, 1, &ma, &mb);
        // V^1_2 = {1,2,3}: a-hits {1}, b-hits {3}.
        assert_eq!(c.vicinity_size, 3);
        assert_eq!(c.count_a, 1);
        assert_eq!(c.count_b, 1);
        assert_eq!(c.count_union, 2);
        assert!((c.density_a() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.density_b() - 1.0 / 3.0).abs() < 1e-12);
        assert!(c.is_reference());
    }

    #[test]
    fn out_of_sight_node_detected() {
        let g = path(7);
        let (ma, mb) = masks(7, &[0], &[1]);
        let mut s = BfsScratch::new(7);
        let c = counts(&g, &mut s, 6, 2, &ma, &mb);
        assert_eq!(c.count_union, 0);
        assert!(!c.is_reference());
        assert_eq!(c.density_a(), 0.0);
    }

    #[test]
    fn node_with_both_events_counts_once_in_union() {
        let g = path(3);
        let (ma, mb) = masks(3, &[1], &[1]);
        let mut s = BfsScratch::new(3);
        let c = counts(&g, &mut s, 0, 1, &ma, &mb);
        assert_eq!(c.count_a, 1);
        assert_eq!(c.count_b, 1);
        assert_eq!(c.count_union, 1, "a∪b membership must not double count");
    }

    #[test]
    fn normalization_compensates_vicinity_size() {
        // Hub vs leaf on a star: the hub sees everything (big vicinity),
        // a leaf sees only itself and the hub.
        let g = star(11); // hub 0, leaves 1..=10
        let (ma, mb) = masks(11, &[1, 2, 3], &[4]);
        let mut s = BfsScratch::new(11);
        let hub = counts(&g, &mut s, 0, 1, &ma, &mb);
        assert_eq!(hub.vicinity_size, 11);
        assert!((hub.density_a() - 3.0 / 11.0).abs() < 1e-12);
        let leaf = counts(&g, &mut s, 1, 1, &ma, &mb);
        // V^1_1 = {1, 0}: only the leaf itself carries a.
        assert_eq!(leaf.vicinity_size, 2);
        assert!((leaf.density_a() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_vectors_align_with_refs() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let refs = [0u32, 2, 5];
        let work = pair_work(1, &[0], &[5], &refs);
        let (sa, sb) = vectors(&scalar(&g), &work, &refs, Route::PerNode, None, 1, GROUP).unwrap();
        assert_eq!(sa.len(), 3);
        // ref 0: V^1 = {0,1}, a-hit 1 → 0.5 ; b-hit 0.
        assert!((sa[0] - 0.5).abs() < 1e-12);
        assert_eq!(sb[0], 0.0);
        // ref 2: V^1 = {1,2,3}: neither event.
        assert_eq!(sa[1], 0.0);
        assert_eq!(sb[1], 0.0);
        // ref 5: V^1 = {4,5}: b-hit 1 → 0.5.
        assert_eq!(sa[2], 0.0);
        assert!((sb[2] - 0.5).abs() < 1e-12);
        // Unsorted, repeated refs: the workset holds each node once,
        // ascending, and the returned positions read every ref back.
        let refs = [5u32, 0, 2, 5];
        let (work, positions) =
            Workset::uniform(1, vec![EventKey::new(&[0]), EventKey::new(&[5])], &refs);
        assert_eq!(work.nodes(), [0, 2, 5]);
        assert_eq!(positions, [2, 0, 1, 2]);
        let d = run_density(&scalar(&g), &work, Route::PerNode, None, 1, GROUP).unwrap();
        for (&r, &i) in refs.iter().zip(&positions) {
            let (size, cells) = d.at(&work, i);
            assert_eq!((size, cells[1]), d.count(&work, r, 1), "r = {r}");
        }
    }

    #[test]
    fn pooled_density_vectors_match_serial_exactly() {
        let g = from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (0, 6),
                (3, 9),
            ],
        );
        let (a, b) = ([0u32, 4, 8], [2u32, 9]);
        let (ma, mb) = masks(12, &a, &b);
        let refs: Vec<NodeId> = (0..12).collect();
        let serial = serial_vectors(&g, &refs, 2, &ma, &mb);
        let (engine, work) = (scalar(&g), pair_work(2, &a, &b, &refs));
        for threads in [1, 2, 3, 5, 16] {
            let pooled = vectors(&engine, &work, &refs, Route::PerNode, None, threads, GROUP);
            assert_eq!(Ok(serial.clone()), pooled, "threads = {threads}");
        }
    }

    #[test]
    fn cached_density_vectors_bit_identical_and_save_bfs() {
        let g = from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (0, 5),
            ],
        );
        let a = [0u32, 4, 8];
        let b1 = [2u32, 9];
        let b2 = [3u32, 7];
        let (ma, mb1) = masks(10, &a, &b1);
        let mb2 = NodeMask::from_nodes(10, &b2);
        let (ka, kb1, kb2) = (EventKey::new(&a), EventKey::new(&b1), EventKey::new(&b2));
        let refs: Vec<NodeId> = (0..10).collect();
        let cache = DensityCache::for_graph(&g);
        let engine = scalar(&g);

        let serial1 = serial_vectors(&g, &refs, 2, &ma, &mb1);
        let serial2 = serial_vectors(&g, &refs, 2, &ma, &mb2);
        let (work1, work2) = (pair_work(2, &a, &b1, &refs), pair_work(2, &a, &b2, &refs));
        for threads in [1, 3] {
            let run = |work| {
                vectors(
                    &engine,
                    work,
                    &refs,
                    Route::PerNode,
                    Some(&cache),
                    threads,
                    GROUP,
                )
            };
            assert_eq!(Ok(serial1.clone()), run(&work1), "threads = {threads}");
            assert_eq!(Ok(serial2.clone()), run(&work2), "threads = {threads}");
        }
        // Pair 1 measured every slot (10 BFS); pair 2 hit event a
        // everywhere but had to re-BFS each node for b2; the repeat
        // rounds were pure hits. Event a was never measured twice.
        assert_eq!(cache.fresh_computes(&ka), 10);
        assert_eq!(cache.fresh_computes(&kb1), 10);
        assert_eq!(cache.fresh_computes(&kb2), 10);
        assert_eq!(cache.bfs_invocations(), 20);
    }

    #[test]
    fn h_zero_density_is_indicator() {
        let g = path(4);
        let (ma, mb) = masks(4, &[2], &[0]);
        let mut s = BfsScratch::new(4);
        let c = counts(&g, &mut s, 2, 0, &ma, &mb);
        assert_eq!(c.vicinity_size, 1);
        assert_eq!(c.density_a(), 1.0);
        assert_eq!(c.density_b(), 0.0);
    }

    #[test]
    fn bitset_counts_equal_scalar_counts() {
        let g = from_edges(
            140,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 64),
                (64, 65),
                (65, 129),
                (129, 139),
                (0, 70),
            ],
        );
        let (a, b) = ([0u32, 64, 129, 139], [2u32, 65, 70]);
        let (ma, mb) = masks(140, &a, &b);
        let keys = vec![
            EventKey::new(&a),
            EventKey::new(&b),
            EventKey::new(&[&a[..], &b].concat()),
        ];
        let engine = bitset(&g);
        let mut s = BfsScratch::new(140);
        for r in [0u32, 3, 65, 100, 139] {
            for h in 0..5 {
                let scalar = counts(&g, &mut s, r, h, &ma, &mb);
                let work = Workset::uniform(h, keys.clone(), &[r]).0;
                let got = run_density(&engine, &work, Route::PerNode, None, 1, GROUP)
                    .map(|d| executor_counts(&d, &work, r));
                assert_eq!(Ok(scalar), got, "r = {r}, h = {h}");
            }
        }
    }

    #[test]
    fn plan_vectors_identical_across_kernels() {
        let g = from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (0, 6),
                (3, 9),
            ],
        );
        let refs: Vec<NodeId> = (0..12).collect();
        let work = pair_work(2, &[0, 4, 8], &[2, 9], &refs);
        let reference = vectors(&scalar(&g), &work, &refs, Route::PerNode, None, 1, GROUP);
        let bitset = bitset(&g);
        for threads in [1usize, 3] {
            let got = vectors(&bitset, &work, &refs, Route::PerNode, None, threads, GROUP);
            assert_eq!(reference, got, "bitset at {threads} threads");
        }
    }

    #[test]
    fn cached_plan_bit_identical_and_shares_entries_with_scalar() {
        let g = from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (0, 5),
            ],
        );
        let a = [0u32, 4, 8];
        let b = [2u32, 9];
        let (ma, mb) = masks(10, &a, &b);
        let refs: Vec<NodeId> = (0..10).collect();
        let cache = DensityCache::for_graph(&g);
        let work = pair_work(2, &a, &b, &refs);
        let serial = Ok(serial_vectors(&g, &refs, 2, &ma, &mb));
        // Cold pass through the bitset kernel fills the cache…
        let cold = vectors(
            &bitset(&g),
            &work,
            &refs,
            Route::PerNode,
            Some(&cache),
            1,
            GROUP,
        );
        assert_eq!(serial, cold);
        assert_eq!(cache.bfs_invocations(), 10);
        // …and a scalar-kernel pass over the same cache is pure hits:
        // entries are kernel-independent integers.
        let warm = vectors(
            &scalar(&g),
            &work,
            &refs,
            Route::PerNode,
            Some(&cache),
            1,
            GROUP,
        );
        assert_eq!(serial, warm);
        assert_eq!(cache.bfs_invocations(), 10, "warm pass ran no BFS");
    }

    #[test]
    fn multi_kernel_plan_matches_pairwise_counts_across_configs() {
        let g = from_edges(
            140,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 64),
                (64, 65),
                (65, 129),
                (129, 139),
                (0, 70),
                (70, 100),
            ],
        );
        let event_sets: Vec<Vec<NodeId>> = vec![
            vec![0, 64, 129, 139],
            vec![2, 65, 70],
            vec![1, 3, 100],
            vec![],
        ];
        let masks: Vec<NodeMask> = event_sets
            .iter()
            .map(|e| NodeMask::from_nodes(140, e))
            .collect();
        let scalar = MultiKernelPlan {
            graph: &g,
            masks: &masks,
            use_bitset: false,
            h: 2,
        };
        let bitset = MultiKernelPlan {
            use_bitset: true,
            ..scalar
        };
        let mut s = BfsScratch::new(140);
        let mut words = Vec::new();
        for r in [0u32, 3, 65, 100, 139] {
            for slots in [&[0u32, 1, 2, 3][..], &[2, 0], &[3]] {
                // Reference: one pairwise BFS per slot pair.
                let expect: Vec<u32> = slots
                    .iter()
                    .map(|&sl| {
                        counts(&g, &mut s, r, 2, &masks[sl as usize], &masks[0]).count_a as u32
                    })
                    .collect();
                let mut sizes = Vec::new();
                for (label, plan) in [("scalar", &scalar), ("bitset", &bitset)] {
                    // Stale cells from the previous slot list must be
                    // overwritten, not added to.
                    let mut got = vec![7u32; slots.len()];
                    let free = Budget::unlimited();
                    let size = plan
                        .counts_for(&mut s, &mut words, r, slots, &mut got, &free)
                        .unwrap();
                    assert_eq!(got, expect, "r={r} slots={slots:?} {label}");
                    sizes.push(size);
                }
                assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes agree");
            }
        }
    }

    #[test]
    fn grouped_vectors_bit_identical_to_scalar_for_every_group_size() {
        let g = from_edges(
            140,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 64),
                (64, 65),
                (65, 129),
                (129, 139),
                (0, 70),
                (70, 100),
            ],
        );
        let a = vec![0u32, 64, 129, 139];
        let b = vec![2u32, 65, 70];
        let (ma, mb) = masks(140, &a, &b);
        let refs: Vec<NodeId> = (0..140).collect();
        let reference = Ok(serial_vectors(&g, &refs, 2, &ma, &mb));
        let (engine, work) = (TescEngine::new(&g), pair_work(2, &a, &b, &refs));
        for group_size in [1usize, 7, 63, 64, 200] {
            for threads in [1usize, 3] {
                let got = vectors(
                    &engine,
                    &work,
                    &refs,
                    Route::RefLanes,
                    None,
                    threads,
                    group_size,
                );
                assert_eq!(reference, got, "group_size={group_size} threads={threads}");
            }
        }
    }

    #[test]
    fn grouped_counts_include_union_for_importance() {
        let g = from_edges(10, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let a = vec![0u32, 4];
        let b = vec![2u32, 4];
        let union = vec![0u32, 2, 4];
        let (ma, mb) = masks(10, &a, &b);
        let refs: Vec<NodeId> = (0..10).collect();
        let mut s = BfsScratch::new(10);
        let keys = [a, b, union].map(|e| EventKey::new(&e)).to_vec();
        let work = Workset::uniform(2, keys, &refs).0;
        let grouped =
            run_density(&TescEngine::new(&g), &work, Route::RefLanes, None, 1, 4).unwrap();
        for &r in &refs {
            let want = counts(&g, &mut s, r, 2, &ma, &mb);
            assert_eq!(want, executor_counts(&grouped, &work, r), "r = {r}");
        }
    }

    #[test]
    fn cached_grouped_vectors_bit_identical_with_partial_memoization() {
        let g = from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (0, 5),
            ],
        );
        let a = vec![0u32, 4, 8];
        let b = vec![2u32, 9];
        let (ma, mb) = masks(10, &a, &b);
        let ka = EventKey::new(&a);
        let refs: Vec<NodeId> = (0..10).collect();
        let cache = DensityCache::for_graph(&g);
        let serial = Ok(serial_vectors(&g, &refs, 2, &ma, &mb));
        let (engine, work) = (TescEngine::new(&g), pair_work(2, &a, &b, &refs));
        // Pre-memoize event a at a few nodes (partially-memoized
        // group: some lanes hit one slot, none hit both).
        let mut scratch = BfsScratch::new(10);
        for &r in &refs[0..4] {
            let c = counts(&g, &mut scratch, r, 2, &ma, &mb);
            let count = CachedCount {
                vicinity_size: c.vicinity_size as u32,
                count: c.count_a as u32,
            };
            cache.insert([(&ka, count)], r, 2);
        }
        let cold = vectors(&engine, &work, &refs, Route::RefLanes, Some(&cache), 1, 4);
        assert_eq!(serial, cold, "partially-memoized grouped pass");
        assert_eq!(cache.bfs_invocations(), 10, "every node still BFSed once");
        // Warm pass: every slot memoized, zero BFS, identical bits.
        let warm = vectors(&engine, &work, &refs, Route::RefLanes, Some(&cache), 2, 4);
        assert_eq!(serial, warm);
        assert_eq!(cache.bfs_invocations(), 10, "warm grouped pass ran no BFS");
    }

    /// One seeded event-direction case: a sparse random graph (isolated
    /// nodes guaranteed), perturbed on odd seeds, five events straddling
    /// the 64-lane chunk edges plus a random one, reference nodes that
    /// overlap the events, repeat and include isolated nodes, and
    /// per-node slot lists mixing a shared slot with private ones.
    /// Every `(node, slot)` count and every `|V^h_r|` must equal the
    /// scalar single-source search, at 1 and 3 threads.
    fn event_lanes_case(seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tesc_graph::generators::erdos_renyi_gnm;
        use tesc_graph::perturb::{add_random_edges, remove_random_edges};

        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(230usize..300);
        let mut g = erdos_renyi_gnm(n - 6, rng.gen_range(0..3 * n), &mut rng);
        if seed % 2 == 1 && g.num_edges() > 8 {
            g = remove_random_edges(&g, 4, &mut rng).0;
            g = add_random_edges(&g, 7, &mut rng).0;
        }
        // Six trailing nodes with no edges at all.
        let g = from_edges(n, &g.edges().collect::<Vec<_>>());
        let depth = rng.gen_range(1u32..4);
        let index = VicinityIndex::build(&g, depth);
        // h ∈ {0, 1, 2} and the index depth itself.
        let h = [0, 1, 2, depth][(seed % 4) as usize].min(depth);

        let mut events: Vec<Vec<NodeId>> = [1usize, 63, 64, 65, 200, rng.gen_range(0..40)]
            .iter()
            .map(|&size| {
                // Raw occurrence lists repeat nodes; the registered keys
                // are normalized, like every caller's.
                let raw: Vec<NodeId> = (0..size + size / 3)
                    .map(|_| rng.gen_range(0..n as NodeId))
                    .collect();
                let mut e = crate::engine::normalize(&raw);
                e.truncate(size);
                e
            })
            .collect();
        events[0] = vec![(n - 1) as NodeId]; // an isolated one-node event
        let masks: Vec<NodeMask> = events.iter().map(|e| NodeMask::from_nodes(n, e)).collect();
        let keys: Vec<EventKey> = events
            .iter()
            .map(|e| EventKey::from_normalized(e.clone()))
            .collect();

        let mut nodes: Vec<NodeId> = (0..rng.gen_range(1usize..90))
            .map(|_| rng.gen_range(0..n as NodeId))
            .collect();
        nodes.extend_from_slice(&events[1][..5]); // overlap an event
        nodes.push((n - 2) as NodeId); // isolated
        nodes.push(nodes[0]); // repeated
        let slot_lists: Vec<Vec<u32>> = (0..nodes.len())
            .map(|i| match i % 4 {
                0 => vec![4],                 // shared only
                1 => vec![(i % 4) as u32, 4], // shared + private
                2 => vec![0, 2, 3, 4, 5],     // many
                _ => vec![(i % 6) as u32],    // private only
            })
            .collect();

        let mut scratch = BfsScratch::new(n);
        let mut want_sizes = Vec::new();
        let mut want_counts = Vec::new();
        for (&r, slots) in nodes.iter().zip(&slot_lists) {
            for &s in slots {
                let c = counts(&g, &mut scratch, r, h, &masks[s as usize], &masks[0]);
                want_counts.push(c.count_a as u32);
            }
            want_sizes.push(scratch.vicinity_size(&g, r, h) as u32);
        }

        let engine = TescEngine::with_vicinity_index(&g, &index);
        let incidences = nodes
            .iter()
            .zip(&slot_lists)
            .flat_map(|(&r, slots)| slots.iter().map(move |&s| (r, s)));
        let work = Workset::new(h, keys.clone(), incidences);
        let chunks = |wanted: &[u32]| -> u64 {
            wanted
                .iter()
                .map(|&s| events[s as usize].len().div_ceil(MAX_GROUP_SOURCES) as u64)
                .sum()
        };
        for threads in [1usize, 3] {
            let got = run_density(&engine, &work, Route::EventLanes, None, threads, GROUP)
                .expect("unlimited budget");
            let ctx = format!("seed {seed} h={h} threads={threads}");
            let (mut got_sizes, mut got_counts) = (Vec::new(), Vec::new());
            for (&r, slots) in nodes.iter().zip(&slot_lists) {
                for &s in slots {
                    got_counts.push(got.count(&work, r, s).1);
                }
                got_sizes.push(got.count(&work, r, slots[0]).0);
            }
            assert_eq!(got_sizes, want_sizes, "{ctx}: sizes");
            assert_eq!(got_counts, want_counts, "{ctx}: counts");
            assert_eq!(got.traversals(), chunks(&[0, 1, 2, 3, 4, 5]), "{ctx}");
        }
        // Same slots for every node (the one-pair shape): only the
        // wanted slots traverse.
        let pair = Workset::uniform(h, vec![keys[1].clone(), keys[4].clone()], &nodes).0;
        let got = run_density(&engine, &pair, Route::EventLanes, None, 1, GROUP)
            .expect("unlimited budget");
        assert_eq!(
            got.traversals(),
            chunks(&[1, 4]),
            "seed {seed}: pair chunks"
        );
        for &r in &nodes {
            let c = counts(&g, &mut scratch, r, h, &masks[1], &masks[4]);
            let cell = [got.count(&pair, r, 0).1, got.count(&pair, r, 1).1];
            assert_eq!(cell, [c.count_a as u32, c.count_b as u32], "seed {seed}");
        }
    }

    #[test]
    fn event_lanes_equal_scalar_counts_on_128_seeded_graphs() {
        for seed in 0..128 {
            event_lanes_case(70_000 + seed);
        }
    }

    #[test]
    fn interrupted_event_lanes_return_no_counts() {
        let g = tesc_graph::generators::grid(12, 12);
        let index = VicinityIndex::build(&g, 2);
        let keys = vec![
            EventKey::new(&(0..70).collect::<Vec<NodeId>>()),
            EventKey::new(&[100, 101]),
        ];
        let nodes: Vec<NodeId> = (0..144).collect();
        let work = Workset::uniform(2, keys, &nodes).0;
        // One pool for every engine: the interrupted pass and the
        // reruns check out the same scratches.
        let pool = std::sync::Arc::new(ScratchPool::for_graph(&g));
        let engine = |budget: Budget| {
            TescEngine::with_vicinity_index(&g, &index)
                .with_scratch_pool(pool.clone())
                .with_budget(budget)
        };
        let run =
            |engine: &TescEngine<'_>| run_density(engine, &work, Route::EventLanes, None, 2, GROUP);
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        assert!(
            run(&engine(cancelled)).is_err(),
            "cancelled pass publishes nothing"
        );
        let free = engine(Budget::unlimited());
        let done = run(&free).expect("unlimited budget");
        assert_eq!(done.traversals(), 3, "⌈70/64⌉ + ⌈2/64⌉ chunks");
        assert_eq!(
            done.counts,
            run(&free).expect("rerun").counts,
            "the pooled scratch stays reusable after an interruption"
        );
    }

    #[test]
    fn route_is_event_side_only_under_auto_with_a_covering_index() {
        let g = tesc_graph::generators::grid(40, 40);
        let index = VicinityIndex::build(&g, 2);
        let refs: Vec<NodeId> = (0..400).collect();
        let (a, b): (Vec<NodeId>, Vec<NodeId>) = ((0..20).collect(), (800..820).collect());
        let events: [&[NodeId]; 2] = [&a, &b];
        let route = |kernel, index, h| choose_route(kernel, &g, index, h, &refs, &events);
        assert_eq!(route(BfsKernel::Auto, Some(&index), 2), Route::EventLanes);
        // No index, an index shallower than h, or a partial one: the
        // reference side.
        assert_ne!(route(BfsKernel::Auto, None, 2), Route::EventLanes);
        assert_ne!(route(BfsKernel::Auto, Some(&index), 3), Route::EventLanes);
        let partial = VicinityIndex::build_for_nodes(&g, &a, 2);
        assert_ne!(route(BfsKernel::Auto, Some(&partial), 2), Route::EventLanes);
        // Explicit kernels are the oracles: always the reference side.
        assert_eq!(route(BfsKernel::Scalar, Some(&index), 2), Route::PerNode);
        assert_eq!(route(BfsKernel::Bitset, Some(&index), 2), Route::PerNode);
        assert_eq!(route(BfsKernel::Multi, Some(&index), 2), Route::RefLanes);
        // Events as large as the sample's vicinities: no event side.
        let big: Vec<NodeId> = (0..1600).collect();
        assert_ne!(
            choose_route(BfsKernel::Auto, &g, Some(&index), 2, &refs[..20], &[&big]),
            Route::EventLanes
        );
    }
}
