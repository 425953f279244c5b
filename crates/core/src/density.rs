//! Event densities in reference-node vicinities (Eq. 2 of the paper).
//!
//! `s^h_a(r) = |V_a ∩ V^h_r| / |V^h_r|` — the occurrence count
//! normalized by the vicinity's node count, the graph analogue of
//! density per unit area. One `h`-hop BFS per reference node collects
//! every count the test needs (size, `a` hits, `b` hits, union hits),
//! so the density phase costs exactly `n` BFS searches.
//!
//! The `n` searches are independent, which makes this the test's
//! embarrassingly parallel hot path: the per-node executors
//! ([`density_counts_plan`], [`density_vectors_cached_plan`]) fan the
//! reference nodes out over scoped worker threads ([`map_refs_pooled`]),
//! each with its own [`BfsScratch`] checked out of a shared
//! [`ScratchPool`], bit-identical to a serial loop over
//! [`density_counts`] (no RNG is involved and every output slot is
//! written by exactly one worker); the grouped executors batch the
//! nodes into multi-source traversals ([`GroupKernelPlan`]).
//!
//! Every executor takes the request's [`Budget`], checked per BFS
//! frontier level: an exhausted budget yields the typed
//! [`Interrupted`] error, never partial counts.

use crate::cache::{CachedCount, DensityCache, EventKey, ProbeGovernor};
use tesc_events::NodeMask;
use tesc_graph::bfs::{BfsKernel, BfsScratch, MsBfsScratch};
use tesc_graph::budget::{Budget, Interrupted};
use tesc_graph::csr::CsrGraph;
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

/// One test's resolved density execution plan: the graph the
/// per-reference-node BFS runs on, the two event masks and whether the
/// bitset kernel is engaged. Every count is bit-identical across both
/// kernels (they visit identical sets).
#[derive(Debug, Clone, Copy)]
pub struct KernelPlan<'a, G = CsrGraph> {
    /// The graph the BFS runs on.
    pub graph: &'a G,
    /// `V_a` membership.
    pub mask_a: &'a NodeMask,
    /// `V_b` membership.
    pub mask_b: &'a NodeMask,
    /// Engage the bitset kernel instead of the scalar one (see
    /// [`KernelPlan::counts`]).
    pub use_bitset: bool,
    /// Vicinity level `h`.
    pub h: u32,
}

impl<'a, G: Adjacency> KernelPlan<'a, G> {
    /// The scalar plan — the reference configuration every other plan
    /// must match bit-for-bit.
    pub fn scalar(g: &'a G, mask_a: &'a NodeMask, mask_b: &'a NodeMask, h: u32) -> Self {
        KernelPlan {
            graph: g,
            mask_a,
            mask_b,
            use_bitset: false,
            h,
        }
    }

    /// [`DensityCounts`] for reference node `r`. The scalar kernel is
    /// [`density_counts`]; the bitset kernel runs one hybrid
    /// top-down/bottom-up bitmap BFS
    /// ([`BfsScratch::visit_h_vicinity_bitset`]), then all three counts
    /// in a single word-wise sweep — `visited & a`, `visited & b` and
    /// the `a | b` union, AND + popcount 64 nodes at a time. Both visit
    /// the identical node set, so the integers are bit-identical.
    /// `budget` is checked per frontier level; an interrupted search
    /// returns the typed error instead of partial counts.
    pub fn counts(
        &self,
        scratch: &mut BfsScratch,
        r: NodeId,
        budget: &Budget,
    ) -> Result<DensityCounts, Interrupted> {
        if !self.use_bitset {
            let (g, h) = (self.graph, self.h);
            return density_counts(g, scratch, r, h, self.mask_a, self.mask_b, budget);
        }
        let vicinity_size = scratch.visit_h_vicinity_bitset(self.graph, &[r], self.h, budget)?;
        let (aw, bw) = (self.mask_a.words(), self.mask_b.words());
        let mut count_a = 0usize;
        let mut count_b = 0usize;
        let mut count_union = 0usize;
        for (i, &vw) in scratch.visited_words().iter().enumerate() {
            if vw == 0 {
                continue;
            }
            let (a, b) = (aw[i], bw[i]);
            count_a += (vw & a).count_ones() as usize;
            count_b += (vw & b).count_ones() as usize;
            count_union += (vw & (a | b)).count_ones() as usize;
        }
        Ok(DensityCounts {
            vicinity_size,
            count_a,
            count_b,
            count_union,
        })
    }
}

/// The fused multi-event generalization of [`KernelPlan`]: one density
/// execution plan over **M** event masks instead of two, so a single
/// `h`-hop BFS per reference node can be scored against every event
/// that touches that node (the pair-set planner's stage-(b) kernel —
/// see `tesc::planner`).
///
/// Composition mirrors [`KernelPlan`]: the kernel may be scalar
/// (per-node membership probes) or bitset (one hybrid bitmap BFS + one
/// word-major multi-mask sweep via [`tesc_graph::multi_mask_counts`]).
/// Both produce the identical integers as M separate
/// [`density_counts`] calls — the kernels visit identical sets — so
/// fused densities are bit-identical to the per-pair engine path.
#[derive(Debug, Clone, Copy)]
pub struct MultiKernelPlan<'a, G = CsrGraph> {
    /// The graph the BFS runs on.
    pub graph: &'a G,
    /// Every registered event mask; a per-reference-node *slot list*
    /// selects which of these one BFS scores.
    pub masks: &'a [NodeMask],
    /// Engage the bitset kernel + word-level multi-mask sweep.
    pub use_bitset: bool,
    /// Vicinity level `h`.
    pub h: u32,
}

impl<G: Adjacency> MultiKernelPlan<'_, G> {
    /// Count `|V_e ∩ V^h_r|` for every event slot in `slots` with one
    /// BFS from reference node `r`. `counts` is cleared and receives
    /// one count per slot, in slot order; the return value is
    /// `|V^h_r|`. `budget` is checked per frontier level; an
    /// interrupted search returns the typed error and `counts` must be
    /// discarded.
    pub fn counts_for(
        &self,
        scratch: &mut BfsScratch,
        r: NodeId,
        slots: &[u32],
        counts: &mut Vec<u32>,
        budget: &Budget,
    ) -> Result<usize, Interrupted> {
        counts.clear();
        counts.resize(slots.len(), 0);
        if self.use_bitset {
            let size = scratch.visit_h_vicinity_bitset(self.graph, &[r], self.h, budget)?;
            let mask_words: Vec<&[u64]> = slots
                .iter()
                .map(|&s| self.masks[s as usize].words())
                .collect();
            scratch.visited_multi_mask_counts(&mask_words, counts);
            Ok(size)
        } else {
            scratch.visit_h_vicinity(self.graph, &[r], self.h, budget, |v, _| {
                for (i, &s) in slots.iter().enumerate() {
                    counts[i] += self.masks[s as usize].contains(v) as u32;
                }
            })
        }
    }
}

/// The **source-grouped** generalization of [`MultiKernelPlan`]: one
/// density execution plan that batches up to
/// [`tesc_graph::MAX_GROUP_SOURCES`] sources into a single multi-source
/// traversal ([`MsBfsScratch::visit_h_vicinity_multi`]), one bit-lane
/// per source, so one edge scan serves every grouped source — the
/// data-movement lever the per-source kernels cannot reach (see
/// `docs/PERFORMANCE.md`).
///
/// The plan runs in one of two **directions** over that one kernel:
///
/// * **reference lanes** (`event_side: None`) — the lanes are reference
///   nodes; per-lane scoring reads only an event's members
///   ([`MsBfsScratch::lane_member_counts`]), `O(|V_e|)` per (event,
///   group), and `|V^h_r|` is a positional popcount of the lane words.
/// * **event lanes** (`event_side: Some(index)`) — the lanes are an
///   event's occurrence nodes, ≤ 64 per traversal. On an undirected
///   graph `r ∈ V^h_v ⇔ v ∈ V^h_r`, so `|V_e ∩ V^h_r|` is the number of
///   event lanes that reached `r`:
///   [`MsBfsScratch::reached_lanes`]`(r).count_ones()`, summed over the
///   event's chunks. `|V^h_r|` is read from the index, which must
///   [`cover`](VicinityIndex::covers) `h`. The cost is `⌈|V_e|/64⌉`
///   traversals per event however many reference nodes ask — the
///   smaller side of the reachability join drives it.
///
/// Every recovered integer equals what independent single-source
/// searches produce, so grouped densities are bit-identical to every
/// other configuration, in either direction.
#[derive(Debug, Clone, Copy)]
pub struct GroupKernelPlan<'a, G = CsrGraph> {
    /// The graph the traversals run on.
    pub graph: &'a G,
    /// Occurrence node lists, one per event slot (duplicate-free; any
    /// order).
    pub slot_nodes: &'a [Vec<NodeId>],
    /// Vicinity level `h`.
    pub h: u32,
    /// `Some(index)` drives the pass from the event side (see the type
    /// docs); the index must cover `h`.
    pub event_side: Option<&'a VicinityIndex>,
}

impl<G: Adjacency> GroupKernelPlan<'_, G> {
    /// Score one group of up to 64 reference nodes with
    /// a single multi-source traversal (the reference-lane direction).
    /// `slot_lists[i]` names the event slots node `nodes[i]` must be
    /// scored against (**sorted ascending**); returns the per-lane
    /// `|V^h_{nodes[i]}|` and the lane-major flat counts (lane `i`'s
    /// `slot_lists[i].len()` cells, in slot order).
    ///
    /// Each distinct slot of the group is scored **once** against all
    /// lanes and scattered to the members that asked for it. The
    /// traversal checks the budget per frontier level; an interrupted
    /// group returns the typed error.
    fn counts_for_group(
        &self,
        scratch: &mut MsBfsScratch,
        nodes: &[NodeId],
        slot_lists: &[&[u32]],
        budget: &Budget,
    ) -> Result<(Vec<u32>, Vec<u32>), Interrupted> {
        debug_assert_eq!(nodes.len(), slot_lists.len());
        scratch.visit_h_vicinity_multi(self.graph, nodes, self.h, budget)?;
        let mut sizes = vec![0u32; nodes.len()];
        scratch.lane_sizes(&mut sizes);
        let lane_start = GroupSlots::PerNode(slot_lists).cell_starts(nodes.len());
        let mut counts = vec![0u32; lane_start[nodes.len()]];
        // Distinct slots of the whole group, each scored once.
        let mut group_slots: Vec<u32> = slot_lists.iter().flat_map(|s| s.iter().copied()).collect();
        group_slots.sort_unstable();
        group_slots.dedup();
        let mut lane_counts = vec![0u32; nodes.len()];
        for &slot in &group_slots {
            scratch.lane_member_counts(&self.slot_nodes[slot as usize], &mut lane_counts);
            for (lane, slots) in slot_lists.iter().enumerate() {
                if let Ok(j) = slots.binary_search(&slot) {
                    counts[lane_start[lane] + j] = lane_counts[lane];
                }
            }
        }
        Ok((sizes, counts))
    }
}

/// How a density pass resolves its `(reference node, event)` counts.
/// Chosen once per pass by [`choose_route`]; every route produces the
/// identical integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One single-source BFS per reference node
    /// ([`KernelPlan`] / [`MultiKernelPlan`]).
    PerNode,
    /// [`GroupKernelPlan`] with reference nodes as lanes.
    RefLanes,
    /// [`GroupKernelPlan`] with event nodes as lanes.
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
/// per-node executors, `Multi` reference lanes — so they stay the
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

/// Per-node slot assignments for a grouped density run: every node
/// scored against the same slots (the per-pair engine path) or each
/// node carrying its own sorted list (the planner's fused workset).
pub(crate) enum GroupSlots<'a> {
    /// Every node uses this one sorted slot list.
    Same(&'a [u32]),
    /// `lists[i]` is node `i`'s sorted slot list.
    PerNode(&'a [&'a [u32]]),
}

impl GroupSlots<'_> {
    #[inline]
    fn get(&self, i: usize) -> &[u32] {
        match self {
            GroupSlots::Same(s) => s,
            GroupSlots::PerNode(lists) => lists[i],
        }
    }

    /// Node-major cell layout of `n` nodes: node `i`'s counts occupy
    /// `starts[i]..starts[i + 1]`, one cell per slot in slot order.
    fn cell_starts(&self, n: usize) -> Vec<usize> {
        let mut starts = Vec::with_capacity(n + 1);
        let mut cells = 0usize;
        for i in 0..n {
            starts.push(cells);
            cells += self.get(i).len();
        }
        starts.push(cells);
        starts
    }
}

/// Output of [`run_grouped`], positionally aligned with its `nodes`.
pub(crate) struct GroupedCounts {
    /// `|V^h_r|` per node.
    pub sizes: Vec<u32>,
    /// Node-major flat counts: node `i`'s cells follow node `i − 1`'s,
    /// one per slot of its slot list, in slot order.
    pub counts: Vec<u32>,
    /// Multi-source traversals physically executed: source groups on
    /// the reference-lane direction, event chunks on the event-lane
    /// direction.
    pub traversals: u64,
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
    let threads = threads.max(1).min(count.max(1));
    let mut out = vec![default; count];
    if threads == 1 || count < serial_below {
        let mut st = state();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(&mut st, i);
        }
        return out;
    }
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, out_c) in out.chunks_mut(chunk).enumerate() {
            let (f, state) = (&f, &state);
            scope.spawn(move || {
                let mut st = state();
                for (off, slot) in out_c.iter_mut().enumerate() {
                    *slot = f(&mut st, ci * chunk + off);
                }
            });
        }
    });
    out
}

/// Apply `f(i)` for every index in `0..count` over `threads` workers
/// ([`fan_out`] with no per-worker state) — used by the planner's
/// stage (a) and the cache-probe stages of the grouped executors (a
/// probe takes locks, not a BFS scratch, and a warm pass is *nothing
/// but* probes, so it must not serialize).
pub(crate) fn map_indexed<T, F>(count: usize, threads: usize, default: T, f: F) -> Vec<T>
where
    T: Clone + Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(count, threads, 2 * threads, default, || (), |_, i| f(i))
}

/// Grouped density executor — where every grouped caller ends (the
/// planner's stage (b) and the engine's uniform, cached and importance
/// group paths). Returns per-node `|V^h_r|` and the per-(node, slot)
/// counts, positionally aligned with `nodes` and deterministic at any
/// thread count, in the direction the plan names
/// ([`GroupKernelPlan::event_side`]).
///
/// **Reference lanes.** `nodes` are partitioned into source groups of
/// at most `group_size`, one multi-source traversal per group (parallel
/// over groups). Nodes are grouped in **id order** (a stable argsort;
/// the output order is unchanged): nearby ids share vicinities strongly
/// in practice on generated and real graphs, so sorting maximizes the
/// per-group lane overlap the shared edge scan amortizes over. Grouping
/// order cannot affect any count (each lane is an independent
/// traversal), so this is purely a locality optimization.
///
/// **Event lanes.** Per wanted slot (parallel over slots), the slot's
/// occurrence nodes traverse in chunks of ≤ 64 lanes and every chunk
/// adds `reached_lanes(r).count_ones()` into the slot's one
/// accumulator. Temporaries are flat and `O(cells)`: a slot-major
/// inversion of the node-major cell layout, one accumulator per slot.
pub(crate) fn run_grouped<G: Adjacency>(
    plan: &GroupKernelPlan<'_, G>,
    pool: &ScratchPool,
    nodes: &[NodeId],
    slots: &GroupSlots<'_>,
    threads: usize,
    group_size: usize,
    budget: &Budget,
) -> Result<GroupedCounts, Interrupted> {
    if nodes.is_empty() {
        // Nothing to traverse (say, a warm cache resolved every node),
        // yet an exhausted budget fails the pass like any other.
        budget.check()?;
        return Ok(GroupedCounts {
            sizes: Vec::new(),
            counts: Vec::new(),
            traversals: 0,
        });
    }
    match plan.event_side {
        Some(index) => run_event_lanes(plan, index, pool, nodes, slots, threads, budget),
        None => run_ref_lanes(plan, pool, nodes, slots, threads, group_size, budget),
    }
}

fn run_ref_lanes<G: Adjacency>(
    plan: &GroupKernelPlan<'_, G>,
    pool: &ScratchPool,
    nodes: &[NodeId],
    slots: &GroupSlots<'_>,
    threads: usize,
    group_size: usize,
    budget: &Budget,
) -> Result<GroupedCounts, Interrupted> {
    let group_size = group_size.clamp(1, MAX_GROUP_SOURCES);
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by_key(|&i| nodes[i]);
    let num_groups = nodes.len().div_ceil(group_size);
    // One group already holds up to 64 sources' worth of BFS work, so
    // even two groups are worth a second worker.
    let per_group = fan_out(
        num_groups,
        threads,
        2,
        (Vec::new(), Vec::new()),
        || pool.acquire_multi(),
        |scratch, gi| {
            // Exhaustion is sticky: skipped groups leave empty sentinel
            // results, and the post-map check below is then guaranteed
            // to discard the whole pass.
            if budget.is_exhausted() {
                return (Vec::new(), Vec::new());
            }
            let start = gi * group_size;
            let end = (start + group_size).min(nodes.len());
            let idx = &order[start..end];
            let group: Vec<NodeId> = idx.iter().map(|&i| nodes[i]).collect();
            let slot_lists: Vec<&[u32]> = idx.iter().map(|&i| slots.get(i)).collect();
            plan.counts_for_group(scratch, &group, &slot_lists, budget)
                .unwrap_or_default()
        },
    );
    budget.check()?;
    let starts = slots.cell_starts(nodes.len());
    let mut sizes = vec![0u32; nodes.len()];
    let mut counts = vec![0u32; starts[nodes.len()]];
    for (gi, (group_sizes, group_counts)) in per_group.into_iter().enumerate() {
        let mut lane_start = 0usize;
        for (off, s) in group_sizes.into_iter().enumerate() {
            let i = order[gi * group_size + off];
            sizes[i] = s;
            let cells = starts[i + 1] - starts[i];
            counts[starts[i]..starts[i + 1]]
                .copy_from_slice(&group_counts[lane_start..lane_start + cells]);
            lane_start += cells;
        }
    }
    Ok(GroupedCounts {
        sizes,
        counts,
        traversals: num_groups as u64,
    })
}

fn run_event_lanes<G: Adjacency>(
    plan: &GroupKernelPlan<'_, G>,
    index: &VicinityIndex,
    pool: &ScratchPool,
    nodes: &[NodeId],
    slots: &GroupSlots<'_>,
    threads: usize,
    budget: &Budget,
) -> Result<GroupedCounts, Interrupted> {
    let h = plan.h;
    assert!(
        index.covers(h),
        "event-side density needs an index covering h = {h}"
    );
    let starts = slots.cell_starts(nodes.len());
    let cells = starts[nodes.len()];
    // Slot-major inversion of the node-major cell layout (a counting
    // sort): slot `s` owns `by_slot[slot_start[s]..slot_start[s + 1]]`,
    // each entry a (reference node, node-major cell) pair.
    let num_slots = plan.slot_nodes.len();
    let mut slot_start = vec![0usize; num_slots + 1];
    for i in 0..nodes.len() {
        for &s in slots.get(i) {
            slot_start[s as usize + 1] += 1;
        }
    }
    for s in 0..num_slots {
        slot_start[s + 1] += slot_start[s];
    }
    let mut cursor = slot_start.clone();
    let mut by_slot = vec![(0 as NodeId, 0u32); cells];
    for (i, &r) in nodes.iter().enumerate() {
        for (j, &s) in slots.get(i).iter().enumerate() {
            by_slot[cursor[s as usize]] = (r, (starts[i] + j) as u32);
            cursor[s as usize] += 1;
        }
    }
    let wanted: Vec<usize> = (0..num_slots)
        .filter(|&s| slot_start[s + 1] > slot_start[s])
        .collect();
    let multi = || pool.acquire_multi();
    let per_slot = fan_out(
        wanted.len(),
        threads,
        2,
        Vec::new(),
        multi,
        |scratch, wi| {
            let s = wanted[wi];
            let cells = &by_slot[slot_start[s]..slot_start[s + 1]];
            let mut acc = vec![0u32; cells.len()];
            for chunk in plan.slot_nodes[s].chunks(MAX_GROUP_SOURCES) {
                // An interrupted (or skipped: exhaustion is sticky) chunk
                // leaves partial sums that the post-map check discards.
                if budget.is_exhausted()
                    || scratch
                        .visit_h_vicinity_multi(plan.graph, chunk, h, budget)
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
    let mut counts = vec![0u32; cells];
    let mut traversals = 0u64;
    for (&s, acc) in wanted.iter().zip(per_slot) {
        traversals += plan.slot_nodes[s].len().div_ceil(MAX_GROUP_SOURCES) as u64;
        for (&(_, cell), c) in by_slot[slot_start[s]..].iter().zip(acc) {
            counts[cell as usize] = c;
        }
    }
    Ok(GroupedCounts {
        sizes: nodes.iter().map(|&r| index.size(r, h) as u32).collect(),
        counts,
        traversals,
    })
}

/// Parallel density vectors through the **source-grouped multi-source
/// kernel**, in the plan's direction: `plan.slot_nodes` must hold
/// exactly `[V_a, V_b]`, and the returned vectors are bit-identical to
/// [`density_vectors_plan`] on the corresponding two-mask plan (same
/// integers, same `count as f64 / size as f64` arithmetic) — asserted
/// in `tests/kernels.rs` and per `density_kernel` bench row. An
/// interrupted pass returns the typed error with no partial output.
pub fn density_vectors_group_plan<G: Adjacency>(
    plan: &GroupKernelPlan<'_, G>,
    pool: &ScratchPool,
    refs: &[NodeId],
    threads: usize,
    group_size: usize,
    budget: &Budget,
) -> Result<(Vec<f64>, Vec<f64>), Interrupted> {
    assert_eq!(plan.slot_nodes.len(), 2, "expects the [a, b] slot pair");
    let g = run_grouped(
        plan,
        pool,
        refs,
        &GroupSlots::Same(&[0, 1]),
        threads,
        group_size,
        budget,
    )?;
    Ok(g.sizes
        .iter()
        .zip(g.counts.chunks_exact(2))
        .map(|(&size, c)| (c[0] as f64 / size as f64, c[1] as f64 / size as f64))
        .unzip())
}

/// Grouped [`DensityCounts`] (including the `a∪b` union count) for the
/// importance-sampling path: `plan.slot_nodes` must hold exactly
/// `[V_a, V_b, V_{a∪b}]`. The grouped sibling of
/// [`density_counts_plan`]; an interrupted pass returns the typed
/// error with no partial output.
pub fn density_counts_group_plan<G: Adjacency>(
    plan: &GroupKernelPlan<'_, G>,
    pool: &ScratchPool,
    refs: &[NodeId],
    threads: usize,
    group_size: usize,
    budget: &Budget,
) -> Result<Vec<DensityCounts>, Interrupted> {
    assert_eq!(plan.slot_nodes.len(), 3, "expects [a, b, union] slots");
    let g = run_grouped(
        plan,
        pool,
        refs,
        &GroupSlots::Same(&[0, 1, 2]),
        threads,
        group_size,
        budget,
    )?;
    Ok(g.sizes
        .iter()
        .zip(g.counts.chunks_exact(3))
        .map(|(&size, c)| DensityCounts {
            vicinity_size: size as usize,
            count_a: c[0] as usize,
            count_b: c[1] as usize,
            count_union: c[2] as usize,
        })
        .collect())
}

/// [`density_vectors_group_plan`] through a cross-pair
/// [`DensityCache`]: every reference node's two slots are probed first
/// under one shard lock ([`DensityCache::lookup_pair`]); only nodes
/// with at least one miss join the grouped traversals, and their fresh
/// integers fill the missing slots ([`DensityCache::insert_many`]).
/// Bit-identical to every other cached/uncached configuration; the
/// BFS counter advances once per *lane* measured, so cache accounting
/// is executor-independent.
///
/// The budget is re-checked *before* the scatter/insert stage, so the
/// cache only ever absorbs counts from fully completed traversals — an
/// interrupted pass returns the typed error and leaves it untouched
/// (completed counts are exact content-addressed integers, so
/// successful warming stays semantically invisible either way).
#[allow(clippy::too_many_arguments)] // the grouped plan + cache keys + budget
pub fn density_vectors_cached_group_plan<G: Adjacency>(
    plan: &GroupKernelPlan<'_, G>,
    pool: &ScratchPool,
    refs: &[NodeId],
    key_a: &EventKey,
    key_b: &EventKey,
    threads: usize,
    group_size: usize,
    cache: &DensityCache,
    budget: &Budget,
) -> Result<(Vec<f64>, Vec<f64>), Interrupted> {
    assert_eq!(plan.slot_nodes.len(), 2, "expects the [a, b] slot pair");
    let h = plan.h;
    let governor = ProbeGovernor::new();
    // Probe stage, parallel: a warm pass is nothing but probes, so it
    // must fan out like the BFS stage does. Probe outcomes are
    // (None, None) when the pass's governor dropped the probe — the
    // node is then simply treated as a full miss; its fresh counts
    // still warm the cache.
    let probes = map_indexed(refs.len(), threads, (None, None), |i| {
        if !governor.engaged() {
            return (None, None);
        }
        let probe = cache.lookup_pair(key_a, key_b, refs[i], h);
        governor.record(probe.0.is_some() && probe.1.is_some());
        probe
    });
    let mut sa = vec![0.0f64; refs.len()];
    let mut sb = vec![0.0f64; refs.len()];
    let mut pending: Vec<usize> = Vec::new();
    let mut hits: Vec<(Option<CachedCount>, Option<CachedCount>)> = Vec::new();
    for (i, &(hit_a, hit_b)) in probes.iter().enumerate() {
        if let (Some(a), Some(b)) = (hit_a, hit_b) {
            debug_assert_eq!(a.vicinity_size, b.vicinity_size, "inconsistent cache");
            sa[i] = a.density();
            sb[i] = b.density();
        } else {
            pending.push(i);
            hits.push((hit_a, hit_b));
        }
    }
    let nodes: Vec<NodeId> = pending.iter().map(|&i| refs[i]).collect();
    let g = run_grouped(
        plan,
        pool,
        &nodes,
        &GroupSlots::Same(&[0, 1]),
        threads,
        group_size,
        budget,
    )?;
    // Scatter, collecting the missing slots for one bulk insertion
    // (one lock per shard for the whole pass, not one per node).
    let mut bulk: Vec<(NodeId, &EventKey, CachedCount)> = Vec::new();
    for (((&i, &r), (&size, c)), &(hit_a, hit_b)) in pending
        .iter()
        .zip(&nodes)
        .zip(g.sizes.iter().zip(g.counts.chunks_exact(2)))
        .zip(&hits)
    {
        let fresh_a = CachedCount {
            vicinity_size: size,
            count: c[0],
        };
        let fresh_b = CachedCount {
            vicinity_size: size,
            count: c[1],
        };
        if hit_a.is_none() {
            bulk.push((r, key_a, fresh_a));
        }
        if hit_b.is_none() {
            bulk.push((r, key_b, fresh_b));
        }
        // Same policy as the per-node cached path: prefer the memoized
        // integer where a slot hit (identical value either way).
        let a = hit_a.unwrap_or(fresh_a);
        let b = hit_b.unwrap_or(fresh_b);
        debug_assert_eq!(a.vicinity_size, size, "inconsistent cache");
        debug_assert_eq!(b.vicinity_size, size, "inconsistent cache");
        sa[i] = a.density();
        sb[i] = b.density();
    }
    cache.record_bfs_n(pending.len() as u64);
    cache.insert_bulk(h, bulk);
    Ok((sa, sb))
}

/// Apply `f(scratch, r)` to every reference node over `threads`
/// scoped workers in contiguous chunks, each with its own scratch
/// checked out of `pool`; output slot `i` holds `f`'s result for
/// `refs[i]` at any thread count (the per-node work must not consume
/// shared randomness, which holds for every density/count computation
/// in this crate). This is the engine's `density_threads` primitive,
/// shared by every per-node density loop (presence, importance,
/// intensity and the planner's fused pass).
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

/// [`DensityCounts`] (including the `a∪b` union count) for every
/// reference node with one [`KernelPlan`] BFS each, via
/// [`map_refs_pooled`] — the per-node pass shared by the uniform and
/// importance paths. Positionally identical to a serial
/// [`density_counts`] loop at any thread count, for every plan
/// configuration.
pub fn density_counts_plan<G: Adjacency>(
    plan: &KernelPlan<'_, G>,
    pool: &ScratchPool,
    refs: &[NodeId],
    threads: usize,
    budget: &Budget,
) -> Result<Vec<DensityCounts>, Interrupted> {
    map_refs_pooled(pool, refs, threads, budget, |scratch, r| {
        plan.counts(scratch, r, budget)
    })
}

/// [`density_counts_plan`] as the two paired vectors (`s^h_a`,
/// `s^h_b`) the Kendall machinery consumes.
pub fn density_vectors_plan<G: Adjacency>(
    plan: &KernelPlan<'_, G>,
    pool: &ScratchPool,
    refs: &[NodeId],
    threads: usize,
    budget: &Budget,
) -> Result<(Vec<f64>, Vec<f64>), Interrupted> {
    Ok(density_counts_plan(plan, pool, refs, threads, budget)?
        .iter()
        .map(|c| (c.density_a(), c.density_b()))
        .unzip())
}

/// [`density_vectors_plan`] through a cross-pair [`DensityCache`]:
/// per reference node, the two `(event, node, h)` slots are looked up
/// first and a single BFS runs only if either misses, filling both
/// missing slots. Results are **bit-identical** to the uncached path —
/// cached slots hold the exact integer counts the BFS would have
/// produced (whatever the plan's kernel: entries are
/// kernel-independent integers, so one cache serves every plan over
/// the same graph version), and densities are derived with the same
/// `count as f64 / size as f64` arithmetic.
///
/// With `k` pairs sharing an event over overlapping reference sets,
/// the shared event's counts are measured once per distinct reference
/// node instead of once per pair (asserted via
/// [`DensityCache::fresh_computes`] in `tests/pipeline.rs`).
///
/// Cache lookups stay budget-free (they are cheap and their hits are
/// exact), but fresh counts are inserted only when their BFS ran to
/// completion — an interrupted node contributes nothing, and the pass
/// returns the typed error.
#[allow(clippy::too_many_arguments)] // the plan + cache keys + budget
pub fn density_vectors_cached_plan<G: Adjacency>(
    plan: &KernelPlan<'_, G>,
    pool: &ScratchPool,
    refs: &[NodeId],
    key_a: &EventKey,
    key_b: &EventKey,
    threads: usize,
    cache: &DensityCache,
    budget: &Budget,
) -> Result<(Vec<f64>, Vec<f64>), Interrupted> {
    let h = plan.h;
    let governor = ProbeGovernor::new();
    let densities = map_refs_pooled(pool, refs, threads, budget, |scratch, r| {
        // Both of a pair's slots live in r's shard — resolve them
        // under one lock acquisition (lookup_pair), and fill the
        // missing ones the same way (insert_many): per-node lock
        // traffic, not per-slot. The pass's governor drops the probe
        // (treating the node as all-miss; inserts still warm the
        // cache) once measured sharing stops paying for the lookups.
        let (hit_a, hit_b) = if governor.engaged() {
            let hits = cache.lookup_pair(key_a, key_b, r, h);
            governor.record(hits.0.is_some() && hits.1.is_some());
            hits
        } else {
            (None, None)
        };
        if let (Some(a), Some(b)) = (hit_a, hit_b) {
            debug_assert_eq!(a.vicinity_size, b.vicinity_size, "inconsistent cache");
            return Ok((a.density(), b.density()));
        }
        // Only a completed BFS may warm the cache: an interrupted
        // traversal's counts are partial and must never be memoized.
        let c = plan.counts(scratch, r, budget)?;
        cache.record_bfs();
        let size = c.vicinity_size as u32;
        let mut fresh: [Option<(&EventKey, CachedCount)>; 2] = [None, None];
        if hit_a.is_none() {
            fresh[0] = Some((
                key_a,
                CachedCount {
                    vicinity_size: size,
                    count: c.count_a as u32,
                },
            ));
        }
        if hit_b.is_none() {
            fresh[1] = Some((
                key_b,
                CachedCount {
                    vicinity_size: size,
                    count: c.count_b as u32,
                },
            ));
        }
        cache.insert_many(fresh.into_iter().flatten(), r, h);
        // Prefer the cached slot when one side hit: same integers,
        // same arithmetic, so the choice is observationally moot — but
        // using it exercises the consistency debug-assert above.
        Ok((
            hit_a.map_or_else(|| c.density_a(), |a| a.density()),
            hit_b.map_or_else(|| c.density_b(), |b| b.density()),
        ))
    })?;
    Ok(densities.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesc_graph::csr::from_edges;
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
        let (ma, mb) = masks(6, &[0], &[5]);
        let refs = [0u32, 2, 5];
        let pool = ScratchPool::for_graph(&g);
        let plan = KernelPlan::scalar(&g, &ma, &mb, 1);
        let (sa, sb) = density_vectors_plan(&plan, &pool, &refs, 1, &Budget::unlimited()).unwrap();
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
        let (ma, mb) = masks(12, &[0, 4, 8], &[2, 9]);
        let refs: Vec<NodeId> = (0..12).collect();
        let serial = serial_vectors(&g, &refs, 2, &ma, &mb);
        let pool = ScratchPool::for_graph(&g);
        let plan = KernelPlan::scalar(&g, &ma, &mb, 2);
        for threads in [1, 2, 3, 5, 16] {
            let pooled = density_vectors_plan(&plan, &pool, &refs, threads, &Budget::unlimited());
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
        let pool = ScratchPool::for_graph(&g);
        let cache = DensityCache::for_graph(&g);

        let serial1 = serial_vectors(&g, &refs, 2, &ma, &mb1);
        let serial2 = serial_vectors(&g, &refs, 2, &ma, &mb2);
        let (plan1, plan2) = (
            KernelPlan::scalar(&g, &ma, &mb1, 2),
            KernelPlan::scalar(&g, &ma, &mb2, 2),
        );
        let unlimited = Budget::unlimited();
        for threads in [1, 3] {
            let c1 = density_vectors_cached_plan(
                &plan1, &pool, &refs, &ka, &kb1, threads, &cache, &unlimited,
            );
            let c2 = density_vectors_cached_plan(
                &plan2, &pool, &refs, &ka, &kb2, threads, &cache, &unlimited,
            );
            assert_eq!(Ok(serial1.clone()), c1, "threads = {threads}");
            assert_eq!(Ok(serial2.clone()), c2, "threads = {threads}");
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
        let (ma, mb) = masks(140, &[0, 64, 129, 139], &[2, 65, 70]);
        let mut s = BfsScratch::new(140);
        for r in [0u32, 3, 65, 100, 139] {
            for h in 0..5 {
                let scalar = counts(&g, &mut s, r, h, &ma, &mb);
                let bitset = KernelPlan {
                    use_bitset: true,
                    ..KernelPlan::scalar(&g, &ma, &mb, h)
                };
                let got = bitset.counts(&mut s, r, &Budget::unlimited());
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
        let (ma, mb) = masks(12, &[0, 4, 8], &[2, 9]);
        let refs: Vec<NodeId> = (0..12).collect();
        let pool = ScratchPool::for_graph(&g);
        let unlimited = Budget::unlimited();
        let scalar_plan = KernelPlan::scalar(&g, &ma, &mb, 2);
        let reference = density_vectors_plan(&scalar_plan, &pool, &refs, 1, &unlimited);
        let bitset_plan = KernelPlan {
            use_bitset: true,
            ..scalar_plan
        };
        for threads in [1usize, 3] {
            let got = density_vectors_plan(&bitset_plan, &pool, &refs, threads, &unlimited);
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
        let (ka, kb) = (EventKey::new(&a), EventKey::new(&b));
        let refs: Vec<NodeId> = (0..10).collect();
        let pool = ScratchPool::for_graph(&g);
        let cache = DensityCache::for_graph(&g);
        let bitset_plan = KernelPlan {
            use_bitset: true,
            ..KernelPlan::scalar(&g, &ma, &mb, 2)
        };
        let serial = Ok(serial_vectors(&g, &refs, 2, &ma, &mb));
        let unlimited = Budget::unlimited();
        // Cold pass through the bitset plan fills the cache…
        let cold = density_vectors_cached_plan(
            &bitset_plan,
            &pool,
            &refs,
            &ka,
            &kb,
            1,
            &cache,
            &unlimited,
        );
        assert_eq!(serial, cold);
        assert_eq!(cache.bfs_invocations(), 10);
        // …and a scalar-plan pass over the same cache is pure hits:
        // entries are kernel-independent integers.
        let scalar_plan = KernelPlan::scalar(&g, &ma, &mb, 2);
        let warm = density_vectors_cached_plan(
            &scalar_plan,
            &pool,
            &refs,
            &ka,
            &kb,
            1,
            &cache,
            &unlimited,
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
        let mut got = Vec::new();
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
                    let size = plan
                        .counts_for(&mut s, r, slots, &mut got, &Budget::unlimited())
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
        let pool = ScratchPool::for_graph(&g);
        let reference = Ok(serial_vectors(&g, &refs, 2, &ma, &mb));
        let slot_nodes = vec![a.clone(), b.clone()];
        let plan = GroupKernelPlan {
            graph: &g,
            slot_nodes: &slot_nodes,
            h: 2,
            event_side: None,
        };
        for group_size in [1usize, 7, 63, 64, 200] {
            for threads in [1usize, 3] {
                let got = density_vectors_group_plan(
                    &plan,
                    &pool,
                    &refs,
                    threads,
                    group_size,
                    &Budget::unlimited(),
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
        let pool = ScratchPool::for_graph(&g);
        let mut s = BfsScratch::new(10);
        let slot_nodes = vec![a, b, union];
        let plan = GroupKernelPlan {
            graph: &g,
            slot_nodes: &slot_nodes,
            h: 2,
            event_side: None,
        };
        let grouped =
            density_counts_group_plan(&plan, &pool, &refs, 1, 4, &Budget::unlimited()).unwrap();
        for (&r, got) in refs.iter().zip(&grouped) {
            let want = counts(&g, &mut s, r, 2, &ma, &mb);
            assert_eq!(&want, got, "r = {r}");
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
        let (ka, kb) = (EventKey::new(&a), EventKey::new(&b));
        let refs: Vec<NodeId> = (0..10).collect();
        let pool = ScratchPool::for_graph(&g);
        let cache = DensityCache::for_graph(&g);
        let serial = Ok(serial_vectors(&g, &refs, 2, &ma, &mb));
        let unlimited = Budget::unlimited();
        let slot_nodes = vec![a.clone(), b.clone()];
        let plan = GroupKernelPlan {
            graph: &g,
            slot_nodes: &slot_nodes,
            h: 2,
            event_side: None,
        };
        // Pre-memoize event a at a few nodes (partially-memoized
        // group: some lanes hit one slot, none hit both).
        let kplan = KernelPlan::scalar(&g, &ma, &mb, 2);
        let mut scratch = pool.acquire();
        for &r in &refs[0..4] {
            let c = kplan.counts(&mut scratch, r, &unlimited).unwrap();
            cache.insert(
                &ka,
                r,
                2,
                CachedCount {
                    vicinity_size: c.vicinity_size as u32,
                    count: c.count_a as u32,
                },
            );
        }
        drop(scratch);
        let cold = density_vectors_cached_group_plan(
            &plan, &pool, &refs, &ka, &kb, 1, 4, &cache, &unlimited,
        );
        assert_eq!(serial, cold, "partially-memoized grouped pass");
        assert_eq!(cache.bfs_invocations(), 10, "every node still BFSed once");
        // Warm pass: every slot memoized, zero BFS, identical bits.
        let warm = density_vectors_cached_group_plan(
            &plan, &pool, &refs, &ka, &kb, 2, 4, &cache, &unlimited,
        );
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
                // Raw occurrence lists repeat nodes; the plan's lists
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
        let slot_refs: Vec<&[u32]> = slot_lists.iter().map(Vec::as_slice).collect();

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

        let pool = ScratchPool::for_graph(&g);
        let plain = GroupKernelPlan {
            graph: &g,
            slot_nodes: &events,
            h,
            event_side: Some(&index),
        };
        let chunks = |wanted: &[u32]| -> u64 {
            wanted
                .iter()
                .map(|&s| events[s as usize].len().div_ceil(MAX_GROUP_SOURCES) as u64)
                .sum()
        };
        for threads in [1usize, 3] {
            let got = run_grouped(
                &plain,
                &pool,
                &nodes,
                &GroupSlots::PerNode(&slot_refs),
                threads,
                MAX_GROUP_SOURCES,
                &Budget::unlimited(),
            )
            .expect("unlimited budget");
            let ctx = format!("seed {seed} h={h} threads={threads}");
            assert_eq!(got.sizes, want_sizes, "{ctx}: sizes");
            assert_eq!(got.counts, want_counts, "{ctx}: counts");
            assert_eq!(got.traversals, chunks(&[0, 1, 2, 3, 4, 5]), "{ctx}");
        }
        // Same slots for every node (the one-pair shape): only the
        // wanted slots traverse.
        let got = run_grouped(
            &plain,
            &pool,
            &nodes,
            &GroupSlots::Same(&[1, 4]),
            1,
            MAX_GROUP_SOURCES,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        assert_eq!(got.traversals, chunks(&[1, 4]), "seed {seed}: pair chunks");
        for (i, &r) in nodes.iter().enumerate() {
            let c = counts(&g, &mut scratch, r, h, &masks[1], &masks[4]);
            let cell = &got.counts[2 * i..2 * i + 2];
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
        let events = vec![(0..70).collect::<Vec<NodeId>>(), vec![100, 101]];
        let plan = GroupKernelPlan {
            graph: &g,
            slot_nodes: &events,
            h: 2,
            event_side: Some(&index),
        };
        let pool = ScratchPool::for_graph(&g);
        let nodes: Vec<NodeId> = (0..144).collect();
        let run = |budget: &Budget| {
            run_grouped(
                &plan,
                &pool,
                &nodes,
                &GroupSlots::Same(&[0, 1]),
                2,
                MAX_GROUP_SOURCES,
                budget,
            )
        };
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        assert!(run(&cancelled).is_err(), "cancelled pass publishes nothing");
        let done = run(&Budget::unlimited()).expect("unlimited budget");
        assert_eq!(done.traversals, 3, "⌈70/64⌉ + ⌈2/64⌉ chunks");
        assert_eq!(
            done.counts,
            run(&Budget::unlimited()).expect("rerun").counts,
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
