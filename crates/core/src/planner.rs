//! The pair-set query planner — staged execution for many TESC tests
//! over one graph, with a **fused multi-event density pass**.
//!
//! [`crate::batch`] made many tests *parallel*; this module makes them
//! *shared*. A realistic request ("rank every keyword pair of this
//! scenario") names far fewer distinct events than pairs, and the
//! per-pair engine path re-walks the same reference vicinities once
//! per pair — the cross-pair [`DensityCache`] recovers some of that
//! after the fact, but a cache can only skip a BFS when *every* slot
//! of a pair already hit. A planner can do better by looking at the
//! whole pair set before executing anything, the way a database
//! planner shares scans across queries:
//!
//! ```text
//!  pairs ──► plan ──► sample ──► fused density ──► scatter ──► correlate
//!            (a)        (a)          (b)             (c)          (c)
//! ```
//!
//! * **plan + sample (stage a).** In this order: normalize every
//!   pair's occurrence sets; deduplicate the distinct events into a
//!   content-addressed registry ([`EventKey`]-keyed, so two pairs
//!   naming the same node set share one slot); resolve one **reach
//!   set** `V^h_e` per registered event (one budgeted bitset BFS each,
//!   parallel over slots, held as bitmaps in the request's reach memo —
//!   see [`crate::sampler`]); draw each pair's reference sample with
//!   its own seeded RNG stream from `V^h_a ∪ V^h_b` (bit-identical to
//!   [`TescEngine::test`] — the planner calls the *same* two functions
//!   with the *same* stream); and derive the deduplicated
//!   reference-node **workset**: each distinct node, tagged with the
//!   event slots that touch it. A pair's population is never
//!   enumerated: 276 pairs over 24 events cost 24 traversals and 276
//!   draws.
//! * **fused density (stage b).** Every `(distinct reference node,
//!   event)` count of the set, resolved once by one of three
//!   **routes** — chosen once per pass by the engine's one route
//!   decision ([`crate::density::choose_route`], a pure function of
//!   the plan and the vicinity index):
//!   *per-node*, ONE `h`-hop BFS per distinct reference node scored
//!   against *all* its events in a single word sweep over the visited
//!   bitmap ([`crate::density::MultiKernelPlan`], the M-event
//!   generalization of `KernelPlan::counts`); *reference lanes*,
//!   those nodes batched 64 to a multi-source traversal; or *event
//!   lanes*, the same multi-source kernel driven from the smaller side
//!   of the join — each event's occurrence nodes traverse as lanes,
//!   `⌈|V_e|/64⌉` traversals per event however many nodes ask, with
//!   `|V^h_r|` read from the index
//!   ([`crate::density::GroupKernelPlan`]). Kernel × cache compose
//!   exactly as in the per-pair path: traversals run with the engine's
//!   kernel, and an attached [`DensityCache`] is consulted first via
//!   its multi-event probe ([`DensityCache::lookup_many`]) — a node
//!   whose every slot is memoized is not traversed for, on any route,
//!   and completed passes insert what they measured (so a warm repeat
//!   is probes only). [`FusedDensities::bfs_run`] counts nodes resolved by
//!   traversal; [`FusedDensities::traversals`] counts what physically
//!   ran (nodes, source groups or event chunks).
//! * **scatter + correlate (stage c).** The per-(event, node) counts
//!   are scattered back into each pair's density vectors (in that
//!   pair's own sample order) and the existing correlate/significance
//!   stages run unchanged ([`TescEngine`]'s `finish_uniform` /
//!   `finish_weighted` — literally the same functions).
//!
//! **Bit-identity.** Every number the planner produces is bit-identical
//! to independent [`TescEngine::test`] calls with the same per-pair
//! seeds: sampling shares the engine's code and RNG streams, fused
//! counts are the same integers a per-pair BFS measures (set
//! cardinalities are kernel-independent), and
//! densities/statistics are derived with the identical arithmetic.
//! Asserted in `tests/ranking.rs` for all five samplers, at 1 and 4
//! threads, across kernel/cache configurations.
//!
//! **Why it is faster.** With `P` pairs sharing events, the per-pair
//! path (even fully cached) runs one BFS per *(pair, reference node)*
//! whose slots are not both memoized; the planner runs at most one BFS
//! per *distinct* reference node of the whole set — and `⌈|V_e|/64⌉`
//! traversals per distinct *event* where that is the smaller side. The
//! `fused/allpairs` rows of the `rank_events` bench measure the ratio
//! (`Σ_i n_i` sampled vs [`PairSetPlan::distinct_refs`] distinct).
//!
//! The planner backs [`crate::batch::run_batch`]'s parallel path and
//! the [`crate::rank`] top-K subsystem.

use crate::batch::{EventPair, PairOutcome};
use crate::cache::{CachedCount, DensityCache, EventKey, ProbeGovernor};
use crate::density::{
    map_indexed, map_refs_pooled, run_grouped, GroupSlots, MultiKernelPlan, Route,
};
use crate::engine::{normalize, Statistic, TescConfig, TescEngine, TescError, TescResult};
use crate::sampler::{ReachMemo, SamplerKind, UniformSample, WeightedSample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use tesc_events::{store::merge_union, NodeMask};
use tesc_graph::{Adjacency, CsrGraph, Interrupted, NodeId, SOURCE_GROUP_SIZE};

/// One pair normalized and validated, before any sampling: the
/// content keys of its two events and their merged occurrence set.
#[derive(Clone)]
struct Prepared {
    a: EventKey,
    b: EventKey,
    union: Vec<NodeId>,
}

#[derive(Clone)]
enum SampledKind {
    Uniform(UniformSample),
    Weighted(WeightedSample),
}

/// One pair after the plan/sample stages: its reference sample plus
/// the registry slots of the events its densities need.
#[derive(Debug, Clone)]
enum PlannedState {
    /// Uniform-sampler pair: densities of `a` and `b` only.
    Uniform {
        sample: UniformSample,
        slot_a: u32,
        slot_b: u32,
    },
    /// Importance-sampler pair: additionally needs
    /// `|V_{a∪b} ∩ V^h_r|` for the ω weights, carried as a third
    /// content-addressed "event" (the union set) so it fuses like any
    /// other slot.
    Weighted {
        sample: WeightedSample,
        slot_a: u32,
        slot_b: u32,
        slot_union: u32,
    },
}

#[derive(Debug, Clone)]
struct PlannedPair {
    label: String,
    state: Result<PlannedState, TescError>,
}

/// Per-distinct-node result of the fused density pass.
#[derive(Debug, Clone, Default)]
struct NodeDensity {
    size: u32,
    counts: Vec<u32>,
    did_bfs: bool,
}

/// The materialized output of [`PairSetPlan::run_density`]: per
/// distinct reference node, `|V^h_r|` and one intersection count per
/// event slot touching that node (flat, aligned with the plan's slot
/// lists).
#[derive(Debug, Clone, Default)]
pub struct FusedDensities {
    sizes: Vec<u32>,
    counts: Vec<u32>,
    bfs_run: u64,
    traversals: u64,
    interrupted: Option<Interrupted>,
}

impl FusedDensities {
    /// How many reference nodes the fused pass resolved by traversal
    /// (nodes whose every slot hit an attached cache are skipped).
    /// Counted per **node**, not per traversal, so cache accounting is
    /// identical whether those nodes ran one single-source search
    /// each, were batched 64 to a multi-source traversal, or were
    /// reached by event lanes — see [`FusedDensities::traversals`] for
    /// the physical count.
    #[inline]
    pub fn bfs_run(&self) -> u64 {
        self.bfs_run
    }

    /// How many graph traversals the fused pass physically executed:
    /// equals [`FusedDensities::bfs_run`] on the per-node route, the
    /// number of source groups (`⌈bfs_run / 64⌉`) on the
    /// reference-lane route, and the number of event chunks
    /// (`Σ ⌈|V_e|/64⌉` over the events with an unresolved count) on the
    /// event-lane route.
    #[inline]
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// `Some` when the engine's [`tesc_graph::Budget`] ran out during
    /// the pass. The pass then published nothing — no counts, no cache
    /// entries — and [`PairSetPlan::finish`] reports every pair as
    /// `Err(Interrupted)`.
    #[inline]
    pub fn interrupted(&self) -> Option<Interrupted> {
        self.interrupted
    }
}

/// A planned pair set: stage (a) complete, ready for the fused density
/// pass and per-pair finish. See the module docs for the stage
/// diagram and the bit-identity contract.
pub struct PairSetPlan<'e, 'g, G = CsrGraph> {
    engine: &'e TescEngine<'g, G>,
    cfg: TescConfig,
    pairs: Vec<PlannedPair>,
    /// Content-addressed registry of distinct events (+ importance
    /// unions); `keys[s]` and `masks[s]` describe slot `s`.
    keys: Vec<EventKey>,
    masks: Vec<NodeMask>,
    /// Distinct reference-node workset, ascending.
    nodes: Vec<NodeId>,
    /// The sorted distinct event slots node `nodes[i]` must be scored
    /// against are `slot_flat[slot_starts[i]..slot_starts[i + 1]]`
    /// (see [`PairSetPlan::slots_of`]); fused counts share the layout.
    slot_starts: Vec<u32>,
    slot_flat: Vec<u32>,
    sampled_refs: usize,
}

impl<'e, 'g, G: Adjacency> PairSetPlan<'e, 'g, G> {
    /// Stage (a): normalize every pair, register the distinct events,
    /// resolve each registered event's reach set `V^h_e` once, then
    /// sample every pair (pair `i` draws from
    /// `StdRng::seed_from_u64(seeds[i])`, exactly like
    /// [`TescEngine::test`] would with that RNG) and derive the
    /// deduplicated reference workset. Every step fans out over
    /// `threads` scoped workers with indexed output slots, so the plan
    /// is independent of thread count and schedule. The reach memo is
    /// dropped when this returns.
    ///
    /// # Panics
    ///
    /// Panics unless `seeds.len() == pairs.len()`.
    pub fn build(
        engine: &'e TescEngine<'g, G>,
        pairs: &[EventPair],
        cfg: &TescConfig,
        seeds: &[u64],
        threads: usize,
    ) -> Self {
        Self::build_with_memo(
            engine,
            pairs,
            cfg,
            seeds,
            threads,
            &mut ReachMemo::new(cfg.h),
        )
    }

    /// [`PairSetPlan::build`] borrowing the request's reach memo, so a
    /// request that plans more than once (the anytime tiers) traverses
    /// each distinct event once in total.
    pub(crate) fn build_with_memo(
        engine: &'e TescEngine<'g, G>,
        pairs: &[EventPair],
        cfg: &TescConfig,
        seeds: &[u64],
        threads: usize,
        memo: &mut ReachMemo,
    ) -> Self {
        assert_eq!(pairs.len(), seeds.len(), "one seed per pair");
        assert_eq!(memo.h(), cfg.h, "reach memo traversed to another level");
        let prepared = map_indexed(pairs.len(), threads, Err(TescError::NoEventNodes), |i| {
            prepare(engine, cfg, &pairs[i])
        });

        // Content-addressed event registration (serial: deterministic
        // slot numbering in first-appearance order).
        let num_nodes = engine.graph().num_nodes();
        let mut keys: Vec<EventKey> = Vec::new();
        let mut masks: Vec<NodeMask> = Vec::new();
        let mut slot_of: HashMap<EventKey, u32> = HashMap::new();
        let mut register = |key: &EventKey| -> u32 {
            *slot_of.entry(key.clone()).or_insert_with(|| {
                let slot = keys.len() as u32;
                masks.push(NodeMask::from_nodes(num_nodes, key.nodes()));
                keys.push(key.clone());
                slot
            })
        };
        let weighted = matches!(cfg.sampler, SamplerKind::Importance { .. });
        let slots: Vec<[u32; 3]> = prepared
            .iter()
            .map(|p| match p {
                Err(_) => [0; 3],
                Ok(p) => {
                    let (slot_a, slot_b) = (register(&p.a), register(&p.b));
                    // The union set fuses as a third "event" so the ω
                    // weights ride the same density pass.
                    let slot_union = if weighted {
                        register(&EventKey::from_normalized(p.union.clone()))
                    } else {
                        0
                    };
                    [slot_a, slot_b, slot_union]
                }
            })
            .collect();

        if cfg.sampler.draws_from_reach() {
            engine.fill_reach(memo, &keys, threads);
        }
        let memo = &*memo;
        let sampled = map_indexed(pairs.len(), threads, Err(TescError::NoEventNodes), |i| {
            let p = prepared[i].as_ref().map_err(Clone::clone)?;
            sample_one(engine, cfg, p, seeds[i], memo)
        });

        let planned: Vec<PlannedPair> = pairs
            .iter()
            .zip(sampled)
            .zip(slots)
            .map(|((pair, kind), [slot_a, slot_b, slot_union])| PlannedPair {
                label: pair.label.clone(),
                state: kind.map(|kind| match kind {
                    SampledKind::Uniform(sample) => PlannedState::Uniform {
                        sample,
                        slot_a,
                        slot_b,
                    },
                    SampledKind::Weighted(sample) => PlannedState::Weighted {
                        sample,
                        slot_a,
                        slot_b,
                        slot_union,
                    },
                }),
            })
            .collect();

        // Deduplicated reference workset: every (node, slot) incidence
        // packed into one word, sorted and deduplicated — distinct
        // nodes ascending, each with its sorted distinct slots, flat.
        let mut cells: Vec<u64> = Vec::new();
        let mut sampled_refs = 0usize;
        for p in &planned {
            let (sample_nodes, slots): (&[NodeId], [Option<u32>; 3]) = match &p.state {
                Err(_) => continue,
                Ok(PlannedState::Uniform {
                    sample,
                    slot_a,
                    slot_b,
                }) => (&sample.nodes, [Some(*slot_a), Some(*slot_b), None]),
                Ok(PlannedState::Weighted {
                    sample,
                    slot_a,
                    slot_b,
                    slot_union,
                }) => (
                    &sample.nodes,
                    [Some(*slot_a), Some(*slot_b), Some(*slot_union)],
                ),
            };
            sampled_refs += sample_nodes.len();
            for &r in sample_nodes {
                for slot in slots.into_iter().flatten() {
                    cells.push((r as u64) << 32 | slot as u64);
                }
            }
        }
        cells.sort_unstable();
        cells.dedup();
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut slot_starts: Vec<u32> = Vec::new();
        let mut slot_flat: Vec<u32> = Vec::with_capacity(cells.len());
        for cell in cells {
            let r = (cell >> 32) as NodeId;
            if nodes.last() != Some(&r) {
                nodes.push(r);
                slot_starts.push(slot_flat.len() as u32);
            }
            slot_flat.push(cell as u32);
        }
        slot_starts.push(slot_flat.len() as u32);

        PairSetPlan {
            engine,
            cfg: *cfg,
            pairs: planned,
            keys,
            masks,
            nodes,
            slot_starts,
            slot_flat,
            sampled_refs,
        }
    }

    /// Range of node `i`'s cells in the flat slot/count layout.
    #[inline]
    fn cells_of(&self, i: usize) -> std::ops::Range<usize> {
        self.slot_starts[i] as usize..self.slot_starts[i + 1] as usize
    }

    /// The sorted distinct event slots workset node `i` is scored
    /// against.
    #[inline]
    fn slots_of(&self, i: usize) -> &[u32] {
        &self.slot_flat[self.cells_of(i)]
    }

    /// Number of pairs in the plan (request order is preserved
    /// throughout).
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of distinct events (+ importance union sets) registered
    /// across the pair set.
    #[inline]
    pub fn num_events(&self) -> usize {
        self.keys.len()
    }

    /// Size of the deduplicated reference workset — the number of
    /// density BFS searches stage (b) runs at most (an attached cache
    /// can skip some).
    #[inline]
    pub fn distinct_refs(&self) -> usize {
        self.nodes.len()
    }

    /// Total sampled reference nodes across all pairs (`Σ_i n_i`) —
    /// what the per-pair path would BFS. `sampled_refs() /
    /// distinct_refs()` is the fused pass's work-sharing factor.
    #[inline]
    pub fn sampled_refs(&self) -> usize {
        self.sampled_refs
    }

    /// Resolve the fused density execution plan with the engine's
    /// kernel, mirroring the per-pair `density_plan`.
    fn multi_plan(&self) -> MultiKernelPlan<'_, G> {
        let (graph, h) = (self.engine.graph(), self.cfg.h);
        MultiKernelPlan {
            graph,
            masks: &self.masks,
            use_bitset: self.engine.density_kernel().use_bitset(graph, h),
            h,
        }
    }

    /// Stage (b): the fused density pass, scored against all of each
    /// node's event slots. With an attached [`DensityCache`], every
    /// slot is probed first ([`DensityCache::lookup_many`] — all slots
    /// of one node under one shard lock) and cache-pending nodes only
    /// proceed to BFS; fresh counts fill the missing slots per lane.
    /// Output is positionally deterministic at any thread count.
    ///
    /// Three routes, chosen once per pass by the engine's one route
    /// decision ([`crate::density::choose_route`], a pure function of
    /// the plan and the engine's vicinity index), all bit-identical:
    ///
    /// * **per-node** — one `h`-hop BFS per pending node
    ///   ([`MultiKernelPlan`], a single visited-bitmap word sweep per
    ///   node);
    /// * **reference lanes** — pending nodes batched up to 64 per
    ///   multi-source traversal ([`crate::density::GroupKernelPlan`]),
    ///   one bit-lane each, so adjacent workset nodes stop re-streaming
    ///   the same edge lists (the `fused` rows of the `rank_events`
    ///   bench measure the effect);
    /// * **event lanes** — the same kernel driven from the smaller side
    ///   of the join: each event's occurrence nodes traverse as lanes,
    ///   `⌈|V_e|/64⌉` traversals per event however many reference nodes
    ///   ask, and `|V^h_r|` is read from the vicinity index
    ///   (`Auto` only, when the index covers `h` and the cost estimate
    ///   says so with margin — `docs/PERFORMANCE.md` §9).
    ///
    /// The cache rule is the same on both grouped routes: probe first,
    /// traverse only for the pending nodes, insert only after the pass
    /// completed — so a warm repeat runs zero traversals.
    ///
    /// The pass runs under the engine's [`tesc_graph::Budget`],
    /// checked per BFS frontier level and per source group. An
    /// interrupted pass publishes nothing, leaves any attached cache
    /// holding only counts from completed traversals, and records the
    /// interruption in [`FusedDensities::interrupted`].
    pub fn run_density(&self, threads: usize) -> FusedDensities {
        let key_sets: Vec<&[NodeId]> = self.keys.iter().map(|k| k.nodes()).collect();
        let fused = match self.engine.route(self.cfg.h, &self.nodes, &key_sets) {
            Route::PerNode => self.run_density_per_node(threads),
            route => self.run_density_grouped(threads, route, &key_sets),
        };
        fused.unwrap_or_else(|i| FusedDensities {
            interrupted: Some(i),
            ..FusedDensities::default()
        })
    }

    /// Stage (b), grouped executor: cache probe per node, then the
    /// pending workset resolved by multi-source traversals in the
    /// route's direction.
    fn run_density_grouped(
        &self,
        threads: usize,
        route: Route,
        key_sets: &[&[NodeId]],
    ) -> Result<FusedDensities, Interrupted> {
        let h = self.cfg.h;
        let slot_nodes: Vec<Vec<NodeId>> = key_sets.iter().map(|s| s.to_vec()).collect();
        let gplan = self.engine.group_plan(&slot_nodes, h, route);
        // `run_grouped` re-checks the budget after the traversals, so
        // its `Ok` means every count is from a completed search — safe
        // to publish and to memoize.
        let run = |nodes: &[NodeId], slot_refs: &[&[u32]]| {
            run_grouped(
                &gplan,
                self.engine.pool(),
                nodes,
                &GroupSlots::PerNode(slot_refs),
                threads,
                SOURCE_GROUP_SIZE,
                self.engine.budget(),
            )
        };
        let n = self.nodes.len();
        let Some(cache) = self.engine.density_cache() else {
            // No cache: the whole workset is pending, in workset order,
            // so the grouped result *is* the fused result.
            let slot_refs: Vec<&[u32]> = (0..n).map(|i| self.slots_of(i)).collect();
            let fresh = run(&self.nodes, &slot_refs)?;
            return Ok(FusedDensities {
                sizes: fresh.sizes,
                counts: fresh.counts,
                bfs_run: n as u64,
                traversals: fresh.traversals,
                interrupted: None,
            });
        };

        // Cache-probe stage: fully-memoized nodes resolve without a
        // traversal; the rest stay pending with their hit vectors kept
        // for the per-cell fill (empty when every slot missed or the
        // pass's governor dropped the probe — the node is treated as a
        // full miss and its fresh counts still warm the cache). Probes
        // run in parallel (crate::density::map_indexed): on a warm
        // cache the whole pass is nothing but probes, so they fan out
        // like the BFS stage does.
        let governor = ProbeGovernor::new();
        let probes = map_indexed(n, threads, Vec::new(), |i| {
            let mut hits: Vec<Option<CachedCount>> = Vec::new();
            if governor.engaged() {
                let all = cache.lookup_many(
                    self.slots_of(i).iter().map(|&s| &self.keys[s as usize]),
                    self.nodes[i],
                    h,
                    &mut hits,
                );
                governor.record(all);
                if hits.iter().all(Option::is_none) {
                    hits = Vec::new();
                }
            }
            hits
        });
        let mut sizes = vec![0u32; n];
        let mut counts = vec![0u32; self.slot_flat.len()];
        let mut pending: Vec<usize> = Vec::new();
        let mut pending_hits: Vec<Vec<Option<CachedCount>>> = Vec::new();
        for (i, hits) in probes.into_iter().enumerate() {
            if !hits.is_empty() && hits.iter().all(Option::is_some) {
                let size = hits[0].expect("all slots hit").vicinity_size;
                debug_assert!(
                    hits.iter().all(|c| c.expect("hit").vicinity_size == size),
                    "inconsistent cache"
                );
                sizes[i] = size;
                for (cell, hit) in counts[self.cells_of(i)].iter_mut().zip(&hits) {
                    *cell = hit.expect("hit").count;
                }
            } else {
                pending.push(i);
                pending_hits.push(hits);
            }
        }

        let nodes: Vec<NodeId> = pending.iter().map(|&i| self.nodes[i]).collect();
        let slot_refs: Vec<&[u32]> = pending.iter().map(|&i| self.slots_of(i)).collect();
        let fresh = run(&nodes, &slot_refs)?;

        // Scatter + cache fill, per cell: prefer the memoized integer
        // where a slot hit (same value, same policy as the per-node
        // path); the fresh ones go to the cache in bounded batches —
        // one lock per shard per batch, not one per node, and never a
        // pass-wide staging vector.
        const FILL_BATCH: usize = 4096;
        let mut batch: Vec<(NodeId, &EventKey, CachedCount)> = Vec::new();
        let mut fresh_counts = fresh.counts.iter();
        for ((&i, hits), &size) in pending.iter().zip(&pending_hits).zip(&fresh.sizes) {
            sizes[i] = size;
            let cells = self.cells_of(i);
            for (j, cell) in counts[cells.clone()].iter_mut().enumerate() {
                let count = *fresh_counts.next().expect("one fresh count per cell");
                *cell = match hits.get(j).copied().flatten() {
                    Some(c) => {
                        debug_assert_eq!(c.vicinity_size, size, "inconsistent cache");
                        c.count
                    }
                    None => {
                        let slot = self.slot_flat[cells.start + j];
                        batch.push((
                            self.nodes[i],
                            &self.keys[slot as usize],
                            CachedCount {
                                vicinity_size: size,
                                count,
                            },
                        ));
                        count
                    }
                };
            }
            if batch.len() >= FILL_BATCH {
                cache.insert_bulk(h, batch.drain(..));
            }
        }
        cache.record_bfs_n(pending.len() as u64);
        cache.insert_bulk(h, batch);
        Ok(FusedDensities {
            sizes,
            counts,
            bfs_run: pending.len() as u64,
            traversals: fresh.traversals,
            interrupted: None,
        })
    }

    /// Stage (b), per-node executor: one BFS per pending reference
    /// node (fanned out over `threads` pooled workers), scored against
    /// all of that node's event slots in a single visited-bitmap
    /// sweep.
    fn run_density_per_node(&self, threads: usize) -> Result<FusedDensities, Interrupted> {
        let mplan = self.multi_plan();
        let cache: Option<&DensityCache> = self.engine.density_cache().map(|c| c.as_ref());
        let (h, budget) = (self.cfg.h, self.engine.budget());
        let governor = ProbeGovernor::new();
        let per_node = map_refs_pooled(self.engine.pool(), &self.nodes, threads, budget, {
            |scratch, r| {
                let i = self.nodes.binary_search(&r).expect("workset node");
                let slots = self.slots_of(i);
                let Some(cache) = cache else {
                    let mut counts = Vec::new();
                    let size = mplan.counts_for(scratch, r, slots, &mut counts, budget)?;
                    return Ok(NodeDensity {
                        size: size as u32,
                        counts,
                        did_bfs: true,
                    });
                };
                let mut hits: Vec<Option<CachedCount>> = Vec::with_capacity(slots.len());
                // The pass's governor drops the probe — but never the
                // insert — once measured sharing stops paying for it.
                let all = if governor.engaged() {
                    let all = cache.lookup_many(
                        slots.iter().map(|&s| &self.keys[s as usize]),
                        r,
                        h,
                        &mut hits,
                    );
                    governor.record(all);
                    all
                } else {
                    hits.clear();
                    hits.resize(slots.len(), None);
                    false
                };
                if all {
                    let size = hits[0].expect("all slots hit").vicinity_size;
                    debug_assert!(
                        hits.iter().all(|c| c.expect("hit").vicinity_size == size),
                        "inconsistent cache"
                    );
                    return Ok(NodeDensity {
                        size,
                        counts: hits.iter().map(|c| c.expect("hit").count).collect(),
                        did_bfs: false,
                    });
                }
                let mut fresh = Vec::new();
                // Only a completed BFS may warm the cache: partial
                // counts from an interrupted traversal are never
                // memoized.
                let size = mplan.counts_for(scratch, r, slots, &mut fresh, budget)? as u32;
                cache.record_bfs();
                // Prefer the memoized integer where a slot hit (same
                // value, same policy as the per-pair cached path);
                // insert the fresh ones.
                let counts: Vec<u32> = slots
                    .iter()
                    .enumerate()
                    .map(|(j, &s)| match hits[j] {
                        Some(c) => {
                            debug_assert_eq!(c.vicinity_size, size, "inconsistent cache");
                            c.count
                        }
                        None => {
                            cache.insert(
                                &self.keys[s as usize],
                                r,
                                h,
                                CachedCount {
                                    vicinity_size: size,
                                    count: fresh[j],
                                },
                            );
                            fresh[j]
                        }
                    })
                    .collect();
                Ok(NodeDensity {
                    size,
                    counts,
                    did_bfs: true,
                })
            }
        })?;
        let bfs_run = per_node.iter().filter(|d| d.did_bfs).count() as u64;
        let sizes = per_node.iter().map(|d| d.size).collect();
        let counts = per_node.into_iter().flat_map(|d| d.counts).collect();
        Ok(FusedDensities {
            sizes,
            counts,
            bfs_run,
            traversals: bfs_run,
            interrupted: None,
        })
    }

    /// Stage (c) for the whole set: scatter + correlate every pair, in
    /// request order. Per-pair failures (empty events, too few
    /// reference nodes, …) are reported in place, exactly like
    /// [`crate::batch::run_batch`].
    pub fn finish(&self, fused: &FusedDensities) -> Vec<PairOutcome> {
        (0..self.pairs.len())
            .map(|i| self.finish_pair(i, fused))
            .collect()
    }

    /// Stage (c) for one pair: scatter its density vectors out of the
    /// fused counts and run the unchanged correlate/significance
    /// stage.
    pub fn finish_pair(&self, index: usize, fused: &FusedDensities) -> PairOutcome {
        PairOutcome {
            index,
            label: self.pairs[index].label.clone(),
            result: self.pair_result(index, fused),
        }
    }

    fn pair_result(&self, index: usize, fused: &FusedDensities) -> Result<TescResult, TescError> {
        let vectors = self.vectors(index, fused)?;
        Ok(self.result_from_vectors(index, &vectors))
    }

    /// Correlate stage for one pair whose vectors were already
    /// scattered (the rank subsystem computes its significance-budget
    /// bound on the vectors first, then finishes only the survivors).
    pub(crate) fn result_from_vectors(&self, index: usize, vectors: &PairVectors) -> TescResult {
        match (vectors, &self.pairs[index].state) {
            (PairVectors::Uniform { sa, sb }, Ok(PlannedState::Uniform { sample, .. })) => {
                TescEngine::<CsrGraph>::finish_uniform(sa, sb, sample, &self.cfg)
            }
            (
                PairVectors::Weighted { sa, sb, omega },
                Ok(PlannedState::Weighted { sample, .. }),
            ) => TescEngine::<CsrGraph>::finish_weighted(sa, sb, omega, sample, &self.cfg),
            _ => unreachable!("vectors() and state agree by construction"),
        }
    }

    /// Fused count for `(slot, r)`: `(|V^h_r|, |V_slot ∩ V^h_r|)`.
    fn count_at(&self, fused: &FusedDensities, r: NodeId, slot: u32) -> (u32, u32) {
        let i = self
            .nodes
            .binary_search(&r)
            .expect("sampled node in workset");
        let j = self
            .slots_of(i)
            .binary_search(&slot)
            .expect("pair slot registered for node");
        (
            fused.sizes[i],
            fused.counts[self.slot_starts[i] as usize + j],
        )
    }

    /// Scatter one pair's density vectors (and ω weights for
    /// importance pairs) out of the fused counts, in the pair's own
    /// sample order — the input of the correlate stage and of the
    /// top-K significance-budget bound in [`crate::rank`]. An
    /// interrupted pass fails every pair with its interruption.
    pub(crate) fn vectors(
        &self,
        index: usize,
        fused: &FusedDensities,
    ) -> Result<PairVectors, TescError> {
        if let Some(i) = fused.interrupted {
            return Err(TescError::Interrupted(i));
        }
        match &self.pairs[index].state {
            Err(e) => Err(e.clone()),
            Ok(PlannedState::Uniform {
                sample,
                slot_a,
                slot_b,
            }) => {
                let n = sample.nodes.len();
                let (mut sa, mut sb) = (Vec::with_capacity(n), Vec::with_capacity(n));
                for &r in &sample.nodes {
                    let (size, ca) = self.count_at(fused, r, *slot_a);
                    let (_, cb) = self.count_at(fused, r, *slot_b);
                    sa.push(ca as f64 / size as f64);
                    sb.push(cb as f64 / size as f64);
                }
                Ok(PairVectors::Uniform { sa, sb })
            }
            Ok(PlannedState::Weighted {
                sample,
                slot_a,
                slot_b,
                slot_union,
            }) => {
                let n = sample.nodes.len();
                let (mut sa, mut sb) = (Vec::with_capacity(n), Vec::with_capacity(n));
                let mut omega = Vec::with_capacity(n);
                for (i, &r) in sample.nodes.iter().enumerate() {
                    let (size, ca) = self.count_at(fused, r, *slot_a);
                    let (_, cb) = self.count_at(fused, r, *slot_b);
                    let (_, cu) = self.count_at(fused, r, *slot_union);
                    debug_assert!(cu > 0, "sampled node must see an event");
                    sa.push(ca as f64 / size as f64);
                    sb.push(cb as f64 / size as f64);
                    omega.push(sample.multiplicities[i] as f64 / cu as f64);
                }
                Ok(PairVectors::Weighted { sa, sb, omega })
            }
        }
    }
}

/// One pair's scattered density vectors.
pub(crate) enum PairVectors {
    Uniform {
        sa: Vec<f64>,
        sb: Vec<f64>,
    },
    Weighted {
        sa: Vec<f64>,
        sb: Vec<f64>,
        omega: Vec<f64>,
    },
}

/// Normalize and validate one pair exactly like [`TescEngine::test`]
/// does, before anything is traversed or drawn.
fn prepare<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    cfg: &TescConfig,
    pair: &EventPair,
) -> Result<Prepared, TescError> {
    let a = normalize(&pair.a);
    let b = normalize(&pair.b);
    let union = merge_union(&a, &b);
    if union.is_empty() {
        return Err(TescError::NoEventNodes);
    }
    if matches!(cfg.sampler, SamplerKind::Importance { .. }) {
        if cfg.statistic != Statistic::KendallTau {
            return Err(TescError::StatisticUnsupportedBySampler);
        }
        engine.require_vicinity(cfg.h)?;
    }
    Ok(Prepared {
        a: EventKey::from_normalized(a),
        b: EventKey::from_normalized(b),
        union,
    })
}

/// Sample one prepared pair, replicating [`TescEngine::test`]'s RNG
/// consumption exactly (same sampler code, same stream ⇒ same sample,
/// bit for bit).
fn sample_one<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    cfg: &TescConfig,
    pair: &Prepared,
    seed: u64,
    memo: &ReachMemo,
) -> Result<SampledKind, TescError> {
    // Per-pair budget check: once the engine's budget exhausts, the
    // remaining pairs sample nothing. The caller's own sticky check
    // then fails the whole request, so these per-pair sentinels never
    // surface as outcomes.
    engine.budget().check()?;
    let mut rng = StdRng::seed_from_u64(seed);
    match cfg.sampler {
        SamplerKind::Importance { batch_size } => engine
            .draw_importance_sample(&pair.union, cfg, batch_size, &mut rng)
            .map(SampledKind::Weighted),
        _ => engine
            .draw_uniform_sample(memo, &pair.a, &pair.b, &pair.union, cfg, &mut rng)
            .map(SampledKind::Uniform),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::pair_seed;
    use rand::Rng;
    use tesc_graph::bfs::BfsKernel;
    use tesc_graph::generators::{barabasi_albert, grid};
    use tesc_graph::VicinityIndex;

    fn pairs_sharing_events(num_nodes: usize, seed: u64) -> Vec<EventPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared: Vec<NodeId> = (0..40).collect();
        let mut pairs = Vec::new();
        for i in 0..5 {
            let base = rng.gen_range(0..num_nodes as NodeId - 40);
            let partner: Vec<NodeId> = (base..base + 40).collect();
            pairs.push(EventPair::new(
                format!("shared×{i}"),
                shared.clone(),
                partner,
            ));
        }
        pairs.push(EventPair::new("empty", vec![], vec![])); // fails in place
        pairs.push(EventPair::new("repeat", shared.clone(), pairs[0].b.clone()));
        pairs
    }

    fn assert_plan_matches_engine(
        engine: &TescEngine<'_>,
        reference: &TescEngine<'_>,
        pairs: &[EventPair],
        cfg: &TescConfig,
        threads: usize,
        context: &str,
    ) {
        let seeds: Vec<u64> = (0..pairs.len()).map(|i| pair_seed(99, i)).collect();
        let plan = PairSetPlan::build(engine, pairs, cfg, &seeds, threads);
        let fused = plan.run_density(threads);
        let outcomes = plan.finish(&fused);
        assert_eq!(outcomes.len(), pairs.len());
        for (i, pair) in pairs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seeds[i]);
            let direct = reference.test(&pair.a, &pair.b, cfg, &mut rng);
            assert_eq!(outcomes[i].result, direct, "{context}: pair {i}");
            if let (Ok(a), Ok(b)) = (&outcomes[i].result, &direct) {
                assert_eq!(a.z().to_bits(), b.z().to_bits(), "{context}: pair {i} z");
            }
        }
    }

    #[test]
    fn plan_bit_identical_to_engine_for_every_sampler() {
        let g = barabasi_albert(1500, 3, &mut StdRng::seed_from_u64(1));
        let idx = VicinityIndex::build(&g, 2);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let pairs = pairs_sharing_events(1500, 2);
        for sampler in [
            SamplerKind::BatchBfs,
            SamplerKind::Rejection,
            SamplerKind::Importance { batch_size: 1 },
            SamplerKind::Importance { batch_size: 3 },
            SamplerKind::WholeGraph,
        ] {
            let cfg = TescConfig::new(2)
                .with_sample_size(120)
                .with_sampler(sampler);
            for threads in [1usize, 4] {
                assert_plan_matches_engine(
                    &engine,
                    &engine,
                    &pairs,
                    &cfg,
                    threads,
                    &format!("{sampler} @ {threads}t"),
                );
            }
        }
    }

    #[test]
    fn plan_composes_with_kernel_and_cache() {
        let g = barabasi_albert(1500, 3, &mut StdRng::seed_from_u64(3));
        let pairs = pairs_sharing_events(1500, 4);
        let cfg = TescConfig::new(2).with_sample_size(120);
        let reference = TescEngine::new(&g);
        let cache = std::sync::Arc::new(DensityCache::for_graph(&g));
        let configured = TescEngine::new(&g)
            .with_density_kernel(BfsKernel::Bitset)
            .with_density_cache(cache.clone());
        assert_plan_matches_engine(
            &configured,
            &reference,
            &pairs,
            &cfg,
            4,
            "bitset+cache (cold)",
        );
        // Note: a *single* fused pass probes each distinct node once,
        // so a cold run has no hits — cross-pair sharing shows up as
        // fewer BFS, and hits appear on warm re-runs.
        let cold_bfs = cache.bfs_invocations();
        assert!(cold_bfs > 0);
        // Warm re-run: the whole workset is memoized, so the fused
        // pass skips every BFS.
        let seeds: Vec<u64> = (0..pairs.len()).map(|i| pair_seed(99, i)).collect();
        let plan = PairSetPlan::build(&configured, &pairs, &cfg, &seeds, 1);
        let fused = plan.run_density(1);
        assert_eq!(fused.bfs_run(), 0, "warm cache skips all fused BFS");
        assert_eq!(cache.bfs_invocations(), cold_bfs);
        assert!(cache.hits() > 0, "warm pass is answered from memory");
        assert_plan_matches_engine(&configured, &reference, &pairs, &cfg, 1, "warm cache");
    }

    #[test]
    fn fused_pass_shares_work_across_pairs() {
        // k pairs sharing an event over overlapping reference
        // populations: the fused pass runs one BFS per *distinct*
        // node; the per-pair path would run Σ n_i.
        let g = grid(30, 30);
        let pairs = pairs_sharing_events(900, 5);
        let cfg = TescConfig::new(1).with_sample_size(100_000); // exhaustive
        let engine = TescEngine::new(&g);
        let seeds: Vec<u64> = (0..pairs.len()).map(|i| pair_seed(7, i)).collect();
        let plan = PairSetPlan::build(&engine, &pairs, &cfg, &seeds, 1);
        assert!(plan.distinct_refs() < plan.sampled_refs());
        let fused = plan.run_density(1);
        assert_eq!(fused.bfs_run(), plan.distinct_refs() as u64);
        // The repeat pair registered no new event: content addressing
        // deduplicates the registry.
        assert_eq!(plan.num_events(), 6, "shared + 5 partners, repeat deduped");
        assert_eq!(plan.num_pairs(), pairs.len());
    }

    #[test]
    fn grouped_fused_pass_bit_identical_and_counts_traversals() {
        let g = barabasi_albert(1500, 3, &mut StdRng::seed_from_u64(9));
        let pairs = pairs_sharing_events(1500, 10);
        let cfg = TescConfig::new(2).with_sample_size(120);
        let seeds: Vec<u64> = (0..pairs.len()).map(|i| pair_seed(99, i)).collect();
        let per_node_engine = TescEngine::new(&g).with_density_kernel(BfsKernel::Bitset);
        let per_node_plan = PairSetPlan::build(&per_node_engine, &pairs, &cfg, &seeds, 1);
        let reference = per_node_plan.run_density(1);
        let ref_outcomes = per_node_plan.finish(&reference);
        assert_eq!(reference.bfs_run(), reference.traversals());
        let engine = TescEngine::new(&g).with_density_kernel(BfsKernel::Multi);
        let plan = PairSetPlan::build(&engine, &pairs, &cfg, &seeds, 1);
        for threads in [1usize, 4] {
            let fused = plan.run_density(threads);
            assert_eq!(fused.bfs_run(), plan.distinct_refs() as u64);
            assert_eq!(
                fused.traversals(),
                plan.distinct_refs().div_ceil(SOURCE_GROUP_SIZE) as u64,
                "one traversal per source group"
            );
            let outcomes = plan.finish(&fused);
            assert_eq!(ref_outcomes, outcomes, "{threads} threads");
        }
    }

    /// Stage (a) through the reach memo: a plan's outcomes depend on
    /// neither the worker count nor the order pairs were listed in,
    /// and equal one-pair [`TescEngine::test`] runs — including a pair
    /// with `a = b`, one whose population is too small, and an empty
    /// one.
    #[test]
    fn stage_a_independent_of_threads_and_pair_order() {
        use crate::rank::content_seed;
        // Preferential attachment plus two isolated nodes.
        let ba = barabasi_albert(1500, 3, &mut StdRng::seed_from_u64(11));
        let edges: Vec<(NodeId, NodeId)> = (0..1500)
            .flat_map(|u| ba.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|(u, v)| u < v)
            .collect();
        let g = tesc_graph::csr::from_edges(1502, &edges);
        let engine = TescEngine::new(&g);
        let mut pairs = pairs_sharing_events(1500, 12);
        let shared = pairs[0].a.clone();
        pairs.push(EventPair::new("self", shared.clone(), shared));
        pairs.push(EventPair::new("lonely", vec![1500], vec![1501]));
        let reversed: Vec<EventPair> = pairs.iter().rev().cloned().collect();
        for sampler in [SamplerKind::BatchBfs, SamplerKind::WholeGraph] {
            let cfg = TescConfig::new(2)
                .with_sample_size(120)
                .with_sampler(sampler);
            let want: HashMap<&str, Result<TescResult, TescError>> = pairs
                .iter()
                .map(|p| {
                    let mut rng = StdRng::seed_from_u64(content_seed(5, &p.a, &p.b));
                    (p.label.as_str(), engine.test(&p.a, &p.b, &cfg, &mut rng))
                })
                .collect();
            assert_eq!(
                want["lonely"],
                Err(TescError::TooFewReferenceNodes { found: 2 })
            );
            assert_eq!(want["empty"], Err(TescError::NoEventNodes));
            assert!(want["self"].is_ok());
            for (order, list) in [("listed", &pairs), ("reversed", &reversed)] {
                let seeds: Vec<u64> = list.iter().map(|p| content_seed(5, &p.a, &p.b)).collect();
                for threads in [1usize, 4] {
                    let plan = PairSetPlan::build(&engine, list, &cfg, &seeds, threads);
                    for o in plan.finish(&plan.run_density(threads)) {
                        assert_eq!(
                            o.result,
                            want[o.label.as_str()],
                            "{sampler}: {} {order} @ {threads}t",
                            o.label
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one seed per pair")]
    fn mismatched_seed_list_rejected() {
        let g = grid(4, 4);
        let engine = TescEngine::new(&g);
        let pairs = vec![EventPair::new("p", vec![0], vec![1])];
        let _ = PairSetPlan::build(&engine, &pairs, &TescConfig::new(1), &[], 1);
    }
}
