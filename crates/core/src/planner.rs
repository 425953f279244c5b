//! The pair-set query planner — staged execution for many TESC tests
//! over one graph, with a **fused multi-event density pass**.
//!
//! [`crate::batch`] made many tests *parallel*; this module makes them
//! *shared*. A realistic request ("rank every keyword pair of this
//! scenario") names far fewer distinct events than pairs, and the
//! per-pair engine path re-walks the same reference vicinities once
//! per pair — the cross-pair [`DensityCache`](crate::cache::DensityCache) recovers some of that
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
//!   event)` count of the set, resolved once by the one density
//!   executor ([`crate::density::run_density`], the same one a single
//!   [`TescEngine::test`] runs) on the route the engine's one route
//!   decision picks ([`crate::density::choose_route`], a pure function
//!   of the workset and the vicinity index): *per-node*, ONE `h`-hop
//!   BFS per distinct reference node scored against *all* its events
//!   in a single sweep; *reference lanes*, those nodes batched 64 to a
//!   multi-source traversal; or *event lanes*, the same multi-source
//!   kernel driven from the smaller side of the join — each event's
//!   occurrence nodes traverse as lanes, `⌈|V_e|/64⌉` traversals per
//!   event however many nodes ask, with `|V^h_r|` read from the index.
//!   Traversals run with the engine's kernel, and an attached
//!   cache is consulted first via its multi-event probe
//!   ([`DensityCache::lookup_many`](crate::cache::DensityCache::lookup_many)) — a node whose every slot is
//!   memoized is not traversed for, on any route, and completed passes
//!   insert what they measured (so a warm repeat is probes only).
//!   [`FusedDensities::bfs_run`] counts nodes resolved by traversal;
//!   [`FusedDensities::traversals`] counts what physically ran (nodes,
//!   source groups or event chunks).
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
use crate::cache::EventKey;
pub use crate::density::FusedDensities;
use crate::density::{map_indexed, run_density, Workset};
use crate::engine::{normalize, Statistic, TescConfig, TescEngine, TescError, TescResult};
use crate::sampler::{ReachMemo, SamplerKind, UniformSample, WeightedSample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use tesc_events::store::merge_union;
use tesc_graph::{Adjacency, CsrGraph, NodeId, SOURCE_GROUP_SIZE};

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

impl PlannedState {
    /// The pair's reference sample and the first `k` of the returned
    /// registry slots: `a`, `b` and, for importance pairs, the union.
    fn cells(&self) -> (&[NodeId], [u32; 3], usize) {
        match *self {
            PlannedState::Uniform {
                ref sample,
                slot_a,
                slot_b,
            } => (&sample.nodes, [slot_a, slot_b, 0], 2),
            PlannedState::Weighted {
                ref sample,
                slot_a,
                slot_b,
                slot_union,
            } => (&sample.nodes, [slot_a, slot_b, slot_union], 3),
        }
    }
}

#[derive(Debug, Clone)]
struct PlannedPair {
    label: String,
    state: Result<PlannedState, TescError>,
}

/// A planned pair set: stage (a) complete, ready for the fused density
/// pass and per-pair finish. See the module docs for the stage
/// diagram and the bit-identity contract.
pub struct PairSetPlan<'e, 'g, G = CsrGraph> {
    engine: &'e TescEngine<'g, G>,
    cfg: TescConfig,
    pairs: Vec<PlannedPair>,
    /// The deduplicated reference workset over the content-addressed
    /// registry of distinct events (+ importance unions).
    work: Workset,
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
        let mut keys: Vec<EventKey> = Vec::new();
        let mut slot_of: HashMap<EventKey, u32> = HashMap::new();
        let mut register = |key: &EventKey| -> u32 {
            *slot_of.entry(key.clone()).or_insert_with(|| {
                keys.push(key.clone());
                keys.len() as u32 - 1
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
        // of every planned pair, streamed into the workset's packing.
        let sampled_refs = planned
            .iter()
            .filter_map(|p| p.state.as_ref().ok())
            .map(|state| state.cells().0.len())
            .sum();
        let incidences = planned
            .iter()
            .filter_map(|p| p.state.as_ref().ok())
            .flat_map(|state| {
                let (nodes, slots, k) = state.cells();
                nodes
                    .iter()
                    .flat_map(move |&r| (0..k).map(move |j| (r, slots[j])))
            });

        let work = Workset::new(cfg.h, keys, incidences);
        PairSetPlan {
            engine,
            cfg: *cfg,
            pairs: planned,
            work,
            sampled_refs,
        }
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
        self.work.keys().len()
    }

    /// Size of the deduplicated reference workset — the number of
    /// density BFS searches stage (b) runs at most (an attached cache
    /// can skip some).
    #[inline]
    pub fn distinct_refs(&self) -> usize {
        self.work.nodes().len()
    }

    /// Total sampled reference nodes across all pairs (`Σ_i n_i`) —
    /// what the per-pair path would BFS. `sampled_refs() /
    /// distinct_refs()` is the fused pass's work-sharing factor.
    #[inline]
    pub fn sampled_refs(&self) -> usize {
        self.sampled_refs
    }

    /// Stage (b): the fused density pass — the density executor
    /// ([`crate::density::run_density`]) over the plan's workset, on the
    /// engine's route, with the engine's cache (if any) on every route:
    /// probe first, traverse only for the pending nodes, insert only
    /// after the pass completed — so a warm repeat runs zero
    /// traversals. Output is positionally deterministic at any thread
    /// count and bit-identical on every route.
    ///
    /// The pass runs under the engine's [`tesc_graph::Budget`],
    /// checked per BFS frontier level and per source group. An
    /// interrupted pass publishes nothing, leaves any attached cache
    /// holding only counts from completed traversals, and records the
    /// interruption in [`FusedDensities::interrupted`].
    pub fn run_density(&self, threads: usize) -> FusedDensities {
        let (engine, work) = (self.engine, &self.work);
        let cache = engine.density_cache().map(|c| c.as_ref());
        let route = engine.route(work);
        run_density(engine, work, route, cache, threads, SOURCE_GROUP_SIZE)
            .unwrap_or_else(FusedDensities::interrupted_by)
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
        if let Some(i) = fused.interrupted() {
            return Err(TescError::Interrupted(i));
        }
        let work = &self.work;
        match &self.pairs[index].state {
            Err(e) => Err(e.clone()),
            Ok(PlannedState::Uniform {
                sample,
                slot_a,
                slot_b,
            }) => Ok(PairVectors::Uniform {
                sa: fused.densities(work, &sample.nodes, *slot_a),
                sb: fused.densities(work, &sample.nodes, *slot_b),
            }),
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
                    let (size, ca) = fused.count(work, r, *slot_a);
                    let (_, cb) = fused.count(work, r, *slot_b);
                    let (_, cu) = fused.count(work, r, *slot_union);
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
        let cache = std::sync::Arc::new(crate::cache::DensityCache::for_graph(&g));
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
