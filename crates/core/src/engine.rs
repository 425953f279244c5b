//! The end-to-end TESC significance test (Sec. 3 of the paper).
//!
//! [`TescEngine`] owns a thread-safe pool of BFS scratches for one
//! graph and runs the full pipeline: reference-node sampling → density
//! computation → Kendall τ → z-score → verdict.
//!
//! Every test method takes `&self`: the engine's only mutable state is
//! the [`ScratchPool`], so one engine can serve any number of
//! concurrent tests — that is the foundation of the parallel batch
//! engine in [`crate::batch`]. Within a single test, the
//! per-reference-node density loop can itself be fanned out over
//! worker threads via [`TescEngine::with_density_threads`]; the result
//! is bit-identical either way because density BFS consumes no
//! randomness.

use crate::cache::{DensityCache, EventKey};
use crate::density::{choose_route, run_density, Route, Workset};
use crate::sampler::{
    importance_sample, mask_sample, rejection_sample, whole_graph_sample, ReachMemo, SamplerKind,
    UniformSample, WeightedSample,
};
use rand::Rng;
use std::sync::Arc;
use tesc_events::{store::merge_union, NodeMask};
use tesc_graph::bfs::BfsKernel;
use tesc_graph::csr::CsrGraph;
use tesc_graph::Adjacency;
use tesc_graph::{Budget, Interrupted, NodeId, ScratchPool, VicinityIndex, SOURCE_GROUP_SIZE};
use tesc_stats::kendall::{
    kendall_tau, var_s_tie_corrected, weighted_tau, KendallMethod, KendallSummary,
};
use tesc_stats::rank::nontrivial_tie_group_sizes;
use tesc_stats::spearman::spearman_rho;
use tesc_stats::{SignificanceLevel, Tail, TestOutcome};

/// Which rank-correlation statistic the test aggregates concordance
/// with. The paper uses Kendall's τ and notes Spearman's ρ as the
/// alternative (Sec. 8); ρ is offered for cross-checking verdicts but
/// does not support the importance sampler (the weighted `t̃`
/// estimator of Eq. 8 is τ-specific).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Statistic {
    /// Kendall's τ (Eq. 4) with tie-corrected variance (Eq. 6).
    #[default]
    KendallTau,
    /// Spearman's ρ of the density midranks, `Var(ρ) = 1/(n−1)`.
    SpearmanRho,
}

/// Configuration of one TESC test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TescConfig {
    /// Vicinity level `h` (the paper studies `h = 1, 2, 3`).
    pub h: u32,
    /// Number of reference nodes to sample (`n`); the paper uses 900
    /// and notes `Var(t) ≤ 2(1−τ²)/n` regardless of `N`.
    pub sample_size: usize,
    /// Significance level `α` of the test.
    pub alpha: SignificanceLevel,
    /// Tail convention. The paper's evaluation uses one-tailed tests
    /// ([`Tail::Upper`] for positive, [`Tail::Lower`] for negative).
    pub tail: Tail,
    /// Reference-node sampling strategy.
    pub sampler: SamplerKind,
    /// Rank-correlation statistic.
    pub statistic: Statistic,
    /// Draw budget for rejection/importance sampling, as a multiple of
    /// `sample_size` (termination guard for tiny populations).
    pub max_draw_factor: usize,
}

impl TescConfig {
    /// Defaults from the paper: `n = 900`, `α = 0.05`, two-sided,
    /// Batch BFS sampling.
    pub fn new(h: u32) -> Self {
        TescConfig {
            h,
            sample_size: 900,
            alpha: SignificanceLevel::FIVE_PERCENT,
            tail: Tail::TwoSided,
            sampler: SamplerKind::BatchBfs,
            statistic: Statistic::KendallTau,
            max_draw_factor: 64,
        }
    }

    /// Set the reference-node sample size `n`.
    pub fn with_sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Set the significance level.
    pub fn with_alpha(mut self, alpha: SignificanceLevel) -> Self {
        self.alpha = alpha;
        self
    }

    /// Set the tail convention.
    pub fn with_tail(mut self, tail: Tail) -> Self {
        self.tail = tail;
        self
    }

    /// Set the sampling strategy.
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Set the rank-correlation statistic.
    pub fn with_statistic(mut self, statistic: Statistic) -> Self {
        self.statistic = statistic;
        self
    }
}

/// Failure modes of a TESC test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TescError {
    /// Both events have no occurrences — there are no reference nodes.
    NoEventNodes,
    /// Fewer than 3 reference nodes could be collected (Eq. 6 needs
    /// `n ≥ 3`; the paper recommends `n > 30`).
    TooFewReferenceNodes {
        /// Number of reference nodes actually collected.
        found: usize,
    },
    /// The chosen sampler needs a [`VicinityIndex`] covering level `h`,
    /// but none (or a too-shallow one) was supplied.
    MissingVicinityIndex {
        /// The level the test needed.
        needed_h: u32,
    },
    /// The importance sampler's weighted estimator (Eq. 8) is specific
    /// to Kendall's τ; it cannot be combined with Spearman's ρ.
    StatisticUnsupportedBySampler,
    /// The engine's [`Budget`] exhausted (deadline passed or the
    /// request was cancelled) before the test completed. No partial
    /// state was published — caches and snapshots are exactly as they
    /// would be had the interrupted work never started (completed BFS
    /// counts may have warmed the cache, which is semantically
    /// invisible).
    Interrupted(Interrupted),
}

impl From<Interrupted> for TescError {
    fn from(i: Interrupted) -> Self {
        TescError::Interrupted(i)
    }
}

impl std::fmt::Display for TescError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TescError::NoEventNodes => write!(f, "both events are empty; no reference nodes"),
            TescError::TooFewReferenceNodes { found } => {
                write!(f, "only {found} reference nodes available; need at least 3")
            }
            TescError::MissingVicinityIndex { needed_h } => write!(
                f,
                "sampler requires a VicinityIndex covering h = {needed_h}; \
                 construct the engine with TescEngine::with_vicinity_index"
            ),
            TescError::StatisticUnsupportedBySampler => write!(
                f,
                "importance sampling's weighted estimator is Kendall-specific; \
                 use Statistic::KendallTau or a uniform sampler"
            ),
            TescError::Interrupted(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for TescError {}

/// Result of a TESC test.
#[derive(Debug, Clone, PartialEq)]
pub struct TescResult {
    /// Statistic, z-score, p-value and verdict.
    pub outcome: TestOutcome,
    /// Number of (distinct) reference nodes the statistic used.
    pub n_refs: usize,
    /// `N = |V^h_{a∪b}|` when the sampler enumerated it (Batch BFS).
    pub population_size: Option<usize>,
    /// Candidate draws spent by the sampler (diagnostics).
    pub draws: usize,
    /// The full Kendall summary for uniform samplers (`None` for
    /// importance sampling, whose statistic is the weighted `t̃`).
    pub kendall: Option<KendallSummary>,
}

impl TescResult {
    /// The correlation estimate (τ for uniform samplers, `t̃` for
    /// importance sampling).
    #[inline]
    pub fn statistic(&self) -> f64 {
        self.outcome.statistic
    }

    /// The z-score (Eq. 7).
    #[inline]
    pub fn z(&self) -> f64 {
        self.outcome.z
    }
}

/// Borrowed or shared ownership of a [`VicinityIndex`] — lets one
/// engine type serve both the classic "caller owns everything" flow
/// and the snapshot flow, where the index lives in an `Arc` inside a
/// [`crate::context::Snapshot`].
enum VicinityRef<'a> {
    Borrowed(&'a VicinityIndex),
    Owned(Arc<VicinityIndex>),
}

impl VicinityRef<'_> {
    #[inline]
    fn get(&self) -> &VicinityIndex {
        match self {
            VicinityRef::Borrowed(v) => v,
            VicinityRef::Owned(v) => v,
        }
    }
}

/// The TESC test engine for one graph.
///
/// Holds a [`ScratchPool`] instead of a single scratch, so every test
/// method takes `&self` and the engine is `Sync`: share one engine
/// across threads (see [`crate::batch`]) or call it from a loop — the
/// pool grows to the number of concurrent tests and is then reused.
/// Rejection and importance sampling additionally need the offline
/// vicinity-size index (Sec. 4.2) — supply it via
/// [`TescEngine::with_vicinity_index`] (borrowed),
/// [`TescEngine::with_vicinity_arc`] (shared, the snapshot flow) or
/// build it in place with [`TescEngine::build_vicinity`].
///
/// Optionally the engine carries a cross-pair [`DensityCache`]
/// ([`TescEngine::with_density_cache`]): uniform-sampler density
/// phases then memoize per-`(event, node, h)` vicinity counts so batch
/// runs over pair lists sharing an event do the shared BFS work once,
/// with bit-identical results.
pub struct TescEngine<'a, G = CsrGraph> {
    graph: &'a G,
    vicinity: Option<VicinityRef<'a>>,
    pool: Arc<ScratchPool>,
    density_threads: usize,
    cache: Option<Arc<DensityCache>>,
    kernel: BfsKernel,
    budget: Budget,
}

impl<'a, G: Adjacency> TescEngine<'a, G> {
    /// Engine without a vicinity index (Batch BFS and whole-graph
    /// sampling only).
    pub fn new(graph: &'a G) -> Self {
        TescEngine {
            graph,
            vicinity: None,
            pool: Arc::new(ScratchPool::for_graph(graph)),
            density_threads: 1,
            cache: None,
            kernel: BfsKernel::Auto,
            budget: Budget::unlimited(),
        }
    }

    /// Attach a cooperative [`Budget`] (deadline and/or cancel flag):
    /// every test run by this engine checks it at bounded intervals —
    /// per BFS frontier level, per source group, per reference node —
    /// and fails with [`TescError::Interrupted`] once it exhausts,
    /// publishing no partial state. The default is
    /// [`Budget::unlimited`], whose checks are near-free.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The engine's budget (unlimited unless set via
    /// [`TescEngine::with_budget`]).
    #[inline]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Engine with the precomputed `|V^h_v|` index, enabling rejection
    /// and importance sampling.
    pub fn with_vicinity_index(graph: &'a G, vicinity: &'a VicinityIndex) -> Self {
        TescEngine {
            vicinity: Some(VicinityRef::Borrowed(vicinity)),
            ..Self::new(graph)
        }
    }

    /// Engine sharing ownership of an `Arc`-held index — the snapshot
    /// flow ([`crate::context::Snapshot::engine`]), where graph and
    /// index live in reference-counted cells of a versioned context.
    pub fn with_vicinity_arc(graph: &'a G, vicinity: Arc<VicinityIndex>) -> Self {
        TescEngine {
            vicinity: Some(VicinityRef::Owned(vicinity)),
            ..Self::new(graph)
        }
    }

    /// Draw scratches from a shared pool instead of the engine's own —
    /// the snapshot flow, where one pool outlives the per-request
    /// engines so no request starts on a cold, page-faulting scratch.
    ///
    /// # Panics
    ///
    /// Panics if the pool was sized for a different node count.
    pub(crate) fn with_scratch_pool(mut self, pool: Arc<ScratchPool>) -> Self {
        assert_eq!(
            pool.num_nodes(),
            self.graph.num_nodes(),
            "scratch pool sized for a different graph"
        );
        self.pool = pool;
        self
    }

    /// Build the `|V^h_v|` index for levels `1..=max_level` in place,
    /// honoring [`TescEngine::with_density_threads`] by routing
    /// through [`VicinityIndex::build_parallel`] — call
    /// `with_density_threads` first to parallelize the offline sweep:
    ///
    /// ```
    /// use tesc::TescEngine;
    /// use tesc_graph::generators::grid;
    ///
    /// let g = grid(40, 40);
    /// let engine = TescEngine::new(&g).with_density_threads(4).build_vicinity(2);
    /// ```
    pub fn build_vicinity(mut self, max_level: u32) -> Self {
        self.vicinity = Some(VicinityRef::Owned(Arc::new(VicinityIndex::build_parallel(
            self.graph,
            max_level,
            self.density_threads,
        ))));
        self
    }

    /// Attach a cross-pair [`DensityCache`]. Uniform-sampler density
    /// phases consult it; importance-sampling and intensity phases
    /// bypass it (their per-node quantities are pair-specific), and so
    /// does a one-pair [`TescEngine::test`] that resolves from the
    /// event side (two cheap traversals; its entries would only serve
    /// an exact repeat — planner passes over pair sets fill and read
    /// the cache on every route). Results are bit-identical with or
    /// without a cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache was created for a structurally different
    /// graph (compared by [`Adjacency::fingerprint`]) — memoized counts
    /// are only valid for the graph they were measured on (the
    /// versioned [`crate::context::TescContext`] makes a fresh cache
    /// whenever the graph changes for exactly this reason).
    pub fn with_density_cache(mut self, cache: Arc<DensityCache>) -> Self {
        assert!(
            cache.matches_graph(self.graph),
            "density cache pinned to a different graph shape"
        );
        self.cache = Some(cache);
        self
    }

    /// The attached cross-pair cache, if any.
    #[inline]
    pub fn density_cache(&self) -> Option<&Arc<DensityCache>> {
        self.cache.as_ref()
    }

    /// Choose the density BFS kernel: [`BfsKernel::Auto`] (default)
    /// picks per graph/level with the expected vicinity-density
    /// heuristic; `Scalar`/`Bitset` force one (for tests and benches).
    /// Every configuration produces bit-identical results — see
    /// `docs/PERFORMANCE.md` for when each wins.
    pub fn with_density_kernel(mut self, kernel: BfsKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured density BFS kernel policy.
    #[inline]
    pub fn density_kernel(&self) -> BfsKernel {
        self.kernel
    }

    /// Fan the per-reference-node density loop of each *single* test
    /// out over `threads` scoped worker threads (default 1 = serial).
    ///
    /// Density BFS draws no randomness, so results are bit-identical
    /// to the serial engine at any thread count. Use this to cut the
    /// latency of one big test; when running many tests concurrently
    /// via [`crate::batch`], prefer across-test parallelism and leave
    /// this at 1 (combining both oversubscribes the CPUs).
    pub fn with_density_threads(mut self, threads: usize) -> Self {
        self.density_threads = threads.max(1);
        self
    }

    /// The configured within-test density thread count.
    #[inline]
    pub fn density_threads(&self) -> usize {
        self.density_threads
    }

    /// The graph under test.
    #[inline]
    pub fn graph(&self) -> &G {
        self.graph
    }

    /// The engine's vicinity index, however it was supplied
    /// (borrowed, shared or built in place).
    #[inline]
    pub fn vicinity_index(&self) -> Option<&VicinityIndex> {
        self.vicinity.as_ref().map(VicinityRef::get)
    }

    /// The engine's scratch pool (diagnostics: `pool().idle()` after a
    /// batch run is the high-water mark of concurrent tests).
    #[inline]
    pub fn pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Run the TESC test for events `va`, `vb` (occurrence node sets,
    /// need not be sorted).
    pub fn test(
        &self,
        va: &[NodeId],
        vb: &[NodeId],
        cfg: &TescConfig,
        rng: &mut impl Rng,
    ) -> Result<TescResult, TescError> {
        self.budget.check()?;
        let (a_sorted, b_sorted) = (normalize(va), normalize(vb));
        let union = merge_union(&a_sorted, &b_sorted);
        if union.is_empty() {
            return Err(TescError::NoEventNodes);
        }
        // Content-addressed keys from the normalized occurrence sets:
        // they address the reach memo and, when one is attached, the
        // density cache.
        let key_a = EventKey::from_normalized(a_sorted);
        let key_b = EventKey::from_normalized(b_sorted);
        match cfg.sampler {
            SamplerKind::Importance { batch_size } => {
                if cfg.statistic != Statistic::KendallTau {
                    return Err(TescError::StatisticUnsupportedBySampler);
                }
                self.test_importance(union, key_a, key_b, cfg, batch_size, rng)
            }
            _ => {
                let sample = self.sample_uniform(&key_a, &key_b, &union, cfg, rng)?;
                let counts =
                    self.one_pair_counts(vec![key_a, key_b], &sample.nodes, cfg.h, true)?;
                let (sa, sb) = pair_densities(&counts);
                Ok(Self::finish_uniform(&sa, &sb, &sample, cfg))
            }
        }
    }

    /// The one route decision of a density pass over `work` — see
    /// [`choose_route`]. Shared with the planner's stage (b).
    pub(crate) fn route(&self, work: &Workset) -> Route {
        let events: Vec<&[NodeId]> = work.keys().iter().map(EventKey::nodes).collect();
        choose_route(
            self.kernel,
            self.graph,
            self.vicinity_index(),
            work.h(),
            work.nodes(),
            &events,
        )
    }

    /// One pair's density pass: every node of `refs` scored against
    /// every key of `keys` (at most three) by the density executor, on
    /// this engine's route and `density_threads`. Returns, per
    /// `refs[i]` in order, `|V^h_r|` and its counts in key order. The
    /// engine's cache is consulted only when `cached` and the pass
    /// stays on the reference side — the one-pair bypass rule (see
    /// [`crate::cache`]).
    fn one_pair_counts(
        &self,
        keys: Vec<EventKey>,
        refs: &[NodeId],
        h: u32,
        cached: bool,
    ) -> Result<Vec<(u32, [u32; 3])>, Interrupted> {
        let (work, positions) = Workset::uniform(h, keys, refs);
        let route = self.route(&work);
        let cache = match route {
            Route::EventLanes => None,
            _ => self.cache.as_deref().filter(|_| cached),
        };
        let threads = self.density_threads;
        let d = run_density(self, &work, route, cache, threads, SOURCE_GROUP_SIZE)?;
        Ok(positions
            .into_iter()
            .map(|i| {
                let (size, cells) = d.at(&work, i);
                let mut counts = [0; 3];
                counts[..cells.len()].copy_from_slice(cells);
                (size, counts)
            })
            .collect())
    }

    /// Resolve the reach sets `V^h_e` of `events` into the request's
    /// memo — one budgeted bitset BFS per event not yet memoized, on
    /// the original graph, whatever the density kernel or route.
    /// Shared with the pair-set planner (`crate::planner`).
    pub(crate) fn fill_reach(&self, memo: &mut ReachMemo, events: &[EventKey], threads: usize) {
        memo.fill(self.graph, &self.pool, &self.budget, events, threads);
    }

    /// Draw a uniform reference-node sample for events `a`, `b` with
    /// the configured (non-importance) strategy. Batch BFS and
    /// whole-graph sampling read the pair's population
    /// `V^h_a ∪ V^h_b` off `memo`, which [`TescEngine::fill_reach`]
    /// must have been asked to fill for both events first. Shared with
    /// the pair-set planner, so one test and a planned pair sample
    /// bit-identically by construction.
    pub(crate) fn draw_uniform_sample(
        &self,
        memo: &ReachMemo,
        a: &EventKey,
        b: &EventKey,
        union: &[NodeId],
        cfg: &TescConfig,
        rng: &mut impl Rng,
    ) -> Result<UniformSample, TescError> {
        // Also what turns an interrupted reach pass into this pair's
        // error: exhaustion is sticky, so past this check the memo
        // holds both sets.
        self.budget.check()?;
        let population = || {
            memo.population(a, b)
                .expect("reach sets filled before the draw")
        };
        let sample = match cfg.sampler {
            SamplerKind::BatchBfs => mask_sample(&population(), cfg.sample_size, rng),
            SamplerKind::WholeGraph => whole_graph_sample(&population(), cfg.sample_size, rng),
            SamplerKind::Rejection => {
                let vic = self.require_vicinity(cfg.h)?;
                let union_mask = NodeMask::from_nodes(self.graph.num_nodes(), union);
                let max_draws = cfg.max_draw_factor.saturating_mul(cfg.sample_size).max(1);
                rejection_sample(
                    self.graph,
                    &mut self.pool.acquire(),
                    union,
                    &union_mask,
                    vic,
                    cfg.h,
                    cfg.sample_size,
                    max_draws,
                    rng,
                )
            }
            SamplerKind::Importance { .. } => unreachable!("importance handled separately"),
        };
        if sample.nodes.len() < 3 {
            return Err(TescError::TooFewReferenceNodes {
                found: sample.nodes.len(),
            });
        }
        Ok(sample)
    }

    /// Draw an importance-weighted reference sample (Sec. 4.2) over the
    /// occurrence union `union`. Shared with the pair-set planner and
    /// the intensity test, so every path samples bit-identically by
    /// construction.
    pub(crate) fn draw_importance_sample(
        &self,
        union: &[NodeId],
        cfg: &TescConfig,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Result<WeightedSample, TescError> {
        let vic = self.require_vicinity(cfg.h)?;
        let max_draws = cfg.max_draw_factor.saturating_mul(cfg.sample_size).max(1);
        let sample = importance_sample(
            self.graph,
            &mut self.pool.acquire(),
            union,
            vic,
            cfg.h,
            cfg.sample_size,
            batch_size,
            max_draws,
            rng,
        );
        if sample.nodes.len() < 3 {
            return Err(TescError::TooFewReferenceNodes {
                found: sample.nodes.len(),
            });
        }
        Ok(sample)
    }

    /// [`TescEngine::fill_reach`] + [`TescEngine::draw_uniform_sample`]
    /// for one test: the request is one pair, its memo two entries.
    fn sample_uniform(
        &self,
        a: &EventKey,
        b: &EventKey,
        union: &[NodeId],
        cfg: &TescConfig,
        rng: &mut impl Rng,
    ) -> Result<UniformSample, TescError> {
        let mut memo = ReachMemo::new(cfg.h);
        if cfg.sampler.draws_from_reach() {
            self.fill_reach(&mut memo, &[a.clone(), b.clone()], self.density_threads);
        }
        self.draw_uniform_sample(&memo, a, b, union, cfg, rng)
    }

    /// Turn paired density vectors + a uniform sample into a result.
    /// Shared with the planner's scatter/correlate stage.
    pub(crate) fn finish_uniform(
        sa: &[f64],
        sb: &[f64],
        sample: &UniformSample,
        cfg: &TescConfig,
    ) -> TescResult {
        let (outcome, kendall) = match cfg.statistic {
            Statistic::KendallTau => {
                let summary = kendall_tau(sa, sb, KendallMethod::MergeSort);
                (
                    TestOutcome::from_z(summary.tau, summary.z, cfg.tail, cfg.alpha),
                    Some(summary),
                )
            }
            Statistic::SpearmanRho => {
                let s = spearman_rho(sa, sb);
                (TestOutcome::from_z(s.rho, s.z, cfg.tail, cfg.alpha), None)
            }
        };
        TescResult {
            outcome,
            n_refs: sample.nodes.len(),
            population_size: sample.population_size,
            draws: sample.draws,
            kendall,
        }
    }

    /// Intensity-weighted TESC test — the Sec. 6 extension. Densities
    /// use the events' intensity mass (see [`crate::intensity`]);
    /// reference eligibility and sampling are presence-based and
    /// unchanged.
    pub fn test_intensity(
        &self,
        a: &crate::intensity::Intensities,
        b: &crate::intensity::Intensities,
        cfg: &TescConfig,
        rng: &mut impl Rng,
    ) -> Result<TescResult, TescError> {
        self.budget.check()?;
        assert_eq!(
            a.num_nodes(),
            self.graph.num_nodes(),
            "intensities sized for a different graph"
        );
        assert_eq!(b.num_nodes(), self.graph.num_nodes());
        let union = merge_union(a.support(), b.support());
        if union.is_empty() {
            return Err(TescError::NoEventNodes);
        }
        match cfg.sampler {
            SamplerKind::Importance { batch_size } => {
                if cfg.statistic != Statistic::KendallTau {
                    return Err(TescError::StatisticUnsupportedBySampler);
                }
                let sample = self.draw_importance_sample(&union, cfg, batch_size, rng)?;
                let n = sample.nodes.len();
                let counts = self.intensity_counts_for(&sample.nodes, cfg.h, a, b)?;
                let mut sa = Vec::with_capacity(n);
                let mut sb = Vec::with_capacity(n);
                let mut omega = Vec::with_capacity(n);
                for (i, c) in counts.iter().enumerate() {
                    debug_assert!(c.count_union > 0);
                    sa.push(c.density_a());
                    sb.push(c.density_b());
                    omega.push(sample.multiplicities[i] as f64 / c.count_union as f64);
                }
                Ok(Self::finish_weighted(&sa, &sb, &omega, &sample, cfg))
            }
            _ => {
                let key_a = EventKey::from_normalized(a.support().to_vec());
                let key_b = EventKey::from_normalized(b.support().to_vec());
                let sample = self.sample_uniform(&key_a, &key_b, &union, cfg, rng)?;
                let counts = self.intensity_counts_for(&sample.nodes, cfg.h, a, b)?;
                let (sa, sb) = counts
                    .iter()
                    .map(|c| (c.density_a(), c.density_b()))
                    .unzip::<_, _, Vec<f64>, Vec<f64>>();
                Ok(Self::finish_uniform(&sa, &sb, &sample, cfg))
            }
        }
    }

    /// Intensity densities for a reference sample, honoring
    /// `density_threads` like the presence-based phases.
    fn intensity_counts_for(
        &self,
        refs: &[NodeId],
        h: u32,
        a: &crate::intensity::Intensities,
        b: &crate::intensity::Intensities,
    ) -> Result<Vec<crate::intensity::IntensityCounts>, Interrupted> {
        let budget = &self.budget;
        crate::density::map_refs_pooled(&self.pool, refs, self.density_threads, budget, {
            |scratch, r| crate::intensity::intensity_counts(self.graph, scratch, r, h, a, b, budget)
        })
    }

    /// Assemble the importance-sampled (weighted `t̃`) result. Shared
    /// with the planner's scatter/correlate stage.
    pub(crate) fn finish_weighted(
        sa: &[f64],
        sb: &[f64],
        omega: &[f64],
        sample: &crate::sampler::WeightedSample,
        cfg: &TescConfig,
    ) -> TescResult {
        let n = sa.len();
        let t_tilde = weighted_tau(sa, sb, omega);
        let u = nontrivial_tie_group_sizes(sa);
        let v = nontrivial_tie_group_sizes(sb);
        let var_s = var_s_tie_corrected(n, &u, &v);
        let half = (n * (n - 1) / 2) as f64;
        let sigma_tau = (var_s / (half * half)).sqrt();
        let z = if sigma_tau > 0.0 {
            t_tilde / sigma_tau
        } else {
            0.0
        };
        let outcome = TestOutcome::from_z(t_tilde, z, cfg.tail, cfg.alpha);
        TescResult {
            outcome,
            n_refs: n,
            population_size: None,
            draws: sample.total_draws,
            kendall: None,
        }
    }

    /// Importance-sampler path: weighted draws → densities → `t̃`
    /// (Eq. 8) → z against the tie-corrected null variance.
    fn test_importance(
        &self,
        union: Vec<NodeId>,
        key_a: EventKey,
        key_b: EventKey,
        cfg: &TescConfig,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Result<TescResult, TescError> {
        let sample = self.draw_importance_sample(&union, cfg, batch_size, rng)?;
        let n = sample.nodes.len();
        // One pass gathers densities AND the inclusion weight ingredient
        // |V^h_r ∩ V_{a∪b}| (RejectSamp's `c`): the union set is a third
        // slot of the workset. The pass bypasses the cache — its
        // per-node quantities are pair-specific.
        let keys = vec![key_a, key_b, EventKey::from_normalized(union)];
        let counts = self.one_pair_counts(keys, &sample.nodes, cfg.h, false)?;
        let mut sa = Vec::with_capacity(n);
        let mut sb = Vec::with_capacity(n);
        let mut omega = Vec::with_capacity(n);
        for (&(size, [count_a, count_b, count_union]), &w) in
            counts.iter().zip(&sample.multiplicities)
        {
            debug_assert!(count_union > 0, "sampled node must see an event");
            sa.push(count_a as f64 / size as f64);
            sb.push(count_b as f64 / size as f64);
            // ω_i = w_i / p(r_i); p(r_i) = count_union / N_sum and the
            // constant N_sum cancels in Eq. 8.
            omega.push(w as f64 / count_union as f64);
        }
        // Significance "accordingly" (Sec. 4.2): the same tie-corrected
        // null variance as the unweighted statistic over n distinct
        // reference nodes.
        Ok(Self::finish_weighted(&sa, &sb, &omega, &sample, cfg))
    }

    /// Exact τ over the *entire* reference population `V^h_{a∪b}` —
    /// Eq. 3 without sampling. Intended for validation on small graphs
    /// (cost `O(N²)` pairs via the merge-sort counter's `O(N log N)`).
    pub fn exact_summary(
        &self,
        va: &[NodeId],
        vb: &[NodeId],
        h: u32,
    ) -> Result<KendallSummary, TescError> {
        let (a_sorted, b_sorted) = (normalize(va), normalize(vb));
        let union = merge_union(&a_sorted, &b_sorted);
        if union.is_empty() {
            return Err(TescError::NoEventNodes);
        }
        let mut population = Vec::new();
        self.pool
            .acquire()
            .h_vicinity_into(self.graph, &union, h, &mut population);
        if population.len() < 3 {
            return Err(TescError::TooFewReferenceNodes {
                found: population.len(),
            });
        }
        let keys = vec![
            EventKey::from_normalized(a_sorted),
            EventKey::from_normalized(b_sorted),
        ];
        let (sa, sb) = pair_densities(&self.one_pair_counts(keys, &population, h, false)?);
        Ok(kendall_tau(&sa, &sb, KendallMethod::MergeSort))
    }

    pub(crate) fn require_vicinity(&self, h: u32) -> Result<&VicinityIndex, TescError> {
        match self.vicinity.as_ref().map(VicinityRef::get) {
            Some(v) if v.max_level() >= h => Ok(v),
            _ => Err(TescError::MissingVicinityIndex { needed_h: h }),
        }
    }
}

/// `s^h_a(r) = |V_a ∩ V^h_r| / |V^h_r|` and `s^h_b(r)` (Eq. 2) from a
/// one-pair pass's counts.
fn pair_densities(counts: &[(u32, [u32; 3])]) -> (Vec<f64>, Vec<f64>) {
    counts
        .iter()
        .map(|&(size, [a, b, _])| (a as f64 / size as f64, b as f64 / size as f64))
        .unzip()
}

pub(crate) fn normalize(nodes: &[NodeId]) -> Vec<NodeId> {
    let mut v = nodes.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tesc_events::simulate::{independent_pair, negative_pair, positive_pair};
    use tesc_graph::bfs::BfsScratch;
    use tesc_graph::generators::{barabasi_albert, grid, planted_partition};
    use tesc_stats::significance::Verdict;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn all_samplers() -> Vec<SamplerKind> {
        vec![
            SamplerKind::BatchBfs,
            SamplerKind::Rejection,
            SamplerKind::Importance { batch_size: 1 },
            SamplerKind::Importance { batch_size: 3 },
            SamplerKind::WholeGraph,
        ]
    }

    #[test]
    fn detects_planted_positive_pair_with_every_sampler() {
        // h = 1 positive detection needs a triangle-dense substrate
        // (the paper's DBLP co-authorship graph is clique-heavy); a
        // community graph with dense blocks models that.
        let (g, _) = planted_partition(400, 10, 0.8, 0.0008, &mut rng(1));
        let idx = VicinityIndex::build(&g, 1);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let mut scratch = BfsScratch::new(g.num_nodes());
        let lp = positive_pair(&g, &mut scratch, 300, 1, &mut rng(2)).unwrap();
        let pair = lp.to_pair();
        for sampler in all_samplers() {
            let cfg = TescConfig::new(1)
                .with_sample_size(600)
                .with_tail(Tail::Upper)
                .with_sampler(sampler);
            let res = engine.test(&pair.a, &pair.b, &cfg, &mut rng(3)).unwrap();
            assert_eq!(
                res.outcome.verdict,
                Verdict::PositiveCorrelation,
                "sampler {sampler}: z = {}",
                res.z()
            );
        }
    }

    #[test]
    fn detects_planted_negative_pair_with_every_sampler() {
        let g = barabasi_albert(4000, 3, &mut rng(4));
        let idx = VicinityIndex::build(&g, 1);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let mut scratch = BfsScratch::new(g.num_nodes());
        let pair = negative_pair(&g, &mut scratch, 120, 120, 1, &mut rng(5)).unwrap();
        for sampler in all_samplers() {
            let cfg = TescConfig::new(1)
                .with_sample_size(300)
                .with_tail(Tail::Lower)
                .with_sampler(sampler);
            let res = engine.test(&pair.a, &pair.b, &cfg, &mut rng(6)).unwrap();
            assert_eq!(
                res.outcome.verdict,
                Verdict::NegativeCorrelation,
                "sampler {sampler}: z = {}",
                res.z()
            );
        }
    }

    #[test]
    fn independent_events_rarely_declared_positive() {
        // One-tailed Type-I check for attraction, matching the paper's
        // one-tailed evaluation protocol (Sec. 5.2).
        let g = barabasi_albert(3000, 3, &mut rng(7));
        let engine = TescEngine::new(&g);
        let mut rejections = 0;
        let trials = 40;
        for t in 0..trials {
            let pair = independent_pair(&g, 100, 100, &mut rng(100 + t)).unwrap();
            let cfg = TescConfig::new(1)
                .with_sample_size(200)
                .with_tail(Tail::Upper);
            let res = engine
                .test(&pair.a, &pair.b, &cfg, &mut rng(200 + t))
                .unwrap();
            if res.outcome.is_significant() {
                rejections += 1;
            }
        }
        assert!(
            rejections <= 6,
            "false-attraction rate too high: {rejections}/{trials}"
        );
    }

    #[test]
    fn sparse_independent_events_skew_negative_at_h1() {
        // Documented property of the measure: two sparse independent
        // events at small h rarely co-occur in any vicinity, so most
        // cross pairs of reference nodes are discordant and TESC reads
        // repulsion. This is exactly why the paper calls 1-hop negative
        // correlations "easier": "for h = 1 it is easier to find a node
        // whose 1-vicinity does not even overlap with V^1_a".
        let g = barabasi_albert(3000, 3, &mut rng(21));
        let engine = TescEngine::new(&g);
        let pair = independent_pair(&g, 100, 100, &mut rng(22)).unwrap();
        let cfg = TescConfig::new(1).with_sample_size(300);
        let res = engine.test(&pair.a, &pair.b, &cfg, &mut rng(23)).unwrap();
        assert!(
            res.z() < 0.0,
            "sparse independent events should lean negative"
        );
    }

    #[test]
    fn batch_bfs_uses_whole_population_when_small() {
        let g = grid(8, 8);
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(2).with_sample_size(10_000);
        let res = engine.test(&[0, 1], &[8, 9], &cfg, &mut rng(8)).unwrap();
        let pop = res.population_size.unwrap();
        assert_eq!(res.n_refs, pop, "n > N must clamp to the population");
        assert!(res.kendall.is_some());
    }

    #[test]
    fn exact_summary_matches_full_sample_tau() {
        let g = grid(12, 12);
        let engine = TescEngine::new(&g);
        let va: Vec<u32> = vec![0, 1, 2, 13, 26];
        let vb: Vec<u32> = vec![14, 15, 27, 40];
        let exact = engine.exact_summary(&va, &vb, 1).unwrap();
        // A Batch BFS "sample" big enough to take the full population
        // must produce the identical statistic.
        let cfg = TescConfig::new(1).with_sample_size(1_000_000);
        let sampled = engine.test(&va, &vb, &cfg, &mut rng(9)).unwrap();
        let k = sampled.kendall.unwrap();
        assert_eq!(exact.n, k.n);
        assert!((exact.tau - k.tau).abs() < 1e-12);
        assert!((exact.z - k.z).abs() < 1e-12);
    }

    #[test]
    fn empty_events_error() {
        let g = grid(4, 4);
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(1);
        assert_eq!(
            engine.test(&[], &[], &cfg, &mut rng(0)).unwrap_err(),
            TescError::NoEventNodes
        );
        assert_eq!(
            engine.exact_summary(&[], &[], 1).unwrap_err(),
            TescError::NoEventNodes
        );
    }

    #[test]
    fn missing_vicinity_index_error() {
        let g = grid(6, 6);
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(1).with_sampler(SamplerKind::Importance { batch_size: 1 });
        let err = engine.test(&[0], &[1], &cfg, &mut rng(0)).unwrap_err();
        assert!(matches!(
            err,
            TescError::MissingVicinityIndex { needed_h: 1 }
        ));
    }

    #[test]
    fn too_shallow_vicinity_index_error() {
        let g = grid(6, 6);
        let idx = VicinityIndex::build(&g, 1);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let cfg = TescConfig::new(3).with_sampler(SamplerKind::Rejection);
        let err = engine.test(&[0], &[1], &cfg, &mut rng(0)).unwrap_err();
        assert!(matches!(
            err,
            TescError::MissingVicinityIndex { needed_h: 3 }
        ));
    }

    #[test]
    fn too_few_reference_nodes_error() {
        // Isolated event node: population = {v} only.
        let g = tesc_graph::csr::from_edges(5, &[(1, 2)]);
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(1).with_sample_size(10);
        let err = engine.test(&[0], &[], &cfg, &mut rng(0)).unwrap_err();
        assert_eq!(err, TescError::TooFewReferenceNodes { found: 1 });
    }

    #[test]
    fn results_are_seed_reproducible() {
        let g = barabasi_albert(1000, 3, &mut rng(10));
        let engine = TescEngine::new(&g);
        let va: Vec<u32> = (0..50).collect();
        let vb: Vec<u32> = (25..75).collect();
        let cfg = TescConfig::new(1).with_sample_size(100);
        let r1 = engine.test(&va, &vb, &cfg, &mut rng(11)).unwrap();
        let r2 = engine.test(&va, &vb, &cfg, &mut rng(11)).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn importance_estimate_close_to_exact_on_small_graph() {
        let g = grid(15, 15);
        let idx = VicinityIndex::build(&g, 1);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let va: Vec<u32> = (0..30).collect();
        let vb: Vec<u32> = (15..45).collect();
        let exact = engine.exact_summary(&va, &vb, 1).unwrap();
        // Sample essentially the whole population with importance
        // weighting; t̃ should approach τ (consistency, Thm. 1).
        let cfg = TescConfig::new(1)
            .with_sample_size(exact.n)
            .with_sampler(SamplerKind::Importance { batch_size: 1 });
        let res = engine.test(&va, &vb, &cfg, &mut rng(12)).unwrap();
        assert!(
            (res.statistic() - exact.tau).abs() < 0.15,
            "t̃ = {}, τ = {}",
            res.statistic(),
            exact.tau
        );
        assert_eq!(
            res.z() > 0.0,
            exact.z > 0.0,
            "sign of the evidence must agree"
        );
    }

    #[test]
    fn spearman_statistic_agrees_with_kendall_on_verdicts() {
        let (g, _) = planted_partition(400, 10, 0.8, 0.0008, &mut rng(31));
        let engine = TescEngine::new(&g);
        let mut scratch = BfsScratch::new(g.num_nodes());
        let lp = positive_pair(&g, &mut scratch, 200, 1, &mut rng(32)).unwrap();
        let pair = lp.to_pair();
        let base = TescConfig::new(1)
            .with_sample_size(400)
            .with_tail(Tail::Upper);
        let kt = engine.test(&pair.a, &pair.b, &base, &mut rng(33)).unwrap();
        let sp = engine
            .test(
                &pair.a,
                &pair.b,
                &base.with_statistic(Statistic::SpearmanRho),
                &mut rng(33),
            )
            .unwrap();
        assert_eq!(kt.outcome.verdict, sp.outcome.verdict);
        assert!(
            sp.kendall.is_none(),
            "Spearman result carries no Kendall summary"
        );
        // ρ typically exceeds τ in magnitude for monotone association.
        assert!(sp.statistic() >= kt.statistic() * 0.8);
    }

    #[test]
    fn spearman_with_importance_sampler_is_rejected() {
        let g = grid(6, 6);
        let idx = VicinityIndex::build(&g, 1);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let cfg = TescConfig::new(1)
            .with_sampler(SamplerKind::Importance { batch_size: 1 })
            .with_statistic(Statistic::SpearmanRho);
        let err = engine
            .test(&[0, 1], &[2, 3], &cfg, &mut rng(34))
            .unwrap_err();
        assert_eq!(err, TescError::StatisticUnsupportedBySampler);
    }

    #[test]
    fn intensity_test_with_unit_weights_matches_plain_test() {
        let g = barabasi_albert(1500, 3, &mut rng(41));
        let engine = TescEngine::new(&g);
        let va: Vec<u32> = (0..80).collect();
        let vb: Vec<u32> = (40..120).collect();
        let cfg = TescConfig::new(1).with_sample_size(200);
        let plain = engine.test(&va, &vb, &cfg, &mut rng(42)).unwrap();
        let ia = crate::intensity::Intensities::uniform(g.num_nodes(), &va);
        let ib = crate::intensity::Intensities::uniform(g.num_nodes(), &vb);
        let weighted = engine.test_intensity(&ia, &ib, &cfg, &mut rng(42)).unwrap();
        assert_eq!(
            plain, weighted,
            "unit intensities must be a strict generalization"
        );
    }

    #[test]
    fn intensity_strengthens_correlation_signal() {
        // Co-located heavy-intensity occurrences against a uniform
        // background: the weighted densities co-vary more strongly
        // than the presence-only view.
        let (g, _) = planted_partition(200, 10, 0.8, 0.001, &mut rng(43));
        let n = g.num_nodes();
        // Both events occur *everywhere* lightly (pure presence sees
        // nothing but ties)…
        let every: Vec<(u32, f64)> = (0..n as u32).map(|v| (v, 1.0)).collect();
        let mut pa = every.clone();
        let mut pb = every;
        // …but share heavy hot spots in communities 0..30.
        for c in 0..30u32 {
            for i in 0..5 {
                pa.push((c * 10 + i, 50.0));
                pb.push((c * 10 + 5 + i, 50.0));
            }
        }
        let ia = crate::intensity::Intensities::from_pairs(n, &pa);
        let ib = crate::intensity::Intensities::from_pairs(n, &pb);
        let cfg = TescConfig::new(1)
            .with_sample_size(400)
            .with_tail(Tail::Upper);
        let weighted = engine_for(&g)
            .test_intensity(&ia, &ib, &cfg, &mut rng(44))
            .unwrap();
        assert!(
            weighted.z() > 2.33,
            "intensity view must expose the hot spots: z = {}",
            weighted.z()
        );
        // The presence-only view is blind here: every node carries both
        // events, so all densities are tied at 1 within equal-size
        // vicinities and no attraction is detectable.
        let va: Vec<u32> = (0..n as u32).collect();
        let plain = engine_for(&g).test(&va, &va, &cfg, &mut rng(44)).unwrap();
        assert!(plain.z() < weighted.z());
    }

    fn engine_for(g: &CsrGraph) -> TescEngine<'_> {
        TescEngine::new(g)
    }

    #[test]
    fn intensity_importance_sampling_path_works() {
        let (g, _) = planted_partition(300, 10, 0.7, 0.001, &mut rng(45));
        let idx = VicinityIndex::build(&g, 1);
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let mut scratch = BfsScratch::new(g.num_nodes());
        let lp = positive_pair(&g, &mut scratch, 150, 1, &mut rng(46)).unwrap();
        let ia = crate::intensity::Intensities::uniform(g.num_nodes(), &lp.a_nodes);
        let ib = crate::intensity::Intensities::uniform(g.num_nodes(), &lp.b_nodes);
        let cfg = TescConfig::new(1)
            .with_sample_size(300)
            .with_tail(Tail::Upper)
            .with_sampler(SamplerKind::Importance { batch_size: 1 });
        let r = engine.test_intensity(&ia, &ib, &cfg, &mut rng(47)).unwrap();
        assert_eq!(
            r.outcome.verdict,
            Verdict::PositiveCorrelation,
            "z = {}",
            r.z()
        );
    }

    #[test]
    fn intensity_empty_events_error() {
        let g = grid(4, 4);
        let engine = TescEngine::new(&g);
        let empty = crate::intensity::Intensities::uniform(16, &[]);
        let cfg = TescConfig::new(1);
        assert_eq!(
            engine
                .test_intensity(&empty, &empty, &cfg, &mut rng(48))
                .unwrap_err(),
            TescError::NoEventNodes
        );
    }

    #[test]
    fn build_vicinity_honors_density_threads_via_build_parallel() {
        // 1600 nodes exceeds build_parallel's serial-fallback
        // threshold, so 4 threads genuinely exercises the parallel
        // sweep; the built index must equal a manual build.
        let g = grid(40, 40);
        let manual = VicinityIndex::build(&g, 2);
        let engine = TescEngine::new(&g)
            .with_density_threads(4)
            .build_vicinity(2);
        assert_eq!(engine.density_threads(), 4);
        assert_eq!(engine.vicinity_index(), Some(&manual));
        // And the index actually enables the samplers that need it.
        let cfg = TescConfig::new(2)
            .with_sample_size(60)
            .with_sampler(SamplerKind::Rejection);
        assert!(engine
            .test(&[0, 1, 2], &[41, 42], &cfg, &mut rng(50))
            .is_ok());
    }

    #[test]
    fn vicinity_arc_behaves_like_borrowed() {
        let g = grid(10, 10);
        let idx = VicinityIndex::build(&g, 1);
        let borrowed = TescEngine::with_vicinity_index(&g, &idx);
        let owned = TescEngine::with_vicinity_arc(&g, std::sync::Arc::new(idx.clone()));
        let cfg = TescConfig::new(1)
            .with_sample_size(40)
            .with_sampler(SamplerKind::Rejection);
        let rb = borrowed
            .test(&[0, 1], &[11, 12], &cfg, &mut rng(51))
            .unwrap();
        let ro = owned.test(&[0, 1], &[11, 12], &cfg, &mut rng(51)).unwrap();
        assert_eq!(rb, ro);
    }

    #[test]
    fn cached_engine_results_bit_identical() {
        let g = barabasi_albert(1200, 3, &mut rng(52));
        let va: Vec<u32> = (0..60).collect();
        let vb: Vec<u32> = (30..90).collect();
        let plain = TescEngine::new(&g);
        let cache = std::sync::Arc::new(crate::cache::DensityCache::for_graph(&g));
        let cached = TescEngine::new(&g).with_density_cache(cache.clone());
        let cfg = TescConfig::new(1).with_sample_size(150);
        let r1 = plain.test(&va, &vb, &cfg, &mut rng(53)).unwrap();
        let r2 = cached.test(&va, &vb, &cfg, &mut rng(53)).unwrap();
        let r3 = cached.test(&va, &vb, &cfg, &mut rng(53)).unwrap();
        assert_eq!(r1, r2, "cold cache");
        assert_eq!(r1, r3, "warm cache");
        assert!(cache.hits() > 0, "second run must hit");
    }

    #[test]
    #[should_panic(expected = "different graph shape")]
    fn cache_for_wrong_graph_rejected() {
        let g1 = grid(5, 5);
        let g2 = grid(6, 6);
        let cache = std::sync::Arc::new(crate::cache::DensityCache::for_graph(&g1));
        let _ = TescEngine::new(&g2).with_density_cache(cache);
    }

    #[test]
    #[should_panic(expected = "different graph shape")]
    fn cache_for_a_spliced_graph_of_equal_node_count_rejected() {
        let g = grid(5, 5);
        let spliced = g.with_edges(&[(0, 24), (3, 17)]);
        assert_eq!(spliced.num_nodes(), g.num_nodes());
        let cache = std::sync::Arc::new(crate::cache::DensityCache::for_graph(&g));
        let _ = TescEngine::new(&spliced).with_density_cache(cache);
    }

    #[test]
    fn kernel_override_engines_bit_identical() {
        let g = barabasi_albert(1200, 3, &mut rng(60));
        let va: Vec<u32> = (0..60).collect();
        let vb: Vec<u32> = (30..90).collect();
        let cfg = TescConfig::new(2).with_sample_size(150);
        let reference = TescEngine::new(&g)
            .with_density_kernel(BfsKernel::Scalar)
            .test(&va, &vb, &cfg, &mut rng(61))
            .unwrap();
        for kernel in [BfsKernel::Auto, BfsKernel::Bitset] {
            let got = TescEngine::new(&g)
                .with_density_kernel(kernel)
                .test(&va, &vb, &cfg, &mut rng(61))
                .unwrap();
            assert_eq!(reference, got, "kernel {kernel}");
            assert_eq!(reference.z().to_bits(), got.z().to_bits());
        }
    }

    #[test]
    fn multi_kernel_engine_bit_identical_at_every_group_size() {
        let g = barabasi_albert(1200, 3, &mut rng(70));
        let va: Vec<u32> = (0..60).collect();
        let vb: Vec<u32> = (30..90).collect();
        let cfg = TescConfig::new(2).with_sample_size(150);
        let reference = TescEngine::new(&g)
            .with_density_kernel(BfsKernel::Scalar)
            .test(&va, &vb, &cfg, &mut rng(71))
            .unwrap();
        // The engine groups at the full lane word; the free functions'
        // lane-boundary sizes are covered in `density.rs` and
        // `tests/kernels.rs`.
        let got = TescEngine::new(&g)
            .with_density_kernel(BfsKernel::Multi)
            .test(&va, &vb, &cfg, &mut rng(71))
            .unwrap();
        assert_eq!(reference, got);
        assert_eq!(reference.z().to_bits(), got.z().to_bits());
        // The importance path fuses the union as a third slot.
        let idx = VicinityIndex::build(&g, 2);
        let icfg = cfg.with_sampler(SamplerKind::Importance { batch_size: 2 });
        let iref = TescEngine::with_vicinity_index(&g, &idx)
            .with_density_kernel(BfsKernel::Scalar)
            .test(&va, &vb, &icfg, &mut rng(72))
            .unwrap();
        let igot = TescEngine::with_vicinity_index(&g, &idx)
            .with_density_kernel(BfsKernel::Multi)
            .test(&va, &vb, &icfg, &mut rng(72))
            .unwrap();
        assert_eq!(iref, igot, "importance path grouped");
        // exact_summary routes through the grouped executor too.
        let e1 = TescEngine::new(&g).exact_summary(&va, &vb, 1).unwrap();
        let e2 = TescEngine::new(&g)
            .with_density_kernel(BfsKernel::Multi)
            .exact_summary(&va, &vb, 1)
            .unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn duplicate_event_nodes_are_tolerated() {
        let g = grid(8, 8);
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(1).with_sample_size(50);
        let r1 = engine
            .test(&[0, 0, 1, 1], &[2, 2, 3], &cfg, &mut rng(13))
            .unwrap();
        let r2 = engine.test(&[0, 1], &[2, 3], &cfg, &mut rng(13)).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn overlapping_events_positive_tesc() {
        // Identical events are maximally attracted.
        let g = barabasi_albert(2000, 3, &mut rng(14));
        let engine = TescEngine::new(&g);
        let va: Vec<u32> = (0..100).collect();
        let cfg = TescConfig::new(1)
            .with_sample_size(200)
            .with_tail(Tail::Upper);
        let res = engine.test(&va, &va, &cfg, &mut rng(15)).unwrap();
        assert_eq!(res.outcome.verdict, Verdict::PositiveCorrelation);
        // τ_a stays below 1 because tied density pairs contribute 0.
        assert!(res.statistic() > 0.8, "τ = {}", res.statistic());
    }
}
