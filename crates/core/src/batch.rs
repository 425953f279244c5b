//! Parallel batch execution of many TESC tests — the throughput layer.
//!
//! A realistic workload (Sec. 5.3's DBLP study, an alerting pipeline,
//! an analytics dashboard) does not ask one question; it asks *all
//! keyword pairs of a scenario*. Those tests are independent, they
//! share the same read-only [`CsrGraph`](tesc_graph::CsrGraph) and
//! [`VicinityIndex`](tesc_graph::VicinityIndex), and each one spends
//! its time in `n` BFS searches — an embarrassingly parallel shape.
//!
//! [`run_batch`] executes a [`BatchRequest`] through the pair-set
//! query planner ([`crate::planner`]): pairs are sampled in parallel
//! with indexed output slots, the density work is **fused** into one
//! BFS per distinct reference node of the whole set, and the counts
//! are scattered back into per-pair statistics. Three invariants make
//! every executor's result independent of thread count and schedule:
//!
//! 1. **Shared state is read-only.** Graph and vicinity index are
//!    `Sync` and never written; the only mutable shared state is the
//!    engine's [`ScratchPool`](tesc_graph::ScratchPool), whose
//!    contents never influence results.
//! 2. **Per-test RNG streams.** Test `i` draws from
//!    `StdRng::seed_from_u64(pair_seed(seed, i))` — derived from the
//!    master seed and the test's index only, never from execution
//!    order. See [`pair_seed`].
//! 3. **Indexed output slots.** Sampling, fused densities and
//!    outcomes are all written to per-index slots; no reordering can
//!    occur.
//!
//! Consequently `run_batch` is **bit-identical** to [`run_batch_serial`]
//! (and to calling [`TescEngine::test`] yourself with the same derived
//! seeds) at every thread count — asserted by `tests/pipeline.rs`.
//!
//! **Cross-pair density cache.** Batch pair lists routinely share
//! events (one keyword tested against many others). Attach a
//! [`DensityCache`](crate::cache::DensityCache) to the engine
//! ([`TescEngine::with_density_cache`], or use a
//! [`Snapshot`](crate::context::Snapshot)-derived engine, which comes
//! pre-wired) and the per-reference-node `(event, node, h)` vicinity
//! counts are memoized across the whole run, so a shared event's
//! density BFS happens once per reference node instead of once per
//! pair. The cache stores the exact integers the BFS produces and
//! never the RNG's output, so determinism invariant (1) still holds:
//! cached, uncached, serial and parallel runs are all bit-identical
//! (also asserted by `tests/pipeline.rs`).
//!
//! ```
//! use tesc::batch::{BatchRequest, EventPair, run_batch};
//! use tesc::{TescConfig, TescEngine};
//! use tesc_graph::generators::grid;
//!
//! let g = grid(20, 20);
//! let engine = TescEngine::new(&g);
//! let req = BatchRequest::new(TescConfig::new(1).with_sample_size(50))
//!     .with_seed(7)
//!     .with_threads(4)
//!     .with_pair(EventPair::new("p0", (0..20).collect(), (10..30).collect()))
//!     .with_pair(EventPair::new("p1", (0..20).collect(), (380..400).collect()));
//! let report = run_batch(&engine, &req);
//! assert_eq!(report.outcomes.len(), 2);
//! ```

use crate::engine::{TescConfig, TescEngine, TescError, TescResult};
use rand::rngs::StdRng;
use rand::{SeedableRng, SplitMix64};
use std::time::{Duration, Instant};
use tesc_graph::{Adjacency, Interrupted, NodeId, PARALLEL_MIN_NODES};
use tesc_stats::significance::Verdict;

/// Batch-side companion to [`PARALLEL_MIN_NODES`]: even on a graph
/// below that node threshold, a request with at least this many pairs
/// fans out — total batch work scales with the pair count, not the
/// graph size, so only the (tiny graph, short list) corner stays
/// serial.
pub const PARALLEL_MIN_PAIRS: usize = 64;

/// One event pair to test: a label plus the two occurrence node sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventPair {
    /// Human-readable identifier carried through to the report
    /// (e.g. `"sensor_network×wireless"`).
    pub label: String,
    /// Occurrence nodes of event `a` (any order, duplicates allowed).
    pub a: Vec<NodeId>,
    /// Occurrence nodes of event `b`.
    pub b: Vec<NodeId>,
}

impl EventPair {
    /// Bundle a labeled pair.
    pub fn new(label: impl Into<String>, a: Vec<NodeId>, b: Vec<NodeId>) -> Self {
        EventPair {
            label: label.into(),
            a,
            b,
        }
    }
}

/// A batch of TESC tests sharing one configuration, one master seed
/// and one thread budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The pairs to test, in report order.
    pub pairs: Vec<EventPair>,
    /// Configuration applied to every test.
    pub cfg: TescConfig,
    /// Master seed; test `i` uses the stream seeded with
    /// [`pair_seed`]`(seed, i)`.
    pub seed: u64,
    /// Worker threads. `0` means "all available parallelism"; `1`
    /// runs serially (identical results either way).
    pub threads: usize,
}

impl BatchRequest {
    /// Empty request with configuration `cfg`, seed 0, automatic
    /// thread count.
    pub fn new(cfg: TescConfig) -> Self {
        BatchRequest {
            pairs: Vec::new(),
            cfg,
            seed: 0,
            threads: 0,
        }
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the worker-thread count (`0` = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Append one pair.
    pub fn with_pair(mut self, pair: EventPair) -> Self {
        self.pairs.push(pair);
        self
    }

    /// Append many pairs.
    pub fn with_pairs(mut self, pairs: impl IntoIterator<Item = EventPair>) -> Self {
        self.pairs.extend(pairs);
        self
    }

    /// The worker count this request resolves to on this machine.
    pub fn effective_threads(&self) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        requested.clamp(1, self.pairs.len().max(1))
    }
}

/// Outcome of one test of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// Position in [`BatchRequest::pairs`].
    pub index: usize,
    /// The pair's label, copied from the request.
    pub label: String,
    /// The test result (per-pair failures do not abort the batch).
    pub result: Result<TescResult, TescError>,
}

impl PairOutcome {
    /// The verdict, if the test ran.
    pub fn verdict(&self) -> Option<Verdict> {
        self.result.as_ref().ok().map(|r| r.outcome.verdict)
    }
}

/// Everything a batch run produced, plus throughput diagnostics.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per requested pair, in request order.
    pub outcomes: Vec<PairOutcome>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time of the fan-out (excludes request construction).
    pub wall: Duration,
    /// `Some` when the engine's budget ran out: the whole request is
    /// interrupted and every outcome is `Err(Interrupted)`. Always
    /// `None` for runs with an unlimited budget.
    pub interrupted: Option<Interrupted>,
}

impl BatchReport {
    /// The report of an executor run under the engine's
    /// [`Budget`](tesc_graph::Budget) (see [`TescEngine::with_budget`]):
    /// an exhausted budget fails the **whole** request, so no partial
    /// outcome list escapes. Exhaustion is sticky, so a pair
    /// interrupted mid-test is guaranteed to be caught here.
    fn under_budget<G: Adjacency>(
        engine: &TescEngine<'_, G>,
        outcomes: Vec<PairOutcome>,
        threads: usize,
        start: Instant,
    ) -> Self {
        let interrupted = engine.budget().check().err();
        let outcomes = match interrupted {
            None => outcomes,
            Some(i) => outcomes
                .into_iter()
                .map(|o| PairOutcome {
                    result: Err(TescError::Interrupted(i)),
                    ..o
                })
                .collect(),
        };
        BatchReport {
            outcomes,
            threads,
            wall: start.elapsed(),
            interrupted,
        }
    }

    /// Outcomes whose test completed and rejected the null hypothesis.
    pub fn significant(&self) -> impl Iterator<Item = &PairOutcome> {
        self.outcomes.iter().filter(|o| {
            o.result
                .as_ref()
                .map(|r| r.outcome.is_significant())
                .unwrap_or(false)
        })
    }

    /// Outcomes whose test failed (e.g. empty events).
    pub fn failures(&self) -> impl Iterator<Item = &PairOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_err())
    }

    /// Completed tests per wall-clock second.
    pub fn tests_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// One-line human summary (`12 pairs, 5 significant, 0 failed,
    /// 34.2 tests/s on 4 threads`).
    pub fn summary(&self) -> String {
        format!(
            "{} pairs, {} significant, {} failed, {:.1} tests/s on {} thread{}",
            self.outcomes.len(),
            self.significant().count(),
            self.failures().count(),
            self.tests_per_sec(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        )
    }
}

/// Deterministic per-test seed stream: mixes the master seed with the
/// test index through SplitMix64 so that (a) every test's RNG stream
/// is independent of execution order and thread count, and (b) nearby
/// indices land on statistically unrelated streams.
#[inline]
pub fn pair_seed(master_seed: u64, index: usize) -> u64 {
    let mut sm = SplitMix64(master_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// Run every test of `req` serially on the calling thread — the
/// reference implementation the parallel fan-out must match
/// bit-for-bit.
pub fn run_batch_serial<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    req: &BatchRequest,
) -> BatchReport {
    let start = Instant::now();
    let outcomes = req
        .pairs
        .iter()
        .enumerate()
        .map(|(i, pair)| run_one(engine, req, i, pair))
        .collect();
    BatchReport::under_budget(engine, outcomes, 1, start)
}

/// Run `req` through the pair-set query planner
/// ([`crate::planner::PairSetPlan`]): sample every pair in parallel,
/// then execute ONE fused density pass over the *deduplicated*
/// reference workset (one BFS per distinct reference node, scored
/// against every event touching it) and scatter the counts back into
/// per-pair results. Pair lists sharing events — the common batch
/// shape — thus share their density BFS work up front, instead of
/// re-walking vicinities once per pair and hoping the cache catches
/// the repeats.
///
/// Results are bit-identical to [`run_batch_serial`] for every thread
/// count; see the module docs for why. *Small* requests — a graph
/// below [`PARALLEL_MIN_NODES`] **and** fewer than
/// [`PARALLEL_MIN_PAIRS`] pairs — run serially regardless of the
/// requested thread count: per-test BFS work on tiny graphs is
/// cheaper than spawning workers, but batch work scales with the pair
/// count, so a long pair list parallelizes even on a tiny graph. The
/// node threshold is shared with `VicinityIndex::build_parallel` so
/// the two fan-out decisions cannot drift apart.
///
/// The run is bounded by the engine's [`Budget`](tesc_graph::Budget)
/// (see [`TescEngine::with_budget`]), checked per pair on the serial
/// path and per BFS frontier level / source group inside the fused
/// density pass. An exhausted budget fails the whole request
/// ([`BatchReport::interrupted`]), and caches hold only counts from
/// completed traversals.
pub fn run_batch<G: Adjacency>(engine: &TescEngine<'_, G>, req: &BatchRequest) -> BatchReport {
    let threads = req.effective_threads();
    let tiny =
        engine.graph().num_nodes() < PARALLEL_MIN_NODES && req.pairs.len() < PARALLEL_MIN_PAIRS;
    if threads <= 1 || tiny {
        return run_batch_serial(engine, req);
    }
    let start = Instant::now();
    let seeds: Vec<u64> = (0..req.pairs.len())
        .map(|i| pair_seed(req.seed, i))
        .collect();
    let plan = crate::planner::PairSetPlan::build(engine, &req.pairs, &req.cfg, &seeds, threads);
    let outcomes = plan.finish(&plan.run_density(threads));
    BatchReport::under_budget(engine, outcomes, threads, start)
}

fn run_one<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    req: &BatchRequest,
    i: usize,
    pair: &EventPair,
) -> PairOutcome {
    let mut rng = StdRng::seed_from_u64(pair_seed(req.seed, i));
    PairOutcome {
        index: i,
        label: pair.label.clone(),
        result: engine.test(&pair.a, &pair.b, &req.cfg, &mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TescConfig;
    use rand::Rng;
    use tesc_graph::generators::{barabasi_albert, grid};
    use tesc_stats::Tail;

    fn pairs_on(n_pairs: usize, seed: u64, num_nodes: usize) -> Vec<EventPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_pairs)
            .map(|i| {
                let base = rng.gen_range(0..num_nodes as NodeId / 2);
                let a: Vec<NodeId> = (base..base + 30).collect();
                let b: Vec<NodeId> = (base + 15..base + 45).collect();
                EventPair::new(format!("pair{i}"), a, b)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let g = barabasi_albert(2000, 3, &mut StdRng::seed_from_u64(1));
        let engine = TescEngine::new(&g);
        let req = BatchRequest::new(TescConfig::new(1).with_sample_size(120))
            .with_seed(99)
            .with_pairs(pairs_on(12, 2, 2000));
        let serial = run_batch_serial(&engine, &req);
        for threads in [2, 4, 8] {
            // The fused planner path must reproduce the serial bits.
            let par = run_batch(&engine, &req.clone().with_threads(threads));
            assert_eq!(par.threads, threads.min(12));
            for (s, p) in serial.outcomes.iter().zip(&par.outcomes) {
                assert_eq!(s, p, "planner at {threads} threads changed an outcome");
            }
        }
    }

    #[test]
    fn batch_matches_direct_engine_calls_with_derived_seeds() {
        let g = grid(25, 25);
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(1)
            .with_sample_size(60)
            .with_tail(Tail::Upper);
        let pairs = pairs_on(5, 3, 625);
        let req = BatchRequest::new(cfg)
            .with_seed(1234)
            .with_threads(3)
            .with_pairs(pairs.clone());
        let report = run_batch(&engine, &req);
        for (i, pair) in pairs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(pair_seed(1234, i));
            let direct = engine.test(&pair.a, &pair.b, &cfg, &mut rng);
            assert_eq!(report.outcomes[i].result, direct, "pair {i}");
        }
    }

    #[test]
    fn cached_parallel_batch_matches_uncached_serial() {
        let g = barabasi_albert(1500, 3, &mut StdRng::seed_from_u64(8));
        // Pairs sharing event `a` — the cache's target workload.
        let a: Vec<NodeId> = (0..40).collect();
        let pairs: Vec<EventPair> = (0..6)
            .map(|i| {
                let b: Vec<NodeId> =
                    (100 * (i as NodeId + 1)..100 * (i as NodeId + 1) + 40).collect();
                EventPair::new(format!("a×b{i}"), a.clone(), b)
            })
            .collect();
        let req = BatchRequest::new(TescConfig::new(1).with_sample_size(100))
            .with_seed(21)
            .with_pairs(pairs);
        let plain = TescEngine::new(&g);
        let baseline = run_batch_serial(&plain, &req);
        let cache = std::sync::Arc::new(crate::cache::DensityCache::for_graph(&g));
        let cached = TescEngine::new(&g).with_density_cache(cache.clone());
        for threads in [1, 4] {
            let report = run_batch(&cached, &req.clone().with_threads(threads));
            for (b, c) in baseline.outcomes.iter().zip(&report.outcomes) {
                assert_eq!(b, c, "threads = {threads}");
            }
        }
        assert!(cache.hits() > 0, "shared event must produce hits");
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let g = grid(8, 8);
        let engine = TescEngine::new(&g);
        let req = BatchRequest::new(TescConfig::new(1).with_sample_size(20))
            .with_threads(2)
            .with_pair(EventPair::new("ok", vec![0, 1, 2], vec![8, 9]))
            .with_pair(EventPair::new("empty", vec![], vec![]))
            .with_pair(EventPair::new("ok2", vec![3, 4], vec![11, 12]));
        let report = run_batch(&engine, &req);
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.outcomes[0].result.is_ok());
        assert_eq!(
            report.outcomes[1].result,
            Err(TescError::NoEventNodes),
            "empty pair fails in place"
        );
        assert!(report.outcomes[2].result.is_ok());
        assert_eq!(report.failures().count(), 1);
    }

    #[test]
    fn pair_seed_is_order_free_and_spreads() {
        let a: Vec<u64> = (0..64).map(|i| pair_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).rev().map(|i| pair_seed(42, i)).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "no colliding per-test seeds");
        assert_ne!(pair_seed(42, 0), pair_seed(43, 0));
    }

    #[test]
    fn report_summary_counts() {
        let g = grid(10, 10);
        let engine = TescEngine::new(&g);
        let req = BatchRequest::new(TescConfig::new(1).with_sample_size(30))
            .with_pair(EventPair::new("x", vec![0, 1], vec![10, 11]))
            .with_pair(EventPair::new("broken", vec![], vec![]));
        let report = run_batch(&engine, &req);
        let s = report.summary();
        assert!(s.contains("2 pairs"), "{s}");
        assert!(s.contains("1 failed"), "{s}");
    }

    #[test]
    fn tiny_graph_short_list_runs_serial_but_long_lists_fan_out() {
        let g = grid(10, 10); // 100 nodes < PARALLEL_MIN_NODES
        let engine = TescEngine::new(&g);
        let cfg = TescConfig::new(1).with_sample_size(20);
        let short = BatchRequest::new(cfg)
            .with_threads(4)
            .with_pairs(pairs_on(4, 9, 100));
        assert_eq!(
            run_batch(&engine, &short).threads,
            1,
            "tiny graph + short list stays serial"
        );
        let long =
            BatchRequest::new(cfg)
                .with_threads(4)
                .with_pairs(pairs_on(PARALLEL_MIN_PAIRS, 9, 100));
        let report = run_batch(&engine, &long);
        assert_eq!(report.threads, 4, "pair count overrides the graph gate");
        // And the fan-out is still bit-identical to serial.
        let serial = run_batch_serial(&engine, &long);
        assert_eq!(serial.outcomes, report.outcomes);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let req = BatchRequest::new(TescConfig::new(1)).with_pairs(pairs_on(64, 4, 1000));
        assert!(req.effective_threads() >= 1);
        let one = BatchRequest::new(TescConfig::new(1))
            .with_threads(16)
            .with_pair(EventPair::new("solo", vec![0], vec![1]));
        assert_eq!(one.effective_threads(), 1, "never more workers than tests");
    }
}
