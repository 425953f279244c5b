//! Top-K event-pair ranking — the paper's headline application as a
//! subsystem.
//!
//! The TESC test exists so an analyst can *rank* all candidate event
//! pairs of a scenario by two-event structural correlation and surface
//! the strongest interactions (the DBLP keyword study of Sec. 5.3
//! tests every keyword pair and reports the extremes). [`rank_pairs`]
//! scores a pair set — all-pairs of an event store
//! ([`tesc_events::EventStore::event_pairs`]), one event against every
//! partner (`pairs_with`), or an explicit candidate list — through the
//! pair-set planner ([`crate::planner::PairSetPlan`]), so the density
//! work of the whole set is fused: one BFS per distinct reference
//! node, however many pairs share it.
//!
//! **Scores.** A pair's score is its z-score read in the tested
//! direction ([`direction_score`]): `z` under [`Tail::Upper`]
//! (attraction hunts), `−z` under [`Tail::Lower`] (repulsion hunts),
//! `|z|` two-sided. Ranking is deterministic: descending score
//! (`tesc_stats::rank::cmp_score_desc`, the comparator shared with the
//! CLI table and the bench's recall@k agreement) with ties broken by
//! label, then by content seed — so the ranking is invariant under
//! permutation of the input pair list.
//!
//! **Seeds are content-addressed.** Unlike [`crate::batch`], whose
//! test `i` draws from an *index*-derived stream, ranking derives each
//! pair's RNG stream from its normalized occurrence sets
//! ([`content_seed`]): the same pair gets the same sample no matter
//! where it sits in the candidate list, which is what makes the
//! permutation invariance above exact (asserted in
//! `tests/ranking.rs`).
//!
//! **Top-K early exit.** With [`RankRequest::with_top_k`], pairs whose
//! *remaining significance budget* cannot reach the current K-th score
//! are dropped before their correlate stage runs: from a pair's
//! scattered density vectors, `|S| ≤ n(n−1)/2 − max(T_a, T_b)` (pairs
//! tied in either vector contribute nothing to Kendall's S) and the
//! tie-corrected `Var(S)` is exact, so `S_max / √Var(S)` bounds the
//! achievable |z| — and therefore the score under every tail
//! convention. Spearman's bound is `√(n−1)` (|ρ| ≤ 1). The bound is
//! sound, so the reported top K is identical to ranking everything and
//! truncating; only the pruned tail is skipped. (Importance-sampled
//! pairs use the weighted t̃ estimator, which this bound does not
//! cover — they are always scored.)

use crate::batch::{EventPair, PairOutcome};
use crate::engine::{normalize, Statistic, TescConfig, TescEngine, TescError, TescResult};
use crate::planner::{PairSetPlan, PairVectors};
use rand::SplitMix64;
use std::time::{Duration, Instant};
use tesc_graph::{Adjacency, Interrupted, NodeId};
use tesc_stats::kendall::var_s_tie_corrected;
use tesc_stats::rank::{cmp_score_desc, nontrivial_tie_group_sizes};
use tesc_stats::{Tail, TestOutcome};

/// Execution mode of a ranking run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RankMode {
    /// Every pair is scored at the full configured sample size.
    #[default]
    Exact,
    /// Progressive sampling ([`crate::anytime`]): pairs start at a
    /// small sample, get a `1 − eps` confidence interval on their
    /// projected full-sample score, and only escalate (by geometric
    /// doubling) while that interval straddles the running top-K
    /// cutoff. `eps = 0` makes every interval infinite, so nothing is
    /// decided early and the output is bit-identical to
    /// [`RankMode::Exact`]
    /// (property-tested in `tests/anytime.rs`). Requires a top-K
    /// cutoff: without [`RankRequest::with_top_k`] the request runs
    /// exact.
    Anytime {
        /// Per-decision error budget, in `[0, 1)`.
        eps: f64,
    },
}

impl RankMode {
    /// Anytime mode with error budget `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ eps < 1`.
    pub fn anytime(eps: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&eps),
            "anytime eps must be in [0, 1), got {eps}"
        );
        RankMode::Anytime { eps }
    }
}

impl std::fmt::Display for RankMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankMode::Exact => write!(f, "exact"),
            RankMode::Anytime { eps } => write!(f, "anytime:{eps}"),
        }
    }
}

/// A ranking request: the candidate pairs, one shared test
/// configuration, a master seed and the optional top-K cutoff.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRequest {
    /// Candidate pairs (order does not affect the ranking — seeds are
    /// content-addressed and ties break by label).
    pub pairs: Vec<EventPair>,
    /// Configuration applied to every test.
    pub cfg: TescConfig,
    /// Master seed; each pair draws from
    /// [`content_seed`]`(seed, &pair.a, &pair.b)`.
    pub seed: u64,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Report only the best K pairs, enabling the significance-budget
    /// early exit. `None` ranks everything.
    pub top_k: Option<usize>,
    /// Exact or progressive execution ([`RankMode::Exact`] default).
    pub mode: RankMode,
}

impl RankRequest {
    /// Empty request with configuration `cfg`, seed 0, automatic
    /// thread count, no top-K cutoff.
    pub fn new(cfg: TescConfig) -> Self {
        RankRequest {
            pairs: Vec::new(),
            cfg,
            seed: 0,
            threads: 0,
            top_k: None,
            mode: RankMode::Exact,
        }
    }

    /// Set the execution mode (see [`RankMode`]).
    pub fn with_mode(mut self, mode: RankMode) -> Self {
        self.mode = mode;
        self
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

    /// Keep only the best `k` pairs, pruning candidates whose
    /// significance budget cannot reach the running cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_top_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "top-k must be at least 1");
        self.top_k = Some(k);
        self
    }

    /// Append one candidate pair.
    pub fn with_pair(mut self, pair: EventPair) -> Self {
        self.pairs.push(pair);
        self
    }

    /// Append many candidate pairs.
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

/// One ranked pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RankEntry {
    /// 1-based rank (best first).
    pub rank: usize,
    /// Position in [`RankRequest::pairs`].
    pub index: usize,
    /// The pair's label, copied from the request.
    pub label: String,
    /// [`direction_score`] of the outcome — the ranking key.
    pub score: f64,
    /// The full test result (bit-identical to an independent
    /// [`TescEngine::test`] with this pair's content seed).
    pub result: TescResult,
    /// The escalation tier (requested sample size) at which this
    /// pair's score was frozen. Equals `cfg.sample_size` for exact
    /// runs and for anytime pairs that went the distance; smaller for
    /// pairs the progressive executor decided early (whose `result`
    /// then reflects that smaller sample and whose `score` is the
    /// projected full-sample estimate).
    pub decided_at_n: usize,
}

/// Everything a ranking run produced, plus fused-pass diagnostics.
#[derive(Debug, Clone, Default)]
pub struct RankReport {
    /// Ranked entries, best first (truncated to K when requested).
    pub ranked: Vec<RankEntry>,
    /// Candidates skipped by the top-K significance-budget early exit
    /// (provably unable to reach the cutoff — never part of the top K).
    pub pruned: usize,
    /// Candidates whose test failed (empty events, too few reference
    /// nodes, …), with the error in place.
    pub failed: Vec<PairOutcome>,
    /// Total candidate pairs in the request (ranked entries beyond a
    /// top-K cutoff are computed but not reported, so
    /// `ranked + pruned + failed` can undershoot this).
    pub candidates: usize,
    /// Distinct reference nodes of the fused density pass.
    pub distinct_refs: usize,
    /// Total sampled reference nodes across all pairs (what a per-pair
    /// executor would BFS); `sampled_refs / distinct_refs` is the
    /// work-sharing factor.
    pub sampled_refs: usize,
    /// Density BFS searches the fused pass actually ran (an attached
    /// cache can skip nodes entirely).
    pub fused_bfs: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Planner rounds executed: 1 for exact runs, the number of
    /// escalation tiers actually visited for anytime runs.
    pub rounds: usize,
    /// `true` when the engine's [`tesc_graph::Budget`] ran out
    /// mid-escalation and the progressive executor returned the best
    /// ranking decided so far instead of finishing: entries then carry
    /// the tier they were decided at in [`RankEntry::decided_at_n`],
    /// which may be below the requested sample size even under
    /// `eps = 0`. Always `false` for runs with an unlimited budget.
    pub degraded: bool,
    /// `Some` when the engine's budget ran out before any usable
    /// ranking existed: the whole request is interrupted — `ranked` is
    /// empty and every candidate is in `failed` with
    /// `Err(Interrupted)`. Always `None` for runs with an unlimited
    /// budget.
    pub interrupted: Option<Interrupted>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl RankReport {
    /// One-line human summary
    /// (`ranked 10 of 28 pairs (15 pruned, 3 failed); fused 1200 BFS
    /// for 8400 sampled refs (7.0× shared)`).
    pub fn summary(&self) -> String {
        let total = self.candidates;
        let share = if self.distinct_refs > 0 {
            self.sampled_refs as f64 / self.distinct_refs as f64
        } else {
            1.0
        };
        let mut s = format!(
            "ranked {} of {} pairs ({} pruned, {} failed); fused {} BFS for {} sampled refs ({share:.1}× shared)",
            self.ranked.len(),
            total,
            self.pruned,
            self.failed.len(),
            self.fused_bfs,
            self.sampled_refs,
        );
        if self.rounds > 1 {
            s.push_str(&format!("; {} progressive rounds", self.rounds));
        }
        s
    }

    /// Mean reference samples drawn per candidate pair across all
    /// rounds — the anytime tier's work measure (an exact run spends
    /// `≈ sample_size` per pair; a progressive run less, when pairs
    /// are decided early).
    pub fn mean_samples_per_pair(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.sampled_refs as f64 / self.candidates as f64
        }
    }
}

/// Content-addressed per-pair seed: derived from the master seed and
/// the *normalized occurrence sets* only (FNV-1a over both sets,
/// SplitMix64-finalized), never from the pair's position — so a pair
/// draws the same reference sample wherever it appears in a candidate
/// list, and the ranking is permutation-invariant. Insensitive to
/// occurrence order and duplicates, sensitive to the (a, b) slot
/// assignment and to the master seed.
pub fn content_seed(master: u64, a: &[NodeId], b: &[NodeId]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fn fnv(mut h: u64, x: u64) -> u64 {
        h ^= x;
        h.wrapping_mul(0x100_0000_01b3)
    }
    let (a, b) = (normalize(a), normalize(b));
    let mut h = fnv(FNV_OFFSET, master);
    h = fnv(h, a.len() as u64);
    for &v in &a {
        h = fnv(h, v as u64 + 1);
    }
    h = fnv(h, u64::MAX); // separator: ({1},{}) ≠ ({},{1})
    h = fnv(h, b.len() as u64);
    for &v in &b {
        h = fnv(h, v as u64 + 1);
    }
    SplitMix64(h).next_u64()
}

/// A test outcome's ranking score: the z-score read in the tested
/// direction — `z` under [`Tail::Upper`], `−z` under [`Tail::Lower`],
/// `|z|` two-sided — so "bigger is stronger evidence" holds for every
/// tail convention.
#[inline]
pub fn direction_score(outcome: &TestOutcome) -> f64 {
    match outcome.tail {
        Tail::Upper => outcome.z,
        Tail::Lower => -outcome.z,
        Tail::TwoSided => outcome.z.abs(),
    }
}

/// Sound upper bound on the achievable |z| (and therefore on the
/// [`direction_score`]) of a pair, from its scattered density vectors
/// alone — the "remaining significance budget" of the top-K early
/// exit. `None` means no usable bound (importance-sampled pairs).
pub(crate) fn score_bound(vectors: &PairVectors, statistic: Statistic) -> Option<f64> {
    let PairVectors::Uniform { sa, sb } = vectors else {
        return None;
    };
    let n = sa.len();
    match statistic {
        Statistic::KendallTau => {
            let u = nontrivial_tie_group_sizes(sa);
            let v = nontrivial_tie_group_sizes(sb);
            let var_s = var_s_tie_corrected(n, &u, &v);
            if var_s <= 0.0 {
                return Some(0.0); // everything tied: z is exactly 0
            }
            let tied_pairs = |g: &[usize]| {
                g.iter()
                    .map(|&s| (s as u64) * (s as u64 - 1) / 2)
                    .sum::<u64>()
            };
            let half = (n as u64) * (n as u64 - 1) / 2;
            // Pairs tied in either vector contribute 0 to S.
            let s_max = half - tied_pairs(&u).max(tied_pairs(&v));
            Some(s_max as f64 / var_s.sqrt())
        }
        // |ρ| ≤ 1 and z = ρ·√(n−1).
        Statistic::SpearmanRho => Some(((n - 1) as f64).sqrt()),
    }
}

/// Rank a candidate pair set through the fused planner. See the module
/// docs for scoring, determinism and the top-K early exit; per-pair
/// scores are bit-identical to independent [`TescEngine::test`] calls
/// seeded with [`content_seed`] (asserted in `tests/ranking.rs` for
/// all five samplers). Under [`RankMode::Anytime`] with a top-K
/// cutoff, execution is delegated to the progressive executor in
/// [`crate::anytime`].
///
/// The run is bounded by the engine's [`tesc_graph::Budget`] (see
/// [`TescEngine::with_budget`]); with the default unlimited budget it
/// always completes. Under [`RankMode::Anytime`] with a top-K cutoff an
/// exhausted budget *degrades* instead of failing whenever at least
/// one escalation tier completed: [`RankReport::degraded`] is set and
/// the report holds the best ranking decided so far. Otherwise the
/// whole request is interrupted ([`RankReport::interrupted`]): every
/// candidate is reported as `Err(Interrupted)` and nothing partial
/// leaks.
pub fn rank_pairs<G: Adjacency>(engine: &TescEngine<'_, G>, req: &RankRequest) -> RankReport {
    let start = Instant::now();
    let run = match req.mode {
        RankMode::Anytime { eps } if req.top_k.is_some() => {
            crate::anytime::rank_pairs_anytime(engine, req, eps)
        }
        _ => rank_pairs_exact(engine, req),
    };
    run.unwrap_or_else(|i| RankReport {
        failed: req
            .pairs
            .iter()
            .enumerate()
            .map(|(index, pair)| PairOutcome {
                index,
                label: pair.label.clone(),
                result: Err(TescError::Interrupted(i)),
            })
            .collect(),
        candidates: req.pairs.len(),
        threads: req.effective_threads(),
        interrupted: Some(i),
        wall: start.elapsed(),
        ..RankReport::default()
    })
}

/// The exact executor: one planner pass at the full sample size.
fn rank_pairs_exact<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    req: &RankRequest,
) -> Result<RankReport, Interrupted> {
    let start = Instant::now();
    let threads = req.effective_threads();
    let seeds: Vec<u64> = req
        .pairs
        .iter()
        .map(|p| content_seed(req.seed, &p.a, &p.b))
        .collect();
    let plan = PairSetPlan::build(engine, &req.pairs, &req.cfg, &seeds, threads);
    let fused = plan.run_density(threads);
    if let Some(i) = fused.interrupted() {
        return Err(i);
    }

    // Stage (c) + ranking: serial in index order so the evolving top-K
    // cutoff is schedule-independent. (Correlation is O(n log n) per
    // pair — noise next to the density BFS work above.)
    let mut computed: Vec<(f64, usize)> = Vec::new();
    let mut results: Vec<Option<TescResult>> = vec![None; req.pairs.len()];
    let mut failed = Vec::new();
    let mut pruned = 0usize;
    // Running best-K scores, descending — only maintained when a
    // top-K cutoff exists (and truncated to k, so inserts stay O(k)
    // instead of growing the Vec toward O(P²) on all-pairs runs).
    let mut top_scores: Vec<f64> = Vec::new();
    for (index, slot) in results.iter_mut().enumerate() {
        engine.budget().check()?;
        let vectors = match plan.vectors(index, &fused) {
            Ok(v) => v,
            Err(_) => {
                failed.push(plan.finish_pair(index, &fused));
                continue;
            }
        };
        if let Some(k) = req.top_k {
            if top_scores.len() >= k {
                let cutoff = top_scores[k - 1];
                if let Some(bound) = score_bound(&vectors, req.cfg.statistic) {
                    if bound < cutoff {
                        pruned += 1;
                        continue;
                    }
                }
            }
        }
        let result = plan.result_from_vectors(index, &vectors);
        let score = direction_score(&result.outcome);
        if let Some(k) = req.top_k {
            if top_scores.len() < k || score > top_scores[k - 1] {
                let pos = top_scores.partition_point(|&s| s >= score);
                top_scores.insert(pos, score);
                top_scores.truncate(k);
            }
        }
        computed.push((score, index));
        *slot = Some(result);
    }

    // Deterministic full order: score desc, label asc, content seed
    // asc (permutation-invariant), index last for absolute totality.
    computed.sort_by(|&(sa, ia), &(sb, ib)| {
        cmp_score_desc(sa, sb)
            .then_with(|| req.pairs[ia].label.cmp(&req.pairs[ib].label))
            .then_with(|| seeds[ia].cmp(&seeds[ib]))
            .then(ia.cmp(&ib))
    });
    if let Some(k) = req.top_k {
        computed.truncate(k);
    }
    let ranked = computed
        .into_iter()
        .enumerate()
        .map(|(pos, (score, index))| RankEntry {
            rank: pos + 1,
            index,
            label: req.pairs[index].label.clone(),
            score,
            result: results[index].take().expect("computed result"),
            decided_at_n: req.cfg.sample_size,
        })
        .collect();
    Ok(RankReport {
        ranked,
        pruned,
        failed,
        candidates: req.pairs.len(),
        distinct_refs: plan.distinct_refs(),
        sampled_refs: plan.sampled_refs(),
        fused_bfs: fused.bfs_run(),
        threads,
        rounds: 1,
        degraded: false,
        interrupted: None,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tesc_graph::generators::{barabasi_albert, grid};
    use tesc_stats::kendall::{kendall_tau, KendallMethod};
    use tesc_stats::SignificanceLevel;

    #[test]
    fn content_seed_is_order_dup_and_position_insensitive() {
        let s1 = content_seed(7, &[3, 1, 2], &[9, 8]);
        assert_eq!(s1, content_seed(7, &[1, 2, 3, 3, 1], &[8, 9, 9]));
        assert_ne!(s1, content_seed(8, &[1, 2, 3], &[8, 9]), "master matters");
        assert_ne!(s1, content_seed(7, &[8, 9], &[1, 2, 3]), "slots matter");
        assert_ne!(
            content_seed(7, &[1], &[]),
            content_seed(7, &[], &[1]),
            "separator keeps ({{1}},∅) and (∅,{{1}}) apart"
        );
    }

    #[test]
    fn direction_score_reads_the_tested_tail() {
        let mk =
            |z: f64, tail: Tail| TestOutcome::from_z(0.1, z, tail, SignificanceLevel::FIVE_PERCENT);
        assert_eq!(direction_score(&mk(2.0, Tail::Upper)), 2.0);
        assert_eq!(direction_score(&mk(-2.0, Tail::Lower)), 2.0);
        assert_eq!(direction_score(&mk(-2.0, Tail::TwoSided)), 2.0);
        assert_eq!(direction_score(&mk(-2.0, Tail::Upper)), -2.0);
    }

    #[test]
    fn kendall_score_bound_dominates_actual_z() {
        // Random tied-heavy vectors: the significance budget must
        // bound the achievable |z| in every case.
        let mut rng = StdRng::seed_from_u64(11);
        for n in [5usize, 20, 60] {
            for _ in 0..64 {
                let sa: Vec<f64> = (0..n).map(|_| (rng.gen_range(0..4u32)) as f64).collect();
                let sb: Vec<f64> = (0..n).map(|_| (rng.gen_range(0..4u32)) as f64).collect();
                let bound = score_bound(
                    &PairVectors::Uniform {
                        sa: sa.clone(),
                        sb: sb.clone(),
                    },
                    Statistic::KendallTau,
                )
                .unwrap();
                let z = kendall_tau(&sa, &sb, KendallMethod::MergeSort).z;
                assert!(
                    z.abs() <= bound + 1e-12,
                    "n={n}: |z| = {} exceeds budget {bound}",
                    z.abs()
                );
            }
        }
        // Spearman: √(n−1).
        let b = score_bound(
            &PairVectors::Uniform {
                sa: vec![0.0; 10],
                sb: vec![0.0; 10],
            },
            Statistic::SpearmanRho,
        )
        .unwrap();
        assert_eq!(b, 9.0f64.sqrt());
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking() {
        let g = barabasi_albert(1500, 3, &mut StdRng::seed_from_u64(21));
        let mut rng = StdRng::seed_from_u64(22);
        let shared: Vec<u32> = (0..40).collect();
        let mut req = RankRequest::new(
            TescConfig::new(1)
                .with_sample_size(120)
                .with_tail(Tail::Upper),
        )
        .with_seed(5)
        .with_threads(1);
        for i in 0..8 {
            let base = rng.gen_range(0..1400u32);
            req = req.with_pair(EventPair::new(
                format!("p{i}"),
                shared.clone(),
                (base..base + 40).collect(),
            ));
        }
        let engine = TescEngine::new(&g);
        let full = rank_pairs(&engine, &req);
        assert_eq!(full.ranked.len(), 8);
        assert_eq!(full.pruned, 0, "no cutoff, nothing pruned");
        for w in full.ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "descending scores");
        }
        for k in [1usize, 3, 8] {
            let top = rank_pairs(&engine, &req.clone().with_top_k(k));
            assert_eq!(top.ranked.len(), k.min(8));
            for (f, t) in full.ranked.iter().zip(&top.ranked) {
                assert_eq!(f.label, t.label, "top-{k} must be the full prefix");
                assert_eq!(f.score.to_bits(), t.score.to_bits());
                assert_eq!(f.result, t.result);
            }
        }
    }

    #[test]
    fn significance_budget_prunes_hopeless_pairs() {
        // A maximally attracted pair (identical events) sets a cutoff
        // far above what tiny-population pairs can ever reach
        // (|z| ≤ S_max/√Var(S) shrinks with n), so with top-k = 1 the
        // early exit must skip their correlate stage — and the podium
        // must equal the unpruned ranking's.
        let g = barabasi_albert(2000, 3, &mut StdRng::seed_from_u64(31));
        let strong: Vec<u32> = (0..100).collect();
        let mut req = RankRequest::new(
            TescConfig::new(1)
                .with_sample_size(200)
                .with_tail(Tail::Upper),
        )
        .with_seed(3)
        .with_threads(1)
        .with_pair(EventPair::new("strong", strong.clone(), strong));
        for i in 0..4u32 {
            req = req.with_pair(EventPair::new(
                format!("tiny{i}"),
                vec![1900 + 2 * i],
                vec![1901 + 2 * i],
            ));
        }
        let engine = TescEngine::new(&g);
        let full = rank_pairs(&engine, &req);
        let top = rank_pairs(&engine, &req.clone().with_top_k(1));
        assert_eq!(top.ranked.len(), 1);
        assert_eq!(top.ranked[0].label, "strong");
        assert_eq!(top.ranked[0].result, full.ranked[0].result);
        assert!(
            top.pruned >= 1,
            "tiny-budget pairs must be pruned, got {}",
            top.pruned
        );
    }

    #[test]
    fn failures_are_collected_not_fatal() {
        let g = grid(8, 8);
        let engine = TescEngine::new(&g);
        let req = RankRequest::new(TescConfig::new(1).with_sample_size(20))
            .with_threads(1)
            .with_pair(EventPair::new("ok", vec![0, 1, 2], vec![8, 9]))
            .with_pair(EventPair::new("empty", vec![], vec![]));
        let report = rank_pairs(&engine, &req);
        assert_eq!(report.ranked.len(), 1);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].label, "empty");
        assert!(report.summary().contains("ranked 1 of 2 pairs"));
    }

    #[test]
    #[should_panic(expected = "top-k must be at least 1")]
    fn zero_top_k_rejected() {
        let _ = RankRequest::new(TescConfig::new(1)).with_top_k(0);
    }
}
