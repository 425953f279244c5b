//! Anytime top-K ranking — progressive sampling with
//! confidence-interval pruning.
//!
//! Most pairs in an all-pairs `rank` are nowhere near the top-K
//! cutoff, yet the exact executor makes every pair pay the full sample
//! size `n`. This module implements the approximate-query-processing
//! counterpart: score every pair on a small prefix of its reference
//! sample, put a confidence interval around its *projected*
//! full-sample score, and only spend more samples on pairs whose
//! interval still straddles the running K-th-score cutoff.
//!
//! # The progressive loop
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            │ round m = n₀, 2n₀, 4n₀, …                      │
//!            │                                                │
//!  undecided │  PairSetPlan::build(undecided, cfg@m) — reach  │
//!  pairs ───►│    sets from the request's memo, 1 BFS / event │
//!            │  → fused density pass (ONE BFS / distinct ref) │
//!            │  → score_m, budget c_m per pair                │
//!            │  → CI: ê = score_m/c_m, project to scale(n),   │
//!            │        half-width z₁₋ε/₂·√(2/m)·scale(n)       │
//!            │                                                │
//!            │  cutoffL = K-th largest lo                     │
//!            │  cutoffH = K-th largest hi                     │
//!            │    hi < cutoffL → OUT  (pruned at m)           │
//!            │    lo > cutoffH → IN   (score frozen at m)     │
//!            │    otherwise    → escalate to 2m ──────────────┼──┐
//!            └────────────────────────────────────────────────┘  │
//!                 ▲                                              │
//!                 └──────────────────────────────────────────────┘
//!            final round m = n: exact stage, CI-free — identical
//!            arithmetic to the exact executor on the survivors.
//! ```
//!
//! # The sample-prefix contract
//!
//! Escalation *extends* a pair's sample rather than resampling it:
//! each round re-enters the planner with the pair's **content seed**
//! unchanged, and every uniform sampler draws a sample whose first
//! `m` nodes are a bit-identical prefix of the full-`n` stream —
//! Batch BFS because a partial Fisher–Yates never revisits settled
//! positions (and its population, a bitmap in ascending node id, is
//! the same at every tier: the per-event reach sets are memoized once
//! per request and shared by all tiers), rejection and whole-graph
//! sampling because the
//! accept/reject transcript up to the `m`-th accept is the same
//! regardless of the target size (asserted in `tests/anytime.rs` and
//! the unit tests below). Importance sampling is the exception — its
//! multiplicity weights are not prefix-stable — so importance requests
//! skip straight to the full-`n` round, mirroring the exact executor's
//! refusal to budget-prune weighted pairs.
//!
//! # eps = 0 is exact, bit for bit
//!
//! With `eps = 0` every interval is `(−∞, ∞)`: no pair is ever decided
//! early, every pair reaches the final round, and that round performs
//! the exact executor's own stage-(c) loop (same iteration order, same
//! significance-budget prune, same comparators) at the full sample
//! size with the same content seeds — so the ranked output is
//! bit-identical to [`crate::rank::RankMode::Exact`] across the whole
//! kernel × cache × thread matrix. The property suite in
//! `tests/anytime.rs` asserts this.

use crate::batch::{EventPair, PairOutcome};
use crate::engine::{Statistic, TescEngine, TescResult};
use crate::planner::PairSetPlan;
use crate::rank::{content_seed, direction_score, score_bound, RankEntry, RankReport, RankRequest};
use crate::sampler::{ReachMemo, SamplerKind};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use tesc_graph::{Adjacency, Interrupted};
use tesc_stats::confidence::{
    projected_score_interval, spearman_scale, untied_kendall_scale, ScoreInterval,
};
use tesc_stats::rank::cmp_score_desc;

/// Smallest sample tier the progressive loop starts from: below this,
/// the normal approximation behind the interval is shaky and a round's
/// fixed costs dominate its savings.
pub const ANYTIME_FLOOR: usize = 50;

/// The geometric escalation schedule for a full sample size `n`:
/// repeatedly halve from `n` while the result stays ≥
/// [`ANYTIME_FLOOR`], then reverse — so tiers double `n₀ → 2n₀ → … →
/// n` and always end *exactly* at `n`. Importance-sampled requests
/// bypass the progressive tiers entirely (their weighted samples have
/// no prefix property), collapsing the schedule to `[n]`.
pub fn escalation_schedule(n: usize, sampler: SamplerKind) -> Vec<usize> {
    if matches!(sampler, SamplerKind::Importance { .. }) {
        return vec![n];
    }
    let mut tiers = vec![n];
    let mut m = n;
    while m / 2 >= ANYTIME_FLOOR {
        m /= 2;
        tiers.push(m);
    }
    tiers.reverse();
    tiers
}

/// A pair whose projected score was frozen before the final round.
struct FrozenIn {
    index: usize,
    score: f64,
    result: TescResult,
    decided_at_n: usize,
}

/// The progressive executor behind [`crate::rank::RankMode::Anytime`].
/// Called from [`crate::rank::rank_pairs`]; requires
/// `req.top_k` to be set.
///
/// # Budget semantics
///
/// The engine's [`tesc_graph::Budget`] is checked before every
/// escalation tier (with a predictive skip: a tier is not even started
/// when less time remains than the *previous, half-sized* tier took)
/// and per pair inside every scoring loop. When the budget runs out
/// after at least one tier completed, the executor *degrades*: it
/// returns `Ok` with [`RankReport::degraded`] set, ranking the frozen
/// IN pairs, any final-round survivors already scored at full `n`, and
/// the projected point estimates of the last completed tier — each
/// entry's [`RankEntry::decided_at_n`] records the tier its score came
/// from. Only when *nothing* was decided yet does it return the typed
/// [`Interrupted`] error.
pub(crate) fn rank_pairs_anytime<G: Adjacency>(
    engine: &TescEngine<'_, G>,
    req: &RankRequest,
    eps: f64,
) -> Result<RankReport, Interrupted> {
    assert!(
        (0.0..1.0).contains(&eps),
        "anytime eps must be in [0, 1), got {eps}"
    );
    let start = Instant::now();
    let k = req.top_k.expect("anytime mode requires a top-K cutoff");
    let threads = req.effective_threads();
    let n = req.cfg.sample_size;
    let seeds: Vec<u64> = req
        .pairs
        .iter()
        .map(|p| content_seed(req.seed, &p.a, &p.b))
        .collect();
    let schedule = escalation_schedule(n, req.cfg.sampler);

    let mut undecided: Vec<usize> = (0..req.pairs.len()).collect();
    let mut frozen: Vec<FrozenIn> = Vec::new();
    let mut failed: Vec<PairOutcome> = Vec::new();
    let mut pruned = 0usize;
    let (mut distinct_refs, mut sampled_refs, mut fused_bfs) = (0usize, 0usize, 0u64);
    let mut rounds = 0usize;
    // (score, original index, result, decided_at_n) of final-round
    // survivors, accumulated exactly like the exact executor does.
    let mut computed: Vec<(f64, usize, TescResult, usize)> = Vec::new();
    // Projected point estimates of the last *completed* intermediate
    // tier, for every pair that stayed undecided there — the raw
    // material of a degraded report. Replaced wholesale each tier.
    let mut last_estimates: Vec<(f64, usize, TescResult, usize)> = Vec::new();
    let mut last_tier_wall = Duration::ZERO;
    let mut degraded = false;
    let budget = engine.budget();
    // One reach memo for the whole request: every tier re-plans its
    // undecided pairs, but each distinct event is traversed once.
    let mut reach = ReachMemo::new(req.cfg.h);
    // Something rankable exists once any tier decided or estimated a
    // pair — the gate between degrading (Ok) and failing (Err).
    macro_rules! has_decided {
        () => {
            !(frozen.is_empty() && computed.is_empty() && last_estimates.is_empty())
        };
    }

    'tiers: for (tier, &m) in schedule.iter().enumerate() {
        if undecided.is_empty() {
            break;
        }
        // Budget gate: bail before the tier if already exhausted, or —
        // predictively — if less time remains than the previous
        // (half-sized, so ~2× cheaper) tier took, since starting a
        // tier we cannot finish only burns the time a degraded answer
        // could have been returned in.
        let predicted_short =
            tier > 0 && matches!(budget.remaining(), Some(rem) if rem < last_tier_wall);
        if let Err(i) = budget.check() {
            if !has_decided!() {
                return Err(i);
            }
            degraded = true;
            break 'tiers;
        }
        if predicted_short && has_decided!() {
            degraded = true;
            break 'tiers;
        }
        let tier_start = Instant::now();
        let is_final = tier + 1 == schedule.len();
        let cfg_m = req.cfg.with_sample_size(m);
        let sub_pairs: Vec<EventPair> = undecided.iter().map(|&i| req.pairs[i].clone()).collect();
        let sub_seeds: Vec<u64> = undecided.iter().map(|&i| seeds[i]).collect();
        let sub_threads = threads.clamp(1, sub_pairs.len());
        let plan = PairSetPlan::build_with_memo(
            engine,
            &sub_pairs,
            &cfg_m,
            &sub_seeds,
            sub_threads,
            &mut reach,
        );
        let fused = plan.run_density(sub_threads);
        if let Some(i) = fused.interrupted() {
            if !has_decided!() {
                return Err(i);
            }
            degraded = true;
            break 'tiers;
        }
        rounds += 1;
        distinct_refs += plan.distinct_refs();
        sampled_refs += plan.sampled_refs();
        fused_bfs += fused.bfs_run();

        if is_final {
            // Exact arithmetic on the survivors: the stage-(c) loop of
            // the exact executor, with the running top-K budget seeded
            // by the already-frozen IN scores. With eps = 0 nothing was
            // frozen and `undecided` is every pair in index order, so
            // this block *is* the exact executor.
            let mut top_scores: Vec<f64> = frozen.iter().map(|f| f.score).collect();
            top_scores.sort_by(|a, b| cmp_score_desc(*a, *b));
            top_scores.truncate(k);
            for (pos, &index) in undecided.iter().enumerate() {
                if let Err(i) = budget.check() {
                    // Mid-final-round exhaustion: survivors already
                    // scored at full n stay; the rest fall back to
                    // their last-tier estimates at assembly.
                    if !has_decided!() {
                        return Err(i);
                    }
                    degraded = true;
                    break 'tiers;
                }
                let vectors = match plan.vectors(pos, &fused) {
                    Ok(v) => v,
                    Err(_) => {
                        failed.push(plan.finish_pair(pos, &fused));
                        continue;
                    }
                };
                if top_scores.len() >= k {
                    let cutoff = top_scores[k - 1];
                    if let Some(bound) = score_bound(&vectors, cfg_m.statistic) {
                        if bound < cutoff {
                            pruned += 1;
                            continue;
                        }
                    }
                }
                let result = plan.result_from_vectors(pos, &vectors);
                let score = direction_score(&result.outcome);
                if top_scores.len() < k || score > top_scores[k - 1] {
                    let at = top_scores.partition_point(|&s| s >= score);
                    top_scores.insert(at, score);
                    top_scores.truncate(k);
                }
                computed.push((score, index, result, m));
            }
            undecided.clear();
            break;
        }

        // Intermediate round: interval every pair we can, then run one
        // step of successive elimination against the K-th cutoffs.
        struct Scored {
            index: usize,
            ci: ScoreInterval,
            result: TescResult,
        }
        let mut scored: Vec<Scored> = Vec::new();
        let mut next: Vec<usize> = Vec::new(); // escalate unconditionally
        for (pos, &index) in undecided.iter().enumerate() {
            if let Err(i) = budget.check() {
                // Mid-tier exhaustion: this tier's partial scores are
                // discarded; earlier completed tiers carry the
                // degraded answer.
                if !has_decided!() {
                    return Err(i);
                }
                degraded = true;
                break 'tiers;
            }
            let Ok(vectors) = plan.vectors(pos, &fused) else {
                // A pair can fail at a small tier (e.g. the rejection
                // sampler's draw budget scales with m) yet succeed at
                // the full size; only the final round's verdict on
                // failures is authoritative.
                next.push(index);
                continue;
            };
            let Some(c_m) = score_bound(&vectors, cfg_m.statistic) else {
                next.push(index);
                continue;
            };
            let result = plan.result_from_vectors(pos, &vectors);
            let m_eff = result.n_refs;
            let n_eff = result.population_size.map_or(n, |p| n.min(p));
            let (u_m, u_n) = match cfg_m.statistic {
                Statistic::KendallTau => (untied_kendall_scale(m_eff), untied_kendall_scale(n_eff)),
                Statistic::SpearmanRho => (spearman_scale(m_eff), spearman_scale(n_eff)),
            };
            if c_m <= 0.0 || u_m <= 0.0 || m_eff < 2 {
                // Degenerate sample (all tied / too small): no usable
                // estimate, keep sampling.
                next.push(index);
                continue;
            }
            // Tie-penalty projection: carry the observed/untied scale
            // ratio forward instead of assuming a tie-free future.
            let scale_n = (c_m / u_m) * u_n;
            let score_m = direction_score(&result.outcome);
            let ci = projected_score_interval(score_m, c_m, scale_n, m_eff, eps);
            scored.push(Scored { index, ci, result });
        }

        // K-th-largest lower/upper cutoffs over every still-alive
        // candidate: scored intervals, frozen IN points, and the
        // unconditional escalators as (−∞, +∞) unknowns.
        let alive = scored.len() + next.len() + frozen.len();
        let mut survivors: Vec<Scored> = Vec::new();
        if alive > k {
            let mut lows: Vec<f64> = scored.iter().map(|s| s.ci.lo).collect();
            let mut highs: Vec<f64> = scored.iter().map(|s| s.ci.hi).collect();
            lows.extend(frozen.iter().map(|f| f.score));
            highs.extend(frozen.iter().map(|f| f.score));
            lows.extend(std::iter::repeat_n(f64::NEG_INFINITY, next.len()));
            highs.extend(std::iter::repeat_n(f64::INFINITY, next.len()));
            lows.sort_by(|a, b| cmp_score_desc(*a, *b));
            highs.sort_by(|a, b| cmp_score_desc(*a, *b));
            let cutoff_lo = lows[k - 1];
            let cutoff_hi = highs[k - 1];
            for s in scored {
                if s.ci.hi < cutoff_lo {
                    // ≥ K candidates are confidently better: out.
                    pruned += 1;
                } else if s.ci.lo > cutoff_hi {
                    // Confidently ahead of the K-th upper bound: in,
                    // score frozen at the projected point estimate.
                    frozen.push(FrozenIn {
                        index: s.index,
                        score: s.ci.point,
                        result: s.result,
                        decided_at_n: m,
                    });
                } else {
                    survivors.push(s);
                }
            }
        } else {
            // K or fewer candidates left: every survivor will be
            // reported, so keep refining them all.
            survivors = scored;
        }
        next.extend(survivors.iter().map(|s| s.index));
        // This tier completed: its survivors' projected point
        // estimates become the degradation fallback should the budget
        // die before the next tier finishes.
        last_estimates = survivors
            .into_iter()
            .map(|s| (s.ci.point, s.index, s.result, m))
            .collect();
        last_tier_wall = tier_start.elapsed();
        next.sort_unstable();
        undecided = next;
    }

    // Merge frozen IN pairs with final-round survivors and rank with
    // the exact executor's deterministic comparator. A degraded run
    // additionally falls back to the last completed tier's projected
    // estimates for every pair nothing later decided.
    if degraded {
        let decided: HashSet<usize> = frozen
            .iter()
            .map(|f| f.index)
            .chain(computed.iter().map(|c| c.1))
            .collect();
        computed.extend(
            last_estimates
                .into_iter()
                .filter(|e| !decided.contains(&e.1)),
        );
    }
    computed.extend(
        frozen
            .into_iter()
            .map(|f| (f.score, f.index, f.result, f.decided_at_n)),
    );
    computed.sort_by(|a, b| {
        cmp_score_desc(a.0, b.0)
            .then_with(|| req.pairs[a.1].label.cmp(&req.pairs[b.1].label))
            .then_with(|| seeds[a.1].cmp(&seeds[b.1]))
            .then(a.1.cmp(&b.1))
    });
    computed.truncate(k);
    let ranked = computed
        .into_iter()
        .enumerate()
        .map(|(pos, (score, index, result, decided_at_n))| RankEntry {
            rank: pos + 1,
            index,
            label: req.pairs[index].label.clone(),
            score,
            result,
            decided_at_n,
        })
        .collect();
    Ok(RankReport {
        ranked,
        pruned,
        failed,
        candidates: req.pairs.len(),
        distinct_refs,
        sampled_refs,
        fused_bfs,
        threads,
        rounds,
        degraded,
        interrupted: None,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TescConfig;
    use crate::rank::{rank_pairs, RankMode};
    use crate::sampler::{mask_sample, reach_mask, rejection_sample, whole_graph_sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tesc_events::NodeMask;
    use tesc_graph::generators::barabasi_albert;
    use tesc_graph::{BfsScratch, Budget, VicinityIndex};
    use tesc_stats::Tail;

    #[test]
    fn schedule_doubles_and_ends_at_n() {
        assert_eq!(
            escalation_schedule(300, SamplerKind::BatchBfs),
            [75, 150, 300]
        );
        assert_eq!(escalation_schedule(120, SamplerKind::Rejection), [60, 120]);
        assert_eq!(escalation_schedule(80, SamplerKind::WholeGraph), [80]);
        assert_eq!(
            escalation_schedule(1024, SamplerKind::BatchBfs),
            [64, 128, 256, 512, 1024]
        );
        // Importance sampling has no prefix property: single tier.
        assert_eq!(
            escalation_schedule(400, SamplerKind::Importance { batch_size: 3 }),
            [400]
        );
    }

    /// The sample-prefix contract, at the sampler level: for every
    /// uniform sampler, the first m nodes drawn for target size m are
    /// bit-identical to the first m nodes drawn for any larger target
    /// from the same seed.
    #[test]
    fn uniform_samplers_are_prefix_stable() {
        let g = barabasi_albert(800, 4, &mut StdRng::seed_from_u64(3));
        let idx = VicinityIndex::build(&g, 2);
        let events: Vec<u32> = (0..40u32).collect();
        let mask = NodeMask::from_nodes(g.num_nodes(), &events);
        let mut scratch = BfsScratch::new(g.num_nodes());
        let population = reach_mask(&g, &mut scratch, &events, 2, &Budget::unlimited()).unwrap();
        for seed in 0..5u64 {
            for (m, full) in [(50usize, 100usize), (75, 300), (100, 400)] {
                let small = mask_sample(&population, m, &mut StdRng::seed_from_u64(seed));
                let big = mask_sample(&population, full, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    small.nodes[..],
                    big.nodes[..m],
                    "batch_bfs seed {seed} m {m}"
                );

                let small = rejection_sample(
                    &g,
                    &mut scratch,
                    &events,
                    &mask,
                    &idx,
                    2,
                    m,
                    40 * m,
                    &mut StdRng::seed_from_u64(seed),
                );
                let big = rejection_sample(
                    &g,
                    &mut scratch,
                    &events,
                    &mask,
                    &idx,
                    2,
                    full,
                    40 * full,
                    &mut StdRng::seed_from_u64(seed),
                );
                assert_eq!(
                    small.nodes[..],
                    big.nodes[..m],
                    "rejection seed {seed} m {m}"
                );

                let small = whole_graph_sample(&population, m, &mut StdRng::seed_from_u64(seed));
                let big = whole_graph_sample(&population, full, &mut StdRng::seed_from_u64(seed));
                assert_eq!(
                    small.nodes[..],
                    big.nodes[..m],
                    "whole_graph seed {seed} m {m}"
                );
            }
        }
    }

    #[test]
    fn eps_zero_matches_exact_and_larger_eps_decides_early() {
        let g = barabasi_albert(1500, 4, &mut StdRng::seed_from_u64(7));
        let engine = TescEngine::new(&g);
        let mut req = RankRequest::new(
            TescConfig::new(1)
                .with_sample_size(240)
                .with_tail(Tail::Upper),
        )
        .with_seed(11)
        .with_threads(1)
        .with_top_k(3);
        // Three strongly attracted pairs (heavily overlapping blocks)
        // and seven near-independent ones (disjoint peripheral
        // blocks): the score spread a permissive eps can exploit.
        for i in 0..3u32 {
            let base = i * 40;
            req = req.with_pair(EventPair::new(
                format!("strong{i}"),
                (base..base + 50).collect(),
                (base + 10..base + 60).collect(),
            ));
        }
        for i in 0..7u32 {
            let (a, b) = (400 + i * 80, 1000 + i * 60);
            req = req.with_pair(EventPair::new(
                format!("null{i}"),
                (a..a + 40).collect(),
                (b..b + 40).collect(),
            ));
        }
        let exact = rank_pairs(&engine, &req);
        let zero = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(0.0)));
        assert_eq!(zero.rounds, 3, "240 → tiers [60, 120, 240]");
        assert_eq!(exact.ranked.len(), zero.ranked.len());
        for (e, z) in exact.ranked.iter().zip(&zero.ranked) {
            assert_eq!(e.label, z.label);
            assert_eq!(e.score.to_bits(), z.score.to_bits());
            assert_eq!(e.result, z.result);
            assert_eq!(z.decided_at_n, 240, "eps = 0 never decides early");
        }
        // A permissive eps decides some pairs before the full tier and
        // therefore samples fewer reference nodes in total.
        let loose = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(0.4)));
        assert!(
            loose.sampled_refs < zero.sampled_refs,
            "eps 0.4 sampled {} refs, eps 0 sampled {}",
            loose.sampled_refs,
            zero.sampled_refs
        );
        assert!(loose
            .ranked
            .iter()
            .all(|e| e.decided_at_n <= 240 && e.decided_at_n >= 60));
    }

    #[test]
    fn anytime_without_top_k_runs_exact() {
        let g = barabasi_albert(600, 3, &mut StdRng::seed_from_u64(9));
        let engine = TescEngine::new(&g);
        let req = RankRequest::new(TescConfig::new(1).with_sample_size(100))
            .with_threads(1)
            .with_mode(RankMode::anytime(0.2))
            .with_pair(EventPair::new("a", (0..20).collect(), (5..25).collect()));
        let report = rank_pairs(&engine, &req);
        assert_eq!(report.rounds, 1, "no cutoff → exact single pass");
        assert_eq!(report.ranked.len(), 1);
        assert_eq!(report.ranked[0].decided_at_n, 100);
    }

    #[test]
    #[should_panic(expected = "eps must be in [0, 1)")]
    fn out_of_range_eps_rejected() {
        let _ = RankMode::anytime(1.0);
    }
}
