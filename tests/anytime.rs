//! Anytime ranking property suite: the progressive executor's three
//! contracts, asserted on seeded scenarios.
//!
//! * **eps = 0 is exact, bit for bit.** With an infinite confidence
//!   interval nothing is decided early, every pair reaches the full
//!   sample size, and the anytime top-K must be bit-identical to the
//!   exact ranking — across the kernel × cache × thread
//!   matrix and across every sampler (importance bypasses the
//!   progressive tiers entirely).
//! * **Monotonicity.** Shrinking eps widens the intervals, postpones
//!   decisions and can only move the output *toward* exact: on a fixed
//!   seed set, recall@K against the exact top-K never decreases as eps
//!   shrinks.
//! * **Sample-prefix contract.** Escalation extends a pair's sample
//!   rather than resampling: for every escalation tier m of the
//!   schedule, the m-prefix of the full-n reference sample drawn from
//!   the pair's content seed is bit-identical to the tier-m sample.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::batch::EventPair;
use tesc::rank::{content_seed, rank_pairs, RankMode, RankRequest};
use tesc::sampler::{batch_bfs_sample, mask_sample, reach_mask, whole_graph_sample};
use tesc::{
    escalation_schedule, BfsKernel, DensityCache, SamplerKind, Tail, TescConfig, TescEngine,
    VicinityIndex,
};
use tesc_graph::{BfsScratch, Budget, NodeId};

use tesc_datasets::{DblpConfig, DblpScenario, TwitterConfig, TwitterScenario};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A shared-event candidate list on the DBLP scenario (the planner's
/// target shape, mirroring tests/ranking.rs).
fn candidate_pairs(s: &DblpScenario, seed: u64) -> Vec<EventPair> {
    let (base_a, base_b) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(seed));
    let mut pairs = vec![EventPair::new("base", base_a.clone(), base_b.clone())];
    for i in 0..5 {
        let (_, partner) = s.plant_positive_keyword_pair(12, 10, 0.4, &mut rng(seed + 1 + i));
        pairs.push(EventPair::new(
            format!("base×p{i}"),
            base_a.clone(),
            partner,
        ));
    }
    for i in 0..4 {
        let a = s.plant_uniform_keyword(60, &mut rng(seed + 10 + i));
        let b = s.plant_uniform_keyword(60, &mut rng(seed + 20 + i));
        pairs.push(EventPair::new(format!("bg{i}"), a, b));
    }
    pairs
}

/// (label, score bits, z bits) fingerprint of a ranking.
fn fingerprint(report: &tesc::RankReport) -> Vec<(String, u64, u64)> {
    report
        .ranked
        .iter()
        .map(|e| (e.label.clone(), e.score.to_bits(), e.result.z().to_bits()))
        .collect()
}

#[test]
fn eps_zero_bit_identical_across_kernel_cache_threads() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(60));
    let pairs = candidate_pairs(&s, 61);
    let cfg = TescConfig::new(2)
        .with_sample_size(300)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg)
        .with_seed(8)
        .with_top_k(4)
        .with_pairs(pairs);
    let plain = TescEngine::new(&s.graph);
    let reference = fingerprint(&rank_pairs(&plain, &req.clone().with_threads(1)));
    assert_eq!(reference.len(), 4);
    let cache = std::sync::Arc::new(DensityCache::for_graph(&s.graph));
    let configurations: Vec<(&str, TescEngine<'_>)> = vec![
        ("plain", TescEngine::new(&s.graph)),
        (
            "scalar kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Scalar),
        ),
        (
            "bitset kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Bitset),
        ),
        (
            "multi kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Multi),
        ),
        (
            "cache cold",
            TescEngine::new(&s.graph).with_density_cache(cache.clone()),
        ),
        (
            "cache warm",
            TescEngine::new(&s.graph).with_density_cache(cache),
        ),
    ];
    let anytime = req.clone().with_mode(RankMode::anytime(0.0));
    for (name, engine) in &configurations {
        for threads in [1usize, 4] {
            let report = rank_pairs(engine, &anytime.clone().with_threads(threads));
            assert_eq!(
                &reference,
                &fingerprint(&report),
                "{name} @ {threads} threads: anytime(0) diverged from exact"
            );
            assert!(report.rounds > 1, "{name}: progressive tiers must run");
            for e in &report.ranked {
                assert_eq!(
                    e.decided_at_n, 300,
                    "{name}: eps = 0 must never decide early"
                );
            }
        }
    }
}

#[test]
fn eps_zero_bit_identical_for_every_sampler() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(70));
    let idx = VicinityIndex::build(&s.graph, 2);
    let engine = TescEngine::with_vicinity_index(&s.graph, &idx);
    let pairs = candidate_pairs(&s, 71);
    for sampler in [
        SamplerKind::BatchBfs,
        SamplerKind::Rejection,
        SamplerKind::Importance { batch_size: 3 },
        SamplerKind::WholeGraph,
    ] {
        let cfg = TescConfig::new(2)
            .with_sample_size(200)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        let req = RankRequest::new(cfg)
            .with_seed(5)
            .with_threads(1)
            .with_top_k(3)
            .with_pairs(pairs.clone());
        let exact = rank_pairs(&engine, &req);
        let zero = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(0.0)));
        assert_eq!(
            fingerprint(&exact),
            fingerprint(&zero),
            "{sampler}: anytime(0) diverged from exact"
        );
        if matches!(sampler, SamplerKind::Importance { .. }) {
            assert_eq!(zero.rounds, 1, "{sampler}: importance bypasses the tiers");
        }
    }
}

/// Recall@K of a candidate ranking against the exact top-K label set.
fn recall_vs_exact(exact: &tesc::RankReport, candidate: &tesc::RankReport, k: usize) -> f64 {
    let top: Vec<&str> = exact
        .ranked
        .iter()
        .take(k)
        .map(|e| e.label.as_str())
        .collect();
    let hit = candidate
        .ranked
        .iter()
        .take(k)
        .filter(|e| top.contains(&e.label.as_str()))
        .count();
    hit as f64 / k.min(top.len()).max(1) as f64
}

#[test]
fn shrinking_eps_never_lowers_recall() {
    // Twitter-like all-pairs workload: a few planted strong pairs in a
    // sea of background pairs — the shape where escalation skew and
    // therefore eps actually matter.
    let s = TwitterScenario::build(TwitterConfig::small(), &mut rng(80));
    let mut pairs = Vec::new();
    for i in 0..5u64 {
        let (a, b) = s.plant_correlated_pair(40, 1, &mut rng(81 + i));
        pairs.push(EventPair::new(format!("hot{i}"), a, b));
    }
    for i in 0..20u64 {
        let (a, b) = s.plant_background_pair(40, &mut rng(90 + i));
        pairs.push(EventPair::new(format!("bg{i:02}"), a, b));
    }
    let cfg = TescConfig::new(1)
        .with_sample_size(400)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg)
        .with_seed(17)
        .with_threads(1)
        .with_top_k(10)
        .with_pairs(pairs);
    let exact = rank_pairs(&TescEngine::new(&s.graph), &req);
    let engine = TescEngine::new(&s.graph);
    // eps from permissive to zero: recall must be non-decreasing.
    let mut last = -1.0f64;
    for eps in [0.5, 0.2, 0.05, 0.0] {
        let report = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(eps)));
        let recall = recall_vs_exact(&exact, &report, 10);
        assert!(
            recall >= last,
            "recall dropped from {last} to {recall} when eps shrank to {eps}"
        );
        last = recall;
    }
    assert_eq!(last, 1.0, "eps = 0 must reproduce the exact top-K");
}

#[test]
fn escalation_extends_the_sample_prefix() {
    // For every tier m of the escalation schedule, the reference
    // sample a pair draws at tier m is the m-prefix of the sample the
    // exact run draws at full n — from the pair's own content seed,
    // exactly as the planner replays it.
    let s = TwitterScenario::build(TwitterConfig::small(), &mut rng(100));
    let g = &s.graph;
    let mut scratch = BfsScratch::new(g.num_nodes());
    let n = 400usize;
    let h = 1u32;
    let master = 33u64;
    let schedule = escalation_schedule(n, SamplerKind::BatchBfs);
    assert_eq!(*schedule.last().unwrap(), n);
    assert!(schedule.len() >= 3, "n = 400 must yield several tiers");
    for i in 0..6u64 {
        let (a, b) = if i % 2 == 0 {
            s.plant_correlated_pair(40, 1, &mut rng(101 + i))
        } else {
            s.plant_background_pair(40, &mut rng(101 + i))
        };
        let mut union: Vec<NodeId> = a.iter().chain(&b).copied().collect();
        union.sort_unstable();
        union.dedup();
        let seed = content_seed(master, &a, &b);
        // The population the engine draws from: V^h_a ∪ V^h_b as a
        // bitmap. Its draw equals the per-pair Batch BFS oracle.
        let unlimited = Budget::unlimited();
        let population = reach_mask(g, &mut scratch, &a, h, &unlimited)
            .unwrap()
            .union(&reach_mask(g, &mut scratch, &b, h, &unlimited).unwrap());
        let full = mask_sample(&population, n, &mut rng(seed));
        assert_eq!(
            full,
            batch_bfs_sample(g, &mut scratch, &union, h, n, &mut rng(seed)),
            "pair {i}: mask draw differs from the Batch BFS oracle"
        );
        for &m in &schedule {
            let tier = mask_sample(&population, m, &mut rng(seed));
            let len = tier.nodes.len().min(full.nodes.len());
            assert_eq!(
                tier.nodes[..len],
                full.nodes[..len],
                "pair {i}: tier {m} is not a prefix of the full sample"
            );
        }
        // Whole-graph sampling obeys the same contract.
        let full = whole_graph_sample(&population, n, &mut rng(seed));
        for &m in &schedule {
            let tier = whole_graph_sample(&population, m, &mut rng(seed));
            let len = tier.nodes.len().min(full.nodes.len());
            assert_eq!(
                tier.nodes[..len],
                full.nodes[..len],
                "pair {i}: whole-graph tier {m} is not a prefix"
            );
        }
    }
}

#[test]
fn anytime_speedup_mechanics_on_allpairs() {
    // At a practical eps the progressive run must sample measurably
    // fewer reference nodes than exact while keeping the podium.
    let s = TwitterScenario::build(TwitterConfig::small(), &mut rng(110));
    let mut pairs = Vec::new();
    for i in 0..3u64 {
        let (a, b) = s.plant_correlated_pair(40, 1, &mut rng(111 + i));
        pairs.push(EventPair::new(format!("hot{i}"), a, b));
    }
    for i in 0..17u64 {
        let (a, b) = s.plant_background_pair(40, &mut rng(120 + i));
        pairs.push(EventPair::new(format!("bg{i:02}"), a, b));
    }
    let cfg = TescConfig::new(1)
        .with_sample_size(400)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg)
        .with_seed(23)
        .with_threads(1)
        .with_top_k(3)
        .with_pairs(pairs);
    let engine = TescEngine::new(&s.graph);
    let exact = rank_pairs(&engine, &req);
    let fast = rank_pairs(&engine, &req.clone().with_mode(RankMode::anytime(0.1)));
    assert!(
        (fast.mean_samples_per_pair()) < 0.7 * exact.mean_samples_per_pair(),
        "anytime sampled {:.0}/pair, exact {:.0}/pair",
        fast.mean_samples_per_pair(),
        exact.mean_samples_per_pair()
    );
    assert!(fast.rounds > 1);
    assert!(
        fast.ranked.iter().any(|e| e.decided_at_n < 400) || fast.pruned > 0,
        "some decision must land before the full tier"
    );
    // The strong pairs stay on the podium.
    let exact_top: Vec<&str> = exact.ranked.iter().map(|e| e.label.as_str()).collect();
    for e in &fast.ranked {
        assert!(
            exact_top.contains(&e.label.as_str()),
            "{} not in the exact top-3",
            e.label
        );
    }
}

/// The anytime tiers on a candidate list `Auto` resolves from the
/// **event side** (private 20-node events on a preferential-attachment
/// graph, index to depth 2): every tier's density pass takes that
/// route, and the reports — ranking, decided-at sizes, round count —
/// must equal the `Scalar` engine's bit for bit, for every sampler,
/// with the cache cold and warm, at 1 and 4 threads.
#[test]
fn event_side_tiers_bit_identical_to_scalar_engine() {
    use rand::Rng;
    let g = tesc_graph::generators::barabasi_albert(3000, 3, &mut rng(120));
    let idx = VicinityIndex::build(&g, 2);
    let mut r = rng(121);
    let mut event =
        |base: u32| -> Vec<NodeId> { (0..20).map(|_| base + r.gen_range(0..300u32)).collect() };
    let pairs: Vec<EventPair> = (0..8u32)
        .map(|i| EventPair::new(format!("p{i}"), event(300 * i), event(300 * i + 150)))
        .collect();
    // The route of a full-size pass, pinned through the traversal
    // count: one ≤ 64-lane chunk per event.
    {
        use tesc::planner::PairSetPlan;
        let cfg = TescConfig::new(2).with_sample_size(240);
        let seeds: Vec<u64> = pairs.iter().map(|p| content_seed(4, &p.a, &p.b)).collect();
        let engine = TescEngine::with_vicinity_index(&g, &idx);
        let plan = PairSetPlan::build(&engine, &pairs, &cfg, &seeds, 1);
        assert_eq!(plan.run_density(1).traversals(), plan.num_events() as u64);
    }
    for sampler in [
        SamplerKind::BatchBfs,
        SamplerKind::Rejection,
        SamplerKind::Importance { batch_size: 3 },
        SamplerKind::WholeGraph,
    ] {
        let cfg = TescConfig::new(2)
            .with_sample_size(240)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        let req = RankRequest::new(cfg)
            .with_seed(4)
            .with_top_k(3)
            .with_pairs(pairs.clone());
        let scalar =
            TescEngine::with_vicinity_index(&g, &idx).with_density_kernel(BfsKernel::Scalar);
        let exact = fingerprint(&rank_pairs(&scalar, &req));
        for eps in [0.0, 0.2] {
            let anytime = req.clone().with_mode(RankMode::anytime(eps));
            let want = rank_pairs(&scalar, &anytime);
            if eps == 0.0 {
                assert_eq!(exact, fingerprint(&want), "{sampler}: anytime(0) = exact");
            }
            let cache = std::sync::Arc::new(DensityCache::for_graph(&g));
            for round in ["cold", "warm"] {
                for threads in [1usize, 4] {
                    let engine =
                        TescEngine::with_vicinity_index(&g, &idx).with_density_cache(cache.clone());
                    let got = rank_pairs(&engine, &anytime.clone().with_threads(threads));
                    let ctx = format!("{sampler}: eps={eps} cache {round} @ {threads}t");
                    assert_eq!(fingerprint(&want), fingerprint(&got), "{ctx}");
                    assert_eq!(want.rounds, got.rounds, "{ctx}: rounds");
                    let decided = |rep: &tesc::RankReport| -> Vec<usize> {
                        rep.ranked.iter().map(|e| e.decided_at_n).collect()
                    };
                    assert_eq!(decided(&want), decided(&got), "{ctx}: decided_at_n");
                }
            }
        }
    }
}
