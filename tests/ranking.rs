//! Ranking determinism and bit-identity: seeded property tests for the
//! pair-set planner and the top-K ranking subsystem.
//!
//! The contracts under test:
//!
//! * **Bit-identity.** Ranking a pair set through the fused planner
//!   produces per-pair scores bit-identical to independent
//!   `TescEngine::test` runs seeded with each pair's content seed —
//!   for all five samplers — and `run_batch` (planner-backed at > 1
//!   thread) stays bit-identical to the per-pair executors.
//! * **Permutation invariance.** Seeds are content-addressed, so
//!   shuffling the candidate list must not change a single ranked bit.
//! * **Schedule invariance.** Thread count (1 vs 4) and the
//!   kernel × cache engine configuration are pure
//!   performance knobs: identical rankings everywhere.
//! * **Top-K soundness.** `with_top_k(k)` returns exactly the first k
//!   entries of the full ranking — the significance-budget early exit
//!   never prunes a true top-K member.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tesc::batch::{run_batch, run_batch_serial, BatchRequest, EventPair};
use tesc::rank::{content_seed, rank_pairs, RankRequest};
use tesc::{BfsKernel, DensityCache, SamplerKind, Tail, TescConfig, TescEngine, VicinityIndex};
use tesc_datasets::{DblpConfig, DblpScenario};

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

/// A shared-event candidate list: one base keyword against several
/// partners plus an extra cross pair, the planner's target shape.
fn candidate_pairs(s: &DblpScenario, seed: u64) -> Vec<EventPair> {
    let (base_a, base_b) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(seed));
    let mut pairs = vec![EventPair::new("base", base_a.clone(), base_b.clone())];
    for i in 0..3 {
        let (_, partner) = s.plant_positive_keyword_pair(12, 10, 0.4, &mut rng(seed + 1 + i));
        pairs.push(EventPair::new(
            format!("base×p{i}"),
            base_a.clone(),
            partner,
        ));
    }
    pairs.push(EventPair::new("cross", base_b, pairs[1].b.clone()));
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
fn rank_scores_bit_identical_to_per_pair_engine_for_every_sampler() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(1));
    let idx = VicinityIndex::build(&s.graph, 2);
    let engine = TescEngine::with_vicinity_index(&s.graph, &idx);
    let pairs = candidate_pairs(&s, 2);
    let master = 99u64;
    for sampler in all_samplers() {
        let cfg = TescConfig::new(2)
            .with_sample_size(150)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        let req = RankRequest::new(cfg)
            .with_seed(master)
            .with_pairs(pairs.clone());
        for threads in [1usize, 4] {
            let report = rank_pairs(&engine, &req.clone().with_threads(threads));
            assert_eq!(report.ranked.len(), pairs.len(), "{sampler}");
            for e in &report.ranked {
                let p = &pairs[e.index];
                let direct = engine
                    .test(
                        &p.a,
                        &p.b,
                        &cfg,
                        &mut StdRng::seed_from_u64(content_seed(master, &p.a, &p.b)),
                    )
                    .unwrap();
                assert_eq!(
                    direct.z().to_bits(),
                    e.result.z().to_bits(),
                    "{sampler} @ {threads}t: {} diverged from the engine path",
                    e.label
                );
                assert_eq!(&direct, &e.result, "{sampler} @ {threads}t: {}", e.label);
            }
        }
    }
}

#[test]
fn ranking_invariant_under_pair_list_permutation() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(10));
    let engine = TescEngine::new(&s.graph);
    let pairs = candidate_pairs(&s, 11);
    let cfg = TescConfig::new(2)
        .with_sample_size(150)
        .with_tail(Tail::Upper);
    let reference = fingerprint(&rank_pairs(
        &engine,
        &RankRequest::new(cfg).with_seed(3).with_pairs(pairs.clone()),
    ));
    for shuffle_seed in 0..4u64 {
        let mut shuffled = pairs.clone();
        shuffled.shuffle(&mut rng(100 + shuffle_seed));
        let got = fingerprint(&rank_pairs(
            &engine,
            &RankRequest::new(cfg)
                .with_seed(3)
                .with_pairs(shuffled.clone()),
        ));
        assert_eq!(
            reference, got,
            "permutation {shuffle_seed} changed the ranking"
        );
        // Top-K through the early exit must also be order-free.
        let top = rank_pairs(
            &engine,
            &RankRequest::new(cfg)
                .with_seed(3)
                .with_top_k(2)
                .with_pairs(shuffled),
        );
        assert_eq!(
            fingerprint(&top),
            reference[..2].to_vec(),
            "permutation {shuffle_seed} changed the top-2"
        );
    }
}

#[test]
fn ranking_invariant_under_threads_kernel_and_cache() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(20));
    let pairs = candidate_pairs(&s, 21);
    let cfg = TescConfig::new(2)
        .with_sample_size(150)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg).with_seed(5).with_pairs(pairs);
    let plain = TescEngine::new(&s.graph);
    let reference = fingerprint(&rank_pairs(&plain, &req.clone().with_threads(1)));
    let cache = std::sync::Arc::new(DensityCache::for_graph(&s.graph));
    let configurations: Vec<(&str, TescEngine<'_>)> = vec![
        (
            "scalar kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Scalar),
        ),
        (
            "bitset kernel",
            TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Bitset),
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
    for (name, engine) in &configurations {
        for threads in [1usize, 4] {
            let got = fingerprint(&rank_pairs(engine, &req.clone().with_threads(threads)));
            assert_eq!(
                &reference, &got,
                "{name} @ {threads} threads changed the ranking"
            );
        }
    }
}

#[test]
fn top_k_prefix_property_holds_across_seeds() {
    // Seeded mini-property test: for a spread of master seeds, the
    // top-K ranking equals the truncated full ranking, scores are
    // descending, and ranks are 1..=len.
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(30));
    let engine = TescEngine::new(&s.graph);
    let pairs = candidate_pairs(&s, 31);
    let cfg = TescConfig::new(1)
        .with_sample_size(120)
        .with_tail(Tail::Upper);
    for master in 0..8u64 {
        let req = RankRequest::new(cfg)
            .with_seed(master)
            .with_pairs(pairs.clone());
        let full = rank_pairs(&engine, &req);
        assert_eq!(full.pruned, 0);
        for (i, e) in full.ranked.iter().enumerate() {
            assert_eq!(e.rank, i + 1, "ranks are 1-based and dense");
        }
        for w in full.ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "seed {master}: descending scores");
        }
        for k in [1usize, 2, full.ranked.len()] {
            let top = rank_pairs(&engine, &req.clone().with_top_k(k));
            assert_eq!(
                fingerprint(&top),
                fingerprint(&full)[..k].to_vec(),
                "seed {master}: top-{k} is not the full prefix"
            );
        }
    }
}

#[test]
fn batch_executors_agree_on_shared_event_lists() {
    // The planner-backed run_batch and the serial reference (one
    // engine test per pair) must agree bit-for-bit on the ranking
    // bench's workload shape (index-derived seeds here — the batch
    // contract).
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(40));
    let engine = TescEngine::new(&s.graph);
    let req = BatchRequest::new(TescConfig::new(2).with_sample_size(150))
        .with_seed(77)
        .with_pairs(candidate_pairs(&s, 41));
    let serial = run_batch_serial(&engine, &req);
    for threads in [2usize, 4] {
        let fused = run_batch(&engine, &req.clone().with_threads(threads));
        assert_eq!(serial.outcomes, fused.outcomes, "planner path @ {threads}t");
    }
}

#[test]
fn content_seeds_are_stable_across_label_and_representation() {
    // The ranking seed depends on occurrence *content* only: labels,
    // duplicates and ordering are irrelevant, so equal-content pairs
    // rank identically even under different names.
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(50));
    let engine = TescEngine::new(&s.graph);
    let (va, vb) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(51));
    let mut shuffled_a = va.clone();
    shuffled_a.shuffle(&mut rng(52));
    shuffled_a.extend(va.iter().copied().take(5)); // duplicates
    let cfg = TescConfig::new(2)
        .with_sample_size(150)
        .with_tail(Tail::Upper);
    let report = rank_pairs(
        &engine,
        &RankRequest::new(cfg)
            .with_seed(9)
            .with_pair(EventPair::new("canonical", va, vb.clone()))
            .with_pair(EventPair::new("aliased", shuffled_a, vb)),
    );
    assert_eq!(report.ranked.len(), 2);
    assert_eq!(
        report.ranked[0].result, report.ranked[1].result,
        "equal content ⇒ equal sample ⇒ equal result"
    );
    // And randomized pair sets never produce NaN/absurd scores.
    let mut r = rng(53);
    for _ in 0..8 {
        let n = s.graph.num_nodes() as u32;
        let a: Vec<u32> = (0..30).map(|_| r.gen_range(0..n)).collect();
        let b: Vec<u32> = (0..30).map(|_| r.gen_range(0..n)).collect();
        let rep = rank_pairs(
            &engine,
            &RankRequest::new(cfg)
                .with_seed(9)
                .with_pair(EventPair::new("rand", a, b)),
        );
        for e in &rep.ranked {
            assert!(e.score.is_finite());
        }
    }
}

#[test]
fn doomed_budget_storm_never_poisons_shared_caches() {
    // Satellite (robustness PR): interrupted runs must unwind without
    // publishing partial state. A storm of budget-doomed rankings —
    // deadlines from "already expired" to "dies mid-run", exact and
    // anytime, all sharing one density cache — must leave that cache
    // exactly as consistent as before: the same request re-run without
    // a budget afterwards is bit-identical to a clean engine that
    // never saw an interruption.
    use std::time::Duration;
    use tesc::rank::RankMode;
    use tesc::{Budget, DensityCache, TescError};

    let s = DblpScenario::build(DblpConfig::small(), &mut rng(70));
    let idx = VicinityIndex::build(&s.graph, 2);
    let cache = std::sync::Arc::new(DensityCache::for_graph(&s.graph));
    let pairs = candidate_pairs(&s, 71);
    let cfg = TescConfig::new(2)
        .with_sample_size(400)
        .with_tail(Tail::Upper);
    let exact_req = RankRequest::new(cfg)
        .with_seed(13)
        .with_threads(2)
        .with_pairs(pairs.clone());
    let anytime_req = exact_req
        .clone()
        .with_mode(RankMode::Anytime { eps: 0.2 })
        .with_top_k(2);

    // The storm: escalating deadlines so interruptions land at every
    // depth (before the first tier, mid-reach, mid-density,
    // mid-scoring), plus an explicit cancellation.
    for round in 0..10u64 {
        let doomed = TescEngine::with_vicinity_index(&s.graph, &idx)
            .with_density_cache(cache.clone())
            .with_budget(Budget::with_deadline(Duration::from_micros(round * 150)));
        for req in [&exact_req, &anytime_req] {
            if let Some(i) = rank_pairs(&doomed, req).interrupted {
                assert!(!i.cancelled, "deadline exhaustion, not cancellation");
            }
        }
    }
    let cancel = Budget::cancellable();
    cancel.cancel();
    let cancelled_engine = TescEngine::with_vicinity_index(&s.graph, &idx)
        .with_density_cache(cache.clone())
        .with_budget(cancel);
    let wrapped = rank_pairs(&cancelled_engine, &exact_req);
    let err = wrapped
        .interrupted
        .expect("a cancelled budget must interrupt");
    assert!(err.cancelled);

    // The report surfaces the same interruption as typed per-pair
    // failures instead of panicking or returning junk.
    assert!(wrapped.ranked.is_empty());
    assert_eq!(wrapped.failed.len(), pairs.len());
    assert!(wrapped
        .failed
        .iter()
        .all(|f| matches!(f.result, Err(TescError::Interrupted(i)) if i.cancelled)));

    // Stage (a) in isolation: reach BFS and draws run under the
    // engine's budget, the density pass here under none. Wherever the
    // deadline lands — before the first reach set, between two, after
    // the last — a pair either fails as interrupted or carries exactly
    // the sample a never-interrupted engine draws; nothing partial
    // leaks out of the request's reach memo.
    {
        use tesc::planner::PairSetPlan;
        let seeds: Vec<u64> = pairs.iter().map(|p| content_seed(13, &p.a, &p.b)).collect();
        let outcomes = |engine: &TescEngine<'_>| {
            let plan = PairSetPlan::build(engine, &pairs, &cfg, &seeds, 2);
            plan.finish(&plan.run_density(2))
        };
        let clean = outcomes(&TescEngine::with_vicinity_index(&s.graph, &idx));
        assert!(clean.iter().all(|o| o.result.is_ok()));
        let mut interrupted = 0usize;
        for round in 0..10u64 {
            let doomed = TescEngine::with_vicinity_index(&s.graph, &idx)
                .with_density_cache(cache.clone())
                .with_budget(Budget::with_deadline(Duration::from_micros(round * 40)));
            for (got, want) in outcomes(&doomed).iter().zip(&clean) {
                match &got.result {
                    Err(TescError::Interrupted(_)) => interrupted += 1,
                    other => assert_eq!(other, &want.result, "round {round}: {}", got.label),
                }
            }
        }
        assert!(
            interrupted >= pairs.len(),
            "a zero deadline must interrupt stage (a) for every pair"
        );
    }

    // After the storm: bit-identical to an engine that never saw it.
    let survivor = TescEngine::with_vicinity_index(&s.graph, &idx).with_density_cache(cache);
    let clean = TescEngine::with_vicinity_index(&s.graph, &idx)
        .with_density_cache(std::sync::Arc::new(DensityCache::for_graph(&s.graph)));
    assert_eq!(
        fingerprint(&rank_pairs(&survivor, &exact_req)),
        fingerprint(&rank_pairs(&clean, &exact_req)),
        "storm-surviving cache must replay the exact ranking bit for bit"
    );
    assert_eq!(
        fingerprint(&rank_pairs(&survivor, &anytime_req)),
        fingerprint(&rank_pairs(&clean, &anytime_req)),
        "storm-surviving cache must replay the anytime ranking bit for bit"
    );
}

#[test]
fn unlimited_budget_rankings_never_degrade() {
    // `degraded` is a deadline-only phenomenon: without a budget the
    // report must come back complete, whatever the mode.
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(80));
    let engine = TescEngine::new(&s.graph);
    let cfg = TescConfig::new(2)
        .with_sample_size(200)
        .with_tail(Tail::Upper);
    let req = RankRequest::new(cfg)
        .with_seed(3)
        .with_pairs(candidate_pairs(&s, 81));
    use tesc::rank::RankMode;
    for mode in [RankMode::Exact, RankMode::Anytime { eps: 0.0 }] {
        let report = rank_pairs(&engine, &req.clone().with_mode(mode).with_top_k(3));
        assert!(!report.degraded, "{mode:?} degraded without a deadline");
        assert_eq!(report.ranked.len(), 3);
    }
}

/// Candidate list on which `Auto` provably ranks from the **event
/// side**: a preferential-attachment graph, private 20-node events
/// (one shared by two pairs), 150 reference nodes per pair at `h = 2`.
fn private_event_pairs(num_nodes: u32, seed: u64) -> Vec<EventPair> {
    let mut r = rng(seed);
    let mut event = |base: u32| -> Vec<u32> {
        (0..20)
            .map(|_| (base + r.gen_range(0..300u32)) % num_nodes)
            .collect()
    };
    let shared = event(50);
    let mut pairs: Vec<EventPair> = (0..5u32)
        .map(|i| EventPair::new(format!("p{i}"), event(400 * i), event(400 * i + 200)))
        .collect();
    pairs.push(EventPair::new(
        "shared×p0",
        shared.clone(),
        pairs[0].b.clone(),
    ));
    pairs.push(EventPair::new("shared×p1", shared, pairs[1].a.clone()));
    pairs
}

fn normalized_len(nodes: &[u32]) -> usize {
    let mut v = nodes.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

#[test]
fn event_side_ranking_bit_identical_to_scalar_across_cache_threads_samplers() {
    use tesc::planner::PairSetPlan;
    let g = tesc_graph::generators::barabasi_albert(3000, 3, &mut rng(90));
    let idx = VicinityIndex::build(&g, 2);
    let pairs = private_event_pairs(3000, 91);
    for sampler in all_samplers() {
        let cfg = TescConfig::new(2)
            .with_sample_size(150)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        let req = RankRequest::new(cfg)
            .with_seed(17)
            .with_pairs(pairs.clone());
        let scalar =
            TescEngine::with_vicinity_index(&g, &idx).with_density_kernel(BfsKernel::Scalar);
        let reference = fingerprint(&rank_pairs(&scalar, &req.clone().with_threads(1)));
        assert_eq!(reference.len(), pairs.len(), "{sampler}: every pair ranks");

        // The route, pinned through the traversal count: one chunk per
        // distinct event (plus the union sets of importance pairs),
        // identical at 1 and 4 threads.
        let seeds: Vec<u64> = pairs.iter().map(|p| content_seed(17, &p.a, &p.b)).collect();
        let auto = TescEngine::with_vicinity_index(&g, &idx);
        let mut traversals = Vec::new();
        for threads in [1usize, 4] {
            let plan = PairSetPlan::build(&auto, &pairs, &cfg, &seeds, threads);
            let fused = plan.run_density(threads);
            assert_eq!(fused.bfs_run(), plan.distinct_refs() as u64, "{sampler}");
            assert_eq!(
                fused.traversals(),
                plan.num_events() as u64,
                "{sampler} @ {threads}t: one ≤ 64-lane chunk per registered event"
            );
            traversals.push(fused.traversals());
        }
        assert_eq!(
            traversals[0], traversals[1],
            "{sampler}: route differs by threads"
        );
        assert!(pairs.iter().all(|p| normalized_len(&p.a) <= 64));

        let cache = std::sync::Arc::new(DensityCache::for_graph(&g));
        for round in ["cold", "warm"] {
            for threads in [1usize, 4] {
                let engine =
                    TescEngine::with_vicinity_index(&g, &idx).with_density_cache(cache.clone());
                let got = fingerprint(&rank_pairs(&engine, &req.clone().with_threads(threads)));
                assert_eq!(reference, got, "{sampler}: cache {round} @ {threads}t");
            }
        }
        assert!(cache.hits() > 0, "{sampler}: the warm rounds were probes");
    }
}

#[test]
fn interrupted_event_side_pass_inserts_nothing_and_the_rerun_is_bit_identical() {
    // One table over route × cache × sampler × threads. Each row runs
    // stage (a) under a cancellable engine budget, cancels it, and
    // runs stage (b): the pass must record the interruption, fail
    // every pair, and publish nothing into the cache — on every route.
    // A call site that passed an unlimited budget instead of the
    // engine's would complete here and fail the row.
    use std::time::Duration;
    use tesc::density::Route;
    use tesc::planner::PairSetPlan;
    use tesc::{Budget, TescError};
    let g = tesc_graph::generators::barabasi_albert(3000, 3, &mut rng(95));
    let idx = VicinityIndex::build(&g, 2);
    let pairs = private_event_pairs(3000, 96);
    let seeds: Vec<u64> = pairs.iter().map(|p| content_seed(23, &p.a, &p.b)).collect();
    let z_bits = |plan: &PairSetPlan<'_, '_>, fused| -> Vec<u64> {
        plan.finish(&fused)
            .into_iter()
            .map(|o| o.result.unwrap().z().to_bits())
            .collect()
    };
    let all_interrupted = |plan: &PairSetPlan<'_, '_>, fused| {
        plan.finish(&fused)
            .iter()
            .all(|o| matches!(o.result, Err(TescError::Interrupted(_))))
    };
    let routes = [
        (BfsKernel::Scalar, Route::PerNode),
        (BfsKernel::Bitset, Route::PerNode),
        (BfsKernel::Multi, Route::RefLanes),
        (BfsKernel::Auto, Route::EventLanes),
    ];
    for sampler in [
        SamplerKind::BatchBfs,
        SamplerKind::Importance { batch_size: 1 },
    ] {
        let cfg = TescConfig::new(2)
            .with_sample_size(150)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        let scalar =
            TescEngine::with_vicinity_index(&g, &idx).with_density_kernel(BfsKernel::Scalar);
        let scalar_plan = PairSetPlan::build(&scalar, &pairs, &cfg, &seeds, 1);
        let clean = z_bits(&scalar_plan, scalar_plan.run_density(1));
        for (kernel, route) in routes {
            for cached in [false, true] {
                for threads in [1usize, 4] {
                    let row = format!("{sampler} {kernel} {route:?} cache={cached} @ {threads}t");
                    let cache = std::sync::Arc::new(DensityCache::for_graph(&g));
                    let engine = |budget: Budget| {
                        let e = TescEngine::with_vicinity_index(&g, &idx)
                            .with_density_kernel(kernel)
                            .with_budget(budget);
                        if cached {
                            e.with_density_cache(cache.clone())
                        } else {
                            e
                        }
                    };
                    let state = || (cache.len(), cache.resident_bytes(), cache.bfs_invocations());
                    let before = state();

                    // Cancelled after stage (a): stage (b) interrupts.
                    let budget = Budget::cancellable();
                    let doomed = engine(budget.clone());
                    let plan = PairSetPlan::build(&doomed, &pairs, &cfg, &seeds, threads);
                    budget.cancel();
                    let fused = plan.run_density(threads);
                    assert!(
                        fused.interrupted().is_some_and(|i| i.cancelled),
                        "{row}: the pass must record the cancellation"
                    );
                    assert!(
                        all_interrupted(&plan, fused),
                        "{row}: every pair interrupted"
                    );
                    assert_eq!(
                        state(),
                        before,
                        "{row}: an interrupted pass publishes nothing"
                    );

                    // An expired deadline already fails stage (a).
                    let expired = engine(Budget::with_deadline(Duration::ZERO));
                    let plan = PairSetPlan::build(&expired, &pairs, &cfg, &seeds, threads);
                    let fused = plan.run_density(threads);
                    assert!(fused.interrupted().is_some(), "{row}: deadline-cut pass");
                    assert!(all_interrupted(&plan, fused), "{row}: deadline-cut pairs");
                    assert_eq!(
                        state(),
                        before,
                        "{row}: a deadline-cut pass publishes nothing"
                    );

                    // A fresh unlimited engine over the same cache runs
                    // the expected route and reproduces the clean run.
                    let fresh = engine(Budget::cancellable());
                    let plan = PairSetPlan::build(&fresh, &pairs, &cfg, &seeds, threads);
                    let rerun = plan.run_density(threads);
                    let want_traversals = match route {
                        Route::PerNode => plan.distinct_refs() as u64,
                        Route::RefLanes => plan.distinct_refs().div_ceil(64) as u64,
                        Route::EventLanes => plan.num_events() as u64,
                    };
                    assert_eq!(rerun.traversals(), want_traversals, "{row}: route");
                    assert_eq!(z_bits(&plan, rerun), clean, "{row}: rerun is bit-identical");
                    if cached {
                        assert_eq!(
                            cache.bfs_invocations(),
                            plan.distinct_refs() as u64,
                            "{row}"
                        );
                    }
                }
            }
        }
    }
}
