//! Bounded-cache acceptance suite: the second-chance eviction policy
//! of `DensityCache` must be *invisible* in results. Eviction may
//! only change hit rates — every cached count is a deterministic
//! integer recomputed identically after eviction, so z-scores stay
//! bit-identical across any byte budget and kernel configuration. The suite also locks down the bookkeeping
//! invariants (`fresh_inserts == entries + evictions`, resident
//! bytes under budget) and the `tesc-cli stream`-shaped regression:
//! 100+ event commits against one graph version stay under budget,
//! where the unbounded cache provably leaks past it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::cache::SLOT_BYTES;
use tesc::context::TescContext;
use tesc::planner::PairSetPlan;
use tesc::{DensityCache, EventPair, EventStore, SamplerKind, TescConfig, TescEngine};
use tesc_graph::generators::grid;
use tesc_graph::{BfsKernel, NodeId, VicinityIndex};

/// Deterministic event pairs with distinct content (so they occupy
/// distinct cache slabs) and enough overlap to exercise the pair
/// lookup path.
fn pairs() -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    (0..6u32)
        .map(|i| {
            let a: Vec<NodeId> = (i * 13..i * 13 + 30).collect();
            let b: Vec<NodeId> = (i * 13 + 15..i * 13 + 45).collect();
            (a, b)
        })
        .collect()
}

/// Run every pair twice back to back through `test(a, b, seed)` — the
/// repeat hits the slabs the first run just populated (even under a
/// tiny budget), while moving across pairs forces evictions — and
/// return the z-bit trace.
fn trace_workload(mut test: impl FnMut(&[NodeId], &[NodeId], u64) -> u64) -> Vec<u64> {
    let mut trace = Vec::new();
    for (i, (a, b)) in pairs().iter().enumerate() {
        for round in 0..2 {
            trace.push(test(a, b, (round * 100 + i) as u64));
        }
    }
    trace
}

/// The workload through one-pair [`TescEngine::test`] calls.
fn run_workload(engine: &TescEngine<'_>, cfg: &TescConfig) -> Vec<u64> {
    trace_workload(|a, b, seed| {
        let r = engine
            .test(a, b, cfg, &mut StdRng::seed_from_u64(seed))
            .expect("test");
        r.z().to_bits()
    })
}

/// One seeded test through the **planner** (a one-pair plan): the same
/// sample and the same bits as `engine.test` with that seed, but a
/// planner pass fills the cache on every route — where a one-pair
/// `engine.test` that `Auto` resolves from the event side bypasses it.
fn planned_z_bits(
    engine: &TescEngine<'_>,
    a: &[NodeId],
    b: &[NodeId],
    cfg: &TescConfig,
    seed: u64,
) -> u64 {
    let pair = EventPair::new("pair", a.to_vec(), b.to_vec());
    let plan = PairSetPlan::build(engine, &[pair], cfg, &[seed], 1);
    let fused = plan.run_density(1);
    let outcome = plan.finish(&fused).remove(0);
    outcome.result.expect("test").z().to_bits()
}

/// The workload through [`planned_z_bits`].
fn run_workload_planned(engine: &TescEngine<'_>, cfg: &TescConfig) -> Vec<u64> {
    trace_workload(|a, b, seed| planned_z_bits(engine, a, b, cfg, seed))
}

/// `(len, resident_bytes, hits, misses)` of a cache.
fn cache_state(cache: &DensityCache) -> (usize, usize, u64, u64) {
    (
        cache.len(),
        cache.resident_bytes(),
        cache.hits(),
        cache.misses(),
    )
}

/// A budget small enough to force evictions under the workload above
/// but large enough to keep several entries per shard resident.
const TINY_BUDGET: usize = 16 * (SLOT_BYTES * 4 + 400);

#[test]
fn evicted_then_recomputed_results_are_bit_identical_across_kernels() {
    let g = grid(24, 24);
    let vicinity = Arc::new(VicinityIndex::build(&g, 2));
    let cfg = TescConfig::new(2)
        .with_sample_size(120)
        .with_sampler(SamplerKind::BatchBfs);

    for kernel in [
        BfsKernel::Auto,
        BfsKernel::Scalar,
        BfsKernel::Bitset,
        BfsKernel::Multi,
    ] {
        let build = |cache: Arc<DensityCache>| {
            TescEngine::with_vicinity_arc(&g, vicinity.clone())
                .with_density_cache(cache)
                .with_density_kernel(kernel)
        };
        let unbounded = Arc::new(DensityCache::for_graph(&g));
        let bounded = Arc::new(DensityCache::for_graph_bounded(&g, TINY_BUDGET));
        let baseline = run_workload(&build(unbounded.clone()), &cfg);
        let evicting = run_workload(&build(bounded.clone()), &cfg);
        assert_eq!(
            baseline, evicting,
            "kernel {kernel:?}: eviction changed results"
        );
        assert_eq!(unbounded.evictions(), 0);
        if kernel == BfsKernel::Auto {
            // `Auto` resolves these small one-pair tests from the
            // event side, which bypasses the cache entirely; the
            // planner path fills it on the same route, so the
            // eviction half of the row is driven through that.
            assert_eq!(cache_state(&unbounded), (0, 0, 0, 0));
            assert_eq!(cache_state(&bounded), (0, 0, 0, 0));
            let planned = run_workload_planned(&build(bounded.clone()), &cfg);
            assert_eq!(baseline, planned, "planner path");
        }
        assert!(
            bounded.evictions() > 0,
            "kernel {kernel:?}: the tiny budget must actually evict \
             (resident {} of {TINY_BUDGET})",
            bounded.resident_bytes(),
        );
    }
}

#[test]
fn eviction_counters_reconcile_and_respect_the_budget() {
    let g = grid(24, 24);
    let vicinity = Arc::new(VicinityIndex::build(&g, 2));
    let cfg = TescConfig::new(2).with_sample_size(120);
    let cache = Arc::new(DensityCache::for_graph_bounded(&g, TINY_BUDGET));
    let engine = TescEngine::with_vicinity_arc(&g, vicinity).with_density_cache(cache.clone());
    // One-pair `Auto` passes run from the event side and leave the
    // cache alone...
    let bypassing = run_workload(&engine, &cfg);
    assert_eq!(
        cache_state(&cache),
        (0, 0, 0, 0),
        "event-side one-pair passes"
    );
    // ...so the fills whose books are reconciled below come from the
    // planner path (same route, same bits).
    assert_eq!(bypassing, run_workload_planned(&engine, &cfg));

    assert!(cache.evictions() > 0, "workload must trigger eviction");
    assert!(cache.hits() > 0, "surviving entries must still serve hits");
    assert!(cache.misses() > 0);
    assert_eq!(
        cache.fresh_inserts(),
        cache.len() as u64 + cache.evictions(),
        "every fresh insert is either resident or was evicted"
    );
    assert!(
        cache.resident_bytes() <= TINY_BUDGET,
        "resident {} exceeds budget {TINY_BUDGET}",
        cache.resident_bytes()
    );
    assert_eq!(cache.byte_budget(), Some(TINY_BUDGET));
}

#[test]
fn infinite_budget_reproduces_the_append_only_cache_exactly() {
    let g = grid(20, 20);
    let vicinity = Arc::new(VicinityIndex::build(&g, 2));
    let cfg = TescConfig::new(2).with_sample_size(100);

    let append_only = Arc::new(DensityCache::for_graph(&g));
    let engine =
        TescEngine::with_vicinity_arc(&g, vicinity.clone()).with_density_cache(append_only.clone());
    let baseline = run_workload(&engine, &cfg);

    // `with_cache_budget(None)` is the same unbounded policy through
    // the context path.
    let mut events = EventStore::new();
    let a = events.add_event("a", Vec::new());
    let _ = a;
    let ctx = TescContext::new(grid(20, 20), events, 2).with_cache_budget(None);
    let snap = ctx.snapshot();
    let unbounded = run_workload(&snap.engine(), &cfg);

    assert_eq!(baseline, unbounded, "budget=∞ must match today's behavior");
    let cache = snap.density_cache();
    assert_eq!(cache.byte_budget(), None);
    assert_eq!(cache.evictions(), 0, "unbounded caches never evict");
    assert_eq!(append_only.evictions(), 0);
    assert_eq!(
        cache.len(),
        append_only.len(),
        "identical workloads populate identical entry counts"
    );
    assert_eq!(cache.resident_bytes(), append_only.resident_bytes());
    assert_eq!(cache.fresh_inserts(), cache.len() as u64);
}

/// Satellite regression for the `tesc-cli stream` leak: a long replay
/// (100+ commits of event occurrences against one graph version, each
/// followed by fresh tests) keeps riding one snapshot cache. Bounded,
/// resident bytes must stay under budget at every commit; the same
/// replay on an unbounded context is the control that proves the
/// workload really leaks past the budget — and that eviction never
/// changes a single bit of the answers.
#[test]
fn stream_replay_stays_under_budget_across_100_plus_commits() {
    const COMMITS: usize = 110;
    const BUDGET: usize = 48 * 1024;

    let build_ctx = || {
        let mut events = EventStore::new();
        let probe = events.add_event("probe", (0..40).collect());
        let grow = events.add_event("grow", vec![200, 201]);
        (TescContext::new(grid(24, 24), events, 2), probe, grow)
    };
    let (bounded_ctx, probe_b, grow_b) = build_ctx();
    let bounded_ctx = bounded_ctx.with_cache_budget(Some(BUDGET));
    let (control_ctx, probe_c, grow_c) = build_ctx();

    let cfg = TescConfig::new(2).with_sample_size(80);
    let mut peak_control = 0usize;
    for i in 0..COMMITS {
        // Each commit adds occurrences, shifting the `grow` event's
        // content key — every round's densities are fresh cache slabs.
        let nodes = [(300 + i) as NodeId % 576, (i * 5) as NodeId % 576];
        let sb = bounded_ctx
            .add_event_occurrences(grow_b, &nodes)
            .expect("bounded ingest");
        let sc = control_ctx
            .add_event_occurrences(grow_c, &nodes)
            .expect("control ingest");
        assert_eq!(sb.version(), sc.version());

        // The replay's tests go through the planner, whose passes fill
        // the cache on every route.
        let seed = i as u64;
        let rb = planned_z_bits(
            &sb.engine(),
            sb.events().nodes(probe_b),
            sb.events().nodes(grow_b),
            &cfg,
            seed,
        );
        let rc = planned_z_bits(
            &sc.engine(),
            sc.events().nodes(probe_c),
            sc.events().nodes(grow_c),
            &cfg,
            seed,
        );
        assert_eq!(
            rb, rc,
            "commit {i}: bounded replay diverged from unbounded control"
        );
        // A served one-pair test of the same events: same bits, and —
        // while `grow` is still small enough for the event side to be
        // the cheaper one (the route is chosen by cost) — the cache is
        // left exactly as it was: entries, bytes, hits and misses.
        let before = cache_state(sb.density_cache());
        let direct = sb
            .engine()
            .test(
                sb.events().nodes(probe_b),
                sb.events().nodes(grow_b),
                &cfg,
                &mut StdRng::seed_from_u64(seed),
            )
            .expect("bounded test");
        assert_eq!(direct.z().to_bits(), rb, "commit {i}: one-pair path");
        if i < 32 {
            assert_eq!(
                cache_state(sb.density_cache()),
                before,
                "commit {i}: bypass"
            );
        }

        assert!(
            sb.density_cache().resident_bytes() <= BUDGET,
            "commit {i}: resident {} exceeds budget {BUDGET}",
            sb.density_cache().resident_bytes()
        );
        peak_control = peak_control.max(sc.density_cache().resident_bytes());
    }

    let bounded_cache = bounded_ctx.snapshot().density_cache().clone();
    assert!(
        peak_control > BUDGET,
        "control stayed at {peak_control} ≤ {BUDGET}: the workload no longer \
         exercises the leak this test is guarding against"
    );
    assert!(bounded_cache.evictions() > 0);
    assert_eq!(
        bounded_cache.fresh_inserts(),
        bounded_cache.len() as u64 + bounded_cache.evictions()
    );
}
