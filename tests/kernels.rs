//! Density-kernel equivalence suite — the acceptance contract of the
//! bitset kernel rebuild: every kernel configuration produces **bit-identical** `DensityCounts` and
//! downstream `TestOutcome`s, for every sampler, with and without the
//! density cache, at 1 and 4 density threads.
//!
//! Seeded 128-case loops in the style of `tests/properties.rs`
//! (shrinking is traded for reproducible per-case seeds in every
//! failure message).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::density::{choose_route, density_counts, run_density, DensityCounts, Route, Workset};
use tesc::{
    BfsKernel, DensityCache, EventKey, NodeMask, SamplerKind, Tail, TescConfig, TescEngine,
    TescResult,
};
use tesc_datasets::{DblpConfig, DblpScenario};
use tesc_graph::perturb::{add_random_edges, remove_random_edges};
use tesc_graph::{BfsScratch, Budget, CsrGraph, MsBfsScratch, NodeId, VicinityIndex};

const CASES: u64 = 128;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Random simple graph over `2..60` nodes (straddling the one-word /
/// two-word bitmap boundary in both directions).
fn random_graph(rng: &mut StdRng) -> (usize, CsrGraph) {
    let n = rng.gen_range(2usize..100);
    let num_edges = rng.gen_range(0usize..n * 3);
    let edges: Vec<(u32, u32)> = (0..num_edges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .filter(|(u, v)| u != v)
        .collect();
    (n, tesc_graph::csr::from_edges(n, &edges))
}

fn random_mask(rng: &mut StdRng, n: usize) -> NodeMask {
    let k = rng.gen_range(0usize..n.max(1));
    let nodes: Vec<NodeId> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
    NodeMask::from_nodes(n, &nodes)
}

/// The one-pair workset of `refs` × `[a, b]` (any order, repeats
/// allowed), optionally with the union `a ∪ b` as a third slot.
fn pair_work(h: u32, a: &[NodeId], b: &[NodeId], union: bool, refs: &[NodeId]) -> Workset {
    let mut keys = vec![EventKey::new(a), EventKey::new(b)];
    if union {
        keys.push(EventKey::new(&[a, b].concat()));
    }
    Workset::uniform(h, keys, refs).0
}

/// The density executor over a one-pair workset, read back as
/// `(s_a, s_b)` in `refs` order.
fn pair_vectors(
    engine: &TescEngine<'_>,
    work: &Workset,
    refs: &[NodeId],
    route: Route,
    threads: usize,
    group_size: usize,
) -> (Vec<f64>, Vec<f64>) {
    let d = run_density(engine, work, route, None, threads, group_size).expect("unlimited budget");
    (d.densities(work, refs, 0), d.densities(work, refs, 1))
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
fn bitset_bfs_equals_scalar_on_random_graphs() {
    for case in 0..CASES {
        let mut r = rng(20_000 + case);
        let (n, g) = random_graph(&mut r);
        let h = r.gen_range(0u32..5);
        // 1–3 sources, sometimes duplicated.
        let mut sources: Vec<NodeId> = (0..r.gen_range(1usize..4))
            .map(|_| r.gen_range(0..n as u32))
            .collect();
        if r.gen_range(0u32..3) == 0 {
            sources.push(sources[0]);
        }
        let mut s = BfsScratch::new(n);
        let mut scalar_nodes = Vec::new();
        let mut scalar_levels = vec![0u32; h as usize + 1];
        let free = Budget::unlimited();
        let scalar_n = s.visit_h_vicinity(&g, &sources, h, &free, |v, d| {
            scalar_nodes.push(v);
            scalar_levels[d as usize] += 1;
        });
        scalar_nodes.sort_unstable();
        let bitset_n = s.visit_h_vicinity_bitset(&g, &sources, h, &free);
        assert_eq!(scalar_n, bitset_n, "case {case}: visited count");
        let mut bitset_nodes = Vec::new();
        for (w, &word) in s.visited_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                bitset_nodes.push((w * 64) as NodeId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        assert_eq!(scalar_nodes, bitset_nodes, "case {case}: visited set");
        for (d, &c) in s.level_counts().iter().enumerate() {
            assert_eq!(scalar_levels[d], c, "case {case}: depth {d}");
        }
    }
}

#[test]
fn kernel_counts_equal_on_perturbed_generator_graphs() {
    // Generator substrate + count-neutral perturbations: the exact
    // workload `fig8_graph_density` sweeps. Kernel equality must
    // survive arbitrary rewiring.
    let base = tesc_graph::generators::barabasi_albert(400, 3, &mut rng(1));
    for case in 0..CASES / 4 {
        let mut r = rng(21_000 + case);
        let (shrunk, _) = remove_random_edges(&base, 30, &mut r);
        let (g, _) = add_random_edges(&shrunk, 30, &mut r);
        let n = g.num_nodes();
        let (ma, mb) = (random_mask(&mut r, n), random_mask(&mut r, n));
        let (a, b) = (ma.to_nodes(), mb.to_nodes());
        let mut s = BfsScratch::new(n);
        let free = Budget::unlimited();
        let bitset = TescEngine::new(&g).with_density_kernel(BfsKernel::Bitset);
        for _ in 0..6 {
            let v = r.gen_range(0..n as u32);
            let h = r.gen_range(0u32..4);
            let scalar = density_counts(&g, &mut s, v, h, &ma, &mb, &free);
            // The executor's per-node route with the union as a third
            // slot yields all four integers.
            let work = pair_work(h, &a, &b, true, &[v]);
            let got =
                run_density(&bitset, &work, Route::PerNode, None, 1, 64).map(|d| DensityCounts {
                    vicinity_size: d.count(&work, v, 0).0 as usize,
                    count_a: d.count(&work, v, 0).1 as usize,
                    count_b: d.count(&work, v, 1).1 as usize,
                    count_union: d.count(&work, v, 2).1 as usize,
                });
            assert_eq!(scalar, got, "case {case}: v = {v}, h = {h}");
        }
    }
}

#[test]
fn hybrid_switch_point_edge_cases() {
    let mut s = BfsScratch::new(256);
    let free = Budget::unlimited();
    // Frontier = whole graph at h = 1 (star hub).
    let star = tesc_graph::generators::star(200);
    assert_eq!(s.visit_h_vicinity_bitset(&star, &[0], 1, &free), Ok(200));
    assert_eq!(s.level_counts(), &[1, 199]);
    // Isolated sources, duplicate sources, h = 0.
    let sparse = tesc_graph::csr::from_edges(130, &[(0, 1)]);
    assert_eq!(s.visit_h_vicinity_bitset(&sparse, &[129], 3, &free), Ok(1));
    assert_eq!(
        s.visit_h_vicinity_bitset(&sparse, &[0, 0, 1], 2, &free),
        Ok(2)
    );
    assert_eq!(s.visit_h_vicinity_bitset(&sparse, &[5], 0, &free), Ok(1));
    // Dense blob reached through a tail: bottom-up mid-level, then a
    // final level — compared against scalar.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..40u32 {
        for v in 40..80u32 {
            edges.push((u, v));
        }
    }
    edges.push((0, 80));
    edges.push((80, 81));
    let blob = tesc_graph::csr::from_edges(82, &edges);
    for h in 0..5u32 {
        let mut scalar = 0usize;
        let want = s.visit_h_vicinity(&blob, &[81], h, &free, |_, _| scalar += 1);
        assert_eq!(s.visit_h_vicinity_bitset(&blob, &[81], h, &free), want);
    }
}

/// The full engine matrix: sampler × kernel × cache × density threads,
/// all bit-identical to the scalar serial reference.
#[test]
fn engine_outcomes_bit_identical_across_kernel_cache_threads() {
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(80));
    let idx = VicinityIndex::build(&s.graph, 2);
    let (va, vb) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(81));
    let run = |engine: &TescEngine<'_>, sampler: SamplerKind, seed: u64| -> TescResult {
        let cfg = TescConfig::new(2)
            .with_sample_size(200)
            .with_tail(Tail::Upper)
            .with_sampler(sampler);
        engine.test(&va, &vb, &cfg, &mut rng(seed)).unwrap()
    };
    for sampler in all_samplers() {
        let reference = {
            let engine = TescEngine::with_vicinity_index(&s.graph, &idx)
                .with_density_kernel(BfsKernel::Scalar);
            run(&engine, sampler, 82)
        };
        for kernel in [BfsKernel::Bitset, BfsKernel::Multi] {
            for cached in [false, true] {
                for threads in [1usize, 4] {
                    let mut engine = TescEngine::with_vicinity_index(&s.graph, &idx)
                        .with_density_kernel(kernel)
                        .with_density_threads(threads);
                    let cache = std::sync::Arc::new(DensityCache::for_graph(&s.graph));
                    if cached {
                        engine = engine.with_density_cache(cache.clone());
                    }
                    let got = run(&engine, sampler, 82);
                    assert_eq!(
                        reference, got,
                        "{sampler}: kernel={kernel} cache={cached} threads={threads}"
                    );
                    assert_eq!(
                        reference.z().to_bits(),
                        got.z().to_bits(),
                        "{sampler}: z bits differ (kernel={kernel} cache={cached} threads={threads})"
                    );
                    // Warm-cache re-run stays identical too. (The
                    // importance sampler documentedly bypasses the
                    // cache — its per-node quantities are
                    // pair-specific — so only uniform samplers must
                    // show hits.)
                    if cached {
                        let again = run(&engine, sampler, 82);
                        assert_eq!(reference, again, "{sampler}: warm cache");
                        if !matches!(sampler, SamplerKind::Importance { .. }) {
                            assert!(cache.hits() > 0, "{sampler}: cache engaged");
                        }
                    }
                }
            }
        }
    }
}

/// The same matrix on the compressed-CSR substrate: an engine whose
/// adjacency streams from the delta/varint rows must be bit-identical
/// to the plain-CSR scalar reference for every sampler × kernel ×
/// cache × thread-count combination.
#[test]
fn compressed_csr_outcomes_bit_identical_to_plain_across_matrix() {
    use tesc_graph::CompressedCsr;
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(80));
    let compressed = CompressedCsr::from_graph(&s.graph);
    assert_eq!(compressed.fingerprint(), s.graph.fingerprint());
    let idx = VicinityIndex::build(&s.graph, 2);
    let cidx = VicinityIndex::build(&compressed, 2);
    let (va, vb) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(81));
    let cfg_for = |sampler| {
        TescConfig::new(2)
            .with_sample_size(200)
            .with_tail(Tail::Upper)
            .with_sampler(sampler)
    };
    for sampler in all_samplers() {
        let reference = TescEngine::with_vicinity_index(&s.graph, &idx)
            .with_density_kernel(BfsKernel::Scalar)
            .test(&va, &vb, &cfg_for(sampler), &mut rng(82))
            .unwrap();
        for kernel in [BfsKernel::Scalar, BfsKernel::Bitset, BfsKernel::Multi] {
            for cached in [false, true] {
                for threads in [1usize, 4] {
                    let mut engine = TescEngine::with_vicinity_index(&compressed, &cidx)
                        .with_density_kernel(kernel)
                        .with_density_threads(threads);
                    if cached {
                        engine = engine.with_density_cache(std::sync::Arc::new(
                            DensityCache::for_graph(&compressed),
                        ));
                    }
                    let got = engine
                        .test(&va, &vb, &cfg_for(sampler), &mut rng(82))
                        .unwrap();
                    assert_eq!(
                        reference, got,
                        "{sampler}: compressed kernel={kernel} cache={cached} threads={threads}"
                    );
                    assert_eq!(
                        reference.z().to_bits(),
                        got.z().to_bits(),
                        "{sampler}: compressed z bits differ (kernel={kernel} cache={cached} threads={threads})"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_density_vectors_equal_for_random_masks() {
    for case in 0..CASES / 4 {
        let mut r = rng(23_000 + case);
        let (n, g) = random_graph(&mut r);
        let (ma, mb) = (random_mask(&mut r, n), random_mask(&mut r, n));
        let h = r.gen_range(0u32..4);
        let refs: Vec<NodeId> = (0..n as u32).step_by(3).collect();
        let work = pair_work(h, &ma.to_nodes(), &mb.to_nodes(), false, &refs);
        let scalar = TescEngine::new(&g).with_density_kernel(BfsKernel::Scalar);
        let reference = pair_vectors(&scalar, &work, &refs, Route::PerNode, 1, 64);
        let bitset = TescEngine::new(&g).with_density_kernel(BfsKernel::Bitset);
        let got = pair_vectors(&bitset, &work, &refs, Route::PerNode, 2, 64);
        assert_eq!(reference, got, "case {case}: bitset");
    }
}

/// The nodes each lane of the most recent multi-source traversal
/// reached, ascending.
fn lane_sets(ms: &MsBfsScratch, lanes: usize) -> Vec<Vec<NodeId>> {
    let mut out = vec![Vec::new(); lanes];
    for (v, &word) in ms.lane_words().iter().enumerate() {
        let mut w = word;
        while w != 0 {
            out[w.trailing_zeros() as usize].push(v as NodeId);
            w &= w - 1;
        }
    }
    out
}

#[test]
fn multi_source_level_sets_equal_independent_scalar_on_random_graphs() {
    // 128 seeded cases on random graphs: every lane's *level sets*
    // (nodes first reached at each depth) must equal an independent
    // single-source scalar BFS — verified by diffing the lane's
    // reached set between consecutive depths.
    for case in 0..CASES {
        let mut r = rng(25_000 + case);
        let (n, g) = random_graph(&mut r);
        let h = r.gen_range(0u32..4);
        // Group sizes straddling interesting shapes: singleton, a few,
        // word-boundary-1, full word — with occasional duplicates.
        let k = [1usize, 3, 63, 64][r.gen_range(0usize..4)];
        let mut sources: Vec<NodeId> = (0..k).map(|_| r.gen_range(0..n as u32)).collect();
        if r.gen_range(0u32..3) == 0 && sources.len() > 1 {
            sources[1] = sources[0]; // duplicate lanes evolve identically
        }
        let mut ms = MsBfsScratch::new(n);
        let mut s = BfsScratch::new(n);
        let mut prev: Vec<Vec<NodeId>> = vec![Vec::new(); sources.len()];
        let free = Budget::unlimited();
        for depth in 0..=h {
            ms.visit_h_vicinity_multi(&g, &sources, depth, &free)
                .unwrap();
            let sets = lane_sets(&ms, sources.len());
            let mut sizes = vec![0u32; sources.len()];
            ms.lane_sizes(&mut sizes);
            for (lane, &src) in sources.iter().enumerate() {
                let mut want = Vec::new();
                let mut want_level = Vec::new();
                s.visit_h_vicinity(&g, &[src], depth, &free, |v, d| {
                    want.push(v);
                    if d == depth {
                        want_level.push(v);
                    }
                })
                .unwrap();
                want.sort_unstable();
                want_level.sort_unstable();
                assert_eq!(
                    sets[lane], want,
                    "case {case}: lane {lane} reached set at depth {depth}"
                );
                assert_eq!(sizes[lane] as usize, want.len(), "case {case}: lane size");
                // Level set = reached(depth) \ reached(depth − 1).
                let level: Vec<NodeId> = sets[lane]
                    .iter()
                    .copied()
                    .filter(|v| prev[lane].binary_search(v).is_err())
                    .collect();
                assert_eq!(
                    level, want_level,
                    "case {case}: lane {lane} level set at depth {depth}"
                );
            }
            prev = sets;
        }
    }
}

#[test]
fn multi_source_lanes_equal_scalar_on_perturbed_generator_graphs() {
    let base = tesc_graph::generators::barabasi_albert(400, 3, &mut rng(2));
    for case in 0..CASES / 4 {
        let mut r = rng(26_000 + case);
        let (shrunk, _) = remove_random_edges(&base, 30, &mut r);
        let (g, _) = add_random_edges(&shrunk, 30, &mut r);
        let n = g.num_nodes();
        let h = r.gen_range(0u32..4);
        let sources: Vec<NodeId> = (0..r.gen_range(1usize..65))
            .map(|_| r.gen_range(0..n as u32))
            .collect();
        let mut ms = MsBfsScratch::new(n);
        let mut s = BfsScratch::new(n);
        ms.visit_h_vicinity_multi(&g, &sources, h, &Budget::unlimited())
            .unwrap();
        let sets = lane_sets(&ms, sources.len());
        for (lane, &src) in sources.iter().enumerate() {
            let mut want = s.h_vicinity(&g, src, h);
            want.sort_unstable();
            assert_eq!(sets[lane], want, "case {case}: lane {lane} h={h}");
        }
    }
}

#[test]
fn grouped_density_vectors_for_worksets_straddling_the_word_boundary() {
    // Sample sizes 1, 63, 64, 65, 127 — partitioned into groups by
    // the executor — must all reproduce the scalar reference,
    // including sources sharing a vicinity (dense community) and a
    // repeated sample node (the workset holds it once; both sample
    // positions read its counts back).
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(90));
    let g = &s.graph;
    let n = g.num_nodes();
    let (va, vb) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(91));
    let scalar = TescEngine::new(g).with_density_kernel(BfsKernel::Scalar);
    let engine = TescEngine::new(g);
    let mut r = rng(92);
    for workset in [1usize, 63, 64, 65, 127] {
        // Half clustered (shared vicinities), half uniform; a repeated
        // node is one sample drawn twice.
        let base = r.gen_range(0..(n as u32) / 2);
        let mut refs: Vec<NodeId> = (0..workset as u32 / 2).map(|i| base + i % 40).collect();
        refs.extend((refs.len()..workset).map(|_| r.gen_range(0..n as u32)));
        if workset > 1 {
            let dup = refs[0];
            refs[workset / 2] = dup;
        }
        let work = pair_work(2, &va, &vb, false, &refs);
        let reference = pair_vectors(&scalar, &work, &refs, Route::PerNode, 1, 64);
        for group_size in [1usize, 63, 64] {
            let got = pair_vectors(&engine, &work, &refs, Route::RefLanes, 2, group_size);
            assert_eq!(reference, got, "workset={workset} group_size={group_size}");
        }
    }
}

#[test]
fn partially_memoized_groups_mix_cache_hits_and_bfs_lanes() {
    // Some lanes of a fused workset are fully memoized (they skip the
    // traversal), some hit one slot of two, some miss everything — the
    // grouped pass must blend all three bit-identically and only BFS
    // the pending lanes.
    use tesc::batch::{run_batch_serial, BatchRequest, EventPair};
    let s = DblpScenario::build(DblpConfig::small(), &mut rng(95));
    let (va, vb) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(96));
    let (vc, vd) = s.plant_positive_keyword_pair(12, 10, 0.25, &mut rng(97));
    let cfg = TescConfig::new(2).with_sample_size(150);
    let cache = std::sync::Arc::new(DensityCache::for_graph(&s.graph));
    let engine = TescEngine::new(&s.graph)
        .with_density_kernel(BfsKernel::Multi)
        .with_density_cache(cache.clone());
    // Warm the cache with the (a, b) pair only: a later batch naming
    // (a, c), (b, d) and (a, b) then sees full hits, half hits and
    // misses across its deduplicated workset.
    let warm = BatchRequest::new(cfg)
        .with_seed(5)
        .with_pair(EventPair::new("ab", va.clone(), vb.clone()));
    let _ = run_batch_serial(&engine, &warm);
    let bfs_after_warm = cache.bfs_invocations();
    let req = BatchRequest::new(cfg)
        .with_seed(5)
        .with_threads(1)
        .with_pair(EventPair::new("ab", va.clone(), vb.clone()))
        .with_pair(EventPair::new("ac", va.clone(), vc.clone()))
        .with_pair(EventPair::new("bd", vb.clone(), vd.clone()));
    let reference = {
        let plain = TescEngine::new(&s.graph).with_density_kernel(BfsKernel::Scalar);
        run_batch_serial(&plain, &req)
    };
    let got = run_batch_serial(&engine, &req);
    for (a, b) in reference.outcomes.iter().zip(&got.outcomes) {
        assert_eq!(a, b, "partially memoized grouped batch");
    }
    assert!(
        cache.bfs_invocations() > bfs_after_warm,
        "new events force fresh lanes"
    );
    assert!(cache.hits() > 0, "warmed slots are reused");
}

#[test]
fn vicinity_index_identical_across_kernels_on_random_graphs() {
    for case in 0..CASES / 8 {
        let mut r = rng(24_000 + case);
        let (_, g) = random_graph(&mut r);
        let scalar = VicinityIndex::build_with_kernel(&g, 3, BfsKernel::Scalar);
        let bitset = VicinityIndex::build_with_kernel(&g, 3, BfsKernel::Bitset);
        assert_eq!(scalar, bitset, "case {case}");
    }
}

/// A fixture on which `Auto` provably resolves from the **event
/// side**: a 3000-node preferential-attachment graph, two 15-node
/// events (one 64-lane chunk each), an index to depth 2, 200 reference
/// nodes at `h = 2` — thousands of reference-side visits against two
/// cheap traversals.
struct EventSideFixture {
    graph: CsrGraph,
    index: VicinityIndex,
    va: Vec<NodeId>,
    vb: Vec<NodeId>,
}

impl EventSideFixture {
    fn build(seed: u64) -> Self {
        let graph = tesc_graph::generators::barabasi_albert(3000, 3, &mut rng(seed));
        let index = VicinityIndex::build(&graph, 2);
        let mut r = rng(seed + 1);
        let mut draw = |base: u32| -> Vec<NodeId> {
            // Raw lists repeat a node: normalization is the engine's job.
            let mut v: Vec<NodeId> = (0..15).map(|_| base + r.gen_range(0..400u32)).collect();
            v.push(v[0]);
            v
        };
        let (va, vb) = (draw(100), draw(300));
        EventSideFixture {
            graph,
            index,
            va,
            vb,
        }
    }

    fn cfg(sampler: SamplerKind) -> TescConfig {
        TescConfig::new(2)
            .with_sample_size(200)
            .with_tail(Tail::Upper)
            .with_sampler(sampler)
    }

    fn pair(&self) -> tesc::EventPair {
        tesc::EventPair::new("ab", self.va.clone(), self.vb.clone())
    }
}

/// `⌈|V_e|/64⌉` summed over the given occurrence lists (after
/// normalization) — what `FusedDensities::traversals()` must read when
/// the pass ran from the event side.
fn event_chunks(events: &[&[NodeId]]) -> u64 {
    events
        .iter()
        .map(|e| {
            let mut v = e.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len().div_ceil(64) as u64
        })
        .sum()
}

/// The event-side matrix: sampler × cache cold/warm ×
/// density threads, every `z` bit equal to the `Scalar` engine, with
/// the route pinned through the planner's traversal count (identical
/// at 1 and 4 threads) and, on the one-pair path, through the cache
/// bypass.
#[test]
fn auto_event_side_bit_identical_to_scalar_across_cache_threads_samplers() {
    use tesc::planner::PairSetPlan;
    let f = EventSideFixture::build(300);
    let pair = f.pair();
    let union: Vec<NodeId> = f.va.iter().chain(&f.vb).copied().collect();
    for sampler in all_samplers() {
        let cfg = EventSideFixture::cfg(sampler);
        let weighted = matches!(sampler, SamplerKind::Importance { .. });
        let want_chunks = if weighted {
            event_chunks(&[&f.va, &f.vb, &union])
        } else {
            event_chunks(&[&f.va, &f.vb])
        };
        let reference = TescEngine::with_vicinity_index(&f.graph, &f.index)
            .with_density_kernel(BfsKernel::Scalar)
            .test(&f.va, &f.vb, &cfg, &mut rng(7))
            .unwrap();
        for threads in [1usize, 4] {
            let ctx = format!("{sampler}: threads={threads}");
            let cache = std::sync::Arc::new(DensityCache::for_graph(&f.graph));
            let engine = TescEngine::with_vicinity_index(&f.graph, &f.index)
                .with_density_threads(threads)
                .with_density_cache(cache.clone());
            // One-pair path, twice (the repeat would be "warm").
            for round in ["cold", "repeat"] {
                let got = engine.test(&f.va, &f.vb, &cfg, &mut rng(7)).unwrap();
                assert_eq!(reference, got, "{ctx} {round}");
                assert_eq!(reference.z().to_bits(), got.z().to_bits(), "{ctx} {round}");
            }
            // An event-side one-pair pass bypasses the cache.
            assert_eq!(
                (
                    cache.len(),
                    cache.resident_bytes(),
                    cache.hits(),
                    cache.misses()
                ),
                (0, 0, 0, 0),
                "{ctx}: one-pair event pass must leave the cache untouched"
            );
            // Planner path: the traversal count is the event chunk
            // count, the cache fills with exactly the pending
            // cells, and the warm repeat runs zero traversals.
            let plan =
                PairSetPlan::build(&engine, std::slice::from_ref(&pair), &cfg, &[7], threads);
            let cold = plan.run_density(threads);
            assert_eq!(cold.traversals(), want_chunks, "{ctx}: event side chosen");
            assert_eq!(cold.bfs_run(), plan.distinct_refs() as u64, "{ctx}");
            let slots = if weighted { 3 } else { 2 };
            assert_eq!(cache.len(), slots * plan.distinct_refs(), "{ctx}: fill");
            let outcome = plan.finish(&cold).remove(0).result.unwrap();
            assert_eq!(
                reference.z().to_bits(),
                outcome.z().to_bits(),
                "{ctx}: plan"
            );
            let warm = plan.run_density(threads);
            assert_eq!((warm.traversals(), warm.bfs_run()), (0, 0), "{ctx}: warm");
            let outcome = plan.finish(&warm).remove(0).result.unwrap();
            assert_eq!(
                reference.z().to_bits(),
                outcome.z().to_bits(),
                "{ctx}: warm"
            );
        }
    }
}

/// From-the-definitions oracle for the event direction: plain BFS
/// sets over an adjacency list built here, `|V_e ∩ V^h_r| / |V^h_r|`
/// by set intersection.
#[test]
fn event_side_densities_equal_set_intersection_oracle() {
    use std::collections::BTreeSet;
    for case in 0..CASES / 4 {
        let mut r = rng(27_000 + case);
        let (n, g) = random_graph(&mut r);
        let h = r.gen_range(0u32..3);
        let mut adj = vec![Vec::new(); n];
        for (u, v) in g.edges() {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let ball = |src: NodeId| -> BTreeSet<NodeId> {
            let mut seen = BTreeSet::from([src]);
            let mut frontier = vec![src];
            for _ in 0..h {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &v in &adj[u as usize] {
                        if seen.insert(v) {
                            next.push(v);
                        }
                    }
                }
                frontier = next;
            }
            seen
        };
        let events: Vec<Vec<NodeId>> = (0..2).map(|_| random_mask(&mut r, n).to_nodes()).collect();
        let sets: Vec<BTreeSet<NodeId>> =
            events.iter().map(|e| e.iter().copied().collect()).collect();
        let refs: Vec<NodeId> = (0..n as u32).step_by(2).collect();
        let index = VicinityIndex::build(&g, 2);
        let engine = TescEngine::with_vicinity_index(&g, &index);
        let work = pair_work(h, &events[0], &events[1], false, &refs);
        let (sa, sb) = pair_vectors(&engine, &work, &refs, Route::EventLanes, 2, 64);
        for (i, &v) in refs.iter().enumerate() {
            let vicinity = ball(v);
            let density = |e: &BTreeSet<NodeId>| {
                vicinity.intersection(e).count() as f64 / vicinity.len() as f64
            };
            assert_eq!(
                sa[i].to_bits(),
                density(&sets[0]).to_bits(),
                "case {case} r={v}"
            );
            assert_eq!(
                sb[i].to_bits(),
                density(&sets[1]).to_bits(),
                "case {case} r={v}"
            );
        }
    }
}

/// Where the event side is not available — no index, an index
/// shallower than `h`, an index built for the event nodes only, or
/// intensity densities — `Auto` stays on the reference side (the cache
/// of a one-pair engine fills) and still matches the scalar engine.
#[test]
fn fallback_cases_take_the_reference_side_and_still_match() {
    use tesc::planner::PairSetPlan;
    let f = EventSideFixture::build(310);
    let cfg = EventSideFixture::cfg(SamplerKind::BatchBfs);
    let shallow = VicinityIndex::build(&f.graph, 1);
    let union: Vec<NodeId> = f.va.iter().chain(&f.vb).copied().collect();
    let partial = VicinityIndex::build_for_nodes(&f.graph, &union, 2);
    let reference = TescEngine::new(&f.graph)
        .with_density_kernel(BfsKernel::Scalar)
        .test(&f.va, &f.vb, &cfg, &mut rng(3))
        .unwrap();
    let engines: Vec<(&str, TescEngine<'_>)> = vec![
        ("no index", TescEngine::new(&f.graph)),
        (
            "h beyond the index depth",
            TescEngine::with_vicinity_index(&f.graph, &shallow),
        ),
        (
            "event-nodes-only index",
            TescEngine::with_vicinity_index(&f.graph, &partial),
        ),
    ];
    for (label, engine) in engines {
        let cache = std::sync::Arc::new(DensityCache::for_graph(&f.graph));
        let engine = engine.with_density_cache(cache.clone());
        let got = engine.test(&f.va, &f.vb, &cfg, &mut rng(3)).unwrap();
        assert_eq!(reference.z().to_bits(), got.z().to_bits(), "{label}");
        assert!(
            !cache.is_empty(),
            "{label}: the reference side fills the cache"
        );
        let plan = PairSetPlan::build(&engine, &[f.pair()], &cfg, &[3], 1);
        let fused = plan.run_density(1);
        assert_eq!(
            fused.bfs_run(),
            0,
            "{label}: the one-pair pass filled every cell"
        );
    }
    // Intensity densities sum f64 mass in BFS order: always per-node.
    let n = f.graph.num_nodes();
    let weights = |nodes: &[NodeId]| {
        let mut v = nodes.to_vec();
        v.sort_unstable();
        v.dedup();
        let pairs: Vec<(NodeId, f64)> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, 1.0 + i as f64 * 0.25))
            .collect();
        tesc::intensity::Intensities::from_pairs(n, &pairs)
    };
    let (ia, ib) = (weights(&f.va), weights(&f.vb));
    let scalar = TescEngine::with_vicinity_index(&f.graph, &f.index)
        .with_density_kernel(BfsKernel::Scalar)
        .test_intensity(&ia, &ib, &cfg, &mut rng(4))
        .unwrap();
    let auto = TescEngine::with_vicinity_index(&f.graph, &f.index)
        .test_intensity(&ia, &ib, &cfg, &mut rng(4))
        .unwrap();
    assert_eq!(scalar.z().to_bits(), auto.z().to_bits(), "intensity");
}

/// After `add_edges` the snapshot's incrementally refreshed index
/// feeds the event side; it must agree with a context built from
/// scratch on the grown graph, and with the scalar engine.
#[test]
fn event_side_after_add_edges_equals_a_freshly_built_context() {
    use tesc::context::TescContext;
    use tesc::EventStore;
    let f = EventSideFixture::build(320);
    let cfg = EventSideFixture::cfg(SamplerKind::Rejection);
    let mut events = EventStore::new();
    events.add_event("a", f.va.clone());
    events.add_event("b", f.vb.clone());
    let ctx = TescContext::new(f.graph.clone(), events.clone(), 2);
    // New edges inside and around the events' neighbourhoods.
    let delta: Vec<(NodeId, NodeId)> = (0..12u32)
        .map(|i| (f.va[i as usize % f.va.len()], 1500 + 7 * i))
        .filter(|&(u, v)| u != v && !f.graph.has_edge(u, v))
        .collect();
    let grown = ctx.add_edges(&delta).unwrap();
    assert_eq!(grown.version(), 2);
    let fresh = TescContext::new(grown.graph().clone(), events, 2);
    assert_eq!(
        grown.vicinity(),
        fresh.snapshot().vicinity(),
        "refreshed index"
    );
    let run = |engine: &TescEngine<'_>| {
        engine
            .test(&f.va, &f.vb, &cfg, &mut rng(5))
            .unwrap()
            .z()
            .to_bits()
    };
    let scalar = TescEngine::with_vicinity_index(grown.graph(), grown.vicinity())
        .with_density_kernel(BfsKernel::Scalar);
    let incremental = grown.engine();
    assert_eq!(run(&incremental), run(&scalar), "incremental vs scalar");
    assert_eq!(
        run(&incremental),
        run(&fresh.snapshot().engine()),
        "vs fresh"
    );
    assert!(
        grown.density_cache().is_empty(),
        "the served one-pair pass ran from the event side"
    );
    // The decision itself reads the refreshed index.
    let refs: Vec<NodeId> = (0..200).collect();
    assert_eq!(
        choose_route(
            BfsKernel::Auto,
            grown.graph(),
            Some(grown.vicinity()),
            2,
            &refs,
            &[&f.va, &f.vb]
        ),
        Route::EventLanes
    );
}
