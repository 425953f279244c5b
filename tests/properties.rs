//! Property-based tests for the core invariants promised in
//! DESIGN.md §8.
//!
//! Originally written against `proptest`; the offline build
//! environment cannot vendor registry crates, so the same properties
//! now run over deterministic seeded case generators (128 cases each,
//! mirroring `ProptestConfig::with_cases(128)`). Shrinking is lost;
//! every failure message carries the case seed instead, so a failing
//! case can be reproduced by filtering on that seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc_events::store::merge_union;
use tesc_events::NodeMask;
use tesc_graph::csr::from_edges;
use tesc_graph::{BfsScratch, VicinityIndex};
use tesc_stats::kendall::{
    kendall_tau, pair_counts_exact, pair_counts_merge, var_s_no_ties, var_s_tie_corrected,
    weighted_tau, KendallMethod,
};
use tesc_stats::normal::StdNormal;

const CASES: u64 = 128;

/// Paired sample vectors with deliberate tie pressure (quantized).
fn paired_samples(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let n = rng.gen_range(3usize..60);
    let gen = |rng: &mut StdRng| {
        (0..n)
            .map(|_| rng.gen_range(0u8..8) as f64 / 8.0)
            .collect::<Vec<f64>>()
    };
    let x = gen(rng);
    let y = gen(rng);
    (x, y)
}

/// Random simple graph over `2..40` nodes (self-loops filtered).
fn random_graph(rng: &mut StdRng) -> (usize, tesc_graph::CsrGraph) {
    let n = rng.gen_range(2usize..40);
    let num_edges = rng.gen_range(0usize..n * 3);
    let edges: Vec<(u32, u32)> = (0..num_edges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .filter(|(u, v)| u != v)
        .collect();
    (n, from_edges(n, &edges))
}

#[test]
fn tau_is_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let (x, y) = paired_samples(&mut rng);
        let s = kendall_tau(&x, &y, KendallMethod::MergeSort);
        assert!(
            (-1.0..=1.0).contains(&s.tau),
            "case {case}: tau = {}",
            s.tau
        );
        assert!(
            (-1.0..=1.0).contains(&s.tau_b),
            "case {case}: tau_b = {}",
            s.tau_b
        );
        assert!(s.var_s >= 0.0, "case {case}");
        assert!(s.z.is_finite(), "case {case}");
    }
}

#[test]
fn tau_antisymmetric_under_negation() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let (x, y) = paired_samples(&mut rng);
        let pos = kendall_tau(&x, &y, KendallMethod::MergeSort);
        let neg_y: Vec<f64> = y.iter().map(|v| -v).collect();
        let neg = kendall_tau(&x, &neg_y, KendallMethod::MergeSort);
        assert!((pos.tau + neg.tau).abs() < 1e-12, "case {case}");
        assert!((pos.z + neg.z).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn tau_symmetric_in_arguments() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let (x, y) = paired_samples(&mut rng);
        let a = kendall_tau(&x, &y, KendallMethod::MergeSort);
        let b = kendall_tau(&y, &x, KendallMethod::MergeSort);
        assert_eq!(a.counts.s(), b.counts.s(), "case {case}");
        assert!((a.tau - b.tau).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn merge_sort_equals_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let (x, y) = paired_samples(&mut rng);
        assert_eq!(
            pair_counts_exact(&x, &y),
            pair_counts_merge(&x, &y),
            "case {case}"
        );
    }
}

#[test]
fn self_correlation_is_maximal() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let (x, _) = paired_samples(&mut rng);
        let s = kendall_tau(&x, &x, KendallMethod::MergeSort);
        assert_eq!(s.counts.discordant, 0, "case {case}");
        assert!(s.tau >= 0.0, "case {case}");
        // With no ties tau(x, x) = 1 exactly.
        let distinct: Vec<f64> = (0..x.len()).map(|i| i as f64).collect();
        let d = kendall_tau(&distinct, &distinct, KendallMethod::Exact);
        assert_eq!(d.tau, 1.0, "case {case}");
    }
}

#[test]
fn tie_corrected_variance_never_exceeds_eq5() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6000 + case);
        let n = rng.gen_range(3usize..200);
        let num_groups = rng.gen_range(0usize..8);
        let sizes: Vec<usize> = (0..num_groups).map(|_| rng.gen_range(2usize..10)).collect();
        // Clamp tie groups to fit n.
        let mut used = 0usize;
        let mut groups = Vec::new();
        for s in sizes {
            if used + s <= n {
                groups.push(s);
                used += s;
            }
        }
        let v = var_s_tie_corrected(n, &groups, &[]);
        assert!(v <= var_s_no_ties(n) + 1e-9, "case {case}");
        assert!(v >= 0.0, "case {case}");
    }
}

#[test]
fn weighted_tau_bounded_and_matches_unweighted() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7000 + case);
        let (x, y) = paired_samples(&mut rng);
        let uniform = vec![1.0; x.len()];
        let wt = weighted_tau(&x, &y, &uniform);
        assert!((-1.0..=1.0).contains(&wt), "case {case}");
        let s = kendall_tau(&x, &y, KendallMethod::Exact);
        assert!((wt - s.tau).abs() < 1e-12, "case {case}");
    }
}

#[test]
fn normal_cdf_properties() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8000 + case);
        let x = rng.gen_range(-30.0f64..30.0);
        let c = StdNormal::cdf(x);
        assert!((0.0..=1.0).contains(&c), "case {case}: x = {x}");
        // Symmetry.
        assert!((c + StdNormal::cdf(-x) - 1.0).abs() < 1e-12, "case {case}");
        // sf complements.
        assert!((StdNormal::sf(x) - (1.0 - c)).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn bfs_vicinity_monotone_in_h() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let (n, g) = random_graph(&mut rng);
        let src = rng.gen_range(0u32..40) % n as u32;
        let h = rng.gen_range(0u32..5);
        let mut scratch = BfsScratch::new(n);
        let small = scratch.vicinity_size(&g, src, h);
        let big = scratch.vicinity_size(&g, src, h + 1);
        assert!(small <= big, "case {case}");
        assert!(
            small >= 1,
            "case {case}: vicinity always contains the source"
        );
        assert!(big <= n, "case {case}");
    }
}

#[test]
fn batch_bfs_equals_union_of_singles() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(10_000 + case);
        let (n, g) = random_graph(&mut rng);
        let h = rng.gen_range(0u32..4);
        let sources: Vec<u32> = (0..n as u32).step_by(3).collect();
        assert!(!sources.is_empty());
        let mut scratch = BfsScratch::new(n);
        let mut batch = Vec::new();
        scratch.h_vicinity_into(&g, &sources, h, &mut batch);
        batch.sort_unstable();
        let mut union: Vec<u32> = sources
            .iter()
            .flat_map(|&s| scratch.h_vicinity(&g, s, h))
            .collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(batch, union, "case {case}");
    }
}

#[test]
fn vicinity_index_matches_direct_bfs() {
    // Fewer cases: each one sweeps the whole graph at 3 levels.
    for case in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(11_000 + case);
        let (n, g) = random_graph(&mut rng);
        let idx = VicinityIndex::build(&g, 3);
        let mut scratch = BfsScratch::new(n);
        for v in 0..n as u32 {
            for h in 1..=3u32 {
                assert_eq!(
                    idx.size(v, h),
                    scratch.vicinity_size(&g, v, h),
                    "case {case}: v = {v}, h = {h}"
                );
            }
        }
    }
}

#[test]
fn incremental_vicinity_update_equals_rebuild_at_every_step() {
    // The ingestion invariant of the versioned TescContext: random
    // edge-insertion sequences, refreshed incrementally around the new
    // endpoints, must match a from-scratch rebuild after *every*
    // insertion (not just at the end — intermediate divergence would
    // compound silently).
    for case in 0..CASES / 8 {
        let mut rng = StdRng::seed_from_u64(12_000 + case);
        let (n, g0) = random_graph(&mut rng);
        let max_level = rng.gen_range(1u32..=3);
        let mut g = g0;
        let mut idx = VicinityIndex::build(&g, max_level);
        for step in 0..12 {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u == v || g.has_edge(u, v) {
                continue;
            }
            let g_next = g.with_edges(&[(u, v)]);
            idx.refresh(&g_next, None, &[u, v]);
            assert_eq!(
                idx,
                VicinityIndex::build(&g_next, max_level),
                "case {case}, step {step}: insertion ({u},{v}) at h ≤ {max_level}"
            );
            g = g_next;
        }
    }
}

#[test]
fn vicinity_refresh_equals_rebuild_under_additions_and_removals() {
    // The dirty set is the (max_level − 1)-ball around the changed
    // edges' endpoints — in the new graph for additions, also in the
    // old one for removals. Random add/remove sequences on graph
    // families with very different ball shapes (path: thin; star: one
    // hub; clustered: dense blocks; BA: heavy tail) must land on the
    // from-scratch index after every step, at every max_level.
    use tesc_graph::generators::{barabasi_albert, path, planted_partition, star};
    let mut seeder = StdRng::seed_from_u64(14_000);
    let families: Vec<(&str, tesc_graph::CsrGraph)> = vec![
        ("path", path(24)),
        ("star", star(20)),
        (
            "clustered",
            planted_partition(4, 8, 0.6, 0.03, &mut seeder).0,
        ),
        ("ba", barabasi_albert(40, 2, &mut seeder)),
    ];
    for (family, g0) in &families {
        let n = g0.num_nodes() as u32;
        for max_level in 1..=3u32 {
            let mut rng = StdRng::seed_from_u64(14_100 + u64::from(max_level));
            let mut g = g0.clone();
            let mut idx = VicinityIndex::build(&g, max_level);
            for step in 0..40 {
                let removal = rng.gen_bool(0.4) && g.num_edges() > 0;
                let (g_next, changed) = if removal {
                    let gone = g.edges().nth(rng.gen_range(0..g.num_edges())).unwrap();
                    let kept: Vec<_> = g.edges().filter(|&e| e != gone).collect();
                    (from_edges(n as usize, &kept), gone)
                } else {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u == v || g.has_edge(u, v) {
                        continue;
                    }
                    (g.with_edges(&[(u, v)]), (u, v))
                };
                let recomputed =
                    idx.refresh(&g_next, removal.then_some(&g), &[changed.0, changed.1]);
                assert_eq!(
                    idx,
                    VicinityIndex::build(&g_next, max_level),
                    "{family}, h ≤ {max_level}, step {step}: \
                     {} of {changed:?}",
                    if removal { "removal" } else { "insertion" }
                );
                assert!((2..=n as usize).contains(&recomputed));
                if max_level == 1 {
                    assert_eq!(recomputed, 2, "level 1 only changes at the endpoints");
                }
                g = g_next;
            }
        }
    }
}

#[test]
fn snapshot_ingestion_matches_rebuild_and_preserves_old_versions() {
    // Same invariant one layer up: TescContext::add_edges must land on
    // the rebuilt index, while snapshots pinned earlier keep the index
    // of *their* graph.
    use tesc::context::TescContext;
    use tesc::EventStore;
    for case in 0..CASES / 16 {
        let mut rng = StdRng::seed_from_u64(13_000 + case);
        let (n, g) = random_graph(&mut rng);
        let ctx = TescContext::new(g, EventStore::new(), 2);
        let mut pinned = vec![ctx.snapshot()];
        for _ in 0..4 {
            let delta: Vec<(u32, u32)> = (0..rng.gen_range(1usize..4))
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .filter(|(u, v)| u != v)
                .collect();
            if delta.is_empty() {
                continue;
            }
            pinned.push(ctx.add_edges(&delta).unwrap());
        }
        for (i, snap) in pinned.iter().enumerate() {
            assert_eq!(
                *snap.vicinity(),
                VicinityIndex::build(snap.graph(), 2),
                "case {case}: pinned snapshot {i} (v{})",
                snap.version()
            );
        }
    }
}

#[test]
fn node_mask_round_trips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(12_000 + case);
        let len = rng.gen_range(0usize..64);
        let nodes: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..500)).collect();
        let mask = NodeMask::from_nodes(500, &nodes);
        let mut expect = nodes.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(mask.to_nodes(), expect, "case {case}");
        assert_eq!(mask.len(), expect.len(), "case {case}");
        for v in expect {
            assert!(mask.contains(v), "case {case}: {v}");
        }
    }
}

#[test]
fn merge_union_is_sorted_dedup_union() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(13_000 + case);
        let gen_sorted = |rng: &mut StdRng| {
            let len = rng.gen_range(0usize..40);
            let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..100)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let a = gen_sorted(&mut rng);
        let b = gen_sorted(&mut rng);
        let u = merge_union(&a, &b);
        assert!(
            u.windows(2).all(|w| w[0] < w[1]),
            "case {case}: sorted + dedup"
        );
        for &x in a.iter().chain(&b) {
            assert!(u.binary_search(&x).is_ok(), "case {case}");
        }
        for &x in &u {
            assert!(
                a.binary_search(&x).is_ok() || b.binary_search(&x).is_ok(),
                "case {case}"
            );
        }
    }
}

#[test]
fn generated_graphs_have_consistent_degree_sums() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(14_000 + case);
        let (_, g) = random_graph(&mut rng);
        let by_nodes: u64 = g.nodes().map(|v| g.degree(v) as u64).sum();
        assert_eq!(by_nodes, g.degree_sum(), "case {case}");
        assert_eq!(g.degree_sum() as usize, 2 * g.num_edges(), "case {case}");
        // Every edge is reported once with u < v.
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges(), "case {case}");
        assert!(edges.iter().all(|&(u, v)| u < v), "case {case}");
    }
}
