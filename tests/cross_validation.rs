//! Cross-validation tests: independent implementations of the same
//! quantity must agree (DESIGN.md §8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::density::density_counts;
use tesc::{SamplerKind, TescConfig, TescEngine};
use tesc_baselines::transaction_correlation;
use tesc_events::NodeMask;
use tesc_graph::generators::{barabasi_albert, erdos_renyi_gnm, grid};
use tesc_graph::perturb::sample_nodes;
use tesc_graph::{BfsScratch, Budget, VicinityIndex};
use tesc_stats::kendall::{kendall_tau, KendallMethod};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn tc_closed_form_agrees_with_generic_kendall_on_random_events() {
    let mut r = rng(1);
    for trial in 0..20 {
        let n = r.gen_range(10..200);
        let ka = r.gen_range(0..n);
        let kb = r.gen_range(0..n);
        let va: Vec<u32> = (0..ka as u32).filter(|_| r.gen_bool(0.5)).collect();
        let vb: Vec<u32> = (0..kb as u32).filter(|_| r.gen_bool(0.5)).collect();
        if n < 3 {
            continue;
        }
        let tc = transaction_correlation(n, &va, &vb);
        let xa: Vec<f64> = (0..n as u32)
            .map(|v| va.contains(&v) as u8 as f64)
            .collect();
        let xb: Vec<f64> = (0..n as u32)
            .map(|v| vb.contains(&v) as u8 as f64)
            .collect();
        let gen = kendall_tau(&xa, &xb, KendallMethod::MergeSort);
        assert!(
            (tc.tau_b - gen.tau_b).abs() < 1e-10,
            "trial {trial}: {} vs {}",
            tc.tau_b,
            gen.tau_b
        );
        assert!((tc.z - gen.z).abs() < 1e-9, "trial {trial}");
    }
}

#[test]
fn density_counts_agree_with_naive_set_intersection() {
    let g = erdos_renyi_gnm(300, 900, &mut rng(2));
    let va = sample_nodes(&g, 30, &mut rng(3));
    let vb = sample_nodes(&g, 25, &mut rng(4));
    let ma = NodeMask::from_nodes(300, &va);
    let mb = NodeMask::from_nodes(300, &vb);
    let mut scratch = BfsScratch::new(300);
    for h in [0u32, 1, 2] {
        for &r in &[0u32, 50, 150, 299] {
            let c = density_counts(&g, &mut scratch, r, h, &ma, &mb, &Budget::unlimited()).unwrap();
            let vicinity = scratch.h_vicinity(&g, r, h);
            let naive_a = vicinity.iter().filter(|v| va.contains(v)).count();
            let naive_b = vicinity.iter().filter(|v| vb.contains(v)).count();
            assert_eq!(c.vicinity_size, vicinity.len());
            assert_eq!(c.count_a, naive_a, "r={r} h={h}");
            assert_eq!(c.count_b, naive_b, "r={r} h={h}");
        }
    }
}

#[test]
fn sparse_vicinity_index_agrees_with_full_index() {
    let g = barabasi_albert(2000, 3, &mut rng(5));
    let nodes = sample_nodes(&g, 100, &mut rng(6));
    let full = VicinityIndex::build(&g, 2);
    let sparse = VicinityIndex::build_for_nodes(&g, &nodes, 2);
    for &v in &nodes {
        for h in 1..=2 {
            assert_eq!(sparse.size(v, h), full.size(v, h));
        }
    }
}

#[test]
fn importance_t_tilde_converges_to_exact_tau() {
    // Thm. 1 consistency check: on a small graph, sampling (almost)
    // the whole population repeatedly should track the exact τ.
    let g = grid(12, 12);
    let idx = VicinityIndex::build(&g, 1);
    let va: Vec<u32> = (0..36).collect();
    let vb: Vec<u32> = (18..54).collect();
    let engine = TescEngine::with_vicinity_index(&g, &idx);
    let exact = engine.exact_summary(&va, &vb, 1).unwrap();
    let mut estimates = Vec::new();
    for t in 0..10 {
        let cfg = TescConfig::new(1)
            .with_sample_size(exact.n)
            .with_sampler(SamplerKind::Importance { batch_size: 1 });
        let res = engine.test(&va, &vb, &cfg, &mut rng(100 + t)).unwrap();
        estimates.push(res.statistic());
    }
    let mean: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
    assert!(
        (mean - exact.tau).abs() < 0.1,
        "mean t~ = {mean}, exact tau = {}",
        exact.tau
    );
}

#[test]
fn batch_bfs_statistic_with_full_population_equals_exact() {
    let g = barabasi_albert(800, 3, &mut rng(7));
    let va = sample_nodes(&g, 25, &mut rng(8));
    let vb = sample_nodes(&g, 25, &mut rng(9));
    let engine = TescEngine::new(&g);
    let exact = engine.exact_summary(&va, &vb, 1).unwrap();
    let cfg = TescConfig::new(1).with_sample_size(usize::MAX / 2);
    let sampled = engine.test(&va, &vb, &cfg, &mut rng(10)).unwrap();
    let k = sampled.kendall.unwrap();
    assert_eq!(k.n, exact.n);
    assert!((k.tau - exact.tau).abs() < 1e-12);
    assert!((k.z - exact.z).abs() < 1e-12);
}

#[test]
fn all_uniform_samplers_estimate_the_same_tau() {
    // With a large sample on a moderate population, Batch BFS,
    // rejection and whole-graph sampling estimate the same τ within
    // sampling error.
    let g = barabasi_albert(1500, 3, &mut rng(11));
    let idx = VicinityIndex::build(&g, 1);
    let va = sample_nodes(&g, 60, &mut rng(12));
    let vb = sample_nodes(&g, 60, &mut rng(13));
    let engine = TescEngine::with_vicinity_index(&g, &idx);
    let exact = engine.exact_summary(&va, &vb, 1).unwrap();
    for sampler in [
        SamplerKind::BatchBfs,
        SamplerKind::Rejection,
        SamplerKind::WholeGraph,
    ] {
        let cfg = TescConfig::new(1)
            .with_sample_size(500)
            .with_sampler(sampler);
        let res = engine.test(&va, &vb, &cfg, &mut rng(14)).unwrap();
        // Var(t) ≤ 2(1-τ²)/n ⇒ σ ≈ 0.06 at n = 500; allow 4σ.
        assert!(
            (res.statistic() - exact.tau).abs() < 0.25,
            "{sampler}: t = {}, tau = {}",
            res.statistic(),
            exact.tau
        );
    }
}

#[test]
fn variance_upper_bound_from_paper_holds_empirically() {
    // Sec. 3.1: Var(t) ≤ 2(1 − τ²)/n regardless of N. Estimate Var(t)
    // by repeated sampling and compare.
    let g = grid(20, 20);
    let va: Vec<u32> = (0..60).collect();
    let vb: Vec<u32> = (30..90).collect();
    let engine = TescEngine::new(&g);
    let exact = engine.exact_summary(&va, &vb, 1).unwrap();
    let n = 60usize;
    let mut samples = Vec::new();
    for t in 0..60 {
        let cfg = TescConfig::new(1).with_sample_size(n);
        let res = engine.test(&va, &vb, &cfg, &mut rng(700 + t)).unwrap();
        samples.push(res.statistic());
    }
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    let var: f64 =
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (samples.len() - 1) as f64;
    let bound = 2.0 * (1.0 - exact.tau * exact.tau) / n as f64;
    assert!(
        var <= bound * 1.5, // generous: the bound itself is loose
        "empirical Var(t) = {var:.4} vs bound {bound:.4}"
    );
}
