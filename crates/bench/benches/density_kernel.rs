//! Density-kernel shoot-out: **scalar** vs **bitset** vs **multi**
//! (64-way source batching), the execution plans of the per-reference-node density
//! hot path (`tesc::density::KernelPlan` / `GroupKernelPlan`).
//!
//! For the DBLP-like and intrusion-like scenarios, at `h ∈ {1, 2, 3}`,
//! the bench draws a fixed 300-node Batch-BFS reference sample and
//! times the density vectors over it:
//!
//! * `<scenario>/h<h>/scalar` — epoch-stamped queue BFS, three mask
//!   probes per visited node (the pre-kernel baseline).
//! * `<scenario>/h<h>/bitset` — hybrid top-down/bottom-up bitmap BFS
//!   with the branch-free final level, counts by word-wise
//!   AND + popcount.
//! * `<scenario>/h<h>/multi` — the 300 reference nodes batched into
//!   64-way multi-source traversals (`MsBfsScratch`), one bit-lane
//!   each, per-lane counts by popcount.
//! * `<scenario>/h<h>/event` — the same multi-source kernel driven from
//!   the **event side**: the two events' occurrence nodes traverse as
//!   lanes (`⌈|V_e|/64⌉` traversals per event), `|V^h_r|` read from the
//!   vicinity index.
//!
//! A second section, the **crossover sweep**, measures where the event
//! side wins: `sweep/e<|V_e|>/h<h>/<route>` on the 100k-node
//! Twitter-like graph (`|V_e| ∈ {40, 150, 400, 1000}`, `h ∈ {1, 2}`,
//! 400 reference nodes) plus `sweep/dblp2x1000/h2/<route>` (two
//! ~1000-node keyword events against 300 reference nodes). Each point
//! times the four fixed routes (`scalar`, `bitset`, `multi`, `event`)
//! and `auto` — [`choose_route`] resolving `BfsKernel::Auto`, decision
//! included — and records `…/regret` = auto ÷ best fixed route. This is
//! where the cost constants of `choose_route` are calibrated; a full
//! run (≥ 5 samples) fails if any point's regret exceeds 1.1.
//!
//! **Per-row identity verification** (like `fig12_ingest_vs_rebuild`):
//! before timing, each row's density vectors are asserted bit-identical
//! to the scalar baseline — a divergence aborts the bench, so the CI
//! smoke run doubles as a correctness gate. After the rows, a summary
//! table prints the speedups.
//!
//! Run: `cargo bench --bench density_kernel`. Set
//! `TESC_BENCH_JSON=<path>` to append machine-readable records (the
//! committed `BENCH_density_kernel.json` is this bench's output on the
//! reference container; see `docs/PERFORMANCE.md`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::density::{
    choose_route, density_vectors_group_plan, density_vectors_plan, GroupKernelPlan, KernelPlan,
    Route,
};
use tesc::sampler::batch_bfs_sample;
use tesc::NodeMask;
use tesc_bench::timing::Harness;
use tesc_bench::{dblp_scenario, Scale};
use tesc_datasets::{
    DblpConfig, DblpScenario, IntrusionConfig, IntrusionScenario, TwitterConfig, TwitterScenario,
};
use tesc_events::store::merge_union;
use tesc_graph::{BfsKernel, BfsScratch, Budget, CsrGraph, NodeId, ScratchPool, VicinityIndex};

/// Group size of the `multi` rows — the full lane word.
const GROUP: usize = tesc_graph::SOURCE_GROUP_SIZE;

/// One benchmark scenario: a graph plus a planted event pair.
struct Scenario {
    name: &'static str,
    graph: CsrGraph,
    va: Vec<NodeId>,
    vb: Vec<NodeId>,
}

fn scenarios() -> Vec<Scenario> {
    let dblp = dblp_scenario(Scale::Small, 42);
    let (va, vb) = dblp.plant_positive_keyword_pair(12, 10, 0.25, &mut StdRng::seed_from_u64(7));
    let intr = IntrusionScenario::build(IntrusionConfig::small(), &mut StdRng::seed_from_u64(42));
    let (ia, ib) = intr.plant_alternating_alert_pair(14, 10, &mut StdRng::seed_from_u64(7));
    vec![
        Scenario {
            name: "dblp",
            graph: dblp.graph,
            va,
            vb,
        },
        Scenario {
            name: "intrusion",
            graph: intr.graph,
            va: ia,
            vb: ib,
        },
    ]
}

fn main() {
    let harness = Harness::new().with_samples(10);
    let mut summary: Vec<(String, f64, f64, f64)> = Vec::new();

    for s in scenarios() {
        let g = &s.graph;
        let n = g.num_nodes();
        eprintln!(
            "{}: {} nodes, {} edges, avg degree {:.1}",
            s.name,
            n,
            g.num_edges(),
            g.average_degree()
        );
        let pool = ScratchPool::for_graph(g);
        let unlimited = Budget::unlimited();
        let ma = NodeMask::from_nodes(n, &s.va);
        let mb = NodeMask::from_nodes(n, &s.vb);
        let (a_norm, b_norm) = (normalize(&s.va), normalize(&s.vb));
        let union = merge_union(&a_norm, &b_norm);
        let index = VicinityIndex::build_parallel(g, 3, threads());
        // Occurrence-list slots for the grouped (multi-source) plans.
        let slot_nodes = vec![a_norm.clone(), b_norm.clone()];

        for h in [1u32, 2, 3] {
            let refs = {
                let mut scratch = BfsScratch::new(n);
                batch_bfs_sample(
                    g,
                    &mut scratch,
                    &union,
                    h,
                    300,
                    &mut StdRng::seed_from_u64(9),
                )
                .nodes
            };
            let scalar = KernelPlan::scalar(g, &ma, &mb, h);
            let bitset = KernelPlan {
                use_bitset: true,
                ..scalar
            };
            let group = GroupKernelPlan {
                graph: g,
                slot_nodes: &slot_nodes,
                h,
                event_side: None,
            };
            let event = GroupKernelPlan {
                event_side: Some(&index),
                ..group
            };
            // Per-row identity verification: every plan must reproduce
            // the scalar baseline bit-for-bit before it gets timed.
            let baseline = density_vectors_plan(&scalar, &pool, &refs, 1, &unlimited);
            assert!(
                baseline == density_vectors_plan(&bitset, &pool, &refs, 1, &unlimited),
                "{}/h{h}/bitset: density vectors diverged from scalar",
                s.name
            );
            for (label, plan) in [("multi", &group), ("event", &event)] {
                let got = density_vectors_group_plan(plan, &pool, &refs, 1, GROUP, &unlimited);
                assert!(
                    baseline == got,
                    "{}/h{h}/{label}: density vectors diverged from scalar",
                    s.name
                );
            }
            let t_scalar = harness.bench(&format!("{}/h{h}/scalar", s.name), || {
                density_vectors_plan(&scalar, &pool, &refs, 1, &unlimited)
            });
            let t_bitset = harness.bench(&format!("{}/h{h}/bitset", s.name), || {
                density_vectors_plan(&bitset, &pool, &refs, 1, &unlimited)
            });
            let t_multi = harness.bench(&format!("{}/h{h}/multi", s.name), || {
                density_vectors_group_plan(&group, &pool, &refs, 1, GROUP, &unlimited)
            });
            harness.bench(&format!("{}/h{h}/event", s.name), || {
                density_vectors_group_plan(&event, &pool, &refs, 1, GROUP, &unlimited)
            });
            if t_scalar.is_finite() && t_bitset.is_finite() {
                summary.push((
                    format!("{}/h{h}", s.name),
                    t_scalar / t_bitset,
                    t_scalar / t_multi,
                    t_bitset / t_multi,
                ));
            }
        }
    }

    if !summary.is_empty() {
        println!("\nrow            bitset  multi   multi_vs_bitset  (speedups; identical results)");
        for (row, sb, sm, smb) in &summary {
            println!("{row:<14} {sb:<7.2} {sm:<7.2} {smb:.2}");
        }
    }

    crossover_sweep(&harness);
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One sweep point: the four fixed routes and `auto` over the same
/// reference sample, each gated bit-identical to scalar before timing;
/// returns auto ÷ best fixed route (`NAN` when filtered out).
fn sweep_point(
    harness: &Harness,
    row: &str,
    g: &CsrGraph,
    index: &VicinityIndex,
    (va, vb): (&[NodeId], &[NodeId]),
    h: u32,
    n: usize,
) -> f64 {
    let nodes = g.num_nodes();
    let (a, b) = (normalize(va), normalize(vb));
    let (ma, mb) = (
        NodeMask::from_nodes(nodes, &a),
        NodeMask::from_nodes(nodes, &b),
    );
    let refs = batch_bfs_sample(
        g,
        &mut BfsScratch::new(nodes),
        &merge_union(&a, &b),
        h,
        n,
        &mut StdRng::seed_from_u64(9),
    )
    .nodes;
    // The inputs of `choose_route`'s cost model, for recalibration.
    eprintln!(
        "{row}: |V| = {nodes}, event chunks = {}, event lane visits = {}, refs = {}, ref visits = {}",
        a.len().div_ceil(GROUP) + b.len().div_ceil(GROUP),
        index.sum_over(&a, h) + index.sum_over(&b, h),
        refs.len(),
        index.sum_over(&refs, h),
    );
    let pool = ScratchPool::for_graph(g);
    let unlimited = Budget::unlimited();
    let slot_nodes = vec![a.clone(), b.clone()];
    let scalar = KernelPlan::scalar(g, &ma, &mb, h);
    let bitset = KernelPlan {
        use_bitset: true,
        ..scalar
    };
    let multi = GroupKernelPlan {
        graph: g,
        slot_nodes: &slot_nodes,
        h,
        event_side: None,
    };
    let event = GroupKernelPlan {
        event_side: Some(index),
        ..multi
    };
    // `BfsKernel::Auto`, resolved the way the engine resolves it: one
    // `choose_route` call per pass, then the route's executor.
    let auto = || match choose_route(BfsKernel::Auto, g, Some(index), h, &refs, &[&a, &b]) {
        Route::EventLanes => density_vectors_group_plan(&event, &pool, &refs, 1, GROUP, &unlimited),
        Route::RefLanes => density_vectors_group_plan(&multi, &pool, &refs, 1, GROUP, &unlimited),
        Route::PerNode if BfsKernel::Auto.use_bitset(g, h) => {
            density_vectors_plan(&bitset, &pool, &refs, 1, &unlimited)
        }
        Route::PerNode => density_vectors_plan(&scalar, &pool, &refs, 1, &unlimited),
    };
    let baseline = density_vectors_plan(&scalar, &pool, &refs, 1, &unlimited);
    assert!(
        baseline == density_vectors_plan(&bitset, &pool, &refs, 1, &unlimited),
        "{row}/bitset diverged from scalar"
    );
    for (label, plan) in [("multi", &multi), ("event", &event)] {
        assert!(
            baseline == density_vectors_group_plan(plan, &pool, &refs, 1, GROUP, &unlimited),
            "{row}/{label} diverged from scalar"
        );
    }
    assert!(baseline == auto(), "{row}/auto diverged from scalar");

    let fixed = [
        harness.bench(&format!("{row}/scalar"), || {
            density_vectors_plan(&scalar, &pool, &refs, 1, &unlimited)
        }),
        harness.bench(&format!("{row}/bitset"), || {
            density_vectors_plan(&bitset, &pool, &refs, 1, &unlimited)
        }),
        harness.bench(&format!("{row}/multi"), || {
            density_vectors_group_plan(&multi, &pool, &refs, 1, GROUP, &unlimited)
        }),
        harness.bench(&format!("{row}/event"), || {
            density_vectors_group_plan(&event, &pool, &refs, 1, GROUP, &unlimited)
        }),
    ];
    let t_auto = harness.bench(&format!("{row}/auto"), auto);
    let regret = t_auto / fixed.iter().copied().fold(f64::INFINITY, f64::min);
    if regret.is_finite() {
        harness.record_row(&format!("{row}/regret"), &[("regret_pct", regret * 100.0)]);
    }
    regret
}

/// The crossover sweep (see the module docs): event sizes × `h` on the
/// Twitter-like graph and the DBLP-like parity point, with the
/// Auto-regret gate.
fn crossover_sweep(harness: &Harness) {
    let mut regrets: Vec<(String, f64)> = Vec::new();
    let tw = TwitterScenario::build(
        TwitterConfig {
            num_nodes: 100_000,
            ..TwitterConfig::default()
        },
        &mut StdRng::seed_from_u64(42),
    );
    let index = VicinityIndex::build_parallel(&tw.graph, 2, threads());
    let mut rng = StdRng::seed_from_u64(7);
    for size in [40usize, 150, 400, 1000] {
        let (va, vb) = tw.plant_background_pair(size, &mut rng);
        for h in [1u32, 2] {
            let row = format!("sweep/e{size}/h{h}");
            let regret = sweep_point(harness, &row, &tw.graph, &index, (&va, &vb), h, 400);
            regrets.push((row, regret));
        }
    }
    let dblp = DblpScenario::build(
        DblpConfig {
            num_communities: 400,
            community_size: 50,
            ..DblpConfig::default()
        },
        &mut StdRng::seed_from_u64(42),
    );
    let index = VicinityIndex::build_parallel(&dblp.graph, 2, threads());
    let (va, vb) = dblp.plant_positive_keyword_pair(40, 20, 0.25, &mut StdRng::seed_from_u64(7));
    let row = "sweep/dblp2x1000/h2".to_string();
    let regret = sweep_point(harness, &row, &dblp.graph, &index, (&va, &vb), 2, 300);
    regrets.push((row, regret));

    regrets.retain(|(_, r)| r.is_finite());
    if regrets.is_empty() {
        return;
    }
    println!("\nsweep point            auto / best fixed route");
    for (row, regret) in &regrets {
        println!("{row:<22} {regret:.2}");
    }
    // One-sample smoke runs (CI) keep the identity gates above; the
    // ratio of two single timings is not a measurement.
    if harness.samples() >= 5 {
        for (row, regret) in &regrets {
            assert!(*regret <= 1.1, "{row}: Auto regret {regret:.2} > 1.1");
        }
    }
}

fn normalize(nodes: &[NodeId]) -> Vec<NodeId> {
    let mut v = nodes.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}
