//! Density-kernel shoot-out: **scalar** vs **bitset** vs **multi**
//! (64-way source batching) vs **event** lanes, the routes of the one
//! density executor (`tesc::density::run_density`), each run on the
//! same one-pair workset.
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
use tesc::density::{choose_route, run_density, Route, Workset};
use tesc::sampler::batch_bfs_sample;
use tesc::{EventKey, TescEngine};
use tesc_bench::timing::Harness;
use tesc_bench::{dblp_scenario, Scale};
use tesc_datasets::{
    DblpConfig, DblpScenario, IntrusionConfig, IntrusionScenario, TwitterConfig, TwitterScenario,
};
use tesc_events::store::merge_union;
use tesc_graph::{BfsKernel, BfsScratch, CsrGraph, NodeId, VicinityIndex};

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

/// The executor's density vectors `(s_a, s_b)` of the one-pair
/// workset `work` on `route`, read back at `positions` (the sample
/// order) the way `TescEngine::test` reads them.
fn vectors(
    engine: &TescEngine<'_>,
    work: &Workset,
    positions: &[usize],
    route: Route,
) -> (Vec<f64>, Vec<f64>) {
    let d = run_density(engine, work, route, None, 1, GROUP).expect("unlimited budget");
    positions
        .iter()
        .map(|&i| {
            let (size, c) = d.at(work, i);
            (c[0] as f64 / size as f64, c[1] as f64 / size as f64)
        })
        .unzip()
}

/// One engine per fixed kernel over `g` and its index: the `scalar`
/// and `bitset` rows run the per-node route, `multi` and `event` the
/// two grouped routes (whose kernel is fixed), `auto` resolves
/// [`BfsKernel::Auto`] the way the engine does.
struct Engines<'a> {
    scalar: TescEngine<'a>,
    bitset: TescEngine<'a>,
    auto: TescEngine<'a>,
}

impl<'a> Engines<'a> {
    fn new(g: &'a CsrGraph, index: &'a VicinityIndex) -> Self {
        let engine = |kernel| TescEngine::with_vicinity_index(g, index).with_density_kernel(kernel);
        Engines {
            scalar: engine(BfsKernel::Scalar),
            bitset: engine(BfsKernel::Bitset),
            auto: engine(BfsKernel::Auto),
        }
    }
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
        let index = VicinityIndex::build_parallel(g, 3, threads());
        let engines = Engines::new(g, &index);
        let union = merge_union(&normalize(&s.va), &normalize(&s.vb));
        let keys = vec![EventKey::new(&s.va), EventKey::new(&s.vb)];

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
            let (work, at) = Workset::uniform(h, keys.clone(), &refs);
            let rows = [
                ("scalar", &engines.scalar, Route::PerNode),
                ("bitset", &engines.bitset, Route::PerNode),
                ("multi", &engines.auto, Route::RefLanes),
                ("event", &engines.auto, Route::EventLanes),
            ];
            // Per-row identity verification: every route must reproduce
            // the scalar baseline bit-for-bit before it gets timed.
            let baseline = vectors(&engines.scalar, &work, &at, Route::PerNode);
            for (label, engine, route) in &rows[1..] {
                assert!(
                    baseline == vectors(engine, &work, &at, *route),
                    "{}/h{h}/{label}: density vectors diverged from scalar",
                    s.name
                );
            }
            let [t_scalar, t_bitset, t_multi, _] = rows.map(|(label, engine, route)| {
                harness.bench(&format!("{}/h{h}/{label}", s.name), || {
                    vectors(engine, &work, &at, route)
                })
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
    let engines = Engines::new(g, index);
    let (work, at) = Workset::uniform(h, vec![EventKey::new(&a), EventKey::new(&b)], &refs);
    // `BfsKernel::Auto`, resolved the way the engine resolves it: one
    // `choose_route` call per pass, then the executor on that route.
    let auto = || {
        let route = choose_route(BfsKernel::Auto, g, Some(index), h, work.nodes(), &[&a, &b]);
        vectors(&engines.auto, &work, &at, route)
    };
    let rows = [
        ("scalar", &engines.scalar, Route::PerNode),
        ("bitset", &engines.bitset, Route::PerNode),
        ("multi", &engines.auto, Route::RefLanes),
        ("event", &engines.auto, Route::EventLanes),
    ];
    let baseline = vectors(&engines.scalar, &work, &at, Route::PerNode);
    for (label, engine, route) in &rows[1..] {
        assert!(
            baseline == vectors(engine, &work, &at, *route),
            "{row}/{label} diverged from scalar"
        );
    }
    assert!(baseline == auto(), "{row}/auto diverged from scalar");

    let fixed = rows.map(|(label, engine, route)| {
        harness.bench(&format!("{row}/{label}"), || {
            vectors(engine, &work, &at, route)
        })
    });
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
