//! Micro-benchmarks for the per-test hot paths (Fig. 10).
//!
//! * `bfs/h{1,2,3}` — one h-hop BFS on a Twitter-like graph (the
//!   density computation of Eq. 2).
//! * `zscore/{exact,merge}_n{300,900}` — the Kendall test at the
//!   paper's reference sample sizes.
//! * `sampling/*` — one full reference-node sampling round per
//!   strategy at a fixed event-set size. `sampling/batch_bfs` is the
//!   paper's per-pair enumeration (the oracle); `sampling/reach_mask`
//!   is what the engine runs — two per-event reach bitmaps, OR-ed,
//!   drawn by rank/select — asserted to return the same sample before
//!   either is timed.
//!
//! Runs on the in-repo [`tesc_bench::timing`] harness (criterion is
//! not vendorable offline): `cargo bench --bench micro [-- filter]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::sampler::{
    batch_bfs_sample, importance_sample, mask_sample, reach_mask, whole_graph_sample,
};
use tesc::{BfsScratch, Budget, NodeMask, VicinityIndex};
use tesc_bench::timing::Harness;
use tesc_datasets::twitter_like;
use tesc_graph::perturb::sample_nodes;
use tesc_stats::kendall::{kendall_tau, KendallMethod};

const GRAPH_NODES: usize = 100_000;
const EVENT_NODES: usize = 1_000;
const SAMPLE_SIZE: usize = 900;

fn main() {
    let harness = Harness::new();

    // --- bfs/h{1,2,3} -------------------------------------------------
    let g = twitter_like(GRAPH_NODES, &mut StdRng::seed_from_u64(1));
    let mut scratch = BfsScratch::new(g.num_nodes());
    let sources = sample_nodes(&g, 256, &mut StdRng::seed_from_u64(2));
    for h in [1u32, 2, 3] {
        let mut i = 0usize;
        harness.bench(&format!("bfs/h{h}"), || {
            let s = sources[i % sources.len()];
            i += 1;
            scratch.vicinity_size(&g, s, h)
        });
    }

    // --- zscore/{exact,merge} ----------------------------------------
    let mut rng = StdRng::seed_from_u64(3);
    for n in [300usize, 900] {
        let sa: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(0..40) as f64) / 40.0)
            .collect();
        let sb: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(0..40) as f64) / 40.0)
            .collect();
        harness.bench(&format!("zscore/exact_n{n}"), || {
            kendall_tau(&sa, &sb, KendallMethod::Exact)
        });
        harness.bench(&format!("zscore/merge_n{n}"), || {
            kendall_tau(&sa, &sb, KendallMethod::MergeSort)
        });
    }

    // --- sampling/* ---------------------------------------------------
    let g = twitter_like(GRAPH_NODES, &mut StdRng::seed_from_u64(4));
    let mut scratch = BfsScratch::new(g.num_nodes());
    let events = sample_nodes(&g, EVENT_NODES, &mut StdRng::seed_from_u64(5));
    let h = 1u32;
    let idx = VicinityIndex::build_for_nodes(&g, &events, h);
    let reach = |scratch: &mut BfsScratch, sources: &[u32]| -> NodeMask {
        reach_mask(&g, scratch, sources, h, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    };
    // The events split in two stand for a pair's `a` and `b`.
    let (event_a, event_b) = events.split_at(EVENT_NODES / 2);
    let reach_mask_round = |scratch: &mut BfsScratch| {
        let population = reach(scratch, event_a).union(&reach(scratch, event_b));
        mask_sample(&population, SAMPLE_SIZE, &mut StdRng::seed_from_u64(6))
    };
    assert_eq!(
        reach_mask_round(&mut scratch),
        batch_bfs_sample(
            &g,
            &mut scratch,
            &events,
            h,
            SAMPLE_SIZE,
            &mut StdRng::seed_from_u64(6)
        ),
        "mask draw must equal the Batch BFS oracle"
    );

    harness.bench("sampling/batch_bfs", || {
        let mut rng = StdRng::seed_from_u64(6);
        batch_bfs_sample(&g, &mut scratch, &events, h, SAMPLE_SIZE, &mut rng)
    });
    harness.bench("sampling/reach_mask", || reach_mask_round(&mut scratch));
    harness.bench("sampling/importance", || {
        let mut rng = StdRng::seed_from_u64(7);
        importance_sample(
            &g,
            &mut scratch,
            &events,
            &idx,
            h,
            SAMPLE_SIZE,
            1,
            SAMPLE_SIZE * 64,
            &mut rng,
        )
    });
    harness.bench("sampling/whole_graph", || {
        let mut rng = StdRng::seed_from_u64(8);
        whole_graph_sample(&reach(&mut scratch, &events), SAMPLE_SIZE, &mut rng)
    });
}
