//! Ablation benches for the design choices called out in DESIGN.md §7.
//!
//! * `tau/{exact,merge}_n*` — the O(n²) pair enumeration against
//!   Knight's O(n log n) algorithm across sample sizes (identical
//!   output, cross-checked in tests).
//! * `variance/*` — the tie-corrected Eq. 6 against the naive Eq. 5
//!   (cost of the correction is negligible; correctness is what the
//!   engine pays for).
//! * `bfs_marks/*` — epoch-stamped visited marks against a
//!   clear-the-bitmap-per-search baseline, the reason BfsScratch
//!   exists.
//! * `density/*` — Eq. 2 BFS density against the hitting-time
//!   affinity (the Sec. 5.3 cost claim).
//!
//! Runs on the in-repo [`tesc_bench::timing`] harness (criterion is
//! not vendorable offline): `cargo bench --bench ablations [-- filter]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::density::density_counts;
use tesc::{BfsScratch, Budget, NodeMask};
use tesc_baselines::hitting_time::truncated_hitting_time;
use tesc_bench::timing::Harness;
use tesc_datasets::twitter_like;
use tesc_graph::csr::CsrGraph;
use tesc_graph::perturb::sample_nodes;
use tesc_stats::kendall::{
    pair_counts_exact, pair_counts_merge, var_s_no_ties, var_s_tie_corrected,
};

/// Clearing baseline: a fresh visited bitmap per BFS.
fn bfs_with_clearing(
    g: &CsrGraph,
    visited: &mut [bool],
    queue: &mut Vec<u32>,
    src: u32,
    h: u32,
) -> usize {
    visited.iter_mut().for_each(|b| *b = false);
    queue.clear();
    visited[src as usize] = true;
    queue.push(src);
    let mut count = 1usize;
    let mut level_start = 0usize;
    for _ in 0..h {
        let level_end = queue.len();
        for qi in level_start..level_end {
            let u = queue[qi];
            for &v in g.neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push(v);
                    count += 1;
                }
            }
        }
        level_start = level_end;
    }
    count
}

fn main() {
    let harness = Harness::new().with_samples(15);

    // --- tau ----------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(1);
    for n in [100usize, 300, 900] {
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        harness.bench(&format!("tau/exact_n{n}"), || pair_counts_exact(&x, &y));
        harness.bench(&format!("tau/merge_n{n}"), || pair_counts_merge(&x, &y));
    }

    // --- variance -----------------------------------------------------
    let u: Vec<usize> = (2..100).collect();
    let v: Vec<usize> = (2..80).collect();
    harness.bench("variance/naive_eq5", || var_s_no_ties(900));
    harness.bench("variance/tie_corrected_eq6", || {
        var_s_tie_corrected(900, &u, &v)
    });

    // --- bfs_marks ----------------------------------------------------
    let g = twitter_like(100_000, &mut StdRng::seed_from_u64(2));
    let sources = sample_nodes(&g, 128, &mut StdRng::seed_from_u64(3));
    let h = 2u32;
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut i = 0usize;
    harness.bench("bfs_marks/epoch_stamped", || {
        let s = sources[i % sources.len()];
        i += 1;
        scratch.vicinity_size(&g, s, h)
    });
    let mut visited = vec![false; g.num_nodes()];
    let mut queue = Vec::new();
    let mut j = 0usize;
    harness.bench("bfs_marks/clear_per_search", || {
        let s = sources[j % sources.len()];
        j += 1;
        bfs_with_clearing(&g, &mut visited, &mut queue, s, h)
    });

    // --- density ------------------------------------------------------
    let g = twitter_like(100_000, &mut StdRng::seed_from_u64(4));
    let events = sample_nodes(&g, 1000, &mut StdRng::seed_from_u64(5));
    let mask = NodeMask::from_nodes(g.num_nodes(), &events);
    let sources = sample_nodes(&g, 64, &mut StdRng::seed_from_u64(6));
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut rng = StdRng::seed_from_u64(7);
    let mut i = 0usize;
    let unlimited = Budget::unlimited();
    harness.bench("density/bfs_density_h2", || {
        let s = sources[i % sources.len()];
        i += 1;
        density_counts(&g, &mut scratch, s, 2, &mask, &mask, &unlimited)
    });
    let mut j = 0usize;
    harness.bench("density/hitting_time_t10_w1000", || {
        let s = sources[j % sources.len()];
        j += 1;
        truncated_hitting_time(&g, s, &mask, 10, 1000, &mut rng)
    });
}
