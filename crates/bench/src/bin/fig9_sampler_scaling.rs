//! **Figure 9** — running time of the reference-node sampling
//! algorithms as `|V_{a∪b}|` grows, on the Twitter-like graph, for
//! h = 1, 2, 3.
//!
//! Paper shape to reproduce (Sec. 5.3): Batch BFS cost climbs steeply
//! with the number of event nodes while Importance sampling stays
//! nearly flat; Importance wins outright at h = 1; at h = 2, 3 Batch
//! BFS is preferable for small `|V_{a∪b}|` and Importance for large;
//! Whole-graph sampling is competitive only at h = 3 with very large
//! event sets ("we can process V_{a∪b} with 500K nodes on a graph with
//! 20M nodes in 1.5 s" — scaled down here).
//!
//! The WholeGraph column times the engine's form of Algorithm 3: one
//! reach BFS for `V^h_{a∪b}` as a bitmap, then one bit test per draw
//! (the printed algorithm's per-draw eligibility BFS survives only as
//! a test oracle in `tesc::sampler`), so it tracks the Batch BFS
//! enumeration cost instead of growing with the miss rate `|V|/N`.
//!
//! Only the sampling phase is timed, matching the paper's phase
//! accounting (Sec. 4.4); the `|V^h_v|` index is the offline input of
//! Sec. 4.2 and is built per event set with `build_for_nodes`.
//!
//! Output: `# `-prefixed provenance line, then one row per event-set
//! size: `h |Va∪b| Batch_BFS Importance WholeGraph index_build`, all
//! times mean milliseconds per sampling round.
//!
//! Run: `cargo run --release -p tesc_bench --bin fig9_sampler_scaling`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::sampler::{batch_bfs_sample, importance_sample, reach_mask, whole_graph_sample};
use tesc::{BfsScratch, Budget, VicinityIndex};
use tesc_bench::{flag, importance_batch_size, mean_ms, parse_flags, time};
use tesc_datasets::twitter_like;
use tesc_graph::perturb::sample_nodes;

const USAGE: &str = "fig9_sampler_scaling — sampler running time vs |Va∪b| (Fig. 9)
  --nodes N        Twitter-like graph size (default 200000; paper: 20M)
  --reps N         repetitions per point (default 3; paper: 50)
  --sample-size N  reference nodes per run (default 900)
  --seed N         base seed (default 42)";

fn main() {
    let flags = parse_flags(USAGE);
    let nodes = flag(&flags, "nodes", 200_000usize);
    let reps = flag(&flags, "reps", 3usize);
    let sample_size = flag(&flags, "sample-size", 900usize);
    let seed = flag(&flags, "seed", 42u64);

    eprintln!("building Twitter-like graph ({nodes} nodes)...");
    let g = twitter_like(nodes, &mut StdRng::seed_from_u64(seed));
    eprintln!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());
    let mut scratch = BfsScratch::new(g.num_nodes());

    // Event-set sizes: the paper sweeps 1k..500k on 20M nodes. A 200k
    // graph cannot host reference populations of `n = 900` at the
    // paper's smallest *fractions*, so we sweep 0.5%..25% instead —
    // the regime where the Batch-BFS-vs-Importance crossover lives.
    let fracs = [0.005, 0.01, 0.025, 0.05, 0.125, 0.25];
    let sizes: Vec<usize> = fracs
        .iter()
        .map(|f| ((nodes as f64 * f) as usize).max(1000))
        .collect();

    println!("# Figure 9: sampler running time (ms) vs |Va∪b|, n = {sample_size}, {reps} reps");
    println!(
        "{:<4} {:>10} {:>14} {:>14} {:>14} {:>16}",
        "h", "|Va∪b|", "Batch_BFS", "Importance", "WholeGraph", "index_build"
    );
    for h in [1u32, 2, 3] {
        for &size in &sizes {
            let mut t_batch = Vec::new();
            let mut t_imp = Vec::new();
            let mut t_whole = Vec::new();
            let mut t_index = Vec::new();
            for rep in 0..reps {
                let mut rng = StdRng::seed_from_u64(
                    seed + rep as u64 + ((size as u64) << 20) + ((h as u64) << 50),
                );
                let events = sample_nodes(&g, size, &mut rng);

                let ((), d) = time(|| {
                    let _ = batch_bfs_sample(&g, &mut scratch, &events, h, sample_size, &mut rng);
                });
                t_batch.push(d);

                // Offline index (reported separately, not part of the
                // sampling phase — Sec. 4.2).
                let (idx, d) = time(|| VicinityIndex::build_for_nodes(&g, &events, h));
                t_index.push(d);

                let ((), d) = time(|| {
                    let _ = importance_sample(
                        &g,
                        &mut scratch,
                        &events,
                        &idx,
                        h,
                        sample_size,
                        importance_batch_size(h),
                        sample_size * 64,
                        &mut rng,
                    );
                });
                t_imp.push(d);

                let ((), d) = time(|| {
                    let population = reach_mask(&g, &mut scratch, &events, h, &Budget::unlimited())
                        .expect("unlimited budget cannot exhaust");
                    let _ = whole_graph_sample(&population, sample_size, &mut rng);
                });
                t_whole.push(d);
            }
            println!(
                "{:<4} {:>10} {:>14.2} {:>14.2} {:>14.2} {:>16.2}",
                h,
                size,
                mean_ms(&t_batch),
                mean_ms(&t_imp),
                mean_ms(&t_whole),
                mean_ms(&t_index)
            );
        }
    }
}
