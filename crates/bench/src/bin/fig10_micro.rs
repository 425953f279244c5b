//! **Figure 10** — micro-benchmarks of the two per-test hot phases:
//!
//! * (a) one `h`-hop BFS search vs graph size (the event-density
//!   computation of Eq. 2), h = 1, 2, 3 — the paper reports 5.2 ms for
//!   a 3-hop BFS on 20M nodes, vs 170 ms for the hitting-time
//!   alternative (which we also measure for the comparison claim);
//! * (b) z-score computation vs number of reference nodes
//!   (the `O(n²)` pair enumeration + tie-corrected variance) — the
//!   paper reports 4 ms at n = 1000.
//!
//! Output: two `# `-headed blocks — (a) mean BFS milliseconds per
//! `h graph_nodes` cell, (b) mean z-score-computation milliseconds per
//! reference-sample size `n` for the exact and merge-sort counters.
//!
//! Run: `cargo run --release -p tesc_bench --bin fig10_micro`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::{BfsScratch, NodeMask};
use tesc_baselines::hitting_time::truncated_hitting_time;
use tesc_bench::{flag, mean_ms, parse_flags, time};
use tesc_datasets::twitter_like;
use tesc_graph::perturb::sample_nodes;
use tesc_stats::kendall::{kendall_tau, KendallMethod};

const USAGE: &str = "fig10_micro — h-hop BFS and z-score timing (Fig. 10)
  --max-nodes N  largest Twitter-like graph (default 400000)
  --sources N    BFS sources sampled per point (default 100)
  --seed N       base seed (default 42)";

fn main() {
    let flags = parse_flags(USAGE);
    let max_nodes = flag(&flags, "max-nodes", 400_000usize);
    let sources = flag(&flags, "sources", 100usize);
    let seed = flag(&flags, "seed", 42u64);

    // ---- (a) h-hop BFS time vs graph size -------------------------
    let sizes: Vec<usize> = [1usize, 2, 4, 8]
        .iter()
        .map(|d| max_nodes / 8 * d)
        .collect();
    println!("# Figure 10(a): mean time (ms) of one h-hop BFS vs graph size");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>16}",
        "nodes", "h=1", "h=2", "h=3", "hitting_time"
    );
    for &n in &sizes {
        eprintln!("building Twitter-like graph ({n} nodes)...");
        let g = twitter_like(n, &mut StdRng::seed_from_u64(seed));
        let mut scratch = BfsScratch::new(g.num_nodes());
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let srcs = sample_nodes(&g, sources, &mut rng);
        let mut per_h = [0.0f64; 3];
        for h in [1u32, 2, 3] {
            let mut ts = Vec::with_capacity(srcs.len());
            for &s in &srcs {
                let ((), d) = time(|| {
                    scratch.vicinity_size(&g, s, h);
                });
                ts.push(d);
            }
            per_h[h as usize - 1] = mean_ms(&ts);
        }
        // Hitting-time comparison (Sec. 5.3 claim): one source, walk
        // budget typical of truncated-hitting-time approximations.
        let targets = NodeMask::from_nodes(g.num_nodes(), &sample_nodes(&g, 100, &mut rng));
        let mut ts = Vec::with_capacity(srcs.len().min(20));
        for &s in srcs.iter().take(20) {
            let ((), d) = time(|| {
                let _ = truncated_hitting_time(&g, s, &targets, 10, 1000, &mut rng);
            });
            ts.push(d);
        }
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.3} {:>16.3}",
            n,
            per_h[0],
            per_h[1],
            per_h[2],
            mean_ms(&ts)
        );
    }

    // ---- (b) z-score computation time vs n ------------------------
    println!("# Figure 10(b): z-score computation time (ms) vs number of reference nodes");
    println!("{:<8} {:>12} {:>14}", "n", "exact_O(n^2)", "merge_O(nlogn)");
    let mut rng = StdRng::seed_from_u64(seed + 2);
    for n in (100..=1000).step_by(100) {
        // Density-like vectors with plenty of ties (quantized ratios).
        let sa: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(0..40) as f64) / 40.0)
            .collect();
        let sb: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(0..40) as f64) / 40.0)
            .collect();
        let reps = 20;
        let mut t_exact = Vec::with_capacity(reps);
        let mut t_merge = Vec::with_capacity(reps);
        for _ in 0..reps {
            let ((), d) = time(|| {
                let _ = kendall_tau(&sa, &sb, KendallMethod::Exact);
            });
            t_exact.push(d);
            let ((), d) = time(|| {
                let _ = kendall_tau(&sa, &sb, KendallMethod::MergeSort);
            });
            t_merge.push(d);
        }
        println!(
            "{:<8} {:>12.3} {:>14.3}",
            n,
            mean_ms(&t_exact),
            mean_ms(&t_merge)
        );
    }
}
