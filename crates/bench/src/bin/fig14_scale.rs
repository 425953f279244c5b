//! **Figure 14** (beyond the paper) — plain vs compressed CSR at
//! scale: the compression-vs-decode trade-off, measured.
//!
//! At the ROADMAP's million-node tier the h-hop vicinity BFS is
//! memory-bandwidth-bound: the adjacency no longer fits in cache, so
//! what matters is bytes streamed per vicinity, not instructions per
//! neighbor. The delta/varint rows of [`CompressedCsr`] cut those
//! bytes roughly in half at the cost of a decode loop; this binary
//! times the whole TESC test (sampling + density BFS + statistic) on
//! Twitter-like graphs at `n ∈ {100k, 1M} × h ∈ {1, 2}` across all
//! three kernels, on both substrates, and reports bytes-resident and
//! bytes-streamed next to ns/iter so the regimes where compression
//! wins (large n, h = 2) and loses (cache-resident n, h = 1) are
//! visible in the same table.
//!
//! Every row is identity-gated: each kernel × substrate combination
//! must reproduce the plain-CSR scalar reference bit-for-bit
//! (statistic and z-score bits), and the compressed substrate must
//! carry the plain graph's fingerprint. With `--gate-speedup X` the
//! run additionally fails unless compressed beats plain by ≥ X at the
//! largest n × largest h row (the bandwidth-bound regime); with
//! `--gate-disk Y` the `.tgraph` container must be ≥ Y× smaller than
//! the text edge list. With `TESC_BENCH_JSON` set, rows land in the
//! shared JSON-lines artifact.
//!
//! Run: `cargo run --release -p tesc_bench --bin fig14_scale`
//! Flags: `--nodes N1,N2,...`, `--h H1,H2,...`, `--n REFS`,
//! `--seed N`, `--gate-speedup X`, `--gate-disk Y`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::{BfsKernel, Tail, TescConfig, TescEngine, TescResult};
use tesc_bench::timing::Harness;
use tesc_bench::{flag, parse_flags};
use tesc_datasets::twitter_like::{TwitterConfig, TwitterScenario};
use tesc_graph::{Adjacency, BfsScratch, Budget, CompressedCsr, CsrGraph, NodeId};

const USAGE: &str = "fig14_scale — plain vs compressed CSR at scale, all kernels
  --nodes LIST    comma-separated node counts      (default 100000,1000000)
  --h LIST        comma-separated vicinity levels  (default 1,2)
  --n REFS        reference-sample size per test   (default 400)
  --seed N        base seed                        (default 42)
  --gate-speedup X  fail unless compressed/plain speedup ≥ X at the
                    largest nodes × largest h row  (default 0: report only)
  --gate-disk Y     fail unless text/.tgraph size ratio ≥ Y (default 0)";

fn parse_list(
    flags: &std::collections::HashMap<String, String>,
    name: &str,
    default: &str,
) -> Vec<usize> {
    flags
        .get(name)
        .map(String::as_str)
        .unwrap_or(default)
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad --{name} entry {t:?}"))
        })
        .collect()
}

/// `Write` sink that only counts, for sizing the text encoding
/// without touching the filesystem.
struct CountingSink(u64);

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Total adjacency bytes the kernels stream while expanding the
/// `h`-vicinities of `probes` — 4 B/neighbor on plain CSR, the actual
/// packed row bytes on the compressed substrate.
fn streamed_bytes(
    graph: &CsrGraph,
    compressed: &CompressedCsr,
    probes: &[NodeId],
    h: u32,
) -> (u64, u64) {
    let mut scratch = BfsScratch::new(graph.num_nodes());
    let (mut plain, mut comp) = (0u64, 0u64);
    let unlimited = Budget::unlimited();
    for &p in probes {
        scratch
            .visit_h_vicinity(graph, &[p], h, &unlimited, |v, _| {
                plain += 4 * graph.degree(v) as u64;
                comp += compressed.row_bytes(v) as u64;
            })
            .expect("unlimited budget");
    }
    (plain, comp)
}

fn main() {
    let flags = parse_flags(USAGE);
    let nodes_list = parse_list(&flags, "nodes", "100000,1000000");
    let h_list: Vec<u32> = parse_list(&flags, "h", "1,2")
        .iter()
        .map(|&h| h as u32)
        .collect();
    let refs = flag(&flags, "n", 400usize);
    let seed = flag(&flags, "seed", 42u64);
    let gate_speedup = flag(&flags, "gate-speedup", 0.0f64);
    let gate_disk = flag(&flags, "gate-disk", 0.0f64);
    let harness = Harness::new().without_cli_filter().with_samples(5);

    let n_max = nodes_list
        .iter()
        .copied()
        .max()
        .expect("--nodes is nonempty");
    let h_max = h_list.iter().copied().max().expect("--h is nonempty");
    let mut identity_ok = true;
    let mut disk_ok = true;
    let mut gated_speedup = f64::NAN;

    for &n in &nodes_list {
        eprintln!("building Twitter-like graph (n = {n})...");
        let cfg = TwitterConfig {
            num_nodes: n,
            ..TwitterConfig::default()
        };
        let scenario = TwitterScenario::build(cfg, &mut StdRng::seed_from_u64(seed));
        let graph = &scenario.graph;
        let compressed = CompressedCsr::from_graph(graph);
        assert_eq!(
            compressed.fingerprint(),
            graph.fingerprint(),
            "compressed substrate must carry the plain fingerprint"
        );

        // On-disk economics: text edge list vs `.tgraph` container.
        let mut sink = CountingSink(0);
        tesc_graph::io::write_edge_list(graph, &mut sink).expect("counting sink");
        let text_bytes = sink.0;
        let tgraph_bytes = tesc_graph::encode_tgraph(&compressed, None).len() as u64;
        let disk_ratio = text_bytes as f64 / tgraph_bytes as f64;
        if gate_disk > 0.0 && disk_ratio < gate_disk {
            disk_ok = false;
        }
        println!(
            "n={n}: text {text_bytes} B, .tgraph {tgraph_bytes} B ({disk_ratio:.2}x smaller); \
             resident plain {} B, compressed {} B",
            graph.resident_bytes(),
            compressed.resident_bytes(),
        );
        harness.record_row(
            &format!("scale/n={n}/disk"),
            &[
                ("text_bytes", text_bytes as f64),
                ("tgraph_bytes", tgraph_bytes as f64),
                ("disk_ratio", disk_ratio),
                ("plain_resident_bytes", graph.resident_bytes() as f64),
                (
                    "compressed_resident_bytes",
                    compressed.resident_bytes() as f64,
                ),
            ],
        );

        let (va, vb) = scenario.plant_correlated_pair(64, 2, &mut StdRng::seed_from_u64(seed ^ 1));
        let probes: Vec<NodeId> = {
            use rand::Rng;
            let mut r = StdRng::seed_from_u64(seed ^ 2);
            (0..64).map(|_| r.gen_range(0..n as NodeId)).collect()
        };

        for &h in &h_list {
            let cfg = TescConfig::new(h)
                .with_sample_size(refs)
                .with_tail(Tail::Upper);
            let query_seed = seed ^ (h as u64) << 8;
            fn run_one<G: Adjacency>(
                engine: &TescEngine<'_, G>,
                va: &[NodeId],
                vb: &[NodeId],
                cfg: &TescConfig,
                query_seed: u64,
            ) -> TescResult {
                engine
                    .test(va, vb, cfg, &mut StdRng::seed_from_u64(query_seed))
                    .expect("scale test")
            }
            let run =
                |engine: &TescEngine<'_, CsrGraph>| run_one(engine, &va, &vb, &cfg, query_seed);
            let run_c = |engine: &TescEngine<'_, CompressedCsr>| {
                run_one(engine, &va, &vb, &cfg, query_seed)
            };
            let reference = run(&TescEngine::new(graph).with_density_kernel(BfsKernel::Scalar));
            let (plain_streamed, comp_streamed) = streamed_bytes(graph, &compressed, &probes, h);

            for kernel in [BfsKernel::Scalar, BfsKernel::Bitset, BfsKernel::Multi] {
                let plain_engine = TescEngine::new(graph).with_density_kernel(kernel);
                let comp_engine = TescEngine::new(&compressed).with_density_kernel(kernel);
                for (result, substrate) in [
                    (run(&plain_engine), "plain"),
                    (run_c(&comp_engine), "compressed"),
                ] {
                    let same = result == reference
                        && result.z().to_bits() == reference.z().to_bits()
                        && result.statistic().to_bits() == reference.statistic().to_bits();
                    if !same {
                        identity_ok = false;
                        eprintln!(
                            "IDENTITY FAIL: n={n} h={h} kernel={kernel} {substrate} diverges \
                             from the plain scalar reference"
                        );
                    }
                }
                let plain_s = harness.bench(&format!("scale/n={n}/h={h}/{kernel}/plain"), || {
                    run(&plain_engine)
                });
                let comp_s = harness
                    .bench(&format!("scale/n={n}/h={h}/{kernel}/compressed"), || {
                        run_c(&comp_engine)
                    });
                let speedup = plain_s / comp_s.max(1e-12);
                println!(
                    "n={n} h={h} {kernel:<6}  plain {:>10.1} us  compressed {:>10.1} us  \
                     speedup {speedup:.2}x  streamed {plain_streamed} -> {comp_streamed} B",
                    plain_s * 1e6,
                    comp_s * 1e6,
                );
                harness.record_row(
                    &format!("scale/n={n}/h={h}/{kernel}"),
                    &[
                        ("plain_ns", plain_s * 1e9),
                        ("compressed_ns", comp_s * 1e9),
                        ("speedup", speedup),
                        ("plain_streamed_bytes", plain_streamed as f64),
                        ("compressed_streamed_bytes", comp_streamed as f64),
                    ],
                );
                if n == n_max && h == h_max {
                    // Best kernel's ratio at the bandwidth-bound row
                    // (NaN-poisoned start, so the first row always wins).
                    gated_speedup = if gated_speedup.is_nan() {
                        speedup
                    } else {
                        gated_speedup.max(speedup)
                    };
                }
            }
        }
    }

    println!("identity gate: {}", if identity_ok { "ok" } else { "FAIL" });
    let mut failed = !identity_ok;
    if !disk_ok {
        eprintln!("FAIL: .tgraph on-disk ratio under the --gate-disk floor of {gate_disk}");
        failed = true;
    }
    if gate_speedup > 0.0 && (gated_speedup.is_nan() || gated_speedup < gate_speedup) {
        eprintln!(
            "FAIL: best compressed speedup {gated_speedup:.2}x at n={n_max}/h={h_max} \
             is under the --gate-speedup floor of {gate_speedup}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
