//! `tesc-cli` — run the TESC test from the command line.
//!
//! ```text
//! tesc-cli demo --dir DIR
//!     Write a demo scenario (graph, two correlated event files and a
//!     pair-list file for `batch`).
//!
//! tesc-cli convert --graph G.txt --out G.tgraph
//!     Re-encode a graph as a `.tgraph` container: delta-encoded,
//!     varint-packed adjacency with CRC-checked sections (see
//!     `tesc_graph::container`). Every command's --graph flag
//!     accepts either encoding (sniffed by magic); containers load in
//!     near-zero-parse time and hold the compressed rows resident,
//!     streaming neighbors straight into the BFS kernels.
//!
//! tesc-cli test --graph G.txt --event-a A.txt --event-b B.txt
//!               [--h 1] [--n 900] [--tail upper|lower|two]
//!               [--alpha 0.05] [--sampler batch|reject|importance|whole]
//!               [--statistic kendall|spearman] [--seed 42]
//!               [--kernel auto|scalar|bitset|multi]
//!     Run the TESC significance test and the transaction-correlation
//!     baseline, print both. --kernel picks the density BFS kernel
//!     (default auto: expected-density heuristic, batching reference
//!     nodes into 64-way multi-source traversals on big samples;
//!     multi forces the batching). It is a pure performance switch —
//!     results are bit-identical.
//!
//! tesc-cli batch --graph G.txt --pairs PAIRS.txt [--threads 0]
//!                [--h 1] [--n 900] [--tail upper|lower|two]
//!                [--alpha 0.05] [--sampler batch|reject|importance|whole]
//!                [--statistic kendall|spearman] [--seed 42] [--cache on]
//!                [--kernel auto|scalar|bitset|multi]
//!     Run every pair of PAIRS.txt through the parallel batch engine
//!     (tesc::batch) and print one row per pair plus a summary.
//!     --threads 0 uses every core; results are bit-identical at any
//!     thread count. --cache on (default) shares per-(event, node, h)
//!     density counts across pairs; off disables (results identical).
//!
//! tesc-cli rank --graph G.txt --events EVENTS.txt
//!               [--pairs NPAIRS.txt | --focus EVENT] [--top-k K]
//!               [--mode exact|anytime:EPS] [--deadline DUR]
//!               [--threads 0] [--h 1] [--n 900] [--tail upper|lower|two]
//!               [--alpha 0.05] [--sampler batch|reject|importance|whole]
//!               [--statistic kendall|spearman] [--seed 42] [--cache on]
//!               [--kernel auto|scalar|bitset|multi]
//!     Rank event pairs by TESC evidence through the fused pair-set
//!     planner (tesc::rank): all pairs of EVENTS.txt by default,
//!     `--focus EVENT` for one event against every partner, or an
//!     explicit candidate list via --pairs. --top-k keeps the best K
//!     and prunes candidates whose significance budget cannot reach
//!     the cutoff. Scores are content-seeded: a pair ranks the same
//!     wherever it appears in the candidate list. With
//!     `--mode anytime:EPS` (and a --top-k cutoff) pairs start at a
//!     small sample and only escalate while their `1−EPS` confidence
//!     interval straddles the K-th score; the table then shows the
//!     sample tier each pair was decided at (`anytime:0` is
//!     bit-identical to exact). `--deadline DUR` (e.g. 500ms, 2s)
//!     bounds the whole run with a cooperative budget: anytime runs
//!     degrade to the best ranking decided in time, exact runs stop
//!     with the typed `Interrupted` error.
//!
//! tesc-cli stream --graph G.txt --events EVENTS.txt --pairs NPAIRS.txt
//!                 --updates U.txt [--threads 0] [--h 1] [--n 900]
//!                 [--tail ...] [--alpha ...] [--sampler ...]
//!                 [--statistic ...] [--seed 42] [--kernel ...]
//!                 [--cache-budget 64M] [--data-dir DIR] [--snapshot-every N]
//!     Load the graph and named events into a versioned TescContext,
//!     test every pair at version 1, then ingest the update script and
//!     re-test the affected pairs after every commit.
//! ```
//!
//! Each subcommand accepts exactly the flags listed for it: any other
//! flag (a misspelling, or one that no longer exists) is rejected with
//! `unknown flag --NAME` and the usage text instead of being ignored.
//!
//! Graph format: `tesc_graph::io` edge list (`num_nodes num_edges`
//! header, one `u v` pair per line). Event format: one node id per
//! line (`tesc_events::io`). Pair-list format: one pair per line,
//! `label a1,a2,a3 b1,b2,b3` (comma-separated node ids; `#` starts a
//! comment).
//!
//! `stream` formats: EVENTS.txt holds `name v1,v2,v3` per line
//! (`tesc_events::io::read_named_events`); NPAIRS.txt holds
//! `label eventA eventB` per line referencing event *names*; U.txt is
//! an update script of
//!
//! ```text
//! edge U V              # stage one edge addition
//! event NAME v1,v2,...  # stage occurrence additions (creates NAME if new)
//! commit                # publish the staged deltas as the next version
//! ```
//!
//! with an implicit trailing `commit`. After each commit the tool
//! re-tests only the *affected* pairs: those whose events changed,
//! plus those with an event occurrence within `2h` hops (in the new
//! graph) of an added edge's endpoint — any reference node whose
//! density could have moved lies within `h` of both an event node and
//! a touched endpoint, so the `2h` ball is a sound over-approximation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tesc::batch::{run_batch, BatchRequest, EventPair};
use tesc::context::TescContext;
use tesc::{
    BfsKernel, DensityCache, SamplerKind, SignificanceLevel, Statistic, Tail, TescConfig,
    TescEngine,
};
use tesc_baselines::{lift, transaction_correlation};
use tesc_events::NodeMask;
use tesc_graph::{encode_tgraph, Adjacency, BfsScratch, CompressedCsr, NodeId, VicinityIndex};
use tesc_repro::{load_csr, load_graph, LoadedGraph};

const USAGE: &str = "usage:
  tesc-cli demo --dir DIR
  tesc-cli convert --graph G.txt --out G.tgraph
  tesc-cli test --graph G.txt --event-a A.txt --event-b B.txt
                [--h 1] [--n 900] [--tail upper|lower|two] [--alpha 0.05]
                [--sampler batch|reject|importance|whole]
                [--statistic kendall|spearman] [--seed 42]
                [--kernel auto|scalar|bitset|multi]
  tesc-cli batch --graph G.txt --pairs PAIRS.txt [--threads 0]
                [--h 1] [--n 900] [--tail upper|lower|two] [--alpha 0.05]
                [--sampler batch|reject|importance|whole]
                [--statistic kendall|spearman] [--seed 42] [--cache on|off]
                [--kernel auto|scalar|bitset|multi]
  tesc-cli rank --graph G.txt --events EVENTS.txt
                [--pairs NPAIRS.txt | --focus EVENT] [--top-k K]
                [--mode exact|anytime:EPS] [--deadline DUR] [--threads 0]
                [--h 1] [--n 900] [--tail upper|lower|two] [--alpha 0.05]
                [--sampler batch|reject|importance|whole]
                [--statistic kendall|spearman] [--seed 42] [--cache on|off]
                [--kernel auto|scalar|bitset|multi]
  tesc-cli stream --graph G.txt --events EVENTS.txt --pairs NPAIRS.txt
                --updates U.txt [--threads 0]
                [--h 1] [--n 900] [--tail upper|lower|two] [--alpha 0.05]
                [--sampler batch|reject|importance|whole]
                [--statistic kendall|spearman] [--seed 42]
                [--kernel auto|scalar|bitset|multi]
                [--cache-budget 64M|1G|inf]   (default 64M: long replays
                 run under the bounded, second-chance-evicting cache)
                [--data-dir DIR] [--snapshot-every 1024]

Every --graph flag accepts a text edge list or a `.tgraph` compressed
container (sniffed by magic); `convert` produces the latter.";

type Command = fn(&HashMap<String, String>) -> Result<(), String>;

/// The test-configuration flags (`config_from_flags` + `kernel_flag`)
/// every testing subcommand accepts.
const CONFIG_FLAGS: &[&str] = &[
    "h",
    "n",
    "tail",
    "alpha",
    "sampler",
    "statistic",
    "seed",
    "kernel",
];

/// Every subcommand, whether it takes [`CONFIG_FLAGS`], and its own
/// flags. [`parse_flags`] rejects any other flag, so a misspelled or
/// removed knob fails loudly instead of silently running the default.
const COMMANDS: &[(&str, Command, bool, &[&str])] = &[
    ("demo", run_demo, false, &["dir", "seed"]),
    ("convert", run_convert, false, &["graph", "out"]),
    ("test", run_test, true, &["graph", "event-a", "event-b"]),
    (
        "batch",
        run_batch_cmd,
        true,
        &["graph", "pairs", "threads", "cache"],
    ),
    (
        "rank",
        run_rank_cmd,
        true,
        &[
            "graph", "events", "pairs", "focus", "top-k", "mode", "deadline", "threads", "cache",
        ],
    ),
    (
        "stream",
        run_stream_cmd,
        true,
        &[
            "graph",
            "events",
            "pairs",
            "updates",
            "threads",
            "cache-budget",
            "data-dir",
            "snapshot-every",
        ],
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(&(_, command, takes_config, own)) = COMMANDS.iter().find(|(name, ..)| name == cmd)
    else {
        eprintln!("error: unknown command {cmd:?}");
        return ExitCode::FAILURE;
    };
    let config: &[&str] = if takes_config { CONFIG_FLAGS } else { &[] };
    let flags = match parse_flags(rest, &[own, config].concat()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse `--name value` pairs, rejecting any flag not in `accepted`.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", args[i]))?;
        if !accepted.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn get<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("could not parse --{name} {v:?}")),
        None => Ok(default),
    }
}

/// Write a small demo scenario into `--dir`: a community graph plus two
/// positively correlated events, ready for `tesc-cli test`.
fn run_demo(flags: &HashMap<String, String>) -> Result<(), String> {
    let dir = get(flags, "dir")?;
    let seed: u64 = parse(flags, "seed", 7u64)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (graph, _) = tesc_graph::generators::planted_partition(100, 20, 0.4, 0.002, &mut rng);
    let va: Vec<u32> = (0..25u32)
        .flat_map(|c| (0..4).map(move |i| c * 20 + i))
        .collect();
    let vb: Vec<u32> = (0..25u32)
        .flat_map(|c| (4..8).map(move |i| c * 20 + i))
        .collect();

    let write = |name: &str, f: &dyn Fn(&mut BufWriter<File>) -> std::io::Result<()>| {
        let path = Path::new(dir).join(name);
        let file = File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        let mut w = BufWriter::new(file);
        f(&mut w).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("graph.txt", &|w| tesc_graph::io::write_edge_list(&graph, w))?;
    write("event_a.txt", &|w| tesc_events::io::write_node_list(&va, w))?;
    write("event_b.txt", &|w| tesc_events::io::write_node_list(&vb, w))?;
    // A pair list for `tesc-cli batch`: the planted positive pair plus
    // pairs placed in disjoint, far-apart communities — structurally
    // *separated*, so TESC reads them as strongly negative (repulsion);
    // under the suggested `--tail upper` they report Independent.
    write("pairs.txt", &|w| {
        writeln!(w, "# label a_nodes b_nodes (comma-separated)")?;
        let fmt = |v: &[u32]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(w, "planted_positive {} {}", fmt(&va), fmt(&vb))?;
        for c in 0..4u32 {
            let xa: Vec<u32> = (0..5u32).map(|i| c * 20 + 2 * i).collect();
            let xb: Vec<u32> = (0..5u32).map(|i| (c + 10) * 20 + 2 * i + 1).collect();
            writeln!(w, "separated_communities_{c} {} {}", fmt(&xa), fmt(&xb))?;
        }
        Ok(())
    })?;
    println!("wrote {dir}/graph.txt, {dir}/event_a.txt, {dir}/event_b.txt, {dir}/pairs.txt");
    println!("try: tesc-cli test --graph {dir}/graph.txt --event-a {dir}/event_a.txt --event-b {dir}/event_b.txt --tail upper --n 300");
    println!(
        "or:  tesc-cli batch --graph {dir}/graph.txt --pairs {dir}/pairs.txt --tail upper --n 300"
    );
    Ok(())
}

/// Re-encode a graph file (either encoding) as a `.tgraph` container.
fn run_convert(flags: &HashMap<String, String>) -> Result<(), String> {
    let graph_path = get(flags, "graph")?;
    let out_path = get(flags, "out")?;
    let input_bytes = std::fs::metadata(graph_path)
        .map_err(|e| format!("reading {graph_path}: {e}"))?
        .len();
    let loaded = load_graph(graph_path)?;
    let encoding = loaded.encoding();
    let compressed = match loaded {
        LoadedGraph::Plain(g) => CompressedCsr::from_graph(&g),
        // Converting a container is a no-op re-encode.
        LoadedGraph::Compressed(c) => c,
    };
    let bytes = encode_tgraph(&compressed, None);
    std::fs::write(out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "{graph_path} ({encoding}): {} nodes, {} edges",
        compressed.num_nodes(),
        compressed.num_edges()
    );
    println!("  input:     {input_bytes} B");
    println!(
        "  container: {} B on disk ({:.2}x smaller)",
        bytes.len(),
        input_bytes as f64 / bytes.len() as f64
    );
    println!(
        "  resident:  {} B (packed adjacency + directory)",
        compressed.resident_bytes()
    );
    Ok(())
}

/// Build the [`TescConfig`] shared by `test` and `batch` from flags.
fn config_from_flags(flags: &HashMap<String, String>) -> Result<TescConfig, String> {
    let h: u32 = parse(flags, "h", 1u32)?;
    let n: usize = parse(flags, "n", 900usize)?;
    let alpha: f64 = parse(flags, "alpha", 0.05f64)?;
    let tail = match flags.get("tail").map(String::as_str) {
        None | Some("two") => Tail::TwoSided,
        Some("upper") => Tail::Upper,
        Some("lower") => Tail::Lower,
        Some(other) => return Err(format!("--tail must be upper|lower|two, got {other:?}")),
    };
    let sampler = match flags.get("sampler").map(String::as_str) {
        None | Some("batch") => SamplerKind::BatchBfs,
        Some("reject") => SamplerKind::Rejection,
        Some("importance") => SamplerKind::Importance {
            batch_size: match h {
                1 => 1,
                2 => 3,
                _ => 6,
            },
        },
        Some("whole") => SamplerKind::WholeGraph,
        Some(other) => {
            return Err(format!(
                "--sampler must be batch|reject|importance|whole, got {other:?}"
            ))
        }
    };
    let statistic = match flags.get("statistic").map(String::as_str) {
        None | Some("kendall") => Statistic::KendallTau,
        Some("spearman") => Statistic::SpearmanRho,
        Some(other) => {
            return Err(format!(
                "--statistic must be kendall|spearman, got {other:?}"
            ))
        }
    };
    Ok(TescConfig::new(h)
        .with_sample_size(n)
        .with_tail(tail)
        .with_alpha(SignificanceLevel::new(alpha))
        .with_sampler(sampler)
        .with_statistic(statistic))
}

/// Parse the density-kernel performance knob shared by `test`,
/// `batch`, `rank` and `stream` (results are bit-identical for every
/// choice).
fn kernel_flag(flags: &HashMap<String, String>) -> Result<BfsKernel, String> {
    Ok(match flags.get("kernel").map(String::as_str) {
        None | Some("auto") => BfsKernel::Auto,
        Some("scalar") => BfsKernel::Scalar,
        Some("bitset") => BfsKernel::Bitset,
        Some("multi") => BfsKernel::Multi,
        Some(other) => {
            return Err(format!(
                "--kernel must be auto|scalar|bitset|multi, got {other:?}"
            ))
        }
    })
}

fn open(p: &str) -> Result<BufReader<File>, String> {
    File::open(p)
        .map(BufReader::new)
        .map_err(|e| format!("opening {p}: {e}"))
}

fn run_test(flags: &HashMap<String, String>) -> Result<(), String> {
    match load_graph(get(flags, "graph")?)? {
        LoadedGraph::Plain(g) => run_test_on(&g, flags),
        LoadedGraph::Compressed(c) => run_test_on(&c, flags),
    }
}

fn run_test_on<G: Adjacency>(graph: &G, flags: &HashMap<String, String>) -> Result<(), String> {
    let a_path = get(flags, "event-a")?;
    let b_path = get(flags, "event-b")?;
    let seed: u64 = parse(flags, "seed", 42u64)?;
    let cfg = config_from_flags(flags)?;
    let (h, alpha, sampler) = (cfg.h, cfg.alpha.alpha(), cfg.sampler);

    let va = tesc_events::io::read_node_list(&mut open(a_path)?)
        .map_err(|e| format!("reading {a_path}: {e}"))?;
    let vb = tesc_events::io::read_node_list(&mut open(b_path)?)
        .map_err(|e| format!("reading {b_path}: {e}"))?;
    for (name, nodes) in [(a_path, &va), (b_path, &vb)] {
        if let Some(&v) = nodes.iter().find(|&&v| v as usize >= graph.num_nodes()) {
            return Err(format!(
                "{name}: node {v} out of range, the graph has only {} nodes",
                graph.num_nodes()
            ));
        }
    }

    eprintln!(
        "graph: {} nodes, {} edges; |V_a| = {}, |V_b| = {}",
        graph.num_nodes(),
        graph.num_edges(),
        va.len(),
        vb.len()
    );

    let mut rng = StdRng::seed_from_u64(seed);

    // Rejection/importance need the vicinity index over the event nodes.
    let needs_index = matches!(
        sampler,
        SamplerKind::Rejection | SamplerKind::Importance { .. }
    );
    let kernel = kernel_flag(flags)?;
    let index;
    let engine = if needs_index {
        let mut union = va.clone();
        union.extend(&vb);
        union.sort_unstable();
        union.dedup();
        eprintln!("building |V^h_v| index for {} event nodes...", union.len());
        index = VicinityIndex::build_for_nodes(graph, &union, h);
        TescEngine::with_vicinity_index(graph, &index)
    } else {
        TescEngine::new(graph)
    }
    .with_density_kernel(kernel);

    let result = engine
        .test(&va, &vb, &cfg, &mut rng)
        .map_err(|e| format!("TESC test failed: {e}"))?;
    println!("TESC (h = {h}, n = {}, {sampler}):", result.n_refs);
    println!("  statistic = {:+.4}", result.statistic());
    println!("  z-score   = {:+.3}", result.z());
    println!("  p-value   = {:.3e}", result.outcome.p_value);
    println!(
        "  verdict   = {:?} (alpha = {alpha})",
        result.outcome.verdict
    );

    let tc = transaction_correlation(graph.num_nodes(), &va, &vb);
    println!("Transaction correlation baseline:");
    println!("  tau_b     = {:+.4}", tc.tau_b);
    println!("  z-score   = {:+.3}", tc.z);
    if let Some(l) = lift(graph.num_nodes(), &va, &vb) {
        println!("  lift      = {l:.3}");
    }
    Ok(())
}

/// Parse a pair-list file: one pair per line,
/// `label a1,a2,a3 b1,b2,b3`; blank lines and `#` comments skipped.
fn parse_pairs(text: &str, path: &str) -> Result<Vec<EventPair>, String> {
    let parse_ids = |field: &str, line_no: usize| -> Result<Vec<NodeId>, String> {
        field
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse::<NodeId>()
                    .map_err(|_| format!("{path}:{line_no}: bad node id {t:?}"))
            })
            .collect()
    };
    let mut pairs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(label), Some(a), Some(b), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!(
                "{path}:{}: expected `label a1,a2,... b1,b2,...`, got {line:?}",
                i + 1
            ));
        };
        pairs.push(EventPair::new(
            label,
            parse_ids(a, i + 1)?,
            parse_ids(b, i + 1)?,
        ));
    }
    if pairs.is_empty() {
        return Err(format!("{path}: no pairs found"));
    }
    Ok(pairs)
}

/// Run a whole pair list through the parallel batch engine.
fn run_batch_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    match load_graph(get(flags, "graph")?)? {
        LoadedGraph::Plain(g) => run_batch_on(&g, flags),
        LoadedGraph::Compressed(c) => run_batch_on(&c, flags),
    }
}

fn run_batch_on<G: Adjacency>(graph: &G, flags: &HashMap<String, String>) -> Result<(), String> {
    let pairs_path = get(flags, "pairs")?;
    let seed: u64 = parse(flags, "seed", 42u64)?;
    let threads: usize = parse(flags, "threads", 0usize)?;
    let cfg = config_from_flags(flags)?;

    let text =
        std::fs::read_to_string(pairs_path).map_err(|e| format!("reading {pairs_path}: {e}"))?;
    let pairs = parse_pairs(&text, pairs_path)?;
    for p in &pairs {
        if let Some(&v) =
            p.a.iter()
                .chain(&p.b)
                .find(|&&v| v as usize >= graph.num_nodes())
        {
            return Err(format!(
                "{pairs_path}: pair {:?} names node {v}, but the graph has only {} nodes",
                p.label,
                graph.num_nodes()
            ));
        }
    }

    eprintln!(
        "graph: {} nodes, {} edges; {} pairs from {pairs_path}",
        graph.num_nodes(),
        graph.num_edges(),
        pairs.len()
    );

    // Rejection/importance need the vicinity index over every event
    // node that occurs anywhere in the batch — built once, shared by
    // all worker threads.
    let needs_index = matches!(
        cfg.sampler,
        SamplerKind::Rejection | SamplerKind::Importance { .. }
    );
    let kernel = kernel_flag(flags)?;
    let index;
    let mut engine = if needs_index {
        let mut union: Vec<NodeId> = pairs
            .iter()
            .flat_map(|p| p.a.iter().chain(&p.b).copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        eprintln!("building |V^h_v| index for {} event nodes...", union.len());
        index = VicinityIndex::build_for_nodes(graph, &union, cfg.h);
        TescEngine::with_vicinity_index(graph, &index)
    } else {
        TescEngine::new(graph)
    }
    .with_density_kernel(kernel);
    let cache = match flags.get("cache").map(String::as_str) {
        None | Some("on") => {
            let cache = Arc::new(DensityCache::for_graph(graph));
            engine = engine.with_density_cache(cache.clone());
            Some(cache)
        }
        Some("off") => None,
        Some(other) => return Err(format!("--cache must be on|off, got {other:?}")),
    };

    let req = BatchRequest::new(cfg)
        .with_seed(seed)
        .with_threads(threads)
        .with_pairs(pairs);
    let report = run_batch(&engine, &req);
    if let Some(cache) = cache {
        eprintln!(
            "density cache: {} BFS run, {} reused from {} memoized counts",
            cache.bfs_invocations(),
            cache.hits(),
            cache.len()
        );
    }

    print_outcome_rows(&report);
    println!("summary: {}", report.summary());
    Ok(())
}

/// Print the per-pair result table shared by `batch` and `stream`.
fn print_outcome_rows(report: &tesc::BatchReport) {
    println!(
        "{:<24} {:>9} {:>8} {:>10} {:>9}  verdict",
        "pair", "statistic", "z", "p", "n_refs"
    );
    for o in &report.outcomes {
        match &o.result {
            Ok(r) => println!(
                "{:<24} {:>+9.4} {:>+8.3} {:>10.3e} {:>9}  {:?}",
                o.label,
                r.statistic(),
                r.z(),
                r.outcome.p_value,
                r.n_refs,
                r.outcome.verdict
            ),
            Err(e) => println!("{:<24} failed: {e}", o.label),
        }
    }
}

/// Rank event pairs by TESC evidence through the fused pair-set
/// planner (`tesc::rank`).
fn run_rank_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    match load_graph(get(flags, "graph")?)? {
        LoadedGraph::Plain(g) => run_rank_on(&g, flags),
        LoadedGraph::Compressed(c) => run_rank_on(&c, flags),
    }
}

fn run_rank_on<G: Adjacency>(graph: &G, flags: &HashMap<String, String>) -> Result<(), String> {
    let events_path = get(flags, "events")?;
    let seed: u64 = parse(flags, "seed", 42u64)?;
    let threads: usize = parse(flags, "threads", 0usize)?;
    let cfg = config_from_flags(flags)?;

    let store = tesc_events::io::read_named_events(&mut open(events_path)?)
        .map_err(|e| format!("reading {events_path}: {e}"))?;
    for (_, name, nodes) in store.iter() {
        if let Some(&v) = nodes.iter().find(|&&v| v as usize >= graph.num_nodes()) {
            return Err(format!(
                "{events_path}: event {name:?} names node {v}, but the graph has only {} nodes",
                graph.num_nodes()
            ));
        }
    }

    // Candidate set: explicit list > one-vs-all focus > all pairs —
    // the latter two via the store's enumeration helpers.
    let candidates: Vec<EventPair> = if let Some(pairs_path) = flags.get("pairs") {
        if flags.contains_key("focus") {
            return Err("--pairs and --focus are mutually exclusive".into());
        }
        let text = std::fs::read_to_string(pairs_path)
            .map_err(|e| format!("reading {pairs_path}: {e}"))?;
        parse_named_pairs(&text, pairs_path)?
            .into_iter()
            .map(|(label, a_name, b_name)| {
                let resolve = |name: &str| {
                    store
                        .id_by_name(name)
                        .ok_or_else(|| format!("{pairs_path}: unknown event {name:?}"))
                };
                let (a, b) = (resolve(&a_name)?, resolve(&b_name)?);
                Ok(EventPair::new(
                    label,
                    store.nodes(a).to_vec(),
                    store.nodes(b).to_vec(),
                ))
            })
            .collect::<Result<_, String>>()?
    } else {
        let id_pairs = match flags.get("focus") {
            Some(name) => {
                let id = store
                    .id_by_name(name)
                    .ok_or_else(|| format!("--focus: unknown event {name:?}"))?;
                store.pairs_with(id)
            }
            None => store.event_pairs(),
        };
        id_pairs
            .into_iter()
            .map(|(a, b)| {
                EventPair::new(
                    format!("{}×{}", store.name(a), store.name(b)),
                    store.nodes(a).to_vec(),
                    store.nodes(b).to_vec(),
                )
            })
            .collect()
    };
    if candidates.is_empty() {
        return Err(format!(
            "{events_path}: {} event(s) yield no candidate pairs",
            store.num_events()
        ));
    }

    eprintln!(
        "graph: {} nodes, {} edges; {} events, {} candidate pairs",
        graph.num_nodes(),
        graph.num_edges(),
        store.num_events(),
        candidates.len()
    );

    let needs_index = matches!(
        cfg.sampler,
        SamplerKind::Rejection | SamplerKind::Importance { .. }
    );
    let kernel = kernel_flag(flags)?;
    let index;
    let mut engine = if needs_index {
        let mut union: Vec<NodeId> = candidates
            .iter()
            .flat_map(|p| p.a.iter().chain(&p.b).copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        eprintln!("building |V^h_v| index for {} event nodes...", union.len());
        index = VicinityIndex::build_for_nodes(graph, &union, cfg.h);
        TescEngine::with_vicinity_index(graph, &index)
    } else {
        TescEngine::new(graph)
    }
    .with_density_kernel(kernel);
    match flags.get("cache").map(String::as_str) {
        None | Some("on") => {
            engine = engine.with_density_cache(Arc::new(DensityCache::for_graph(graph)));
        }
        Some("off") => {}
        Some(other) => return Err(format!("--cache must be on|off, got {other:?}")),
    }

    let mut req = tesc::RankRequest::new(cfg)
        .with_seed(seed)
        .with_threads(threads)
        .with_pairs(candidates);
    if let Some(k) = flags.get("top-k") {
        let k: usize = k
            .parse()
            .map_err(|_| format!("could not parse --top-k {k:?}"))?;
        if k == 0 {
            return Err("--top-k must be at least 1".into());
        }
        req = req.with_top_k(k);
    }
    let mode = parse_mode_flag(flags)?;
    // The anytime tiers run only under a top-K cutoff; the table shows
    // what actually ran.
    let anytime = matches!(mode, tesc::RankMode::Anytime { .. }) && req.top_k.is_some();
    if matches!(mode, tesc::RankMode::Anytime { .. }) && !anytime {
        eprintln!("note: --mode anytime needs --top-k; running exact");
    }
    req = req.with_mode(mode);
    let deadline = parse_deadline_flag(flags)?;
    if let Some(d) = deadline {
        engine = engine.with_budget(tesc::Budget::with_deadline(d));
    }
    // An exhausted budget interrupts the whole request; under anytime
    // + top-k it degrades to the best ranking decided in time instead
    // (marked below the table).
    let report = tesc::rank_pairs(&engine, &req);
    if let Some(i) = report.interrupted {
        return Err(format!("interrupted: {i}"));
    }
    if report.degraded {
        eprintln!(
            "note: deadline of {:?} exhausted after {} round(s); showing the best ranking decided in time",
            deadline.unwrap_or_default(),
            report.rounds
        );
    }

    if anytime {
        println!(
            "{:>4}  {:<24} {:>8} {:>8} {:>10} {:>9} {:>9}  verdict",
            "rank", "pair", "score", "z", "p", "n_refs", "decided@n"
        );
    } else {
        println!(
            "{:>4}  {:<24} {:>8} {:>8} {:>10} {:>9}  verdict",
            "rank", "pair", "score", "z", "p", "n_refs"
        );
    }
    for e in &report.ranked {
        if anytime {
            println!(
                "{:>4}  {:<24} {:>+8.3} {:>+8.3} {:>10.3e} {:>9} {:>9}  {:?}",
                e.rank,
                e.label,
                e.score,
                e.result.z(),
                e.result.outcome.p_value,
                e.result.n_refs,
                e.decided_at_n,
                e.result.outcome.verdict
            );
        } else {
            println!(
                "{:>4}  {:<24} {:>+8.3} {:>+8.3} {:>10.3e} {:>9}  {:?}",
                e.rank,
                e.label,
                e.score,
                e.result.z(),
                e.result.outcome.p_value,
                e.result.n_refs,
                e.result.outcome.verdict
            );
        }
    }
    for f in &report.failed {
        if let Err(e) = &f.result {
            println!("   -  {:<24} failed: {e}", f.label);
        }
    }
    println!("summary: {}", report.summary());
    Ok(())
}

/// Parse `--deadline DUR` where DUR is `500ms`, `2s`, or a bare
/// millisecond count (default: no deadline).
fn parse_deadline_flag(flags: &HashMap<String, String>) -> Result<Option<Duration>, String> {
    let Some(s) = flags.get("deadline") else {
        return Ok(None);
    };
    let (digits, unit_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1000)
    } else {
        (s.as_str(), 1)
    };
    digits
        .parse::<u64>()
        .ok()
        .filter(|&v| v >= 1)
        .map(|v| Some(Duration::from_millis(v.saturating_mul(unit_ms))))
        .ok_or_else(|| format!("--deadline must be a duration like 500ms or 2s, got {s:?}"))
}

/// Parse `--mode exact|anytime:EPS` (default exact).
fn parse_mode_flag(flags: &HashMap<String, String>) -> Result<tesc::RankMode, String> {
    match flags.get("mode").map(String::as_str) {
        None | Some("exact") => Ok(tesc::RankMode::Exact),
        Some("anytime") => Err("--mode anytime needs an EPS, e.g. --mode anytime:0.05".into()),
        Some(s) => {
            let Some(eps) = s.strip_prefix("anytime:") else {
                return Err(format!("--mode must be exact|anytime:EPS, got {s:?}"));
            };
            let eps: f64 = eps
                .parse()
                .map_err(|_| format!("could not parse --mode eps {eps:?}"))?;
            if !(0.0..1.0).contains(&eps) {
                return Err(format!("--mode anytime EPS must be in [0, 1), got {eps}"));
            }
            Ok(tesc::RankMode::Anytime { eps })
        }
    }
}

/// Parse the `stream` pair list: `label eventA eventB` per line,
/// referencing event *names*; blank lines and `#` comments skipped.
fn parse_named_pairs(text: &str, path: &str) -> Result<Vec<(String, String, String)>, String> {
    let mut pairs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(label), Some(a), Some(b), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!(
                "{path}:{}: expected `label eventA eventB`, got {line:?}",
                i + 1
            ));
        };
        pairs.push((label.to_string(), a.to_string(), b.to_string()));
    }
    if pairs.is_empty() {
        return Err(format!("{path}: no pairs found"));
    }
    Ok(pairs)
}

/// One staged operation of a `stream` update script.
enum UpdateOp {
    Edge(NodeId, NodeId),
    Event(String, Vec<NodeId>),
    Commit,
}

/// Parse an update script (`edge U V` / `event NAME ids` / `commit`).
fn parse_updates(text: &str, path: &str) -> Result<Vec<UpdateOp>, String> {
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("{path}:{}: {msg}", i + 1);
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let op = match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some("edge"), Some(u), Some(v), None) => {
                let parse_id = |t: &str| {
                    t.parse::<NodeId>()
                        .map_err(|_| at(format!("bad node id {t:?}")))
                };
                UpdateOp::Edge(parse_id(u)?, parse_id(v)?)
            }
            (Some("event"), Some(name), Some(ids), None) => UpdateOp::Event(
                name.to_string(),
                tesc_events::io::parse_id_list(ids).map_err(at)?,
            ),
            (Some("commit"), None, None, None) => UpdateOp::Commit,
            _ => {
                return Err(at(format!(
                    "expected `edge U V`, `event NAME v1,v2,...` or `commit`, got {line:?}"
                )))
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Resolve the named pairs against a snapshot's event store and run
/// the selected subset through the snapshot's cache-wired batch
/// engine. Pairs naming a not-yet-registered event are skipped with a
/// note (a stream may define events late).
#[allow(clippy::too_many_arguments)] // mirrors the stream command's knobs
fn stream_round(
    snap: &tesc::Snapshot,
    named_pairs: &[(String, String, String)],
    select: impl Fn(&str, &str) -> bool,
    cfg: TescConfig,
    seed: u64,
    threads: usize,
    kernel: BfsKernel,
) -> usize {
    let mut pairs = Vec::new();
    for (label, a_name, b_name) in named_pairs {
        if !select(a_name, b_name) {
            continue;
        }
        match (
            snap.events().id_by_name(a_name),
            snap.events().id_by_name(b_name),
        ) {
            (Some(a), Some(b)) => {
                let mut pair = snap.event_pair(a, b);
                pair.label = label.clone();
                pairs.push(pair);
            }
            _ => eprintln!("  (skipping {label}: event not registered yet)"),
        }
    }
    if pairs.is_empty() {
        println!("  no testable pairs affected");
        return 0;
    }
    let count = pairs.len();
    let req = BatchRequest::new(cfg)
        .with_seed(seed)
        .with_threads(threads)
        .with_pairs(pairs);
    // The snapshot's engine comes cache-wired; the kernel knob rides
    // on top.
    let report = run_batch(&snap.engine().with_density_kernel(kernel), &req);
    print_outcome_rows(&report);
    println!("summary: {}", report.summary());
    count
}

/// Ingest an update script into a versioned [`TescContext`],
/// re-testing affected pairs after every commit.
fn run_stream_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let graph_path = get(flags, "graph")?;
    let events_path = get(flags, "events")?;
    let pairs_path = get(flags, "pairs")?;
    let updates_path = get(flags, "updates")?;
    let seed: u64 = parse(flags, "seed", 42u64)?;
    let threads: usize = parse(flags, "threads", 0usize)?;
    let cfg = config_from_flags(flags)?;

    // The versioned ingestion context needs the plain CSR.
    let graph = load_csr(graph_path)?;
    let events = tesc_events::io::read_named_events(&mut open(events_path)?)
        .map_err(|e| format!("reading {events_path}: {e}"))?;
    for (_, name, nodes) in events.iter() {
        if let Some(&v) = nodes.iter().find(|&&v| v as usize >= graph.num_nodes()) {
            return Err(format!(
                "{events_path}: event {name:?} names node {v}, but the graph has only {} nodes",
                graph.num_nodes()
            ));
        }
    }
    let named_pairs = parse_named_pairs(
        &std::fs::read_to_string(pairs_path).map_err(|e| format!("reading {pairs_path}: {e}"))?,
        pairs_path,
    )?;
    let updates = parse_updates(
        &std::fs::read_to_string(updates_path)
            .map_err(|e| format!("reading {updates_path}: {e}"))?,
        updates_path,
    )?;

    let build_threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    eprintln!(
        "graph: {} nodes, {} edges; {} events, {} pairs; building |V^h_v| index (h = {}, {} threads)...",
        graph.num_nodes(),
        graph.num_edges(),
        events.num_events(),
        named_pairs.len(),
        cfg.h,
        build_threads
    );
    let kernel = kernel_flag(flags)?;
    // Long replays leak without a cap: every graph version starts a
    // fresh append-only cache, and event streams never stop growing
    // it. Default to the bounded second-chance cache (bit-identical
    // results; pass `--cache-budget inf` to restore unbounded).
    let cache_budget = tesc_repro::parse_byte_size(
        flags
            .get("cache-budget")
            .map(String::as_str)
            .unwrap_or("64M"),
    )?;
    let ctx = TescContext::with_threads(graph, events, cfg.h.max(1), build_threads)
        .with_cache_budget(cache_budget);
    // Optional crash-safety: with --data-dir every committed delta is
    // WAL-logged (fsync before publish) and periodically snapshotted,
    // so an interrupted replay resumes via `tesc-serve --data-dir` or
    // `TescContext::open_dir` instead of starting over.
    let ctx = match flags.get("data-dir") {
        Some(dir) => {
            let snapshot_every: u64 = parse(flags, "snapshot-every", 1024u64)?;
            let opts = tesc::persist::StoreOptions {
                snapshot_every: snapshot_every.max(1),
                ..tesc::persist::StoreOptions::default()
            };
            let ctx = ctx
                .with_durability(std::path::Path::new(dir), opts)
                .map_err(|e| format!("attaching data dir {dir}: {e}"))?;
            eprintln!(
                "durable: logging commits to {dir} (snapshot every {snapshot_every} records)"
            );
            ctx
        }
        None => ctx,
    };

    println!("== v{}: initial snapshot, testing all pairs", ctx.version());
    stream_round(
        &ctx.snapshot(),
        &named_pairs,
        |_, _| true,
        cfg,
        seed,
        threads,
        kernel,
    );

    let mut pending_edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut pending_events: Vec<(String, Vec<NodeId>)> = Vec::new();
    for op in updates {
        match op {
            UpdateOp::Edge(u, v) => pending_edges.push((u, v)),
            UpdateOp::Event(name, nodes) => pending_events.push((name, nodes)),
            UpdateOp::Commit => stream_commit(
                &ctx,
                &mut pending_edges,
                &mut pending_events,
                &named_pairs,
                cfg,
                seed,
                threads,
                kernel,
            )?,
        }
    }
    if !pending_edges.is_empty() || !pending_events.is_empty() {
        // Implicit trailing commit.
        stream_commit(
            &ctx,
            &mut pending_edges,
            &mut pending_events,
            &named_pairs,
            cfg,
            seed,
            threads,
            kernel,
        )?;
    }
    Ok(())
}

/// Publish staged deltas as the next snapshot(s) and re-test the
/// affected pairs: those whose events changed, plus those with an
/// event occurrence within `2h` hops of an added edge endpoint.
#[allow(clippy::too_many_arguments)] // mirrors the stream command's knobs
fn stream_commit(
    ctx: &TescContext,
    pending_edges: &mut Vec<(NodeId, NodeId)>,
    pending_events: &mut Vec<(String, Vec<NodeId>)>,
    named_pairs: &[(String, String, String)],
    cfg: TescConfig,
    seed: u64,
    threads: usize,
    kernel: BfsKernel,
) -> Result<(), String> {
    if pending_edges.is_empty() && pending_events.is_empty() {
        eprintln!("  (empty commit: nothing staged)");
        return Ok(());
    }
    // Remember the genuinely new edges before the graph moves on;
    // their endpoints seed the affected-region BFS afterwards.
    // Validate the delta first — `has_edge` on an out-of-range
    // endpoint would panic.
    let before = ctx.snapshot();
    before
        .graph()
        .check_edges(pending_edges)
        .map_err(|e| format!("ingesting edge delta: bad edge delta: {e}"))?;
    let mut new_edges: Vec<(NodeId, NodeId)> = pending_edges
        .iter()
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .filter(|&(u, v)| !before.graph().has_edge(u, v))
        .collect();
    new_edges.sort_unstable();
    new_edges.dedup();
    let mut touched: Vec<NodeId> = new_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    touched.sort_unstable();
    touched.dedup();

    if !pending_edges.is_empty() {
        ctx.add_edges(pending_edges)
            .map_err(|e| format!("ingesting edge delta: {e}"))?;
    }
    let mut changed_events: Vec<String> = Vec::new();
    for (name, nodes) in pending_events.drain(..) {
        match ctx.snapshot().events().id_by_name(&name) {
            Some(id) => {
                ctx.add_event_occurrences(id, &nodes)
                    .map_err(|e| format!("ingesting occurrences for {name:?}: {e}"))?;
            }
            None => {
                ctx.add_event(name.clone(), nodes)
                    .map_err(|e| format!("registering event {name:?}: {e}"))?;
            }
        }
        changed_events.push(name);
    }
    // Only genuinely new edges publish a version; a commit whose edge
    // delta was entirely already-present (and carried no event delta)
    // published nothing and must not print a `== v{N}` block.
    let n_dup_edges = pending_edges.len() - new_edges.len();
    pending_edges.clear();
    if new_edges.is_empty() && changed_events.is_empty() {
        eprintln!(
            "  (no-op commit: all {n_dup_edges} staged edge(s) already present; still at v{})",
            ctx.version()
        );
        return Ok(());
    }

    let snap = ctx.snapshot();
    // Affected region of the edge delta: any reference node whose
    // density could move lies within h of a touched endpoint AND
    // within h of an event node, so an event with an occurrence inside
    // the 2h-ball around the touched endpoints may test differently.
    let dirty = (!touched.is_empty()).then(|| {
        let n = snap.graph().num_nodes();
        let mut ball = Vec::new();
        BfsScratch::new(n).h_vicinity_into(snap.graph(), &touched, 2 * cfg.h, &mut ball);
        NodeMask::from_nodes(n, &ball)
    });
    let event_in_dirty = |name: &str| -> bool {
        let (Some(dirty), Some(id)) = (dirty.as_ref(), snap.events().id_by_name(name)) else {
            return false;
        };
        snap.events().nodes(id).iter().any(|&v| dirty.contains(v))
    };
    println!(
        "== v{}: committed {} new edge(s), {} event delta(s); re-testing affected pairs",
        snap.version(),
        new_edges.len(),
        changed_events.len()
    );
    stream_round(
        &snap,
        named_pairs,
        |a, b| {
            changed_events.iter().any(|e| e == a || e == b)
                || event_in_dirty(a)
                || event_in_dirty(b)
        },
        cfg,
        seed,
        threads,
        kernel,
    );
    Ok(())
}
