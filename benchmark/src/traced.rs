//! The traced run: per-layer metrics, measured from the benchmark's
//! side of each layer's public functions.
//!
//! A fixed prefix of the workload's operations is replayed through the
//! staged calls `PairSetPlan::build → run_density → finish`, one span
//! per stage, next to the monolithic call (`TescEngine::test`,
//! `rank_pairs`) it must reproduce bit for bit. The difference between
//! the two wall times is `trace.overhead_share`; the part of an
//! operation no stage span covers is `trace.unaccounted_share`.
//! End-to-end metrics never come from this run.

use std::time::{Duration, Instant};

use crate::api::{self, BfsKernel, EventPair, RankMode, Rng, TescEngine};
use crate::inproc::{
    fingerprint, ms_since, recall_at_k, staged_matches, threads, RunOpts, ANYTIME_EPS,
    BUILD_THREADS, SNAPSHOT_EVERY,
};
use crate::metrics::RunResult;
use crate::refbfs::RefBfs;
use crate::scenario::{self, Dataset, INDEX_LEVEL, TOP_K};
use crate::server::dir_bytes;
use crate::stats::median;
use crate::trace::Tracer;

/// The operation a workload's `*.ms_per_op` metrics are about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    /// One TESC test (`single-test-sweep`, `serve-mixed`).
    Test,
    /// One exact top-10 ranking (`rank-*`).
    Rank,
}

impl Primary {
    fn of(workload: &str) -> Primary {
        match workload {
            "single-test-sweep" | "serve-mixed" => Primary::Test,
            _ => Primary::Rank,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Primary::Test => "test",
            Primary::Rank => "rank",
        }
    }
}

/// Stage totals over the replayed operations of one kind.
#[derive(Debug, Default)]
struct Stages {
    ops: u64,
    monolithic_ns: u64,
    staged_ns: u64,
    sampler_ns: u64,
    density_ns: u64,
    correlate_ns: u64,
    /// Counts of the first operation (first mix period for tests):
    /// fixed by the seed, so they repeat exactly.
    sampled_refs: u64,
    distinct_refs: u64,
    bfs_run: u64,
    traversals: u64,
}

/// Replays operations of one kind through the staged calls, one span
/// per stage, and totals the stages.
struct Replayer<'t, 'e, 'g> {
    tracer: &'t mut Tracer,
    engine: &'e TescEngine<'g>,
    root_name: &'static str,
    stages: Stages,
}

impl Replayer<'_, '_, '_> {
    /// One staged, traced pass over `pairs`; the z bits per pair.
    fn staged(
        &mut self,
        op_id: u64,
        keep_counts: bool,
        pairs: &[EventPair],
        cfg: &api::TescConfig,
        seeds: &[u64],
    ) -> Vec<Option<u64>> {
        let (tracer, engine, stages) = (&mut *self.tracer, self.engine, &mut self.stages);
        let root = tracer.begin(op_id, self.root_name, None);
        let parent = Some(root);
        let (s, plan) = tracer.scoped(op_id, "sampler", parent, || {
            api::plan_build(engine, pairs, cfg, seeds, 1)
        });
        tracer.count(s, "sampled_refs", plan.sampled_refs() as u64);
        tracer.count(s, "distinct_refs", plan.distinct_refs() as u64);
        let (d, fused) = tracer.scoped(op_id, "density", parent, || api::plan_density(&plan, 1));
        tracer.count(d, "bfs_run", fused.bfs_run());
        tracer.count(d, "traversals", fused.traversals());
        let (c, z_bits) = tracer.scoped(op_id, "correlate", parent, || {
            api::plan_finish(&plan, &fused)
        });
        tracer.count(c, "pairs", pairs.len() as u64);
        tracer.end(root);

        stages.ops += 1;
        stages.staged_ns += tracer.duration_ns(root);
        stages.sampler_ns += tracer.duration_ns(s);
        stages.density_ns += tracer.duration_ns(d);
        stages.correlate_ns += tracer.duration_ns(c);
        if keep_counts {
            stages.sampled_refs += plan.sampled_refs() as u64;
            stages.distinct_refs += plan.distinct_refs() as u64;
            stages.bfs_run += fused.bfs_run();
            stages.traversals += fused.traversals();
        }
        z_bits
    }
}

/// Replay single tests for `budget`: monolithic, then staged + traced.
fn replay_tests(
    result: &mut RunResult,
    tracer: &mut Tracer,
    opts: &RunOpts,
    ds: &Dataset,
    engine: &TescEngine<'_>,
    budget: Duration,
) -> Stages {
    const PERIOD: usize = 16;
    let mut replayer = Replayer {
        tracer,
        engine,
        root_name: "test",
        stages: Stages::default(),
    };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget || i == 0 {
        for _ in 0..PERIOD {
            let op = ds.test_cycle[i % ds.test_cycle.len()];
            let pair = &ds.test_pairs[op.pair];
            let seed = opts.seed ^ i as u64;
            let t = Instant::now();
            let monolithic = api::test_z_bits(engine, pair, &op.cfg, seed);
            replayer.stages.monolithic_ns += t.elapsed().as_nanos() as u64;
            let z = replayer.staged(
                i as u64,
                i < PERIOD,
                std::slice::from_ref(pair),
                &op.cfg,
                &[seed],
            );
            result.check(z[0] == monolithic.clone().ok(), || {
                format!("test {i}: staged {:?}, monolithic {monolithic:?}", z[0])
            });
            i += 1;
        }
    }
    replayer.stages
}

/// What the ranking replay learned beyond the stage totals.
#[derive(Debug, Default)]
struct RankFacts {
    exact_ms: Vec<f64>,
    mt_ms: Vec<f64>,
    anytime_ms: Vec<f64>,
    recalls: Vec<f64>,
    pruned: u64,
    anytime_rounds: u64,
    anytime_samples_per_pair: f64,
}

/// Replay ranking rounds for `budget` (at least two).
fn replay_ranks(
    result: &mut RunResult,
    tracer: &mut Tracer,
    opts: &RunOpts,
    ds: &Dataset,
    engine: &TescEngine<'_>,
    budget: Duration,
) -> (Stages, RankFacts) {
    let request =
        |threads, mode| api::rank_request(&ds.rank_pairs, ds.rank_cfg, threads, TOP_K, mode);
    let mut exact_req = request(1, RankMode::Exact);
    let mut mt_req = request(threads(), RankMode::Exact);
    let mut any_req = request(1, RankMode::anytime(ANYTIME_EPS));
    let mut replayer = Replayer {
        tracer,
        engine,
        root_name: "rank",
        stages: Stages::default(),
    };
    let mut facts = RankFacts::default();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < budget || round < 2 {
        let seed = opts.seed + round;
        let op_id = (1 << 32) + round;
        let t = Instant::now();
        let exact = api::rank(engine, &mut exact_req, seed);
        replayer.stages.monolithic_ns += t.elapsed().as_nanos() as u64;
        facts.exact_ms.push(ms_since(t));

        let seeds = api::content_seeds(seed, &ds.rank_pairs);
        let z = replayer.staged(op_id, round == 0, &ds.rank_pairs, &ds.rank_cfg, &seeds);
        result.check(staged_matches(&exact, &z), || {
            format!("rank round {round}: staged replay differs from rank_pairs")
        });

        let tracer = &mut *replayer.tracer;
        let (root, any) = tracer.scoped(op_id, "anytime", None, || {
            api::rank(engine, &mut any_req, seed)
        });
        tracer.count(root, "rounds", any.rounds as u64);
        tracer.count(root, "sampled_refs", any.sampled_refs as u64);
        facts.anytime_ms.push(tracer.duration_ns(root) as f64 / 1e6);
        facts.recalls.push(recall_at_k(&exact, &any, TOP_K));

        let t = Instant::now();
        let mt = api::rank(engine, &mut mt_req, seed);
        facts.mt_ms.push(ms_since(t));
        result.check(fingerprint(&mt) == fingerprint(&exact), || {
            format!("rank round {round}: multi-thread ranking differs")
        });
        if round == 0 {
            facts.pruned = exact.pruned as u64;
            facts.anytime_rounds = any.rounds as u64;
            facts.anytime_samples_per_pair = any.mean_samples_per_pair();
        }
        round += 1;
    }
    (replayer.stages, facts)
}

/// Density-kernel shoot-out: one plan per forced kernel over the same
/// pairs and seeds, nanoseconds of the fused pass per distinct
/// reference node.
fn kernel_probe(result: &mut RunResult, ds: &Dataset, vicinity: &api::VicinityIndex, seed: u64) {
    let pairs = &ds.rank_pairs[..ds.rank_pairs.len().min(64)];
    let seeds = api::content_seeds(seed, pairs);
    let mut ns = [0.0f64; 4];
    let kernels = [
        (BfsKernel::Scalar, "density.kernel_ns_per_ref.scalar"),
        (BfsKernel::Bitset, "density.kernel_ns_per_ref.bitset"),
        (BfsKernel::Multi, "density.kernel_ns_per_ref.multi"),
        (BfsKernel::Auto, "density.kernel_ns_per_ref.auto"),
    ];
    for (slot, (kernel, metric)) in kernels.into_iter().enumerate() {
        let engine = api::engine_with_kernel(&ds.graph, vicinity, kernel);
        let plan = api::plan_build(&engine, pairs, &ds.rank_cfg, &seeds, 1);
        let t = Instant::now();
        let fused = api::plan_density(&plan, 1);
        let elapsed = t.elapsed().as_nanos() as f64;
        std::hint::black_box(&fused);
        ns[slot] = elapsed / plan.distinct_refs().max(1) as f64;
        result.set(metric, ns[slot]);
    }
    // Base: the best of the three fixed kernels on this same plan.
    let best_fixed = ns[..3].iter().copied().fold(f64::MAX, f64::min);
    result.set("density.auto_regret", ns[3] / best_fixed);
}

/// Mean adjacency entries a plain `h`-hop search reads per reference
/// node, over a deterministic subsample of `V^h_{a∪b}` of the first
/// pairs. Computed by the benchmark's own BFS, not measured.
fn edges_scanned_probe(result: &mut RunResult, ds: &Dataset) {
    let h = ds.rank_cfg.h;
    let mut bfs = RefBfs::new(ds.graph.num_nodes());
    let (mut edges, mut refs) = (0u64, 0u64);
    for pair in ds.rank_pairs.iter().take(8) {
        let sources: Vec<_> = pair.a.iter().chain(&pair.b).copied().collect();
        let mut population = Vec::new();
        bfs.search(&ds.graph, &sources, h, Some(&mut population));
        population.sort_unstable();
        let stride = (population.len() / 16).max(1);
        for &r in population.iter().step_by(stride).take(16) {
            edges += bfs.search(&ds.graph, &[r], h, None).edges_scanned;
            refs += 1;
        }
    }
    result.set(
        "density.edges_scanned_per_ref",
        edges as f64 / refs.max(1) as f64,
    );
}

/// `kendall_tau` on two tied 300-vectors, nanoseconds per call.
fn kendall_probe(result: &mut RunResult, seed: u64) {
    let mut rng = api::rng(seed);
    let mut draw = || -> Vec<f64> {
        (0..300)
            .map(|_| rng.gen_range(0..40u32) as f64 / 40.0)
            .collect()
    };
    let (x, y) = (draw(), draw());
    const REPS: u32 = 200;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(api::kendall_z(
            std::hint::black_box(&x),
            std::hint::black_box(&y),
        ));
    }
    result.set(
        "correlate.kendall_ns_n300",
        t.elapsed().as_nanos() as f64 / REPS as f64,
    );
}

/// Cache, context and persistence layers on this dataset.
fn context_probes(result: &mut RunResult, opts: &RunOpts, ds: &Dataset) {
    let new_ctx = || {
        api::context_new(
            ds.graph.clone(),
            ds.events.clone(),
            INDEX_LEVEL,
            BUILD_THREADS,
        )
    };
    let plain = new_ctx();

    // Cache: rank cold, re-rank warm, on the snapshot's own engine.
    {
        let snap = api::context_snapshot(&plain);
        let engine = api::snapshot_engine(&snap);
        let mut req = api::rank_request(&ds.rank_pairs, ds.rank_cfg, 1, TOP_K, RankMode::Exact);
        let cold = api::rank(&engine, &mut req, opts.seed);
        let warm = api::rank(&engine, &mut req, opts.seed);
        result.check(fingerprint(&cold) == fingerprint(&warm), || {
            "warm re-rank differs from the cold run".into()
        });
        let c = api::cache_counters(&snap);
        result.set("cache.hits", c.hits as f64);
        result.set("cache.misses", c.misses as f64);
        result.set(
            "cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        result.set("cache.bfs_invocations", c.bfs_invocations as f64);
        result.set("cache.evictions", c.evictions as f64);
        result.set("cache.resident_bytes", c.resident_bytes as f64);
    }

    const PINS: u32 = 10_000;
    let t = Instant::now();
    for _ in 0..PINS {
        std::hint::black_box(api::context_snapshot(&plain));
    }
    result.set(
        "context.snapshot_pin_ns",
        t.elapsed().as_nanos() as f64 / PINS as f64,
    );

    let data_dir = opts.run_dir.join("probe-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("creating the probe data directory");
    let durable = api::context_durable(new_ctx(), &data_dir, SNAPSHOT_EVERY)
        .expect("attaching durability for the probe");

    // The same deltas through both contexts; the durable one pays the
    // WAL append + fsync on top.
    let (mut edges_ms, mut plain_ms, mut durable_ms) = (vec![], vec![], vec![]);
    for delta in ds.deltas.iter().take(5) {
        let t = Instant::now();
        let ok = api::context_add_edges(&plain, &delta.edges).is_ok();
        edges_ms.push(ms_since(t));
        let t = Instant::now();
        let ok = ok && api::context_add_occurrences(&plain, &delta.event, &delta.nodes).is_ok();
        plain_ms.push(ms_since(t));
        let t = Instant::now();
        let ok = ok && api::context_add_occurrences(&durable, &delta.event, &delta.nodes).is_ok();
        durable_ms.push(ms_since(t));
        result.check(ok, || "probe ingest failed".into());
    }
    result.set("context.add_edges_ms", median(&edges_ms));
    result.set(
        "persist.wal_append_ms",
        median(&durable_ms) - median(&plain_ms),
    );
    let wal_bytes = dir_bytes(&data_dir).2;
    let t = Instant::now();
    let checkpointed = api::context_checkpoint(&durable);
    result.set("persist.checkpoint_ms", ms_since(t));
    result.check(checkpointed.is_ok(), || {
        format!("checkpoint: {checkpointed:?}")
    });
    // Two snapshots are retained; report one.
    result.set(
        "persist.snapshot_bytes",
        dir_bytes(&data_dir).1 as f64 / 2.0,
    );
    result.set("persist.wal_bytes", wal_bytes as f64);
    drop(durable);
    let t = Instant::now();
    let reopened = api::context_open(&data_dir, INDEX_LEVEL, BUILD_THREADS, SNAPSHOT_EVERY);
    result.set("persist.open_dir_ms", ms_since(t));
    result.check(reopened.is_ok(), || {
        format!("open_dir: {:?}", reopened.err())
    });
}

/// Every layer probe on `ds`, spans into `tracer`, metrics into
/// `result`.
pub fn layer_probes(
    result: &mut RunResult,
    tracer: &mut Tracer,
    opts: &RunOpts,
    ds: &Dataset,
    primary: Primary,
) {
    let t = Instant::now();
    let vicinity = api::build_vicinity(&ds.graph, INDEX_LEVEL, BUILD_THREADS);
    result.set("vicinity.build_ms", ms_since(t));
    let t = Instant::now();
    let container = api::encode_graph(&ds.graph);
    result.set("container.encode_ms", ms_since(t));
    let t = Instant::now();
    let decoded = api::decode_graph(&container);
    result.set("container.decode_ms", ms_since(t));
    result.check(
        decoded.as_ref().map(|g| g.fingerprint()) == Ok(ds.graph.fingerprint()),
        || "container round trip changed the graph".into(),
    );
    drop(decoded);
    result.set(
        "container.bytes_per_edge",
        container.len() as f64 / ds.graph.num_edges().max(1) as f64,
    );

    let engine = api::engine(&ds.graph, &vicinity);
    // The primary operation gets most of the replay time.
    let budget = |kind: Primary| {
        let share = if kind == primary { 0.3 } else { 0.05 };
        Duration::from_secs_f64(opts.seconds * share)
    };
    let tests = replay_tests(result, tracer, opts, ds, &engine, budget(Primary::Test));
    let (ranks, facts) = replay_ranks(result, tracer, opts, ds, &engine, budget(Primary::Rank));
    let stages = match primary {
        Primary::Test => &tests,
        Primary::Rank => &ranks,
    };
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / stages.ops.max(1) as f64;
    result.set("sampler.ms_per_op", per_op_ms(stages.sampler_ns));
    result.set("density.ms_per_op", per_op_ms(stages.density_ns));
    result.set("correlate.ms_per_op", per_op_ms(stages.correlate_ns));
    result.set("sampler.sampled_refs", stages.sampled_refs as f64);
    result.set("sampler.distinct_refs", stages.distinct_refs as f64);
    result.set(
        "sampler.sharing_factor",
        stages.sampled_refs as f64 / stages.distinct_refs.max(1) as f64,
    );
    result.set("density.bfs_run", stages.bfs_run as f64);
    result.set("density.traversals", stages.traversals as f64);
    result.set(
        "trace.overhead_share",
        (stages.staged_ns as f64 - stages.monolithic_ns as f64)
            / stages.monolithic_ns.max(1) as f64,
    );
    result.set(
        "trace.unaccounted_share",
        tracer.unaccounted_share(primary.span()),
    );

    let exact = median(&facts.exact_ms);
    result.set("anytime.rounds", facts.anytime_rounds as f64);
    result.set(
        "anytime.mean_samples_per_pair",
        facts.anytime_samples_per_pair,
    );
    result.set(
        "anytime.recall_at_10",
        facts.recalls.iter().sum::<f64>() / facts.recalls.len() as f64,
    );
    // Base: the exact ranking of the same rounds, one thread.
    result.set(
        "anytime.speedup_vs_exact",
        exact / median(&facts.anytime_ms),
    );
    result.set("rank.pruned", facts.pruned as f64);
    result.set("rank.mt_p50_ms", median(&facts.mt_ms));
    // Base: the one-thread exact ranking of the same rounds.
    result.set("rank.thread_speedup", exact / median(&facts.mt_ms));

    kernel_probe(result, ds, &vicinity, opts.seed);
    edges_scanned_probe(result, ds);
    kendall_probe(result, opts.seed);
    drop(engine);
    drop(vicinity);
    context_probes(result, opts, ds);
}

/// Write the span file and close the books.
pub fn finish(result: &mut RunResult, tracer: &Tracer, opts: &RunOpts) {
    let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
    let written = tracer.write_jsonl(&path);
    result.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    result.set("trace.spans", tracer.len() as f64);
    result.set("error_share", result.error_share());
}

/// The traced run of an in-process workload.
pub fn run(opts: &RunOpts) -> RunResult {
    let mut result = RunResult::default();
    let mut tracer = Tracer::new(&opts.workload);
    let ds = scenario::build(&opts.workload, opts.seed, opts.scale);
    let primary = Primary::of(&opts.workload);
    layer_probes(&mut result, &mut tracer, opts, &ds, primary);
    // The stage spans must add up to the operation.
    let unaccounted = result.values["trace.unaccounted_share"];
    result.check(unaccounted <= 0.10, || {
        format!(
            "{unaccounted:.3} of the {} wall time is in no stage span",
            primary.span()
        )
    });
    finish(&mut result, &tracer, opts);
    result
}
