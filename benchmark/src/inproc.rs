//! The three in-process workloads: library calls from one caller
//! thread, closed loop (the next operation starts when the previous
//! one returned).
//!
//! Every workload runs the same sections on its own dataset — single
//! tests, the ranking arms, a durable ingest stream with top-ks on
//! fresh snapshots, and reopen-after-drop recovery — so every
//! end-to-end metric exists on every workload. What differs is the
//! dataset (how much the pairs share, how heavy the vicinities are)
//! and where the measured seconds go.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::api::{self, RankMode, RankReport, TescContext, TescEngine};
use crate::metrics::RunResult;
use crate::scenario::{self, Dataset, Scale, INDEX_LEVEL, TOP_K};
use crate::server::{dir_mib, peak_rss_mb};
use crate::stats::{median, quantile};

/// WAL records between checkpoints (`--snapshot-every` of the served
/// workload; one commit logs two records).
pub const SNAPSHOT_EVERY: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Threads the in-process workloads build and recover their context
/// with. One: how much two threads gain depends on how many cores the
/// sandbox grants at that minute (observed between 1.0x and 1.45x on
/// two vCPUs), and set-up and restart times must not move with that.
pub const BUILD_THREADS: usize = 1;
/// Anytime error budget of every progressive arm.
pub const ANYTIME_EPS: f64 = 0.05;
/// Restart cycles per run.
pub const RESTARTS: usize = 5;
/// Sample size of top-k requests (the server's default `n`).
const TOPK_N: usize = 300;
/// `k` of top-k requests.
const TOPK_K: usize = 5;

/// Invocation parameters shared by all workloads.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Full or smoke sizes.
    pub scale: Scale,
    /// Scratch directory of this run (created, emptied at the end).
    pub run_dir: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// Threads of the multi-thread ranking arm: the machine's cores, at
/// most four.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Share of `--seconds` spent on single tests and on ranking rounds.
/// The ingest stream and the restart cycles have fixed counts instead:
/// what recovery has to replay depends on how many commits came
/// before it, so those counts must not depend on the machine's speed.
fn shares(workload: &str) -> (f64, f64) {
    match workload {
        "single-test-sweep" => (0.50, 0.22),
        _ => (0.10, 0.60),
    }
}

/// Whole multiples of this many test operations are timed, so the mix
/// behind `test_p50_ms` / `test_p90_ms` never depends on where the
/// clock cut the run.
fn test_period(workload: &str) -> usize {
    match workload {
        "single-test-sweep" => 16,
        _ => 4,
    }
}

/// A built workload: inputs plus the durable context over them.
struct Setup {
    ds: Dataset,
    ctx: TescContext,
    data_dir: PathBuf,
}

/// Generate the inputs and build the durable context over an empty
/// data directory.
fn set_up(opts: &RunOpts) -> Setup {
    let ds = scenario::build(&opts.workload, opts.seed, opts.scale);
    let data_dir = opts.run_dir.join("data");
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("creating the data directory");
    let ctx = api::context_new(
        ds.graph.clone(),
        ds.events.clone(),
        INDEX_LEVEL,
        BUILD_THREADS,
    );
    let ctx = api::context_durable(ctx, &data_dir, SNAPSHOT_EVERY).expect("attaching durability");
    Setup { ds, ctx, data_dir }
}

/// Set up [`SETUPS`] times, keep the last, report the median time.
pub fn timed_setup<S>(result: &mut RunResult, mut build: impl FnMut() -> S) -> S {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    result.set_n("setup_s", median(&times), times.len());
    last.expect("at least one set-up")
}

/// Labels of the best `k` entries.
fn top_labels(report: &RankReport, k: usize) -> Vec<&str> {
    report
        .ranked
        .iter()
        .take(k)
        .map(|e| e.label.as_str())
        .collect()
}

/// Recall of `candidate`'s top `k` against `exact`'s.
pub fn recall_at_k(exact: &RankReport, candidate: &RankReport, k: usize) -> f64 {
    let truth = top_labels(exact, k);
    let hit = top_labels(candidate, k)
        .iter()
        .filter(|l| truth.contains(l))
        .count();
    hit as f64 / truth.len().max(1) as f64
}

/// (label, score bits, z bits) of a ranking, for bit-identity checks.
pub fn fingerprint(report: &RankReport) -> Vec<(String, u64, u64)> {
    report
        .ranked
        .iter()
        .map(|e| (e.label.clone(), e.score.to_bits(), e.result.z().to_bits()))
        .collect()
}

/// A ranking must score every candidate and must not degrade.
fn check_rank(result: &mut RunResult, what: &str, report: &RankReport) {
    result.check(report.failed.is_empty() && !report.degraded, || {
        format!(
            "{what}: {} pairs failed, degraded = {}",
            report.failed.len(),
            report.degraded
        )
    });
}

/// Run the untraced workload and report every end-to-end metric.
pub fn run(opts: &RunOpts) -> RunResult {
    let mut result = RunResult::default();
    let Setup { ds, ctx, data_dir } = timed_setup(&mut result, || set_up(opts));
    let snap = api::context_snapshot(&ctx);
    let engine = api::engine(snap.graph(), snap.vicinity());
    let (tests_share, rank_share) = shares(&opts.workload);
    let budget = |share: f64| Duration::from_secs_f64(opts.seconds * share);

    tests_section(&mut result, opts, &ds, &engine, budget(tests_share));
    let exact = rank_section(&mut result, opts, &ds, &engine, &snap, budget(rank_share));
    let ctx = stream_section(&mut result, opts, &ds, ctx, &data_dir);
    restart_section(&mut result, opts, &ds, ctx, &data_dir);

    result.set(
        "peak_rss_mb",
        peak_rss_mb("/proc/self/status").expect("VmHWM of this process"),
    );

    // Bit-identity checks, after the clock stopped.
    verify_staged(&mut result, &ds, &engine, opts.seed, &exact);
    let mut zero = api::rank_request(
        &ds.rank_pairs,
        ds.rank_cfg,
        1,
        TOP_K,
        RankMode::anytime(0.0),
    );
    let zero = api::rank(&engine, &mut zero, opts.seed);
    result.check(fingerprint(&zero) == fingerprint(&exact), || {
        "anytime:0 ranking differs from the exact ranking".into()
    });
    result
}

/// Single tests, closed loop, whole mix periods until the share of
/// `--seconds` is spent.
fn tests_section(
    result: &mut RunResult,
    opts: &RunOpts,
    ds: &Dataset,
    engine: &TescEngine<'_>,
    budget: Duration,
) {
    let period = test_period(&opts.workload);
    let cycle = &ds.test_cycle;
    let run_op = |result: &mut RunResult, i: usize| {
        let op = cycle[i % cycle.len()];
        let start = Instant::now();
        let z = api::test_z_bits(
            engine,
            &ds.test_pairs[op.pair],
            &op.cfg,
            opts.seed ^ i as u64,
        );
        let ms = ms_since(start);
        result.check(z.is_ok(), || format!("test {i}: {}", z.unwrap_err()));
        ms
    };
    // Warm the engine's scratch pool on operations from the far end of
    // the list, so the timed ones still see their pairs for the first
    // time.
    let mut warm = RunResult::default();
    for i in 0..period {
        run_op(&mut warm, cycle.len() - period + i);
    }
    let start = Instant::now();
    let mut latencies = Vec::new();
    while start.elapsed() < budget || latencies.is_empty() {
        for _ in 0..period {
            let ms = run_op(result, latencies.len());
            latencies.push(ms);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let n = latencies.len();
    result.set_n("test_p50_ms", median(&latencies), n);
    result.set_n("test_p90_ms", quantile(&latencies, 0.9), n);
    result.set_n("tests_per_s", n as f64 / wall, n);
}

/// Ranking rounds, one caller thread: exact and anytime on a
/// cache-less engine, and a re-rank on the snapshot's cache-wired
/// engine after one warming run. (The multi-thread arm is measured in
/// the traced run only — see README, "Demoted metrics".) Returns the
/// exact report of master seed `opts.seed` for the identity checks.
fn rank_section(
    result: &mut RunResult,
    opts: &RunOpts,
    ds: &Dataset,
    engine: &TescEngine<'_>,
    snap: &api::Snapshot,
    budget: Duration,
) -> RankReport {
    let request = |mode| api::rank_request(&ds.rank_pairs, ds.rank_cfg, 1, TOP_K, mode);
    let mut exact_req = request(RankMode::Exact);
    let mut any_req = request(RankMode::anytime(ANYTIME_EPS));
    let mut warm_req = request(RankMode::Exact);
    let warm_engine = api::snapshot_engine(snap);
    let warming = api::rank(&warm_engine, &mut warm_req, opts.seed);
    check_rank(result, "warming rank", &warming);

    let start = Instant::now();
    let (mut exact_ms, mut any_ms, mut warm_ms) = (vec![], vec![], vec![]);
    let mut recalls = Vec::new();
    let mut first_exact = None;
    while start.elapsed() < budget || exact_ms.len() < 3 {
        let seed = opts.seed + exact_ms.len() as u64;
        let t = Instant::now();
        let exact = api::rank(engine, &mut exact_req, seed);
        exact_ms.push(ms_since(t));
        let t = Instant::now();
        let any = api::rank(engine, &mut any_req, seed);
        any_ms.push(ms_since(t));
        let t = Instant::now();
        let warm = api::rank(&warm_engine, &mut warm_req, opts.seed);
        warm_ms.push(ms_since(t));

        check_rank(result, "exact rank", &exact);
        check_rank(result, "anytime rank", &any);
        result.check(fingerprint(&warm) == fingerprint(&warming), || {
            format!("round {seed}: warm re-rank differs from its warming run")
        });
        recalls.push(recall_at_k(&exact, &any, TOP_K));
        first_exact.get_or_insert(exact);
    }
    // One swapped pair at the cutoff is the anytime contract working
    // (eps > 0); losing more than one in ten on average is not.
    let recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    result.check(recall >= 0.9, || {
        format!("anytime:{ANYTIME_EPS} mean recall@{TOP_K} = {recall:.3} < 0.9")
    });
    let n = exact_ms.len();
    result.set_n("rank_p50_ms", median(&exact_ms), n);
    result.set_n("anytime_p50_ms", median(&any_ms), n);
    result.set_n("rank_warm_p50_ms", median(&warm_ms), n);
    first_exact.expect("at least three rounds ran")
}

/// The candidate set and request of one top-k on `snap`: every
/// registered pair involving `focus`, anytime, as the server builds it.
fn topk_in_process(snap: &api::Snapshot, focus: &str, seed: u64) -> RankReport {
    let pairs = api::snapshot_focus_pairs(snap, focus);
    let mut req = api::rank_request(
        &pairs,
        topk_cfg(),
        1,
        TOPK_K,
        RankMode::anytime(ANYTIME_EPS),
    );
    api::rank(&api::snapshot_engine(snap), &mut req, seed)
}

fn topk_cfg() -> api::TescConfig {
    api::TescConfig::new(INDEX_LEVEL).with_sample_size(TOPK_N)
}

/// Apply one ingest delta durably; the version it produced.
fn commit(ctx: &TescContext, ds: &Dataset, i: usize) -> Result<u64, String> {
    let delta = &ds.deltas[i % ds.deltas.len()];
    api::context_add_edges(ctx, &delta.edges)?;
    api::context_add_occurrences(ctx, &delta.event, &delta.nodes)
}

/// Commits of the ingest stream. Twenty-four commits log 48 WAL
/// records, exactly three checkpoint intervals, so the restart cycles
/// start from a fresh checkpoint on every run.
const STREAM_COMMITS: usize = 24;
/// Commits after which `data_dir_mb` is read.
const DATA_DIR_AFTER: usize = 4;

/// [`STREAM_COMMITS`] durable commits, a top-k on the fresh snapshot
/// after every second one.
fn stream_section(
    result: &mut RunResult,
    opts: &RunOpts,
    ds: &Dataset,
    ctx: TescContext,
    data_dir: &Path,
) -> TescContext {
    let (mut commit_ms, mut topk_ms) = (Vec::new(), Vec::new());
    for i in 0..STREAM_COMMITS {
        let t = Instant::now();
        let version = commit(&ctx, ds, i);
        commit_ms.push(ms_since(t));
        // Version 1 is the initial state; every commit adds two.
        result.check(version == Ok(1 + 2 * (i as u64 + 1)), || {
            format!("commit {i} produced {version:?}")
        });
        if i % 2 == 1 {
            let focus = &ds.registered[i % ds.registered.len()].0;
            let t = Instant::now();
            let snap = api::context_snapshot(&ctx);
            let report = topk_in_process(&snap, focus, opts.seed + i as u64);
            topk_ms.push(ms_since(t));
            check_rank(result, "top-k", &report);
        }
        if i + 1 == DATA_DIR_AFTER {
            result.set("data_dir_mb", dir_mib(data_dir));
        }
    }
    result.set_n("commit_p50_ms", median(&commit_ms), commit_ms.len());
    result.set_n("topk_p50_ms", median(&topk_ms), topk_ms.len());
    ctx
}

/// Restart cycles: commit, drop the context, recover from the data
/// directory alone, answer a first test. In-process there is no
/// process to kill, so this checks acknowledged-commit survival and
/// times recovery; `serve-mixed` does the same with `kill -9`.
fn restart_section(
    result: &mut RunResult,
    opts: &RunOpts,
    ds: &Dataset,
    mut ctx: TescContext,
    data_dir: &Path,
) {
    // The first test after recovery: one registered pair, fixed seed.
    let probe = |snap: &api::Snapshot| {
        let (a, b) = &ds.registered[0];
        let pair = api::snapshot_pair(snap, a, b).expect("registered pair exists");
        api::test_z_bits(&api::snapshot_engine(snap), &pair, &topk_cfg(), opts.seed)
    };
    let mut restart_ms = Vec::new();
    for cycle in 0..RESTARTS {
        let acknowledged = commit(&ctx, ds, STREAM_COMMITS + cycle);
        let before = probe(&api::context_snapshot(&ctx));
        drop(ctx);

        let t = Instant::now();
        ctx = api::context_open(data_dir, INDEX_LEVEL, BUILD_THREADS, SNAPSHOT_EVERY)
            .expect("recovering the data directory");
        let snap = api::context_snapshot(&ctx);
        let after = probe(&snap);
        restart_ms.push(ms_since(t));

        result.check(acknowledged == Ok(snap.version()), || {
            format!(
                "restart {cycle}: recovered version {} but {acknowledged:?} was acknowledged",
                snap.version()
            )
        });
        result.check(before.is_ok() && before == after, || {
            format!("restart {cycle}: z bits {before:?} before, {after:?} after")
        });
    }
    result.set_n("restart_ms", median(&restart_ms), restart_ms.len());
}

/// Does a staged replay's per-pair output carry the z bits of every
/// entry the monolithic ranking reported?
pub fn staged_matches(exact: &RankReport, z_bits: &[Option<u64>]) -> bool {
    !exact.ranked.is_empty()
        && exact
            .ranked
            .iter()
            .all(|e| z_bits[e.index] == Some(e.result.z().to_bits()))
}

/// The staged replay `build → run_density → finish` must reproduce the
/// monolithic ranking's z bits for every reported pair.
fn verify_staged(
    result: &mut RunResult,
    ds: &Dataset,
    engine: &TescEngine<'_>,
    master_seed: u64,
    exact: &RankReport,
) {
    let seeds = api::content_seeds(master_seed, &ds.rank_pairs);
    let plan = api::plan_build(engine, &ds.rank_pairs, &ds.rank_cfg, &seeds, 1);
    let fused = api::plan_density(&plan, 1);
    let z_bits = api::plan_finish(&plan, &fused);
    result.check(staged_matches(exact, &z_bits), || {
        "staged replay does not reproduce rank_pairs z bits".into()
    });
}
