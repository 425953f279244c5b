//! `serve-mixed`: the real `tesc-serve` binary over loopback.
//!
//! The only workload where socket → parse → queue → snapshot pin →
//! encode, the WAL, checkpoints and crash recovery run at all, and
//! where writes sit beside reads.
//!
//! * **Phase A, open loop** — two keep-alive connections (the server
//!   has two workers) share one fixed schedule: `/test` at a constant
//!   rate, a durable commit (`/edges` + `/events` + `/commit`) twice a
//!   second and a deadline-bound `/top-k` once a second in between.
//!   Every operation is timed from its due time.
//! * **Phase B, closed loop** — both connections send `/test` back to
//!   back: throughput.
//! * **Ranking arms** — `/top-k` over the registered pairs: exact,
//!   anytime, and a warm repeat.
//! * **Phase C** — commit, `kill -9`, restart on `--data-dir` alone,
//!   first `/test`; five times.
//!
//! Afterwards every sampled response is replayed offline on a mirror
//! context that received the same commits, and must match bit for bit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::api::{self, Json, RankMode, TescConfig};
use crate::http::Client;
use crate::inproc::{ms_since, recall_at_k, threads, timed_setup, RunOpts, ANYTIME_EPS, RESTARTS};
use crate::metrics::RunResult;
use crate::scenario::{self, Dataset, Delta, Scale, INDEX_LEVEL, TOP_K};
use crate::schedule::{self, Completed, Due, Mix, OpKind};
use crate::server::{dir_mib, sleep_until, Boot, OneCore, ServerProc};
use crate::stats::{log2_histogram_median, median, quantile};
use crate::trace::Tracer;

/// Connections (= generator threads): the server's worker count, and
/// no more than the machine's cores.
const CONNECTIONS: usize = 2;
/// `/test` arrivals per second in phase A — a quarter of what two
/// closed-loop clients reach on the reference host. With the commits
/// and top-ks below, the one-core server is about half busy.
const TEST_RATE: f64 = 50.0;
/// Period of the commit stream in phase A; the top-k stream runs at
/// half that rate. (Both shorter on runs too short to fit a few.) The
/// two together keep a worker busy about a third of the time, so the
/// median `/test` meets an idle server and the 90th percentile meets
/// a busy one.
const COMMIT_PERIOD: Duration = Duration::from_millis(500);
/// Sample size of every request.
const N: usize = 300;
/// Correlated pairs planted among the registered ones; the anytime
/// arm is judged on finding these.
const HOT_PAIRS: usize = 4;
/// One `/test` in this many is replayed offline.
const VERIFY_EVERY: u64 = 20;

/// The configuration the server derives from our request bodies.
fn request_cfg() -> TescConfig {
    TescConfig::new(INDEX_LEVEL).with_sample_size(N)
}

fn test_body(ds: &Dataset, pair: usize, seed: u64) -> String {
    let (a, b) = &ds.registered[pair % ds.registered.len()];
    format!("{{\"events\":[\"{a}\",\"{b}\"],\"h\":{INDEX_LEVEL},\"n\":{N},\"seed\":{seed}}}")
}

fn topk_body(focus: &str, seed: u64) -> String {
    format!(
        "{{\"focus\":\"{focus}\",\"k\":5,\"h\":{INDEX_LEVEL},\"n\":{N},\"seed\":{seed},\
         \"mode\":\"anytime:{ANYTIME_EPS}\",\"deadline_ms\":1000}}"
    )
}

fn rank_body(ds: &Dataset, mode: RankMode, seed: u64) -> String {
    let pairs = ds
        .registered
        .iter()
        .map(|(a, b)| format!("[\"{a}\",\"{b}\"]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"pairs\":[{pairs}],\"k\":{TOP_K},\"h\":{INDEX_LEVEL},\"n\":{N},\"tail\":\"upper\",\
         \"seed\":{seed},\"mode\":\"{mode}\"}}"
    )
}

fn edges_body(delta: &Delta) -> String {
    let edges = delta
        .edges
        .iter()
        .map(|(u, v)| format!("[{u},{v}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"edges\":[{edges}]}}")
}

fn events_body(delta: &Delta) -> String {
    let nodes = delta
        .nodes
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"name\":\"{}\",\"nodes\":[{nodes}]}}", delta.event)
}

/// `version` and `result.z_bits` of a `/test` response.
fn parse_test(body: &str) -> Option<(u64, u64)> {
    let json = Json::parse(body).ok()?;
    let version = json.get("version")?.as_u64()?;
    let bits = json.get("result")?.get("z_bits")?.as_str()?;
    Some((version, u64::from_str_radix(bits, 16).ok()?))
}

/// `(z bits in rank order, degraded)` of a `/top-k` response.
fn parse_ranked(body: &str) -> Option<(Vec<(String, u64)>, bool)> {
    let json = Json::parse(body).ok()?;
    let degraded = json
        .get("degraded")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let ranked = json
        .get("ranked")?
        .as_array()?
        .iter()
        .map(|e| {
            let label = e.get("label")?.as_str()?.to_string();
            let bits = e.get("result")?.get("z_bits")?.as_str()?;
            Some((label, u64::from_str_radix(bits, 16).ok()?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((ranked, degraded))
}

/// A `/test` response kept for the offline replay.
struct Sample {
    pair: usize,
    seed: u64,
    version: u64,
    z_bits: u64,
}

/// One finished open-loop operation.
struct Record {
    kind: OpKind,
    timing: Completed,
}

/// What one generator connection saw.
#[derive(Default)]
struct Seen {
    records: Vec<Record>,
    samples: Vec<Sample>,
    /// Versions the server acknowledged for commits, by commit number.
    commits: BTreeMap<u64, u64>,
    attempted: u64,
    failures: Vec<String>,
    /// Client-observed `/test` service times (send → response), µs.
    service_us: Vec<f64>,
    /// Request and response bodies (traced run only).
    bodies: Vec<(String, String)>,
}

impl Seen {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn merge_into(self, result: &mut RunResult, all: &mut Seen) {
        result.passed(self.attempted.saturating_sub(self.failures.len() as u64));
        for f in self.failures {
            result.check(false, || f);
        }
        all.records.extend(self.records);
        all.samples.extend(self.samples);
        all.commits.extend(self.commits);
        all.service_us.extend(self.service_us);
        all.bodies.extend(self.bodies);
    }
}

/// One connection plus the bookkeeping of what it did.
struct Generator<'a> {
    client: Client,
    ds: &'a Dataset,
    seen: Seen,
    keep_bodies: bool,
}

impl<'a> Generator<'a> {
    fn connect(server: &ServerProc, ds: &'a Dataset, keep_bodies: bool) -> Generator<'a> {
        Generator {
            client: Client::connect(server.addr).expect("connecting to the server"),
            ds,
            seen: Seen::default(),
            keep_bodies,
        }
    }

    /// POST and demand a 200; the body on success.
    fn post_ok(&mut self, path: &str, body: &str) -> Option<String> {
        self.seen.attempted += 1;
        match self.client.post(path, body) {
            Ok(r) if r.status == 200 => Some(r.body),
            Ok(r) => {
                self.seen
                    .fail(format!("POST {path}: {} {}", r.status, r.body));
                None
            }
            Err(e) => {
                self.seen.fail(format!("POST {path}: {e}"));
                None
            }
        }
    }

    /// One `/test`; its `(version, z bits)`.
    fn test(&mut self, pair: usize, seed: u64) -> Option<(u64, u64)> {
        let body = test_body(self.ds, pair, seed);
        let start = Instant::now();
        let response = self.post_ok("/test", &body)?;
        self.seen
            .service_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        let parsed = parse_test(&response);
        match parsed {
            Some((version, z_bits)) => {
                if seed.is_multiple_of(VERIFY_EVERY) {
                    self.seen.samples.push(Sample {
                        pair,
                        seed,
                        version,
                        z_bits,
                    });
                }
            }
            None => self
                .seen
                .fail(format!("unreadable /test response {response}")),
        }
        if self.keep_bodies {
            self.seen.bodies.push((body, response));
        }
        parsed
    }

    /// Stage and commit delta number `seq`; the acknowledged version.
    fn commit(&mut self, seq: u64) -> Option<u64> {
        let delta = &self.ds.deltas[seq as usize % self.ds.deltas.len()];
        self.post_ok("/edges", &edges_body(delta))?;
        self.post_ok("/events", &events_body(delta))?;
        let response = self.post_ok("/commit", "")?;
        let version = Json::parse(&response)
            .ok()
            .filter(|j| j.get("committed").and_then(Json::as_bool) == Some(true))
            .and_then(|j| j.get("version")?.as_u64());
        match version {
            Some(v) => {
                self.seen.commits.insert(seq, v);
            }
            None => self
                .seen
                .fail(format!("commit {seq} not applied: {response}")),
        }
        version
    }

    /// One deadline-bound `/top-k`; a degraded answer is a failure.
    fn topk(&mut self, seq: u64) {
        let focus = &self.ds.registered[seq as usize % self.ds.registered.len()].0;
        if let Some(response) = self.post_ok("/top-k", &topk_body(focus, seq)) {
            match parse_ranked(&response) {
                Some((ranked, false)) if !ranked.is_empty() => {}
                _ => self.seen.fail(format!("top-k {seq} degraded or empty")),
            }
        }
    }
}

/// Seeds of phase-A tests start here; phase B continues above.
const PHASE_B_SEED_BASE: u64 = 1 << 20;

/// Phase A: both connections work through one schedule.
fn open_loop(server: &ServerProc, ds: &Dataset, schedule: &[Due]) -> Vec<Seen> {
    let next = AtomicUsize::new(0);
    // A commit is three requests; two connections staging at once
    // would blend two deltas into one commit.
    let commit_lock = Mutex::new(());
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let mut gen = Generator::connect(server, ds, false);
                let (next, commit_lock) = (&next, &commit_lock);
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(due) = schedule.get(i) else { break };
                        sleep_until(start + due.at);
                        let sent = start.elapsed();
                        match due.kind {
                            OpKind::Test => {
                                gen.test(due.seq as usize, due.seq);
                            }
                            OpKind::Commit => {
                                let _one_at_a_time =
                                    commit_lock.lock().expect("commit lock poisoned");
                                gen.commit(due.seq);
                            }
                            OpKind::TopK => gen.topk(due.seq),
                        }
                        gen.seen.records.push(Record {
                            kind: due.kind,
                            timing: Completed {
                                due: due.at,
                                sent,
                                done: start.elapsed(),
                            },
                        });
                    }
                    gen.seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Phase B: both connections back to back for `duration`; tests/s.
fn closed_loop(server: &ServerProc, ds: &Dataset, duration: Duration) -> (Vec<Seen>, f64) {
    let start = Instant::now();
    let seen: Vec<Seen> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mut gen = Generator::connect(server, ds, false);
                scope.spawn(move || {
                    let mut i = 0u64;
                    while start.elapsed() < duration {
                        let seed = PHASE_B_SEED_BASE + i * CONNECTIONS as u64 + c as u64;
                        gen.test(seed as usize, seed);
                        i += 1;
                    }
                    gen.seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let done: usize = seen.iter().map(|s| s.service_us.len()).sum();
    (seen, done as f64 / wall)
}

/// One ranking request kept for the offline replay.
struct RankSample {
    mode: RankMode,
    seed: u64,
    ranked: Vec<(String, u64)>,
}

/// The ranking arms over HTTP, each on a seed of its own so that no
/// arm rides the cache another arm filled (the warm arm excepted —
/// that is what it measures).
fn rank_arms(
    result: &mut RunResult,
    gen: &mut Generator<'_>,
    opts: &RunOpts,
    budget: Duration,
) -> Vec<RankSample> {
    let ds = gen.ds;
    let mut samples = Vec::new();
    let mut timed = |gen: &mut Generator<'_>, mode, seed| -> f64 {
        let body = rank_body(ds, mode, seed);
        let t = Instant::now();
        let response = gen.post_ok("/top-k", &body);
        let ms = ms_since(t);
        match response.as_deref().and_then(parse_ranked) {
            Some((ranked, false)) if !ranked.is_empty() => {
                samples.push(RankSample { mode, seed, ranked })
            }
            _ => gen.seen.fail(format!("/top-k {mode} seed {seed} failed")),
        }
        ms
    };
    let warm_seed = opts.seed + (1 << 30);
    timed(gen, RankMode::Exact, warm_seed);
    let (mut exact, mut any, mut warm) = (vec![], vec![], vec![]);
    let start = Instant::now();
    while start.elapsed() < budget || exact.len() < 3 {
        let seed = opts.seed + 2 * exact.len() as u64;
        exact.push(timed(gen, RankMode::Exact, seed));
        any.push(timed(gen, RankMode::anytime(ANYTIME_EPS), seed + 1));
        warm.push(timed(gen, RankMode::Exact, warm_seed));
    }
    let n = exact.len();
    result.set_n("rank_p50_ms", median(&exact), n);
    result.set_n("anytime_p50_ms", median(&any), n);
    result.set_n("rank_warm_p50_ms", median(&warm), n);
    samples
}

/// A booted server with the files it was booted from.
struct Served {
    ds: Dataset,
    server: ServerProc,
    data_dir: PathBuf,
}

/// Generate inputs, write the graph container and events file, boot
/// the server on an empty data directory, wait for `listening on`.
fn set_up(opts: &RunOpts, access_log: Option<&Path>, core: Option<&OneCore>) -> Served {
    let ds = scenario::build(&opts.workload, opts.seed, opts.scale);
    let graph = opts.run_dir.join("G.tgraph");
    let events = opts.run_dir.join("E.txt");
    std::fs::write(&graph, api::encode_graph(&ds.graph)).expect("writing the graph container");
    std::fs::write(&events, api::encode_events(&ds.events)).expect("writing the events file");
    let data_dir = opts.run_dir.join("data");
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("creating the data directory");
    let server = ServerProc::boot(
        Boot::Fresh {
            graph: &graph,
            events: &events,
        },
        &data_dir,
        access_log,
        &opts.run_dir.join("server.log"),
        core,
    )
    .expect("booting tesc-serve");
    Served {
        ds,
        server,
        data_dir,
    }
}

/// Latencies (ms, from due time) of the operations of `kind` that
/// were due after the warm-up window.
fn latencies(records: &[Record], kind: OpKind, warm_up: Duration) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.kind == kind && r.timing.due >= warm_up)
        .map(|r| r.timing.latency_ms())
        .collect()
}

/// Phase C: commit, `kill -9`, recover, first `/test`.
fn restart_cycles(
    result: &mut RunResult,
    opts: &RunOpts,
    served: Served,
    commits_done: u64,
    access_log: Option<&Path>,
    core: Option<&OneCore>,
) -> (Dataset, BTreeMap<u64, u64>) {
    let Served {
        ds,
        mut server,
        data_dir,
    } = served;
    let mut restart_ms = Vec::new();
    let mut commits = BTreeMap::new();
    for cycle in 0..RESTARTS as u64 {
        let mut all = Seen::default();
        let (acknowledged, before) = {
            let mut gen = Generator::connect(&server, &ds, false);
            let acknowledged = gen.commit(commits_done + cycle);
            let before = gen.test(0, opts.seed);
            gen.seen.merge_into(result, &mut all);
            (acknowledged, before)
        };
        if cycle == 0 {
            result.set(
                "peak_rss_mb",
                server.peak_rss_mb().expect("VmHWM of the server"),
            );
        }
        server.kill9();

        let t = Instant::now();
        server = ServerProc::boot(
            Boot::Recover,
            &data_dir,
            access_log,
            &opts.run_dir.join("server.log"),
            core,
        )
        .expect("restarting tesc-serve on its data directory");
        let mut gen = Generator::connect(&server, &ds, false);
        let after = gen.test(0, opts.seed);
        restart_ms.push(ms_since(t));
        gen.seen.merge_into(result, &mut all);
        commits.extend(all.commits);

        result.check(
            acknowledged.is_some() && acknowledged == after.map(|(v, _)| v),
            || format!("restart {cycle}: acknowledged {acknowledged:?}, recovered {after:?}"),
        );
        result.check(
            before.is_some() && before.map(|(_, z)| z) == after.map(|(_, z)| z),
            || format!("restart {cycle}: z bits {before:?} before, {after:?} after"),
        );
    }
    result.set_n("restart_ms", median(&restart_ms), restart_ms.len());
    drop(server);
    (ds, commits)
}

/// Replay on a mirror context: apply the acknowledged commits in order
/// and, at every version, re-run the sampled `/test`s; then re-run the
/// sampled rankings. Everything must match bit for bit.
fn verify_offline(
    result: &mut RunResult,
    ds: &Dataset,
    mut samples: Vec<Sample>,
    commits: &BTreeMap<u64, u64>,
    ranks: &[RankSample],
    ranks_after_commit: u64,
) {
    let ctx = api::context_new(ds.graph.clone(), ds.events.clone(), INDEX_LEVEL, threads());
    let cfg = request_cfg();
    samples.sort_by_key(|s| s.version);
    let mut samples = samples.into_iter().peekable();
    let mut check_version = |result: &mut RunResult, ctx: &api::TescContext| {
        let snap = api::context_snapshot(ctx);
        let engine = api::snapshot_engine(&snap);
        while let Some(s) = samples.next_if(|s| s.version <= snap.version()) {
            let (a, b) = &ds.registered[s.pair % ds.registered.len()];
            let offline = api::snapshot_pair(&snap, a, b)
                .ok_or_else(|| "pair not registered".to_string())
                .and_then(|pair| api::test_z_bits(&engine, &pair, &cfg, s.seed));
            result.check(
                s.version == snap.version() && offline == Ok(s.z_bits),
                || {
                    format!(
                        "/test seed {} at version {}: server {:016x}, offline {offline:?} at {}",
                        s.seed,
                        s.version,
                        s.z_bits,
                        snap.version()
                    )
                },
            );
        }
    };
    let check_ranks = |result: &mut RunResult, ctx: &api::TescContext| {
        let snap = api::context_snapshot(ctx);
        let engine = api::snapshot_engine(&snap);
        let pairs: Vec<_> = ds
            .registered
            .iter()
            .filter_map(|(a, b)| api::snapshot_pair(&snap, a, b))
            .collect();
        let cfg = cfg.with_tail(api::Tail::Upper);
        for r in ranks {
            let mut req = api::rank_request(&pairs, cfg, 1, TOP_K, r.mode);
            let offline = api::rank(&engine, &mut req, r.seed);
            let offline_bits: Vec<u64> = offline
                .ranked
                .iter()
                .map(|e| e.result.z().to_bits())
                .collect();
            let served_bits: Vec<u64> = r.ranked.iter().map(|e| e.1).collect();
            result.check(offline_bits == served_bits, || {
                format!(
                    "/top-k {} seed {} differs from offline rank_pairs",
                    r.mode, r.seed
                )
            });
            if r.mode != RankMode::Exact {
                // Every arm runs on a seed of its own, so the exact
                // ranking to judge recall against is computed here.
                let mut exact_req = api::rank_request(&pairs, cfg, 1, TOP_K, RankMode::Exact);
                let exact = api::rank(&engine, &mut exact_req, r.seed);
                let recall = recall_at_k(&exact, &offline, HOT_PAIRS);
                result.check(recall >= 0.75, || {
                    format!(
                        "/top-k {} seed {}: recall@{HOT_PAIRS} = {recall:.2}",
                        r.mode, r.seed
                    )
                });
            }
        }
    };

    check_version(result, &ctx);
    if ranks_after_commit == 0 {
        check_ranks(result, &ctx);
    }
    for (&seq, &acknowledged) in commits {
        let delta = &ds.deltas[seq as usize % ds.deltas.len()];
        let applied = api::context_add_edges(&ctx, &delta.edges);
        check_version(result, &ctx);
        let applied = applied.and(api::context_add_occurrences(
            &ctx,
            &delta.event,
            &delta.nodes,
        ));
        check_version(result, &ctx);
        result.check(applied == Ok(acknowledged), || {
            format!("commit {seq}: server acknowledged {acknowledged}, mirror reached {applied:?}")
        });
        if seq + 1 == ranks_after_commit {
            check_ranks(result, &ctx);
        }
    }
    let left = samples.count();
    result.check(left == 0, || {
        format!("{left} sampled responses name a version never committed")
    });
}

/// The phases shared by the untraced and the traced run.
struct Phases {
    all: Seen,
    tests_per_s: f64,
    rank_samples: Vec<RankSample>,
    commits_in_a: u64,
    warm_up: Duration,
}

fn run_phases(result: &mut RunResult, opts: &RunOpts, served: &Served) -> Phases {
    let phase_a = Duration::from_secs_f64(opts.seconds * 0.5);
    let schedule = schedule::build(Mix {
        duration: phase_a,
        test_rate: TEST_RATE,
        commit_period: COMMIT_PERIOD.min(phase_a / 12),
        topk_period: (2 * COMMIT_PERIOD).min(phase_a / 6),
    });
    let commits_in_a = schedule.iter().filter(|d| d.kind == OpKind::Commit).count() as u64;
    let mut all = Seen::default();
    for seen in open_loop(&served.server, &served.ds, &schedule) {
        seen.merge_into(result, &mut all);
    }
    let (seen, tests_per_s) = closed_loop(
        &served.server,
        &served.ds,
        Duration::from_secs_f64(opts.seconds * 0.13),
    );
    let mut phase_b = Seen::default();
    for s in seen {
        s.merge_into(result, &mut phase_b);
    }
    all.samples.extend(phase_b.samples);

    let mut gen = Generator::connect(&served.server, &served.ds, false);
    let rank_samples = rank_arms(
        result,
        &mut gen,
        opts,
        Duration::from_secs_f64(opts.seconds * 0.12),
    );
    gen.seen.merge_into(result, &mut all);
    Phases {
        all,
        tests_per_s,
        rank_samples,
        commits_in_a,
        // The first tenth of phase A warms the server's scratch pools
        // and caches; its operations count as attempted but not timed.
        warm_up: phase_a / 10,
    }
}

/// Run the untraced workload and report every end-to-end metric.
pub fn run(opts: &RunOpts) -> RunResult {
    let mut result = RunResult::default();
    let core = OneCore::claim();
    let served = timed_setup(&mut result, || set_up(opts, None, core.as_ref()));
    let phases = run_phases(&mut result, opts, &served);
    let Phases {
        all,
        tests_per_s,
        rank_samples,
        commits_in_a,
        warm_up,
    } = phases;

    let tests = latencies(&all.records, OpKind::Test, warm_up);
    result.set_n("test_p50_ms", median(&tests), tests.len());
    result.set_n("test_p90_ms", quantile(&tests, 0.9), tests.len());
    result.set("tests_per_s", tests_per_s);
    let commits = latencies(&all.records, OpKind::Commit, warm_up);
    result.set_n("commit_p50_ms", median(&commits), commits.len());
    let topks = latencies(&all.records, OpKind::TopK, warm_up);
    result.set_n("topk_p50_ms", median(&topks), topks.len());
    result.set("data_dir_mb", dir_mib(&served.data_dir));

    let mut commits = all.commits;
    let (ds, restart_commits) =
        restart_cycles(&mut result, opts, served, commits_in_a, None, core.as_ref());
    commits.extend(restart_commits);
    if let Some(one) = &core {
        one.release();
    }
    verify_offline(
        &mut result,
        &ds,
        all.samples,
        &commits,
        &rank_samples,
        commits_in_a,
    );
    result
}

/// `us` of every access-log line for `endpoint`, in log order.
fn access_log_us(text: &str, endpoint: &str) -> Vec<f64> {
    text.lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|j| j.get("endpoint").and_then(Json::as_str) == Some(endpoint))
        .filter_map(|j| j.get("us")?.as_f64())
        .collect()
}

/// The traced run: the same phases against a server started with
/// `--access-log`, a one-connection sequential segment that pairs
/// every client-observed `/test` time with the server's own, and the
/// in-process layer probes on this workload's dataset.
pub fn run_traced(opts: &RunOpts) -> RunResult {
    let mut result = RunResult::default();
    let access_log = opts.run_dir.join("access.jsonl");
    let _ = std::fs::remove_file(&access_log);
    let core = OneCore::claim();
    let served = set_up(opts, Some(&access_log), core.as_ref());
    let mut tracer = Tracer::new(&opts.workload);

    let phases = run_phases(&mut result, opts, &served);
    let tests = latencies(&phases.all.records, OpKind::Test, phases.warm_up);
    result.set("serve.test_p99_ms", quantile(&tests, 0.99));
    let late: Vec<f64> = phases
        .all
        .records
        .iter()
        .map(|r| r.timing.late_ms())
        .collect();
    result.set("serve.gen_late_ms_p99", quantile(&late, 0.99));

    // Sequential segment: one connection, one request in flight, so the
    // i-th client time and the i-th access-log line are the same request.
    let logged_before = std::fs::read_to_string(&access_log).unwrap_or_default();
    let skip = access_log_us(&logged_before, "test").len();
    let mut gen = Generator::connect(&served.server, &served.ds, true);
    let sequential = match opts.scale {
        Scale::Full => 400,
        Scale::Smoke => 60,
    };
    for i in 0..sequential {
        let root = tracer.begin(i, "http.test", None);
        gen.test(i as usize, (2 << 20) + i);
        tracer.end(root);
    }
    let stats = gen
        .client
        .get("/stats")
        .ok()
        .and_then(|r| Json::parse(&r.body).ok());
    let mut all = Seen::default();
    gen.seen.merge_into(&mut result, &mut all);
    let logged = std::fs::read_to_string(&access_log).unwrap_or_default();
    let handler_test = access_log_us(&logged, "test");
    let paired: Vec<f64> = all
        .service_us
        .iter()
        .zip(handler_test.iter().skip(skip))
        .map(|(client, handler)| client - handler)
        .collect();
    result.check(paired.len() == sequential as usize, || {
        format!(
            "access log pairs {} of {sequential} sequential requests",
            paired.len()
        )
    });
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let transport = p50(&paired);
    result.set("serve.transport_us_p50", transport);
    // A client-side stall (Nagle, delayed ACK) would sit right here.
    result.check(transport <= 1000.0, || {
        format!("client-observed minus handler time is {transport:.0} us (> 1000): the generator stalls")
    });
    result.set(
        "serve.handler_us_p50.test",
        p50(&handler_test[skip.min(handler_test.len())..]),
    );
    result.set(
        "serve.handler_us_p50.top_k",
        p50(&access_log_us(&logged, "top_k")),
    );
    result.set(
        "serve.handler_us_p50.commit",
        p50(&access_log_us(&logged, "commit")),
    );

    // JSON codec on the recorded bodies.
    let time_us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let parse_us: Vec<f64> = all
        .bodies
        .iter()
        .map(|(req, _)| time_us(&mut || drop(std::hint::black_box(Json::parse(req)))))
        .collect();
    let encode_us: Vec<f64> = all
        .bodies
        .iter()
        .filter_map(|(_, resp)| Json::parse(resp).ok())
        .map(|json| time_us(&mut || drop(std::hint::black_box(json.encode()))))
        .collect();
    result.set("serve.json_parse_us", p50(&parse_us));
    result.set("serve.json_encode_us", p50(&encode_us));

    if let Some(stats) = &stats {
        let int = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(stats, |j, key| j.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        result.set("serve.rejected", int(&["queue", "rejected_connections"]));
        result.set("serve.timeouts", int(&["deadlines", "timeouts"]));
        result.set("serve.degraded", int(&["deadlines", "degraded"]));
        let hist: Vec<u64> = stats
            .get("queue")
            .and_then(|q| q.get("wait_us_log2"))
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default();
        result.set("serve.queue_wait_us_p50", log2_histogram_median(&hist));
        for (metric, key) in [
            ("cache.hits", "hits"),
            ("cache.misses", "misses"),
            ("cache.bfs_invocations", "bfs_invocations"),
            ("cache.evictions", "evictions"),
            ("cache.resident_bytes", "resident_bytes"),
        ] {
            result.set(metric, int(&["cache", key]));
        }
        let (hits, misses) = (int(&["cache", "hits"]), int(&["cache", "misses"]));
        result.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    } else {
        result.check(false, || "GET /stats failed".into());
    }

    let mut commits = phases.all.commits;
    let (ds, restart_commits) = restart_cycles(
        &mut result,
        opts,
        served,
        phases.commits_in_a,
        Some(&access_log),
        core.as_ref(),
    );
    commits.extend(restart_commits);
    if let Some(one) = &core {
        one.release();
    }
    let mut samples = phases.all.samples;
    samples.extend(all.samples);
    verify_offline(
        &mut result,
        &ds,
        samples,
        &commits,
        &phases.rank_samples,
        phases.commits_in_a,
    );

    // The layers below the socket, on this workload's inputs. The
    // server's own cache counters (read above) win over the probe's.
    let served_cache: Vec<(&'static str, f64)> = result
        .values
        .iter()
        .filter(|(k, _)| k.starts_with("cache."))
        .map(|(k, v)| (*k, *v))
        .collect();
    crate::traced::layer_probes(
        &mut result,
        &mut tracer,
        opts,
        &ds,
        crate::traced::Primary::Test,
    );
    for (k, v) in served_cache {
        result.set(k, v);
    }
    crate::traced::finish(&mut result, &tracer, opts);
    result
}
