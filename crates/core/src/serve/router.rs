//! Request routing and JSON responders for the serving daemon.
//!
//! Each handler follows the same shape: pin a snapshot, parse and
//! validate the body (every validation failure is a 4xx — handlers
//! never panic on client input), run the existing engine / planner /
//! rank / ingestion path, and echo the snapshot version in the
//! response so clients can assert which version served them.
//!
//! **Bit-identity contract.** Query responses carry `z_bits` — the
//! IEEE-754 bit pattern of the z-score as a hex string — so clients
//! can compare server results against offline runs exactly, without
//! trusting decimal round-trips. A `/test` with seed `s` is bit-
//! identical to `Snapshot::engine().test(a, b, &cfg, &mut
//! StdRng::seed_from_u64(s))` on the echoed version; `/batch`,
//! `/rank` and `/top-k` replay through `Snapshot::run_batch` and
//! `rank_pairs` the same way.

use std::sync::atomic::Ordering;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::http::{Method, Request, Response};
use super::json::{obj, Json};
use super::ServerState;
use crate::batch::{run_batch, BatchRequest, EventPair};
use crate::context::Snapshot;
use crate::engine::{Statistic, TescConfig, TescEngine, TescError, TescResult};
use crate::rank::{rank_pairs, RankMode, RankRequest};
use crate::sampler::SamplerKind;
use tesc_graph::{Budget, Interrupted, NodeId};
use tesc_stats::significance::Verdict;
use tesc_stats::{SignificanceLevel, Tail, TestOutcome};

/// Route a parsed request to its handler. Returns the endpoint key
/// (for metrics) and the response.
pub(super) fn route(state: &ServerState, req: &Request) -> (&'static str, Response) {
    // Content negotiation before any handler: a POST body explicitly
    // declared as non-JSON is a 415, and a client that cannot accept
    // JSON responses gets a 406 (every endpoint answers JSON only).
    // Absent headers pass — plain `curl` stays usable.
    if req.method == Method::Post && !req.body.is_empty() && !req.content_type_is_json() {
        return (
            "other",
            Response::error(
                415,
                "Unsupported Media Type",
                &format!(
                    "request bodies must be application/json, not {}",
                    req.content_type.as_deref().unwrap_or("unknown")
                ),
            ),
        );
    }
    if !req.accepts_json() {
        return (
            "other",
            Response::error(
                406,
                "Not Acceptable",
                "this server only produces application/json responses",
            ),
        );
    }
    match (req.method, req.path.as_str()) {
        (Method::Post, "/test") => ("test", handle_test(state, req)),
        (Method::Post, "/batch") => ("batch", handle_batch(state, req)),
        (Method::Post, "/rank") => ("rank", handle_rank(state, req, false)),
        (Method::Post, "/top-k") => ("top_k", handle_rank(state, req, true)),
        (Method::Post, "/edges") => ("edges", handle_edges(state, req)),
        (Method::Post, "/events") => ("events", handle_events(state, req)),
        (Method::Post, "/commit") => ("commit", handle_commit(state)),
        (Method::Get, "/stats") => ("stats", handle_stats(state)),
        (Method::Post, "/shutdown") => ("shutdown", handle_shutdown(state)),
        (Method::Post, "/sleep") if state.debug_endpoints => ("other", handle_sleep(req)),
        (Method::Get, path) | (Method::Post, path) => (
            "other",
            Response::error(404, "Not Found", &format!("no such endpoint: {path}")),
        ),
    }
}

/// Shorthand for a 400 with a message.
fn bad_request(message: &str) -> Response {
    Response::error(400, "Bad Request", message)
}

/// Resolve the deadline budget of one query request: an explicit
/// `deadline_ms` (clamped to the server's `--max-deadline`), else the
/// server's `--default-deadline`, else no budget at all. Returns the
/// budget plus the effective limit for echoing in responses.
fn parse_deadline(
    body: &Json,
    state: &ServerState,
) -> Result<Option<(Budget, Duration)>, Response> {
    let requested = match body.get("deadline_ms") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(ms) if ms >= 1 => Some(Duration::from_millis(ms)),
            _ => return Err(bad_request("`deadline_ms` must be an integer ≥ 1")),
        },
    };
    let effective = match (requested, state.max_deadline) {
        (Some(d), Some(max)) => Some(d.min(max)),
        (Some(d), None) => Some(d),
        (None, _) => state.default_deadline,
    };
    Ok(effective.map(|d| (Budget::with_deadline(d), d)))
}

/// The snapshot's engine, bounded by the request's deadline budget
/// when it has one.
fn query_engine<'s>(snap: &'s Snapshot, deadline: &Option<(Budget, Duration)>) -> TescEngine<'s> {
    match deadline {
        Some((budget, _)) => snap.engine().with_budget(budget.clone()),
        None => snap.engine(),
    }
}

/// The 504 a deadline-exhausted query maps to, with the elapsed time
/// and the limit surfaced so clients can size their next deadline.
/// Also bumps the timeout/cancel counters.
fn interrupted_response(state: &ServerState, i: &Interrupted) -> Response {
    if i.cancelled {
        state.metrics.record_cancelled();
    } else {
        state.metrics.record_timeout();
    }
    Response {
        status: 504,
        reason: "Gateway Timeout",
        body: obj([
            ("error", Json::Str(i.to_string())),
            ("elapsed_ms", Json::Int(i.elapsed.as_millis() as i64)),
            (
                "deadline_ms",
                Json::Int(i.limit.unwrap_or_default().as_millis() as i64),
            ),
            ("cancelled", Json::Bool(i.cancelled)),
        ])
        .encode(),
        retry_after: None,
    }
}

/// Parse the body as a JSON object (an empty body reads as `{}`).
fn parse_body(req: &Request) -> Result<Json, Response> {
    if req.body.is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| bad_request("request body is not valid UTF-8"))?;
    let value = Json::parse(text).map_err(|e| bad_request(&e.to_string()))?;
    match value {
        Json::Obj(_) => Ok(value),
        _ => Err(bad_request("request body must be a JSON object")),
    }
}

/// Parse the test configuration knobs shared by every query endpoint:
/// `h`, `n`, `tail`, `sampler` (+`batch_size`), `statistic`, `alpha`,
/// plus the RNG `seed` and worker `threads`.
fn parse_config(body: &Json, max_level: u32) -> Result<(TescConfig, u64, usize), Response> {
    let h = match body.get("h") {
        None => 1,
        Some(v) => match v.as_u64() {
            Some(h) if (1..=max_level as u64).contains(&h) => h as u32,
            _ => {
                return Err(bad_request(&format!(
                    "`h` must be an integer in 1..={max_level} (the server's vicinity level)"
                )))
            }
        },
    };
    let mut cfg = TescConfig::new(h);
    match body.get("n") {
        None => cfg = cfg.with_sample_size(300),
        Some(v) => match v.as_u64() {
            Some(n) if n >= 3 => cfg = cfg.with_sample_size(n as usize),
            _ => return Err(bad_request("`n` must be an integer ≥ 3")),
        },
    }
    if let Some(v) = body.get("tail") {
        cfg = cfg.with_tail(match v.as_str() {
            Some("upper") => Tail::Upper,
            Some("lower") => Tail::Lower,
            Some("two-sided") | Some("two_sided") => Tail::TwoSided,
            _ => {
                return Err(bad_request(
                    "`tail` must be \"upper\", \"lower\" or \"two-sided\"",
                ))
            }
        });
    }
    if let Some(v) = body.get("sampler") {
        cfg = cfg.with_sampler(match v.as_str() {
            Some("batch-bfs") | Some("batch_bfs") => SamplerKind::BatchBfs,
            Some("rejection") => SamplerKind::Rejection,
            Some("whole-graph") | Some("whole_graph") => SamplerKind::WholeGraph,
            Some("importance") => {
                let batch_size = match body.get("batch_size") {
                    None => 3,
                    Some(b) => match b.as_u64() {
                        Some(b) if b >= 1 => b as usize,
                        _ => return Err(bad_request("`batch_size` must be an integer ≥ 1")),
                    },
                };
                SamplerKind::Importance { batch_size }
            }
            _ => return Err(bad_request(
                "`sampler` must be \"batch-bfs\", \"rejection\", \"importance\" or \"whole-graph\"",
            )),
        });
    }
    if let Some(v) = body.get("statistic") {
        cfg = cfg.with_statistic(match v.as_str() {
            Some("kendall") => Statistic::KendallTau,
            Some("spearman") => Statistic::SpearmanRho,
            _ => {
                return Err(bad_request(
                    "`statistic` must be \"kendall\" or \"spearman\"",
                ))
            }
        });
    }
    if let Some(v) = body.get("alpha") {
        match v.as_f64() {
            Some(a) if a > 0.0 && a < 1.0 => cfg = cfg.with_alpha(SignificanceLevel::new(a)),
            _ => return Err(bad_request("`alpha` must be a number in (0, 1)")),
        }
    }
    // Seeds ride the exact-integer lane of the codec; values past
    // i64::MAX are not representable in JSON and are rejected.
    let seed = match body.get("seed") {
        None => 0,
        Some(v) => match v.as_u64() {
            Some(s) => s,
            None => {
                return Err(bad_request(
                    "`seed` must be a non-negative integer ≤ 2^63-1",
                ))
            }
        },
    };
    let threads = match body.get("threads") {
        None => 1, // concurrency comes from the worker pool, not per-request fan-out
        Some(v) => match v.as_u64() {
            Some(t) if t <= 64 => t as usize,
            _ => return Err(bad_request("`threads` must be an integer in 0..=64")),
        },
    };
    Ok((cfg, seed, threads))
}

/// Parse a JSON array of node ids, bounds-checked against the graph.
fn parse_nodes(value: &Json, field: &str, num_nodes: usize) -> Result<Vec<NodeId>, Response> {
    let items = value
        .as_array()
        .ok_or_else(|| bad_request(&format!("`{field}` must be an array of node ids")))?;
    let mut nodes = Vec::with_capacity(items.len());
    for item in items {
        match item.as_u64() {
            Some(v) if (v as usize) < num_nodes => nodes.push(v as NodeId),
            _ => {
                return Err(bad_request(&format!(
                    "`{field}` entries must be integers in 0..{num_nodes}"
                )))
            }
        }
    }
    Ok(nodes)
}

/// Resolve a registered event name to its occurrence list.
fn nodes_by_name<'s>(
    snap: &'s crate::context::Snapshot,
    name: &str,
) -> Result<&'s [NodeId], Response> {
    match snap.events().id_by_name(name) {
        Some(id) => Ok(snap.events().nodes(id)),
        None => Err(bad_request(&format!("unknown event \"{name}\""))),
    }
}

fn verdict_str(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::PositiveCorrelation => "positive",
        Verdict::NegativeCorrelation => "negative",
        Verdict::Independent => "independent",
    }
}

/// The JSON shape of one completed test outcome.
fn outcome_json(outcome: &TestOutcome) -> Vec<(&'static str, Json)> {
    vec![
        ("statistic", Json::Num(outcome.statistic)),
        ("z", Json::Num(outcome.z)),
        ("z_bits", Json::Str(format!("{:016x}", outcome.z.to_bits()))),
        ("p_value", Json::Num(outcome.p_value)),
        ("verdict", Json::Str(verdict_str(outcome.verdict).into())),
    ]
}

fn result_json(result: &TescResult) -> Json {
    let mut members = outcome_json(&result.outcome);
    members.push(("n_refs", Json::Int(result.n_refs as i64)));
    members.push((
        "population_size",
        match result.population_size {
            Some(n) => Json::Int(n as i64),
            None => Json::Null,
        },
    ));
    members.push(("draws", Json::Int(result.draws as i64)));
    obj(members)
}

fn handle_test(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let snap = state.ctx.snapshot();
    let (cfg, seed, _) = match parse_config(&body, state.ctx.max_level()) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let num_nodes = snap.graph().num_nodes();
    // Either explicit occurrence lists (`a`, `b`) or two registered
    // event names (`events`).
    let (a, b): (Vec<NodeId>, Vec<NodeId>) =
        match (body.get("a"), body.get("b"), body.get("events")) {
            (Some(a), Some(b), None) => {
                let a = match parse_nodes(a, "a", num_nodes) {
                    Ok(n) => n,
                    Err(r) => return r,
                };
                let b = match parse_nodes(b, "b", num_nodes) {
                    Ok(n) => n,
                    Err(r) => return r,
                };
                (a, b)
            }
            (None, None, Some(events)) => {
                let names = match events.as_array() {
                    Some(pair) if pair.len() == 2 => pair,
                    _ => return bad_request("`events` must be an array of two event names"),
                };
                let (na, nb) = match (names[0].as_str(), names[1].as_str()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return bad_request("`events` entries must be strings"),
                };
                let a = match nodes_by_name(&snap, na) {
                    Ok(n) => n.to_vec(),
                    Err(r) => return r,
                };
                let b = match nodes_by_name(&snap, nb) {
                    Ok(n) => n.to_vec(),
                    Err(r) => return r,
                };
                (a, b)
            }
            _ => {
                return bad_request(
                    "provide either occurrence lists `a` and `b`, or `events`: [nameA, nameB]",
                )
            }
        };
    let deadline = match parse_deadline(&body, state) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    match query_engine(&snap, &deadline).test(&a, &b, &cfg, &mut rng) {
        Ok(result) => {
            let mut members = vec![
                ("version", Json::Int(snap.version() as i64)),
                ("seed", Json::Int(seed as i64)),
            ];
            members.push(("result", result_json(&result)));
            Response::ok(obj(members).encode())
        }
        Err(TescError::Interrupted(i)) => interrupted_response(state, &i),
        Err(e) => Response::error(422, "Unprocessable Entity", &e.to_string()),
    }
}

/// Parse the `pairs` member shared by `/batch`, `/rank` and `/top-k`:
/// an array whose entries are either `[nameA, nameB]` name pairs or
/// `{"label", "a", "b"}` explicit pairs.
fn parse_pairs(
    snap: &crate::context::Snapshot,
    pairs: &Json,
    num_nodes: usize,
) -> Result<Vec<EventPair>, Response> {
    let items = pairs
        .as_array()
        .ok_or_else(|| bad_request("`pairs` must be an array"))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Json::Arr(names) if names.len() == 2 => {
                let (na, nb) = match (names[0].as_str(), names[1].as_str()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(bad_request("name pairs must be [string, string]")),
                };
                let a = nodes_by_name(snap, na)?.to_vec();
                let b = nodes_by_name(snap, nb)?.to_vec();
                out.push(EventPair::new(format!("{na}×{nb}"), a, b));
            }
            Json::Obj(_) => {
                let label = item
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("pair")
                    .to_string();
                let a = parse_nodes(item.get("a").unwrap_or(&Json::Null), "pairs[].a", num_nodes)?;
                let b = parse_nodes(item.get("b").unwrap_or(&Json::Null), "pairs[].b", num_nodes)?;
                out.push(EventPair::new(label, a, b));
            }
            _ => {
                return Err(bad_request(
                    "`pairs` entries must be [nameA, nameB] or {label, a, b}",
                ))
            }
        }
    }
    Ok(out)
}

fn handle_batch(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let snap = state.ctx.snapshot();
    let (cfg, seed, threads) = match parse_config(&body, state.ctx.max_level()) {
        Ok(c) => c,
        Err(r) => return r,
    };
    let pairs = match body.get("pairs") {
        Some(p) => match parse_pairs(&snap, p, snap.graph().num_nodes()) {
            Ok(p) => p,
            Err(r) => return r,
        },
        None => return bad_request("`pairs` is required"),
    };
    if pairs.is_empty() {
        return bad_request("`pairs` must not be empty");
    }
    let deadline = match parse_deadline(&body, state) {
        Ok(d) => d,
        Err(r) => return r,
    };
    let mut breq = BatchRequest::new(cfg);
    breq.pairs = pairs;
    breq.seed = seed;
    breq.threads = threads;
    let report = run_batch(&query_engine(&snap, &deadline), &breq);
    if let Some(i) = report.interrupted {
        return interrupted_response(state, &i);
    }
    let outcomes: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            let mut members = vec![
                ("index", Json::Int(o.index as i64)),
                ("label", Json::Str(o.label.clone())),
            ];
            match &o.result {
                Ok(r) => {
                    members.push(("ok", Json::Bool(true)));
                    members.push(("result", result_json(r)));
                }
                Err(e) => {
                    members.push(("ok", Json::Bool(false)));
                    members.push(("error", Json::Str(e.to_string())));
                }
            }
            obj(members)
        })
        .collect();
    Response::ok(
        obj([
            ("version", Json::Int(snap.version() as i64)),
            ("seed", Json::Int(seed as i64)),
            ("threads", Json::Int(report.threads as i64)),
            ("outcomes", Json::Arr(outcomes)),
        ])
        .encode(),
    )
}

fn handle_rank(state: &ServerState, req: &Request, top_k: bool) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let snap = state.ctx.snapshot();
    let (cfg, seed, threads) = match parse_config(&body, state.ctx.max_level()) {
        Ok(c) => c,
        Err(r) => return r,
    };
    // Candidates: explicit `pairs`, or all registered pairs involving
    // `focus`, or every registered pair.
    let pairs = match (body.get("pairs"), body.get("focus")) {
        (Some(p), _) => match parse_pairs(&snap, p, snap.graph().num_nodes()) {
            Ok(p) => p,
            Err(r) => return r,
        },
        (None, Some(focus)) => {
            let name = match focus.as_str() {
                Some(n) => n,
                None => return bad_request("`focus` must be an event name"),
            };
            let id = match snap.events().id_by_name(name) {
                Some(id) => id,
                None => return bad_request(&format!("unknown event \"{name}\"")),
            };
            snap.events()
                .pairs_with(id)
                .into_iter()
                .map(|(a, b)| snap.event_pair(a, b))
                .collect()
        }
        (None, None) => snap
            .events()
            .event_pairs()
            .into_iter()
            .map(|(a, b)| snap.event_pair(a, b))
            .collect::<Vec<_>>(),
    };
    if pairs.is_empty() {
        return bad_request("no candidate pairs (register events or pass `pairs`)");
    }
    let mut rreq = RankRequest::new(cfg)
        .with_seed(seed)
        .with_threads(threads)
        .with_pairs(pairs);
    if top_k {
        let k = match body.get("k") {
            None => 10,
            Some(v) => match v.as_u64() {
                Some(k) if k >= 1 => k as usize,
                _ => return bad_request("`k` must be an integer ≥ 1"),
            },
        };
        rreq = rreq.with_top_k(k);
    }
    // `mode`: "exact" (default) or "anytime:EPS" — the progressive
    // executor; only meaningful with a top-K cutoff (exact otherwise).
    let mode = match body.get("mode") {
        None => RankMode::Exact,
        Some(v) => match v.as_str() {
            Some("exact") => RankMode::Exact,
            Some(s) => match s.strip_prefix("anytime:").and_then(|e| e.parse().ok()) {
                Some(eps) if (0.0..1.0).contains(&eps) => RankMode::Anytime { eps },
                _ => {
                    return bad_request(
                        "`mode` must be \"exact\" or \"anytime:EPS\" with 0 ≤ EPS < 1",
                    )
                }
            },
            None => return bad_request("`mode` must be a string"),
        },
    };
    let deadline = match parse_deadline(&body, state) {
        Ok(d) => d,
        Err(r) => return r,
    };
    // A deadline-bound ranking always runs the progressive executor so
    // it can degrade to the best decided ranking instead of 504ing:
    // the client's eps is kept if it asked for anytime, else eps = 0
    // (bit-identical to exact when the run finishes in time), and a
    // plain /rank gets an implicit K covering every candidate.
    let mode = match (&deadline, mode) {
        (Some(_), RankMode::Exact) => RankMode::Anytime { eps: 0.0 },
        (_, m) => m,
    };
    if deadline.is_some() && rreq.top_k.is_none() {
        let all = rreq.pairs.len();
        rreq = rreq.with_top_k(all);
    }
    rreq = rreq.with_mode(mode);
    let report = rank_pairs(&query_engine(&snap, &deadline), &rreq);
    if let Some(i) = report.interrupted {
        return interrupted_response(state, &i);
    }
    if report.degraded {
        state.metrics.record_degraded();
        state.metrics.record_timeout();
    }
    let ranked: Vec<Json> = report
        .ranked
        .iter()
        .map(|e| {
            let mut members = vec![
                ("rank", Json::Int(e.rank as i64)),
                ("index", Json::Int(e.index as i64)),
                ("label", Json::Str(e.label.clone())),
                ("score", Json::Num(e.score)),
                ("decided_at_n", Json::Int(e.decided_at_n as i64)),
            ];
            members.push(("result", result_json(&e.result)));
            obj(members)
        })
        .collect();
    let failed: Vec<Json> = report
        .failed
        .iter()
        .map(|o| {
            obj([
                ("label", Json::Str(o.label.clone())),
                (
                    "error",
                    Json::Str(match &o.result {
                        Err(e) => e.to_string(),
                        Ok(_) => "unexpected success".into(),
                    }),
                ),
            ])
        })
        .collect();
    let mut members = vec![
        ("version", Json::Int(snap.version() as i64)),
        ("seed", Json::Int(seed as i64)),
        ("mode", Json::Str(mode.to_string())),
        ("rounds", Json::Int(report.rounds as i64)),
        ("candidates", Json::Int(report.candidates as i64)),
        ("pruned", Json::Int(report.pruned as i64)),
        ("distinct_refs", Json::Int(report.distinct_refs as i64)),
    ];
    // Only deadline-bound requests carry the degradation marker, so
    // deadline-free responses stay byte-identical to earlier releases.
    if let Some((_, limit)) = &deadline {
        members.push(("deadline_ms", Json::Int(limit.as_millis() as i64)));
        members.push(("degraded", Json::Bool(report.degraded)));
    }
    members.push(("ranked", Json::Arr(ranked)));
    members.push(("failed", Json::Arr(failed)));
    Response::ok(obj(members).encode())
}

fn handle_edges(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let edges = match body.get("edges").and_then(Json::as_array) {
        Some(e) => e,
        None => return bad_request("`edges` must be an array of [u, v] pairs"),
    };
    let mut parsed = Vec::with_capacity(edges.len());
    for edge in edges {
        match edge.as_array() {
            Some([u, v]) => match (u.as_u64(), v.as_u64()) {
                (Some(u), Some(v)) if u <= NodeId::MAX as u64 && v <= NodeId::MAX as u64 => {
                    parsed.push((u as NodeId, v as NodeId))
                }
                _ => return bad_request("edge endpoints must be node ids"),
            },
            _ => return bad_request("`edges` entries must be [u, v] pairs"),
        }
    }
    let mut staged = state.staged.lock().expect("staged lock poisoned");
    staged.edges.extend(parsed);
    Response::ok(
        obj([
            ("version", Json::Int(state.ctx.version() as i64)),
            ("staged_edges", Json::Int(staged.edges.len() as i64)),
            ("staged_events", Json::Int(staged.events.len() as i64)),
        ])
        .encode(),
    )
}

fn handle_events(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let name = match body.get("name").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => n.to_string(),
        _ => return bad_request("`name` must be a non-empty string"),
    };
    let snap = state.ctx.snapshot();
    let nodes = match body.get("nodes") {
        Some(n) => match parse_nodes(n, "nodes", snap.graph().num_nodes()) {
            Ok(n) => n,
            Err(r) => return r,
        },
        None => return bad_request("`nodes` is required"),
    };
    let mut staged = state.staged.lock().expect("staged lock poisoned");
    staged.events.push((name, nodes));
    Response::ok(
        obj([
            ("version", Json::Int(snap.version() as i64)),
            ("staged_edges", Json::Int(staged.edges.len() as i64)),
            ("staged_events", Json::Int(staged.events.len() as i64)),
        ])
        .encode(),
    )
}

/// Apply everything staged since the last commit as a sequence of
/// writer-path ingests. All validation runs against the pre-commit
/// snapshot *before* anything is applied, so a rejected commit
/// publishes nothing; the staged lock is held across validate + apply,
/// serializing concurrent commits.
fn handle_commit(state: &ServerState) -> Response {
    let mut staged = state.staged.lock().expect("staged lock poisoned");
    let base = state.ctx.snapshot();
    if staged.edges.is_empty() && staged.events.is_empty() {
        return Response::ok(
            obj([
                ("version", Json::Int(base.version() as i64)),
                ("committed", Json::Bool(false)),
            ])
            .encode(),
        );
    }
    // Validate everything first: a rejected commit publishes nothing
    // (the staged batch is kept, so the client can repair and retry).
    if let Err(e) = base.graph().check_edges(&staged.edges) {
        return bad_request(&format!("staged edges rejected: {e}"));
    }
    let num_nodes = base.graph().num_nodes();
    let mut new_names: Vec<&str> = Vec::new();
    for (name, nodes) in &staged.events {
        if let Some(&node) = nodes.iter().find(|&&v| v as usize >= num_nodes) {
            return bad_request(&format!(
                "staged event \"{name}\" references node {node}, graph has {num_nodes} nodes"
            ));
        }
        if base.events().id_by_name(name).is_none() {
            if new_names.contains(&name.as_str()) {
                return bad_request(&format!("staged batch registers \"{name}\" twice"));
            }
            new_names.push(name.as_str());
        }
    }
    // Apply. After the checks above the writer path cannot reject;
    // each step bumps the version, so one commit can advance it by
    // more than one (clients key on the echoed post-commit version).
    let mut edges_added = false;
    if !staged.edges.is_empty() {
        match state.ctx.add_edges(&staged.edges) {
            Ok(snap) => edges_added = snap.version() != base.version(),
            Err(e) => {
                return Response::error(500, "Internal Server Error", &format!("edge apply: {e}"))
            }
        }
    }
    let mut applied = Vec::with_capacity(staged.events.len());
    for (name, nodes) in &staged.events {
        let result = match state.ctx.snapshot().events().id_by_name(name) {
            Some(id) => state.ctx.add_event_occurrences(id, nodes).map(|_| ()),
            None => state.ctx.add_event(name.clone(), nodes.clone()).map(|_| ()),
        };
        if let Err(e) = result {
            return Response::error(
                500,
                "Internal Server Error",
                &format!("event apply \"{name}\": {e}"),
            );
        }
        applied.push(Json::Str(name.clone()));
    }
    staged.edges.clear();
    staged.events.clear();
    Response::ok(
        obj([
            ("version", Json::Int(state.ctx.version() as i64)),
            ("committed", Json::Bool(true)),
            ("edges_applied", Json::Bool(edges_added)),
            ("events_applied", Json::Arr(applied)),
        ])
        .encode(),
    )
}

fn handle_stats(state: &ServerState) -> Response {
    let snap = state.ctx.snapshot();
    let cache = snap.density_cache();
    let staged = state.staged.lock().expect("staged lock poisoned");
    Response::ok(
        obj([
            ("version", Json::Int(snap.version() as i64)),
            (
                "uptime_us",
                Json::Int(state.started.elapsed().as_micros().min(i64::MAX as u128) as i64),
            ),
            ("workers", Json::Int(state.workers as i64)),
            (
                "queue",
                obj([
                    ("capacity", Json::Int(state.queue_depth as i64)),
                    (
                        "rejected_connections",
                        Json::Int(state.metrics.rejected_connections() as i64),
                    ),
                    (
                        "rejected_queue_full",
                        Json::Int(state.metrics.rejected_queue_full() as i64),
                    ),
                    (
                        "rejected_shutdown",
                        Json::Int(state.metrics.rejected_shutdown() as i64),
                    ),
                    (
                        "wait_us_log2",
                        Json::Arr(
                            state
                                .metrics
                                .queue_wait_histogram()
                                .iter()
                                .map(|&c| Json::Int(c as i64))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "deadlines",
                obj([
                    ("timeouts", Json::Int(state.metrics.timeouts() as i64)),
                    ("cancelled", Json::Int(state.metrics.cancelled() as i64)),
                    ("degraded", Json::Int(state.metrics.degraded() as i64)),
                    (
                        "default_deadline_ms",
                        match state.default_deadline {
                            Some(d) => Json::Int(d.as_millis() as i64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "max_deadline_ms",
                        match state.max_deadline {
                            Some(d) => Json::Int(d.as_millis() as i64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("endpoints", state.metrics.to_json()),
            (
                "cache",
                obj([
                    ("hits", Json::Int(cache.hits() as i64)),
                    ("misses", Json::Int(cache.misses() as i64)),
                    ("bfs_invocations", Json::Int(cache.bfs_invocations() as i64)),
                    ("evictions", Json::Int(cache.evictions() as i64)),
                    ("resident_bytes", Json::Int(cache.resident_bytes() as i64)),
                    ("fresh_inserts", Json::Int(cache.fresh_inserts() as i64)),
                    ("entries", Json::Int(cache.len() as i64)),
                    (
                        "byte_budget",
                        match cache.byte_budget() {
                            Some(b) => Json::Int(b as i64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("memory", {
                let mem = snap.memory();
                obj([
                    ("graph_plain_bytes", Json::Int(mem.graph_plain_bytes as i64)),
                    (
                        "graph_compressed_bytes",
                        Json::Int(mem.graph_compressed_bytes as i64),
                    ),
                    ("event_bytes", Json::Int(mem.event_bytes as i64)),
                    (
                        "cache_resident_bytes",
                        Json::Int(cache.resident_bytes() as i64),
                    ),
                ])
            }),
            (
                "staged",
                obj([
                    ("edges", Json::Int(staged.edges.len() as i64)),
                    ("events", Json::Int(staged.events.len() as i64)),
                ]),
            ),
        ])
        .encode(),
    )
}

fn handle_shutdown(state: &ServerState) -> Response {
    state.shutdown.store(true, Ordering::SeqCst);
    state.queue.close();
    Response::ok(obj([("shutting_down", Json::Bool(true))]).encode())
}

/// Debug-only: hold a worker for `ms` milliseconds. The integration
/// suite uses this to make admission control and shutdown draining
/// deterministic; production servers never enable it.
fn handle_sleep(req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let ms = match body.get("ms").and_then(Json::as_u64) {
        Some(ms) if ms <= 10_000 => ms,
        _ => return bad_request("`ms` must be an integer ≤ 10000"),
    };
    std::thread::sleep(Duration::from_millis(ms));
    Response::ok(obj([("slept_ms", Json::Int(ms as i64))]).encode())
}
