//! Closed-loop load generator for the `tesc::serve` daemon: spawn an
//! in-process [`Server`], fire concurrent keep-alive HTTP clients at
//! it, and report request-latency percentiles and throughput per
//! (endpoint × client count × cache budget) cell.
//!
//! Rows (`TESC_BENCH_JSON` records carry `p50_us`, `p99_us`, `rps`
//! and `requests` instead of `ns_per_iter`):
//!
//! * `test/c{N}` — N closed-loop clients on `POST /test`. A served
//!   one-pair test of small events resolves from the event side and
//!   bypasses the density cache (`docs/PERFORMANCE.md` §9), so this
//!   row has no budget axis: it is the plain served-path latency.
//! * `rank/c{N}/budget=inf` — the same event pairs as one-candidate
//!   `POST /rank` requests (the planner path, which fills the cache)
//!   against an unbounded density cache (the append-only baseline).
//! * `rank/c{N}/budget=48K` — the same request stream against a
//!   48 KiB second-chance budget small enough that the workload's
//!   eight distinct event pairs cannot all stay resident.
//!
//! **Identity gate** (like `density_kernel` / `rank_events`): every
//! `/rank` request is replayed with the same `(a, b, h, n, seed)` body
//! in both budget cells, and each response's `z_bits` must match its
//! unbounded twin exactly — eviction may change hit rates, never
//! bits. The run also asserts zero 5xx responses and, for the
//! bounded cell, that evictions actually happened (otherwise the
//! budget row would silently measure the unbounded path); the `/test`
//! cell asserts the opposite, that its cache stayed empty.
//!
//! Each request goes out as **one** `write_all` on a `TCP_NODELAY`
//! socket: head and body in two writes stall ≈ 40 ms on Nagle +
//! delayed ACK, which is what the rows recorded before this fix
//! measured instead of the server.
//!
//! The request count scales with `TESC_BENCH_SAMPLES`, so the CI
//! smoke run (`TESC_BENCH_SAMPLES=1`) exercises the full
//! client/server/identity machinery in seconds. Run:
//! `cargo bench --bench serve_load`. The committed `BENCH_serve.json`
//! is this bench's output on the reference container.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use tesc::context::TescContext;
use tesc::serve::json::Json;
use tesc::serve::{Server, ServerConfig};
use tesc_bench::timing::Harness;
use tesc_events::EventStore;
use tesc_graph::generators::grid;
use tesc_graph::NodeId;

/// Closed-loop client counts; each client owns one keep-alive
/// connection (so `workers` must cover the largest count).
const CLIENT_COUNTS: [usize; 2] = [1, 4];

/// Distinct event pairs cycled through by the request stream. Eight
/// pairs × (two ~200-byte content slabs + up to 80 sampled reference
/// slots × 64 bytes each) ≈ 90 KiB of steady-state cache demand.
const PAIRS: usize = 8;

/// Byte budget for the bounded cell: well under the workload's
/// steady-state demand, so the second-chance policy must evict.
const TINY_BUDGET: usize = 48 * 1024;

/// The endpoint a cell drives.
#[derive(Clone, Copy, PartialEq)]
enum Endpoint {
    /// `POST /test` with explicit occurrence lists.
    Test,
    /// `POST /rank` with the same pair as its one candidate.
    Rank,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Test => "/test",
            Endpoint::Rank => "/rank",
        }
    }

    /// The `z_bits` string of a 200 response.
    fn z_bits(self, json: &Json) -> Option<&str> {
        let entry = match self {
            Endpoint::Test => json,
            Endpoint::Rank => json.get("ranked")?.as_array()?.first()?,
        };
        entry.get("result")?.get("z_bits")?.as_str()
    }
}

/// One request body, deterministic in `(client, request index)` —
/// identical across budget cells, so responses must be bit-equal.
fn request_body(endpoint: Endpoint, client: usize, req: usize) -> String {
    let p = (client * 31 + req) % PAIRS;
    let a: Vec<NodeId> = (p as NodeId * 13..p as NodeId * 13 + 28).collect();
    let b: Vec<NodeId> = (p as NodeId * 13 + 14..p as NodeId * 13 + 42).collect();
    let fmt = |nodes: &[NodeId]| {
        let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        items.join(",")
    };
    let (a, b, seed) = (fmt(&a), fmt(&b), client * 100_000 + req);
    match endpoint {
        Endpoint::Test => {
            format!("{{\"a\":[{a}],\"b\":[{b}],\"h\":2,\"n\":80,\"seed\":{seed}}}")
        }
        Endpoint::Rank => format!(
            "{{\"pairs\":[{{\"label\":\"p\",\"a\":[{a}],\"b\":[{b}]}}],\
             \"h\":2,\"n\":80,\"seed\":{seed}}}"
        ),
    }
}

/// Send one request on a keep-alive connection and parse the
/// response. Returns (status, body).
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Json) {
    // Head and body in ONE write: two small writes on a keep-alive
    // connection stall ≈ 40 ms on Nagle + delayed ACK.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).expect("body");
    let text = String::from_utf8(buf).expect("utf-8 body");
    (status, Json::parse(&text).expect("json body"))
}

/// Latencies (µs) and `z_bits` of one client's request stream.
struct ClientTrace {
    latencies_us: Vec<f64>,
    z_bits: Vec<(usize, usize, String)>,
}

/// A keep-alive client connection with Nagle off.
fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Spawn a server over a fresh context with `budget`, run
/// `clients × requests_per_client` closed-loop requests at `endpoint`,
/// and return (per-request traces, wall seconds, evictions and cache
/// entries reported by `/stats`). Panics on any non-200 response or
/// 5xx counter.
fn run_cell(
    endpoint: Endpoint,
    budget: Option<usize>,
    clients: usize,
    requests_per_client: usize,
) -> (Vec<ClientTrace>, f64, i64, i64) {
    let mut events = EventStore::new();
    events.add_event("probe", (0..40).collect());
    let ctx = TescContext::new(grid(24, 24), events, 2).with_cache_budget(budget);
    let server = Server::spawn(
        ctx,
        ServerConfig {
            workers: *CLIENT_COUNTS.iter().max().unwrap(),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = server.addr();

    let start = Instant::now();
    let traces: Vec<ClientTrace> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let (mut stream, mut reader) = connect(addr);
                    let mut trace = ClientTrace {
                        latencies_us: Vec::with_capacity(requests_per_client),
                        z_bits: Vec::with_capacity(requests_per_client),
                    };
                    for q in 0..requests_per_client {
                        let body = request_body(endpoint, c, q);
                        let sent = Instant::now();
                        let (status, json) =
                            roundtrip(&mut stream, &mut reader, "POST", endpoint.path(), &body);
                        trace.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(status, 200, "client {c} request {q}: {json:?}");
                        let bits = endpoint
                            .z_bits(&json)
                            .expect("z_bits in response")
                            .to_string();
                        trace.z_bits.push((c, q, bits));
                    }
                    trace
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    // Quiescent now: reconcile the server's own books before shutdown.
    let (mut stream, mut reader) = connect(addr);
    let (status, stats) = roundtrip(&mut stream, &mut reader, "GET", "/stats", "");
    assert_eq!(status, 200);
    for (endpoint, counters) in match stats.get("endpoints") {
        Some(Json::Obj(members)) => members.clone(),
        other => panic!("stats.endpoints missing: {other:?}"),
    } {
        let fives = counters.get("server_errors").and_then(Json::as_i64);
        assert_eq!(fives, Some(0), "{endpoint}: 5xx under load");
    }
    let cache_stat = |key: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("cache.{key} in stats"))
    };
    let (evictions, entries) = (cache_stat("evictions"), cache_stat("entries"));
    let (_, _) = roundtrip(&mut stream, &mut reader, "POST", "/shutdown", "");
    drop((stream, reader));
    server.join();
    (traces, wall, evictions, entries)
}

/// Print one cell's row and append its JSON record.
fn report(harness: &Harness, row: &str, traces: &[ClientTrace], wall: f64, evictions: i64) {
    let mut lat: Vec<f64> = traces.iter().flat_map(|t| t.latencies_us.clone()).collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let requests = lat.len();
    let rps = requests as f64 / wall;
    println!(
        "{row:<26} p50 {p50:>9.1} µs   p99 {p99:>9.1} µs   {rps:>8.1} req/s   \
         ({requests} requests, {evictions} evictions)"
    );
    harness.record_row(
        row,
        &[
            ("p50_us", p50),
            ("p99_us", p99),
            ("rps", rps),
            ("requests", requests as f64),
        ],
    );
}

fn main() {
    let harness = Harness::new().with_samples(10);
    // 4 requests per client per configured sample: samples=10 → 40
    // requests per client; the CI smoke run (samples=1) sends 4.
    let requests_per_client = 4 * harness.samples();
    println!(
        "closed-loop load: grid 24×24, h = 2, n = 80, {PAIRS} event pairs, \
         {requests_per_client} requests/client, clients ∈ {CLIENT_COUNTS:?}"
    );

    for &clients in &CLIENT_COUNTS {
        // The served one-pair path: event side, cache bypassed.
        let (traces, wall, evictions, entries) =
            run_cell(Endpoint::Test, None, clients, requests_per_client);
        assert_eq!(
            (evictions, entries),
            (0, 0),
            "/test of small events must not touch the density cache"
        );
        report(
            &harness,
            &format!("test/c{clients}"),
            &traces,
            wall,
            evictions,
        );

        // The unbounded cell is the identity reference for this
        // client count; the bounded cell must reproduce it bit-wise.
        let mut reference: BTreeMap<(usize, usize), String> = BTreeMap::new();
        for budget in [None, Some(TINY_BUDGET)] {
            let (traces, wall, evictions, _) =
                run_cell(Endpoint::Rank, budget, clients, requests_per_client);
            let label = match budget {
                None => "inf".to_string(),
                Some(b) => format!("{}K", b / 1024),
            };

            for t in &traces {
                for (c, q, bits) in &t.z_bits {
                    match budget {
                        None => {
                            reference.insert((*c, *q), bits.clone());
                        }
                        Some(_) => assert_eq!(
                            Some(bits),
                            reference.get(&(*c, *q)),
                            "client {c} request {q}: eviction changed z bits"
                        ),
                    }
                }
            }
            if budget.is_some() {
                assert!(
                    evictions > 0,
                    "budget={label}: tiny budget must evict (cell measured nothing new)"
                );
            }
            let row = format!("rank/c{clients}/budget={label}");
            report(&harness, &row, &traces, wall, evictions);
        }
        println!(
            "identity: {} responses bit-identical across budget=inf and budget=48K",
            reference.len()
        );
    }
}
