//! Black-box integration suite for the `tesc-serve` daemon.
//!
//! Every test drives a real server over real `std::net::TcpStream`
//! sockets — no handler is called directly. The suite locks down the
//! serving contract that later PRs (persistence, anytime queries,
//! windowed monitoring) will regression-test against:
//!
//! * happy path for every endpoint, with snapshot versions echoed;
//! * malformed requests are 4xx, never a panic, never a wedged server;
//! * oversized payloads are rejected before being buffered;
//! * admission control answers 503 at the door when saturated;
//! * graceful shutdown drains in-flight requests;
//! * concurrent mixed read/write load stays snapshot-consistent and
//!   bit-identical to offline engine runs on the echoed versions.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::context::TescContext;
use tesc::serve::json::Json;
use tesc::serve::{Server, ServerConfig};
use tesc::{EventStore, TescConfig};
use tesc_graph::generators::grid;
use tesc_graph::NodeId;

/// A minimal HTTP/1.1 client over one keep-alive connection.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Requests go out as one segment each; without this a request
        // split over two writes waits ~40 ms on Nagle + delayed ACK.
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, stream }
    }

    /// Send a request and parse the response: `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
        self.read_response()
    }

    /// Write raw bytes (for malformed-request tests) and read whatever
    /// status comes back.
    fn raw(addr: SocketAddr, bytes: &[u8]) -> u16 {
        let mut client = Client::connect(addr);
        client.stream.write_all(bytes).expect("write raw");
        client.read_response().0
    }

    fn read_response(&mut self) -> (u16, Json) {
        let (status, _, body) = self.read_response_full();
        (status, body)
    }

    /// Like [`read_response`], but also returns the response headers
    /// with lowercased names (for `Retry-After` assertions).
    fn read_response_full(&mut self) -> (u16, HashMap<String, String>, Json) {
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("read status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        let mut headers = HashMap::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content length");
                }
                headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("read body");
        let body = String::from_utf8(body).expect("utf8 body");
        (status, headers, Json::parse(&body).expect("json body"))
    }
}

/// A small deterministic context: 16×16 grid, two overlapping events.
fn test_context() -> TescContext {
    let mut events = EventStore::new();
    events.add_event("alpha", (0..40).collect());
    events.add_event("beta", (20..60).collect());
    events.add_event("gamma", (100..140).collect());
    TescContext::new(grid(16, 16), events, 2)
}

fn spawn(cfg: ServerConfig) -> Server {
    Server::spawn(test_context(), cfg).expect("spawn server")
}

fn default_cfg() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 16,
        max_body_bytes: 1 << 20,
        debug_endpoints: true,
        access_log: None,
        ..ServerConfig::default()
    }
}

fn get_i64(json: &Json, key: &str) -> i64 {
    json.get(key)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("missing integer `{key}` in {json:?}"))
}

fn get_str<'j>(json: &'j Json, key: &str) -> &'j str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {json:?}"))
}

#[test]
fn happy_path_covers_every_endpoint() {
    let server = spawn(default_cfg());
    let mut client = Client::connect(server.addr());

    // /test against registered events, server-side bit-identity check
    // against an offline engine run on the same (echoed) version.
    let (status, body) = client.request(
        "POST",
        "/test",
        r#"{"events":["alpha","beta"],"h":2,"n":80,"seed":11}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "version"), 1);
    let result = body.get("result").expect("result");
    let server_z_bits = get_str(result, "z_bits").to_string();
    assert!(get_i64(result, "n_refs") > 0);
    let offline_ctx = test_context();
    let snap = offline_ctx.snapshot();
    let events = snap.events();
    let cfg = TescConfig::new(2).with_sample_size(80);
    let offline = snap
        .engine()
        .test(
            events.nodes(events.id_by_name("alpha").unwrap()),
            events.nodes(events.id_by_name("beta").unwrap()),
            &cfg,
            &mut StdRng::seed_from_u64(11),
        )
        .expect("offline test");
    assert_eq!(
        server_z_bits,
        format!("{:016x}", offline.z().to_bits()),
        "server z must be bit-identical to the offline engine"
    );

    // /test with explicit occurrence lists.
    let (status, body) = client.request(
        "POST",
        "/test",
        r#"{"a":[0,1,2,3,4,5,6,7],"b":[4,5,6,7,8,9,10,11],"n":50}"#,
    );
    assert_eq!(status, 200, "{body:?}");

    // /batch over name pairs and an explicit pair.
    let (status, body) = client.request(
        "POST",
        "/batch",
        r#"{"pairs":[["alpha","beta"],{"label":"adhoc","a":[0,1,2,3],"b":[10,11,12,13]}],"n":60,"seed":5}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    let outcomes = body.get("outcomes").and_then(Json::as_array).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(get_str(&outcomes[0], "label"), "alpha×beta");
    assert_eq!(outcomes[1].get("ok"), Some(&Json::Bool(true)));

    // /rank over all registered pairs.
    let (status, body) = client.request("POST", "/rank", r#"{"n":60,"seed":3}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "candidates"), 3);
    let ranked = body.get("ranked").and_then(Json::as_array).unwrap();
    assert!(!ranked.is_empty());

    // /top-k with a focus event.
    let (status, body) = client.request(
        "POST",
        "/top-k",
        r#"{"focus":"alpha","k":1,"n":60,"seed":3}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "candidates"), 2);
    assert_eq!(
        body.get("ranked").and_then(Json::as_array).unwrap().len(),
        1
    );

    // /top-k in anytime mode: mode and tier count are echoed, every
    // entry carries decided_at_n, and eps = 0 reproduces the exact
    // ranking bit for bit (z_bits).
    let (status, exact) = client.request("POST", "/top-k", r#"{"k":2,"n":200,"seed":3}"#);
    assert_eq!(status, 200, "{exact:?}");
    assert_eq!(get_str(&exact, "mode"), "exact");
    assert_eq!(get_i64(&exact, "rounds"), 1);
    let (status, zero) = client.request(
        "POST",
        "/top-k",
        r#"{"k":2,"n":200,"seed":3,"mode":"anytime:0"}"#,
    );
    assert_eq!(status, 200, "{zero:?}");
    assert_eq!(get_str(&zero, "mode"), "anytime:0");
    assert!(get_i64(&zero, "rounds") > 1, "n = 200 has several tiers");
    let exact_ranked = exact.get("ranked").and_then(Json::as_array).unwrap();
    let zero_ranked = zero.get("ranked").and_then(Json::as_array).unwrap();
    assert_eq!(exact_ranked.len(), zero_ranked.len());
    for (e, z) in exact_ranked.iter().zip(zero_ranked) {
        assert_eq!(get_str(e, "label"), get_str(z, "label"));
        assert_eq!(
            e.get("result").and_then(|r| r.get("z_bits")),
            z.get("result").and_then(|r| r.get("z_bits")),
            "anytime:0 must be bit-identical to exact"
        );
        assert_eq!(get_i64(e, "decided_at_n"), 200);
        assert_eq!(
            get_i64(z, "decided_at_n"),
            200,
            "eps = 0 never decides early"
        );
    }

    // Ingestion: stage edges + a new event, then commit.
    let (status, body) = client.request("POST", "/edges", r#"{"edges":[[0,17],[1,18]]}"#);
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "staged_edges"), 2);
    let (status, body) = client.request(
        "POST",
        "/events",
        r#"{"name":"delta","nodes":[7,8,9,200,201]}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "staged_events"), 1);
    let (status, body) = client.request("POST", "/commit", "");
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(body.get("committed"), Some(&Json::Bool(true)));
    // One edge batch (v2) + one event registration (v3).
    assert_eq!(get_i64(&body, "version"), 3);

    // The committed event is immediately queryable.
    let (status, body) = client.request(
        "POST",
        "/test",
        r#"{"events":["alpha","delta"],"n":50,"seed":2}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "version"), 3);

    // An empty commit is a no-op.
    let (status, body) = client.request("POST", "/commit", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("committed"), Some(&Json::Bool(false)));

    // /stats reconciles with what we just did.
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(get_i64(&stats, "version"), 3);
    let endpoints = stats.get("endpoints").expect("endpoints");
    assert_eq!(get_i64(endpoints.get("test").unwrap(), "requests"), 3);
    assert_eq!(get_i64(endpoints.get("commit").unwrap(), "requests"), 2);
    let cache = stats.get("cache").expect("cache");
    assert_eq!(
        get_i64(cache, "fresh_inserts"),
        get_i64(cache, "entries") + get_i64(cache, "evictions"),
        "cache books must balance"
    );
    let memory = stats.get("memory").expect("memory");
    assert!(get_i64(memory, "graph_plain_bytes") > 0);
    assert!(get_i64(memory, "graph_compressed_bytes") > 0);
    assert!(
        get_i64(memory, "graph_compressed_bytes") < get_i64(memory, "graph_plain_bytes"),
        "delta/varint encoding must undercut plain CSR"
    );
    assert!(get_i64(memory, "event_bytes") > 0);
    assert_eq!(
        get_i64(memory, "cache_resident_bytes"),
        get_i64(cache, "resident_bytes"),
        "memory section mirrors the cache's live figure"
    );
    for (name, ep) in match endpoints {
        Json::Obj(members) => members.iter(),
        _ => panic!("endpoints must be an object"),
    } {
        assert_eq!(
            get_i64(ep, "server_errors"),
            0,
            "endpoint {name} reported a 5xx"
        );
        // Every request lands in exactly one log₂-µs latency bucket.
        let hist = ep
            .get("latency_us_log2")
            .and_then(Json::as_array)
            .expect("latency histogram");
        assert_eq!(hist.len(), tesc::serve::metrics::LATENCY_BUCKETS);
        let mass: i64 = hist
            .iter()
            .map(|b| match b {
                Json::Int(v) => *v,
                other => panic!("histogram bucket {other:?}"),
            })
            .sum();
        assert_eq!(
            mass,
            get_i64(ep, "requests"),
            "endpoint {name}: histogram mass must equal its request count"
        );
    }

    server.shutdown_and_join();
}

#[test]
fn malformed_requests_get_4xx_and_never_wedge_the_server() {
    let server = spawn(default_cfg());
    let addr = server.addr();

    // Raw protocol garbage (each on a fresh connection).
    for (raw, expect) in [
        (&b"GARBAGE\r\n\r\n"[..], 405u16),
        (&b"DELETE /stats HTTP/1.1\r\n\r\n"[..], 405),
        (&b"GET /stats HTTP/9.9\r\n\r\n"[..], 400),
        (&b"GET /stats HTTP/1.1 extra\r\n\r\n"[..], 400),
        (
            &b"GET /stats HTTP/1.1\r\nbroken header line\r\n\r\n"[..],
            400,
        ),
        (
            &b"POST /test HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            400,
        ),
        (
            &b"POST /test HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            400,
        ),
    ] {
        assert_eq!(
            Client::raw(addr, raw),
            expect,
            "{:?}",
            String::from_utf8_lossy(raw)
        );
    }

    // Well-formed HTTP, malformed or invalid bodies.
    let mut client = Client::connect(addr);
    for (path, body, expect) in [
        ("/test", "this is not json", 400),
        ("/test", "[1,2,3]", 400),
        ("/test", "{}", 400),
        ("/test", r#"{"a":[0],"b":[1],"h":99}"#, 400),
        ("/test", r#"{"a":[0],"b":[99999]}"#, 400),
        ("/test", r#"{"a":[0],"b":[1],"n":1}"#, 400),
        ("/test", r#"{"events":["alpha"]}"#, 400),
        ("/test", r#"{"events":["alpha","nope"]}"#, 400),
        ("/test", r#"{"a":[0],"b":[1],"sampler":"psychic"}"#, 400),
        ("/test", r#"{"a":[0],"b":[1],"alpha":7.0}"#, 400),
        ("/test", r#"{"a":[0],"b":[1],"seed":-4}"#, 400),
        ("/batch", r#"{"pairs":[]}"#, 400),
        ("/batch", r#"{"pairs":[["alpha"]]}"#, 400),
        ("/test", r#"{"a":[0],"b":[1],"deadline_ms":0}"#, 400),
        ("/test", r#"{"a":[0],"b":[1],"deadline_ms":"soon"}"#, 400),
        ("/rank", r#"{"deadline_ms":-5}"#, 400),
        ("/rank", r#"{"focus":"nope"}"#, 400),
        ("/rank", r#"{"mode":7}"#, 400),
        ("/rank", r#"{"mode":"psychic"}"#, 400),
        ("/top-k", r#"{"k":0}"#, 400),
        ("/top-k", r#"{"k":1,"mode":"anytime:1.5"}"#, 400),
        ("/top-k", r#"{"k":1,"mode":"anytime:"}"#, 400),
        ("/edges", r#"{"edges":[[0]]}"#, 400),
        ("/edges", r#"{"edges":[[0,"x"]]}"#, 400),
        ("/events", r#"{"name":"","nodes":[1]}"#, 400),
        ("/events", r#"{"name":"x"}"#, 400),
        ("/nope", "", 404),
    ] {
        let (status, _) = client.request("POST", path, body);
        assert_eq!(status, expect, "POST {path} {body}");
    }

    // Tests that *run* but cannot produce a statistic are 422.
    let (status, _) = client.request("POST", "/test", r#"{"a":[],"b":[]}"#);
    assert_eq!(status, 422);

    // A commit whose staged edges are invalid is rejected and
    // publishes nothing.
    let (status, _) = client.request("POST", "/edges", r#"{"edges":[[5,5]]}"#);
    assert_eq!(status, 200, "staging does not validate self-loops yet");
    let (status, _) = client.request("POST", "/commit", "");
    assert_eq!(status, 400);
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(get_i64(&stats, "version"), 1, "rejected commit published");

    // After all of that the server still serves correct queries, and
    // has recorded zero 5xx.
    let (status, body) = client.request("POST", "/test", r#"{"events":["alpha","beta"],"n":50}"#);
    assert_eq!(status, 200, "{body:?}");
    let (_, stats) = client.request("GET", "/stats", "");
    let endpoints = stats.get("endpoints").unwrap();
    let total_5xx: i64 = match endpoints {
        Json::Obj(members) => members
            .iter()
            .map(|(_, ep)| get_i64(ep, "server_errors"))
            .sum(),
        _ => panic!(),
    };
    assert_eq!(total_5xx, 0, "malformed input must never 5xx");

    server.shutdown_and_join();
}

#[test]
fn oversized_payloads_are_rejected_up_front() {
    let mut cfg = default_cfg();
    cfg.max_body_bytes = 256;
    let server = spawn(cfg);

    let big = format!(r#"{{"a":[{}],"b":[1]}}"#, "0,".repeat(400) + "0");
    assert!(big.len() > 256);
    let mut client = Client::connect(server.addr());
    let (status, body) = client.request("POST", "/test", &big);
    assert_eq!(status, 413, "{body:?}");

    // The connection is closed after a 413, but the server keeps
    // serving fresh connections.
    let mut client = Client::connect(server.addr());
    let (status, _) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);

    server.shutdown_and_join();
}

#[test]
fn saturated_server_answers_503_at_the_door() {
    let mut cfg = default_cfg();
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let server = spawn(cfg);
    let addr = server.addr();

    // Occupy the only worker deterministically.
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.request("POST", "/sleep", r#"{"ms":700}"#)
    });
    std::thread::sleep(Duration::from_millis(150));

    // The worker is busy; the queue holds one connection; the next
    // connections must be turned away with 503.
    let parked = TcpStream::connect(addr).expect("parked connection");
    std::thread::sleep(Duration::from_millis(100));
    let mut saw_503 = false;
    for _ in 0..5 {
        let mut client = Client::connect(addr);
        let head = "GET /stats HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n";
        client.stream.write_all(head.as_bytes()).expect("write");
        let (status, headers, _) = client.read_response_full();
        if status == 503 {
            // Satellite: at-the-door 503s tell the client when to come
            // back instead of leaving them to guess.
            assert_eq!(
                headers.get("retry-after").map(String::as_str),
                Some("1"),
                "503 must carry Retry-After"
            );
            saw_503 = true;
            break;
        }
    }
    assert!(saw_503, "admission control never answered 503");

    // The blocked request still completes fine.
    let (status, body) = blocker.join().expect("blocker thread");
    assert_eq!(status, 200, "{body:?}");
    drop(parked);

    // Once drained, the same server accepts again and reports the
    // rejections (503s at the door are connection-level, not 5xx).
    std::thread::sleep(Duration::from_millis(200));
    let mut client = Client::connect(addr);
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    let queue = stats.get("queue").unwrap();
    assert!(get_i64(queue, "rejected_connections") >= 1);
    assert!(
        get_i64(queue, "rejected_queue_full") >= 1,
        "the 503s above were queue-full rejections: {queue:?}"
    );
    assert_eq!(
        get_i64(queue, "rejected_queue_full") + get_i64(queue, "rejected_shutdown"),
        get_i64(queue, "rejected_connections"),
        "per-cause rejection counters must sum to the total"
    );
    let wait_hist = queue
        .get("wait_us_log2")
        .and_then(Json::as_array)
        .expect("queue wait histogram");
    assert_eq!(wait_hist.len(), tesc::serve::metrics::LATENCY_BUCKETS);
    let wait_mass: i64 = wait_hist
        .iter()
        .map(|b| b.as_i64().expect("bucket count"))
        .sum();
    assert!(
        wait_mass >= 1,
        "every dequeued connection lands in the wait histogram"
    );
    let endpoints = stats.get("endpoints").unwrap();
    let total_5xx: i64 = match endpoints {
        Json::Obj(members) => members
            .iter()
            .map(|(_, ep)| get_i64(ep, "server_errors"))
            .sum(),
        _ => panic!(),
    };
    assert_eq!(total_5xx, 0);

    server.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut cfg = default_cfg();
    cfg.workers = 2;
    let server = spawn(cfg);
    let addr = server.addr();

    // A slow request in flight on worker 1...
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.request("POST", "/sleep", r#"{"ms":400}"#)
    });
    std::thread::sleep(Duration::from_millis(100));

    // ... while /shutdown arrives on worker 2.
    let mut client = Client::connect(addr);
    let (status, body) = client.request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(body.get("shutting_down"), Some(&Json::Bool(true)));

    // The in-flight request must complete with a full response.
    let (status, body) = in_flight.join().expect("in-flight thread");
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(get_i64(&body, "slept_ms"), 400);

    // And the server winds down completely.
    server.join();
}

#[test]
fn real_binary_serves_over_a_real_socket() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tesc-serve"))
        .args([
            "--demo",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--h",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn tesc-serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .expect("socket addr");

    let mut client = Client::connect(addr);
    let (status, body) = client.request(
        "POST",
        "/test",
        r#"{"events":["wireless","sensor"],"h":1,"n":120,"seed":9}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    assert_eq!(
        get_str(body.get("result").unwrap(), "verdict"),
        "positive",
        "the demo scenario plants an attracting pair"
    );
    let (status, _) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    let status = child.wait().expect("wait for child");
    assert!(status.success(), "server exited with {status:?}");
}

/// Satellite 2: N reader threads fire `/test` queries while a writer
/// streams edge commits. Every response must be internally consistent
/// with exactly one snapshot version (the echoed one), and replaying
/// each logged query offline against a reconstruction of that version
/// must reproduce the z-score bit for bit.
#[test]
fn concurrent_reads_and_writes_stay_snapshot_consistent_and_bit_identical() {
    const READERS: usize = 4;
    const QUERIES: usize = 6;
    const COMMITS: usize = 5;
    /// Batch `i` adds these (diagonal, not-in-grid, distinct) edges.
    fn edge_batch(i: usize) -> Vec<(NodeId, NodeId)> {
        let base = (4 * i) as NodeId;
        vec![(base, base + 17), (base + 1, base + 18)]
    }

    let server = spawn(default_cfg());
    let addr = server.addr();

    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        for i in 0..COMMITS {
            let edges: Vec<String> = edge_batch(i)
                .iter()
                .map(|(u, v)| format!("[{u},{v}]"))
                .collect();
            let (status, _) = client.request(
                "POST",
                "/edges",
                &format!(r#"{{"edges":[{}]}}"#, edges.join(",")),
            );
            assert_eq!(status, 200);
            let (status, body) = client.request("POST", "/commit", "");
            assert_eq!(status, 200, "{body:?}");
            assert_eq!(get_i64(&body, "version"), (i + 2) as i64);
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    // Each reader logs (version, request params, z_bits, statistic).
    struct Logged {
        version: u64,
        reader: usize,
        query: usize,
        z_bits: String,
        statistic_bits: u64,
    }
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut log = Vec::with_capacity(QUERIES);
                for q in 0..QUERIES {
                    let (a0, b0) = ((r * 7) as u64, (r * 7 + 12) as u64);
                    let body = format!(
                        r#"{{"a":[{}],"b":[{}],"h":2,"n":60,"seed":{}}}"#,
                        (a0..a0 + 24)
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                        (b0..b0 + 24)
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                        r * 1000 + q
                    );
                    let (status, resp) = client.request("POST", "/test", &body);
                    assert_eq!(status, 200, "{resp:?}");
                    let result = resp.get("result").expect("result");
                    log.push(Logged {
                        version: get_i64(&resp, "version") as u64,
                        reader: r,
                        query: q,
                        z_bits: get_str(result, "z_bits").to_string(),
                        statistic_bits: result
                            .get("statistic")
                            .and_then(Json::as_f64)
                            .expect("statistic")
                            .to_bits(),
                    });
                    std::thread::sleep(Duration::from_millis(15));
                }
                log
            })
        })
        .collect();

    writer.join().expect("writer");
    let logs: Vec<Logged> = readers
        .into_iter()
        .flat_map(|h| h.join().expect("reader"))
        .collect();
    server.shutdown_and_join();

    // Offline replay: rebuild every version the server can have
    // published, then re-run each logged query against its version.
    let ctx = test_context();
    let mut snapshots = HashMap::new();
    snapshots.insert(1u64, ctx.snapshot());
    for i in 0..COMMITS {
        let snap = ctx.add_edges(&edge_batch(i)).expect("offline ingest");
        snapshots.insert(snap.version(), snap);
    }
    assert_eq!(snapshots.len(), COMMITS + 1);

    for entry in &logs {
        assert!(
            (1..=(COMMITS as u64 + 1)).contains(&entry.version),
            "response echoed impossible version {}",
            entry.version
        );
        let snap = &snapshots[&entry.version];
        let (a0, b0) = (
            (entry.reader * 7) as NodeId,
            (entry.reader * 7 + 12) as NodeId,
        );
        let a: Vec<NodeId> = (a0..a0 + 24).collect();
        let b: Vec<NodeId> = (b0..b0 + 24).collect();
        let cfg = TescConfig::new(2).with_sample_size(60);
        let offline = snap
            .engine()
            .test(
                &a,
                &b,
                &cfg,
                &mut StdRng::seed_from_u64((entry.reader * 1000 + entry.query) as u64),
            )
            .expect("offline replay");
        assert_eq!(
            entry.z_bits,
            format!("{:016x}", offline.z().to_bits()),
            "reader {} query {} on v{}: z not bit-identical",
            entry.reader,
            entry.query,
            entry.version
        );
        assert_eq!(
            entry.statistic_bits,
            offline.statistic().to_bits(),
            "reader {} query {} on v{}: statistic not bit-identical",
            entry.reader,
            entry.query,
            entry.version
        );
    }
}

/// Send a request with explicit extra headers (for content
/// negotiation tests) and parse the response.
fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, Json) {
    let mut client = Client::connect(addr);
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    client
        .stream
        .write_all(head.as_bytes())
        .expect("write request");
    client.read_response()
}

#[test]
fn content_negotiation_enforces_json_in_and_json_out() {
    let server = spawn(default_cfg());
    let addr = server.addr();
    let body = r#"{"edges":[[0,17]]}"#;

    // A POST body explicitly declared as something other than JSON is
    // refused up front with 415 — before any handler touches it.
    let (status, resp) = request_with_headers(
        addr,
        "POST",
        "/edges",
        &[("Content-Type", "text/plain")],
        body,
    );
    assert_eq!(status, 415, "non-JSON body must be 415, got {resp:?}");
    assert!(
        get_str(&resp, "error").contains("text/plain"),
        "the 415 should name the offending media type: {resp:?}"
    );

    // Declared JSON — with or without parameters — is accepted.
    for declared in ["application/json", "application/JSON; charset=utf-8"] {
        let (status, _) =
            request_with_headers(addr, "POST", "/edges", &[("Content-Type", declared)], body);
        assert_eq!(status, 200, "`{declared}` must be accepted");
    }

    // A bodyless POST may declare whatever it likes (a curl quirk):
    // there is nothing to misinterpret.
    let (status, _) = request_with_headers(
        addr,
        "POST",
        "/commit",
        &[("Content-Type", "text/plain")],
        "",
    );
    assert_eq!(status, 200, "empty body: Content-Type is irrelevant");

    // Every endpoint answers JSON only: an Accept that cannot take
    // JSON is refused with 406.
    let (status, resp) =
        request_with_headers(addr, "GET", "/stats", &[("Accept", "text/html")], "");
    assert_eq!(status, 406, "Accept: text/html must be 406, got {resp:?}");

    // ... while JSON-compatible Accept headers all pass.
    for accept in [
        "application/json",
        "*/*",
        "application/*",
        "text/html, application/json;q=0.8",
    ] {
        let (status, _) = request_with_headers(addr, "GET", "/stats", &[("Accept", accept)], "");
        assert_eq!(status, 200, "Accept `{accept}` must be acceptable");
    }

    // The 4xx responses left the connection healthy for real work.
    let mut client = Client::connect(addr);
    let (status, _) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    server.shutdown_and_join();
}

#[test]
fn access_log_appends_one_json_line_per_request() {
    let log_path = std::env::temp_dir().join(format!(
        "tesc-access-{}-{}.jsonl",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let cfg = ServerConfig {
        access_log: Some(log_path.clone()),
        ..default_cfg()
    };
    let server = spawn(cfg);
    let mut client = Client::connect(server.addr());
    let (status, _) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/edges", r#"{"edges":[[0,17]]}"#);
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/nope", "");
    assert_eq!(status, 404);
    server.shutdown_and_join();

    let log = std::fs::read_to_string(&log_path).expect("access log file");
    std::fs::remove_file(&log_path).ok();
    // stats + edges + the 404 (shutdown_and_join bypasses HTTP).
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "one line per request, got:\n{log}");
    let mut statuses = Vec::new();
    for line in &lines {
        let entry = Json::parse(line).unwrap_or_else(|e| panic!("bad log line {line}: {e:?}"));
        assert!(get_i64(&entry, "ts_us") > 0, "{line}");
        assert!(get_i64(&entry, "us") >= 0, "{line}");
        assert!(get_i64(&entry, "bytes") > 0, "{line}");
        assert!(get_i64(&entry, "version") >= 1, "{line}");
        get_str(&entry, "endpoint");
        statuses.push(get_i64(&entry, "status"));
    }
    assert!(statuses.contains(&200) && statuses.contains(&404), "{log}");
}

/// Spawn the real `tesc-serve` binary and scrape the bound address
/// from its `listening on ADDR` stdout line.
fn spawn_serve_binary(args: &[&str]) -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tesc-serve"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn tesc-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

#[test]
fn data_dir_round_trip_survives_kill_nine() {
    let scratch = std::env::temp_dir().join(format!(
        "tesc-serve-roundtrip-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let data_dir = scratch.join("data");

    // Initial state files: a 10×10 grid and two events.
    let graph_path = scratch.join("graph.txt");
    let events_path = scratch.join("events.txt");
    let graph = grid(10, 10);
    let mut edges = format!("{} {}\n", graph.num_nodes(), graph.num_edges());
    for (u, v) in graph.edges() {
        edges.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(&graph_path, edges).expect("write graph");
    std::fs::write(
        &events_path,
        "alpha 0,1,2,3,4,11,12,13\nbeta 2,3,4,5,6,14,15,16\n",
    )
    .expect("write events");
    let graph_arg = graph_path.to_str().unwrap().to_string();
    let events_arg = events_path.to_str().unwrap().to_string();
    let data_arg = data_dir.to_str().unwrap().to_string();

    // Boot with an empty data dir, ingest a batch, query.
    let (mut child, addr) = spawn_serve_binary(&[
        "--graph",
        &graph_arg,
        "--events",
        &events_arg,
        "--data-dir",
        &data_arg,
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--h",
        "1",
    ]);
    let mut client = Client::connect(addr);
    let (status, _) = client.request("POST", "/edges", r#"{"edges":[[0,11],[1,12]]}"#);
    assert_eq!(status, 200);
    let (status, _) = client.request(
        "POST",
        "/events",
        r#"{"name":"gamma","nodes":[50,51,52,60,61,62]}"#,
    );
    assert_eq!(status, 200);
    let (status, commit) = client.request("POST", "/commit", "");
    assert_eq!(status, 200);
    let committed_version = get_i64(&commit, "version");
    assert!(committed_version > 1);

    let rank_body = r#"{"seed":7,"n":80,"h":1}"#;
    let (status, before) = client.request("POST", "/rank", rank_body);
    assert_eq!(status, 200, "pre-crash rank failed: {before:?}");
    assert_eq!(get_i64(&before, "version"), committed_version);

    // SIGKILL — no shutdown hook runs, exactly like a power cut. The
    // WAL was fsync'd before each commit was acknowledged, so nothing
    // acknowledged may be lost.
    child.kill().expect("kill -9 the server");
    child.wait().expect("reap");

    // Reboot from the data dir alone (initial-state flags ignored).
    let (mut child, addr) = spawn_serve_binary(&[
        "--data-dir",
        &data_arg,
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--h",
        "1",
    ]);
    let mut client = Client::connect(addr);
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(
        get_i64(&stats, "version"),
        committed_version,
        "rebooted server must resume at the acknowledged version"
    );
    let (status, after) = client.request("POST", "/rank", rank_body);
    assert_eq!(status, 200);
    assert_eq!(
        before.encode(),
        after.encode(),
        "post-recovery /rank must be bit-identical to the pre-crash response"
    );

    // The recovered server keeps accepting durable commits.
    let (status, _) = client.request("POST", "/edges", r#"{"edges":[[5,16]]}"#);
    assert_eq!(status, 200);
    let (status, commit2) = client.request("POST", "/commit", "");
    assert_eq!(status, 200);
    assert_eq!(get_i64(&commit2, "version"), committed_version + 1);

    let (status, _) = client.request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    child.wait().expect("clean shutdown");
    std::fs::remove_dir_all(&scratch).ok();
}

/// Satellite 1 (slowloris guard): a client that opens a connection and
/// then stalls — or trickles a request forever — is cut off with 408
/// once the *total* head+body read budget is spent, instead of pinning
/// a worker for as long as it cares to keep the socket open.
#[test]
fn slowloris_clients_get_408_within_the_read_budget() {
    let mut cfg = default_cfg();
    cfg.max_request_read = Duration::from_millis(300);
    let server = spawn(cfg);
    let addr = server.addr();

    // Partial request head, then silence. The read clock starts at the
    // first byte, so the 408 lands shortly after the 300 ms budget —
    // not after the 5 s default, and not never.
    let start = std::time::Instant::now();
    let mut client = Client::connect(addr);
    client
        .stream
        .write_all(b"POST /test HTTP/1.1\r\nHost: slow")
        .expect("partial head");
    let (status, body) = client.read_response();
    assert_eq!(status, 408, "{body:?}");
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "408 fired after {waited:?}, before the budget was spent"
    );
    assert!(
        waited < Duration::from_millis(2000),
        "408 took {waited:?}; the guard must track the configured budget"
    );

    // A declared body that never arrives is the same attack one layer
    // down; the body read shares the one budget with the head.
    let mut client = Client::connect(addr);
    client
        .stream
        .write_all(b"POST /test HTTP/1.1\r\nHost: slow\r\nContent-Length: 64\r\n\r\n{\"a\"")
        .expect("partial body");
    let (status, _) = client.read_response();
    assert_eq!(status, 408);

    // Trickling one byte at a time does not reset the clock.
    let mut client = Client::connect(addr);
    for byte in b"POST /test HTTP/1.1\r\nHost: t\r\nContent-Length: 2000\r\n" {
        if client.stream.write_all(&[*byte]).is_err() {
            break; // server already gave up on us — that's the point
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, _) = client.read_response();
    assert_eq!(status, 408, "trickled bytes must not extend the budget");

    // None of that wedged the server for honest clients.
    let mut client = Client::connect(addr);
    let (status, _) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    server.shutdown_and_join();
}

/// The tentpole acceptance test: a `/rank` that would run for many
/// seconds uncapped, sent with a small `deadline_ms`, must come back
/// within deadline + slack — either as a 504 or as a degraded 200
/// carrying the best ranking decided in time — while a concurrent
/// no-deadline `/test` on another connection stays bit-identical to an
/// offline engine run. Deadlines shed load; they never bend results.
#[test]
fn doomed_rank_answers_within_deadline_while_healthy_queries_stay_exact() {
    // Big enough that this /rank (6 pairs, n = 5M) takes many seconds
    // uncapped: the deadline is what brings it back in milliseconds.
    // A preferential-attachment graph puts hubs in every 2-hop
    // vicinity, so the reference population is tens of thousands of
    // nodes with expensive BFS each — a grid would saturate at a
    // few hundred refs and finish honestly under any deadline.
    fn heavy_context() -> TescContext {
        let graph =
            tesc_graph::generators::barabasi_albert(20_000, 5, &mut StdRng::seed_from_u64(1234));
        let mut events = EventStore::new();
        events.add_event("alpha", (0..400).collect());
        events.add_event("beta", (200..600).collect());
        events.add_event("gamma", (500..900).collect());
        events.add_event("delta", (800..1200).collect());
        TescContext::new(graph, events, 2)
    }
    let server = Server::spawn(heavy_context(), default_cfg()).expect("spawn server");
    let addr = server.addr();

    const DEADLINE_MS: u64 = 300;
    const SLACK_MS: u64 = 250;
    let doomed = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let start = std::time::Instant::now();
        let (status, body) = client.request(
            "POST",
            "/rank",
            &format!(r#"{{"n":5000000,"seed":3,"deadline_ms":{DEADLINE_MS}}}"#),
        );
        (status, body, start.elapsed())
    });

    // Concurrent healthy query, no deadline: exact answer, exact bits.
    let mut client = Client::connect(addr);
    let (status, resp) = client.request(
        "POST",
        "/test",
        r#"{"events":["alpha","beta"],"h":2,"n":80,"seed":11}"#,
    );
    assert_eq!(status, 200, "{resp:?}");
    let offline_ctx = heavy_context();
    let snap = offline_ctx.snapshot();
    let events = snap.events();
    let offline = snap
        .engine()
        .test(
            events.nodes(events.id_by_name("alpha").unwrap()),
            events.nodes(events.id_by_name("beta").unwrap()),
            &TescConfig::new(2).with_sample_size(80),
            &mut StdRng::seed_from_u64(11),
        )
        .expect("offline test");
    assert_eq!(
        get_str(resp.get("result").unwrap(), "z_bits"),
        format!("{:016x}", offline.z().to_bits()),
        "a deadline elsewhere must not bend a healthy query's bits"
    );

    let (status, body, elapsed) = doomed.join().expect("doomed thread");
    assert!(
        elapsed <= Duration::from_millis(DEADLINE_MS + SLACK_MS),
        "doomed /rank took {elapsed:?}, budget was {DEADLINE_MS} ms + {SLACK_MS} ms slack"
    );
    match status {
        // Graceful degradation: the anytime executor got at least one
        // tier through and answers with what it decided in time.
        200 => {
            assert_eq!(
                body.get("degraded"),
                Some(&Json::Bool(true)),
                "an uncapped-many-seconds rank cannot finish honestly in {DEADLINE_MS} ms: {body:?}"
            );
            assert_eq!(get_i64(&body, "deadline_ms"), DEADLINE_MS as i64);
            let ranked = body.get("ranked").and_then(Json::as_array).expect("ranked");
            assert!(!ranked.is_empty(), "degraded 200 must carry a ranking");
            for entry in ranked {
                assert!(
                    get_i64(entry, "decided_at_n") >= 1,
                    "degraded entries still expose their evidence level: {entry:?}"
                );
            }
        }
        // Or the budget died before anything was decided: a typed 504
        // with the elapsed/limit pair surfaced for resizing.
        504 => {
            assert!(get_i64(&body, "elapsed_ms") >= 0);
            assert_eq!(get_i64(&body, "deadline_ms"), DEADLINE_MS as i64);
            assert_eq!(body.get("cancelled"), Some(&Json::Bool(false)));
        }
        other => panic!("doomed /rank answered {other}: {body:?}"),
    }

    // The accounting shows up in /stats either way (a degraded 200
    // bumps both the degraded and timeout counters).
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    let deadlines = stats.get("deadlines").expect("deadlines section");
    assert!(get_i64(deadlines, "timeouts") >= 1, "{deadlines:?}");
    assert_eq!(get_i64(deadlines, "cancelled"), 0);
    server.shutdown_and_join();
}

/// Satellite 3 (cancellation storm): doomed queries hammering the
/// server while a writer streams commits must leave it fully
/// serviceable, with every published snapshot — and every shared
/// cache — exactly as consistent as if the storm never happened:
/// identical post-storm queries are bit-identical to offline replay
/// and to a twin server that never saw a deadline.
#[test]
fn cancellation_storm_keeps_server_serviceable_and_state_consistent() {
    const STORMERS: usize = 4;
    const DOOMED: usize = 5;
    const COMMITS: usize = 4;
    fn edge_batch(i: usize) -> Vec<(NodeId, NodeId)> {
        let base = (4 * i) as NodeId;
        vec![(base, base + 17), (base + 1, base + 18)]
    }

    let server = spawn(default_cfg());
    let addr = server.addr();

    // Ingestion races the storm: acknowledged commits must publish
    // no matter how many queries around them are being torn down.
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        for i in 0..COMMITS {
            let edges: Vec<String> = edge_batch(i)
                .iter()
                .map(|(u, v)| format!("[{u},{v}]"))
                .collect();
            let (status, _) = client.request(
                "POST",
                "/edges",
                &format!(r#"{{"edges":[{}]}}"#, edges.join(",")),
            );
            assert_eq!(status, 200);
            let (status, body) = client.request("POST", "/commit", "");
            assert_eq!(status, 200, "{body:?}");
            std::thread::sleep(Duration::from_millis(25));
        }
    });
    let stormers: Vec<_> = (0..STORMERS)
        .map(|s| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut timed_out = 0i64;
                for q in 0..DOOMED {
                    let (status, body) = client.request(
                        "POST",
                        "/rank",
                        &format!(r#"{{"n":2000000,"seed":{},"deadline_ms":1}}"#, s * 100 + q),
                    );
                    match status {
                        // A degraded best-effort answer (counted as a
                        // timeout), the rare full finish inside 1 ms,
                        // or a clean typed 504 — never a wedge, never
                        // a malformed response.
                        200 => match body.get("degraded") {
                            Some(&Json::Bool(true)) => timed_out += 1,
                            Some(&Json::Bool(false)) => {}
                            other => panic!("deadline'd 200 without a degraded marker: {other:?}"),
                        },
                        504 => {
                            assert_eq!(get_i64(&body, "deadline_ms"), 1);
                            timed_out += 1;
                        }
                        other => panic!("doomed rank answered {other}: {body:?}"),
                    }
                }
                timed_out
            })
        })
        .collect();
    writer.join().expect("writer");
    let timed_out: i64 = stormers
        .into_iter()
        .map(|s| s.join().expect("stormer"))
        .sum();
    assert!(timed_out >= 1, "the storm never produced a single timeout");

    // Serviceable, and bit-identical to offline replay: rebuild the
    // final version offline and replay a fresh query against it.
    let mut client = Client::connect(addr);
    let (status, resp) = client.request(
        "POST",
        "/test",
        r#"{"events":["alpha","beta"],"h":2,"n":80,"seed":21}"#,
    );
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(get_i64(&resp, "version"), (COMMITS + 1) as i64);
    let offline_ctx = test_context();
    let mut final_snap = offline_ctx.snapshot();
    for i in 0..COMMITS {
        final_snap = offline_ctx
            .add_edges(&edge_batch(i))
            .expect("offline ingest");
    }
    let events = final_snap.events();
    let offline = final_snap
        .engine()
        .test(
            events.nodes(events.id_by_name("alpha").unwrap()),
            events.nodes(events.id_by_name("beta").unwrap()),
            &TescConfig::new(2).with_sample_size(80),
            &mut StdRng::seed_from_u64(21),
        )
        .expect("offline replay");
    assert_eq!(
        get_str(resp.get("result").unwrap(), "z_bits"),
        format!("{:016x}", offline.z().to_bits()),
        "post-storm query must replay offline bit for bit"
    );

    // And to a twin server that never saw the storm: same commits,
    // same no-deadline /rank, byte-identical response.
    let rank_body = r#"{"n":300,"seed":5}"#;
    let (status, after_storm) = client.request("POST", "/rank", rank_body);
    assert_eq!(status, 200);
    let twin = spawn(default_cfg());
    let mut twin_client = Client::connect(twin.addr());
    for i in 0..COMMITS {
        let edges: Vec<String> = edge_batch(i)
            .iter()
            .map(|(u, v)| format!("[{u},{v}]"))
            .collect();
        let (status, _) = twin_client.request(
            "POST",
            "/edges",
            &format!(r#"{{"edges":[{}]}}"#, edges.join(",")),
        );
        assert_eq!(status, 200);
        let (status, _) = twin_client.request("POST", "/commit", "");
        assert_eq!(status, 200);
    }
    let (status, pristine) = twin_client.request("POST", "/rank", rank_body);
    assert_eq!(status, 200);
    assert_eq!(
        after_storm.encode(),
        pristine.encode(),
        "the storm must not leave a single divergent bit in serving state"
    );
    twin.shutdown_and_join();

    // The storm is visible in the books: every doomed request landed
    // in the timeout accounting, none of them as an unexplained 5xx
    // elsewhere.
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    let deadlines = stats.get("deadlines").expect("deadlines section");
    assert_eq!(get_i64(deadlines, "timeouts"), timed_out, "{deadlines:?}");
    assert_eq!(get_i64(deadlines, "cancelled"), 0);
    let rank_stats = stats.get("endpoints").unwrap().get("rank").unwrap();
    assert_eq!(
        get_i64(rank_stats, "requests"),
        (STORMERS * DOOMED + 1) as i64
    );
    server.shutdown_and_join();
}

#[test]
fn removed_and_unknown_flags_are_rejected_before_listening() {
    for flag in ["--relabel", "--wrokers"] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tesc-serve"))
            .args(["--demo", "--listen", "127.0.0.1:0", flag, "on"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn tesc-serve");
        // A server that accepted the flag would block serving; give it
        // a bounded window to exit, then fail rather than hang.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on tesc-serve") {
                break status;
            }
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                panic!("tesc-serve accepted {flag} and kept running");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let (mut stdout, mut stderr) = (String::new(), String::new());
        child
            .stdout
            .take()
            .unwrap()
            .read_to_string(&mut stdout)
            .unwrap();
        child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        assert!(!status.success(), "{flag}: exit {status}");
        assert!(!stdout.contains("listening on"), "{flag}: {stdout}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{flag}: {stderr}"
        );
    }
}
