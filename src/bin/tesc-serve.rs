//! `tesc-serve` — serve TESC queries and ingestion over HTTP.
//!
//! A thin launcher around [`tesc::serve::Server`]: build a
//! [`TescContext`] (from edge-list/event files or the built-in demo
//! scenario), wrap it in the daemon, print the bound address, and
//! block until `POST /shutdown`.
//!
//! ```text
//! tesc-serve --demo
//! tesc-serve --graph G.txt --events EVENTS.txt --h 2 --cache-budget 64M
//! tesc-serve --demo --data-dir ./data      # crash-safe: WAL + snapshots
//! ```
//!
//! See `docs/SERVING.md` for the endpoint reference and
//! `docs/PERSISTENCE.md` for the `--data-dir` durability contract.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tesc::context::TescContext;
use tesc::persist::StoreOptions;
use tesc::serve::{Server, ServerConfig};
use tesc_datasets::dblp_like::{DblpConfig, DblpScenario};
use tesc_events::EventStore;
use tesc_repro::parse_byte_size;

const USAGE: &str = "\
tesc-serve — HTTP daemon for two-event structural correlation queries

USAGE:
  tesc-serve --demo [OPTIONS]
  tesc-serve --graph G.txt --events EVENTS.txt [OPTIONS]

DATA:
  --demo                 serve a built-in DBLP-like scenario (~2k nodes)
                         with planted `wireless`/`sensor` (attracting),
                         `texture`/`java` (repulsing) and `random` events
  --graph FILE           edge-list file (`num_nodes num_edges` header,
                         then one `u v` pair per line) or a `.tgraph`
                         container from `tesc-cli convert`
  --events FILE          named events file (`name v1,v2,...` per line)

OPTIONS:
  --listen ADDR          bind address          [default: 127.0.0.1:7878]
  --workers N            worker threads        [default: available cores]
  --queue N              connection backlog before 503   [default: 64]
  --max-body BYTES       request body cap      [default: 1M]
  --cache-budget SIZE    density-cache byte budget per snapshot
                         (e.g. 64M, 1G, inf)   [default: 64M]
  --h LEVEL              vicinity index depth  [default: 2]
  --seed N               demo-scenario RNG seed          [default: 42]
  --debug-endpoints      enable the test-only POST /sleep endpoint

DEADLINES:
  --default-deadline MS  deadline applied to query requests that do not
                         send their own `deadline_ms`  [default: none]
  --max-deadline MS      clamp client `deadline_ms` values to at most
                         this many milliseconds        [default: none]
  --read-timeout MS      slowloris guard: total time a client gets to
                         deliver one request (head + body)
                                                       [default: 5000]

DURABILITY:
  --data-dir DIR         persist ingestion to DIR (snapshots + WAL).
                         A non-empty DIR is recovered on boot and
                         --graph/--events/--demo are ignored; an empty
                         DIR is initialized from them. Every ingest is
                         fsync'd to the WAL before it is acknowledged.
  --snapshot-every N     checkpoint (snapshot + WAL rotation) after N
                         WAL records              [default: 1024]
  --access-log FILE      append one JSON line per request (ts_us,
                         endpoint, status, bytes, us, version)

Any other flag is rejected. The server prints `listening on ADDR`
once ready. Stop it with POST /shutdown (in-flight and queued
requests drain first).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The bare switches `tesc-serve` accepts.
const SWITCHES: &[&str] = &["demo", "debug-endpoints"];

/// The `--flag value` options `tesc-serve` accepts; any other flag is
/// an error, so a misspelled or removed option fails loudly instead of
/// silently running the default.
const OPTIONS: &[&str] = &[
    "graph",
    "events",
    "listen",
    "workers",
    "queue",
    "max-body",
    "cache-budget",
    "h",
    "seed",
    "default-deadline",
    "max-deadline",
    "read-timeout",
    "data-dir",
    "snapshot-every",
    "access-log",
];

/// Parse `--flag value` pairs (plus the bare [`SWITCHES`]).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
        if SWITCHES.contains(&name) {
            map.insert(name.to_string(), "on".to_string());
            i += 1;
            continue;
        }
        if !OPTIONS.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn get<'m>(flags: &'m HashMap<String, String>, key: &str, default: &'m str) -> &'m str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let h: u32 = get(&flags, "h", "2")
        .parse()
        .map_err(|_| "--h must be an integer ≥ 1".to_string())?;
    if h == 0 {
        return Err("--h must be ≥ 1".into());
    }
    let seed: u64 = get(&flags, "seed", "42")
        .parse()
        .map_err(|_| "--seed must be an integer".to_string())?;
    let cache_budget = parse_byte_size(get(&flags, "cache-budget", "64M"))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers: usize = match flags.get("workers") {
        None => cores,
        Some(w) => w
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or("--workers must be an integer ≥ 1")?,
    };
    let queue_depth: usize = match flags.get("queue") {
        None => 64,
        Some(q) => q
            .parse()
            .ok()
            .filter(|&q| q >= 1)
            .ok_or("--queue must be an integer ≥ 1")?,
    };
    let max_body_bytes = parse_byte_size(get(&flags, "max-body", "1M"))?
        .ok_or("--max-body must be a finite size")?;
    let snapshot_every: u64 = get(&flags, "snapshot-every", "1024")
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or("--snapshot-every must be an integer ≥ 1")?;
    let store_opts = StoreOptions {
        snapshot_every,
        ..StoreOptions::default()
    };
    let data_dir = flags.get("data-dir").map(PathBuf::from);

    // With a non-empty --data-dir, the persisted state wins and the
    // initial-state flags are ignored; an empty (or absent) directory
    // boots from --demo / --graph + --events as before.
    let recovered = match &data_dir {
        Some(dir) => TescContext::open_dir(dir, h, cores, store_opts)
            .map_err(|e| format!("recovering {}: {e}", dir.display()))?,
        None => None,
    };
    let ctx = match recovered {
        Some(ctx) => {
            let snap = ctx.snapshot();
            eprintln!(
                "recovered version {} from {}: {} nodes, {} edges, {} events",
                snap.version(),
                data_dir.as_deref().unwrap_or(Path::new("?")).display(),
                snap.graph().num_nodes(),
                snap.graph().num_edges(),
                snap.events().num_events(),
            );
            ctx.with_cache_budget(cache_budget)
        }
        None => {
            let (graph, events) = if flags.contains_key("demo") {
                demo_scenario(seed)
            } else {
                let graph_path = flags
                    .get("graph")
                    .ok_or("pass --demo, or --graph and --events")?;
                let events_path = flags
                    .get("events")
                    .ok_or("pass --demo, or --graph and --events")?;
                let graph = tesc_repro::load_csr(graph_path)?;
                let events = tesc_events::io::read_named_events(&mut open(events_path)?)
                    .map_err(|e| format!("reading {events_path}: {e}"))?;
                (graph, events)
            };
            eprintln!(
                "graph: {} nodes, {} edges; {} events; building |V^h_v| index (h = {h}, {cores} threads)...",
                graph.num_nodes(),
                graph.num_edges(),
                events.num_events(),
            );
            let ctx = TescContext::try_with_threads(graph, events, h, cores)
                .map_err(|e| format!("invalid initial state: {e}"))?
                .with_cache_budget(cache_budget);
            match &data_dir {
                Some(dir) => ctx
                    .with_durability(dir, store_opts)
                    .map_err(|e| format!("initializing {}: {e}", dir.display()))?,
                None => ctx,
            }
        }
    };

    let parse_ms = |key: &str| -> Result<Option<std::time::Duration>, String> {
        match flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms >= 1)
                .map(|ms| Some(std::time::Duration::from_millis(ms)))
                .ok_or(format!("--{key} must be an integer ≥ 1 (milliseconds)")),
        }
    };
    let default_deadline = parse_ms("default-deadline")?;
    let max_deadline = parse_ms("max-deadline")?;
    let max_request_read =
        parse_ms("read-timeout")?.unwrap_or(std::time::Duration::from_millis(5000));

    let cfg = ServerConfig {
        addr: get(&flags, "listen", "127.0.0.1:7878").to_string(),
        workers,
        queue_depth,
        max_body_bytes,
        debug_endpoints: flags.contains_key("debug-endpoints"),
        access_log: flags.get("access-log").map(PathBuf::from),
        default_deadline,
        max_deadline,
        max_request_read,
    };
    let server = Server::spawn(ctx, cfg).map_err(|e| format!("binding listener: {e}"))?;
    // Scripts (and the integration suite) key on this exact line to
    // discover the ephemeral port — keep it stable.
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    eprintln!("shut down cleanly");
    Ok(())
}

fn open(path: &str) -> Result<std::io::BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(std::io::BufReader::new)
        .map_err(|e| format!("opening {path}: {e}"))
}

/// The built-in scenario: a small DBLP-like co-author graph with one
/// attracting pair, one repulsing pair and one independent keyword —
/// enough to exercise every endpoint out of the box.
fn demo_scenario(seed: u64) -> (tesc_graph::CsrGraph, EventStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = DblpScenario::build(DblpConfig::small(), &mut rng);
    let (wireless, sensor) = scenario.plant_positive_keyword_pair(6, 10, 0.3, &mut rng);
    let (texture, java) = scenario.plant_negative_keyword_pair(5, 10, 2, &mut rng);
    let random = scenario.plant_uniform_keyword(60, &mut rng);
    let mut events = EventStore::new();
    events.add_event("wireless", wireless);
    events.add_event("sensor", sensor);
    events.add_event("texture", texture);
    events.add_event("java", java);
    events.add_event("random", random);
    (scenario.graph, events)
}
