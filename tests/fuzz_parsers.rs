//! Seeded mutation fuzzing of every parser that faces untrusted
//! bytes: the HTTP request reader, the JSON codec, and the
//! persistence decoders (WAL segment scan, snapshot decode, and the
//! `.tgraph` compressed-graph container).
//!
//! Each corpus starts from valid seeds and applies 128 deterministic
//! mutations per seed — truncations, byte flips, random splices,
//! header splits, depth bombs — and asserts the uniform robustness
//! contract: **no panic, no abort, only clean typed errors** (for the
//! HTTP layer: only 4xx statuses or connection-level conditions).
//! The same harness doubles as the decoder fuzz entry for the
//! crash-safety suite: a WAL or snapshot decoder that panics on
//! garbage would turn a torn tail into a crash loop at boot.

use std::io::BufReader;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::persist::snapshot::{decode_snapshot, encode_snapshot};
use tesc::persist::wal::{encode_record, scan_segment, WAL_MAGIC};
use tesc::persist::WalRecord;
use tesc::serve::http::{read_request, HttpError};
use tesc::serve::json::Json;
use tesc_events::EventStore;
use tesc_graph::generators::grid;

const CASES_PER_SEED: u64 = 128;

/// Mutate `seed` deterministically: truncate, flip bytes, splice
/// random bytes, or duplicate a chunk.
fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            // Truncate at a random point.
            let k = rng.gen_range(0..=out.len());
            out.truncate(k);
        }
        1 => {
            // Flip 1–4 random bytes.
            for _ in 0..rng.gen_range(1..=4usize) {
                if out.is_empty() {
                    break;
                }
                let k = rng.gen_range(0..out.len());
                out[k] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        2 => {
            // Splice a short run of random bytes at a random offset.
            let at = rng.gen_range(0..=out.len());
            let run: Vec<u8> = (0..rng.gen_range(1..16usize))
                .map(|_| rng.gen_range(0..=255u32) as u8)
                .collect();
            out.splice(at..at, run);
        }
        _ => {
            // Duplicate a chunk somewhere else (reordered frames).
            if !out.is_empty() {
                let start = rng.gen_range(0..out.len());
                let end = rng.gen_range(start..out.len().min(start + 64));
                let chunk = out[start..=end.min(out.len() - 1)].to_vec();
                let at = rng.gen_range(0..=out.len());
                out.splice(at..at, chunk);
            }
        }
    }
    out
}

// --- HTTP request parser -------------------------------------------------

fn http_seeds() -> Vec<Vec<u8>> {
    vec![
        b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
        b"POST /test HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 24\r\n\r\n{\"a\":\"alpha\",\"b\":\"beta\"}".to_vec(),
        b"POST /commit HTTP/1.1\r\nAccept: application/json\r\nContent-Length: 0\r\n\r\n".to_vec(),
        b"POST /rank HTTP/1.0\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
    ]
}

/// The only acceptable parse outcomes: a request, or an error mapping
/// to a 4xx (or a connection-level condition with no status at all).
fn assert_http_contract(bytes: &[u8], case: &str) {
    let mut reader = BufReader::new(bytes);
    match read_request(&mut reader, 1 << 20, std::time::Duration::from_secs(5)) {
        Ok(_) => {}
        Err(e) => {
            if let Some((status, _)) = e.status() {
                assert!(
                    (400..500).contains(&status),
                    "{case}: parser answered {status}, not a 4xx"
                );
            } else {
                assert!(
                    matches!(
                        e,
                        HttpError::ConnectionClosed | HttpError::IdleTimeout | HttpError::Io(_)
                    ),
                    "{case}: status-less error must be connection-level"
                );
            }
        }
    }
}

#[test]
fn http_parser_survives_mutation_fuzzing() {
    for (s, seed) in http_seeds().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x11EAD ^ s as u64);
        for case in 0..CASES_PER_SEED {
            let mutated = mutate(seed, &mut rng);
            assert_http_contract(&mutated, &format!("http seed {s} case {case}"));
        }
    }
}

#[test]
fn http_parser_survives_header_splits_and_head_bombs() {
    // Header splits: inject CRLFs at every position of a valid head.
    let seed =
        b"POST /test HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
    for at in 0..seed.len() {
        let mut split = seed[..at].to_vec();
        split.extend_from_slice(b"\r\n");
        split.extend_from_slice(&seed[at..]);
        assert_http_contract(&split, &format!("header split at {at}"));
    }
    // An endless header section must die at the head cap, not OOM.
    let mut bomb = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..4000 {
        bomb.extend_from_slice(format!("X-{i}: y\r\n").as_bytes());
    }
    assert_http_contract(&bomb, "header bomb");
    // A single unterminated line longer than the cap.
    let mut line = b"GET / HTTP/1.1\r\nX: ".to_vec();
    line.extend(std::iter::repeat_n(b'a', 64 * 1024));
    assert_http_contract(&line, "oversized header line");
}

// --- JSON codec ----------------------------------------------------------

fn json_seeds() -> Vec<String> {
    vec![
        r#"{"edges":[[0,7],[1,8]],"seed":42}"#.to_string(),
        r#"{"name":"alpha","nodes":[1,2,3],"nested":{"a":[true,false,null]}}"#.to_string(),
        r#"[1,-2.5e10,"é\n\"x\"",{},[]]"#.to_string(),
    ]
}

#[test]
fn json_parser_survives_mutation_fuzzing() {
    for (s, seed) in json_seeds().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x750_u64.wrapping_add(s as u64));
        for _case in 0..CASES_PER_SEED {
            let mutated = mutate(seed.as_bytes(), &mut rng);
            // Mutations may break UTF-8; the HTTP layer hands the
            // codec strings, so fuzz through a lossy conversion.
            let text = String::from_utf8_lossy(&mutated);
            let _ = Json::parse(&text); // must return, never panic
        }
    }
}

#[test]
fn json_parser_rejects_depth_bombs_without_overflowing() {
    // Deep nesting must be answered with an error, not a stack
    // overflow (an overflow aborts the process — the test would not
    // fail, it would die).
    for bomb in [
        "[".repeat(100_000),
        "{\"a\":".repeat(50_000),
        format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000)),
    ] {
        assert!(
            Json::parse(&bomb).is_err(),
            "depth bomb must be rejected cleanly"
        );
    }
}

// --- Persistence decoders ------------------------------------------------

fn wal_seed() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(WAL_MAGIC);
    bytes.extend_from_slice(&7u64.to_le_bytes());
    for (seq, rec) in [
        (
            8u64,
            WalRecord::AddEdges {
                edges: vec![(0, 7), (1, 8)],
            },
        ),
        (
            9,
            WalRecord::AddEvent {
                name: "alpha".into(),
                nodes: vec![3, 4, 5],
            },
        ),
        (
            10,
            WalRecord::AddOccurrences {
                event: 0,
                nodes: vec![20, 21],
            },
        ),
    ] {
        bytes.extend_from_slice(&encode_record(seq, &rec));
    }
    bytes
}

#[test]
fn wal_scan_survives_mutation_fuzzing() {
    let seed = wal_seed();
    let mut rng = StdRng::seed_from_u64(0x3A1);
    for _case in 0..4 * CASES_PER_SEED {
        let mutated = mutate(&seed, &mut rng);
        // Must return — Ok with a clean record prefix, or a typed
        // header error — never panic or over-allocate.
        let _ = scan_segment(&mutated);
    }
}

/// A first-generation (`TGRAPH01`, FNV header fingerprint) container
/// of the 9-node graph with edges 0–3, 1–3, 3–8 and 2–7, written by
/// the v01 encoder and kept byte for byte.
const TGRAPH_V01: [u8; 85] = [
    84, 71, 82, 65, 80, 72, 48, 49, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 180, 107, 54,
    30, 143, 127, 75, 237, 0, 0, 0, 0, 0, 0, 0, 0, 213, 116, 236, 13, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1,
    1, 1, 0, 0, 0, 0, 0, 98, 216, 243, 80, 8, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 3, 4, 3, 4, 192,
    163, 88, 127,
];

#[test]
fn tgraph_decode_survives_mutation_fuzzing() {
    use tesc_graph::csr::from_edges;
    use tesc_graph::{decode_tgraph, encode_tgraph, CompressedCsr, NodeId};
    let graph = grid(7, 5);
    let compressed = CompressedCsr::from_graph(&graph);
    let order: Vec<NodeId> = (0..graph.num_nodes() as NodeId).rev().collect();
    let legacy = CompressedCsr::from_graph(&from_edges(9, &[(0, 3), (1, 3), (3, 8), (2, 7)]));
    // Fuzz every container shape: v02 bare and with the optional
    // legacy node-order section, and a v01 file.
    for (s, (seed, expect)) in [
        (encode_tgraph(&compressed, None), &compressed),
        (encode_tgraph(&compressed, Some(&order)), &compressed),
        (TGRAPH_V01.to_vec(), &legacy),
    ]
    .iter()
    .enumerate()
    {
        assert_eq!(&decode_tgraph(seed).expect("seed decodes").graph, *expect);
        let mut rng = StdRng::seed_from_u64(0x7064 ^ s as u64);
        for _case in 0..4 * CASES_PER_SEED {
            let mutated = mutate(seed, &mut rng);
            // Typed error or a faithful decode — never a panic. The
            // section CRCs plus the structural fingerprint make an
            // accepted mutant decode to the seed graph.
            if let Ok(t) = decode_tgraph(&mutated) {
                assert_eq!(&t.graph, *expect);
            }
        }
        // Every truncation point, exhaustively.
        for k in 0..seed.len() {
            assert!(
                decode_tgraph(&seed[..k]).is_err(),
                "tgraph shape {s} truncated at {k} must not decode"
            );
        }
    }
}

#[test]
fn snapshot_decode_survives_mutation_fuzzing() {
    let mut events = EventStore::new();
    events.add_event("alpha", (0..12).collect());
    events.add_event("beta", vec![20, 21, 22]);
    let seed = encode_snapshot(9, &grid(6, 6), &events);
    let mut rng = StdRng::seed_from_u64(0x54A9);
    for _case in 0..4 * CASES_PER_SEED {
        let mutated = mutate(&seed, &mut rng);
        if let Ok((version, graph, events)) = decode_snapshot(&mutated) {
            // The CRC makes accidental acceptance of a mutated image
            // effectively impossible; anything accepted must decode
            // back to the seed's content.
            assert_eq!(version, 9);
            assert_eq!(graph.num_edges(), grid(6, 6).num_edges());
            assert_eq!(events.num_events(), 2);
        }
    }
}
