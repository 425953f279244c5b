//! Fault-injected crash-recovery equivalence suite for `tesc::persist`.
//!
//! The durability contract under test: every ingest is appended and
//! fsync'd to the WAL *before* its snapshot is published, so for any
//! crash point the on-disk state is a clean prefix of the commit
//! history. These tests make that literal — they run a deterministic
//! ingestion script twice (once durable, once purely in memory,
//! recording a fingerprint per version), then corrupt copies of the
//! data directory at every byte offset (truncation, bit flips, torn
//! sector writes) and assert the recovered context is bit-identical
//! to the never-crashed context at the recovered version:
//!
//! * truncating the WAL at byte `k` recovers exactly the record
//!   prefix that fits in `k` bytes — never a panic, never a
//!   partial application;
//! * flipping any single bit stops replay at the damaged frame with
//!   every earlier record intact;
//! * a corrupted newest snapshot falls back to the previous valid
//!   one plus a longer WAL replay, reaching the same final state;
//! * recovery is read-only and idempotent — recovering twice (or
//!   crashing between recovery and the first new commit) changes
//!   nothing;
//! * random interleavings of commits, checkpoint rotations and crash
//!   points (seeded) always recover onto the golden fingerprint
//!   timeline, and the recovered context accepts further commits.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tesc::context::{Snapshot, TescContext};
use tesc::persist::{corrupt_file, scan_segment_file, Fault, StoreOptions};
use tesc_events::EventStore;
use tesc_graph::generators::grid;
use tesc_graph::NodeId;

/// A fresh scratch directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "tesc-recovery-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Copy every regular file in `src` into a fresh directory.
fn copy_dir(src: &Path, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    for entry in std::fs::read_dir(src).expect("read src dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
        }
    }
    dst
}

/// Paths of the WAL segments in `dir`, ascending by base version.
fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tlog"))
        .collect();
    segs.sort();
    segs
}

/// Paths of the snapshots in `dir`, ascending by version.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tsnap"))
        .collect();
    snaps.sort();
    snaps
}

/// One step of the deterministic ingestion script.
enum Op {
    Edges(Vec<(NodeId, NodeId)>),
    Event(&'static str, Vec<NodeId>),
    Occurrences(&'static str, Vec<NodeId>),
}

/// Apply one op through the public writer API.
fn apply(ctx: &TescContext, op: &Op) -> Arc<Snapshot> {
    match op {
        Op::Edges(edges) => ctx.add_edges(edges).expect("add_edges"),
        Op::Event(name, nodes) => ctx.add_event(*name, nodes.clone()).expect("add_event").1,
        Op::Occurrences(name, nodes) => {
            let id = ctx
                .snapshot()
                .events()
                .id_by_name(name)
                .expect("event registered earlier in the script");
            ctx.add_event_occurrences(id, nodes)
                .expect("add_event_occurrences")
        }
    }
}

/// The base state: a 6×6 grid with one pre-registered event.
fn base_state() -> (tesc_graph::CsrGraph, EventStore) {
    let mut events = EventStore::new();
    events.add_event("seeded", (0..12).collect());
    (grid(6, 6), events)
}

/// A 12-commit script over the 6×6 grid (36 nodes; diagonals like
/// `(u, u + 7)` are not grid edges, so every edge delta is new).
fn script() -> Vec<Op> {
    vec![
        Op::Edges(vec![(0, 7), (1, 8)]),
        Op::Event("alpha", vec![3, 4, 5, 9, 10]),
        Op::Occurrences("seeded", vec![20, 21, 22]),
        Op::Edges(vec![(2, 9), (14, 21)]),
        Op::Event("beta", vec![30, 31, 32, 33]),
        Op::Occurrences("alpha", vec![11, 15, 16]),
        Op::Edges(vec![(15, 22), (16, 23), (3, 10)]),
        Op::Occurrences("beta", vec![24, 25]),
        Op::Event("gamma", vec![0, 6, 12, 18]),
        Op::Edges(vec![(4, 11)]),
        Op::Occurrences("gamma", vec![24, 30]),
        Op::Edges(vec![(17, 24), (5, 12)]),
    ]
}

/// Fingerprint-per-version timeline from a never-crashed, purely
/// in-memory run of `ops`. A context's first snapshot is version 1,
/// so `golden[i]` is the fingerprint at version `1 + i`; index with
/// [`fp_at`].
fn golden_timeline(ops: &[Op]) -> Vec<u64> {
    let (graph, events) = base_state();
    let ctx = TescContext::new(graph, events, 1);
    let mut golden = vec![ctx.snapshot().fingerprint()];
    for op in ops {
        golden.push(apply(&ctx, op).fingerprint());
    }
    golden
}

/// The never-crashed fingerprint at `version` (versions start at 1).
fn fp_at(golden: &[u64], version: u64) -> u64 {
    golden[(version - 1) as usize]
}

/// Run the script durably into a fresh data directory and return it.
fn durable_run(ops: &[Op], options: StoreOptions, tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let (graph, events) = base_state();
    let ctx = TescContext::new(graph, events, 1)
        .with_durability(&dir, options)
        .expect("attach durability");
    for op in ops {
        apply(&ctx, op);
    }
    dir
}

fn single_segment_options() -> StoreOptions {
    StoreOptions {
        snapshot_every: 10_000, // never auto-checkpoint: one WAL segment
        ..StoreOptions::default()
    }
}

/// Recover `dir` and return `(version, fingerprint)`.
fn recover(dir: &Path) -> (u64, u64) {
    let ctx = TescContext::open_dir(dir, 1, 1, StoreOptions::default())
        .expect("recovery must not error")
        .expect("directory holds data");
    let snap = ctx.snapshot();
    (snap.version(), snap.fingerprint())
}

#[test]
fn every_wal_truncation_point_recovers_the_clean_prefix() {
    let ops = script();
    let golden = golden_timeline(&ops);
    let dir = durable_run(&ops, single_segment_options(), "trunc-src");

    let segments = wal_segments(&dir);
    assert_eq!(segments.len(), 1, "script must fit one segment");
    let wal = &segments[0];
    let scan = scan_segment_file(wal).expect("scan intact segment");
    assert_eq!(scan.ends.len(), ops.len(), "one WAL record per commit");
    let len = std::fs::metadata(wal).expect("wal metadata").len();
    assert_eq!(len, *scan.ends.last().unwrap(), "intact file is clean");

    for k in 0..=len {
        let crash = copy_dir(&dir, "trunc");
        corrupt_file(&crash.join(wal.file_name().unwrap()), Fault::CrashAt(k))
            .expect("truncate wal");
        let (version, fingerprint) = recover(&crash);
        // Exactly the records whose frames fit in `k` bytes survive
        // (on top of the version-1 base snapshot).
        let expect = 1 + scan.ends.iter().filter(|&&e| e <= k).count() as u64;
        assert_eq!(version, expect, "crash at byte {k}");
        assert_eq!(
            fingerprint,
            fp_at(&golden, version),
            "crash at byte {k}: recovered v{version} must be bit-identical to never-crashed"
        );
        std::fs::remove_dir_all(&crash).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_wal_bit_flip_stops_replay_at_the_damaged_frame() {
    let ops = script();
    let golden = golden_timeline(&ops);
    let dir = durable_run(&ops, single_segment_options(), "flip-src");

    let wal = wal_segments(&dir).remove(0);
    let scan = scan_segment_file(&wal).expect("scan intact segment");
    let len = std::fs::metadata(&wal).expect("wal metadata").len();

    for k in 0..len {
        let crash = copy_dir(&dir, "flip");
        corrupt_file(&crash.join(wal.file_name().unwrap()), Fault::BitFlip(k, 3))
            .expect("flip bit");
        let (version, fingerprint) = recover(&crash);
        // The flip damages the frame containing byte `k` (or the
        // segment header, for k < 16); every earlier record is intact
        // and replay stops cleanly before the damage.
        let expect = 1 + scan.ends.iter().filter(|&&e| e <= k).count() as u64;
        assert_eq!(version, expect, "bit flip at byte {k}");
        assert_eq!(
            fingerprint,
            fp_at(&golden, version),
            "bit flip at byte {k}: recovered v{version} diverges from never-crashed"
        );
        std::fs::remove_dir_all(&crash).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_newest_snapshot_falls_back_to_previous_plus_longer_replay() {
    let ops = script();
    let golden = golden_timeline(&ops);
    let final_version = ops.len() as u64 + 1;

    // Checkpoint mid-script so the directory holds two snapshots
    // (initial v0 + forced) and two segments.
    let dir = temp_dir("fallback-src");
    let (graph, events) = base_state();
    let ctx = TescContext::new(graph, events, 1)
        .with_durability(&dir, single_segment_options())
        .expect("attach durability");
    for (i, op) in ops.iter().enumerate() {
        apply(&ctx, op);
        if i == 6 {
            assert!(ctx.checkpoint().expect("forced checkpoint"));
        }
    }
    drop(ctx);
    let snaps = snapshot_files(&dir);
    assert_eq!(snaps.len(), 2, "initial + forced checkpoint");

    // Intact directory recovers to the final version first.
    let (v, f) = recover(&dir);
    assert_eq!((v, f), (final_version, fp_at(&golden, final_version)));

    // Newest snapshot torn mid-file → fall back to snapshot v0 and
    // replay both segments end to end; same final state.
    for fault in [Fault::TearAt(40), Fault::BitFlip(100, 5), Fault::CrashAt(9)] {
        let crash = copy_dir(&dir, "fallback");
        corrupt_file(&crash.join(snaps[1].file_name().unwrap()), fault)
            .expect("corrupt newest snapshot");
        let (v, f) = recover(&crash);
        assert_eq!(
            (v, f),
            (final_version, fp_at(&golden, final_version)),
            "{fault:?} on the newest snapshot must fall back, not diverge"
        );
        std::fs::remove_dir_all(&crash).ok();
    }

    // Every snapshot corrupted → a clean hard error, not a panic and
    // not a silently empty context.
    let crash = copy_dir(&dir, "all-bad");
    for snap in snapshot_files(&crash) {
        corrupt_file(&snap, Fault::BitFlip(20, 1)).expect("corrupt snapshot");
    }
    let err = TescContext::open_dir(&crash, 1, 1, StoreOptions::default());
    assert!(
        err.is_err(),
        "recovery with no valid snapshot must surface an error"
    );
    std::fs::remove_dir_all(&crash).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_idempotent_and_survives_a_crash_during_cleanup() {
    let ops = script();
    let golden = golden_timeline(&ops);
    let dir = durable_run(&ops, single_segment_options(), "idem-src");

    // Tear the WAL tail mid-record so recovery has cleanup to do:
    // 8 clean records on top of the version-1 base → version 9.
    let wal = wal_segments(&dir).remove(0);
    let scan = scan_segment_file(&wal).expect("scan");
    let mid_record = (scan.ends[7] + scan.ends[8]) / 2;
    corrupt_file(&wal, Fault::CrashAt(mid_record)).expect("tear tail");

    // First recovery truncates the torn tail at attach time …
    let (v1, f1) = recover(&dir);
    assert_eq!((v1, f1), (9, fp_at(&golden, 9)));
    // … and a second recovery of the now-cleaned directory agrees.
    let (v2, f2) = recover(&dir);
    assert_eq!((v1, f1), (v2, f2), "double recovery must be a no-op");

    // A crash *between* recovery and the first new commit (simulated
    // by attach + drop with no writes) changes nothing either.
    let (v3, f3) = recover(&dir);
    assert_eq!((v1, f1), (v3, f3));

    // The recovered context keeps working: further commits append to
    // the truncated WAL and land on the golden timeline.
    let ctx = TescContext::open_dir(&dir, 1, 1, StoreOptions::default())
        .expect("recover")
        .expect("has data");
    apply(&ctx, &ops[8]);
    assert_eq!(ctx.snapshot().fingerprint(), fp_at(&golden, 10));
    drop(ctx);
    let (v4, f4) = recover(&dir);
    assert_eq!((v4, f4), (10, fp_at(&golden, 10)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Draw a random (but valid w.r.t. the current state) writer op.
fn random_op(rng: &mut StdRng, snap: &Snapshot, next_event: &mut u32) -> Op {
    let num_nodes = snap.graph().num_nodes() as NodeId;
    match rng.gen_range(0..3u32) {
        0 => {
            // A handful of random candidate edges; `add_edges` ignores
            // duplicates, and an all-duplicate delta would not bump the
            // version, so keep drawing until one edge is genuinely new.
            loop {
                let u = rng.gen_range(0..num_nodes - 1);
                let v = rng.gen_range(u + 1..num_nodes);
                if !snap.graph().has_edge(u, v) {
                    return Op::Edges(vec![(u, v)]);
                }
            }
        }
        1 => {
            let names: &[&'static str] = &[
                "ev-a", "ev-b", "ev-c", "ev-d", "ev-e", "ev-f", "ev-g", "ev-h",
            ];
            let name = names[(*next_event as usize).min(names.len() - 1)];
            *next_event += 1;
            let nodes: Vec<NodeId> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(0..num_nodes))
                .collect();
            if snap.events().id_by_name(name).is_some() {
                Op::Occurrences(name, nodes)
            } else {
                Op::Event(name, nodes)
            }
        }
        _ => {
            let nodes: Vec<NodeId> = (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(0..num_nodes))
                .collect();
            Op::Occurrences("seeded", nodes)
        }
    }
}

#[test]
fn random_interleavings_of_commits_rotations_and_crashes_recover_exactly() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
        // Small snapshot_every so automatic checkpoint rotation
        // interleaves with the commits themselves.
        let options = StoreOptions {
            snapshot_every: rng.gen_range(2..5),
            ..StoreOptions::default()
        };
        let dir = temp_dir(&format!("interleave-{seed}"));
        let (graph, events) = base_state();
        let ctx = TescContext::new(graph, events, 1)
            .with_durability(&dir, options)
            .expect("attach durability");

        let mut golden = vec![ctx.snapshot().fingerprint()];
        let mut next_event = 0u32;
        for _ in 0..rng.gen_range(8..16) {
            let op = random_op(&mut rng, &ctx.snapshot(), &mut next_event);
            golden.push(apply(&ctx, &op).fingerprint());
            if rng.gen_bool(0.15) {
                ctx.checkpoint().expect("forced checkpoint");
            }
        }
        let final_version = golden.len() as u64; // versions start at 1
        drop(ctx);

        // Crash points: truncate the *active* (highest-base) segment
        // at random offsets, sometimes tearing the newest snapshot too.
        let active = wal_segments(&dir).pop().expect("active segment");
        let active_len = std::fs::metadata(&active).expect("meta").len();
        for _ in 0..8 {
            let crash = copy_dir(&dir, &format!("interleave-{seed}-crash"));
            let k = rng.gen_range(0..=active_len);
            corrupt_file(&crash.join(active.file_name().unwrap()), Fault::CrashAt(k))
                .expect("truncate active segment");
            let snaps = snapshot_files(&crash);
            if snaps.len() > 1 && rng.gen_bool(0.4) {
                let newest = snaps.last().unwrap();
                let len = std::fs::metadata(newest).expect("meta").len();
                corrupt_file(newest, Fault::TearAt(rng.gen_range(0..len)))
                    .expect("tear newest snapshot");
            }
            let (version, fingerprint) = recover(&crash);
            assert!(
                version <= final_version,
                "seed {seed}: recovered v{version} past the commit history"
            );
            assert_eq!(
                fingerprint,
                fp_at(&golden, version),
                "seed {seed}: recovered v{version} diverges from never-crashed"
            );
            std::fs::remove_dir_all(&crash).ok();
        }

        // The uncorrupted directory recovers the full history.
        let (v, f) = recover(&dir);
        assert_eq!((v, f), (final_version, fp_at(&golden, final_version)));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn wal_tail_of_edge_records_replays_onto_the_live_fingerprint() {
    // Replay applies `AddEdges` through the same CSR splice the live
    // writer uses. A tail of several such records — new edges, deltas
    // the writer trimmed of present and repeated edges, several arcs
    // on one row, node 0 and node n−1 — must land on the fingerprint
    // the live context had, record by record.
    use tesc::persist::wal::{WalRecord, WalWriter};

    let dir = temp_dir("edge-tail");
    let (graph, events) = base_state();
    let live = TescContext::new(graph, events, 2)
        .with_durability(&dir, single_segment_options())
        .expect("attach durability");
    let deltas: [&[(NodeId, NodeId)]; 3] = [
        &[(0, 7), (1, 8)],
        &[(7, 0), (8, 1), (2, 9), (9, 2), (2, 9)],
        &[(0, 14), (0, 21), (35, 0), (35, 28), (0, 1)],
    ];
    for delta in deltas {
        live.add_edges(delta).expect("add_edges");
    }
    assert_eq!(live.version(), 4);

    // The writer never logs a delta without a new edge, but replay
    // must still take one (a no-op splice that bumps the version).
    // Hand-append it, and one more real delta behind it; the live
    // context reaches the same two versions with an empty occurrence
    // delta (publishes, changes nothing) and the same real delta.
    let seeded = live.snapshot().events().id_by_name("seeded").unwrap();
    live.add_event_occurrences(seeded, &[])
        .expect("empty delta");
    live.add_edges(&[(3, 10), (35, 28)]).expect("add_edges");
    let expected = live.snapshot();
    assert_eq!(expected.version(), 6);

    let crash = copy_dir(&dir, "edge-tail-crash");
    let segment = wal_segments(&crash).pop().expect("one segment");
    let scan = scan_segment_file(&segment).expect("scan");
    assert_eq!(scan.records.len(), 5);
    // Rewind to the three edge commits and write the hand-made tail.
    let mut wal = WalWriter::reopen(&segment, scan.ends[2], 3, true).expect("reopen");
    let all_present = WalRecord::AddEdges {
        edges: vec![(0, 7), (1, 8), (2, 9), (0, 35), (0, 7)],
    };
    wal.append(5, &all_present).expect("append");
    let real = WalRecord::AddEdges {
        edges: vec![(3, 10)],
    };
    wal.append(6, &real).expect("append");
    drop(wal);

    let recovered = TescContext::open_dir(&crash, 2, 1, StoreOptions::default())
        .expect("recovery must not error")
        .expect("directory holds data");
    let snap = recovered.snapshot();
    assert_eq!(snap.version(), 6);
    assert_eq!(snap.graph(), expected.graph());
    assert_eq!(snap.fingerprint(), expected.fingerprint());
    assert_eq!(snap.vicinity(), expected.vicinity());
    // And the untouched directory recovers the live context as is.
    assert_eq!(recover(&dir), (6, expected.fingerprint()));

    std::fs::remove_dir_all(&crash).ok();
    std::fs::remove_dir_all(&dir).ok();
}
