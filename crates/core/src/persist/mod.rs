//! Crash-safe persistence: versioned snapshots + an ingestion WAL.
//!
//! A [`Store`] manages one data directory holding two kinds of files:
//!
//! * `snapshot-<version:016x>.tsnap` — a checksummed image of the
//!   durable half of a context version (CSR graph + event store; see
//!   [`snapshot`]). Derived state — vicinity index, density cache —
//!   is rebuilt on load.
//! * `wal-<base_version:016x>.tlog` — the write-ahead log of writer
//!   mutations since that base version, one CRC-framed record per
//!   published version (see [`wal`]).
//!
//! **Durability contract.** The writer path appends and fsyncs the
//! WAL record *before* publishing the version it produces, so every
//! version a reader ever observed survives a crash. Checkpoints
//! (snapshot + WAL rotation) happen synchronously on the writer path
//! every [`StoreOptions::snapshot_every`] records; the WAL covers
//! everything between checkpoints, so a crash mid-checkpoint loses
//! nothing either.
//!
//! **Recovery** ([`Store::recover`]) is read-only and idempotent:
//! load the newest snapshot that passes its CRC (falling back to
//! older ones when the newest is corrupt), then replay the WAL tail
//! in sequence order. A torn or bit-flipped record — and everything
//! after it — is discarded, never partially applied. The returned
//! [`Recovery`] carries an [`AttachPlan`] describing the cleanup
//! (truncate the torn tail, delete unusable files) that
//! [`crate::context::TescContext::with_durability`] applies when it
//! re-opens the directory for writing.

pub mod codec;
pub mod crc;
pub mod failpoint;
pub mod snapshot;
pub mod wal;

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use tesc_events::{EventId, EventStore};
use tesc_graph::CsrGraph;

use snapshot::{decode_snapshot, encode_snapshot};
pub use wal::WalRecord;
use wal::{
    parse_segment_file_name, scan_segment, segment_file_name, SegmentScan, WalWriter,
    WAL_HEADER_LEN,
};

/// Failure modes of opening, recovering or writing a [`Store`].
#[derive(Debug)]
pub enum PersistError {
    /// An I/O operation on `path` failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error, stringified.
        message: String,
    },
    /// Snapshot files exist but none decodes cleanly — with the base
    /// image gone the WAL alone cannot reconstruct the state.
    NoValidSnapshot {
        /// How many snapshot files were tried.
        tried: usize,
    },
    /// The directory holds state for a different context than the one
    /// attaching to it (version or fingerprint disagreement).
    StateMismatch {
        /// Version recovered from disk.
        disk_version: u64,
        /// Version of the attaching context.
        ctx_version: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, message } => {
                write!(f, "persistence I/O error on {}: {message}", path.display())
            }
            PersistError::NoValidSnapshot { tried } => {
                write!(f, "no valid snapshot among {tried} candidate file(s)")
            }
            PersistError::StateMismatch {
                disk_version,
                ctx_version,
            } => write!(
                f,
                "data directory holds version {disk_version} of a different context \
                 (attaching context is at version {ctx_version})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(path: &Path, e: impl std::fmt::Display) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Tuning knobs of a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Checkpoint (snapshot + WAL rotation) after this many WAL
    /// records. Lower = faster recovery, more snapshot I/O.
    pub snapshot_every: u64,
    /// Fsync every WAL append and snapshot before acknowledging.
    /// Turning this off trades the crash-durability guarantee for
    /// throughput (data still survives clean restarts).
    pub fsync: bool,
    /// Snapshots retained after a checkpoint (≥ 1). Keeping more than
    /// one lets recovery fall back past a corrupted newest snapshot.
    pub keep_snapshots: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            snapshot_every: 1024,
            fsync: true,
            keep_snapshots: 2,
        }
    }
}

/// File name of the snapshot at `version`.
pub fn snapshot_file_name(version: u64) -> String {
    format!("snapshot-{version:016x}.tsnap")
}

/// Parse a `snapshot-<hex>.tsnap` file name back into its version.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".tsnap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The segment to keep appending to after recovery, truncated to its
/// clean record prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSegment {
    /// Segment file path.
    pub path: PathBuf,
    /// Byte length of the usable prefix (everything past it is torn).
    pub clean_len: u64,
    /// Whole records within that prefix.
    pub records: u64,
}

/// Cleanup a recovery determined to be necessary. [`Store::recover`]
/// only *computes* the plan; attaching applies it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttachPlan {
    /// Files that are corrupt or unreachable past a corruption point.
    pub delete: Vec<PathBuf>,
    /// The WAL segment to reopen for appends (`None`: start a fresh
    /// segment at the recovered version).
    pub active: Option<ActiveSegment>,
}

/// The state reconstructed by [`Store::recover`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered context version.
    pub version: u64,
    /// Version of the snapshot the replay started from.
    pub snapshot_version: u64,
    /// The recovered graph.
    pub graph: CsrGraph,
    /// The recovered event store.
    pub events: EventStore,
    /// Snapshot files that failed validation and were skipped over.
    pub snapshots_skipped: usize,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Cleanup to apply when re-opening the directory for writing.
    pub plan: AttachPlan,
}

/// Handle on a persistence directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    options: StoreOptions,
}

impl Store {
    /// Open (creating if needed) the data directory at `dir`.
    pub fn open(dir: &Path, options: StoreOptions) -> Result<Self, PersistError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            options,
        })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    fn list(
        &self,
        parse: impl Fn(&str) -> Option<u64>,
    ) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            if let Some(v) = entry.file_name().to_str().and_then(&parse) {
                out.push((v, entry.path()));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Snapshot files as `(version, path)`, ascending by version.
    pub fn list_snapshots(&self) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        self.list(parse_snapshot_file_name)
    }

    /// WAL segment files as `(base_version, path)`, ascending by base.
    pub fn list_segments(&self) -> Result<Vec<(u64, PathBuf)>, PersistError> {
        self.list(parse_segment_file_name)
    }

    /// Write the snapshot for `version` atomically: encode to a temp
    /// file, fsync it, rename into place, fsync the directory. A crash
    /// at any point leaves either no snapshot or a complete one.
    pub fn write_snapshot(
        &self,
        version: u64,
        graph: &CsrGraph,
        events: &EventStore,
    ) -> Result<PathBuf, PersistError> {
        let bytes = encode_snapshot(version, graph, events);
        let final_path = self.dir.join(snapshot_file_name(version));
        let tmp_path = self
            .dir
            .join(format!("{}.tmp", snapshot_file_name(version)));
        {
            let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&tmp_path, e))?;
            if self.options.fsync {
                f.sync_all().map_err(|e| io_err(&tmp_path, e))?;
            }
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
        if self.options.fsync {
            self.sync_dir()?;
        }
        Ok(final_path)
    }

    fn sync_dir(&self) -> Result<(), PersistError> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err(&self.dir, e))
    }

    /// Reconstruct the latest recoverable state: newest valid snapshot
    /// plus the clean WAL tail. Read-only and idempotent — running it
    /// twice (or after the [`AttachPlan`] was applied) yields the same
    /// state. `Ok(None)` means the directory holds no data at all.
    pub fn recover(&self) -> Result<Option<Recovery>, PersistError> {
        let snaps = self.list_snapshots()?;
        let segs = self.list_segments()?;
        if snaps.is_empty() && segs.is_empty() {
            return Ok(None);
        }

        // Newest snapshot that decodes cleanly wins; corrupt ones are
        // skipped (and scheduled for deletion) in favor of older
        // fallbacks, which the retained WAL segments still cover.
        let mut delete = Vec::new();
        let mut snapshots_skipped = 0usize;
        let mut chosen = None;
        for (v, path) in snaps.iter().rev() {
            let decoded = fs::read(path)
                .ok()
                .and_then(|b| decode_snapshot(&b).ok())
                .filter(|(ver, _, _)| ver == v);
            match decoded {
                Some((ver, g, e)) => {
                    chosen = Some((ver, g, e));
                    break;
                }
                None => {
                    snapshots_skipped += 1;
                    delete.push(path.clone());
                }
            }
        }
        let Some((snapshot_version, mut graph, mut events)) = chosen else {
            return Err(PersistError::NoValidSnapshot { tried: snaps.len() });
        };

        let mut version = snapshot_version;
        let mut records_replayed = 0u64;
        let mut active: Option<ActiveSegment> = None;
        let mut stopped = false;
        for (i, (base, path)) in segs.iter().enumerate() {
            if stopped {
                // Past a corruption point nothing later is applicable:
                // its sequences would leave a gap.
                delete.push(path.clone());
                continue;
            }
            let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
            let scan = match scan_segment(&bytes) {
                Ok(scan) if scan.base_version == *base => scan,
                // Unusable header (or one disagreeing with the file
                // name): if the next segment's base shows this one is
                // fully covered by the snapshot, skip it; otherwise
                // records are unreachable and replay must stop.
                _ => {
                    delete.push(path.clone());
                    match segs.get(i + 1) {
                        Some((next_base, _)) if *next_base <= version => continue,
                        _ => {
                            stopped = true;
                            continue;
                        }
                    }
                }
            };
            let mut kept = scan.records.len() as u64;
            let mut clean_len = scan.clean_len;
            for (j, (seq, rec)) in scan.records.iter().enumerate() {
                if *seq <= version {
                    continue; // already in the snapshot
                }
                if *seq != version + 1 || apply_record(rec, &mut graph, &mut events).is_err() {
                    // A sequence gap or an inapplicable record: the
                    // segment is trustworthy only up to the previous
                    // record.
                    kept = j as u64;
                    clean_len = if j == 0 {
                        WAL_HEADER_LEN as u64
                    } else {
                        scan.ends[j - 1]
                    };
                    stopped = true;
                    break;
                }
                version += 1;
                records_replayed += 1;
            }
            if *base > version {
                // A segment starting beyond the recovered version can
                // never be appended to consistently — only possible in
                // a tampered directory; drop it.
                delete.push(path.clone());
                stopped = true;
                continue;
            }
            active = Some(ActiveSegment {
                path: path.clone(),
                clean_len,
                records: kept,
            });
        }
        Ok(Some(Recovery {
            version,
            snapshot_version,
            graph,
            events,
            snapshots_skipped,
            records_replayed,
            plan: AttachPlan { delete, active },
        }))
    }

    /// Delete snapshots beyond the [`StoreOptions::keep_snapshots`]
    /// newest and WAL segments fully covered by the oldest snapshot
    /// kept — i.e. segments recovery could never need again, even
    /// when falling back past a corrupt newest snapshot.
    pub fn prune(&self) -> Result<(), PersistError> {
        let snaps = self.list_snapshots()?;
        let keep = self.options.keep_snapshots.max(1);
        if snaps.len() <= keep {
            return Ok(());
        }
        let oldest_kept = snaps[snaps.len() - keep].0;
        for (_, path) in &snaps[..snaps.len() - keep] {
            fs::remove_file(path).map_err(|e| io_err(path, e))?;
        }
        let segs = self.list_segments()?;
        for i in 0..segs.len() {
            // Segment i spans versions (base_i, base_{i+1}]; it is
            // dead once that whole span is at or below the oldest
            // snapshot any recovery could start from.
            match segs.get(i + 1) {
                Some((next_base, _)) if *next_base <= oldest_kept => {
                    fs::remove_file(&segs[i].1).map_err(|e| io_err(&segs[i].1, e))?;
                }
                _ => break,
            }
        }
        if self.options.fsync {
            self.sync_dir()?;
        }
        Ok(())
    }
}

/// Replay one WAL record onto `(graph, events)`. Errors mean the
/// record cannot apply to this state (a corruption symptom): recovery
/// stops cleanly rather than guessing.
fn apply_record(
    rec: &WalRecord,
    graph: &mut CsrGraph,
    events: &mut EventStore,
) -> Result<(), String> {
    let check_nodes = |nodes: &[u32], n: usize| -> Result<(), String> {
        match nodes.iter().find(|&&v| v as usize >= n) {
            Some(v) => Err(format!("node {v} out of range for {n} nodes")),
            None => Ok(()),
        }
    };
    match rec {
        WalRecord::AddEdges { edges } => {
            graph.check_edges(edges).map_err(|e| e.to_string())?;
            *graph = graph.with_edges(edges);
        }
        WalRecord::AddEvent { name, nodes } => {
            check_nodes(nodes, graph.num_nodes())?;
            events
                .try_add_event(name.clone(), nodes.clone())
                .map_err(|e| e.to_string())?;
        }
        WalRecord::AddOccurrences { event, nodes } => {
            check_nodes(nodes, graph.num_nodes())?;
            events
                .add_occurrences(EventId(*event), nodes)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The live durability sink a writing [`crate::context::TescContext`]
/// carries: the store, the active WAL segment, and checkpoint
/// bookkeeping. All calls happen under the context's writer lock.
#[derive(Debug)]
pub struct Durability {
    store: Store,
    writer: WalWriter,
    records_since_checkpoint: u64,
    last_snapshot_version: u64,
}

impl Durability {
    /// Wire a store to a context at `version` with state
    /// `(graph, events)`. `recovered` is what a prior
    /// [`Store::recover`] of the directory left to act on — the
    /// version of the snapshot its replay started from and the cleanup
    /// plan, which is applied here. With no prior recovery (a fresh
    /// directory) the initial snapshot is written immediately, so the
    /// WAL always has a base image to replay onto.
    pub fn attach(
        store: Store,
        recovered: Option<(u64, &AttachPlan)>,
        version: u64,
        graph: &CsrGraph,
        events: &EventStore,
    ) -> Result<Self, PersistError> {
        let fsync = store.options.fsync;
        match recovered {
            None => {
                store.write_snapshot(version, graph, events)?;
                let path = store.dir.join(segment_file_name(version));
                let writer =
                    WalWriter::create(&path, version, fsync).map_err(|e| io_err(&path, e))?;
                if fsync {
                    store.sync_dir()?;
                }
                Ok(Durability {
                    store,
                    writer,
                    records_since_checkpoint: 0,
                    last_snapshot_version: version,
                })
            }
            Some((snapshot_version, plan)) => {
                for path in &plan.delete {
                    match fs::remove_file(path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(io_err(path, e)),
                    }
                }
                let writer = match &plan.active {
                    Some(a) => WalWriter::reopen(&a.path, a.clean_len, a.records, fsync)
                        .map_err(|e| io_err(&a.path, e))?,
                    None => {
                        let path = store.dir.join(segment_file_name(version));
                        WalWriter::create(&path, version, fsync).map_err(|e| io_err(&path, e))?
                    }
                };
                if fsync {
                    store.sync_dir()?;
                }
                Ok(Durability {
                    store,
                    writer,
                    records_since_checkpoint: version - snapshot_version,
                    last_snapshot_version: snapshot_version,
                })
            }
        }
    }

    /// Append (and fsync) the record producing version `seq`. The
    /// caller publishes that version only after this returns Ok.
    pub fn log(&mut self, seq: u64, record: &WalRecord) -> Result<(), PersistError> {
        self.writer
            .append(seq, record)
            .map_err(|e| io_err(self.writer.path(), e))?;
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// Checkpoint now: snapshot `version`, rotate to a fresh segment,
    /// prune dead files.
    pub fn checkpoint(
        &mut self,
        version: u64,
        graph: &CsrGraph,
        events: &EventStore,
    ) -> Result<(), PersistError> {
        self.store.write_snapshot(version, graph, events)?;
        let path = self.store.dir.join(segment_file_name(version));
        self.writer = WalWriter::create(&path, version, self.store.options.fsync)
            .map_err(|e| io_err(&path, e))?;
        self.records_since_checkpoint = 0;
        self.last_snapshot_version = version;
        self.store.prune()
    }

    /// Checkpoint if [`StoreOptions::snapshot_every`] records have
    /// accumulated. Best-effort: the WAL already holds everything, so
    /// a failed checkpoint costs recovery time, not data — it is
    /// reported on stderr and retried after the next record.
    pub fn maybe_checkpoint(&mut self, version: u64, graph: &CsrGraph, events: &EventStore) {
        if self.records_since_checkpoint < self.store.options.snapshot_every {
            return;
        }
        if let Err(e) = self.checkpoint(version, graph, events) {
            eprintln!("tesc: checkpoint at version {version} failed (will retry): {e}");
        }
    }

    /// WAL records appended since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Version of the most recent snapshot on disk.
    pub fn last_snapshot_version(&self) -> u64 {
        self.last_snapshot_version
    }

    /// The managed data directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }
}

// Re-exported at the module root for callers: `tesc::persist::{...}`.
pub use codec::DecodeError;
pub use failpoint::{corrupt_file, FailpointWriter, Fault};

/// Scan one WAL segment file on disk (test/tool convenience).
pub fn scan_segment_file(path: &Path) -> Result<SegmentScan, PersistError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    scan_segment(&bytes).map_err(|e| io_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesc_graph::generators::grid;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tesc-persist-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state() -> (CsrGraph, EventStore) {
        let graph = grid(5, 5);
        let mut events = EventStore::new();
        events.add_event("a", vec![0, 6, 12]);
        events.add_event("b", vec![3, 4]);
        (graph, events)
    }

    #[test]
    fn fresh_directory_recovers_to_none() {
        let dir = tmp_dir("fresh");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.recover().unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_then_wal_tail_recovers() {
        let dir = tmp_dir("tail");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let (graph, events) = sample_state();
        store.write_snapshot(1, &graph, &events).unwrap();
        let mut w = WalWriter::create(&dir.join(segment_file_name(1)), 1, true).unwrap();
        w.append(
            2,
            &WalRecord::AddEdges {
                edges: vec![(0, 24)],
            },
        )
        .unwrap();
        w.append(
            3,
            &WalRecord::AddOccurrences {
                event: 1,
                nodes: vec![9],
            },
        )
        .unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.version, 3);
        assert_eq!(rec.snapshot_version, 1);
        assert_eq!(rec.records_replayed, 2);
        assert!(rec.graph.has_edge(0, 24));
        assert!(rec.events.nodes(EventId(1)).contains(&9));
        assert!(rec.plan.delete.is_empty());
        assert_eq!(rec.plan.active.as_ref().unwrap().records, 2);
        // Idempotent: a second recovery sees the identical state.
        let rec2 = store.recover().unwrap().unwrap();
        assert_eq!(rec2.version, 3);
        assert_eq!(rec2.graph.fingerprint(), rec.graph.fingerprint());
        assert_eq!(rec2.events.fingerprint(), rec.events.fingerprint());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let (graph, events) = sample_state();
        store.write_snapshot(1, &graph, &events).unwrap();
        // WAL 1 → versions 2; checkpoint at 2; newest snapshot corrupt.
        let mut w = WalWriter::create(&dir.join(segment_file_name(1)), 1, true).unwrap();
        w.append(
            2,
            &WalRecord::AddEdges {
                edges: vec![(0, 24)],
            },
        )
        .unwrap();
        let graph2 = graph.with_edges(&[(0, 24)]);
        store.write_snapshot(2, &graph2, &events).unwrap();
        let _w2 = WalWriter::create(&dir.join(segment_file_name(2)), 2, true).unwrap();
        corrupt_file(&dir.join(snapshot_file_name(2)), Fault::BitFlip(40, 0x04)).unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.snapshot_version, 1, "fell back past the corrupt one");
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(rec.version, 2, "longer replay reaches the same state");
        assert_eq!(rec.graph.fingerprint(), graph2.fingerprint());
        assert!(rec.plan.delete.contains(&dir.join(snapshot_file_name(2))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_snapshots_corrupt_is_a_hard_error() {
        let dir = tmp_dir("nosnap");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let (graph, events) = sample_state();
        store.write_snapshot(1, &graph, &events).unwrap();
        corrupt_file(&dir.join(snapshot_file_name(1)), Fault::CrashAt(20)).unwrap();
        assert!(matches!(
            store.recover(),
            Err(PersistError::NoValidSnapshot { tried: 1 })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_gap_stops_replay_cleanly() {
        let dir = tmp_dir("gap");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let (graph, events) = sample_state();
        store.write_snapshot(1, &graph, &events).unwrap();
        let mut w = WalWriter::create(&dir.join(segment_file_name(1)), 1, true).unwrap();
        w.append(
            2,
            &WalRecord::AddEdges {
                edges: vec![(0, 24)],
            },
        )
        .unwrap();
        // Gap: 3 is missing.
        w.append(
            4,
            &WalRecord::AddEdges {
                edges: vec![(0, 12)],
            },
        )
        .unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.version, 2, "stops before the gap");
        assert!(rec.graph.has_edge(0, 24));
        assert!(!rec.graph.has_edge(0, 12), "post-gap record not applied");
        let active = rec.plan.active.unwrap();
        assert_eq!(active.records, 1, "truncates back to the clean prefix");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_fallback_coverage() {
        let dir = tmp_dir("prune");
        let store = Store::open(
            &dir,
            StoreOptions {
                keep_snapshots: 2,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let (mut graph, events) = sample_state();
        // Simulate three checkpoints at versions 1, 5, 9 with segments
        // wal-1 (2..=5), wal-5 (6..=9), wal-9 (active).
        store.write_snapshot(1, &graph, &events).unwrap();
        let spans = [(1u64, 2u64..=5), (5, 6..=9)];
        for (base, seqs) in spans {
            let mut w = WalWriter::create(&dir.join(segment_file_name(base)), base, true).unwrap();
            for seq in seqs {
                let edge = (0u32, (seq + 1) as u32);
                graph = graph.with_edges(&[edge]);
                w.append(seq, &WalRecord::AddEdges { edges: vec![edge] })
                    .unwrap();
            }
            let v = w.records() + base;
            store.write_snapshot(v, &graph, &events).unwrap();
        }
        let _active = WalWriter::create(&dir.join(segment_file_name(9)), 9, true).unwrap();
        store.prune().unwrap();
        let snaps: Vec<u64> = store
            .list_snapshots()
            .unwrap()
            .iter()
            .map(|s| s.0)
            .collect();
        assert_eq!(snaps, vec![5, 9], "keeps the 2 newest snapshots");
        let segs: Vec<u64> = store.list_segments().unwrap().iter().map(|s| s.0).collect();
        assert_eq!(
            segs,
            vec![5, 9],
            "wal-1 is covered by snapshot 5; wal-5 still needed as fallback replay"
        );
        // Recovery still works, and still works if snapshot 9 dies.
        assert_eq!(store.recover().unwrap().unwrap().version, 9);
        corrupt_file(&dir.join(snapshot_file_name(9)), Fault::TearAt(10)).unwrap();
        let rec = store.recover().unwrap().unwrap();
        assert_eq!(rec.version, 9);
        assert_eq!(rec.graph.fingerprint(), graph.fingerprint());
        fs::remove_dir_all(&dir).ok();
    }
}
