//! The `tesc-serve` child process: boot, discover the port, read its
//! peak memory, `kill -9`, restart.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Where the release `tesc-serve` binary is: `$TESCBENCH_SERVE_BIN`
/// (set by `run.sh`), else the root package's default target dir.
pub fn serve_binary() -> PathBuf {
    match std::env::var_os("TESCBENCH_SERVE_BIN") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from("target/release/tesc-serve"),
    }
}

/// The one core `serve-mixed` runs on: server child and load generator
/// alike.
///
/// On the 2-vCPU reference host the two vCPUs are sometimes granted
/// two physical cores and sometimes made to share one, changing within
/// minutes. With server and generator on different vCPUs every served
/// latency followed that: runs of the same code fell into a fast and a
/// slow mode (commit 63 vs 120 ms, top-k 120 vs 240 ms, `/test` p90 12
/// vs 24 ms). With everything on one vCPU the other stays idle and the
/// host's mood does not matter; the generator is light (it sleeps
/// between sends), so what is measured is a one-core server. Pinning
/// goes through `taskset`; without it, or on a single core, nothing is
/// pinned.
#[derive(Debug, Clone)]
pub struct OneCore {
    core: String,
    all: String,
}

impl OneCore {
    /// Pin this process (and the threads it spawns from now on) to the
    /// last core; `None` when there is nothing to choose or no
    /// `taskset`.
    pub fn claim() -> Option<OneCore> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let has_taskset = Command::new("taskset")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        let plan = (cores >= 2 && has_taskset).then(|| OneCore {
            core: (cores - 1).to_string(),
            all: format!("0-{}", cores - 1),
        })?;
        pin_self(&plan.core);
        Some(plan)
    }

    /// Give this process every core back.
    pub fn release(&self) {
        pin_self(&self.all);
    }
}

fn pin_self(cpus: &str) {
    let _ = Command::new("taskset")
        .args(["-cp", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// How the server gets its state.
pub enum Boot<'a> {
    /// First boot: initialize `data_dir` from a graph and events file.
    Fresh {
        /// `.tgraph` container.
        graph: &'a Path,
        /// Named-events file.
        events: &'a Path,
    },
    /// Restart: recover from `--data-dir` alone.
    Recover,
}

/// A running server child. Dropping it kills and reaps the process, so
/// no run leaves a server behind, even when it fails halfway.
pub struct ServerProc {
    child: Child,
    /// The bound address parsed from `listening on ADDR`.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn the server and block until it prints `listening on`.
    pub fn boot(
        boot: Boot<'_>,
        data_dir: &Path,
        access_log: Option<&Path>,
        stderr_log: &Path,
        core: Option<&OneCore>,
    ) -> Result<ServerProc, String> {
        let bin = serve_binary();
        let mut cmd = match core {
            // `taskset` execs the server, so the child's pid is the
            // server's: kill and /proc/<pid>/status mean what they say.
            Some(one) => {
                let mut cmd = Command::new("taskset");
                cmd.args(["-c", &one.core]).arg(&bin);
                cmd
            }
            None => Command::new(&bin),
        };
        if let Boot::Fresh { graph, events } = boot {
            cmd.arg("--graph").arg(graph).arg("--events").arg(events);
        }
        cmd.args(["--listen", "127.0.0.1:0", "--h", "2", "--workers", "2"])
            .args(["--cache-budget", "64M", "--snapshot-every", "16"])
            .arg("--data-dir")
            .arg(data_dir);
        if let Some(log) = access_log {
            cmd.arg("--access-log").arg(log);
        }
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(stderr_log)
            .map_err(|e| format!("opening {}: {e}", stderr_log.display()))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        break addr
                            .trim()
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("unparseable address in {line:?}: {e}"));
                    }
                }
                _ => {
                    break Err(format!(
                        "server exited before listening; see {}",
                        stderr_log.display()
                    ))
                }
            }
        };
        match addr {
            Ok(addr) => Ok(ServerProc { child, addr }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the child, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `kill -9` and reap.
    pub fn kill9(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // `Child::kill` is SIGKILL on Unix: no handler runs, nothing is
        // flushed — the crash the durability contract is about.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Total size of the regular files directly inside `dir`, in bytes,
/// split as (all, snapshots, WAL segments).
pub fn dir_bytes(dir: &Path) -> (u64, u64, u64) {
    let (mut all, mut snapshots, mut wal) = (0u64, 0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            all += meta.len();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tsnap") {
                snapshots += meta.len();
            } else if name.starts_with("wal-") {
                wal += meta.len();
            }
        }
    }
    (all, snapshots, wal)
}

/// Total size of the regular files directly inside `dir`, in MiB.
pub fn dir_mib(dir: &Path) -> f64 {
    dir_bytes(dir).0 as f64 / (1 << 20) as f64
}

/// Sleep until `deadline`. No spinning: on a host with fewer free
/// cores than threads a spinning generator would take CPU from the
/// server it is measuring; the timer slack this leaves (tens of
/// microseconds) is reported as `serve.gen_late_ms_p99`.
pub fn sleep_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}
