//! Provenance of a result: which code, which inputs, which machine.
//!
//! One commit stamp per result file. The latencies this benchmark
//! reports are this host's, not a device's: see README, "Reading the
//! numbers on this host".

use std::process::Command;

/// Run mode of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full sizes, tracing off: the end-to-end metrics.
    Full,
    /// `--smoke`: ~1/20 sizes, all checks on.
    Smoke,
    /// `--trace`: the per-layer metrics and the span files.
    Trace,
}

impl Mode {
    /// Name in the provenance header.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Smoke => "smoke",
            Mode::Trace => "trace",
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Size of the largest cache level the kernel reports for cpu0.
fn last_level_cache() -> Option<String> {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map(|s| s.trim().to_string())
}

/// The provenance header as `(key, value)` pairs. The commit comes
/// from `$TESCBENCH_COMMIT` (set by `run.sh`, which can see the
/// repository) or `git`; the driver's checkout is not a repository, so
/// "unknown" is an honest value there.
pub fn provenance(seed: u64, seconds: f64, mode: Mode) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let commit = std::env::var("TESCBENCH_COMMIT")
        .ok()
        .filter(|c| !c.is_empty())
        .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(unknown);
    vec![
        ("commit", commit),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("mode", mode.name().to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu_model().unwrap_or_else(unknown)),
        (
            "last_level_cache",
            last_level_cache().unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
    ]
}
