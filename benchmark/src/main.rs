//! `tescbench` — one benchmark for the whole TESC pipeline.
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
//!                  [--trace [0|1]] [--smoke] [--repeat K]
//! ```
//!
//! Without `--workload` every workload runs, each in a process of its
//! own. Each run prints a provenance header, every metric by name with
//! its unit, and — as the last line — the result object the driver
//! reads. Any failed
//! operation or correctness check makes the exit code non-zero. See
//! `README.md` in this directory.

mod api;
mod host;
mod http;
mod inproc;
mod metrics;
mod refbfs;
mod scenario;
mod schedule;
mod serve;
mod server;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use api::Json;

use host::Mode;
use inproc::RunOpts;
use metrics::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use scenario::Scale;

/// `run_seconds` of `BENCHMARK.json`: what the bounds were measured at.
const RUN_SECONDS: f64 = 16.0;
/// Seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.5;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--repeat K]

  --workload NAME  one of single-test-sweep, rank-shared-dblp,
                   rank-skewed-twitter, serve-mixed   [default: all]
  --seed N         input seed                         [default: 1]
  --seconds S      seconds to measure per workload    [default: 16]
  --trace [0|1]    traced run: per-layer metrics and span files
  --smoke          ~1/20 sizes, all checks on, < 30 s in total
  --repeat K       K untraced sets back to back; compare every
                   workload x end-to-end metric against its bound";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand, bare `--trace`.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value(&mut i, "--repeat")?
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("--repeat must be an integer >= 1")?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.repeat > 1 && args.trace {
        return Err(
            "--repeat compares end-to-end metrics; it does not combine with --trace".into(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.repeat) {
        (Some(workload), 1) => run_workload(&args, workload),
        _ => run_in_children(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process: provenance header, every metric,
/// the result file, and the driver's result object as the last line.
fn run_workload(args: &Args, workload: &str) -> bool {
    let mode = match (args.trace, args.smoke) {
        (true, _) => Mode::Trace,
        (false, true) => Mode::Smoke,
        (false, false) => Mode::Full,
    };
    let out_dir = PathBuf::from("benchmark/out");
    let opts = RunOpts {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds(),
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir: out_dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("error: creating {}: {e}", opts.run_dir.display());
        return false;
    }
    let provenance = host::provenance(opts.seed, opts.seconds, mode);
    for (key, value) in &provenance {
        println!("# {key}: {value}");
    }
    println!("== {workload}");
    let result = match (workload, args.trace) {
        ("serve-mixed", false) => serve::run(&opts),
        ("serve-mixed", true) => serve::run_traced(&opts),
        (_, false) => inproc::run(&opts),
        (_, true) => traced::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    report(&result, args.trace);
    write_result_file(&out_dir, workload, mode, &provenance, &result, args.trace);
    println!("{}", result.to_json_line(args.trace));
    result.failed == 0
}

/// What the parent keeps of a child's run: its result line, parsed.
struct Summary {
    values: BTreeMap<String, f64>,
    failed: u64,
}

/// Run every selected workload, `--repeat` times, each in a process of
/// its own — exactly as the driver does — so that one workload's heap
/// never shows up in the next one's `peak_rss_mb`.
fn run_in_children(args: &Args) -> bool {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut ok = true;
    let mut sets: Vec<Vec<Option<Summary>>> = Vec::new();
    for set in 0..args.repeat {
        if args.repeat > 1 {
            println!("\n==== set {} of {}", set + 1, args.repeat);
        }
        let mut summaries = Vec::new();
        for &workload in &workloads {
            println!();
            let summary = run_child(args, workload);
            ok &= summary.as_ref().is_some_and(|s| s.failed == 0);
            summaries.push(summary);
        }
        sets.push(summaries);
    }
    if args.repeat > 1 {
        ok &= compare_sets(&workloads, &sets);
    }
    ok
}

/// Re-invoke this binary for one workload, pass its output through,
/// and parse its last line.
fn run_child(args: &Args, workload: &str) -> Option<Summary> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.stdout(Stdio::piped()).spawn().ok()?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take()?).lines() {
        let line = line.ok()?;
        println!("{line}");
        last = line;
    }
    let exited_ok = child.wait().ok()?.success();
    let json = Json::parse(&last).ok()?;
    let values = match json.get("metrics")? {
        Json::Obj(members) => members
            .iter()
            .filter_map(|(name, m)| Some((name.to_string(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return None,
    };
    let failed = json.get("failed")?.as_u64()?;
    // A child that died after printing still counts as failed.
    Some(Summary {
        values,
        failed: failed.max(u64::from(!exited_ok)),
    })
}

/// Every metric by name with its unit, then what failed.
fn report(result: &RunResult, traced: bool) {
    let row = |name: &str, unit: &str| {
        if let Some(value) = result.values.get(name) {
            let samples = match result.samples.get(name) {
                Some(n) => format!("  (n = {n})"),
                None => String::new(),
            };
            println!("{name:<36} {value:>16.4} {unit}{samples}");
        }
    };
    if traced {
        for (name, unit, _) in PER_LAYER {
            row(name, unit);
        }
    } else {
        for m in END_TO_END {
            row(m.name, m.unit);
        }
    }
    println!(
        "{:<36} {:>16.6} ratio  ({} failed of {} attempted)",
        "error_share",
        result.error_share(),
        result.failed,
        result.attempted
    );
    for failure in &result.failures {
        println!("FAILED: {failure}");
    }
}

/// One result file per workload and mode, provenance first.
fn write_result_file(
    out_dir: &std::path::Path,
    workload: &str,
    mode: Mode,
    provenance: &[(&'static str, String)],
    result: &RunResult,
    traced: bool,
) {
    let header = provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
        .collect::<Vec<_>>()
        .join(", ");
    let samples = result
        .samples
        .iter()
        .map(|(k, n)| format!("\"{k}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let text = format!(
        "{{\"provenance\": {{{header}}}, \"workload\": \"{workload}\", \"samples\": {{{samples}}}, \"result\": {}}}\n",
        result.to_json_line(traced)
    );
    let path = out_dir.join(format!("result-{workload}-{}.json", mode.name()));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: writing {}: {e}", path.display());
    }
}

/// `--repeat`: per workload x end-to-end metric, each set's value, how
/// much worse the worst later set is than the first (in the metric's
/// bad direction), and the bound. `false` on any breach.
fn compare_sets(workloads: &[&str], sets: &[Vec<Option<Summary>>]) -> bool {
    println!(
        "\n==== repeatability: {} sets, same code, same seed",
        sets.len()
    );
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        let runs: Option<Vec<&Summary>> = sets.iter().map(|s| s[w].as_ref()).collect();
        let Some(runs) = runs else {
            println!("{workload:<20} a run printed no result");
            ok = false;
            continue;
        };
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.values.get(m.name).copied().unwrap_or(f64::NAN))
                .collect();
            let base = values[0];
            let worst = values[1..]
                .iter()
                .map(|&v| match m.better {
                    "lower" => (v - base) / base,
                    _ => (base - v) / base,
                })
                .fold(f64::MIN, f64::max);
            // A missing value is NaN, which is within no bound.
            let within = worst <= m.bound;
            ok &= within;
            let shown = values
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join("  ");
            println!(
                "{workload:<20} {:<18} {shown}  {}  worse by {:+.1} %  bound {:.0} %{}",
                m.name,
                m.unit,
                worst * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  BREACH" }
            );
        }
        let failed: Vec<u64> = runs.iter().map(|r| r.failed).collect();
        println!(
            "{workload:<20} {:<18} {failed:?}  count  must be 0",
            "failed"
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(12.0), false));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        // By hand: a bare flag, also in front of another flag.
        assert!(args(&["--trace"]).unwrap().trace);
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "600"]).is_err());
        assert!(args(&["--repeat", "0"]).is_err());
        assert!(args(&["--repeat", "2", "--trace"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
