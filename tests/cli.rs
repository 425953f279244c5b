//! Black-box checks of `tesc-cli`'s flag handling: each subcommand
//! accepts exactly its documented flags, so a misspelled or removed
//! flag is an error with the usage text, never a silently ignored knob.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh scratch directory holding the `tesc-cli demo` scenario plus
/// a named-events file for `rank`.
fn demo_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tesc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli(&["demo", "--dir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "demo: {out:?}");
    std::fs::write(
        dir.join("events.txt"),
        "a 0,1,2,3,20,21,22,23\nb 4,5,6,7,24,25,26,27\nc 200,201,202,203\n",
    )
    .expect("write events");
    dir
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tesc-cli"))
        .args(args)
        .output()
        .expect("run tesc-cli")
}

/// Running `args` must fail, naming `--flag` and printing the usage.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded");
    assert!(
        stderr.contains(&format!("unknown flag --{flag}")),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

/// Running `args` must succeed and print `needle` on stdout.
fn assert_runs(args: &[&str], needle: &str) {
    let out = cli(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains(needle));
}

#[test]
fn misspelled_kernel_flag_fails_and_the_correct_spelling_runs() {
    let dir = demo_dir("test");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, a, b) = (file("graph.txt"), file("event_a.txt"), file("event_b.txt"));
    let test = [
        "test",
        "--graph",
        &graph,
        "--event-a",
        &a,
        "--event-b",
        &b,
        "--n",
        "100",
    ];
    assert_rejected(&[&test[..], &["--kernal", "multi"]].concat(), "kernal");
    assert_runs(&[&test[..], &["--kernel", "multi"]].concat(), "z-score");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_relabel_flag_is_rejected() {
    let dir = demo_dir("rank");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, events, out) = (file("graph.txt"), file("events.txt"), file("graph.tgraph"));
    let rank = ["rank", "--graph", &graph, "--events", &events, "--n", "100"];
    assert_rejected(&[&rank[..], &["--relabel", "on"]].concat(), "relabel");
    let convert = ["convert", "--graph", &graph, "--out", &out];
    assert_rejected(&[&convert[..], &["--relabel", "on"]].concat(), "relabel");
    // Without the removed flag the same runs succeed.
    assert_runs(&rank, "summary:");
    assert_runs(&convert, "container:");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_rank_deadlines_are_rejected() {
    let dir = demo_dir("deadline-flag");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, events) = (file("graph.txt"), file("events.txt"));
    for bad in ["0", "soon"] {
        let out = cli(&[
            "rank",
            "--graph",
            &graph,
            "--events",
            &events,
            "--deadline",
            bad,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--deadline {bad} succeeded");
        assert!(
            stderr.contains("--deadline must be a duration"),
            "--deadline {bad}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tight_rank_deadline_prints_a_table_or_interrupts_and_never_panics() {
    let dir = demo_dir("deadline-run");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, events) = (file("graph.txt"), file("events.txt"));
    let rank = [
        "rank",
        "--graph",
        &graph,
        "--events",
        &events,
        "--n",
        "20000",
        "--deadline",
        "1ms",
    ];
    for mode in [&[][..], &["--mode", "anytime:0.05", "--top-k", "3"][..]] {
        let out = cli(&[&rank[..], mode].concat());
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        match out.status.code() {
            // A finished or degraded ranking prints its table; the
            // degradation note goes to stderr, never into the table.
            Some(0) => {
                assert!(stdout.contains("summary:"), "{mode:?}: {stdout}");
                assert!(!stdout.contains("note: deadline"), "{mode:?}: {stdout}");
            }
            Some(1) => assert!(stderr.contains("interrupted:"), "{mode:?}: {stderr}"),
            other => panic!("{mode:?}: exit {other:?}, stderr: {stderr}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn anytime_without_top_k_prints_the_exact_table() {
    let dir = demo_dir("anytime-exact");
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (graph, events) = (file("graph.txt"), file("events.txt"));
    let rank = ["rank", "--graph", &graph, "--events", &events, "--n", "100"];
    let table = |extra: &[&str]| {
        let out = cli(&[&rank[..], extra].concat());
        assert!(out.status.success(), "{extra:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    // No top-K cutoff: the run is exact, and so is its table.
    let (stdout, stderr) = table(&["--mode", "anytime:0.05"]);
    assert!(stderr.contains("running exact"), "{stderr}");
    assert!(!stdout.contains("decided@n"), "{stdout}");
    let (exact, _) = table(&[]);
    assert_eq!(stdout, exact, "the same table as an exact run");
    // With a cutoff the anytime tiers run and the column appears.
    let (stdout, _) = table(&["--mode", "anytime:0.05", "--top-k", "2"]);
    assert!(stdout.contains("decided@n"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
