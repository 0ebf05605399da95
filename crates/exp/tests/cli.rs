//! The `repro` command line, driven through the release binary: every
//! usage error exits 2 with a one-line reason that names the offending
//! flag (or targets), prints nothing to stdout, and leaves no file behind
//! — in particular no journal, manifest or report written by work that a
//! later check would have refused. Also pins that a process-isolated
//! worker receives every harness-shaping flag: its grid must equal the
//! in-process grid byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro")
}

/// Runs `args` in a fresh directory and asserts the usage-error contract:
/// exit 2, every `names` entry on stderr, empty stdout, no file created.
fn assert_rejected(tag: &str, args: &[&str], names: &[&str]) {
    let dir = scratch_dir(tag);
    let out = run_in(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
    for name in names {
        assert!(
            stderr.contains(name),
            "{args:?}: stderr does not name {name}:\n{stderr}"
        );
    }
    assert!(
        out.stdout.is_empty(),
        "{args:?}: stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "{args:?} created {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(args, names stderr must contain)`: one or more cases per check scope
/// (online, chaos, campaign, serve/client, journal-only, process-only)
/// plus the target-shape, recovery and value-grammar rules.
const REJECTED: &[(&[&str], &[&str])] = &[
    (&["--faults", "light", "online"], &["--faults"]),
    (
        &["--resume", "online", "--arrival-rate", "0.1"],
        &["--resume"],
    ),
    (&["online", "grid"], &["online"]),
    (&["--socket", "s", "online"], &["--socket"]),
    (
        &["--cell-timeout-secs", "5", "online"],
        &["--cell-timeout-secs"],
    ),
    (&["--points", "3", "online"], &["--points"]),
    (&["--episodes", "3", "online"], &["--episodes"]),
    (&["--health", "online"], &["--health"]),
    (
        &["--cell-timeout-secs", "5", "--episodes", "1", "chaos"],
        &["--cell-timeout-secs"],
    ),
    (
        &["--resume", "client", "--socket", "s", "--health"],
        &["--resume"],
    ),
    (&["--trace-out", "t", "grid"], &["--trace-out"]),
    (&["--horizon-events", "5", "grid"], &["--horizon-events"]),
    (&["--episodes", "3", "grid"], &["--episodes"]),
    (&["--workers", "2", "chaos"], &["--workers"]),
    (&["chaos", "grid"], &["chaos"]),
    (
        &["--faults", "light", "--campaign-dir", "d", "campaign"],
        &["--faults"],
    ),
    (&["campaign"], &["--campaign-dir"]),
    (&["--points", "3", "grid"], &["--points"]),
    (&["serve", "client"], &["serve", "client"]),
    (&["serve"], &["--socket"]),
    (&["client"], &["--socket"]),
    (&["--resume", "serve", "--socket", "s"], &["--resume"]),
    (
        &["--isolation", "process", "serve", "--socket", "s"],
        &["--state"],
    ),
    (&["--socket", "s", "grid"], &["--socket"]),
    (&["--drain", "grid"], &["--drain"]),
    (&["--resume", "grid"], &["--resume"]),
    (&["--isolation", "process", "grid"], &["--isolation"]),
    (
        &["--cell-timeout-secs", "5", "--journal", "j", "grid"],
        &["--cell-timeout-secs"],
    ),
    (&["--recovery", "retry", "grid"], &["--recovery"]),
    (
        &["--recovery", "never", "--disturb", "light", "grid"],
        &["--recovery"],
    ),
    (&["--disturb", "crash@1:0", "disturb"], &["--disturb"]),
    (&["--isolation", "threads", "grid"], &["--isolation"]),
    (
        &["--queue-cap", "0", "serve", "--socket", "s"],
        &["--queue-cap"],
    ),
    (&["--seed", "abc", "grid"], &["--seed"]),
    (
        &["--max-cell-attempts", "0", "grid"],
        &["--max-cell-attempts"],
    ),
    (&["--subset"], &["--subset"]),
];

#[test]
fn usage_errors_exit_2_naming_the_flag_before_any_work() {
    assert!(REJECTED.len() >= 14);
    for (i, (args, names)) in REJECTED.iter().enumerate() {
        assert_rejected(&format!("reject-{i}"), args, names);
    }
}

#[test]
fn a_bad_plan_is_a_usage_error() {
    assert_rejected(
        "bad-faults",
        &["--faults", "crash@x", "grid"],
        &["--faults"],
    );
    assert_rejected(
        "bad-disturb",
        &["--disturb", "crash@", "grid"],
        &["--disturb"],
    );
    assert_rejected(
        "bad-poison",
        &["--poison", "x=explode", "grid"],
        &["--poison"],
    );
}

#[test]
fn an_unknown_flag_fails_before_the_journal_is_written() {
    let dir = scratch_dir("unknown-flag");
    let journal = dir.join("j.jl");
    let out = run_in(
        &dir,
        &[
            "--seed",
            "7",
            "--repeats",
            "1",
            "--subset",
            "1",
            "--journal",
            journal.to_str().unwrap(),
            "--resme",
            "grid",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("--resme"), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!journal.exists(), "a rejected invocation wrote its journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_target_fails_before_the_grid_runs() {
    assert_rejected(
        "unknown-target",
        &[
            "--seed",
            "7",
            "--repeats",
            "1",
            "--subset",
            "1",
            "grid",
            "fgi1",
        ],
        &["fgi1"],
    );
}

/// The harness-shaping flags of the worker-argv oracle: dropping any one
/// of `--faults`, `--max-retries`, `--disturb` or `--recovery` changes
/// the grid, so a worker that loses a flag cannot match the in-process
/// run.
const HAZARD_GRID: &[&str] = &[
    "--seed",
    "7",
    "--repeats",
    "1",
    "--subset",
    "1",
    "--faults",
    "seed=7;moderate;fail=0.1",
    "--max-retries",
    "1",
    "--disturb",
    "seed=42;heavy",
    "--recovery",
    "retry",
];

#[test]
fn process_workers_reproduce_the_in_process_hazard_grid_bytewise() {
    let dir = scratch_dir("worker-argv");
    let run = |name: &str, extra: &[&str]| -> Vec<u8> {
        let journal = dir.join(format!("{name}.jl"));
        let json = dir.join(name);
        let mut args = HAZARD_GRID.to_vec();
        args.extend_from_slice(extra);
        args.extend_from_slice(&[
            "--journal",
            journal.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
            "grid",
        ]);
        let out = run_in(&dir, &args);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(json.join("grid.json")).expect("grid.json")
    };
    let inproc = run("inproc", &[]);
    let process = run("process", &["--isolation", "process", "--workers", "2"]);
    let text = String::from_utf8_lossy(&inproc);
    assert!(
        text.contains("Disturbed") && text.contains("Failed"),
        "{text}"
    );
    assert!(inproc == process, "process-isolated grid.json differs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--recovery` without `--disturb` is valid next to the `disturb` target,
/// which alone uses it: process workers must not receive it, or their own
/// check refuses it and every worker dies before the handshake.
#[test]
fn recovery_for_the_sweep_alone_leaves_process_workers_healthy() {
    let dir = scratch_dir("sweep-recovery");
    let args = [
        "--seed",
        "7",
        "--repeats",
        "1",
        "--subset",
        "1",
        "--recovery",
        "retry",
        "--journal",
        "j.jl",
        "--isolation",
        "process",
        "--workers",
        "2",
        "disturb",
        "grid",
    ];
    let out = run_in(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("6 computed, 0 pending, 0 quarantined — complete"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--throttle-ms` paces process-isolated cells too: 12 cells at 300 ms
/// apiece cannot finish inside a 1 s wall-clock budget, so the run
/// checkpoints with a `deadline` manifest instead of completing.
#[test]
fn throttle_paces_process_isolated_cells_into_the_deadline() {
    let dir = scratch_dir("process-throttle");
    let args = [
        "--seed",
        "7",
        "--repeats",
        "1",
        "--subset",
        "2",
        "--journal",
        "j",
        "--isolation",
        "process",
        "--throttle-ms",
        "300",
        "--workers",
        "1",
        "--max-wall-secs",
        "1",
        "grid",
    ];
    let out = run_in(&dir, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("— deadline"), "{stderr}");
    assert!(!stderr.contains("— complete"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
