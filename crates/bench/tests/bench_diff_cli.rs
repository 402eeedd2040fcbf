//! End-to-end exercise of the `asyncfl-bench-diff` binary: real process
//! spawns, real artifacts on disk, and the exact exit-code contract CI
//! relies on (0 = ok / gate passed, 1 = gate breached, 2 = usage or
//! parse error).

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_asyncfl-bench-diff");

fn artifact(dir: &std::path::Path, name: &str, mean_ns: f64, alloc_mean: f64) -> PathBuf {
    let path = dir.join(name);
    let body = format!(
        r#"{{
  "schema": "asyncfl-bench-v2",
  "binary": "repro",
  "quick": true,
  "threads": 2,
  "total_secs": 12.0,
  "experiments": [{{"name": "table2", "wall_clock_secs": 12.0}}],
  "phases": [
    {{"span": "filter", "count": 50, "total_secs": 0.1, "mean_ns": {mean_ns},
      "p50_ns": 900, "p95_ns": 1800, "p99_ns": 2100,
      "alloc_bytes_total": 50000, "alloc_bytes_mean": {alloc_mean},
      "alloc_bytes_p99": 4096, "peak_live_bytes": 777}},
    {{"span": "aggregate", "count": 50, "total_secs": 0.05, "mean_ns": 500.0,
      "p50_ns": 450, "p95_ns": 900, "p99_ns": 1000,
      "alloc_bytes_total": 1000, "alloc_bytes_mean": 20.0,
      "alloc_bytes_p99": 64, "peak_live_bytes": 777}}
  ],
  "counters": [],
  "gauges": [],
  "peak_rss_estimate": null,
  "threads_scaling": null,
  "training_throughput": null
}}
"#
    );
    std::fs::write(&path, body).expect("write artifact");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawn differ")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asyncfl-bench-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn identical_artifacts_pass_the_gate() {
    let dir = tempdir("identical");
    let old = artifact(&dir, "old.json", 1000.0, 1000.0);
    let new = artifact(&dir, "new.json", 1000.0, 1000.0);
    let out = run(&[old.to_str().unwrap(), new.to_str().unwrap(), "--gate"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Gate: OK"), "{stdout}");
    assert!(stdout.contains("| filter"), "{stdout}");
}

#[test]
fn mean_time_regression_fails_the_gate() {
    let dir = tempdir("mean-regress");
    let old = artifact(&dir, "old.json", 1000.0, 1000.0);
    let new = artifact(&dir, "new.json", 1500.0, 1000.0); // +50% > 25%
    let out = run(&[old.to_str().unwrap(), new.to_str().unwrap(), "--gate"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("mean_ns"), "{stdout}");

    // Same regression without --gate: reported, but exit 0.
    let out = run(&[old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Same regression with a custom threshold that tolerates it.
    let out = run(&[
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--gate",
        "--max-mean-regress",
        "60",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn alloc_regression_fails_the_gate() {
    let dir = tempdir("alloc-regress");
    let old = artifact(&dir, "old.json", 1000.0, 1000.0);
    let new = artifact(&dir, "new.json", 1000.0, 1150.0); // +15% > 10%
    let out = run(&[old.to_str().unwrap(), new.to_str().unwrap(), "--gate"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("alloc_bytes_mean"),
        "{out:?}"
    );
}

#[test]
fn json_mode_and_out_file() {
    let dir = tempdir("json-out");
    let old = artifact(&dir, "old.json", 1000.0, 1000.0);
    let new = artifact(&dir, "new.json", 1100.0, 1000.0);
    let report = dir.join("report.md");
    let out = run(&[
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--json",
        "--out",
        report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"schema\": \"asyncfl-bench-diff-v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"gate_ok\": true"), "{stdout}");
    // --out writes the markdown artifact regardless of --json on stdout.
    let md = std::fs::read_to_string(&report).expect("report written");
    assert!(md.contains("| filter"), "{md}");
}

#[test]
fn usage_and_parse_errors_exit_2() {
    // No arguments.
    assert_eq!(run(&[]).status.code(), Some(2));
    // Unknown flag.
    assert_eq!(run(&["a.json", "b.json", "--bogus"]).status.code(), Some(2));
    // Missing file.
    assert_eq!(
        run(&["/nonexistent/a.json", "/nonexistent/b.json"])
            .status
            .code(),
        Some(2)
    );
    // Present but not JSON.
    let dir = tempdir("parse-error");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json at all").unwrap();
    let good = artifact(&dir, "good.json", 1000.0, 1000.0);
    assert_eq!(
        run(&[bad.to_str().unwrap(), good.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );
}

/// An artifact carrying only a `scale_1m` probe with the given wall clock.
fn scale_artifact(dir: &std::path::Path, name: &str, wall_secs: f64) -> PathBuf {
    let path = dir.join(name);
    let body = format!(
        r#"{{
  "schema": "asyncfl-bench-v2",
  "binary": "repro",
  "total_secs": 20.0,
  "phases": [],
  "scale_1m": {{"clients": 1000000, "rounds": 12, "aggregation_bound": 8192,
    "participation": 0.5, "shard_cache_capacity": 4096,
    "rounds_completed": 12, "updates_received": 98304,
    "loop_events": 98304, "wall_secs": {wall_secs}, "events_per_sec": 19707.5,
    "final_accuracy": 0.98, "resident_client_states_max": 4096,
    "alloc_peak_live_bytes": 150000000, "vm_hwm_bytes": 170000000}}
}}
"#
    );
    std::fs::write(&path, body).expect("write artifact");
    path
}

#[test]
fn scale_wall_clock_regression_fails_the_gate_at_ci_thresholds() {
    // CI gates the million-client probe's end-to-end wall clock with its
    // mean-time bound (+100%).
    let dir = tempdir("scale-wall");
    let old = scale_artifact(&dir, "old.json", 5.0);
    let slower = scale_artifact(&dir, "slower.json", 9.5); // +90%
    let doubled = scale_artifact(&dir, "doubled.json", 10.5); // +110%
    let ci = |new: &PathBuf| {
        run(&[
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--gate",
            "--max-mean-regress",
            "100",
            "--max-p99-regress",
            "300",
            "--max-alloc-regress",
            "10",
            "--max-filter-alloc-regress",
            "5",
        ])
    };
    let out = ci(&slower);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = ci(&doubled);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`scale_1m` wall_secs"), "{stdout}");
}

#[test]
fn gates_against_the_committed_baseline_schema() {
    // The committed BENCH_repro.json must always be loadable by the
    // differ — this is the file CI gates fresh runs against.
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repro.json");
    let committed = committed.to_str().unwrap();
    let out = run(&[committed, committed, "--gate"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "self-diff of the committed baseline must pass: {out:?}"
    );
}
