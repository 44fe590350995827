//! The `experiments` binary's error surface: bad input exits 1 with a
//! message naming the input, and writes no result files.

use std::process::Command;

#[test]
fn replay_rejects_a_fault_clause_on_a_missing_disk() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_fault_disk");
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out"])
        .arg(&out_dir)
        .args([
            "--requests",
            "1000",
            "--faults",
            "crash@t=1:d999999",
            "replay",
        ])
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("replay failed"), "stderr: {stderr}");
    assert!(
        stderr.contains("crash@t=1:d999999"),
        "names the clause: {stderr}"
    );
    assert!(stderr.contains("disk 999999"), "names the disk: {stderr}");
    assert!(
        stderr.contains("fleet has"),
        "names the fleet size: {stderr}"
    );
    assert!(!out_dir.join("replay.csv").exists(), "no result on error");
}

#[test]
fn shootout_rejects_a_fault_clause_on_a_missing_disk() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_fault_shootout");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out"])
        .arg(&out_dir)
        .args(["--faults", "failslow:d100:x2@0..5", "shootout"])
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("shootout failed"), "stderr: {stderr}");
    assert!(stderr.contains("failslow:d100:x2@0..5"), "stderr: {stderr}");
    assert!(
        stderr.contains("the fleet has 100 disks"),
        "stderr: {stderr}"
    );
}

/// Run `experiments --quick --out DIR ARGS…` and return (exit code,
/// stderr, wall time).
fn run_quick(dir: &str, args: &[&str]) -> (Option<i32>, String, std::time::Duration) {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let start = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out"])
        .arg(&out_dir)
        .args(args)
        .output()
        .expect("the experiments binary runs");
    if !out.status.success() {
        assert!(!out_dir.join("replay.csv").exists(), "no result on error");
    }
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        start.elapsed(),
    )
}

/// An empty replay reports zero energy as `0`, not `-0`.
#[test]
fn empty_replay_prints_zero_energy() {
    let (code, stderr, _) = run_quick(
        "cli_empty_replay",
        &["--requests", "1000", "--horizon", "0", "replay"],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let csv = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_empty_replay/replay.csv");
    let csv = std::fs::read_to_string(csv).expect("replay.csv written");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let row: Vec<&str> = lines.next().expect("one row").split(',').collect();
    let energy = header
        .iter()
        .position(|&h| h == "energy_j")
        .expect("energy_j column");
    assert_eq!(row[energy], "0", "{csv}");
}

#[test]
fn replay_rejects_an_impossible_window_count_up_front() {
    let (code, stderr, took) = run_quick(
        "cli_window_count",
        &[
            "--requests",
            "1000",
            "--window",
            "1",
            "--horizon",
            "1e9",
            "replay",
        ],
    );
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("replay failed"), "stderr: {stderr}");
    assert!(
        stderr.contains("1000000001 windows"),
        "names the computed count: {stderr}"
    );
    assert!(stderr.contains("1048576"), "names the limit: {stderr}");
    assert!(took.as_secs() < 30, "rejected up front, took {took:?}");
}

/// A retry budget that does not fit in 32 bits is an error naming its
/// clause, not a budget wrapped to `N mod 2^32` (here 0).
#[test]
fn replay_rejects_a_retry_budget_past_u32() {
    let clause = "retries=4294967296";
    let (code, stderr, took) = run_quick(
        "cli_retry_budget",
        &[
            "--requests",
            "1000",
            "--faults",
            &format!("transient:p=0.3 | {clause}"),
            "replay",
        ],
    );
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let naming: Vec<&str> = stderr.lines().filter(|l| l.contains(clause)).collect();
    assert_eq!(naming.len(), 1, "one line names the clause: {stderr}");
    assert!(took.as_secs() < 30, "rejected at parse time, took {took:?}");
}

#[test]
fn replay_rejects_a_horizon_past_the_trace_time_bound() {
    let (code, stderr, took) = run_quick(
        "cli_huge_horizon",
        &["--requests", "1000", "--horizon", "1e300", "replay"],
    );
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--horizon"), "names the flag: {stderr}");
    assert!(took.as_secs() < 30, "rejected at parse time, took {took:?}");
}

/// Replay a small CSV piped through `/dev/stdin` with `extra` flags and
/// return (exit code, stderr, the `requests` cell of `replay.csv`).
#[cfg(unix)]
fn replay_piped_trace(dir: &str, extra: &[&str]) -> (Option<i32>, String, Option<String>) {
    use std::io::Write;
    use std::process::Stdio;
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out"])
        .arg(&out_dir)
        .args(["--trace-file", "/dev/stdin"])
        .args(extra)
        .arg("replay")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the experiments binary runs");
    let mut csv = String::from("time_s,file_id\n");
    for i in 0..200 {
        csv.push_str(&format!("{:.6},{}\n", i as f64 * 0.5, i % 7));
    }
    // The binary may exit before reading everything; a broken pipe is fine.
    let _ = child.stdin.take().unwrap().write_all(csv.as_bytes());
    let out = child.wait_with_output().unwrap();
    let requests = std::fs::read_to_string(out_dir.join("replay.csv"))
        .ok()
        .and_then(|t| Some(t.lines().nth(1)?.split(',').next()?.to_owned()));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        requests,
    )
}

#[cfg(unix)]
#[test]
fn replay_of_a_piped_trace_needs_an_explicit_horizon() {
    // The horizon is read from the file's last row, which a pipe cannot
    // seek to: a typed error naming the input, not an empty replay.
    let (code, stderr, requests) = replay_piped_trace("cli_pipe_no_horizon", &[]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("replay failed"), "stderr: {stderr}");
    assert!(stderr.contains("/dev/stdin"), "names the input: {stderr}");
    assert!(stderr.contains("explicit horizon"), "stderr: {stderr}");
    assert_eq!(requests, None, "no result on error");

    // An explicit horizon never seeks, so the same pipe replays in full.
    let (code, stderr, requests) = replay_piped_trace("cli_pipe_horizon", &["--horizon", "99.5"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(requests.as_deref(), Some("200"));
}

/// Run `experiments --quick --out DIR ARGS…`, expect exit 1 before any
/// command runs, and return stderr.
fn rejected_up_front(dir: &str, args: &[&str]) -> String {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--out"])
        .arg(&out_dir)
        .args(args)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no command ran: {stderr}");
    assert!(!out_dir.exists(), "no CSV written: {stderr}");
    stderr
}

#[test]
fn a_bad_argument_anywhere_stops_every_command() {
    let stderr = rejected_up_front("cli_unknown_option", &["table2", "--shard", "2"]);
    assert!(stderr.contains("unknown option \"--shard\""), "{stderr}");
    let stderr = rejected_up_front("cli_unknown_command", &["table2", "tabel3"]);
    assert!(stderr.contains("unknown command \"tabel3\""), "{stderr}");
}

#[test]
fn replay_only_flags_need_the_replay_command() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_replay_only");
    let log = out_dir.join("c.csv");
    let stderr = rejected_up_front(
        "cli_replay_only",
        &[
            "--completion-log",
            log.to_str().unwrap(),
            "--window",
            "10",
            "table2",
        ],
    );
    assert!(
        stderr.contains("--completion-log"),
        "names the flag: {stderr}"
    );
    assert!(stderr.contains("replay"), "{stderr}");
    // `all` runs every command but `replay`.
    let stderr = rejected_up_front("cli_replay_only_all", &["--shards", "2", "all"]);
    assert!(stderr.contains("--shards"), "names the flag: {stderr}");
}
