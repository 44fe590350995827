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
