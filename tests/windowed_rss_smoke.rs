//! Bounded-memory smoke for windowed replays (the `--ignored` CI lane,
//! `cargo test -q -- --ignored`): a 10M-request diurnal replay in 60 s
//! windows — about 4 200 windows on the 100-disk quick fleet — must peak
//! within 8 MB of the same replay with windows off, at one and at two
//! shards. Closed windows are folded and dropped as the clock passes
//! them, so only the open windows stay resident.
//!
//! Each configuration runs in a fresh child process (this test binary,
//! re-executed with the configuration in `argv[0]`) that reports its own
//! peak resident set from `/proc/self/status`, so the runs cannot inflate
//! each other's figure.

use std::os::unix::process::CommandExt;
use std::process::Command;

use spindown::core::{CacheChoice, FaultChoice, LadderChoice, RateCurve};
use spindown::experiments::replay::replay;
use spindown::experiments::Scale;

/// `argv[0]` prefix marking a probe child; the rest is `SHARDS:WINDOW`
/// (`WINDOW` = `off` or seconds).
const PROBE: &str = "windowed-rss-probe:";
/// Allowed peak-RSS growth from turning windows on.
const MARGIN_KB: u64 = 8 * 1024;

fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Run one configuration in a child process and return its peak RSS.
fn probe(shards: usize, window: Option<f64>) -> u64 {
    let spec = format!(
        "{PROBE}{shards}:{}",
        window.map_or("off".to_string(), |w| w.to_string())
    );
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .arg0(&spec)
        .args(["rss_probe", "--exact", "--ignored", "--nocapture"])
        .output()
        .expect("probe child runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{spec} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM_KB="))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{spec} printed no VmHWM: {stdout}"))
}

/// The child side: replay the configuration named in `argv[0]` and print
/// this process's peak RSS. A no-op when run directly.
#[test]
#[ignore = "re-executed as a child by windowed_replay_peak_rss_stays_near_windows_off"]
fn rss_probe() {
    let Some(spec) = std::env::args()
        .next()
        .and_then(|a| a.strip_prefix(PROBE).map(str::to_owned))
    else {
        return;
    };
    let (shards, window) = spec.split_once(':').expect("SHARDS:WINDOW");
    let shards: usize = shards.parse().expect("shard count");
    let window: Option<f64> = (window != "off").then(|| window.parse().expect("width"));
    let curve = RateCurve::parse("diurnal:base=40,amp=30,period=86400").expect("curve");
    let figures = replay(
        Scale::Quick,
        None,
        None,
        10_000_000,
        LadderChoice::TwoState,
        shards,
        CacheChoice::None,
        FaultChoice::None,
        None,
        window,
        Some(&curve),
    )
    .expect("replay runs");
    if window.is_some() {
        assert!(
            figures[1].rows.len() > 4_000,
            "60 s windows over ~250 000 s"
        );
    }
    println!("VmHWM_KB={}", vmhwm_kb());
}

#[test]
#[ignore = "smoke lane: cargo test -- --ignored"]
fn windowed_replay_peak_rss_stays_near_windows_off() {
    for shards in [1usize, 2] {
        let off = probe(shards, None);
        let on = probe(shards, Some(60.0));
        eprintln!("S={shards}: VmHWM windows off {off} kB, --window 60 {on} kB");
        assert!(
            on <= off + MARGIN_KB,
            "S={shards}: windowed peak {on} kB exceeds windows-off {off} kB + {MARGIN_KB} kB"
        );
    }
}
