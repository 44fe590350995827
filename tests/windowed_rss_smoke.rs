//! Bounded-memory smoke for windowed replays (the `--ignored` CI lane,
//! `cargo test -q -- --ignored`): a 10M-request diurnal replay in 60 s
//! windows — about 4 200 windows on the 100-disk quick fleet — must peak
//! within 8 MB of the same replay with windows off, at one and at two
//! shards. Closed windows are folded and dropped as the clock passes
//! them, so only the open windows stay resident.
//!
//! The same replay in 3600 s windows builds a deep backlog at each
//! diurnal peak, and shortest-job-first must peak near FIFO there: SJF
//! keeps one 32-byte entry per pending request, as FIFO does, and a
//! 16-byte heap key only for entries a size-ordered pop has needed.
//!
//! Each configuration runs in a fresh child process (this test binary,
//! re-executed with the configuration in `argv[0]`) that reports its own
//! peak resident set from `/proc/self/status`, so the runs cannot inflate
//! each other's figure.

use std::os::unix::process::CommandExt;
use std::process::Command;

use spindown::core::{CacheChoice, FaultChoice, LadderChoice, RateCurve};
use spindown::experiments::replay::replay_under;
use spindown::experiments::Scale;
use spindown::sim::discipline::DisciplineChoice;

/// `argv[0]` prefix marking a probe child; the rest is
/// `SHARDS:WINDOW:DISCIPLINE` (`WINDOW` = `off` or seconds, `DISCIPLINE`
/// as `--discipline` spells it).
const PROBE: &str = "windowed-rss-probe:";
/// Allowed peak-RSS growth from turning windows on.
const MARGIN_KB: u64 = 8 * 1024;
/// Allowed peak-RSS growth from running SJF instead of FIFO.
const SJF_MARGIN_KB: u64 = 4 * 1024;

fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Run one configuration in a child process and return its peak RSS.
fn probe(shards: usize, window: Option<f64>, discipline: &str) -> u64 {
    let spec = format!(
        "{PROBE}{shards}:{}:{discipline}",
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
#[ignore = "re-executed as a child by the two smoke tests below"]
fn rss_probe() {
    let Some(spec) = std::env::args()
        .next()
        .and_then(|a| a.strip_prefix(PROBE).map(str::to_owned))
    else {
        return;
    };
    let mut fields = spec.split(':');
    let (Some(shards), Some(window), Some(discipline), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        panic!("{spec:?} is not SHARDS:WINDOW:DISCIPLINE");
    };
    let shards: usize = shards.parse().expect("shard count");
    let window: Option<f64> = (window != "off").then(|| window.parse().expect("width"));
    let discipline = DisciplineChoice::parse(discipline).expect("discipline");
    let curve = RateCurve::parse("diurnal:base=40,amp=30,period=86400").expect("curve");
    let figures = replay_under(
        discipline,
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
    if let Some(width) = window {
        let rows = figures[1].rows.len();
        assert!(
            rows as f64 > 240_000.0 / width,
            "{rows} windows of {width} s over ~250 000 s"
        );
    }
    println!("VmHWM_KB={}", vmhwm_kb());
}

#[test]
#[ignore = "smoke lane: cargo test -- --ignored"]
fn windowed_replay_peak_rss_stays_near_windows_off() {
    for shards in [1usize, 2] {
        let off = probe(shards, None, "fifo");
        let on = probe(shards, Some(60.0), "fifo");
        eprintln!("S={shards}: VmHWM windows off {off} kB, --window 60 {on} kB");
        assert!(
            on <= off + MARGIN_KB,
            "S={shards}: windowed peak {on} kB exceeds windows-off {off} kB + {MARGIN_KB} kB"
        );
    }
}

#[test]
#[ignore = "smoke lane: cargo test -- --ignored"]
fn sjf_deep_backlog_peak_rss_stays_near_fifo() {
    let fifo = probe(1, Some(3600.0), "fifo");
    let sjf = probe(1, Some(3600.0), "sjf");
    eprintln!("S=1, --window 3600: VmHWM fifo {fifo} kB, sjf {sjf} kB");
    assert!(
        sjf <= fifo + SJF_MARGIN_KB,
        "sjf peak {sjf} kB exceeds fifo {fifo} kB + {SJF_MARGIN_KB} kB"
    );
}
