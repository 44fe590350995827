//! `perfbench` — the replay benchmark's measuring program. `run.py` drives
//! it; each invocation does one job and prints one JSON line.
//!
//! ```text
//! perfbench gen    --seed N [--horizon S] --out FILE
//! perfbench replay --workload W --seed N [--horizon S] [--csv FILE] [--log-path FILE]
//!                  [--shards N] [--log off|csv|digest] [--without cache,faults,windows]
//! perfbench layers --workload W --seed N [--horizon S] [--csv FILE]
//!                  [--event-depth N] [--queue-depth N] [--resp-mean S]
//! perfbench calib
//! ```
//!
//! `gen` writes the CSV trace `csv_log_s2` replays. `replay` runs one
//! workload through the `experiments replay` pipeline (optionally with
//! layers switched off or the shard count changed) and reports its timings,
//! its outputs for checking and the process's peak RSS. `layers` times
//! single layers by driving their public functions alone. `calib` times a
//! fixed loop that gauges the host's current speed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::{
    catalog, drain, planner, replay_timed, shard_imbalance, summary_columns, summary_row,
    window_rows, with_source, write_csv_trace, BoxError, Spec, Workload,
};
use spindown_sim::discipline::RequestQueue;
use spindown_sim::event::{Event, EventQueue};
use spindown_sim::{CompletionLogMode, DisciplineChoice, StreamingHistogram};
use spindown_workload::demux;

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(start, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(start: Instant, args: &[String]) -> Result<String, BoxError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("missing command (gen|replay|layers|calib)")?;
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "gen" => {
            let out = PathBuf::from(opts.required("out")?);
            let horizon = opts.f64_or("horizon", Workload::CsvLogS2.default_horizon())?;
            let n = write_csv_trace(opts.u64("seed")?, horizon, &out)?;
            let mut j = Json::default();
            j.int("requests", n as u64);
            Ok(j.finish())
        }
        "replay" => replay(start, &opts),
        "layers" => layers(&opts),
        "calib" => {
            let mut j = Json::default();
            j.num("calib_s", calib());
            Ok(j.finish())
        }
        other => Err(format!("unknown command {other:?} (gen|replay|layers|calib)").into()),
    }
}

/// `--key value` pairs.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Self, BoxError> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, BoxError> {
        self.get(key)
            .ok_or_else(|| format!("--{key} is required").into())
    }

    fn u64(&self, key: &str) -> Result<u64, BoxError> {
        let v = self.required(key)?;
        v.parse()
            .map_err(|_| format!("--{key} needs a whole number, got {v:?}").into())
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, BoxError> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.u64(key),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, BoxError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
                _ => Err(format!("--{key} needs a non-negative number, got {v:?}").into()),
            },
        }
    }

    fn workload(&self) -> Result<Workload, BoxError> {
        let name = self.required("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}").into())
    }

    /// The workload, its input and its spec with this invocation's
    /// overrides applied.
    fn setup(&self) -> Result<(Workload, perfbench::Input, Spec), BoxError> {
        let workload = self.workload()?;
        let horizon = self.f64_or("horizon", workload.default_horizon())?;
        let csv = PathBuf::from(self.get("csv").unwrap_or("trace.csv"));
        let log_path = PathBuf::from(self.get("log-path").unwrap_or("completions.csv"));
        let input = workload.input(self.u64("seed")?, horizon, &csv);
        let mut spec = workload.spec(&log_path);
        if let Some(s) = self.get("shards") {
            spec.shards = s
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--shards needs a positive count, got {s:?}"))?;
        }
        match self.get("log") {
            None => {}
            Some("off") => spec.log = CompletionLogMode::Off,
            Some("digest") => spec.log = CompletionLogMode::Digest,
            Some("csv") => {
                spec.log = CompletionLogMode::Csv {
                    path: log_path.display().to_string(),
                }
            }
            Some(other) => return Err(format!("--log needs off|csv|digest, got {other:?}").into()),
        }
        for layer in self.get("without").unwrap_or("").split(',') {
            match layer {
                "" => {}
                "cache" => spec.cache = spindown_core::CacheChoice::None,
                "faults" => spec.faults = spindown_core::FaultChoice::None,
                "windows" => spec.window = None,
                other => {
                    return Err(
                        format!("--without takes cache,faults,windows, got {other:?}").into(),
                    )
                }
            }
        }
        Ok((workload, input, spec))
    }
}

fn replay(start: Instant, opts: &Opts) -> Result<String, BoxError> {
    let (_, input, spec) = opts.setup()?;
    let timed = replay_timed(&spec, &input, start)?;
    let r = &timed.report;
    let mut j = Json::default();
    j.raw("config", Json::string(&format!("{input:?} {spec:?}")));
    j.num("setup_s", timed.setup_s);
    j.num("plan_s", timed.plan_s);
    j.num("open_s", timed.open_s);
    j.num("run_s", timed.run_s);
    j.int("fleet", timed.fleet as u64);
    j.int("shards", spec.shards as u64);
    j.int("requests", r.responses.len() as u64);
    j.strs("columns", &summary_columns(r));
    j.nums("row", &summary_row(r));
    let windows = window_rows(r);
    let rows: Vec<String> = windows.iter().map(|row| Json::list(row)).collect();
    j.raw("windows", format!("[{}]", rows.join(",")));
    j.int("spin_ups", r.spin_ups);
    j.int("peak_disk_queue", r.peak_disk_queue as u64);
    j.int("peak_event_queue", r.peak_event_queue_max() as u64);
    j.num("imbalance", shard_imbalance(r, spec.shards));
    let cache = r.cache.unwrap_or_default();
    j.int("cache_hits", cache.hits);
    j.int("cache_misses", cache.misses);
    j.num("cache_hit_ratio", cache.hit_ratio());
    j.int("cache_evicted_bytes", cache.evicted_bytes);
    j.int("retried", r.availability.as_ref().map_or(0, |a| a.retried));
    let log = r.completion_log;
    j.int("log_records", log.map_or(0, |l| l.records));
    j.int("log_bytes", log.map_or(0, |l| l.bytes));
    j.int("log_fnv1a", log.map_or(0, |l| l.fnv1a));
    j.num("vmhwm_mb", vmhwm_mb()?);
    Ok(j.finish())
}

/// Median of three trials of `f`, which returns seconds.
fn median3(mut f: impl FnMut() -> Result<f64, BoxError>) -> Result<f64, BoxError> {
    let mut v = [f()?, f()?, f()?];
    v.sort_by(f64::total_cmp);
    Ok(v[1])
}

fn layers(opts: &Opts) -> Result<String, BoxError> {
    let (_, input, spec) = opts.setup()?;
    let catalog = catalog();
    let mut j = Json::default();

    // First, while the process-wide pre-scan cache is cold: the source open
    // (the CSV horizon pre-scan), then the plain drain.
    let (open_s, requests) = with_source!(&input, &catalog, |src, open_s| (
        open_s,
        drain(src, |_| {})?.0
    ));
    j.num("open_s", open_s);
    j.int("requests", requests);
    let source_s = median3(|| {
        Ok(with_source!(&input, &catalog, |src, _o| drain(
            src,
            |_| {}
        )?
        .1))
    })?;
    j.num("source_s", source_s);

    // The cache walk: every request probes the hierarchy at its global
    // scope. Without a cache this is the plain drain again.
    let hierarchy_s = median3(|| {
        let mut cache = spec.cache.hierarchy().map(|h| h.build(1));
        Ok(with_source!(&input, &catalog, |src, _o| drain(src, |r| {
            if let Some(h) = cache.as_mut() {
                let size = catalog.file(r.file).size_bytes;
                std::hint::black_box(h.access(r.file, size));
            }
        })?
        .1))
    })?;
    j.num("hierarchy_s", hierarchy_s);

    // The demux at the workload's shard count: a pump thread feeding one
    // draining thread per shard. At one shard the engine reads the source
    // directly, so this is the plain drain again.
    let plan = planner(&spec).plan(&catalog, input.plan_rate())?;
    let file_to_disk = plan.assignment.item_to_disk(catalog.len());
    let demux_s = median3(|| {
        Ok(with_source!(&input, &catalog, |src, _o| {
            if spec.shards <= 1 {
                drain(src, |_| {})?.1
            } else {
                let t = Instant::now();
                let (pump, receivers) = demux(src, spec.shards);
                std::thread::scope(|s| -> Result<(), BoxError> {
                    let map = &file_to_disk;
                    let handles: Vec<_> = receivers
                        .into_iter()
                        .map(|rx| s.spawn(move || drain(rx, |_| {}).map(|(n, _)| n).ok()))
                        .collect();
                    pump.run(map);
                    for h in handles {
                        h.join()
                            .map_err(|_| "demux drain thread panicked")?
                            .ok_or("demux drain failed")?;
                    }
                    Ok(())
                })?;
                t.elapsed().as_secs_f64()
            }
        }))
    })?;
    j.num("demux_s", demux_s);

    let event_depth = opts.u64_or("event-depth", 1)?.max(1) as usize;
    let queue_depth = opts.u64_or("queue-depth", 1)?.max(1) as usize;
    let resp_mean = opts.f64_or("resp-mean", 1.0)?;
    j.num("event_ns_per_op", median3(|| Ok(event_ns(event_depth)))?);
    j.num(
        "discipline_ns_per_op",
        median3(|| Ok(discipline_ns(queue_depth)))?,
    );
    j.num("record_ns", median3(|| Ok(record_ns(resp_mean)))?);
    Ok(j.finish())
}

/// Operations per micro-benchmark trial.
const MICRO_OPS: usize = 2_000_000;

/// Deterministic uniform draws in (0, 1] (xorshift64*), so every trial
/// sees the same inputs.
struct Uniform(u64);

impl Uniform {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential draw with mean `mean`.
    fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.next().ln()
    }
}

/// ns per schedule+pop pair on an `EventQueue` holding `depth` events.
fn event_ns(depth: usize) -> f64 {
    let mut u = Uniform(0x9E37_79B9_7F4A_7C15);
    let deltas: Vec<f64> = (0..4096).map(|_| u.exp(1.0)).collect();
    let mut q = EventQueue::new();
    for (i, d) in deltas.iter().cycle().take(depth).enumerate() {
        q.schedule(d * depth as f64, Event::PhaseDone { disk: i });
    }
    let t = Instant::now();
    for i in 0..MICRO_OPS {
        let (now, ev) = q.pop().expect("queue stays at depth");
        q.schedule(now + deltas[i % deltas.len()] * depth as f64, ev);
    }
    std::hint::black_box(&q);
    t.elapsed().as_nanos() as f64 / MICRO_OPS as f64
}

/// ns per push+pop pair on a FIFO `RequestQueue` holding `depth` requests.
fn discipline_ns(depth: usize) -> f64 {
    let mut q = RequestQueue::new(DisciplineChoice::Fifo);
    for i in 0..depth {
        q.push(i, 1 << 20, i as f64, i as u64);
    }
    let t = Instant::now();
    for i in depth..depth + MICRO_OPS {
        q.push(i, 1 << 20, i as f64, i as u64);
        std::hint::black_box(q.pop(i as f64));
    }
    t.elapsed().as_nanos() as f64 / MICRO_OPS as f64
}

/// ns per `StreamingHistogram::record` of exponential samples with the
/// workload's mean response.
fn record_ns(mean: f64) -> f64 {
    let mut u = Uniform(0xD1B5_4A32_D192_ED03);
    let samples: Vec<f64> = (0..65_536).map(|_| u.exp(mean)).collect();
    let mut h = StreamingHistogram::new();
    let t = Instant::now();
    for i in 0..MICRO_OPS {
        h.record(samples[i % samples.len()]);
    }
    std::hint::black_box(&h);
    t.elapsed().as_nanos() as f64 / MICRO_OPS as f64
}

/// Entries of the calibration loop's table (8 MB of `u64`).
const CALIB_TABLE: usize = 1 << 20;

/// Seconds a fixed, deterministic loop takes: 1M pop+push steps on a
/// 512-entry binary heap of event times, each also reading the table at a
/// pseudo-random index — the kind of work the simulator does. It uses only
/// the standard library, so no change to the repository moves it; `run.py`
/// times it around every end-to-end replay to read the host's speed.
fn calib() -> f64 {
    let mut u = Uniform(0x9E37_79B9_7F4A_7C15);
    let t = Instant::now();
    let table: Vec<u64> = (0..CALIB_TABLE as u64).collect();
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
        (0..512).map(|i| Reverse((u.next().to_bits(), i))).collect();
    let (mut acc, mut idx) = (0u64, 1usize);
    for _ in 0..1_000_000 {
        // Positive f64s order like their bit patterns.
        let Reverse((at, id)) = heap.pop().expect("the heap stays full");
        idx = idx
            .wrapping_mul(0x27BB_2EE6_87B0_B0FD)
            .wrapping_add((id ^ acc) as usize)
            % CALIB_TABLE;
        acc = acc.wrapping_add(table[idx]);
        let next = f64::from_bits(at) + u.exp(1.0);
        heap.push(Reverse((next.to_bits(), id ^ acc)));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// This process's peak resident set (`VmHWM`), MB.
fn vmhwm_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A one-line JSON object, written by hand.
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn number(x: f64) -> String {
        if x.is_finite() {
            format!("{x:?}")
        } else {
            "null".to_owned()
        }
    }

    fn list(xs: &[f64]) -> String {
        let items: Vec<String> = xs.iter().map(|&x| Self::number(x)).collect();
        format!("[{}]", items.join(","))
    }

    fn raw(&mut self, key: &str, value: String) {
        self.0.push(format!("\"{key}\":{value}"));
    }

    fn num(&mut self, key: &str, x: f64) {
        self.raw(key, Self::number(x));
    }

    fn int(&mut self, key: &str, n: u64) {
        self.raw(key, n.to_string());
    }

    fn nums(&mut self, key: &str, xs: &[f64]) {
        self.raw(key, Self::list(xs));
    }

    fn string(s: &str) -> String {
        format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
    }

    fn strs(&mut self, key: &str, xs: &[&str]) {
        let items: Vec<String> = xs.iter().map(|s| Self::string(s)).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}
