#!/usr/bin/env python3
"""Replay benchmark: build `perfbench`, run one workload, check its outputs
and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. With `--trace 0` it times repeated
replays of the workload, each in a fresh process and each bracketed by the
calibration loop, for `--seconds` and prints the end-to-end metrics
(medians over the replays, rescaled to the loop's reference speed). With `--trace 1`
it runs the layer ladder instead (replays with one layer switched off, and
single layers driven alone) and prints the per-layer metrics. The last line
of standard output is the result object; the lines before it hold every
replay's raw figures (`reps`, or `passes` when traced) and the run's inputs
(`manifest`: seed, workload arguments, commit, cores, rustc).

Every replay is checked against a reference replay made before timing
starts, on a different path where one exists, and a small pinned instance
of the workload against golden.json (`--update-golden` rewrites it). A
replay that errors or disagrees counts as failed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("poisson_s1", "csv_log_s2", "diurnal_cached_windowed")
# Replays per end-to-end run, at least, whatever --seconds allows.
MIN_REPS = 3
# A run must end within 180 s; stop starting replays after this many.
DEADLINE_S = 140.0
# Seconds `perfbench calib` takes on the reference machine (2-vCPU Xeon VM)
# at its usual speed; end-to-end times are rescaled to that speed.
CALIB_REF_S = 0.12
# Relative tolerance for float outputs: covers a documented re-summation.
REL_TOL = 1e-9
# Summary-row columns compared within REL_TOL; every other column is a
# count and must match exactly.
FLOAT_COLUMNS = {"resp_s", "resp_p95_s", "resp_p99_s", "energy_j", "availability",
                 "degraded_p95_s"}
# Window-row layout (perfbench::window_rows): which entries are floats.
WINDOW_FLOATS = (False, False, False, True, True, True, True, False)
# Each workload's small pinned instance (seed 0, this many simulated
# seconds), whose outputs golden.json holds. A change that only speeds the
# simulator up must reproduce them.
GOLDEN = HERE / "golden.json"
GOLDEN_HORIZON = {"poisson_s1": "20000", "csv_log_s2": "20000",
                  "diurnal_cached_windowed": "3600"}
PINNED = ("columns", "row", "windows", "spin_ups", "peak_disk_queue", "cache_hits",
          "cache_misses", "retried", "log_records", "log_bytes", "log_fnv1a")


class Failed(Exception):
    """A replay that errored or produced output other than its reference."""


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=str(target)),
        stdout=sys.stderr, check=True, timeout=900)
    return target / "release" / "perfbench"


def source_identity():
    """The commit, or outside a git checkout a digest of every source file."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-sha256:" + digest.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip()
    except OSError:
        return "unknown"


class Bench:
    """Runs the `perfbench` binary for one workload and seed."""

    def __init__(self, binary, workload, seed, io_dir):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.trace = io_dir / "trace.csv"
        self.log = io_dir / "completions.csv"
        self.common = ["--workload", workload, "--seed", str(seed),
                       "--csv", str(self.trace), "--log-path", str(self.log)]
        # The workload's input and options as the program echoes them.
        self.config = None

    def call(self, cmd, *args):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run([str(self.binary), cmd, *args], capture_output=True, text=True,
                              timeout=DEADLINE_S)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise Failed(f"perfbench {cmd} {' '.join(args)}: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["wall_s"] = wall
        out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return out

    def prepare(self):
        """Write the workload's input file (outside any timing)."""
        if self.workload == "csv_log_s2":
            self.call("gen", "--seed", str(self.seed), "--out", str(self.trace))

    def calib(self):
        """Seconds the fixed calibration loop takes now."""
        return self.call("calib")["calib_s"]

    def replay(self, *overrides):
        out = self.call("replay", *self.common, *overrides)
        self.log.unlink(missing_ok=True)
        if not overrides:
            self.config = out["config"]
        return out

    def golden(self):
        """The outputs of the workload's pinned instance."""
        horizon = GOLDEN_HORIZON[self.workload]
        trace = self.trace.with_name("golden.csv")
        if self.workload == "csv_log_s2":
            self.call("gen", "--seed", "0", "--horizon", horizon, "--out", str(trace))
        out = self.call("replay", "--workload", self.workload, "--seed", "0",
                        "--horizon", horizon, "--csv", str(trace), "--log-path", str(self.log))
        self.log.unlink(missing_ok=True)
        return {k: out[k] for k in PINNED}

    def layers(self, a):
        return self.call("layers", *self.common,
                         "--event-depth", str(max(1, a["peak_event_queue"])),
                         "--queue-depth", str(max(1, a["peak_disk_queue"])),
                         "--resp-mean", repr(max(a["row"][1], 1e-6)))


def close(got, want):
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def check(got, want, same_path=True):
    """Differences between a replay's outputs and its reference's. With
    `same_path=False` the two ran at different shard counts, so the per-loop
    event-heap peak may differ."""
    problems = []
    if got["columns"] != want["columns"]:
        return [f"columns {got['columns']} != {want['columns']}"]
    for name, g, w in zip(got["columns"], got["row"], want["row"]):
        if name == "peak_event_queue" and not same_path:
            continue
        ok = close(g, w) if name in FLOAT_COLUMNS else g == w
        if not ok:
            problems.append(f"{name}: {g!r} != {w!r}")
    for key in ("spin_ups", "peak_disk_queue", "cache_hits", "cache_misses", "retried",
                "log_records", "log_bytes", "log_fnv1a"):
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]} != {want[key]}")
    if len(got["windows"]) != len(want["windows"]):
        problems.append(f"{len(got['windows'])} windows != {len(want['windows'])}")
    for i, (g, w) in enumerate(zip(got["windows"], want["windows"])):
        for j, is_float in enumerate(WINDOW_FLOATS):
            if not (close(g[j], w[j]) if is_float else g[j] == w[j]):
                problems.append(f"window {i} column {j}: {g[j]!r} != {w[j]!r}")
    return problems + invariants(got)


def invariants(r):
    """Window completions and energy sum to the run totals."""
    if not r["windows"]:
        return []
    cols = r["columns"]
    completions = sum(w[2] for w in r["windows"])
    energy = sum(w[6] for w in r["windows"])
    problems = []
    if completions != r["row"][cols.index("requests")]:
        problems.append(f"window completions {completions} != requests")
    if not close(energy, r["row"][cols.index("energy_j")]):
        problems.append(f"window energy {energy!r} != run energy")
    return problems


class Ledger:
    """Counts replays and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def checked(self, run, reference=None, same_path=True):
        """`run()` and check it against `reference` (or only its invariants)."""
        self.attempted += 1
        try:
            out = run()
        except (Failed, subprocess.TimeoutExpired, ValueError) as e:
            self.fail([str(e)])
            return None
        self.fail(check(out, reference, same_path) if reference else invariants(out))
        return out

    def fail(self, problems):
        if problems:
            self.failed += 1
            print("check failed: " + "; ".join(problems[:5]), file=sys.stderr)


def reference(bench):
    """Overrides for the reference replay, and whether it runs the same path
    as the timed ones. Where the outputs allow, it takes another path: the
    Poisson stream through the two-shard demux and merge, the CSV trace
    unsharded. The diurnal workload's global cache evicts, which is exact
    only unsharded, so its reference is a second unsharded replay."""
    if bench.workload == "poisson_s1":
        return ("--shards", "2"), False
    if bench.workload == "csv_log_s2":
        return ("--shards", "1"), False
    return (), True


def end_to_end(bench, seconds, ledger):
    overrides, same_path = reference(bench)
    want = ledger.checked(lambda: bench.replay(*overrides))
    if want is None:
        raise Failed("the reference replay failed")
    reps = []
    before = bench.calib()
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + last > seconds or elapsed > DEADLINE_S - 2 * last:
            break
        out = ledger.checked(bench.replay, want, same_path)
        after = bench.calib()
        last = time.monotonic() - start - elapsed
        if out is not None:
            out["slowdown"] = (before + after) / 2 / CALIB_REF_S
            reps.append(out)
        before = after
    if not reps:
        raise Failed("no replay completed")
    print(json.dumps({"reps": [{k: r[k] for k in ("requests", "run_s", "setup_s", "slowdown",
                                                  "plan_s", "open_s", "vmhwm_mb", "cpu_s")}
                               for r in reps]}))
    # The host's speed swings both ways, up to 2x in phases of seconds to
    # minutes, and no statistic of raw replay times holds still across runs.
    # So each replay's times are rescaled by the host's slowdown around it
    # (the calibration loop's time just before and just after the replay,
    # over its reference time), and each metric is the median over the
    # run's replays. The calibration loop shares no code with the
    # repository, so a slower program still reads slower.
    return {
        "req_per_s": (statistics.median(r["requests"] / r["run_s"] * r["slowdown"]
                                        for r in reps), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] / r["slowdown"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["vmhwm_mb"] for r in reps), "MB"),
    }


def ladder(bench, ledger):
    """One pass of the layer ladder: the per-layer metrics.

    Every configuration replays twice and the faster replay counts, which
    rejects one-off stalls of a shared machine. A layer's delta is the
    workload's replay minus the replay with that layer off. A layer the
    workload does not switch on is measured between the workload's own two
    replays instead, so its delta reads as run-to-run noise around zero."""

    def fastest(*overrides, reference=None, same_path=True):
        first = ledger.checked(lambda: bench.replay(*overrides), reference, same_path)
        second = ledger.checked(lambda: bench.replay(*overrides), first or reference, True)
        if first is None or second is None:
            raise Failed("a ladder replay failed")
        return first, second, min((first, second), key=lambda r: r["run_s"])

    first, second, a = fastest()
    noise = (first, second)

    def versus(enabled, *overrides, reference=None):
        """(on, off) replays for a layer: off switches it off, when it is on."""
        if not enabled:
            return noise
        return a, fastest(*overrides, reference=reference, same_path=False)[2]

    wl = bench.workload
    logged = a["log_records"] > 0
    # Switching the log, the windows or the shard count off leaves the
    # simulated results unchanged, so those replays are checked against the
    # workload's; switching faults off changes them.
    windows = versus(bool(a["windows"]), "--without", "windows", reference={**a, "windows": []})
    faults = versus(wl == "diurnal_cached_windowed", "--without", "faults")
    log = versus(logged, "--log", "off",
                 reference={**a, "log_records": 0, "log_bytes": 0, "log_fnv1a": 0})
    digest = (fastest("--log", "digest", reference=a, same_path=False)[2], log[1]) \
        if logged else noise
    shard = versus(a["shards"] > 1, "--shards", "1", reference=a)
    bare = fastest("--shards", "1", "--log", "off", "--without", "cache,faults,windows")[2]
    layers = bench.layers(a)

    n = layers["requests"]
    ns = lambda s: s / n * 1e9  # noqa: E731 - seconds over the stream to ns/request
    delta = lambda pair: ns(pair[0]["run_s"] - pair[1]["run_s"])  # noqa: E731
    records = a["log_records"] or n
    m = {
        "core.planner.plan_s": (a["plan_s"], "s"),
        "workload.source.ns_per_req": (ns(layers["source_s"]), "ns"),
        "workload.source.prescan_s": (layers["open_s"], "s"),
        "workload.shard.demux_ns_per_req": (ns(layers["demux_s"] - layers["source_s"]), "ns"),
        "sim.engine.ns_per_req": (ns(bare["run_s"] - layers["source_s"]), "ns"),
        "sim.event.ns_per_op": (layers["event_ns_per_op"], "ns"),
        "sim.discipline.ns_per_op": (layers["discipline_ns_per_op"], "ns"),
        "sim.metrics.record_ns": (layers["record_ns"], "ns"),
        "sim.hierarchy.ns_per_access": (ns(layers["hierarchy_s"] - layers["source_s"]), "ns"),
        "sim.hierarchy.hit_ratio": (a["cache_hit_ratio"], "ratio"),
        "sim.hierarchy.evictions": (a["cache_evicted_bytes"], "bytes"),
        "sim.windows.delta_ns_per_req": (delta(windows), "ns"),
        "sim.windows.rss_mb": (windows[0]["vmhwm_mb"] - windows[1]["vmhwm_mb"], "MB"),
        "sim.fault.delta_ns_per_req": (delta(faults), "ns"),
        "sim.fault.retried": (a["retried"], "count"),
        "sim.complog.ns_per_record": (delta(log) * n / records, "ns"),
        "sim.complog.digest_ns_per_record": (delta(digest) * n / records, "ns"),
        "sim.complog.bytes": (a["log_bytes"], "bytes"),
        "sim.shard.speedup": (shard[1]["run_s"] / shard[0]["run_s"], "x"),
        "sim.shard.imbalance": (a["imbalance"], "ratio"),
        "sim.engine.spin_ups": (a["spin_ups"], "count"),
        "sim.engine.peak_disk_queue": (a["peak_disk_queue"], "count"),
        "sim.engine.peak_event_queue": (a["peak_event_queue"], "count"),
        "process.cpu_s": (a["cpu_s"], "s"),
    }
    explained = sum(m[k][0] for k in (
        "workload.source.ns_per_req", "workload.shard.demux_ns_per_req",
        "sim.engine.ns_per_req", "sim.hierarchy.ns_per_access",
        "sim.windows.delta_ns_per_req", "sim.fault.delta_ns_per_req"))
    explained += delta(log)
    m["ledger.residual_ns_per_req"] = (ns(a["run_s"]) - explained, "ns")
    return m


def traced(bench, seconds, ledger):
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(ladder(bench, ledger))
    print(json.dumps({"passes": [{k: v for k, (v, _) in p.items()} for p in passes]}))
    return {k: (statistics.median(p[k][0] for p in passes), unit)
            for k, (_, unit) in passes[0].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite golden.json from the current program and exit")
    args = ap.parse_args()
    if not args.update_golden and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    binary = build()
    io_root = ROOT / ".bench_io"
    io_dir = io_root / f"{args.workload or 'golden'}-{args.seed}-{os.getpid()}"
    io_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.update_golden:
            pinned = {w: Bench(binary, w, 0, io_dir).golden() for w in WORKLOADS}
            GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
            return
        bench = Bench(binary, args.workload, args.seed, io_dir)
        ledger = Ledger()
        ledger.checked(bench.golden, json.loads(GOLDEN.read_text())[args.workload])
        bench.prepare()
        metrics = (traced if args.trace else end_to_end)(bench, args.seconds, ledger)
        print(json.dumps({"manifest": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workload_args": bench.config,
            "source": source_identity(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "rustc": rustc_version()}}))
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
        try:
            io_root.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (Failed, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
