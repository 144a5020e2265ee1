"""Benchmark: host time of a fresh-process (design x app) sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 40 --trace 0

A user of this simulator runs a sweep of every L2 design over every app
trace, usually as a fresh ``repro sweep`` process.  Each timed sweep here
is such a process (``perfbench/sweep.py``) over the full grid at
``LENGTH`` accesses per trace, one worker, no result store, so every
design is really simulated.  The workloads differ only in what the
persistent L2-stream cache holds when the sweep starts:

* ``cold`` — nothing: every sweep generates and L1-filters each app
  trace (the front end) before replaying the designs;
* ``warm`` — every stream: each sweep memory-maps the cached columns
  and only replays the designs, so the front end is bypassed.

Set-up (repeated ``SETUP_REPEATS`` times, median reported) builds every
stream of the grid into an empty cache, in a fresh process; the warm
workload then sweeps over that cache.

Host speed on a shared machine drifts by a quarter within seconds, for
every process alike.  So a fixed calibration loop that uses no simulator
code runs right before and after each timed child, and every reported
time is scaled to the host speed at which that loop takes
``CALIB_NOMINAL_S`` (its typical time on a 2-vCPU Intel Xeon VM with
Python 3.11 and NumPy 2.4).  Raw wall times go to stderr.

Correctness: each sweep checks per-job invariants; every sweep of a run
must give bit-identical results; and after timing, a few apps are
re-simulated with the stream cache off (streams built in memory) and the
reference simulation engine (``REPRO_FASTSIM=0``), which must match the
timed results.  A job whose result differs counts as failed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (self time per span of the program's own tracing, and its
stream-cache and dispatch counters).  The last stdout line is the JSON
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SWEEP = Path(__file__).resolve().parent / "sweep.py"
WORKLOADS = ("cold", "warm")
#: Accesses per app trace; long enough that the streams fill the 1 MB L2.
LENGTH = 240_000
SETUP_REPEATS = 3
MIN_SWEEPS = 3
#: Apps re-simulated on the reference engine after timing.
REFERENCE_APPS = 2
CHILD_TIMEOUT_S = 60
CALIB_NOMINAL_S = 0.025

#: Per-layer metrics: name -> span whose self time it is.
LAYER_SPANS = {
    "trace_generate_s": "trace.generate",
    "l1_filter_s": "l1.filter",
    "stream_load_s": "stream.load",
    "replay_s": "replay",
    "assemble_s": "assemble",
    "job_other_s": "job",
}
#: Per-layer metrics: name -> the program's counter.
LAYER_COUNTERS = {
    "streamcache_hits": "streamcache.hit",
    "streamcache_misses": "streamcache.miss",
    "streamcache_builds": "streamcache.build",
    "fastsim_replays": "pipeline.dispatch.fastsim",
}


class ChildError(RuntimeError):
    """A child process failed or printed no report."""


def calibrate():
    """Seconds the calibration loop takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.sort(np.random.default_rng(acc).integers(0, 1 << 40, 400_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_child(mode, cache_dir, seed, trace=False, apps=None, env=None):
    """Run ``sweep.py`` once between two calibrations.

    Returns (wall seconds, the factor that scales them to nominal host
    speed, the child's JSON report).
    """
    cmd = [sys.executable, str(SWEEP), mode, "--cache-dir", str(cache_dir),
           "--seed", str(seed), "--length", str(LENGTH)]
    if apps:
        cmd += ["--apps", *apps]
    if trace:
        cmd.append("--trace")
    # the children see only the cache settings chosen here
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    child_env.update(env or {})
    before = calibrate()
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    scale = CALIB_NOMINAL_S / ((before + calibrate()) / 2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return wall, scale, json.loads(lines[-1])


def digests(report):
    return {job["label"]: job["digest"] for job in report["jobs"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def measure(args, work):
    trace = bool(args.trace)

    setup_s = []
    warm_dir = None
    for i in range(SETUP_REPEATS):
        cache_dir = work / f"setup{i}"
        wall, scale, _ = run_child("prebuild", cache_dir, args.seed)
        setup_s.append(wall * scale)
        if warm_dir is not None:
            shutil.rmtree(warm_dir)
        warm_dir = cache_dir

    reports, walls, scales = [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(reports) < MIN_SWEEPS:
        if args.workload == "cold":
            cache_dir = work / f"cold{len(reports)}"
        else:
            cache_dir = warm_dir
        wall, scale, report = run_child("sweep", cache_dir, args.seed, trace=trace)
        if args.workload == "cold":
            shutil.rmtree(cache_dir)
        reports.append(report)
        walls.append(wall)
        scales.append(scale)

    # A job fails when its result differs from the first sweep's, or from
    # the reference engine's on a freshly built stream.
    expected = digests(reports[0])
    attempted = sum(len(r["jobs"]) for r in reports)
    failed = sum(digests(r).get(label) != digest
                 for r in reports[1:] for label, digest in expected.items())

    apps = sorted({job["app"] for job in reports[0]["jobs"]})
    ref_apps = [apps[(args.seed + k * len(apps) // REFERENCE_APPS) % len(apps)]
                for k in range(REFERENCE_APPS)]
    _, _, ref = run_child("sweep", work / "reference", args.seed, apps=ref_apps,
                          env={"REPRO_CACHE_DISABLE": "1", "REPRO_FASTSIM": "0"})
    attempted += len(ref["jobs"])
    for label, digest in digests(ref).items():
        if expected.get(label) != digest:
            print(f"error: {label} differs from the reference engine", file=sys.stderr)
            failed += 1

    if trace:
        metrics = layer_metrics(reports, scales)
    else:
        job_ms = [job["wall_s"] * scale * 1e3
                  for r, scale in zip(reports, scales) for job in r["jobs"]]
        metrics = {
            "sweep_s": (statistics.median(w * s for w, s in zip(walls, scales)), "s"),
            "job_p50_ms": (statistics.median(job_ms), "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
    print(f"{args.workload}: {len(reports)} sweeps of {len(expected)} jobs, raw walls "
          f"{[round(w, 3) for w in walls]}, speed scales {[round(s, 3) for s in scales]}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(reports, scales):
    """Per-sweep layer figures, each the median over the run's sweeps."""
    metrics = {
        name: (statistics.median(r["self_s"].get(span, 0.0) * s
                                 for r, s in zip(reports, scales)), "s")
        for name, span in LAYER_SPANS.items()
    }
    metrics["import_s"] = (statistics.median(r["import_s"] * s
                                             for r, s in zip(reports, scales)), "s")
    metrics["replay_ns_per_access"] = (
        statistics.median(
            r["self_s"].get("replay", 0.0) * s * 1e9 / sum(j["l2_accesses"] for j in r["jobs"])
            for r, s in zip(reports, scales)),
        "ns",
    )
    for name, counter in LAYER_COUNTERS.items():
        metrics[name] = (statistics.median(r["counters"].get(counter, 0) for r in reports),
                         "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
