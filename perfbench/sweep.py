"""One fresh-process pass over the (design x app) grid, reported as JSON.

``run.py`` starts this script as a child process for every timed sweep,
so each sweep pays what a ``repro sweep`` invocation pays: interpreter
start, imports, and whatever the on-disk caches under ``--cache-dir``
do not already hold.  Two modes:

* ``sweep`` — run every design on every app through
  :func:`repro.engine.run_jobs` (one worker, no result store, so every
  job is simulated) and report one digest per job plus its wall time;
* ``prebuild`` — only build the L1-filtered L2 stream of every app into
  the stream cache (the front end, no design replay).

``--apps`` narrows the grid.  With ``--trace`` the child installs an
in-memory span recorder and adds per-layer self times to its report.
The last line of standard output is the JSON report.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

_T0 = time.perf_counter()
_SRC = Path(__file__).resolve().parent.parent / "src"


class _SpanTotals:
    """Recorder that keeps per-span-name self time in memory.

    Self time is a span's duration minus the time covered by the spans
    opened inside it, so nested layers (job > stream.load > l1.filter)
    are not counted twice.
    """

    enabled = True
    path = None

    def __init__(self):
        self.self_s = defaultdict(float)
        self._stack = []

    def span(self, name, **attrs):
        return _TimedSpan(self, name)

    def event(self, name, **attrs):
        return None

    def emit(self, payload):
        return None

    def metrics(self, registry=None):
        return None

    def close(self):
        return None


class _TimedSpan:
    __slots__ = ("_rec", "name", "_t0", "child_s")

    def __init__(self, rec, name):
        self._rec = rec
        self.name = name
        self.child_s = 0.0

    def __enter__(self):
        self._rec._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter() - self._t0
        stack = self._rec._stack
        stack.pop()
        if stack:
            stack[-1].child_s += dur
        self._rec.self_s[self.name] += dur - self.child_s
        return False

    def note(self, **attrs):
        return None


def _digest(result) -> str:
    """Hash of everything the result holds except which kernel made it."""
    data = result.to_dict()
    data["extras"].pop("sim_engine", None)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _check(result) -> None:
    """Invariants every design result must satisfy."""
    stats = result.l2_stats
    if stats.accesses <= 0 or stats.hits + stats.misses != stats.accesses:
        raise ValueError(f"{result.design}:{result.app}: inconsistent L2 stats {stats}")
    energy = result.l2_energy.total_j
    if not (math.isfinite(energy) and energy > 0 and math.isfinite(result.dram_j)):
        raise ValueError(f"{result.design}:{result.app}: bad energy {energy}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sweep", "prebuild"))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--apps", nargs="+")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    sys.path.insert(0, str(_SRC))
    from repro import obs
    from repro.core.designs import DESIGN_NAMES
    from repro.engine import JobSpec, StreamCache, run_jobs
    from repro.trace.workloads import APP_NAMES

    if not Path(sys.modules["repro"].__file__).resolve().is_relative_to(_SRC):
        raise RuntimeError("imported repro from outside this checkout")
    import_s = time.perf_counter() - _T0
    spans = _SpanTotals() if args.trace else None
    if spans is not None:
        obs.set_recorder(spans)

    apps = args.apps or APP_NAMES
    report = {"import_s": import_s}
    if args.mode == "prebuild":
        cache = StreamCache(args.cache_dir)
        for app in apps:
            s = JobSpec(DESIGN_NAMES[0], app, length=args.length, seed=args.seed)
            cache.get_or_build(s.app, s.length, s.seed, s.platform)
        cache.flush_counters()
    else:
        specs = [JobSpec(d, a, length=args.length, seed=args.seed)
                 for d in DESIGN_NAMES for a in apps]
        outcomes = run_jobs(specs, jobs=1, store=None)
        for o in outcomes:
            _check(o.result)
        report["jobs"] = [
            {"label": o.spec.label(), "app": o.spec.app, "digest": _digest(o.result),
             "wall_s": o.wall_s, "l2_accesses": o.result.l2_stats.accesses}
            for o in outcomes
        ]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["counters"] = dict(obs.REGISTRY.counters)
    if spans is not None:
        report["self_s"] = dict(spans.self_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
