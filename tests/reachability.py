"""Which functions of ``src/repro`` the reproduction runs.

Run from the repository root::

    python tests/reachability.py [--tests]

Every run below starts Python with a ``sitecustomize`` on ``PYTHONPATH``
that installs a ``sys.settrace`` call hook (a ``sys.setprofile`` hook
was once seen to drop out partway through the bench suite).  The hook
records each ``src/repro`` function entered and dumps the set at exit,
also from pool workers, which leave through ``os._exit``.  The runs
are the package's non-test entry points:

* every example script;
* the CLI, at :data:`LENGTH` accesses: ``run`` (plain, ``--banked-dram``, ``--prefetcher``), sweeps
  of all six designs (serial, ``--jobs 2``, with progress on, and
  under ``REPRO_FASTSIM=0``), ``validate``, ``search``, ``figure 1-8``,
  ``table 1-4``, ``export``, ``trace``, ``obs summary`` and
  ``cache stats``/``clear``;
* ``pytest benchmarks --benchmark-disable`` at :data:`BENCH_LENGTH`
  (never ``--benchmark-only``: the timed call would not be seen).  Below 600k accesses some benches
  fail their paper-shape assertions, so pytest exit 1 is tolerated.

It then lists every function (module-level or method; nested functions
count with their enclosing one) that no run entered.  Each must be in
:data:`KEEP` with the reason it stays; any other one fails the script
(exit 1).  ``--tests`` also runs the tier-1 suite under the hook and
splits the unreached lines into "reached only by tests" and "reached by
nothing".
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Trace length of the examples and CLI runs.
LENGTH = 60_000
#: ``REPRO_BENCH_LENGTH`` of the bench run; the keep-list's reasons hold at it.
BENCH_LENGTH = 120_000

_ASSERTED = "test-only: tests assert through it"
_FULL_L2 = ("reached once the L2 fills and evicts (the replacement ablation at "
            "converged length); a 120k stream never evicts from it")
_SLOW_CLOCK = ("reached when STT retention windows fall inside the stream's span "
               "(the golden slow-clock records); at the default clock they do not")
_ABSTRACT = "abstract base method"

#: Functions no non-test run reaches that stay, with the reason.
KEEP = {
    "trace/importers.py:load_din_trace":
        "external-trace route around DESIGN.md's 'no Android traces offline'",
    "trace/io.py:load_trace":
        "external-trace route: reloads a trace written by `repro trace`",
    "types.py:is_kernel_address": "the external-trace route: load_din_trace's privilege tag",
    "cache/stats.py:CacheStats.check_invariants": _ASSERTED,
    "cache/set_assoc.py:SetAssociativeCache.occupancy": _ASSERTED,
    "cache/set_assoc.py:_Unbuilt.__iter__": _ASSERTED,
    "analytic/stack.py:StackProfile.curve": _ASSERTED,
    "dram/model.py:DRAMModel.reset": _ASSERTED,
    "cache/prefetch.py:StridePrefetcher.reset": _ASSERTED,
    "obs/metrics.py:MetricsRegistry.reset": _ASSERTED,
    "obs/summary.py:RunSummary.phase": _ASSERTED,
    "cache/replacement.py:FIFOPolicy.victim": _FULL_L2,
    "cache/replacement.py:RandomPolicy.victim": _FULL_L2,
    "cache/replacement.py:SRRIPPolicy.victim": _FULL_L2,
    "cache/replacement.py:TreePLRUPolicy.victim": _FULL_L2,
    "cache/fastsim.py:EpochReplaySegment._refs": _SLOW_CLOCK,
    "cache/fastsim.py:EpochReplaySegment.miss_events": _SLOW_CLOCK,
    "cache/replacement.py:ReplacementPolicy.init_set": _ABSTRACT,
    "cache/replacement.py:ReplacementPolicy.on_hit": _ABSTRACT,
    "cache/replacement.py:ReplacementPolicy.on_fill": _ABSTRACT,
    "cache/replacement.py:ReplacementPolicy.victim": _ABSTRACT,
    "cache/replacement.py:ReplacementPolicy.hit_rank": _ABSTRACT,
    "cache/prefetch.py:Prefetcher.on_miss": _ABSTRACT,
    "cache/prefetch.py:Prefetcher.reset": _ABSTRACT,
    "obs/trace.py:NullRecorder.emit": "null recorder: what runs while tracing is off",
    "obs/trace.py:NullRecorder.close": "null recorder: what runs while tracing is off",
}

#: Method names kept wherever they are defined.
KEEP_KINDS = {
    "__repr__": "repr, for debugging",
}

_HOOK = r'''
import atexit, os, sys, threading, time

_SRC = os.environ["REACH_SRC"]
_OUT = os.environ["REACH_OUT"]
_seen = set()


def _hook(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_SRC):
        _seen.add((code.co_filename, code.co_firstlineno))
    return None


def _dump():
    path = os.path.join(_OUT, f"{os.getpid()}-{time.monotonic_ns()}.txt")
    with open(path, "w") as f:
        f.writelines(f"{name}\t{line}\n" for name, line in _seen)


_exit = os._exit


def _dump_and_exit(status):
    _dump()
    _exit(status)


os._exit = _dump_and_exit
atexit.register(_dump)
sys.settrace(_hook)
threading.settrace(_hook)
'''


def _functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """(file, first line) -> (relative path, qualified name, line count)."""
    out = {}

    def visit(body, path, rel, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, rel, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                entry = (rel, prefix + node.name, node.end_lineno - first + 1)
                # a code object's first line is its first decorator's
                out[str(path), first] = entry
                out.setdefault((str(path), node.lineno), entry)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE))
        visit(ast.parse(path.read_text()).body, path, rel, "")
    return out


def _commands(work: Path) -> list[tuple[list[str], dict, int]]:
    """(argv, extra environment, highest tolerated exit code) of every run."""
    py = sys.executable
    cli = [py, "-m", "repro"]
    n = str(LENGTH)
    designs = ["baseline", "static-sram", "static-stt", "dynamic-stt", "hybrid", "drowsy-sram"]
    apps = ["browser", "game"]
    sweep = [*cli, "sweep", "--designs", *designs, "--apps", *apps, "--length", n]
    log = str(work / "run.jsonl")
    runs: list[tuple[list[str], dict, int]] = []
    examples = {"multicore_sharing.py": ["20000"], "external_trace.py": [],
                "reproduce_paper.py": [n]}
    for script in sorted((ROOT / "examples").glob("*.py")):
        runs.append(([py, str(script), *examples.get(script.name, ["30000"])], {}, 0))
    runs += [
        ([*cli, "list"], {}, 0),
        ([*cli, "run", "--app", "game", "--design", "baseline", "--length", n], {}, 0),
        ([*cli, "run", "--app", "game", "--design", "static-stt", "--banked-dram",
          "--length", n], {}, 0),
        ([*cli, "run", "--app", "game", "--design", "baseline", "--prefetcher", "nextline",
          "--length", n], {}, 0),
        ([*sweep, "--no-progress", "--trace", log], {}, 0),
        ([*sweep, "--no-progress", "--jobs", "2", "--seeds", "1"], {}, 0),
        ([*sweep, "--seeds", "2"], {}, 0),
        ([*sweep, "--no-progress", "--seeds", "3"], {"REPRO_FASTSIM": "0"}, 0),
        ([*cli, "obs", "summary", log], {}, 0),
        ([*cli, "validate", "--length", n], {}, 1),
        ([*cli, "search", "--length", n], {}, 0),
        ([*cli, "export", "--out", str(work / "grid.csv"), "--length", n], {}, 0),
        ([*cli, "trace", "--app", "game", "--out", str(work / "game.npz"), "--length", n],
         {}, 0),
        ([*cli, "cache", "stats"], {}, 0),
        ([*cli, "cache", "stats", "--json"], {}, 0),
    ]
    runs += [([*cli, "figure", str(i), "--length", n], {}, 0) for i in range(1, 9)]
    runs += [([*cli, "table", str(i), "--length", n], {}, 0) for i in range(1, 5)]
    runs += [
        ([*cli, "cache", "clear", "--streams"], {}, 0),
        ([*cli, "cache", "clear"], {}, 0),
        ([py, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q", "-p",
          "no:cacheprovider"], {"REPRO_BENCH_LENGTH": str(BENCH_LENGTH)}, 1),
    ]
    return runs


def _reached(runs, work: Path) -> set[tuple[str, int]]:
    """Run each command under the hook; the (file, first line)s entered."""
    hook_dir, out = work / "hook", work / "reached"
    hook_dir.mkdir()
    out.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_HOOK)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(hook_dir), str(ROOT / "src")]),
        REACH_SRC=str(PACKAGE) + os.sep, REACH_OUT=str(out),
        REPRO_CACHE_DIR=str(work / "cache"),
    )
    for argv, extra, tolerated in runs:
        shown = " ".join(argv[1:])
        proc = subprocess.run(argv, cwd=ROOT, env={**env, **extra}, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        print(f"exit {proc.returncode}: {shown}", flush=True)
        if proc.returncode > tolerated:
            sys.exit(f"{shown} failed:\n{proc.stderr[-3000:]}")
    seen = set()
    for dump in out.iterdir():
        for line in dump.read_text().splitlines():
            name, first = line.rsplit("\t", 1)
            seen.add((name, int(first)))
    return seen


def _keep_reason(key: str, qualname: str) -> str | None:
    if key in KEEP:
        return KEEP[key]
    return KEEP_KINDS.get(qualname.rsplit(".", 1)[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 under the hook to split test-only lines")
    args = parser.parse_args(argv)

    functions = _functions()
    defs = set(functions.values())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "run").mkdir()
        runs = _commands(work / "run")
        reached = {functions[k] for k in _reached(runs, work) if k in functions}
        by_tests: set = set()
        if args.tests:
            test_work = work / "tests"
            test_work.mkdir()
            tier1 = [([sys.executable, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"],
                      {}, 1)]
            by_tests = {functions[k] for k in _reached(tier1, test_work) if k in functions}

    total = defaultdict(int)
    missed = defaultdict(int)
    unexplained = []
    print("\nunreached by any non-test run:")
    for rel, qualname, lines in sorted(defs - reached):
        key = f"{rel}:{qualname}"
        reason = _keep_reason(key, qualname)
        tag = "" if not args.tests else (
            " [tests]" if (rel, qualname, lines) in by_tests else " [nothing]")
        print(f"  {key} ({lines} lines){tag}: {reason or 'NOT IN THE KEEP-LIST'}")
        missed[rel] += lines
        if reason is None:
            unexplained.append(key)
    for rel, _, lines in defs:
        total[rel] += lines
    stale = sorted(k for k in KEEP if any(f"{r}:{q}" == k for r, q, _ in reached))
    all_lines, all_missed = sum(total.values()), sum(missed.values())
    print(f"\n{all_missed} of {all_lines} function lines in src/repro are unreached "
          f"by the runs above ({len(defs - reached)} of {len(defs)} functions)")
    if args.tests:
        only_tests = sum(n for r, q, n in (defs - reached) & by_tests)
        print(f"{only_tests} of them are reached only by tests, "
              f"{all_missed - only_tests} by nothing")
    for key in stale:
        print(f"note: keep-list entry {key} was reached; it can leave the list")
    if unexplained:
        print(f"\n{len(unexplained)} unreached functions are not in the keep-list",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
