"""What a fresh process imports to run a sweep.

Every sweep runs as a fresh process (``repro sweep``, a perfbench
child), so each module it imports is a fixed cost paid per run.  The
packages resolve their public names on first use, the process pool is
imported only when a batch fans out, and each CLI command imports only
the layers it runs.  These tests pin that down in subprocesses, where
``sys.modules`` starts empty.  The package also imports nothing that
lives beside the tests: the differential harness, the microbenchmark
profiles and the partition oracles are test code.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.engine.streamcache import StreamCache

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
LENGTH = 20_000
APPS = ("browser", "game")
LAZY_PACKAGES = ("repro.trace", "repro.cache", "repro.core", "repro.engine")

#: Modules a serial warm sweep of the paper's four designs never runs.
NOT_IMPORTED = (
    "concurrent.futures.process",
    "multiprocessing",
    "repro.trace.access",
    "repro.trace.generator",
    "repro.trace.importers",
    "repro.trace.io",
    "repro.trace.transform",
    "repro.cache.analysis",
    "repro.cache.prefetch",
    "repro.dram.model",
    "repro.core.search",
    "repro.core.drowsy",
    "repro.core.hybrid",
    "repro.engine.sweep",
    "repro.experiments",
)


def _run_python(code: str, cache_dir: Path) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A stream cache holding both apps' streams, built in this process."""
    root = tmp_path_factory.mktemp("warm-streams")
    cache = StreamCache(root)
    for app in APPS:
        cache.get_or_build(app, LENGTH, 0, DEFAULT_PLATFORM)
    return root


def test_serial_warm_sweep_imports_only_what_it_runs(warm_cache):
    report = _run_python(f"""
import json, sys
from repro import obs
from repro.core.designs import DESIGN_NAMES
from repro.engine import JobSpec, run_jobs

specs = [JobSpec(d, a, length={LENGTH}) for d in DESIGN_NAMES for a in {APPS!r}]
outcomes = run_jobs(specs, jobs=1, store=None)
print(json.dumps({{
    "engines": sorted({{o.result.extras["sim_engine"] for o in outcomes}}),
    "stream_hits": obs.REGISTRY.counters.get("streamcache.hit", 0),
    "modules": sorted(sys.modules),
}}))
""", warm_cache)
    # the streams came from the cache and every design replayed fast
    assert report["stream_hits"] == len(APPS)
    assert report["engines"] == ["fastsim"]
    loaded = [m for m in NOT_IMPORTED if m in report["modules"]]
    assert not loaded, f"a serial warm sweep imported {loaded}"


def test_cli_commands_never_load_the_experiment_layer(warm_cache):
    report = _run_python(f"""
import io, json, sys
from repro.cli import main

commands = [
    ["list"],
    ["cache", "stats"],
    ["run", "--app", "game", "--design", "baseline", "--length", "{LENGTH}"],
    ["sweep", "--designs", "baseline", "static-stt", "--apps", "game",
     "--length", "{LENGTH}", "--no-progress"],
]
codes = [main(argv, out=io.StringIO()) for argv in commands]
print(json.dumps({{"codes": codes, "modules": sorted(sys.modules)}}))
""", warm_cache)
    assert report["codes"] == [0, 0, 0, 0]
    loaded = [m for m in report["modules"] if m.startswith("repro.experiments")]
    assert not loaded, f"list/cache/run/sweep imported {loaded}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_lazy_names_are_the_submodule_objects():
    from repro.cache import fastsim, simulate_trace
    from repro.trace import generate_trace
    from repro.trace.generator import generate_trace as defined

    assert simulate_trace is fastsim.simulate_trace
    assert generate_trace is defined


def _imported_modules(path: Path) -> set[str]:
    """Every module name ``path`` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_package_imports_no_test_code():
    # every module or package that lives under tests/, by its import name
    test_code = {p.stem for p in TESTS.glob("*.py")} | {
        p.name for p in TESTS.iterdir() if p.is_dir() and not p.name.startswith((".", "_"))
    }
    assert {"diffsim", "microbench", "partition_oracles"} <= test_code
    offenders = {
        str(path.relative_to(SRC)): sorted(hits)
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (hits := {m for m in _imported_modules(path)
                     if m.split(".")[0] in test_code or m.split(".")[0] == "tests"})
    }
    assert not offenders, f"src/repro imports test code: {offenders}"


@pytest.mark.parametrize("module", ["repro.cache.diffsim", "repro.trace.microbench"])
def test_test_harnesses_are_not_in_the_package(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
