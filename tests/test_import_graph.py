"""What a fresh process imports to run a sweep.

Every sweep runs as a fresh process (``repro sweep``, a perfbench
child), so each module it imports is a fixed cost paid per run.  The
packages resolve their public names on first use, the process pool is
imported only when a batch fans out, and each CLI command imports only
the layers it runs.  These tests pin that down in subprocesses, where
``sys.modules`` starts empty.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.engine.streamcache import StreamCache

SRC = Path(__file__).resolve().parent.parent / "src"
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
    "repro.trace.microbench",
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
    from repro.cache import fastsim, fastsim_supports
    from repro.trace import generate_trace
    from repro.trace.generator import generate_trace as defined

    assert fastsim_supports is fastsim.supports_cache
    assert generate_trace is defined
