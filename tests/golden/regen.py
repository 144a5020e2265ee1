"""Golden digests of traces, L2 streams and design results.

``golden.json`` beside this file pins what the simulation model produces:

* per (profile, length, seed): the sha256 of the trace records and of the
  L1-filtered L2 stream (its columns plus L1 stats), for every suite app
  and microbenchmark profile at each point of ``TRACE_POINTS``;
* per job of every registered design × suite app at ``GRID_LENGTH``,
  seed ``GRID_SEED``: the sha256 of ``DesignResult.to_dict()`` without
  ``sim_engine``, plus the L2 energy, misses and total cycles in the
  clear, so a mismatch shows which headline number moved;
* the same for the ``SLOW_CLOCK_DESIGNS`` on the ``SLOW_CLOCK``
  platform, keyed ``<label>@slow-clock``: there the STT-RAM retention
  windows fall inside the streams' tick spans, so the fixed designs'
  expiring replay and the dynamic design's decay test are pinned too;
* the ``DRAM_DESIGNS`` per suite app with the banked DRAM model
  (``dram=DRAMConfig()``), keyed ``<label>+dram`` (and static-stt's also
  ``@slow-clock``).

It also stores ``MODEL_VERSION`` and the NumPy version it was generated
with.  ``tests/test_golden.py`` recomputes everything and compares.  After
a change that is meant to alter output, bump
``repro.engine.spec.MODEL_VERSION`` and rerun, from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

Result and stream keys hash ``MODEL_VERSION``, so the bump also turns
every cached result and stream into a miss: no store serves a number of
the old model.

``versions.json`` beside this file is append-only: it pins, per
``MODEL_VERSION``, the digest of the trace and job records
(:func:`records_digest`).  A run adds the entry for a new version and
refuses to change an existing one, so records that moved without a bump
cannot be written, and ``tests/test_golden.py`` fails on them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.cache.hierarchy import STREAM_COLUMNS, l1_filter
from repro.config import DEFAULT_PLATFORM
from repro.core.designs import REGISTERED_DESIGNS
from repro.dram import DRAMConfig
from repro.engine.executor import run_jobs
from repro.engine.spec import MODEL_VERSION, JobSpec, canonical_json
from repro.trace.generator import generate_trace
from repro.trace.workloads import APP_NAMES, EXTRA_APP_NAMES, app_profile

# Run as a script, this file sees only its own directory; the
# microbenchmark profiles live one level up, beside the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from microbench import MICROBENCH_NAMES, microbench_profile  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
VERSIONS_PATH = GOLDEN_PATH.with_name("versions.json")

#: (length, seed) points every profile's trace and stream are pinned at:
#: the perfbench and experiment lengths, a short one, and degenerate ones
#: (a single access, a dwell cut short, a non-round length).
TRACE_POINTS = ((240_000, 3), (720_000, 5), (60_000, 0), (1, 0), (5, 2), (999, 7))
GRID_LENGTH = 60_000
GRID_SEED = 0
#: The default platform with a clock ten times slower.  Retention
#: windows are set in seconds, so in ticks they shrink tenfold; stream
#: keys ignore the clock, so these jobs reuse the grid's streams.
SLOW_CLOCK = dataclasses.replace(DEFAULT_PLATFORM, clock_hz=DEFAULT_PLATFORM.clock_hz / 10)
SLOW_CLOCK_DESIGNS = ("static-stt", "dynamic-stt")
#: Designs also pinned with a banked DRAM model.
DRAM_DESIGNS = ("baseline", "static-stt")

#: Result fields stored in the clear beside each job's digest.
HEADLINE_FIELDS = ("l2_energy_j", "l2_misses", "total_cycles")

REGEN_HINT = (
    "if the change is intended, bump MODEL_VERSION in src/repro/engine/spec.py "
    "and rerun `PYTHONPATH=src python tests/golden/regen.py`"
)


def _profiles():
    for name in APP_NAMES + EXTRA_APP_NAMES:
        yield name, app_profile(name)
    for name in MICROBENCH_NAMES:
        yield f"microbench/{name}", microbench_profile(name)


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def trace_key(profile_name: str, length: int, seed: int) -> str:
    return f"{profile_name}@{length}/s{seed}"


def trace_digests() -> dict[str, dict[str, str]]:
    """``{trace_key: {"trace": sha256, "stream": sha256}}`` for every point."""
    out = {}
    for name, profile in _profiles():
        for length, seed in TRACE_POINTS:
            trace = generate_trace(profile, length, seed)
            stream = l1_filter(trace, DEFAULT_PLATFORM)
            columns = stream.columns()
            out[trace_key(name, length, seed)] = {
                "trace": _sha256(
                    trace.records.tobytes(), str(trace.instructions).encode()
                ),
                "stream": _sha256(
                    *(columns[col].tobytes() for col, _ in STREAM_COLUMNS),
                    canonical_json(stream.context()).encode(),
                ),
            }
    return out


def job_records(designs=REGISTERED_DESIGNS, platform=DEFAULT_PLATFORM,
                tag: str = "") -> dict[str, dict]:
    """One record per design (all registered ones by default) × suite app
    job on ``platform``, keyed by label plus ``tag``."""
    specs = [
        JobSpec(design, app, GRID_LENGTH, GRID_SEED, platform)
        for design in designs
        for app in APP_NAMES
    ]
    return {
        outcome.spec.label() + tag: _record(outcome.result)
        for outcome in run_jobs(specs, store=None)
    }


def dram_records(designs=DRAM_DESIGNS, platform=DEFAULT_PLATFORM,
                 tag: str = "") -> dict[str, dict]:
    """One record per design × suite app with the banked DRAM model on
    ``platform``, keyed by design, app, ``+dram`` and ``tag``."""
    specs = [
        JobSpec(design, app, GRID_LENGTH, GRID_SEED, platform, {"dram": DRAMConfig()})
        for design in designs
        for app in APP_NAMES
    ]
    return {
        f"{outcome.spec.design}:{outcome.spec.app}+dram{tag}": _record(outcome.result)
        for outcome in run_jobs(specs, store=None)
    }


def _record(result) -> dict:
    """A result's digest (``sim_engine`` left out) and its headline numbers."""
    extras = dict(result.extras)
    extras.pop("sim_engine", None)
    payload = dataclasses.replace(result, extras=extras).to_dict()
    return {
        "sha256": _sha256(canonical_json(payload).encode()),
        "l2_energy_j": result.l2_energy.total_j,
        "l2_misses": result.l2_stats.misses,
        "total_cycles": result.timing.total_cycles,
    }


def grid_records() -> dict[str, dict]:
    """Every job record of the golden grid: all registered designs on
    the default platform, the slow-clock designs on ``SLOW_CLOCK``, and
    the DRAM designs with a banked DRAM model on both platforms."""
    return (
        job_records()
        | job_records(SLOW_CLOCK_DESIGNS, SLOW_CLOCK, "@slow-clock")
        | dram_records()
        | dram_records(("static-stt",), SLOW_CLOCK, "@slow-clock")
    )


def compute() -> dict:
    """Everything ``golden.json`` holds, computed from the current tree."""
    return {
        "model_version": MODEL_VERSION,
        "numpy": np.__version__,
        "traces": trace_digests(),
        "jobs": grid_records(),
    }


def records_digest(golden: dict) -> str:
    """sha256 of the trace and job records of ``golden`` (the output of
    :func:`compute`, or ``golden.json`` as loaded)."""
    records = {"traces": golden["traces"], "jobs": golden["jobs"]}
    return _sha256(canonical_json(records).encode())


def pin_version(versions: dict[str, str], version: int, digest: str) -> dict[str, str]:
    """``versions`` with ``version`` pinned to ``digest``.

    Raises :class:`ValueError` if ``version`` is already pinned to
    another digest: the records changed without a ``MODEL_VERSION`` bump.
    """
    pinned = versions.get(str(version), digest)
    if pinned != digest:
        raise ValueError(
            f"the records changed, but MODEL_VERSION {version} is pinned to "
            f"{pinned} in {VERSIONS_PATH.name} (now {digest}): {REGEN_HINT}"
        )
    return {**versions, str(version): digest}


def main() -> None:
    # build every stream in-process: a persistent stream cache written by
    # an older model must not leak into the golden file
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    golden = compute()
    versions = json.loads(VERSIONS_PATH.read_text())
    try:
        versions = pin_version(versions, MODEL_VERSION, records_digest(golden))
    except ValueError as exc:
        sys.exit(f"regen: nothing written: {exc}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    VERSIONS_PATH.write_text(json.dumps(versions, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {GOLDEN_PATH}: {len(golden['traces'])} traces, "
        f"{len(golden['jobs'])} jobs, MODEL_VERSION {golden['model_version']}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
