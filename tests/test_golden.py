"""Golden gate: the simulation model's output is pinned by digest.

``tests/golden/golden.json`` holds digests of traces, L2 streams and one
result per registered design × suite app (see ``tests/golden/regen.py``).
Any change that moves one fails here, naming the job and the field; an
intended change bumps ``MODEL_VERSION`` and regenerates the file.
``tests/golden/versions.json`` pins the records' digest per
``MODEL_VERSION``, so regenerating moved records without a bump fails
too.  The gate also checks that it reaches every fast route of the
simulator, so a route no pinned point takes cannot go wrong unseen.
"""

import copy
import dataclasses
import json
from collections import Counter
from functools import partial

import numpy as np
import pytest

from golden import regen
from repro import obs
from repro.cache import fastsim
from repro.engine.spec import MODEL_VERSION

#: Counters that book a fast route; each must be reached by the gate.
ROUTE_COUNTERS = (
    "fastsim.retention.elided",
    "fastsim.retention.expiring",
    "fastsim.retention.elided_chunks",
    "fastsim.prefix.rows",
    "fastsim.loop.rows",
    "fastsim.scan.rows",
    "pipeline.dispatch.fastsim",
    "pipeline.dispatch.reference",
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def versions():
    return json.loads(regen.VERSIONS_PATH.read_text())


@pytest.fixture(scope="module")
def computed():
    """The tree's trace/stream digests and grid records, computed once,
    with the route counters they booked: ``routes`` over everything,
    ``scans`` the ``fastsim.scan.rows`` booked inside the L1 filter
    (``"l1"``) and inside fixed L2 replays (``"l2"``)."""
    scans = Counter()

    def booking(side, fn):
        def run(*args, **kwargs):
            before = obs.REGISTRY.counters.get("fastsim.scan.rows", 0)
            try:
                return fn(*args, **kwargs)
            finally:
                scans[side] += obs.REGISTRY.counters.get("fastsim.scan.rows", 0) - before
        return run

    before = Counter(obs.snapshot()["counters"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastsim, "fast_l1_filter", booking("l1", fastsim.fast_l1_filter))
        mp.setattr(fastsim, "run_fixed", booking("l2", fastsim.run_fixed))
        traces = regen.trace_digests()
        jobs = regen.grid_records()
    routes = Counter(obs.snapshot()["counters"])
    routes.subtract(before)
    return {"traces": traces, "jobs": jobs, "routes": routes, "scans": scans}


def _fail(what: str, mismatches: list[str], golden: dict) -> None:
    lines = [f"{len(mismatches)} {what} differ from {regen.GOLDEN_PATH.name}:"]
    lines += [f"  {m}" for m in mismatches[:20]]
    if len(mismatches) > 20:
        lines.append(f"  ... and {len(mismatches) - 20} more")
    if golden["numpy"] != np.__version__:
        lines.append(
            f"note: the file was generated with NumPy {golden['numpy']}, "
            f"this run uses {np.__version__}"
        )
    lines.append(regen.REGEN_HINT)
    pytest.fail("\n".join(lines), pytrace=False)


def test_golden_file_matches_model_version(golden):
    assert golden["model_version"] == MODEL_VERSION, (
        f"{regen.GOLDEN_PATH.name} was generated for MODEL_VERSION "
        f"{golden['model_version']}, the tree is at {MODEL_VERSION}: rerun "
        f"`PYTHONPATH=src python tests/golden/regen.py`"
    )


def test_versions_pin_every_model_version(versions):
    """``versions.json`` is append-only: it keeps one entry for every
    version from 1 up to the tree's ``MODEL_VERSION``."""
    assert sorted(versions, key=int) == [str(v) for v in range(1, MODEL_VERSION + 1)]


def test_records_match_digest_pinned_for_model_version(golden, versions, computed):
    """Results changed ⇒ version changed: the records the tree computes
    hash to the digest pinned for its ``MODEL_VERSION``, and so do the
    records in ``golden.json``."""
    pinned = versions[str(MODEL_VERSION)]
    assert regen.records_digest(golden) == pinned, (
        f"{regen.GOLDEN_PATH.name} does not hold the records pinned for MODEL_VERSION "
        f"{MODEL_VERSION} in {regen.VERSIONS_PATH.name}: {regen.REGEN_HINT}"
    )
    assert regen.records_digest(computed) == pinned, (
        f"the tree's records differ from those pinned for MODEL_VERSION {MODEL_VERSION} "
        f"in {regen.VERSIONS_PATH.name} (the digest tests above name them): "
        f"{regen.REGEN_HINT}"
    )


def test_regen_without_bump_refuses_moved_records(golden, versions, tmp_path, monkeypatch):
    """Regenerating after a result change without a ``MODEL_VERSION``
    bump fails and writes nothing; with the bump, the new version is
    appended and every earlier entry kept."""
    moved = copy.deepcopy(golden)
    moved["jobs"]["baseline:browser"]["l2_misses"] += 1
    digest = regen.records_digest(moved)
    assert digest != versions[str(MODEL_VERSION)]

    golden_path, versions_path = tmp_path / "golden.json", tmp_path / "versions.json"
    golden_path.write_text(regen.GOLDEN_PATH.read_text())
    versions_path.write_text(regen.VERSIONS_PATH.read_text())
    monkeypatch.setattr(regen, "GOLDEN_PATH", golden_path)
    monkeypatch.setattr(regen, "VERSIONS_PATH", versions_path)
    monkeypatch.setattr(regen, "compute", lambda: moved)
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    with pytest.raises(SystemExit, match="pinned"):
        regen.main()
    assert json.loads(golden_path.read_text()) == golden
    assert json.loads(versions_path.read_text()) == versions

    bumped = regen.pin_version(versions, MODEL_VERSION + 1, digest)
    assert bumped == {**versions, str(MODEL_VERSION + 1): digest}


def test_golden_covers_every_point(golden):
    assert len(golden["traces"]) == 17 * len(regen.TRACE_POINTS)
    assert len(golden["jobs"]) == (6 + len(regen.SLOW_CLOCK_DESIGNS)
                                   + len(regen.DRAM_DESIGNS) + 1) * 8


def test_golden_reaches_every_route(computed):
    """Every fast route books its counter somewhere in the gate, and the
    retention-free scan runs both in the L1 filter and in some fixed L2
    design, so a fault on any route moves a pinned digest."""
    unreached = [name for name in ROUTE_COUNTERS if computed["routes"][name] <= 0]
    assert not unreached, f"the golden gate never reaches {unreached}"
    assert computed["scans"]["l1"] > 0 and computed["scans"]["l2"] > 0, computed["scans"]


def test_trace_and_stream_digests(golden, computed):
    actual = computed["traces"]
    assert set(actual) == set(golden["traces"])
    mismatches = [
        f"{key}: {field}"
        for key, digests in actual.items()
        for field in ("trace", "stream")
        if digests[field] != golden["traces"][key][field]
    ]
    if mismatches:
        _fail("trace/stream digests", mismatches, golden)


def test_design_results(golden, computed):
    actual = computed["jobs"]
    assert set(actual) == set(golden["jobs"])
    mismatches = []
    for job, record in actual.items():
        want = golden["jobs"][job]
        moved = [
            f"{field} {want[field]!r} -> {record[field]!r}"
            for field in regen.HEADLINE_FIELDS
            if record[field] != want[field]
        ]
        if moved:
            mismatches.append(f"{job}: " + ", ".join(moved))
        elif record["sha256"] != want["sha256"]:
            mismatches.append(f"{job}: sha256 of to_dict() (headline fields unchanged)")
    if mismatches:
        _fail("design results", mismatches, golden)


def test_controller_threshold_edit_moves_dynamic_records(golden, monkeypatch):
    """Mutation check: raising the controller's ``grow_deep_util``
    default from 0.004 to 0.04 moves every dynamic-stt record, so the
    gate catches a controller edit that leaves the cache model alone."""
    from repro.core import dynamic_partition

    monkeypatch.setattr(
        dynamic_partition,
        "DynamicControllerConfig",
        partial(dynamic_partition.DynamicControllerConfig, grow_deep_util=0.04),
    )
    records = regen.job_records(["dynamic-stt"])
    assert len(records) == 8
    unmoved = [job for job, record in records.items()
               if record["sha256"] == golden["jobs"][job]["sha256"]]
    assert not unmoved, f"the controller edit left {unmoved} unchanged"


def test_sram_leakage_edit_moves_sram_records(golden, monkeypatch):
    """Mutation check: cutting SRAM leakage from 95 to 10 mW/MB moves
    every baseline and static-sram record, so the gate catches an
    energy-constant edit that leaves the cache model alone."""
    from repro.core import baseline, drowsy, hybrid, static_partition
    from repro.energy import technology

    sram = technology.sram
    assert sram().leakage_mw_per_mb == 95.0

    def leaky_sram():
        return dataclasses.replace(sram(), leakage_mw_per_mb=10.0)

    # every module that builds sram() holds its own reference
    for module in (technology, baseline, static_partition, drowsy, hybrid):
        monkeypatch.setattr(module, "sram", leaky_sram)
    records = regen.job_records(["baseline", "static-sram"])
    assert len(records) == 16
    unmoved = [job for job, record in records.items()
               if record["sha256"] == golden["jobs"][job]["sha256"]]
    assert not unmoved, f"the leakage edit left {unmoved} unchanged"
