"""Golden gate: the simulation model's output is pinned by digest.

``tests/golden/golden.json`` holds digests of traces, L2 streams and one
result per registered design × suite app (see ``tests/golden/regen.py``).
Any change that moves one fails here, naming the job and the field; an
intended change bumps ``MODEL_VERSION`` and regenerates the file.
"""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from golden import regen
from repro.engine.spec import MODEL_VERSION


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


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


def test_golden_covers_every_point(golden):
    assert len(golden["traces"]) == 17 * len(regen.TRACE_POINTS)
    assert len(golden["jobs"]) == 6 * 8


def test_trace_and_stream_digests(golden):
    actual = regen.trace_digests()
    assert set(actual) == set(golden["traces"])
    mismatches = [
        f"{key}: {field}"
        for key, digests in actual.items()
        for field in ("trace", "stream")
        if digests[field] != golden["traces"][key][field]
    ]
    if mismatches:
        _fail("trace/stream digests", mismatches, golden)


def test_design_results(golden):
    actual = regen.job_records()
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
