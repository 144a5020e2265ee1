"""Shared fixtures: small platforms, tiny traces, cached streams.

Unit tests run on deliberately small geometries and short traces so the
whole suite stays fast; the calibration tests (tests/test_calibration.py)
are the only ones that touch experiment-scale traces.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache.hierarchy import l1_filter
from repro.config import CacheGeometry, LatencyConfig, PlatformConfig
from repro.trace.access import Trace
from repro.trace.generator import generate_trace
from repro.trace.workloads import app_profile
from repro.types import TRACE_DTYPE, AccessKind, Privilege


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    """Point the engine's persistent store at a session-private dir.

    Tests still exercise the real store code path, but never read stale
    entries from (or leak entries into) the developer's ``~/.cache``.
    """
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-store"))
    yield
    if saved is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = saved


def make_trace(entries, name="t", instructions=None) -> Trace:
    """Build a Trace from (tick, addr, kind, priv) tuples."""
    records = np.zeros(len(entries), dtype=TRACE_DTYPE)
    for i, (tick, addr, kind, priv) in enumerate(entries):
        records[i] = (tick, addr, int(kind), int(priv))
    if instructions is None:
        instructions = max(len(entries), int(records["tick"][-1]) + 1 if len(entries) else 0)
    return Trace.from_records(name, records, instructions)


@pytest.fixture
def tiny_platform() -> PlatformConfig:
    """A platform small enough that caches fill within a few accesses."""
    return PlatformConfig(
        l1i=CacheGeometry(1024, 2),
        l1d=CacheGeometry(1024, 2),
        l2=CacheGeometry(8192, 4),
        latency=LatencyConfig(l1_hit=1, l2_hit=10, dram=100),
    )


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """4 KB, 4-way, 16 sets — hand-traceable."""
    return CacheGeometry(4096, 4)


@pytest.fixture(scope="session")
def browser_trace_small() -> Trace:
    """A short browser trace shared across tests (session-cached)."""
    return generate_trace(app_profile("browser"), 30_000, seed=7)


@pytest.fixture(scope="session")
def browser_stream_small(browser_trace_small):
    """The small browser trace filtered through default L1s."""
    from repro.config import DEFAULT_PLATFORM

    return l1_filter(browser_trace_small, DEFAULT_PLATFORM)


def sequential_accesses(n, base=0, stride=64, kind=AccessKind.LOAD, priv=Privilege.USER):
    """n accesses at consecutive block addresses, one tick apart."""
    return [(i, base + i * stride, kind, priv) for i in range(n)]
