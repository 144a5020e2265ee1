"""Failure-injection tests: corrupted inputs and misuse must fail loudly.

A library is production-quality when bad inputs produce clear errors,
not silent garbage.  These tests feed each entry point broken data.
"""

import numpy as np
import pytest

from conftest import make_trace
from repro.cache.hierarchy import L2Stream, l1_filter
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core import BaselineDesign, StaticPartitionDesign
from repro.trace.access import Trace
from repro.trace.io import load_trace, save_trace
from repro.types import TRACE_DTYPE, AccessKind, Privilege


class TestCorruptTraceFiles:
    def test_truncated_npz(self, tmp_path):
        t = make_trace([(0, 0, AccessKind.LOAD, Privilege.USER)])
        path = tmp_path / "t.npz"
        save_trace(t, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):  # zipfile/numpy error, not silence
            load_trace(path)

    def test_npz_missing_fields(self, tmp_path):
        path = tmp_path / "t.npz"
        np.savez_compressed(path, version=np.int64(1))
        with pytest.raises(KeyError):
            load_trace(path)

    def test_npz_wrong_dtype(self, tmp_path):
        path = tmp_path / "t.npz"
        np.savez_compressed(
            path,
            version=np.int64(1),
            name=np.bytes_(b"x"),
            instructions=np.int64(10),
            records=np.zeros(3, dtype=np.float64),
        )
        with pytest.raises(ValueError, match="dtype"):
            load_trace(path)

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "t.npz"
        path.write_bytes(b"this is not a trace")
        with pytest.raises(Exception):
            load_trace(path)


class TestMalformedStreams:
    def _stream(self, **overrides):
        n = 4
        fields = dict(
            name="x",
            ticks=np.arange(n, dtype=np.int64),
            addrs=np.zeros(n, dtype=np.uint64),
            privs=np.zeros(n, dtype=np.uint8),
            writes=np.zeros(n, dtype=bool),
            demand=np.ones(n, dtype=bool),
            instructions=100,
            trace_accesses=n,
            duration_ticks=n,
            l1i_stats=CacheStats(),
            l1d_stats=CacheStats(),
        )
        fields.update(overrides)
        return L2Stream(**fields)

    def test_empty_stream_runs_cleanly(self):
        empty = self._stream(
            ticks=np.array([], dtype=np.int64),
            addrs=np.array([], dtype=np.uint64),
            privs=np.array([], dtype=np.uint8),
            writes=np.array([], dtype=bool),
            demand=np.array([], dtype=bool),
            trace_accesses=0,
            duration_ticks=0,
        )
        r = BaselineDesign().run(empty, DEFAULT_PLATFORM)
        assert r.l2_stats.accesses == 0
        assert r.l2_energy.total_j >= 0.0

    def test_out_of_range_privilege_fails_loudly(self):
        bad = self._stream(privs=np.array([0, 1, 2, 0], dtype=np.uint8))
        with pytest.raises((IndexError, KeyError, ValueError)):
            StaticPartitionDesign().run(bad, DEFAULT_PLATFORM)


class TestEngineMisuse:
    def test_invalidate_absent_block_returns_none(self):
        c = SetAssociativeCache(CacheGeometry(4096, 4))
        assert c.invalidate(0x1234, 0) is None

    def test_stats_invariants_catch_corruption(self):
        st = CacheStats()
        st.accesses = 10
        st.hits = 8
        st.misses = 1  # corrupted: 8 + 1 != 10
        with pytest.raises(AssertionError):
            st.check_invariants()

    def test_trace_with_wrong_shape_records(self):
        records = np.zeros((2, 2), dtype=TRACE_DTYPE)
        with pytest.raises(Exception):
            Trace.from_records("x", records, 10)  # multi-dim records are invalid


class TestEmptyTraceThroughHierarchy:
    def test_single_access_trace(self):
        t = make_trace([(0, 0x40, AccessKind.LOAD, Privilege.USER)])
        stream = l1_filter(t, DEFAULT_PLATFORM)
        assert len(stream) == 1  # one compulsory miss
        r = BaselineDesign().run(stream, DEFAULT_PLATFORM)
        assert r.l2_stats.demand_misses == 1
