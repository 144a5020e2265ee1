"""Unit tests for trace transformations."""

import numpy as np
import pytest

from conftest import make_trace
from repro.trace.transform import remap_user_space, shift_ticks, slice_window, timeslice
from repro.types import KERNEL_SPACE_START, AccessKind, Privilege

L, U, K = AccessKind.LOAD, Privilege.USER, Privilege.KERNEL


def sample_trace():
    return make_trace([
        (0, 0x1000, L, U),
        (10, 0x2000, L, U),
        (20, KERNEL_SPACE_START + 0x100, L, K),
        (30, 0x1000, AccessKind.STORE, U),
    ])


class TestSliceWindow:
    def test_keeps_window(self):
        t = slice_window(sample_trace(), 5, 25)
        assert len(t) == 2
        assert list(t.ticks) == [5, 15]  # rebased

    def test_empty_window(self):
        t = slice_window(sample_trace(), 100, 200)
        assert len(t) == 0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            slice_window(sample_trace(), 20, 10)

    def test_full_window_is_whole_trace(self):
        src = sample_trace()
        t = slice_window(src, 0, 1000)
        assert len(t) == len(src)


class TestShiftTicks:
    def test_shift(self):
        t = shift_ticks(sample_trace(), 100)
        assert list(t.ticks) == [100, 110, 120, 130]

    def test_zero_shift_identity_values(self):
        t = shift_ticks(sample_trace(), 0)
        assert np.array_equal(t.ticks, sample_trace().ticks)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shift_ticks(sample_trace(), -1)


class TestConcat:
    """A quantum longer than both traces plays them back to back."""

    QUANTUM = 50

    def test_second_plays_after_first(self):
        a, b = sample_trace(), sample_trace()
        t = timeslice([a, b], self.QUANTUM)
        assert len(t) == 8
        assert t.ticks[4] == self.QUANTUM
        assert t.records[4:].tobytes() == shift_ticks(b, self.QUANTUM).records.tobytes()
        assert len(t) <= t.instructions <= a.instructions + b.instructions

    def test_name_combines(self):
        assert timeslice([sample_trace(), sample_trace()], self.QUANTUM).name == "t|t"

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError, match="quantum"):
            timeslice([sample_trace(), sample_trace()], 0)

    def test_ticks_non_decreasing(self):
        t = timeslice([sample_trace(), sample_trace()], self.QUANTUM)
        assert np.all(np.diff(t.ticks.astype(np.int64)) >= 0)


class TestRemapUserSpace:
    def test_asid_zero_is_identity(self):
        src = sample_trace()
        assert remap_user_space(src, 0) is src

    def test_user_addresses_move(self):
        t = remap_user_space(sample_trace(), asid=2)
        user = t.records["priv"] == int(U)
        assert np.all(t.addrs[user] >= 2 * (1 << 34))

    def test_kernel_addresses_fixed(self):
        t = remap_user_space(sample_trace(), asid=3)
        kernel = t.records["priv"] == int(K)
        assert t.addrs[kernel][0] == KERNEL_SPACE_START + 0x100

    def test_distinct_asids_disjoint(self):
        a = remap_user_space(sample_trace(), 1)
        b = remap_user_space(sample_trace(), 2)
        ua = set(a.addrs[a.records["priv"] == int(U)].tolist())
        ub = set(b.addrs[b.records["priv"] == int(U)].tolist())
        assert not (ua & ub)

    def test_rejects_negative_asid(self):
        with pytest.raises(ValueError):
            remap_user_space(sample_trace(), -1)

    def test_rejects_small_stride(self):
        with pytest.raises(ValueError, match="stride"):
            remap_user_space(sample_trace(), 1, stride=1 << 20)
