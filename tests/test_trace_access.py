"""Unit tests for repro.trace.access (the Trace container)."""

import numpy as np
import pytest

from conftest import make_trace
from repro.trace.access import Trace
from repro.trace.generator import generate_trace
from repro.trace.workloads import app_profile
from repro.types import TRACE_DTYPE, AccessKind, Privilege

COLUMNS = {"ticks": "tick", "addrs": "addr", "kinds": "kind", "privs": "priv"}


def columns(trace):
    return [getattr(trace, attr) for attr in COLUMNS]


class TestConstruction:
    def test_empty_trace(self):
        t = make_trace([])
        assert len(t) == 0
        assert t.duration_ticks == 0

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError, match="TRACE_DTYPE"):
            Trace.from_records("x", np.zeros(4, dtype=np.uint64), 4)

    def test_rejects_fewer_instructions_than_accesses(self):
        records = np.zeros(4, dtype=TRACE_DTYPE)
        with pytest.raises(ValueError, match="instructions"):
            Trace.from_records("x", records, 2)

    def test_rejects_decreasing_ticks(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            make_trace([(5, 0, AccessKind.LOAD, Privilege.USER),
                        (3, 64, AccessKind.LOAD, Privilege.USER)])

    def test_rejects_decreasing_ticks_from_columns(self):
        t = make_trace([(3, 0, AccessKind.LOAD, Privilege.USER),
                        (5, 64, AccessKind.LOAD, Privilege.USER)])
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace("x", t.ticks[::-1].copy(), t.addrs, t.kinds, t.privs, 6)

    def test_equal_ticks_allowed(self):
        t = make_trace([(3, 0, AccessKind.LOAD, Privilege.USER),
                        (3, 64, AccessKind.LOAD, Privilege.USER)])
        assert len(t) == 2


class TestAccessors:
    def make(self):
        return make_trace([
            (0, 0x100, AccessKind.IFETCH, Privilege.USER),
            (2, 0x200, AccessKind.LOAD, Privilege.USER),
            (4, 0xC000_0100, AccessKind.STORE, Privilege.KERNEL),
            (9, 0x100, AccessKind.LOAD, Privilege.USER),
        ])

    def test_duration(self):
        assert self.make().duration_ticks == 10

    def test_columns(self):
        t = self.make()
        assert list(t.ticks) == [0, 2, 4, 9]
        assert t.addrs[2] == 0xC000_0100

    def test_privilege_mask(self):
        t = self.make()
        assert list(t.privilege_mask(Privilege.KERNEL)) == [False, False, True, False]

    def test_kind_mask(self):
        t = self.make()
        assert list(t.kind_mask(AccessKind.LOAD)) == [False, True, False, True]

    def test_kernel_fraction(self):
        assert self.make().kernel_fraction() == pytest.approx(0.25)

    def test_write_fraction(self):
        assert self.make().write_fraction() == pytest.approx(0.25)

    def test_empty_fractions_are_zero(self):
        t = make_trace([])
        assert t.kernel_fraction() == 0.0
        assert t.write_fraction() == 0.0

    def test_select(self):
        t = self.make()
        sub = t.select(t.privilege_mask(Privilege.USER))
        assert len(sub) == 3
        assert sub.kernel_fraction() == 0.0
        assert sub.instructions == t.instructions

    def test_head_shorter(self):
        t = self.make()
        h = t.head(2)
        assert len(h) == 2
        assert h.instructions <= t.instructions

    def test_head_longer_is_identity(self):
        t = self.make()
        assert t.head(100) is t

    def test_describe_mentions_name_and_counts(self):
        d = self.make().describe()
        assert "t" in d and "4" in d


class TestColumns:
    """The trace holds four contiguous columns; records are derived."""

    @pytest.fixture(scope="class")
    def generated(self):
        return generate_trace(app_profile("browser"), 20_000, seed=3)

    def test_columns_are_contiguous_with_field_dtypes(self, generated):
        for t in (generated, make_trace([(0, 0x40, AccessKind.LOAD, Privilege.USER)])):
            for attr, field in COLUMNS.items():
                col = getattr(t, attr)
                assert col.flags.c_contiguous, attr
                assert col.dtype == TRACE_DTYPE[field], attr

    def test_records_round_trip_byte_identical(self, generated):
        records = generated.records
        assert records.dtype == TRACE_DTYPE
        for attr, field in COLUMNS.items():
            assert np.array_equal(records[field], getattr(generated, attr))
        back = Trace.from_records(generated.name, records, generated.instructions)
        assert back.records.tobytes() == records.tobytes()
        for a, b in zip(columns(back), columns(generated)):
            assert np.array_equal(a, b)

    def test_rejects_wrong_column_dtype(self, generated):
        t = generated
        with pytest.raises(TypeError, match="TRACE_DTYPE"):
            Trace("x", t.ticks.astype(np.int64), t.addrs, t.kinds, t.privs, t.instructions)

    def test_rejects_strided_column(self, generated):
        # a field view of a record array is strided: from_records copies it
        records = generated.records
        t = generated
        with pytest.raises(ValueError, match="C-contiguous"):
            Trace("x", records["tick"], t.addrs, t.kinds, t.privs, t.instructions)

    def test_rejects_columns_of_unequal_length(self, generated):
        t = generated
        with pytest.raises(ValueError, match="rows"):
            Trace("x", t.ticks, t.addrs[:-1], t.kinds, t.privs, t.instructions)

    def test_select_and_head_keep_contiguous_columns(self, generated):
        for sub in (generated.select(generated.privilege_mask(Privilege.KERNEL)),
                    generated.head(1000)):
            assert all(col.flags.c_contiguous for col in columns(sub))
        head = generated.head(1000)
        assert head.records.tobytes() == generated.records[:1000].tobytes()
