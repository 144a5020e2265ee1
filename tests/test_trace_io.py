"""Unit tests for trace persistence."""

import numpy as np
import pytest

from conftest import make_trace
from repro.trace.generator import generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.workloads import app_profile
from repro.types import TRACE_DTYPE, AccessKind, Privilege


class TestRoundTrip:
    def test_small_trace(self, tmp_path):
        t = make_trace([(0, 0x40, AccessKind.LOAD, Privilege.USER),
                        (3, 0xC000_0000, AccessKind.STORE, Privilege.KERNEL)],
                       name="mini")
        path = tmp_path / "mini.npz"
        save_trace(t, path)
        back = load_trace(path)
        assert back.name == "mini"
        assert back.instructions == t.instructions
        assert np.array_equal(back.records, t.records)

    def test_generated_trace(self, tmp_path):
        t = generate_trace(app_profile("game"), 2_000, seed=9)
        path = tmp_path / "game.npz"
        save_trace(t, path)
        back = load_trace(path)
        assert np.array_equal(back.records, t.records)
        assert back.instructions == t.instructions
        for attr in ("ticks", "addrs", "kinds", "privs"):
            assert np.array_equal(getattr(back, attr), getattr(t, attr))
            assert getattr(back, attr).flags.c_contiguous

    def test_loads_records_file_written_directly(self, tmp_path):
        # the on-disk format is one TRACE_DTYPE record array, written here
        # field by field the way an earlier records-backed Trace saved it
        t = generate_trace(app_profile("game"), 3_000, seed=4)
        records = np.zeros(len(t), dtype=TRACE_DTYPE)
        records["tick"], records["addr"] = t.ticks, t.addrs
        records["kind"], records["priv"] = t.kinds, t.privs
        path = tmp_path / "old.npz"
        np.savez_compressed(path, version=np.int64(1), name=np.bytes_(b"game"),
                            instructions=np.int64(t.instructions), records=records)
        back = load_trace(path)
        assert back.records.tobytes() == records.tobytes()
        assert (back.name, back.instructions) == ("game", t.instructions)

    def test_unicode_name(self, tmp_path):
        t = make_trace([(0, 0, AccessKind.LOAD, Privilege.USER)], name="café")
        path = tmp_path / "u.npz"
        save_trace(t, path)
        assert load_trace(path).name == "café"


class TestErrors:
    def test_bad_version_rejected(self, tmp_path):
        t = make_trace([(0, 0, AccessKind.LOAD, Privilege.USER)])
        path = tmp_path / "t.npz"
        save_trace(t, path)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.npz")
