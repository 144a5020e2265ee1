"""Unit tests for repro.types."""

import numpy as np
import pytest

from repro.cache.fastsim import simulate_trace
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheGeometry
from repro.types import (
    CACHE_BLOCK_SIZE,
    KERNEL_SPACE_START,
    TRACE_DTYPE,
    AccessKind,
    Privilege,
    is_kernel_address,
)

#: An address in a block no test address shares.
FAR = 1 << 40


def one_frame(block_size=CACHE_BLOCK_SIZE) -> CacheGeometry:
    return CacheGeometry(block_size, 1, block_size=block_size)


def block_address(addr, block_size=CACHE_BLOCK_SIZE) -> int:
    """The block address a one-frame cache reports on evicting ``addr``."""
    cache = SetAssociativeCache(one_frame(block_size))
    cache.access(addr, False, 0, 0)
    return cache.access(FAR, False, 0, 1).victim_addr


class TestPrivilege:
    def test_values_are_stable(self):
        assert int(Privilege.USER) == 0
        assert int(Privilege.KERNEL) == 1

    def test_labels(self):
        assert Privilege.USER.label == "user"
        assert Privilege.KERNEL.label == "kernel"

    def test_constructible_from_int(self):
        assert Privilege(1) is Privilege.KERNEL


class TestAccessKind:
    def test_write_kinds(self):
        assert AccessKind.STORE.is_write
        assert AccessKind.WRITEBACK.is_write

    def test_read_kinds(self):
        assert not AccessKind.IFETCH.is_write
        assert not AccessKind.LOAD.is_write

    def test_values_fit_uint8(self):
        for kind in AccessKind:
            assert 0 <= int(kind) < 256


class TestTraceDtype:
    def test_field_names(self):
        assert TRACE_DTYPE.names == ("tick", "addr", "kind", "priv")

    def test_tick_and_addr_are_64_bit(self):
        assert TRACE_DTYPE["tick"] == np.uint64
        assert TRACE_DTYPE["addr"] == np.uint64


class TestBlockAddress:
    """Caches align addresses down to their block: victims and write-backs
    carry block addresses."""

    def test_aligns_down(self):
        assert block_address(0x1234) == 0x1234 & ~63

    def test_already_aligned(self):
        assert block_address(0x40) == 0x40

    def test_custom_block_size(self):
        assert block_address(0x1234, block_size=128) == 0x1200

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheGeometry(96, 1, block_size=96).validate()

    def test_array_input(self):
        # the vectorized engine: 0/63 and 64/65 share a block each
        addrs = np.array([0, 63, 64, 65, FAR], dtype=np.uint64)
        n = len(addrs)
        _, events = simulate_trace(one_frame(), None, addrs, np.zeros(n, np.uint8),
                                   np.zeros(n, bool), record_events=True)
        assert list(events.evict_addr) == [0, 64]


class TestKernelAddress:
    def test_boundary(self):
        assert not is_kernel_address(KERNEL_SPACE_START - 1)
        assert is_kernel_address(KERNEL_SPACE_START)

    def test_array_input(self):
        addrs = np.array([0x1000, KERNEL_SPACE_START + 0x1000], dtype=np.uint64)
        assert list(is_kernel_address(addrs)) == [False, True]

    def test_block_size_constant_is_64(self):
        assert CACHE_BLOCK_SIZE == 64
