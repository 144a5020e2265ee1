"""Unit tests for the technology and energy models."""

import pytest

from repro.cache.stats import CacheStats
from repro.energy.model import EnergyBreakdown, dram_energy_j, segment_energy
from repro.energy.technology import (
    DRAM_ACCESS_ENERGY_NJ,
    REFERENCE_SIZE_BYTES,
    RETENTION_CLASSES,
    sram,
    stt_ram,
)

MB = 1024 * 1024


class TestRetentionClasses:
    def test_three_classes(self):
        assert set(RETENTION_CLASSES) == {"long", "medium", "short"}

    def test_long_is_unbounded(self):
        assert RETENTION_CLASSES["long"].retention_s is None
        assert RETENTION_CLASSES["long"].retention_ticks(1e9) is None

    def test_shorter_retention_cheaper_writes(self):
        long, med, short = (RETENTION_CLASSES[k] for k in ("long", "medium", "short"))
        assert long.write_energy_scale > med.write_energy_scale > short.write_energy_scale

    def test_shorter_retention_faster_writes(self):
        long, med, short = (RETENTION_CLASSES[k] for k in ("long", "medium", "short"))
        assert long.write_latency_cycles > med.write_latency_cycles > short.write_latency_cycles

    def test_retention_ticks_scaling(self):
        assert RETENTION_CLASSES["short"].retention_ticks(1e9) == int(
            RETENTION_CLASSES["short"].retention_s * 1e9
        )

    def test_medium_longer_than_short(self):
        assert RETENTION_CLASSES["medium"].retention_s > RETENTION_CLASSES["short"].retention_s


class TestTechnologies:
    def test_sram_has_no_retention(self):
        t = sram()
        assert t.retention is None
        assert not t.non_volatile
        assert t.retention_ticks(1e9) is None

    def test_stt_is_non_volatile(self):
        assert stt_ram("short").non_volatile

    def test_stt_leakage_far_below_sram(self):
        assert stt_ram("long").leakage_mw_per_mb < sram().leakage_mw_per_mb * 0.5

    def test_stt_writes_cost_more_than_sram(self):
        assert stt_ram("long").write_energy_nj(MB) > sram().write_energy_nj(MB)

    def test_unknown_retention_rejected(self):
        with pytest.raises(ValueError, match="retention class"):
            stt_ram("forever")

    def test_energy_scales_sublinearly_with_size(self):
        t = sram()
        assert t.read_energy_nj(MB) == pytest.approx(t.read_energy_nj_ref)
        half = t.read_energy_nj(MB // 2)
        assert half == pytest.approx(t.read_energy_nj_ref * (0.5**0.5))

    def test_leakage_linear_in_size(self):
        t = sram()
        one = segment_energy(CacheStats(), t, MB, byte_seconds=MB * 1.0).leakage_j
        two = segment_energy(CacheStats(), t, 2 * MB, byte_seconds=2 * MB * 1.0).leakage_j
        assert two == pytest.approx(2 * one)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            sram().read_energy_nj(0)

    def test_reference_size_is_1mb(self):
        assert REFERENCE_SIZE_BYTES == MB


class TestEnergyBreakdown:
    def test_total(self):
        e = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
        assert e.dynamic_j == 9.0
        assert e.total_j == 10.0

    def test_addition(self):
        a = EnergyBreakdown(1, 1, 1, 1)
        b = EnergyBreakdown(2, 2, 2, 2)
        c = a + b
        assert c.total_j == 12

    def test_zero_identity(self):
        e = EnergyBreakdown(1, 2, 3, 4)
        assert (e + EnergyBreakdown.zero()).total_j == e.total_j

    def test_normalized(self):
        a = EnergyBreakdown(1, 0, 0, 0)
        b = EnergyBreakdown(4, 0, 0, 0)
        assert a.normalized_to(b) == pytest.approx(0.25)

    def test_normalized_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(1, 0, 0, 0).normalized_to(EnergyBreakdown.zero())


class TestSegmentEnergy:
    def make_stats(self, accesses=1000, fills=100, writes=50, refresh=10):
        st = CacheStats()
        st.accesses = accesses
        st.hits = accesses - fills
        st.misses = fills
        st.fills = fills
        st.write_accesses = writes
        st.refresh_writes = refresh
        return st

    def test_reads_charged_per_access(self):
        st = self.make_stats()
        e = segment_energy(st, sram(), MB, 0.0)
        assert e.read_j == pytest.approx(1000 * sram().read_energy_nj(MB) * 1e-9)

    def test_writes_include_fills_and_write_hits(self):
        st = self.make_stats()
        e = segment_energy(st, sram(), MB, 0.0)
        assert e.write_j == pytest.approx(150 * sram().write_energy_nj(MB) * 1e-9)

    def test_refresh_separate(self):
        st = self.make_stats()
        e = segment_energy(st, stt_ram("short"), MB, 0.0)
        assert e.refresh_j == pytest.approx(10 * stt_ram("short").write_energy_nj(MB) * 1e-9)

    def test_leakage_from_byte_seconds(self):
        st = CacheStats()
        e = segment_energy(st, sram(), MB, byte_seconds=MB * 2.0)  # 1 MB for 2 s
        assert e.leakage_j == pytest.approx(sram().leakage_mw_per_mb * 1e-3 * 2.0)

    def test_leakage_monotonic_in_time(self):
        st = CacheStats()
        e1 = segment_energy(st, sram(), MB, MB * 1.0)
        e2 = segment_energy(st, sram(), MB, MB * 2.0)
        assert e2.leakage_j > e1.leakage_j

    def test_rejects_negative_byte_seconds(self):
        with pytest.raises(ValueError):
            segment_energy(CacheStats(), sram(), MB, -1.0)

    def test_stt_writes_cost_more_than_sram_segment(self):
        st = self.make_stats(refresh=0)
        e_sram = segment_energy(st, sram(), MB, 0.0)
        e_stt = segment_energy(st, stt_ram("long"), MB, 0.0)
        assert e_stt.write_j > e_sram.write_j


class TestDramEnergy:
    def test_counts(self):
        assert dram_energy_j(10, 5) == pytest.approx(15 * DRAM_ACCESS_ENERGY_NJ * 1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dram_energy_j(-1, 0)
