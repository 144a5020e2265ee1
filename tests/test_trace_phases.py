"""Unit tests for repro.trace.phases (Region / PhaseSpec / AppProfile)."""

import pytest

from repro.trace.phases import AppProfile, PhaseSpec, Region
from repro.types import KERNEL_SPACE_START, Privilege

_KINDS = (0.0, 0.7, 0.3)


def user_region(**kw):
    defaults = dict(name="r", base=0x1000_0000, size=64 * 1024, pattern="uniform",
                    kind_weights=_KINDS)
    defaults.update(kw)
    return Region(**defaults)


def simple_phase(region=None, privilege=Privilege.USER, **kw):
    region = region if region is not None else user_region()
    defaults = dict(name="p", privilege=privilege, regions=(region,), weights=(1.0,))
    defaults.update(kw)
    return PhaseSpec(**defaults)


class TestRegion:
    def test_valid_patterns(self):
        for pattern in ("hot", "stream", "uniform"):
            assert user_region(pattern=pattern).pattern == pattern

    def test_rotating_pattern(self):
        r = user_region(pattern="rotating", subsets=4, rotate_dwells=2)
        assert r.subsets == 4

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            user_region(pattern="zigzag")

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError, match="size"):
            user_region(size=0)

    def test_rejects_low_hotness(self):
        with pytest.raises(ValueError, match="hotness"):
            user_region(pattern="hot", hotness=0.5)

    def test_rejects_bad_kind_weights(self):
        with pytest.raises(ValueError, match="kind_weights"):
            user_region(kind_weights=(0.5, 0.5, 0.5))

    def test_rejects_negative_kind_weight_summing_to_one(self):
        with pytest.raises(ValueError, match="negative entry in kind_weights"):
            user_region(kind_weights=(1.2, -0.2, 0.0))

    def test_rejects_low_run_mean(self):
        with pytest.raises(ValueError, match="run_mean"):
            user_region(run_mean=0.5)

    def test_rejects_rotating_with_one_subset(self):
        with pytest.raises(ValueError, match="rotating"):
            user_region(pattern="rotating", subsets=1)


class TestPhaseSpec:
    def test_valid(self):
        p = simple_phase()
        assert p.mean_accesses >= 1

    def test_rejects_empty_regions(self):
        with pytest.raises(ValueError, match="at least one region"):
            PhaseSpec("p", Privilege.USER, (), ())

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            PhaseSpec("p", Privilege.USER, (user_region(),), (0.5, 0.5))

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PhaseSpec("p", Privilege.USER, (user_region(),), (0.8,))

    def test_rejects_negative_weight_summing_to_one(self):
        with pytest.raises(ValueError, match="negative entry in weights"):
            PhaseSpec("p", Privilege.USER, (user_region(), user_region(name="s")), (1.5, -0.5))

    def test_rejects_zero_mean_accesses(self):
        with pytest.raises(ValueError, match="mean_accesses"):
            simple_phase(mean_accesses=0)

    def test_rejects_sub_one_gap(self):
        with pytest.raises(ValueError, match="mean_gap"):
            simple_phase(mean_gap=0.5)


class TestAppProfile:
    def make_profile(self, **kw):
        kernel_region = Region("k", KERNEL_SPACE_START + 0x10000, 64 * 1024,
                               "uniform", kind_weights=_KINDS)
        phases = (simple_phase(), simple_phase(kernel_region, Privilege.KERNEL))
        defaults = dict(name="app", description="d", phases=phases,
                        transitions=((0.0, 1.0), (1.0, 0.0)))
        defaults.update(kw)
        return AppProfile(**defaults)

    def test_valid(self):
        p = self.make_profile()
        assert p.kernel_phase_indices == (1,)

    def test_rejects_empty_phases(self):
        with pytest.raises(ValueError, match="at least one phase"):
            AppProfile("a", "d", (), ())

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(ValueError, match="transition matrix"):
            self.make_profile(transitions=((1.0,),))

    def test_rejects_non_stochastic_row(self):
        with pytest.raises(ValueError, match="sums to"):
            self.make_profile(transitions=((0.5, 0.4), (1.0, 0.0)))

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            self.make_profile(transitions=((1.5, -0.5), (1.0, 0.0)))

    def test_rejects_bad_start_phase(self):
        with pytest.raises(ValueError, match="start_phase"):
            self.make_profile(start_phase=5)

    def test_rejects_bad_wake_phase(self):
        with pytest.raises(ValueError, match="wake_phase"):
            self.make_profile(wake_phase=9)

    def test_rejects_bad_idle_prob(self):
        with pytest.raises(ValueError, match="idle_prob"):
            self.make_profile(idle_prob=1.5)

    def test_rejects_negative_idle_mean(self):
        with pytest.raises(ValueError, match="idle_mean_ticks"):
            self.make_profile(idle_mean_ticks=-1)
