"""Unit tests for the synthetic trace generator."""

import math
import os
import subprocess
import sys
import numpy as np
import pytest

from repro.cache.hierarchy import STREAM_COLUMNS, l1_filter
from repro.config import DEFAULT_PLATFORM
from repro.trace.generator import _choice, _gap_pmf, generate_trace
from repro.trace.microbench import MICROBENCH_NAMES, microbench_profile
from repro.trace.phases import AppProfile, PhaseSpec, Region
from repro.trace.workloads import APP_NAMES, EXTRA_APP_NAMES, app_profile
from repro.types import CACHE_BLOCK_SIZE, KERNEL_SPACE_START, AccessKind, Privilege

_DATA = (0.0, 0.7, 0.3)
_CODE = (1.0, 0.0, 0.0)


def two_phase_profile(**profile_kw):
    user = Region("u", 0x1000_0000, 64 * 1024, "uniform", kind_weights=_DATA)
    kern = Region("k", KERNEL_SPACE_START + 0x10000, 32 * 1024, "uniform", kind_weights=_DATA)
    phases = (
        PhaseSpec("user", Privilege.USER, (user,), (1.0,), mean_accesses=100),
        PhaseSpec("kern", Privilege.KERNEL, (kern,), (1.0,), mean_accesses=100),
    )
    defaults = dict(
        name="twophase",
        description="test",
        phases=phases,
        transitions=((0.0, 1.0), (1.0, 0.0)),
        idle_prob=0.0,
    )
    defaults.update(profile_kw)
    return AppProfile(**defaults)


class TestBasics:
    def test_exact_length(self):
        t = generate_trace(two_phase_profile(), 5000, seed=1)
        assert len(t) == 5000

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="length"):
            generate_trace(two_phase_profile(), 0)

    def test_deterministic(self):
        a = generate_trace(two_phase_profile(), 2000, seed=3)
        b = generate_trace(two_phase_profile(), 2000, seed=3)
        assert np.array_equal(a.records, b.records)

    def test_seed_changes_trace(self):
        a = generate_trace(two_phase_profile(), 2000, seed=3)
        b = generate_trace(two_phase_profile(), 2000, seed=4)
        assert not np.array_equal(a.records, b.records)

    def test_deterministic_across_interpreters(self):
        # str hashing is salted per process (PYTHONHASHSEED), so the seed
        # derivation must not use hash() — otherwise the same (profile,
        # length, seed) triple yields a different trace in every process
        # and the content-addressed result store returns stale results.
        script = (
            "from repro.trace import suite_trace; import hashlib; "
            "print(hashlib.sha256(suite_trace('browser', 2000, 0)"
            ".records.tobytes()).hexdigest())"
        )
        digests = set()
        for hashseed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_ticks_strictly_increasing_without_idle(self):
        t = generate_trace(two_phase_profile(), 3000, seed=0)
        assert np.all(np.diff(t.ticks.astype(np.int64)) >= 1)

    def test_block_aligned_addresses(self):
        t = generate_trace(two_phase_profile(), 1000, seed=0)
        assert np.all(t.addrs % CACHE_BLOCK_SIZE == 0)


class TestPrivilegeAddressConsistency:
    def test_privileges_match_address_space(self):
        t = generate_trace(two_phase_profile(), 5000, seed=2)
        kernel_mask = t.privilege_mask(Privilege.KERNEL)
        assert np.all(t.addrs[kernel_mask] >= KERNEL_SPACE_START)
        assert np.all(t.addrs[~kernel_mask] < KERNEL_SPACE_START)

    def test_rejects_region_on_wrong_side(self):
        bad = Region("bad", 0x1000, 4096, "uniform", kind_weights=_DATA)
        phases = (PhaseSpec("k", Privilege.KERNEL, (bad,), (1.0,)),)
        profile = AppProfile("x", "d", phases, ((1.0,),))
        with pytest.raises(ValueError, match="wrong side"):
            generate_trace(profile, 100)

    def test_both_privileges_present(self):
        t = generate_trace(two_phase_profile(), 5000, seed=2)
        frac = t.kernel_fraction()
        assert 0.2 < frac < 0.8


class TestRegionNames:
    # a region's name keys its walk state (stream position, rotating
    # subset) across phases, so it must denote exactly one region

    def test_rejects_two_regions_with_one_name(self):
        a = Region("r", 0x1000_0000, 64 * 1024, "stream", kind_weights=_DATA)
        b = Region("r", 0x2000_0000, 64 * 1024, "stream", kind_weights=_DATA)
        phases = (PhaseSpec("p", Privilege.USER, (a,), (1.0,)),
                  PhaseSpec("q", Privilege.USER, (b,), (1.0,)))
        profile = AppProfile("x", "d", phases, ((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(ValueError, match="two different regions"):
            generate_trace(profile, 100)

    def test_rejects_name_listed_twice_in_a_phase(self):
        a = Region("r", 0x1000_0000, 64 * 1024, "uniform", kind_weights=_DATA)
        phases = (PhaseSpec("p", Privilege.USER, (a, a), (0.5, 0.5)),)
        profile = AppProfile("x", "d", phases, ((1.0,),))
        with pytest.raises(ValueError, match="lists a region name twice"):
            generate_trace(profile, 100)

    def test_shared_region_walks_on_across_phases(self):
        # one stream region in two strictly alternating phases: the walk
        # continues where the other phase left it, never restarting
        stream = Region("s", 0x1000_0000, 1024 * 1024, "stream", kind_weights=_DATA,
                        run_mean=1.0)
        phases = (PhaseSpec("p", Privilege.USER, (stream,), (1.0,), mean_accesses=50),
                  PhaseSpec("q", Privilege.USER, (stream,), (1.0,), mean_accesses=50))
        profile = AppProfile("x", "d", phases, ((0.0, 1.0), (1.0, 0.0)), idle_prob=0.0)
        t = generate_trace(profile, 3000, seed=1)
        blocks = (t.addrs - np.uint64(0x1000_0000)) // np.uint64(CACHE_BLOCK_SIZE)
        assert np.array_equal(blocks, np.arange(3000))


class TestAddressRanges:
    def test_addresses_stay_inside_regions(self):
        t = generate_trace(two_phase_profile(), 5000, seed=5)
        user = t.addrs[~t.privilege_mask(Privilege.KERNEL)]
        assert user.min() >= 0x1000_0000
        assert user.max() < 0x1000_0000 + 64 * 1024

    def test_kind_weights_respected(self):
        code = Region("c", 0x100_0000, 64 * 1024, "uniform", kind_weights=_CODE)
        phases = (PhaseSpec("p", Privilege.USER, (code,), (1.0,)),)
        profile = AppProfile("codeonly", "d", phases, ((1.0,),), idle_prob=0.0)
        t = generate_trace(profile, 2000, seed=0)
        assert np.all(t.kinds == int(AccessKind.IFETCH))


class TestIdleAndWake:
    def test_idle_extends_duration_not_instructions(self):
        quiet = generate_trace(two_phase_profile(), 20_000, seed=1)
        idle_profile = two_phase_profile(idle_prob=0.8, idle_mean_ticks=50_000)
        noisy = generate_trace(idle_profile, 20_000, seed=1)
        assert noisy.duration_ticks > quiet.duration_ticks * 2
        # instructions should not balloon with idle time
        assert noisy.instructions < noisy.duration_ticks

    def test_wake_phase_entered_after_idle(self):
        profile = two_phase_profile(idle_prob=1.0, idle_mean_ticks=10_000, wake_phase=1)
        t = generate_trace(profile, 20_000, seed=2)
        ticks = t.ticks.astype(np.int64)
        gaps = np.diff(ticks)
        big = np.nonzero(gaps > 5_000)[0]
        assert len(big) > 0
        # the access right after each big idle gap must be a kernel access
        after = t.privs[big + 1]
        assert np.all(after == int(Privilege.KERNEL))

    def test_zero_idle_mean_disables_idle(self):
        profile = two_phase_profile(idle_prob=1.0, idle_mean_ticks=0)
        t = generate_trace(profile, 5000, seed=0)
        assert np.max(np.diff(t.ticks.astype(np.int64))) < 100


class TestPatterns:
    def _single_region_trace(self, region, n=20_000, seed=0):
        phases = (PhaseSpec("p", Privilege.USER, (region,), (1.0,), mean_accesses=500),)
        profile = AppProfile("one", "d", phases, ((1.0,),), idle_prob=0.0)
        return generate_trace(profile, n, seed=seed)

    def test_hot_concentrates_accesses(self):
        region = Region("h", 0x100_0000, 256 * 1024, "hot", hotness=4.0,
                        kind_weights=_DATA, run_mean=1.0)
        t = self._single_region_trace(region)
        blocks, counts = np.unique(t.addrs, return_counts=True)
        counts = np.sort(counts)[::-1]
        top_decile = counts[: max(1, len(counts) // 10)].sum() / counts.sum()
        assert top_decile > 0.4  # top 10% of blocks take >40% of accesses

    def test_uniform_spreads_accesses(self):
        region = Region("u", 0x100_0000, 64 * 1024, "uniform", kind_weights=_DATA,
                        run_mean=1.0)
        t = self._single_region_trace(region)
        blocks, counts = np.unique(t.addrs, return_counts=True)
        assert len(blocks) > 900  # nearly all 1024 blocks touched
        assert counts.max() < counts.mean() * 4

    def test_stream_walks_sequentially(self):
        region = Region("s", 0x100_0000, 1024 * 1024, "stream", kind_weights=_DATA,
                        run_mean=1.0)
        t = self._single_region_trace(region, n=2000)
        diffs = np.diff(t.addrs.astype(np.int64))
        assert np.all(diffs == 64)  # pure sequential walk, no wrap in 2000 accesses

    def test_rotating_changes_active_subset(self):
        region = Region("r", 0x100_0000, 256 * 1024, "rotating", kind_weights=_DATA,
                        subsets=4, rotate_dwells=1, run_mean=1.0)
        t = self._single_region_trace(region, n=40_000)
        # all four quarters of the region eventually used
        quarter = 256 * 1024 // 4
        offsets = (t.addrs - 0x100_0000) // quarter
        assert set(np.unique(offsets)) == {0, 1, 2, 3}

    def test_run_mean_creates_same_block_runs(self):
        region = Region("u", 0x100_0000, 1024 * 1024, "uniform", kind_weights=_DATA,
                        run_mean=8.0)
        t = self._single_region_trace(region, n=10_000)
        same = np.mean(t.addrs[1:] == t.addrs[:-1])
        assert same > 0.6  # most consecutive accesses share a block


class TestSuiteProfiles:
    def test_suite_profile_generates(self):
        t = generate_trace(app_profile("email"), 10_000, seed=0)
        assert len(t) == 10_000
        assert 0.1 < t.kernel_fraction() < 0.8


def _profile(name: str) -> AppProfile:
    if name.startswith("microbench/"):
        return microbench_profile(name.removeprefix("microbench/"))
    return app_profile(name)


#: Every suite app and microbenchmark profile.
_PROFILE_NAMES = APP_NAMES + EXTRA_APP_NAMES + tuple(f"microbench/{m}" for m in MICROBENCH_NAMES)
_LONG = 240_000
_PREFIX_LENGTHS = (1, 5, 999, 60_000)
_PREFIX_SEED = 7


def _long_trace(name: str):
    return generate_trace(_profile(name), _LONG, _PREFIX_SEED)


class TestPrefixStability:
    """A trace of length L is the first L accesses of the longer trace of
    the same (profile, seed), and since the L1 filter has no end-of-trace
    flush its L2 stream is the longer stream's rows for those accesses.

    ``Trace.instructions`` and a stream's L1 stats are not prefix
    quantities: they total the whole trace, so they are not compared.
    """

    @pytest.mark.parametrize("name", _PROFILE_NAMES)
    def test_trace_is_prefix_of_longer_trace(self, name):
        long_trace = _long_trace(name)
        for length in _PREFIX_LENGTHS:
            short = generate_trace(_profile(name), length, _PREFIX_SEED)
            for column in ("ticks", "addrs", "kinds", "privs"):
                np.testing.assert_array_equal(getattr(short, column),
                                              getattr(long_trace, column)[:length],
                                              err_msg=f"{name}@{length}: {column}")

    @pytest.mark.parametrize("name", _PROFILE_NAMES)
    def test_stream_is_prefix_of_longer_stream(self, name):
        long_trace = _long_trace(name)
        long_stream = l1_filter(long_trace, DEFAULT_PLATFORM)
        for length in _PREFIX_LENGTHS:
            short = l1_filter(generate_trace(_profile(name), length, _PREFIX_SEED),
                              DEFAULT_PLATFORM)
            # trace ticks rise strictly, and a stream row carries the tick
            # of the access that sent it, so the rows of the first
            # ``length`` accesses are those at or before its last tick
            rows = long_stream.ticks <= int(long_trace.ticks[length - 1])
            for column, _ in STREAM_COLUMNS:
                np.testing.assert_array_equal(getattr(short, column),
                                              getattr(long_stream, column)[rows],
                                              err_msg=f"{name}@{length}: {column}")


def _suite_mean_gaps():
    """Every distinct ``mean_gap`` of the suite and microbenchmark profiles."""
    return sorted({phase.mean_gap for name in _PROFILE_NAMES for phase in _profile(name).phases})


def _suite_weight_tuples():
    """Every distinct weight tuple the generator samples from, over all
    twelve app profiles: phase region weights, region kind weights and
    transition rows, then the gap pmf of each suite ``mean_gap``."""
    found = set()
    for name in APP_NAMES + EXTRA_APP_NAMES:
        profile = app_profile(name)
        found.update(profile.transitions)
        for phase in profile.phases:
            found.add(phase.weights)
            found.update(region.kind_weights for region in phase.regions)
    return sorted(found) + [_gap_pmf(mean) for mean in _suite_mean_gaps()]


class TestCachedCdfSampler:
    """The generator's ``_choice`` must be a drop-in for numpy's weighted
    ``Generator.choice``: same values, same generator state afterwards."""

    @pytest.mark.parametrize("weights", _suite_weight_tuples())
    @pytest.mark.parametrize("size", [None, 1, 7, 4096])
    def test_matches_numpy_choice(self, weights, size):
        ours = np.random.default_rng(20240)
        ref = np.random.default_rng(20240)
        for _ in range(3):
            got = _choice(ours, weights, size)
            want = ref.choice(len(weights), size=size, p=weights)
            if size is None:
                assert isinstance(got, int)
                assert got == int(want)
            else:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == ref.bit_generator.state


def _poisson(mean: float, k: int) -> float:
    """P(Poisson(mean) = k), from ``lgamma`` (independent of the helper's
    recurrence)."""
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


class TestGapSampler:
    """Instruction gaps are Poisson(``mean_gap``) floored at 1, drawn by
    inverting the CDF of ``_gap_pmf`` with one uniform per access."""

    @pytest.mark.parametrize("mean", _suite_mean_gaps())
    def test_pmf_is_floored_poisson(self, mean):
        pmf = _gap_pmf(mean)
        assert pmf[0] == 0.0
        want = [_poisson(mean, k) for k in range(len(pmf))]
        want[1] += want[0]
        want[0] = 0.0
        np.testing.assert_allclose(pmf, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mean", _suite_mean_gaps() + [1.0, 7.5, 40.0, 800.0])
    def test_truncated_tail_below_2_to_minus_53(self, mean):
        support = len(_gap_pmf(mean))
        assert support > mean
        tail = math.fsum(_poisson(mean, k) for k in range(support, support + 400))
        assert tail < 2.0 ** -53

    @pytest.mark.parametrize("mean", _suite_mean_gaps())
    def test_million_gaps_fit_floored_poisson(self, mean):
        n = 1_000_000
        gaps = _choice(np.random.default_rng(27), _gap_pmf(mean), n)
        assert gaps.min() >= 1
        counts = np.bincount(gaps).tolist()
        # chi-square over the buckets expecting at least 5 draws, the rest
        # pooled into the last one
        probs = [_poisson(mean, 0) + _poisson(mean, 1)]
        k = 2
        while n * _poisson(mean, k) >= 5:
            probs.append(_poisson(mean, k))
            k += 1
        probs.append(1.0 - math.fsum(probs))
        observed = counts[1:k] + [sum(counts[k:])]
        chi2 = sum((o - n * p) ** 2 / (n * p) for o, p in zip(observed, probs))
        df = len(probs) - 1
        # Wilson-Hilferty upper quantile at z = 4 (p ~ 3e-5)
        critical = df * (1 - 2 / (9 * df) + 4 * math.sqrt(2 / (9 * df))) ** 3
        assert chi2 < critical, (chi2, critical)

    @pytest.mark.parametrize("n", [1, 2, 999, 100_000])
    def test_one_uniform_per_gap(self, n):
        sampled = np.random.default_rng(11)
        _choice(sampled, _gap_pmf(2.5), n)
        drawn = np.random.default_rng(11)
        drawn.random(n)
        assert sampled.bit_generator.state == drawn.bit_generator.state
