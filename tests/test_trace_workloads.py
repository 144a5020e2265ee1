"""Unit tests for the workload suite definitions."""

import pytest

from repro.trace import workloads
from repro.trace.generator import generate_trace
from repro.trace.workloads import (
    APP_NAMES,
    DEFAULT_TRACE_LENGTH,
    EXTRA_APP_NAMES,
    app_profile,
    default_suite,
    suite_trace,
)
from repro.types import Privilege


class TestSuiteDefinitions:
    def test_eight_apps(self):
        assert len(APP_NAMES) == 8

    def test_all_profiles_construct(self):
        for name in APP_NAMES:
            profile = app_profile(name)
            assert profile.name == name
            assert profile.description

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError, match="unknown app"):
            app_profile("tiktok")

    def test_default_suite_order(self):
        suite = default_suite()
        assert tuple(p.name for p in suite) == APP_NAMES

    def test_profiles_have_both_privileges(self):
        for name in APP_NAMES:
            profile = app_profile(name)
            privs = {p.privilege for p in profile.phases}
            assert privs == {Privilege.USER, Privilege.KERNEL}

    def test_profiles_have_kernel_wake_phase(self):
        for name in APP_NAMES:
            profile = app_profile(name)
            assert profile.wake_phase is not None
            assert profile.phases[profile.wake_phase].privilege is Privilege.KERNEL

    def test_profile_cache_returns_same_object(self):
        assert app_profile("game") is app_profile("game")

    def test_profiles_built_once_per_process(self, monkeypatch):
        # looking up a new name must not rebuild (and re-validate) the
        # whole table: every profile is constructed exactly once
        built = []
        real = workloads._build_profile

        def counting(name, *args, **kwargs):
            built.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(workloads, "_build_profile", counting)
        workloads._profiles.cache_clear()
        try:
            for name in APP_NAMES + EXTRA_APP_NAMES:
                assert app_profile(name).name == name
            assert sorted(built) == sorted(APP_NAMES + EXTRA_APP_NAMES)
        finally:
            workloads._profiles.cache_clear()


class TestSuiteTraces:
    def test_suite_trace_distinct_apps_differ(self):
        a = suite_trace("game", 5_000)
        b = suite_trace("music", 5_000)
        assert a.name != b.name

    def test_default_length_constant(self):
        assert DEFAULT_TRACE_LENGTH >= 100_000

    def test_every_app_has_plausible_kernel_fraction(self):
        for name in APP_NAMES:
            t = generate_trace(app_profile(name), 20_000, seed=0)
            assert 0.15 < t.kernel_fraction() < 0.75, name

    def test_apps_have_distinct_address_footprints(self):
        import numpy as np

        t1 = generate_trace(app_profile("browser"), 5_000, seed=0)
        t2 = generate_trace(app_profile("game"), 5_000, seed=0)
        assert not np.array_equal(t1.addrs, t2.addrs)
