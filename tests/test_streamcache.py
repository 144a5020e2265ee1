"""Tests for the persistent memory-mapped L2-stream cache.

Covers the ISSUE-5 contract: bit-identical round trips for every suite
app, corruption tolerance (truncated bundle -> silent rebuild +
eviction), stale-schema invalidation, design results identical whether
streams are fresh, cached or memory-mapped — on both engines — and the
executor/runner integration (each unique stream built once, memos
holding mmap-backed views instead of heap copies).
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cache.hierarchy import STREAM_COLUMNS, l1_filter
from repro.config import DEFAULT_PLATFORM, CacheGeometry, LatencyConfig, platform_preset
from repro.core.designs import make_design
from repro.engine import JobSpec, StreamCache, run_jobs
from repro.engine.spec import SCHEMA_VERSION, stream_key
from repro.engine import streamcache
from repro.engine.streamcache import default_stream_cache, load_stream
from repro.obs.metrics import REGISTRY
from repro.trace.workloads import APP_NAMES, suite_trace

SHORT = 20_000


def build_stream(app, length=SHORT, seed=0, platform=DEFAULT_PLATFORM):
    return l1_filter(suite_trace(app, length, seed), platform)


@pytest.fixture
def cache(tmp_path):
    return StreamCache(tmp_path)


@pytest.fixture
def fresh_cache_env(tmp_path, monkeypatch):
    """Empty default cache dir + cleared in-process stream memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    load_stream.cache_clear()
    yield tmp_path
    load_stream.cache_clear()


class TestKeying:
    def test_stream_key_ignores_design(self):
        a = JobSpec("baseline", "browser", length=SHORT)
        b = JobSpec("dynamic-stt", "browser", length=SHORT)
        assert a.stream_key == b.stream_key
        assert a.content_key != b.content_key

    def test_stream_key_sensitive_to_every_field(self):
        base = stream_key("browser", SHORT, 0, DEFAULT_PLATFORM)
        assert stream_key("game", SHORT, 0, DEFAULT_PLATFORM) != base
        assert stream_key("browser", SHORT + 1, 0, DEFAULT_PLATFORM) != base
        assert stream_key("browser", SHORT, 1, DEFAULT_PLATFORM) != base
        assert stream_key("browser", SHORT, 0, platform_preset("little")) != base

    def test_stream_key_ignores_what_the_l1_filter_does_not_read(self):
        base = stream_key("browser", SHORT, 0, DEFAULT_PLATFORM)
        variants = [
            replace(DEFAULT_PLATFORM, l2=DEFAULT_PLATFORM.l2.with_ways(8)),
            replace(DEFAULT_PLATFORM, latency=LatencyConfig(l2_hit=30, dram=200)),
            replace(DEFAULT_PLATFORM, clock_hz=2.0e9, base_cpi=1.0),
        ]
        for platform in variants:
            assert stream_key("browser", SHORT, 0, platform) == base
            assert JobSpec("baseline", "browser", length=SHORT, platform=platform).stream_key == (
                JobSpec("baseline", "browser", length=SHORT).stream_key
            )

    def test_stream_key_sees_each_l1_geometry(self):
        base = stream_key("browser", SHORT, 0, DEFAULT_PLATFORM)
        other_l1d = replace(DEFAULT_PLATFORM, l1d=CacheGeometry(16 * 1024, 4))
        other_l1i = replace(DEFAULT_PLATFORM, l1i=CacheGeometry(32 * 1024, 8))
        assert stream_key("browser", SHORT, 0, other_l1d) != base
        assert stream_key("browser", SHORT, 0, other_l1i) != base
        assert stream_key("browser", SHORT, 0, other_l1d) != stream_key(
            "browser", SHORT, 0, replace(DEFAULT_PLATFORM, l1i=CacheGeometry(16 * 1024, 4))
        )

    def test_app_profile_edit_misses(self, cache, monkeypatch):
        from repro.trace import workloads

        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        profile = workloads.app_profile("browser")
        monkeypatch.setitem(workloads._profiles(), "browser",
                            replace(profile, idle_mean_ticks=profile.idle_mean_ticks + 1))
        assert cache.get("browser", SHORT, 0, DEFAULT_PLATFORM) is None
        monkeypatch.undo()
        assert cache.get("browser", SHORT, 0, DEFAULT_PLATFORM) is not None

    def test_l2_variant_is_served_the_default_streams_bundle(self, cache):
        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        variant = replace(DEFAULT_PLATFORM, l2=CacheGeometry(512 * 1024, 8))
        assert cache.get("browser", SHORT, 0, variant) is not None


class TestRoundTrip:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_bit_identity_every_suite_app(self, cache, app):
        fresh = build_stream(app)
        cache.put(fresh, app, SHORT, 0, DEFAULT_PLATFORM)
        loaded = cache.get(app, SHORT, 0, DEFAULT_PLATFORM)
        assert loaded is not None
        for name, dtype in STREAM_COLUMNS:
            a, b = getattr(fresh, name), getattr(loaded, name)
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)
        assert loaded.name == fresh.name
        assert loaded.instructions == fresh.instructions
        assert loaded.trace_accesses == fresh.trace_accesses
        assert loaded.duration_ticks == fresh.duration_ticks
        assert loaded.l1i_stats.to_dict() == fresh.l1i_stats.to_dict()
        assert loaded.l1d_stats.to_dict() == fresh.l1d_stats.to_dict()

    def test_loaded_columns_are_memory_mapped(self, cache):
        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        loaded = cache.get("browser", SHORT, 0, DEFAULT_PLATFORM)
        for name, _ in STREAM_COLUMNS:
            assert isinstance(getattr(loaded, name), np.memmap), name

    def test_get_or_build_returns_mapped_views(self, cache):
        stream = cache.get_or_build("game", SHORT, 0, DEFAULT_PLATFORM)
        assert isinstance(stream.ticks, np.memmap)
        assert cache.stats().entries == 1

    def test_miss_on_empty_cache(self, cache):
        assert cache.get("browser", SHORT, 0, DEFAULT_PLATFORM) is None
        assert not cache.has("browser", SHORT, 0, DEFAULT_PLATFORM)
        assert cache.counters()["misses"] == 1

    def test_keys_do_not_collide(self, cache):
        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        assert cache.get("browser", SHORT, 1, DEFAULT_PLATFORM) is None
        assert cache.get("browser", SHORT, 0, platform_preset("big")) is None


class TestDurability:
    def _bundle(self, cache, app="browser"):
        key = stream_key(app, SHORT, 0, DEFAULT_PLATFORM)
        return cache._bundle_dir(key)

    def test_truncated_column_evicts_and_rebuilds(self, cache):
        fresh = build_stream("browser")
        cache.put(fresh, "browser", SHORT, 0, DEFAULT_PLATFORM)
        bundle = self._bundle(cache)
        ticks = bundle / "ticks.npy"
        ticks.write_bytes(ticks.read_bytes()[: ticks.stat().st_size // 2])
        assert cache.get("browser", SHORT, 0, DEFAULT_PLATFORM) is None
        assert not bundle.exists(), "corrupt bundle must be evicted"
        assert cache.counters()["corrupt_evictions"] == 1
        # a silent rebuild publishes a healthy bundle again
        rebuilt = cache.get_or_build("browser", SHORT, 0, DEFAULT_PLATFORM)
        np.testing.assert_array_equal(rebuilt.ticks, fresh.ticks)
        assert bundle.exists()

    def test_garbage_meta_evicts(self, cache):
        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        bundle = self._bundle(cache)
        (bundle / "meta.json").write_text("{not json")
        assert cache.get("browser", SHORT, 0, DEFAULT_PLATFORM) is None
        assert not bundle.exists()

    def test_stale_schema_version_invalidates(self, cache):
        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        bundle = self._bundle(cache)
        meta = json.loads((bundle / "meta.json").read_text())
        meta["schema"] = SCHEMA_VERSION - 1
        (bundle / "meta.json").write_text(json.dumps(meta))
        assert cache.get("browser", SHORT, 0, DEFAULT_PLATFORM) is None
        assert not bundle.exists()
        assert cache.counters()["corrupt_evictions"] == 1

    def test_clear_removes_bundles_and_history(self, cache):
        cache.put(build_stream("browser"), "browser", SHORT, 0, DEFAULT_PLATFORM)
        cache.put(build_stream("game"), "game", SHORT, 0, DEFAULT_PLATFORM)
        cache.flush_counters()
        assert cache.clear() == 2
        assert cache.stats().entries == 0
        assert cache.counters()["writes"] == 0

    def test_concurrent_publish_keeps_first_bundle(self, cache):
        fresh = build_stream("browser")
        first = cache.put(fresh, "browser", SHORT, 0, DEFAULT_PLATFORM)
        # a second writer racing on the same key must not corrupt or
        # duplicate the published bundle
        second = cache.put(fresh, "browser", SHORT, 0, DEFAULT_PLATFORM)
        assert first == second
        assert cache.stats().entries == 1
        loaded = cache.get("browser", SHORT, 0, DEFAULT_PLATFORM)
        np.testing.assert_array_equal(loaded.ticks, fresh.ticks)


class TestResultIdentity:
    """Design results must not depend on where the stream came from."""

    @pytest.mark.parametrize("fastsim", ["1", "0"])
    @pytest.mark.parametrize("design", ["baseline", "static-stt", "dynamic-stt"])
    def test_fresh_vs_mapped_streams(self, cache, monkeypatch, fastsim, design):
        monkeypatch.setenv("REPRO_FASTSIM", fastsim)
        fresh = build_stream("social")
        cache.put(fresh, "social", SHORT, 0, DEFAULT_PLATFORM)
        mapped = cache.get("social", SHORT, 0, DEFAULT_PLATFORM)
        built = cache.get_or_build("social", SHORT, 0, DEFAULT_PLATFORM)
        reference = make_design(design).run(fresh, DEFAULT_PLATFORM).to_dict()
        assert make_design(design).run(mapped, DEFAULT_PLATFORM).to_dict() == reference
        assert make_design(design).run(built, DEFAULT_PLATFORM).to_dict() == reference


class TestExecutorIntegration:
    GRID = [("baseline", "browser"), ("baseline", "game"),
            ("static-stt", "browser"), ("static-stt", "game")]

    def _specs(self):
        return [JobSpec(d, a, length=SHORT) for d, a in self.GRID]

    def test_cold_batch_builds_each_stream_once(self, fresh_cache_env):
        before = REGISTRY.counters.get("streamcache.build", 0)
        run_jobs(self._specs(), jobs=1, store=None)
        builds = REGISTRY.counters.get("streamcache.build", 0) - before
        assert builds == 2  # browser + game, not one per job
        persisted = StreamCache(fresh_cache_env).counters()
        assert persisted["writes"] == 2
        assert persisted["misses"] == 2

    def test_warm_batch_maps_instead_of_building(self, fresh_cache_env):
        run_jobs(self._specs(), jobs=1, store=None)
        load_stream.cache_clear()
        before = REGISTRY.counters.get("streamcache.build", 0)
        hits_before = REGISTRY.counters.get("streamcache.hit", 0)
        run_jobs(self._specs(), jobs=1, store=None)
        assert REGISTRY.counters.get("streamcache.build", 0) == before
        assert REGISTRY.counters.get("streamcache.hit", 0) - hits_before == 2

    def test_parallel_results_identical_to_serial(self, fresh_cache_env):
        serial = run_jobs(self._specs(), jobs=1, store=None)
        load_stream.cache_clear()
        parallel = run_jobs(self._specs(), jobs=2, store=None)
        for a, b in zip(serial, parallel):
            assert a.spec == b.spec
            assert a.result.to_dict() == b.result.to_dict()

    def test_parallel_cold_grid_publishes_each_stream_once(self, fresh_cache_env):
        run_jobs(self._specs(), jobs=2, store=None)
        persisted = StreamCache(fresh_cache_env).counters()
        assert persisted["writes"] == 2, persisted
        assert persisted["misses"] == 2, persisted
        assert StreamCache(fresh_cache_env).stats().entries == 2

    def test_worker_stream_memo_is_mmap_backed(self, fresh_cache_env):
        # the executor's call spelling: every field positional
        stream = load_stream("browser", SHORT, 0, DEFAULT_PLATFORM)
        assert isinstance(stream.ticks, np.memmap)
        assert load_stream("browser", SHORT, 0, DEFAULT_PLATFORM) is stream

    def test_disabled_cache_builds_in_process(self, fresh_cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert default_stream_cache() is None
        stream = load_stream("browser", SHORT)
        assert not isinstance(stream.ticks, np.memmap)
        load_stream.cache_clear()

    def test_serial_batch_releases_each_stream_after_its_last_job(self, fresh_cache_env):
        outcomes = run_jobs(self._specs(), jobs=1, store=None)
        assert not streamcache._MEMO
        for outcome, (design, app) in zip(outcomes, self.GRID):
            fresh = make_design(design).run(build_stream(app), DEFAULT_PLATFORM)
            assert outcome.result.to_dict() == fresh.to_dict()
        hits, builds = (REGISTRY.counters.get(name, 0)
                        for name in ("streamcache.hit", "streamcache.build"))
        stream = load_stream("game", SHORT)  # reopens the bundle
        assert isinstance(stream.ticks, np.memmap)
        assert REGISTRY.counters.get("streamcache.hit", 0) == hits + 1
        assert REGISTRY.counters.get("streamcache.build", 0) == builds
        assert load_stream("game", SHORT) is stream

    def test_disabled_cache_keeps_batch_streams(self, fresh_cache_env, monkeypatch):
        # the memo holds the only built copy, so releasing it would rebuild
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        run_jobs(self._specs(), jobs=1, store=None)
        assert len(streamcache._MEMO) == 2


class TestRunnerIntegration:
    def test_experiment_stream_is_mmap_backed(self, fresh_cache_env):
        """Experiments and the executor share one memo entry per stream,
        whatever the call spelling."""
        stream = load_stream("game", SHORT)
        assert isinstance(stream.ticks, np.memmap)
        assert load_stream("game", SHORT, 0, DEFAULT_PLATFORM) is stream

    def test_canonical_result_unchanged_by_stream_source(self, fresh_cache_env):
        from repro.experiments.runner import run_specs

        spec = JobSpec("static-stt", "music", length=SHORT)
        via_cache = run_specs({"r": spec})["r"].to_dict()
        fresh = make_design("static-stt").run(
            build_stream("music"), DEFAULT_PLATFORM
        ).to_dict()
        assert via_cache == fresh


def run_cli(*argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_cache_stats_reports_streams(self, fresh_cache_env):
        run_cli("sweep", "--designs", "baseline", "--apps", "video",
                "--length", "8000", "--no-progress")
        code, out = run_cli("cache", "stats")
        assert code == 0
        assert "result store" in out
        assert "stream cache" in out

    def test_cache_stats_json(self, fresh_cache_env):
        code, out = run_cli("cache", "stats", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"results", "streams"}
        assert payload["streams"]["entries"] == 0

    def test_cache_clear_selectors(self, fresh_cache_env):
        run_cli("sweep", "--designs", "baseline", "--apps", "video",
                "--length", "8000", "--no-progress")
        code, out = run_cli("cache", "clear", "--streams")
        assert code == 0
        assert "stream bundle(s)" in out
        assert "cached result(s)" not in out
        _, out = run_cli("cache", "stats", "--json")
        payload = json.loads(out)
        assert payload["streams"]["entries"] == 0
        assert payload["results"]["entries"] == 1
        code, out = run_cli("cache", "clear")  # default clears both
        assert "cached result(s)" in out and "stream bundle(s)" in out


class TestObsWiring:
    def test_stream_load_span_and_counters_in_run_log(self, fresh_cache_env, tmp_path):
        from repro import obs
        from repro.obs.summary import load_run, summarize

        log = tmp_path / "run.jsonl"
        previous = obs.set_recorder(obs.JsonlRecorder(log))
        try:
            run_jobs([JobSpec("baseline", "reader", length=SHORT)], jobs=1, store=None)
            obs.recorder().metrics()
        finally:
            rec = obs.set_recorder(previous)
            rec.close()
        summary = summarize(load_run(log))
        names = {p.name for p in summary.phases}
        assert "stream.load" in names
        assert summary.counters.get("streamcache.build", 0) >= 1
        assert summary.counters.get("streamcache.miss", 0) >= 1
        assert summary.counters.get("streamcache.write", 0) >= 1
