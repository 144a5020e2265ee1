"""Tests for the persistent result store and the result codec."""

import dataclasses
import itertools
import json
import typing

import numpy as np
import pytest

from repro import obs
from repro.cache.stats import CacheStats
from repro.core.designs import DESIGN_NAMES
from repro.core.result import DesignResult, SegmentReport
from repro.energy.model import EnergyBreakdown
from repro.timing.cpu import TimingResult
from repro.dram import DRAMConfig
from repro.engine.executor import execute_spec, run_jobs
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore, default_store
from repro.experiments import run_specs

#: Short but non-trivial: long enough that every design touches refresh,
#: eviction and privilege-split counters.
LENGTH = 12_000


@pytest.fixture(scope="module")
def canonical_results():
    """One freshly simulated result per canonical design (module-cached)."""
    return {
        name: execute_spec(JobSpec(name, "browser", length=LENGTH))
        for name in DESIGN_NAMES
    }


def _numbered(cls, count):
    """A ``cls`` whose every number is the next of ``count`` (floats plus
    a half); list fields keep the shape of their default."""
    def number(value):
        return [number(v) for v in value] if isinstance(value, list) else next(count)

    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            values[f.name] = number(f.default_factory())
        else:
            values[f.name] = next(count) + (0.5 if hints[f.name] is float else 0)
    return cls(**values)


def synthetic_result() -> DesignResult:
    """A two-segment result whose every field holds a distinct non-default
    value, so a field the codec or a sum drops cannot go unseen."""
    count = itertools.count(1)
    segments = tuple(
        SegmentReport(f"seg{i}", f"tech{i}", next(count), next(count) + 0.5,
                      _numbered(CacheStats, count), _numbered(EnergyBreakdown, count))
        for i in range(2)
    )
    return DesignResult("design", "app", segments, _numbered(TimingResult, count),
                        next(count) + 0.5, {"note": next(count)})


def _leaves(data):
    if isinstance(data, dict):
        return [leaf for value in data.values() for leaf in _leaves(value)]
    if isinstance(data, list):
        return [leaf for value in data for leaf in _leaves(value)]
    return [data]


class TestCodecRoundTrip:
    @pytest.mark.parametrize("design", [*DESIGN_NAMES, "synthetic"])
    def test_exact_round_trip(self, canonical_results, design):
        result = synthetic_result() if design == "synthetic" else canonical_results[design]
        restored = DesignResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        # field-level checks so a failure names the broken layer
        assert restored.timing == result.timing
        assert restored.dram_j == result.dram_j
        assert restored.extras == result.extras
        for got, want in zip(restored.segments, result.segments):
            assert got.stats == want.stats
            assert got.energy == want.energy
            assert got.byte_seconds == want.byte_seconds

    def test_synthetic_segments_sum_field_wise(self):
        result = synthetic_result()
        numbers = [v for v in _leaves(result.to_dict()) if not isinstance(v, str)]
        assert 0 not in numbers and len(set(numbers)) == len(numbers)
        (a, b), merged = (seg.stats for seg in result.segments), result.l2_stats
        for f in dataclasses.fields(CacheStats):
            want = np.add(getattr(a, f.name), getattr(b, f.name)).tolist()
            assert getattr(merged, f.name) == want, f.name
        (a, b), total = (seg.energy for seg in result.segments), result.l2_energy
        for f in dataclasses.fields(EnergyBreakdown):
            assert getattr(total, f.name) == getattr(a, f.name) + getattr(b, f.name), f.name

    def test_dict_form_is_json_clean(self, canonical_results):
        for result in canonical_results.values():
            json.dumps(result.to_dict(), allow_nan=False)

    def test_unserialisable_extras_raise(self, canonical_results):
        from dataclasses import replace

        broken = replace(canonical_results["baseline"], extras={"model": object()})
        with pytest.raises(TypeError, match="extras"):
            broken.to_dict()


class TestResultStore:
    def test_miss_then_hit(self, tmp_path, canonical_results):
        store = ResultStore(tmp_path)
        spec = JobSpec("baseline", "browser", length=LENGTH)
        assert store.get(spec) is None
        store.put(spec, canonical_results["baseline"])
        assert store.get(spec) == canonical_results["baseline"]

    def test_specs_do_not_collide(self, tmp_path, canonical_results):
        store = ResultStore(tmp_path)
        store.put(JobSpec("baseline", "browser", length=LENGTH),
                  canonical_results["baseline"])
        assert store.get(JobSpec("baseline", "browser", length=LENGTH, seed=1)) is None
        assert store.get(JobSpec("static-stt", "browser", length=LENGTH)) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, canonical_results):
        store = ResultStore(tmp_path)
        spec = JobSpec("baseline", "browser", length=LENGTH)
        path = store.put(spec, canonical_results["baseline"])
        path.write_text("{ truncated garba")
        assert store.get(spec) is None
        assert not path.exists()

    @pytest.mark.parametrize("where, key", [
        (("segments", 0, "stats"), "refresh_writes"),
        (("timing",), "duration_ticks"),
    ])
    def test_nested_missing_key_is_a_miss_and_removed(self, tmp_path, canonical_results,
                                                       where, key):
        store = ResultStore(tmp_path)
        spec = JobSpec("baseline", "browser", length=LENGTH)
        path = store.put(spec, canonical_results["baseline"])
        payload = json.loads(path.read_text())
        node = payload["result"]
        for step in where:
            node = node[step]
        del node[key]
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert not path.exists()
        assert store.counters()["corrupt_evictions"] == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path, canonical_results):
        store = ResultStore(tmp_path)
        spec = JobSpec("baseline", "browser", length=LENGTH)
        path = store.put(spec, canonical_results["baseline"])
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None

    def test_stats_and_clear(self, tmp_path, canonical_results):
        store = ResultStore(tmp_path)
        for i, (name, result) in enumerate(canonical_results.items()):
            store.put(JobSpec(name, "browser", length=LENGTH), result)
        stats = store.stats()
        assert stats.entries == len(canonical_results)
        assert stats.total_bytes > 0
        assert store.clear() == len(canonical_results)
        assert store.stats().entries == 0

    def test_no_tmp_droppings_after_put(self, tmp_path, canonical_results):
        store = ResultStore(tmp_path)
        store.put(JobSpec("baseline", "browser", length=LENGTH),
                  canonical_results["baseline"])
        assert not list(tmp_path.rglob("*.tmp"))


#: Jobs whose designs set the memory-side fields (the banked DRAM model,
#: an L2 prefetcher), keyed by the extra each one's result reports.
MEMORY_SPECS = {
    "dram_stats": JobSpec("baseline", "browser", length=LENGTH,
                          design_kwargs={"dram": DRAMConfig()}),
    "prefetch_issued": JobSpec("static-sram", "browser", length=LENGTH,
                               design_kwargs={"prefetch": "nextline"}),
}


class TestMemorySideFields:
    """Banked DRAM and prefetch results are stored like any other."""

    @pytest.mark.parametrize("extra", MEMORY_SPECS)
    def test_exact_round_trip(self, extra):
        result = execute_spec(MEMORY_SPECS[extra])
        assert result.extras[extra]
        assert DesignResult.from_dict(result.to_dict()) == result

    def test_rerun_simulates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_specs(MEMORY_SPECS)
        fresh = obs.REGISTRY.counters.get("engine.job.fresh", 0)
        assert run_specs(MEMORY_SPECS) == first
        assert obs.REGISTRY.counters.get("engine.job.fresh", 0) == fresh
        assert ResultStore(tmp_path).stats().writes == len(MEMORY_SPECS)


class TestStaleModelInputs:
    """A stored result is served only while every input behind it holds."""

    def _run(self, store):
        (outcome,) = run_jobs([JobSpec("baseline", "browser", length=LENGTH)], store=store)
        return outcome

    def test_unmodified_warm_rerun_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [JobSpec(name, "browser", length=LENGTH) for name in DESIGN_NAMES]
        assert not any(o.cached for o in run_jobs(specs, store=store))
        assert all(o.cached for o in run_jobs(specs, store=store))

    def test_sram_leakage_edit_misses_and_recomputes(self, tmp_path, monkeypatch):
        from repro.core import baseline
        from repro.energy.technology import sram

        store = ResultStore(tmp_path)
        old = self._run(store).result
        monkeypatch.setattr(baseline, "sram",
                            lambda: dataclasses.replace(sram(), leakage_mw_per_mb=10.0))
        warm = self._run(store)
        assert not warm.cached
        assert warm.result.l2_energy.total_j < old.l2_energy.total_j
        assert warm.result == self._run(None).result

    def test_app_profile_edit_misses(self, tmp_path, monkeypatch):
        from repro.trace import workloads

        store = ResultStore(tmp_path)
        old = self._run(store).result
        profile = workloads.app_profile("browser")
        monkeypatch.setitem(workloads._profiles(), "browser",
                            dataclasses.replace(profile, idle_prob=profile.idle_prob / 2))
        warm = self._run(store)
        assert not warm.cached
        assert warm.result.l2_stats != old.l2_stats


class TestDefaultStore:
    def test_honours_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "elsewhere"

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert default_store() is None
