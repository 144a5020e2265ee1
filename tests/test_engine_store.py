"""Tests for the persistent result store and the result codec."""

import dataclasses
import json

import pytest

from repro import obs
from repro.core.designs import DESIGN_NAMES
from repro.core.result import DesignResult
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


class TestCodecRoundTrip:
    @pytest.mark.parametrize("design", DESIGN_NAMES)
    def test_exact_round_trip(self, canonical_results, design):
        result = canonical_results[design]
        restored = DesignResult.from_dict(result.to_dict())
        assert restored == result
        # field-level checks so a failure names the broken layer
        assert restored.timing == result.timing
        assert restored.dram_j == result.dram_j
        assert restored.extras == result.extras
        for got, want in zip(restored.segments, result.segments):
            assert got.stats == want.stats
            assert got.energy == want.energy
            assert got.byte_seconds == want.byte_seconds

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
