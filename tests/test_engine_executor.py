"""Tests for the parallel executor and the grid sweep layer."""

import pytest

import repro.engine.executor as executor_mod
from repro.engine.executor import run_jobs
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.engine.sweep import run_sweep

LENGTH = 8_000


def _grid(designs=("baseline", "static-stt"), apps=("browser", "game")):
    return [JobSpec(d, a, length=LENGTH) for d in designs for a in apps]


class TestRunJobs:
    def test_outcomes_in_input_order(self):
        specs = _grid()
        outcomes = run_jobs(specs, jobs=1)
        assert [o.spec for o in outcomes] == specs
        assert all(not o.cached for o in outcomes)

    def test_parallel_matches_serial(self):
        specs = _grid()
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=2)
        for s, p in zip(serial, parallel):
            assert s.result == p.result

    def test_duplicate_specs_share_one_simulation(self):
        spec = JobSpec("baseline", "browser", length=LENGTH)
        calls = []
        original = executor_mod._timed_execute

        def counting(s):
            calls.append(s)
            return original(s)

        executor_mod._timed_execute = counting
        try:
            outcomes = run_jobs([spec, spec, spec], jobs=1)
        finally:
            executor_mod._timed_execute = original
        assert len(calls) == 1
        assert len(outcomes) == 3
        assert outcomes[0].result == outcomes[2].result

    def test_store_round_trip_between_batches(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _grid()
        cold = run_jobs(specs, jobs=1, store=store)
        warm = run_jobs(specs, jobs=1, store=store)
        assert all(not o.cached for o in cold)
        assert all(o.cached for o in warm)
        for c, w in zip(cold, warm):
            assert c.result == w.result

    def test_progress_callback_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _grid()
        run_jobs(specs[:1], jobs=1, store=store)  # pre-warm one entry
        events = []
        run_jobs(specs, jobs=1, store=store, progress=events.append)
        assert len(events) == len(specs)
        assert events[0].cached == 1
        final = events[-1]
        assert final.completed == final.total == len(specs)
        assert final.running == 0
        assert "cached" in final.render()

    def test_retry_once_then_succeed(self):
        spec = JobSpec("baseline", "browser", length=LENGTH)
        original = executor_mod._timed_execute
        failures = iter([RuntimeError("injected")])

        def flaky(s):
            for exc in failures:
                raise exc
            return original(s)

        executor_mod._timed_execute = flaky
        try:
            outcomes = run_jobs([spec], jobs=1)
        finally:
            executor_mod._timed_execute = original
        assert outcomes[0].attempts == 2

    def test_persistent_failure_propagates(self):
        spec = JobSpec("baseline", "browser", length=LENGTH,
                       design_kwargs={"policy": "bogus"})
        with pytest.raises(ValueError):
            run_jobs([spec], jobs=1)

    def test_persistent_failure_propagates_from_pool(self):
        specs = [
            JobSpec("baseline", "browser", length=LENGTH),
            JobSpec("baseline", "game", length=LENGTH,
                    design_kwargs={"policy": "bogus"}),
        ]
        with pytest.raises(ValueError):
            run_jobs(specs, jobs=2)

    def test_bad_jobs_count_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_jobs([], jobs=0)


class TestRunSweep:
    def test_sweep_grid_and_summary(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = run_sweep(("baseline",), ("browser", "game"), seeds=(0, 1),
                          length=LENGTH, store=store)
        assert len(sweep.outcomes) == 4
        assert sweep.simulated == 4
        assert sweep.hit_rate() == 0.0
        assert ("baseline", "game", 1) in {(o.spec.design, o.spec.app, o.spec.seed)
                                            for o in sweep.outcomes}
        rendered = sweep.render()
        assert "0/4 jobs served from cache" in rendered

    def test_second_sweep_is_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        args = dict(designs=("baseline",), apps=("browser",), length=LENGTH, store=store)
        run_sweep(**args)
        warm = run_sweep(**args)
        assert warm.cached == 1
        assert warm.hit_rate() == 1.0
        assert "100.0%" in warm.render()
