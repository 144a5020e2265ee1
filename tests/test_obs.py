"""Tests for the observability subsystem (repro.obs).

Covers the three PR guarantees in particular: every emitted event
round-trips through the schema validator, the disabled (no-op) recorder
creates no files and retains no state, and simulation results are
bit-identical with tracing on or off.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.cache.hierarchy import l1_filter
from repro.config import DEFAULT_PLATFORM
from repro.core.designs import make_design
from repro.core.pipeline import ReplaySession
from repro.engine import JobOutcome, JobSpec, ResultStore, run_sweep
from repro.engine.executor import BatchProgress
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.summary import load_run, summarize
from repro.trace.generator import generate_trace
from repro.trace.phases import AppProfile, PhaseSpec, Region
from repro.trace.workloads import suite_trace
from repro.types import KERNEL_SPACE_START, Privilege


@pytest.fixture(autouse=True)
def _clean_obs():
    """Give every test a null recorder and an empty registry."""
    saved = obs.set_recorder(obs_trace.NULL_RECORDER)
    saved_counters = dict(obs.REGISTRY.counters)
    obs.REGISTRY.reset()
    yield
    obs.set_recorder(saved)
    obs.REGISTRY.reset()
    obs.REGISTRY.counters.update(saved_counters)


def run_traced_sweep(tmp_path, **kwargs):
    """One small traced sweep; returns (log path, sweep result)."""
    log = tmp_path / "run.jsonl"
    obs.configure(log)
    try:
        sweep = run_sweep(**{
            "designs": ["baseline", "static-stt"],
            "apps": ["browser", "game"],
            "length": 8000,
            "store": None,
            **kwargs,
        })
    finally:
        obs.recorder().metrics()
        obs.configure(None)
    return log, sweep


class TestMetricsRegistry:
    def test_counters(self):
        reg = obs_metrics.MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b")
        assert reg.counters == {"a": 5, "b": 1}

    def test_snapshot_and_reset(self):
        reg = obs_metrics.MetricsRegistry()
        reg.inc("x")
        snap = reg.snapshot()
        assert snap["counters"] == {"x": 1}
        assert json.loads(json.dumps(snap)) == snap  # JSON-clean
        reg.reset()
        assert reg.snapshot() == {"counters": {}}


class TestNullRecorder:
    def test_is_default_without_env(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        obs.set_recorder(None)  # force lazy re-resolution
        assert obs.recorder() is obs_trace.NULL_RECORDER

    def test_no_file_created_and_no_state(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with obs.span("phase", detail=1) as sp:
            sp.note(extra=2)
        obs.event("something", value=3)
        obs.recorder().metrics()
        obs.recorder().close()
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere
        # the null recorder is a stateless singleton: same span object
        # every time, no buffers, no attributes accumulated
        assert obs.span("a") is obs.span("b")
        assert not hasattr(obs_trace.NULL_RECORDER, "_fh")

    def test_env_opt_in(self, tmp_path, monkeypatch):
        log = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(log))
        obs.set_recorder(None)
        try:
            assert obs.recorder().enabled
            with obs.span("phase"):
                pass
        finally:
            obs.recorder().close()
            obs.set_recorder(obs_trace.NULL_RECORDER)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["type"] for e in lines] == ["run", "span"]


class TestEventSchema:
    def test_every_emitted_event_round_trips(self, tmp_path):
        log, _ = run_traced_sweep(tmp_path)
        run = load_run(log)  # load_run validates every line
        types = {e["type"] for e in run.events}
        assert {"run", "span", "event", "metrics"} <= types
        for event in run.events:
            assert obs.validate_event(json.loads(json.dumps(event))) == event

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown event type"):
            obs.validate_event({"type": "mystery", "ts": 0.0, "pid": 1})

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing required keys"):
            obs.validate_event({"type": "span", "name": "x", "ts": 0.0})

    def test_validate_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            obs.validate_event(["span"])

    def test_load_run_reports_bad_line(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"type": "event", "name": "ok", "ts": 1.0, "pid": 2}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_run(log)


class TestTracedSweep:
    def test_spans_cover_batch_wall_time(self, tmp_path):
        # a seed no other test uses, so the per-process stream memo is
        # cold and the l1.filter / trace.generate spans actually fire
        log, sweep = run_traced_sweep(tmp_path, seeds=[91])
        assert len(sweep.outcomes) == 4
        summary = summarize(load_run(log))
        assert summary.batch_wall_s == pytest.approx(sweep.wall_s, rel=0.25)
        # the acceptance bar: instrumented phases explain >= 95% of the
        # measured batch wall time
        assert summary.coverage >= 0.95
        for phase in ("batch", "job", "l1.filter", "replay", "assemble"):
            assert summary.phase(phase) is not None, f"missing span {phase}"
        assert summary.phase("job").count == 4

    def test_summary_carries_dispatch_and_store_counters(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        log, _ = run_traced_sweep(tmp_path, store=store)
        summary = summarize(load_run(log))
        assert summary.counters["pipeline.dispatch.fastsim"] == 4
        assert summary.counters["store.miss"] == 4
        assert summary.counters["store.write"] == 4
        assert summary.counters["engine.job.fresh"] == 4

    def test_render_mentions_phases_and_coverage(self, tmp_path):
        log, _ = run_traced_sweep(tmp_path)
        text = summarize(load_run(log)).render()
        assert "where the time went" in text
        assert "coverage" in text
        assert "replay" in text
        assert "counters" in text


def _write_spans(path, spans):
    """Write a run log of ``(name, pid, t0, t1)`` spans."""
    path.write_text("".join(
        json.dumps({"type": "span", "name": name, "ts": t0, "t0": t0, "t1": t1,
                    "dur_s": t1 - t0, "pid": pid, "attrs": {}}) + "\n"
        for name, pid, t0, t1 in spans
    ))
    return path


class TestSelfTime:
    # dyadic times, so every sum below is exact
    SERIAL = [
        ("job", 7, 0.0, 1.0), ("replay", 7, 0.25, 0.75),
        ("job", 7, 1.0, 2.0), ("replay", 7, 1.5, 1.75),
    ]

    def test_serial_self_times_partition_the_wall(self, tmp_path):
        summary = summarize(load_run(_write_spans(tmp_path / "serial.jsonl", self.SERIAL)))
        assert summary.phase("job").total_s == 2.0
        assert summary.phase("job").self_s == 1.25
        assert summary.phase("replay").self_s == 0.75
        shares = sum(stat.self_s / summary.batch_wall_s for stat in summary.phases)
        assert shares <= 1.0
        assert "self s" in summary.render()

    def test_spans_nest_only_within_their_process(self, tmp_path):
        # a second worker's job overlaps pid 7's jobs but is nobody's child
        spans = self.SERIAL + [("job", 8, 0.5, 1.5)]
        summary = summarize(load_run(_write_spans(tmp_path / "two.jsonl", spans)))
        assert summary.phase("job").self_s == 1.25 + 1.0
        assert summary.phase("replay").self_s == 0.75


class TestResultsUnperturbed:
    def test_bit_identical_with_tracing_on_and_off(self, tmp_path):
        stream = l1_filter(suite_trace("browser", 12000, 3), DEFAULT_PLATFORM)
        baseline = make_design("static-stt").run(stream, DEFAULT_PLATFORM)
        obs.configure(tmp_path / "traced.jsonl")
        try:
            traced = make_design("static-stt").run(stream, DEFAULT_PLATFORM)
        finally:
            obs.configure(None)
        assert traced.to_dict() == baseline.to_dict()
        # and the log actually recorded the traced run
        assert any(e["type"] == "span" for e in load_run(tmp_path / "traced.jsonl").events)


class TestReplaySpans:
    def test_replay_spans_carry_row_counts(self, browser_stream_small, tmp_path):
        obs.configure(tmp_path / "rows.jsonl")
        try:
            for design, engine in (("static-stt", "fast"), ("static-stt", "reference"),
                                   ("dynamic-stt", "fast"), ("dynamic-stt", "reference"),
                                   ("hybrid", "auto")):
                make_design(design).run(browser_stream_small, DEFAULT_PLATFORM, engine=engine)
        finally:
            obs.configure(None)
        replays = [sp for sp in load_run(tmp_path / "rows.jsonl").spans()
                   if sp["name"] == "replay"]
        assert [(sp["attrs"]["design"], sp["attrs"]["engine"]) for sp in replays] == [
            ("static-stt", "fastsim"), ("static-stt", "reference"),
            ("dynamic-stt", "fastsim"), ("dynamic-stt", "reference"),
            ("hybrid", "reference"),
        ]
        assert all(sp["attrs"]["rows"] == len(browser_stream_small) for sp in replays)


class TestGenerateSpan:
    def test_generate_span_counts_dwells(self, tmp_path):
        # Two phases that strictly alternate, with no idle periods: every
        # dwell flips the privilege, so the dwells are the privilege runs.
        user = Region("u", 0x1000_0000, 64 * 1024, "uniform", kind_weights=(0.0, 0.7, 0.3))
        kern = Region("k", KERNEL_SPACE_START + 0x10000, 32 * 1024, "hot",
                      kind_weights=(0.5, 0.3, 0.2))
        profile = AppProfile(
            "alternating", "test",
            (PhaseSpec("user", Privilege.USER, (user,), (1.0,), mean_accesses=40),
             PhaseSpec("kern", Privilege.KERNEL, (kern,), (1.0,), mean_accesses=40)),
            ((0.0, 1.0), (1.0, 0.0)), idle_prob=0.0,
        )
        obs.configure(tmp_path / "gen.jsonl")
        try:
            trace = generate_trace(profile, 5000, seed=2)
        finally:
            obs.configure(None)
        (span,) = [sp for sp in load_run(tmp_path / "gen.jsonl").spans()
                   if sp["name"] == "trace.generate"]
        runs = 1 + int(np.count_nonzero(np.diff(trace.privs.astype(np.int8))))
        assert span["attrs"]["dwells"] == runs > 1
        assert span["attrs"]["length"] == 5000


class TestDispatchCounters:
    def test_auto_dispatch_counts_fastsim(self, browser_stream_small):
        make_design("baseline").run(browser_stream_small, DEFAULT_PLATFORM)
        assert obs.REGISTRY.counters.get("pipeline.dispatch.fastsim", 0) == 1

    def test_kill_switch_fallback_is_counted_and_reported(
            self, browser_stream_small, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FASTSIM", "0")
        obs.configure(tmp_path / "fallback.jsonl")
        try:
            make_design("baseline").run(browser_stream_small, DEFAULT_PLATFORM)
        finally:
            obs.configure(None)
        assert obs.REGISTRY.counters["pipeline.dispatch.reference"] == 1
        assert obs.REGISTRY.counters["pipeline.fallback.kill-switch"] == 1
        events = load_run(tmp_path / "fallback.jsonl").events
        fallbacks = [e for e in events
                     if e["type"] == "event" and e["name"] == "pipeline.fallback"]
        assert fallbacks and fallbacks[0]["attrs"]["reason"] == "kill-switch"

    def test_disqualified_fallback_is_counted_and_reported(self, browser_stream_small, tmp_path):
        # PLRU lies outside the kernel's envelope, which the baseline
        # design knows before replay.
        obs.configure(tmp_path / "plru.jsonl")
        try:
            result = make_design("baseline", policy="plru").run(
                browser_stream_small, DEFAULT_PLATFORM)
        finally:
            obs.configure(None)
        assert result.extras["sim_engine"] == "reference"
        assert obs.REGISTRY.counters["pipeline.fallback.disqualified"] == 1
        assert obs.REGISTRY.counters["fastsim.decline.unsupported-cache"] == 1
        events = load_run(tmp_path / "plru.jsonl").events
        fallbacks = [e["attrs"] for e in events
                     if e["type"] == "event" and e["name"] == "pipeline.fallback"]
        assert fallbacks == [{"design": "baseline", "reason": "disqualified"}]

    def test_reference_engine_is_an_expected_fallback(self, browser_stream_small):
        make_design("baseline").run(browser_stream_small, DEFAULT_PLATFORM, engine="reference")
        assert obs.REGISTRY.counters["pipeline.fallback.engine=reference"] == 1

    def test_fast_engine_error_is_counted(self, browser_stream_small):
        session = ReplaySession("x", browser_stream_small, engine="fast")
        with pytest.raises(ValueError):
            session.dispatch_fast(False, "never qualifies")
        assert obs.REGISTRY.counters["pipeline.dispatch.error"] == 1


class TestStoreCounters:
    def spec(self):
        return JobSpec(design="baseline", app="browser", length=8000)

    def result(self):
        from repro.engine.executor import execute_spec

        return execute_spec(self.spec())

    def test_hit_miss_write_tallies(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        assert store.get(spec) is None
        store.put(spec, self.result())
        assert store.get(spec) is not None
        assert store.counters() == {
            "hits": 1, "misses": 1, "writes": 1, "corrupt_evictions": 0,
        }
        assert obs.REGISTRY.counters["store.hit"] == 1
        assert obs.REGISTRY.counters["store.miss"] == 1
        assert obs.REGISTRY.counters["store.write"] == 1

    def test_corrupt_entry_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        path = store.put(spec, self.result())
        path.write_text("{ truncated garbage")
        assert store.get(spec) is None
        assert store.counters()["corrupt_evictions"] == 1
        assert store.counters()["misses"] == 1
        assert obs.REGISTRY.counters["store.corrupt-evicted"] == 1

    def test_flush_persists_across_instances(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        store.get(spec)
        store.put(spec, self.result())
        totals = store.flush_counters()
        assert totals["misses"] == 1 and totals["writes"] == 1
        # a brand-new instance reads the same history
        fresh = ResultStore(tmp_path)
        assert fresh.stats().misses == 1
        assert fresh.stats().writes == 1
        # flushing again without new activity changes nothing
        assert fresh.flush_counters() == totals

    def test_stats_hit_rate(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        store.get(spec)                       # miss
        store.put(spec, self.result())
        store.get(spec)                       # hit
        stats = store.stats()
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_clear_resets_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = self.spec()
        store.get(spec)
        store.flush_counters()
        store.clear()
        assert store.counters() == dict.fromkeys(
            ("hits", "misses", "writes", "corrupt_evictions"), 0)
        assert not (tmp_path / "counters.json").exists()


class TestBatchProgress:
    def outcome(self, wall_s=2.0):
        return JobOutcome(self.spec(), None, cached=False, wall_s=wall_s,
                          attempts=1, cpu_s=1.5)

    def spec(self):
        return JobSpec(design="baseline", app="browser", length=8000)

    def test_render_reports_rate_and_eta(self):
        started = time.perf_counter() - 10.0
        progress = BatchProgress(total=8, completed=5, cached=0, running=3,
                                 last=self.outcome(), started_at=started)
        line = progress.render()
        assert line.startswith("[5/8] baseline:browser 2.0s")
        assert "job/s" in line
        assert "eta" in line
        assert progress.elapsed_s == pytest.approx(10.0, abs=1.0)

    def test_render_without_timestamp_stays_plain(self):
        progress = BatchProgress(total=2, completed=1, cached=1, running=1,
                                 last=JobOutcome(self.spec(), None, cached=True,
                                                 wall_s=0.0, attempts=0))
        line = progress.render()
        assert "job/s" not in line and "eta" not in line

    def test_outcome_carries_cpu_time(self, tmp_path):
        sweep = run_sweep(designs=["baseline"], apps=["browser"], length=8000,
                          store=None)
        outcome = sweep.outcomes[0]
        assert outcome.cpu_s > 0
        assert outcome.cpu_s <= outcome.wall_s * 1.5 + 0.1


class TestObsCli:
    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_traced_sweep_and_summary(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        log = tmp_path / "sweep.jsonl"
        code, _ = self.run_cli("sweep", "--designs", "baseline", "--apps", "reader",
                               "--length", "8000", "--no-progress",
                               "--trace", str(log))
        assert code == 0
        assert log.exists()
        code, out = self.run_cli("obs", "summary", str(log))
        assert code == 0
        assert "where the time went" in out
        assert "coverage" in out

    def test_summary_missing_log_fails(self, tmp_path):
        code, _ = self.run_cli("obs", "summary", str(tmp_path / "absent.jsonl"))
        assert code == 2

    def test_cache_stats_reports_hit_rate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self.run_cli("sweep", "--designs", "baseline", "--apps", "reader",
                     "--length", "8000", "--no-progress")
        self.run_cli("sweep", "--designs", "baseline", "--apps", "reader",
                     "--length", "8000", "--no-progress")
        code, out = self.run_cli("cache", "stats")
        assert code == 0
        assert "hit rate" in out
        assert "50.0%" in out
        assert "corrupt evictions" in out

    def test_run_with_trace_writes_valid_log(self, tmp_path, monkeypatch):
        # ``repro run`` is store-backed: an empty cache makes it replay
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        log = tmp_path / "run.jsonl"
        code, _ = self.run_cli("run", "--app", "game", "--design", "baseline",
                               "--length", "12000", "--trace", str(log))
        assert code == 0
        summary = summarize(load_run(log))
        assert summary.phase("l1.filter") is not None
        assert summary.phase("replay") is not None
