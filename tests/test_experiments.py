"""Tests for the experiment harness (report, runner, figures, tables).

Figure/table functions run on shortened traces and app subsets here; the
full-length versions are exercised by the benchmarks.
"""

from pathlib import Path

import pytest

import repro
from repro.core.designs import DESIGN_NAMES
from repro.engine import JobSpec, ResultStore
from repro.engine.streamcache import load_stream
from repro.experiments import (
    fig1_kernel_share,
    fig2_interference,
    fig3_size_sweep,
    fig5_intervals,
    fig6_energy_breakdown,
    fig7_dynamic_timeline,
    fig8_energy_summary,
    format_percent,
    format_series,
    format_table,
    run_specs,
    table1_configuration,
    table2_technology,
    table3_workloads,
    table4_performance,
)
from repro.obs.metrics import REGISTRY

SHORT = 40_000
APPS = ("game", "email")


class TestReport:
    def test_format_percent(self):
        assert format_percent(0.4213) == "42.1%"
        assert format_percent(0.5, digits=0) == "50%"

    def test_format_table_alignment(self):
        out = format_table("T", ["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a " in out and " 1" in out

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="cells"):
            format_table("T", ["a", "b"], [["only-one"]])

    def test_format_series(self):
        out = format_series("S", "x", "y", [(1, 2), (3, 4)])
        assert "x" in out and "y" in out


def _fresh_jobs() -> int:
    return REGISTRY.counters.get("engine.job.fresh", 0)


class TestRunner:
    def test_stream_cached(self):
        a = load_stream("game", SHORT)
        b = load_stream("game", SHORT)
        assert a is b

    def test_canonical_result_cached(self):
        spec = {"r": JobSpec("baseline", "game", SHORT)}
        a = run_specs(spec)["r"]
        before = _fresh_jobs()
        assert run_specs(spec)["r"] == a
        assert _fresh_jobs() == before

    def test_canonical_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            run_specs({"r": JobSpec("foo", "game", SHORT)})

    def test_suite_results_keys(self):
        res = run_specs({app: JobSpec("baseline", app, SHORT) for app in APPS})
        assert tuple(res) == APPS
        assert [r.app for r in res.values()] == list(APPS)

    def test_shared_grid_simulated_once(self, tmp_path, monkeypatch):
        """fig6, fig8 and table4 share one grid: each spec is stored once,
        and a second pass over all three simulates nothing."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        load_stream.cache_clear()

        def run_all():
            fig6_energy_breakdown(SHORT, APPS)
            fig8_energy_summary(SHORT, APPS)
            table4_performance(SHORT, APPS)

        unique = len(DESIGN_NAMES) * len(APPS)
        before = _fresh_jobs()
        run_all()
        assert _fresh_jobs() - before == unique
        stats = ResultStore(tmp_path).stats()
        assert (stats.entries, stats.writes) == (unique, unique)
        before = _fresh_jobs()
        run_all()
        assert _fresh_jobs() == before
        load_stream.cache_clear()


def test_one_run_path_and_one_stream_memo():
    """Experiments and benches reach the simulator only through spec
    batches, and :func:`load_stream` is the only stream memo.

    A reference to a removed runner from ``repro.experiments`` or
    ``benchmarks/`` reintroduces a path that skips the result store;
    an ``lru_cache`` in a module that handles L2 streams reintroduces a
    second memo beside ``streamcache``'s keyed one.
    """
    src = Path(repro.__file__).parent
    modules = sorted((src / "experiments").glob("*.py"))
    modules += sorted((src.parents[1] / "benchmarks").glob("*.py"))
    offenders = [
        f"{path.name}: {name}"
        for path in modules
        for name in ("run_design_on", "canonical_result", "experiment_stream", "_worker_stream")
        if name in path.read_text()
    ]
    assert offenders == []
    memos = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if "lru_cache" in (text := path.read_text()) and "L2Stream" in text
    ]
    assert memos == []


class TestFigures:
    def test_fig1(self):
        r = fig1_kernel_share(SHORT, APPS)
        assert set(r.shares) == set(APPS)
        assert 0 < r.mean < 1
        assert "Figure 1" in r.render()

    def test_fig2(self):
        r = fig2_interference(SHORT, ("game",))
        row = r.rows[0]
        assert row.app == "game"
        assert row.cross_evictions_per_kilo_access >= 0
        assert "Figure 2" in r.render()

    def test_fig3_monotone_in_size(self):
        r = fig3_size_sweep(SHORT, ("game",), sizes_kb=(128, 1024))
        sizes = [s for s, _ in r.points]
        rates = [mr for _, mr in r.points]
        assert sizes == sorted(sizes)
        assert rates[0] >= rates[-1]
        assert "Figure 3" in r.render()

    def test_fig5(self):
        r = fig5_intervals(SHORT, ("game",))
        assert {row.privilege for row in r.rows} == {"user", "kernel"}
        for row in r.rows:
            assert row.p50_ms <= row.p90_ms <= row.p99_ms
        assert "retention windows" in r.render()

    def test_fig6(self):
        r = fig6_energy_breakdown(SHORT, APPS)
        designs = [row.design for row in r.rows]
        assert designs == list(("baseline", "static-sram", "static-stt", "dynamic-stt"))
        base = r.rows[0]
        assert base.normalized_total == pytest.approx(1.0)
        assert "Figure 6" in r.render()

    def test_fig7(self):
        r = fig7_dynamic_timeline("game", SHORT)
        assert len(r.ticks) == len(r.user_ways)
        assert r.mean_user_ways > 0
        assert "Figure 7" in r.render()

    def test_fig8(self):
        r = fig8_energy_summary(SHORT, APPS)
        assert r.mean("baseline") == pytest.approx(1.0)
        assert r.saving("static-stt") > 0
        assert "Figure 8" in r.render()


class TestTables:
    def test_table1(self):
        out = table1_configuration().render()
        assert "L2 cache" in out and "1024 KB" in out

    def test_table2(self):
        t = table2_technology()
        assert any("sram" in row[0] for row in t.rows)
        assert any("stt-short" in row[0] for row in t.rows)
        assert "Table 2" in t.render()

    def test_table3_lists_all_apps(self):
        t = table3_workloads()
        assert len(t.rows) == 8

    def test_table4(self):
        t = table4_performance(SHORT, APPS)
        assert set(t.loss) == set(APPS)
        for app in APPS:
            assert "baseline" not in t.loss[app]
        assert "Table 4" in t.render()
        assert t.mean("static-sram") is not None
