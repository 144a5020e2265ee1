"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.core.designs import DESIGN_NAMES, REGISTERED_DESIGNS


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_every_registered_design_is_a_choice(self):
        parser = build_parser()
        for design in REGISTERED_DESIGNS:
            assert parser.parse_args(["run", "--design", design]).design == design
        args = parser.parse_args(["sweep", "--designs", "drowsy-sram", "hybrid"])
        assert args.designs == ["drowsy-sram", "hybrid"]
        assert parser.parse_args(["sweep"]).designs == list(DESIGN_NAMES)

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "browser"
        assert args.design == "static-stt"

    def test_figure_range_checked(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])


class TestList:
    def test_lists_everything(self):
        code, out = run_cli("list")
        assert code == 0
        for token in ("browser", "dynamic-stt", "lru", "medium"):
            assert token in out


class TestRun:
    def test_run_baseline(self):
        code, out = run_cli("run", "--app", "game", "--design", "baseline",
                            "--length", "30000")
        assert code == 0
        assert "demand miss rate" in out
        assert "L2 energy" in out
        assert "DRAM row-hit rate" not in out and "prefetch accuracy" not in out

    def test_run_with_prefetcher(self):
        code, out = run_cli("run", "--app", "game", "--design", "baseline",
                            "--length", "30000", "--prefetcher", "nextline")
        assert code == 0
        assert "prefetch accuracy" in out

    def test_run_with_banked_dram(self):
        code, out = run_cli("run", "--app", "game", "--design", "static-sram",
                            "--length", "30000", "--banked-dram")
        assert code == 0
        assert "DRAM row-hit rate" in out

    def test_prefetcher_rejected_for_dynamic(self):
        code, _ = run_cli("run", "--app", "game", "--design", "dynamic-stt",
                          "--length", "30000", "--prefetcher", "stride")
        assert code == 2

    def test_run_hybrid(self):
        code, out = run_cli("run", "--app", "game", "--design", "hybrid",
                            "--length", "20000")
        assert code == 0
        assert "hybrid on game" in out

    def test_banked_dram_rejected_for_drowsy(self, capsys):
        code, _ = run_cli("run", "--app", "game", "--design", "drowsy-sram",
                          "--length", "20000", "--banked-dram")
        assert code == 2
        assert "--banked-dram" in capsys.readouterr().err

    def test_prefetcher_rejected_for_hybrid(self, capsys):
        code, _ = run_cli("run", "--app", "game", "--design", "hybrid",
                          "--length", "20000", "--prefetcher", "nextline")
        assert code == 2
        assert "--prefetcher" in capsys.readouterr().err


class TestArtifacts:
    def test_table_1(self):
        code, out = run_cli("table", "1")
        assert code == 0
        assert "Table 1" in out

    def test_table_4_short(self):
        code, out = run_cli("table", "4", "--length", "30000")
        assert code == 0
        assert "Table 4" in out

    def test_figure_1_short(self):
        code, out = run_cli("figure", "1", "--length", "30000")
        assert code == 0
        assert "Figure 1" in out

    def test_figure_7_short(self):
        code, out = run_cli("figure", "7", "--length", "30000")
        assert code == 0
        assert "Figure 7" in out


class TestTraceCommand:
    def test_trace_roundtrip(self, tmp_path):
        out_file = tmp_path / "t.npz"
        code, out = run_cli("trace", "--app", "music", "--length", "5000",
                            "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        from repro.trace.io import load_trace

        trace = load_trace(out_file)
        assert trace.name == "music"
        assert len(trace) == 5000


class TestSearch:
    def test_search_prints_choice(self):
        code, out = run_cli("search", "--length", "25000", "--apps", "game")
        assert code == 0
        assert "chosen partition" in out


class TestExport:
    def test_export_csv(self, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out = run_cli("export", "--out", str(out_file), "--length", "30000")
        assert code == 0
        assert "32 rows" in out
        assert out_file.exists()


class TestSweep:
    def test_cold_then_warm(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ("sweep", "--designs", "baseline", "--apps", "browser", "game",
                "--length", "8000", "--no-progress")
        code, cold = run_cli(*argv)
        assert code == 0
        assert "0/2 jobs served from cache" in cold
        code, warm = run_cli(*argv)
        assert code == 0
        assert "2/2 jobs served from cache (100.0%)" in warm

    def test_parallel_matches_serial_output(self, tmp_path, monkeypatch):
        import re

        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        argv = ("sweep", "--designs", "static-sram", "--apps", "music",
                "--length", "8000", "--no-progress")
        _, serial = run_cli(*argv)
        _, parallel = run_cli(*argv, "--jobs", "2")

        def strip_walltimes(text):
            return re.sub(r"\d+\.\d+s", "Xs", text)

        assert strip_walltimes(serial) == strip_walltimes(parallel)

    def test_progress_lines_go_to_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, out = run_cli("sweep", "--designs", "baseline", "--apps", "reader",
                            "--length", "8000")
        assert code == 0
        err = capsys.readouterr().err
        assert "[1/1] baseline:reader" in err
        # stdout (the table) must stay free of progress lines so piped
        # output is machine-readable
        assert "[1/1]" not in out


class TestCache:
    def test_stats_and_clear(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_cli("sweep", "--designs", "baseline", "--apps", "video",
                "--length", "8000", "--no-progress")
        code, out = run_cli("cache", "stats")
        assert code == 0
        assert str(tmp_path) in out
        assert "entries" in out
        code, out = run_cli("cache", "clear")
        assert code == 0
        assert "removed 1 cached result(s)" in out
        _, out = run_cli("cache", "stats")
        assert "0" in out
