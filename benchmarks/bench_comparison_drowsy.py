"""Comparison — the paper's designs vs a drowsy-SRAM competitor.

Drowsy caching is the strongest SRAM-only leakage technique a designer
would try before changing memory technology.  This bench pits it
against the paper's STT-RAM designs on the full suite: the STT designs
must beat it for the paper's conclusion to stand.
"""

import numpy as np

from conftest import run_once
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs
from repro.trace.workloads import APP_NAMES

DESIGNS = ("drowsy-sram", "static-stt", "dynamic-stt")


def _sweep(length):
    results = run_specs({
        (design, app): JobSpec(design, app, length)
        for design in ("baseline", *DESIGNS)
        for app in APP_NAMES
    })
    rows = []
    for design in DESIGNS:
        energy, loss = [], []
        for app in APP_NAMES:
            base, r = results["baseline", app], results[design, app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
        rows.append((design, float(np.mean(energy)), float(np.mean(loss))))
    return rows


def test_comparison_drowsy_sram(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Comparison: drowsy SRAM vs the paper's STT designs (suite mean)",
        ["design", "norm. energy", "perf loss"],
        [[d, f"{e:.3f}", f"{p:+.2%}"] for d, e, p in rows],
    ))
    by_design = {d: e for d, e, _ in rows}
    # the paper's techniques must beat the best SRAM-only competitor
    assert by_design["static-stt"] < by_design["drowsy-sram"]
    assert by_design["dynamic-stt"] < by_design["static-stt"]
