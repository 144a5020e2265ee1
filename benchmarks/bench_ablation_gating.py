"""Ablation — what non-volatility is worth to the dynamic controller.

The dynamic design gates ways during idle.  On STT-RAM the gated ways
*keep their contents* (non-volatile cells); on SRAM the same controller
loses everything it gates.  Running the identical controller on both
technologies isolates the value of retention-through-gating.
"""

import numpy as np

from conftest import run_once
from repro.energy.technology import sram
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social", "game")


def _sweep(length):
    # the identical controller, its segments on SRAM instead of STT-RAM
    on_sram = {"user_tech": sram(), "kernel_tech": sram()}
    grid = run_specs({
        **{(design, app): JobSpec(design, app, length)
           for design in ("baseline", "dynamic-stt") for app in APPS},
        **{("dynamic-sram", app): JobSpec("dynamic-stt", app, length, design_kwargs=on_sram)
           for app in APPS},
    })
    results = {
        "dynamic on STT (retains)": {app: grid["dynamic-stt", app] for app in APPS},
        "dynamic on SRAM (loses)": {app: grid["dynamic-sram", app] for app in APPS},
    }
    rows = []
    for label, by_app in results.items():
        energy, loss, mr = [], [], []
        for app in APPS:
            base, r = grid["baseline", app], by_app[app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
            mr.append(r.l2_stats.demand_miss_rate)
        rows.append((label, float(np.mean(energy)), float(np.mean(loss)),
                     float(np.mean(mr))))
    return rows


def test_ablation_gating_volatility(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: gated-way volatility under the dynamic controller (3-app mean)",
        ["configuration", "norm. energy", "perf loss", "miss rate"],
        [[l, f"{e:.3f}", f"{p:+.2%}", f"{m:.2%}"] for l, e, p, m in rows],
    ))
    by_label = {l: (e, p, m) for l, e, p, m in rows}
    stt = by_label["dynamic on STT (retains)"]
    sram_row = by_label["dynamic on SRAM (loses)"]
    # losing the gated contents costs misses and performance
    assert sram_row[2] > stt[2]
    assert sram_row[1] > stt[1]
