"""Ablation — flat DRAM latency vs the bank/row-buffer model.

The canonical results charge a flat 140 cycles per L2 miss.  This
ablation replays the headline designs against the banked LPDDR model to
check the conclusions are not an artifact of that simplification.
"""

import numpy as np

from conftest import run_once
from repro.dram import DRAMConfig, DRAMStats
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social", "game")


def _sweep(length):
    models = (("flat-140", {}), ("banked", {"dram": DRAMConfig()}))
    results = run_specs({
        (label, design, app): JobSpec(design, app, length, design_kwargs=kwargs)
        for label, kwargs in models
        for design in ("baseline", "static-stt")
        for app in APPS
    })
    rows = []
    for label, kwargs in models:
        base_loss, hit_rates = [], []
        for app in APPS:
            base = results[label, "baseline", app]
            stt = results[label, "static-stt", app]
            base_loss.append(stt.timing.perf_loss_vs(base.timing))
            if kwargs:
                hit_rates.append(DRAMStats(**base.extras["dram_stats"]).row_hit_rate)
        rows.append((
            label,
            float(np.mean(base_loss)),
            float(np.mean(hit_rates)) if hit_rates else None,
        ))
    return rows


def test_ablation_dram_model(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: DRAM model vs static-stt performance loss (3-app mean)",
        ["DRAM model", "static-stt perf loss", "row-hit rate"],
        [[l, f"{p:+.2%}", "-" if h is None else f"{h:.1%}"] for l, p, h in rows],
    ))
    losses = {l: p for l, p, _ in rows}
    # conclusion robust: perf loss stays in the same few-percent regime
    assert abs(losses["banked"] - losses["flat-140"]) < 0.05
