"""Ablation — flat DRAM latency vs the bank/row-buffer model.

The canonical results charge a flat 140 cycles per L2 miss.  This
ablation replays the headline designs against the banked LPDDR model to
check the conclusions are not an artifact of that simplification.
"""

import numpy as np

from conftest import run_once
from repro.core.baseline import BaselineDesign
from repro.core.multi_retention import multi_retention_design
from repro.config import DEFAULT_PLATFORM
from repro.dram import DRAMModel
from repro.engine.streamcache import load_stream
from repro.experiments import format_table

APPS = ("browser", "social", "game")


def _sweep(length):
    rows = []
    for label, dram_factory in (("flat-140", lambda: None), ("banked", DRAMModel)):
        base_loss, hit_rates = [], []
        for app in APPS:
            stream = load_stream(app, length)
            dram_b = dram_factory()
            base = BaselineDesign().run(stream, DEFAULT_PLATFORM, dram_model=dram_b)
            dram_s = dram_factory()
            stt = multi_retention_design().run(stream, DEFAULT_PLATFORM, dram_model=dram_s)
            base_loss.append(stt.timing.perf_loss_vs(base.timing))
            if dram_b is not None:
                hit_rates.append(dram_b.stats.row_hit_rate)
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
