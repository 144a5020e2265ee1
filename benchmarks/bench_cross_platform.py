"""Robustness — the headline on little/default/big platform presets.

Do the conclusions survive a different SoC corner?  The little core has
half the L2 (so the static segments are proportionally resized); the big
core has twice the L2 and a faster clock.  The energy ordering and the
bulk of the saving should hold everywhere.
"""

import numpy as np

from conftest import run_once
from repro.config import platform_preset
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "game")


PRESETS = ("little", "default", "big")


def _partition(platform):
    """The canonical 8+4 partition resized to the platform's L2."""
    scale = platform.l2.associativity / 16
    return {"user_ways": max(2, round(8 * scale)), "kernel_ways": max(1, round(4 * scale))}


def _sweep(length):
    per_app = max(120_000, length // 4)
    specs = {}
    for preset in PRESETS:
        platform = platform_preset(preset)
        for app in APPS:
            specs[preset, "base", app] = JobSpec("baseline", app, per_app, platform=platform)
            specs[preset, "stt", app] = JobSpec(
                "static-stt", app, per_app, platform=platform,
                design_kwargs=_partition(platform))
    results = run_specs(specs)
    rows = []
    for preset in PRESETS:
        ways = _partition(platform_preset(preset))
        energy, loss = [], []
        for app in APPS:
            base, r = results[preset, "base", app], results[preset, "stt", app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
        rows.append((preset, f"{ways['user_ways']}+{ways['kernel_ways']}",
                     float(np.mean(energy)), float(np.mean(loss))))
    return rows


def test_cross_platform(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Robustness: static-stt headline across platform presets (2-app mean)",
        ["platform", "partition", "norm. energy", "perf loss"],
        [[p, w, f"{e:.3f}", f"{l:+.2%}"] for p, w, e, l in rows],
    ))
    # the static technique must save the majority of L2 energy on every
    # preset, at single-digit performance cost
    for _, _, energy, loss in rows:
        assert energy < 0.45
        assert loss < 0.10
