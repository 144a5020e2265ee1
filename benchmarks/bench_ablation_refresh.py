"""Ablation — expiry handling: invalidate-on-decay vs refresh-rewrite.

The canonical designs let decayed blocks die (invalidate); the
alternative refreshes live blocks before expiry.  Refresh removes the
expiry misses but pays a stream of extra write pulses.
"""

import numpy as np

from conftest import run_once
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social", "game")


def _sweep(length):
    modes = ("invalidate", "rewrite")
    specs = {("base", app): JobSpec("baseline", app, length) for app in APPS}
    for mode in modes:
        for app in APPS:
            specs[mode, app] = JobSpec(
                "static-stt", app, length, design_kwargs={"refresh_mode": mode})
    results = run_specs(specs)
    rows = []
    for mode in modes:
        energy, loss, refresh, expiry = [], [], [], []
        for app in APPS:
            base, r = results["base", app], results[mode, app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
            refresh.append(r.l2_stats.refresh_writes)
            expiry.append(r.l2_stats.expiry_invalidations)
        rows.append((mode, float(np.mean(energy)), float(np.mean(loss)),
                     float(np.mean(refresh)), float(np.mean(expiry))))
    return rows


def test_ablation_refresh_policy(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: STT-RAM decay handling (3-app mean)",
        ["mode", "norm. energy", "perf loss", "refresh writes", "expiry misses"],
        [[m, f"{e:.3f}", f"{p:+.2%}", f"{r:.0f}", f"{x:.0f}"] for m, e, p, r, x in rows],
    ))
    by_mode = {m: (e, p, r, x) for m, e, p, r, x in rows}
    assert by_mode["rewrite"][3] == 0  # refresh eliminates expiry misses
    assert by_mode["invalidate"][2] == 0  # and invalidate never refreshes
