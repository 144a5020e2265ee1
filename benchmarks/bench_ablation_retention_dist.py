"""Ablation — fixed retention window vs thermally realistic lifetimes.

STT-RAM retention failures are exponentially distributed; the "10 ms
retention" of a datasheet is a mean (or a quantile), not a wall.  Under
exponential lifetimes a fraction of cells dies *early*, so a window
chosen to sit just above the reuse interval leaves no margin.  This
ablation quantifies the cost and shows the design consequence: the spec
window must clear the reuse horizon with margin, or a refresh scheme
must mop up the early deaths.
"""

import numpy as np

from conftest import run_once
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social", "game")


def _sweep(length):
    dists = ("fixed", "exponential")
    specs = {("base", app): JobSpec("baseline", app, length) for app in APPS}
    for dist in dists:
        for app in APPS:
            specs[dist, app] = JobSpec(
                "static-stt", app, length, design_kwargs={"retention_distribution": dist})
    results = run_specs(specs)
    rows = []
    for dist in dists:
        energy, loss, expiry = [], [], []
        for app in APPS:
            base, r = results["base", app], results[dist, app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
            expiry.append(r.l2_stats.expiry_invalidations)
        rows.append((dist, float(np.mean(energy)), float(np.mean(loss)),
                     float(np.mean(expiry))))
    # refresh-rewrite under exponential lifetimes is not modelled (the
    # controller would need per-cell failure prediction); the fixed-window
    # rewrite row bounds it from below.
    return rows


def test_ablation_retention_distribution(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: retention lifetime distribution (static-stt, 3-app mean)",
        ["distribution", "norm. energy", "perf loss", "expiry misses"],
        [[d, f"{e:.3f}", f"{p:+.2%}", f"{x:.0f}"] for d, e, p, x in rows],
    ))
    by_dist = {d: (e, p, x) for d, e, p, x in rows}
    # early deaths under exponential lifetimes cost extra misses/perf
    assert by_dist["exponential"][2] > by_dist["fixed"][2]
    assert by_dist["exponential"][1] > by_dist["fixed"][1]
    # but the energy conclusion is untouched
    assert abs(by_dist["exponential"][0] - by_dist["fixed"][0]) < 0.05
