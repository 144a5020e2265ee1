"""Ablation — retention-class assignment of the static STT-RAM design.

The paper assigns medium retention to the user segment and short to the
kernel segment, based on the interval asymmetry of Figure 5.  This
ablation tries all four assignments and checks the canonical one is on
the energy/performance Pareto frontier of the swap.
"""

import numpy as np

from conftest import run_once
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social", "game")

ASSIGNMENTS = [
    ("user=medium kernel=short (paper)", "medium", "short"),
    ("user=short  kernel=medium (swap)", "short", "medium"),
    ("both short", "short", "short"),
    ("both medium", "medium", "medium"),
]


def _sweep(length):
    specs = {("base", app): JobSpec("baseline", app, length) for app in APPS}
    for label, user_ret, kernel_ret in ASSIGNMENTS:
        retentions = {"user_retention": user_ret, "kernel_retention": kernel_ret}
        for app in APPS:
            specs[label, app] = JobSpec("static-stt", app, length, design_kwargs=retentions)
    results = run_specs(specs)
    rows = []
    for label, _, _ in ASSIGNMENTS:
        energy, loss, expiries = [], [], []
        for app in APPS:
            base, r = results["base", app], results[label, app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
            expiries.append(r.l2_stats.expiry_invalidations)
        rows.append((label, float(np.mean(energy)), float(np.mean(loss)),
                     float(np.mean(expiries))))
    return rows


def test_ablation_retention_assignment(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: retention-class assignment in the static STT design (3-app mean)",
        ["assignment", "norm. energy", "perf loss", "expiry misses"],
        [[l, f"{e:.3f}", f"{p:+.2%}", f"{x:.0f}"] for l, e, p, x in rows],
    ))
    by_label = {l: (e, p, x) for l, e, p, x in rows}
    paper = by_label["user=medium kernel=short (paper)"]
    swap = by_label["user=short  kernel=medium (swap)"]
    # swapping the classes puts short retention under long-dead-time user
    # blocks: it must cost more expiry misses and more performance
    assert swap[2] > paper[2]
    assert swap[1] > paper[1]
