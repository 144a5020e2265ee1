"""Ablation — dynamic controller epoch length.

Shorter epochs react faster to idle spans (more gating, more savings)
but decide on noisier statistics; longer epochs are stable but leave
leakage on the table.  This sweep shows the trade-off the default
(25k ticks) sits in.
"""

import numpy as np

from conftest import run_once
from repro.core.dynamic_partition import DynamicControllerConfig
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social")
EPOCHS = (10_000, 25_000, 50_000, 100_000)


def _sweep(length):
    results = run_specs({
        **{("base", app): JobSpec("baseline", app, length) for app in APPS},
        **{(epoch, app): JobSpec("dynamic-stt", app, length, design_kwargs={
            "config": DynamicControllerConfig(epoch_ticks=epoch)})
           for epoch in EPOCHS for app in APPS},
    })
    rows = []
    for epoch in EPOCHS:
        energy, loss = [], []
        for app in APPS:
            base, r = results["base", app], results[epoch, app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
        rows.append((epoch, float(np.mean(energy)), float(np.mean(loss))))
    return rows


def test_ablation_epoch_length(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: dynamic-controller epoch length (2-app mean)",
        ["epoch (ticks)", "norm. energy", "perf loss"],
        [[f"{e:,}", f"{n:.3f}", f"{p:+.2%}"] for e, n, p in rows],
    ))
    energies = [n for _, n, _ in rows]
    # every epoch choice must still save the large majority of L2 energy
    assert max(energies) < 0.4
