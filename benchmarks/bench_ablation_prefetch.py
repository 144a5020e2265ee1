"""Ablation — L2 prefetching on top of the partitioned designs.

The suite's streaming tiers are prefetchable; the interesting question
is whether prefetch pollution undoes the shrunk partition.  Because
prefetches are installed into the missing access's own segment, the
user/kernel isolation guarantee survives.
"""

import numpy as np

from conftest import run_once
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("video", "music", "browser")  # streaming-heavy apps

#: (row label, design, prefetcher): ``static-sram`` is the shrunk SRAM
#: partition with the default 8 user + 4 kernel ways.
CONFIGS = (
    ("baseline", "baseline", None),
    ("baseline+nextline", "baseline", "nextline"),
    ("baseline+stride", "baseline", "stride"),
    ("static+nextline", "static-sram", "nextline"),
    ("static", "static-sram", None),
)


def _sweep(length):
    results = run_specs({
        (label, app): JobSpec(design, app, length,
                              design_kwargs={"prefetch": pf} if pf else {})
        for label, design, pf in CONFIGS
        for app in APPS
    })
    rows = []
    for label, _, pf in CONFIGS:
        rates, useful = [], []
        for app in APPS:
            r = results[label, app]
            rates.append(r.l2_stats.demand_miss_rate)
            if pf is not None and r.extras.get("prefetch_issued"):
                useful.append(r.extras["prefetch_useful"] / r.extras["prefetch_issued"])
        rows.append((label, float(np.mean(rates)),
                     float(np.mean(useful)) if useful else None))
    return rows


def test_ablation_prefetch(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: L2 prefetching (3 streaming apps, mean)",
        ["config", "demand miss rate", "prefetch accuracy"],
        [[l, f"{mr:.2%}", "-" if acc is None else f"{acc:.1%}"] for l, mr, acc in rows],
    ))
    by_label = {l: mr for l, mr, _ in rows}
    assert by_label["baseline+nextline"] < by_label["baseline"]
    assert by_label["static+nextline"] < by_label["static"]
