"""Ablation — L2 prefetching on top of the partitioned designs.

The suite's streaming tiers are prefetchable; the interesting question
is whether prefetch pollution undoes the shrunk partition.  Because
prefetches are installed into the missing access's own segment, the
user/kernel isolation guarantee survives.
"""

import numpy as np

from conftest import run_once
from repro.cache.prefetch import make_prefetcher
from repro.core.baseline import BaselineDesign
from repro.core.static_partition import StaticPartitionDesign
from repro.config import DEFAULT_PLATFORM
from repro.engine.streamcache import load_stream
from repro.experiments import format_table

APPS = ("video", "music", "browser")  # streaming-heavy apps


def _sweep(length):
    rows = []
    configs = [
        ("baseline", BaselineDesign, None),
        ("baseline+nextline", BaselineDesign, "nextline"),
        ("baseline+stride", BaselineDesign, "stride"),
        ("static+nextline", StaticPartitionDesign, "nextline"),
        ("static", StaticPartitionDesign, None),
    ]
    for label, design_cls, pf_name in configs:
        rates, useful = [], []
        for app in APPS:
            stream = load_stream(app, length)
            pf = make_prefetcher(pf_name) if pf_name else None
            r = design_cls().run(stream, DEFAULT_PLATFORM, prefetcher=pf)
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
