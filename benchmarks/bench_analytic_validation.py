"""Validation — analytic stack-distance prediction vs the simulator.

The analytic model predicts the full miss-rate-vs-capacity curve from
one pass over the L2 stream (Mattson's stack algorithm).  This bench
compares it against the simulated Figure 3 sweep: the fully associative
prediction should track the 16-way simulation closely and bound it from
below (associativity conflicts only add misses).
"""

from dataclasses import replace

import numpy as np

from conftest import run_once
from repro.analytic import profile_blocks
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.engine import JobSpec
from repro.engine.streamcache import load_stream
from repro.experiments import format_table, run_specs

APPS = ("browser", "game")
SIZES_KB = (128, 256, 512, 1024)


def _sweep(length):
    profiles = {
        app: profile_blocks(
            (load_stream(app, length).addrs // np.uint64(64)).astype(np.int64)
        )
        for app in APPS
    }
    # at least 8 ways, so the small sizes also shrink the set count: the
    # L2 geometry is a platform variant, not a way count of the 1024 sets
    results = run_specs({
        (size_kb, app): JobSpec("baseline", app, length, platform=replace(
            DEFAULT_PLATFORM, l2=CacheGeometry(size_kb * 1024, max(8, size_kb // 64))))
        for size_kb in SIZES_KB
        for app in APPS
    })
    rows = []
    for size_kb in SIZES_KB:
        capacity_blocks = size_kb * 1024 // 64
        predicted = float(np.mean([profiles[a].miss_rate(capacity_blocks) for a in APPS]))
        simulated = float(np.mean([results[size_kb, a].l2_stats.miss_rate for a in APPS]))
        rows.append((size_kb, predicted, simulated))
    return rows


def test_analytic_vs_simulated(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Validation: analytic (fully assoc.) vs simulated miss rate (2-app mean)",
        ["size", "analytic", "simulated", "gap"],
        [[f"{kb} KB", f"{p:.2%}", f"{s:.2%}", f"{s - p:+.2%}"] for kb, p, s in rows],
    ))
    for _, predicted, simulated in rows:
        # FA-LRU is a lower bound (within noise) and should track closely
        assert simulated >= predicted - 0.02
        assert abs(simulated - predicted) < 0.06
