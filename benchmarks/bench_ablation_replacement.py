"""Ablation — L2 replacement policy under user/kernel interference.

The paper's platform uses LRU; this ablation checks how much of the
interference story depends on that choice by re-running the shared
baseline under every implemented policy.
"""

import numpy as np

from conftest import run_once
from repro.cache.replacement import POLICY_NAMES
from repro.engine import JobSpec
from repro.experiments import format_table, run_specs

APPS = ("browser", "social", "game")


def _sweep(length):
    results = run_specs({
        (policy, app): JobSpec("baseline", app, length, design_kwargs={"policy": policy})
        for policy in POLICY_NAMES
        for app in APPS
    })
    rows = []
    for policy in POLICY_NAMES:
        rates, xevicts = [], []
        for app in APPS:
            r = results[policy, app]
            rates.append(r.l2_stats.demand_miss_rate)
            xevicts.append(r.l2_stats.cross_privilege_evictions)
        rows.append((policy, float(np.mean(rates)), float(np.mean(xevicts))))
    return rows


def test_ablation_replacement_policy(benchmark, bench_length):
    rows = run_once(benchmark, _sweep, bench_length)
    print()
    print(format_table(
        "Ablation: shared-L2 replacement policy (3-app mean)",
        ["policy", "demand miss rate", "cross evictions"],
        [[p, f"{mr:.2%}", f"{xe:.0f}"] for p, mr, xe in rows],
    ))
    rates = {p: mr for p, mr, _ in rows}
    # true LRU should be at least as good as random on these workloads
    assert rates["lru"] <= rates["random"] + 0.01
    # interference (cross evictions) appears under every policy
    assert all(xe > 0 for _, _, xe in rows)
