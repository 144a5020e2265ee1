"""Cache simulation substrate.

Public surface:

* :class:`SetAssociativeCache` / :class:`AccessResult` — the engine.
* :func:`l1_filter` / :class:`L2Stream` — split-L1 front end.
* :class:`CacheStats` — counters and derived rates.
* :func:`make_policy` and the policy classes — replacement policies.
* :func:`simulate_trace` / :func:`fastsim_supports` — the vectorized
  fast-path kernel (see ``docs/performance.md``).
"""

from repro.cache.analysis import SetPressure, occupancy_by_way, set_pressure
from repro.cache.fastsim import simulate_trace
from repro.cache.fastsim import supports_cache as fastsim_supports
from repro.cache.hierarchy import L2Stream, l1_filter
from repro.cache.prefetch import (
    Prefetcher,
    SequentialPrefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.cache.replacement import (
    POLICY_NAMES,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    make_policy,
)
from repro.cache.set_assoc import REFRESH_MODES, AccessResult, SetAssociativeCache
from repro.cache.stats import CacheStats

__all__ = [
    "SetPressure",
    "occupancy_by_way",
    "set_pressure",
    "Prefetcher",
    "SequentialPrefetcher",
    "StridePrefetcher",
    "make_prefetcher",
    "L2Stream",
    "l1_filter",
    "POLICY_NAMES",
    "FIFOPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SRRIPPolicy",
    "TreePLRUPolicy",
    "make_policy",
    "REFRESH_MODES",
    "AccessResult",
    "SetAssociativeCache",
    "CacheStats",
    "simulate_trace",
    "fastsim_supports",
]
