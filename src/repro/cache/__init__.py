"""Cache simulation substrate.

Public surface:

* :class:`SetAssociativeCache` / :class:`AccessResult` — the engine.
* :func:`l1_filter` / :class:`L2Stream` — split-L1 front end.
* :class:`CacheStats` — counters and derived rates.
* :func:`make_policy` and the policy classes — replacement policies.
* :func:`simulate_trace` / :func:`fastsim_supports` — the vectorized
  fast-path kernel (see ``docs/performance.md``).
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "SetPressure": "analysis",
    "occupancy_by_way": "analysis",
    "set_pressure": "analysis",
    "Prefetcher": "prefetch",
    "SequentialPrefetcher": "prefetch",
    "StridePrefetcher": "prefetch",
    "make_prefetcher": "prefetch",
    "L2Stream": "hierarchy",
    "l1_filter": "hierarchy",
    "POLICY_NAMES": "replacement",
    "FIFOPolicy": "replacement",
    "LRUPolicy": "replacement",
    "RandomPolicy": "replacement",
    "ReplacementPolicy": "replacement",
    "SRRIPPolicy": "replacement",
    "TreePLRUPolicy": "replacement",
    "make_policy": "replacement",
    "REFRESH_MODES": "set_assoc",
    "AccessResult": "set_assoc",
    "SetAssociativeCache": "set_assoc",
    "CacheStats": "stats",
    "simulate_trace": "fastsim",
    "fastsim_supports": "fastsim:supports_cache",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
