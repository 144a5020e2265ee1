"""Workload substrate: tagged memory-access traces of mobile apps.

Public surface:

* :class:`Trace` — the access-stream container.
* :class:`Region`, :class:`PhaseSpec`, :class:`AppProfile` — the phase
  model used to describe interactive apps.
* :func:`generate_trace` — deterministic synthetic generation.
* :data:`APP_NAMES`, :func:`app_profile`, :func:`suite_trace` — the
  eight-app smartphone suite.
* :func:`save_trace` / :func:`load_trace` — ``.npz`` persistence.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "Trace": "access",
    "generate_trace": "generator",
    "load_csv_trace": "importers",
    "load_din_trace": "importers",
    "load_trace": "io",
    "save_trace": "io",
    "remap_user_space": "transform",
    "shift_ticks": "transform",
    "slice_window": "transform",
    "timeslice": "transform",
    "EXTRA_APP_NAMES": "workloads",
    "AppProfile": "phases",
    "PhaseSpec": "phases",
    "Region": "phases",
    "APP_NAMES": "workloads",
    "DEFAULT_TRACE_LENGTH": "workloads",
    "app_profile": "workloads",
    "suite_trace": "workloads",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
