"""The experiment layer's one run path: spec batches through the engine.

Every figure, table and synthesis experiment declares the simulations it
needs as :class:`~repro.engine.spec.JobSpec` values and resolves them in
one :func:`~repro.engine.executor.run_jobs` batch against the default
persistent store.  Duplicate specs within a batch simulate once, and a
spec another experiment (or an earlier process) already ran is a store
read, not a replay.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from typing import TypeVar

from repro.core.result import DesignResult
from repro.engine.executor import run_jobs
from repro.engine.spec import EXPERIMENT_TRACE_LENGTH, JobSpec
from repro.engine.store import default_store

__all__ = ["EXPERIMENT_TRACE_LENGTH", "run_specs"]

K = TypeVar("K", bound=Hashable)


def run_specs(specs: Mapping[K, JobSpec]) -> dict[K, DesignResult]:
    """Resolve ``specs`` in one store-backed engine batch, keeping their keys."""
    outcomes = run_jobs(list(specs.values()), store=default_store())
    return {key: outcome.result for key, outcome in zip(specs, outcomes)}
