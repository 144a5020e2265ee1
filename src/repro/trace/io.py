"""Trace (de)serialisation.

Traces round-trip through ``.npz`` files so expensive generations (or
externally collected traces converted to :data:`repro.types.TRACE_DTYPE`)
can be reused across processes.  A file stores the trace's columns packed
as one ``TRACE_DTYPE`` record array (:attr:`Trace.records`), and loading
unpacks them again (:meth:`Trace.from_records`).
"""

from __future__ import annotations

import os

import numpy as np

from repro.trace.access import Trace
from repro.types import TRACE_DTYPE

__all__ = ["save_trace", "load_trace"]

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write ``trace`` to ``path`` as a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        name=np.bytes_(trace.name.encode("utf-8")),
        instructions=np.int64(trace.instructions),
        records=trace.records,
    )


def load_trace(path: str | os.PathLike) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    with np.load(path) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        records = data["records"]
        if records.dtype != TRACE_DTYPE:
            raise ValueError(f"trace file has dtype {records.dtype}, expected {TRACE_DTYPE}")
        name = bytes(data["name"]).decode("utf-8")
        return Trace.from_records(name, records, int(data["instructions"]))
