"""Importers for external trace formats.

Anyone with real traces (gem5, Pin, custom tooling) can adopt this
library by converting to one of two simple text formats:

* **CSV**: ``tick,addr,kind,priv`` per line; ``addr`` decimal or 0x-hex;
  ``kind`` in {I, L, S} (ifetch/load/store) or the numeric
  :class:`~repro.types.AccessKind` value; ``priv`` in {U, K} or 0/1.
  Lines starting with ``#`` are comments.
* **din** (Dinero-style): ``<type> <addr>`` per line with type 0=load,
  1=store, 2=ifetch.  Dinero has no timestamps or privilege, so ticks
  count up by ``tick_stride`` and privilege is inferred from the address
  against the kernel split.
"""

from __future__ import annotations

import os

import numpy as np

from repro.trace.access import Trace
from repro.types import TRACE_DTYPE, AccessKind, Privilege, is_kernel_address

__all__ = ["load_csv_trace", "load_din_trace"]

_KIND_CODES = {
    "I": AccessKind.IFETCH, "L": AccessKind.LOAD, "S": AccessKind.STORE,
    "0": AccessKind.IFETCH, "1": AccessKind.LOAD, "2": AccessKind.STORE,
}
_PRIV_CODES = {"U": Privilege.USER, "K": Privilege.KERNEL,
               "0": Privilege.USER, "1": Privilege.KERNEL}

_DIN_KINDS = {0: AccessKind.LOAD, 1: AccessKind.STORE, 2: AccessKind.IFETCH}


def _parse_int(token: str) -> int:
    return int(token, 16) if token.lower().startswith("0x") else int(token)


def load_csv_trace(path: str | os.PathLike, name: str | None = None) -> Trace:
    """Load a ``tick,addr,kind,priv`` CSV trace."""
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            tick = _parse_int(parts[0])
            addr = _parse_int(parts[1])
            kind = _KIND_CODES.get(parts[2].upper())
            priv = _PRIV_CODES.get(parts[3].upper())
            if kind is None:
                raise ValueError(f"{path}:{lineno}: unknown kind {parts[2]!r}")
            if priv is None:
                raise ValueError(f"{path}:{lineno}: unknown privilege {parts[3]!r}")
            if tick < 0 or addr < 0:
                raise ValueError(f"{path}:{lineno}: negative tick or address")
            records.append((tick, addr, int(kind), int(priv)))
    if not records:
        raise ValueError(f"{path}: no trace records found")
    arr = np.array(records, dtype=TRACE_DTYPE)
    arr = arr[np.argsort(arr["tick"], kind="stable")]
    trace_name = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    instructions = max(len(arr), int(arr["tick"][-1]) + 1)
    return Trace.from_records(trace_name, arr, instructions)


def load_din_trace(
    path: str | os.PathLike,
    name: str | None = None,
    tick_stride: int = 3,
) -> Trace:
    """Load a Dinero-style ``<type> <addr>`` trace.

    Privilege is inferred from the address against the 3G/1G split —
    adequate for traces captured with kernel addresses in the canonical
    high range.
    """
    if tick_stride < 1:
        raise ValueError(f"tick_stride must be >= 1, got {tick_stride}")
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected '<type> <addr>'")
            try:
                din_type = int(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad type {parts[0]!r}") from exc
            if din_type not in _DIN_KINDS:
                raise ValueError(f"{path}:{lineno}: type must be 0/1/2, got {din_type}")
            addr = _parse_int(parts[1])
            priv = Privilege.KERNEL if is_kernel_address(addr) else Privilege.USER
            tick = len(records) * tick_stride
            records.append((tick, addr, int(_DIN_KINDS[din_type]), int(priv)))
    if not records:
        raise ValueError(f"{path}: no trace records found")
    arr = np.array(records, dtype=TRACE_DTYPE)
    trace_name = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    return Trace.from_records(trace_name, arr, max(len(arr), int(arr["tick"][-1]) + 1))
