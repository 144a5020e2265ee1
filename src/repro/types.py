"""Fundamental value types shared across the whole library.

The simulator is trace driven: a workload is a sequence of tagged memory
accesses (see :mod:`repro.trace`).  The types here define the vocabulary
used by every layer — privilege levels, access kinds, and the numpy record
layout of a trace — so that the trace generator, the cache simulator, the
energy model, and the experiment harness all agree on the encoding.

It also holds the one codec of the result types: :func:`to_data` and
:func:`from_data` turn any of these dataclasses into plain JSON-shaped
data and back, and :func:`sum_fields` adds two of them field by field.
All three walk the class's own fields, so no field list is kept by hand.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing

import numpy as np

__all__ = [
    "Privilege",
    "AccessKind",
    "TRACE_DTYPE",
    "CACHE_BLOCK_SIZE",
    "KERNEL_SPACE_START",
    "is_kernel_address",
    "to_data",
    "from_data",
    "sum_fields",
]


#: Cache block (line) size in bytes used throughout the model hierarchy.
#: The paper's platform uses 64-byte lines, the near-universal choice for
#: ARM application processors of the era.
CACHE_BLOCK_SIZE = 64

#: Start of the kernel virtual address range.  We follow the classic
#: 32-bit Linux 3G/1G split used by the Android platforms the paper
#: studies: user addresses live below ``0xC0000000``, kernel addresses at
#: or above it.
KERNEL_SPACE_START = 0xC000_0000


class Privilege(enum.IntEnum):
    """Privilege level of a memory access (who issued it)."""

    USER = 0
    KERNEL = 1

    @property
    def label(self) -> str:
        """Lower-case human-readable name (``"user"`` / ``"kernel"``)."""
        return self.name.lower()


class AccessKind(enum.IntEnum):
    """What a memory access does.

    ``IFETCH`` goes through the L1 instruction cache, ``LOAD`` and
    ``STORE`` through the L1 data cache.  ``WRITEBACK`` never appears in a
    generated trace; it is synthesised by the cache model when a dirty
    block is evicted from an upper level.
    """

    IFETCH = 0
    LOAD = 1
    STORE = 2
    WRITEBACK = 3


#: Numpy record layout of one trace entry.
#:
#: ``tick``
#:     Logical time of the access in core cycles since trace start.  Ticks
#:     are strictly non-decreasing.  They drive the leakage/refresh clock
#:     of the energy model and the retention-expiry clock of STT-RAM.
#: ``addr``
#:     Byte address of the access.
#: ``kind``
#:     An :class:`AccessKind` value.
#: ``priv``
#:     A :class:`Privilege` value.
TRACE_DTYPE = np.dtype(
    [
        ("tick", np.uint64),
        ("addr", np.uint64),
        ("kind", np.uint8),
        ("priv", np.uint8),
    ]
)


def is_kernel_address(addr: int | np.ndarray) -> bool | np.ndarray:
    """True when ``addr`` lies in the kernel half of the address space."""
    return addr >= KERNEL_SPACE_START


def to_data(obj) -> dict:
    """Plain-data form of dataclass ``obj``: field name -> value.

    Nested dataclasses become dicts and lists or tuples become new lists
    (of converted items); every other value is kept as it is.  An
    instance's ``__dict__`` holds exactly its fields, so it is copied
    whole and only the fields that need it are converted, which is
    faster than building the dict field by field.
    """
    _, encoders = _codec(type(obj), False)
    out = vars(obj).copy()
    for name, encode in encoders:
        out[name] = encode(out[name])
    return out


def from_data(cls, data: dict):
    """Inverse of :func:`to_data`: rebuild a ``cls`` from ``data``.

    A missing field raises ``KeyError``; unknown keys are ignored.  As
    unpickling does, the fields are set without calling ``__init__``
    (a frozen dataclass's pays one ``object.__setattr__`` per field).
    """
    names, decoders = _codec(cls, True)
    fields = {name: data[name] for name in names}
    for name, decode in decoders:
        fields[name] = decode(fields[name])
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def sum_fields(a, b):
    """Field-wise sum of two instances of one dataclass (lists element-wise)."""
    names, _ = _codec(type(a), False)
    return type(a)(**{name: _add(getattr(a, name), getattr(b, name)) for name in names})


def _add(a, b):
    return [_add(x, y) for x, y in zip(a, b)] if isinstance(a, list) else a + b


@functools.cache
def _codec(cls, decode: bool) -> tuple:
    """The field names of dataclass ``cls`` and ``(name, converter)`` of
    each field whose values need converting, built once per class."""
    if decode and hasattr(cls, "__post_init__"):
        raise TypeError(f"from_data would skip {cls.__name__}.__post_init__")
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    converters = ((name, _converter(hints[name], decode)) for name in names)
    return names, tuple((name, conv) for name, conv in converters if conv is not None)


def _converter(hint, decode: bool):
    """Converts one value of type ``hint``; None where it passes as is."""
    if dataclasses.is_dataclass(hint):
        return functools.partial(from_data, hint) if decode else to_data
    origin = typing.get_origin(hint)
    if origin not in (list, tuple):
        return None
    item = _converter(typing.get_args(hint)[0], decode)
    seq = tuple if decode and origin is tuple else list
    return seq if item is None else lambda values: seq([item(v) for v in values])
