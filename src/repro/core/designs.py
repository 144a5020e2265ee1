"""Registry of the paper's canonical design points.

Four designs carry the evaluation (Figures 6/8, Table 4):

* ``baseline`` — shared 1 MB 16-way SRAM L2.
* ``static-sram`` — static user/kernel partition, shrunk to 4+2 ways
  (384 KB), still SRAM: isolates the benefit of partition + shrink.
* ``static-stt`` — the paper's *static technique*: same partition on
  multi-retention STT-RAM (user medium, kernel short retention).
* ``dynamic-stt`` — the paper's *dynamic technique*: epoch-resized
  segments on short-retention STT-RAM.

The registry additionally builds two competitors the synthesis
experiments compare against, ``drowsy-sram`` and ``hybrid``, so every
design an experiment runs is addressable by a
:class:`~repro.engine.spec.JobSpec`.
"""

from __future__ import annotations

from functools import partial

from repro.core.baseline import BaselineDesign
from repro.core.dynamic_partition import DynamicPartitionDesign
from repro.core.multi_retention import multi_retention_design
from repro.core.static_partition import StaticPartitionDesign

__all__ = ["DESIGN_NAMES", "REGISTERED_DESIGNS", "make_design", "paper_designs"]

#: Evaluation order used by every figure and table.
DESIGN_NAMES = ("baseline", "static-sram", "static-stt", "dynamic-stt")


# The two competitors' modules load when one of them is first requested.
def _drowsy_sram(**kwargs):
    from repro.core.drowsy import DrowsySRAMDesign

    return DrowsySRAMDesign(**kwargs)


def _hybrid(**kwargs):
    from repro.core.hybrid import HybridPartitionDesign

    return HybridPartitionDesign(**kwargs)


_CONSTRUCTORS = {
    "baseline": BaselineDesign,
    "static-sram": partial(StaticPartitionDesign, name="static-sram"),
    "static-stt": multi_retention_design,
    "dynamic-stt": DynamicPartitionDesign,
    "drowsy-sram": _drowsy_sram,
    "hybrid": _hybrid,
}

#: Every name :func:`make_design` accepts: the canonical four first.
REGISTERED_DESIGNS = tuple(_CONSTRUCTORS)


def make_design(name: str, **kwargs):
    """Instantiate one registered design by name.

    ``kwargs`` are forwarded to the design's constructor (way counts,
    retention classes, technologies, controller tuning, ...), which is
    how :class:`~repro.engine.spec.JobSpec` describes design variants.
    Every design is a frozen dataclass, so the object returned is the
    resolved description a job's content key hashes.
    """
    if name not in _CONSTRUCTORS:
        raise ValueError(f"unknown design {name!r}; choose from {REGISTERED_DESIGNS}")
    return _CONSTRUCTORS[name](**kwargs)


def paper_designs() -> dict[str, object]:
    """All four canonical designs keyed by name, in evaluation order."""
    return {name: make_design(name) for name in DESIGN_NAMES}
