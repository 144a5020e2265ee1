"""Job specifications: one frozen, hashable description per simulation.

A :class:`JobSpec` names what a simulation runs: a registered design
and its constructor kwargs, an app, trace length, seed and platform.
Its keys hash the objects those names resolve to, so no hand-kept list
decides what a result depends on:

* :func:`stream_key` hashes the app's
  :class:`~repro.trace.phases.AppProfile` (not its name), the two L1
  geometries, length, seed and both version tags;
* :attr:`JobSpec.content_key` hashes the canonical JSON of the design
  object :func:`~repro.core.designs.make_design` builds (every default
  resolved, technology parameters and controller tuning included), the
  job's stream key, the platform and both version tags.

Editing any model input, or bumping :data:`MODEL_VERSION`, changes the
key, so a cached result or stream of the old model becomes a miss
instead of a stale hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.core.designs import REGISTERED_DESIGNS, make_design
from repro.trace.workloads import app_profile

__all__ = [
    "EXPERIMENT_TRACE_LENGTH",
    "MODEL_VERSION",
    "SCHEMA_VERSION",
    "JobSpec",
    "canonical",
    "canonical_json",
    "platform_fingerprint",
    "stream_key",
]

#: Accesses per app trace in the canonical experiments.  Long enough to
#: amortise L2 cold-start (each warm block is touched ~15+ times at the
#: L2) while keeping a full 8-app x 4-design grid under two minutes.
#: (Re-exported by :mod:`repro.experiments.runner` for compatibility.)
EXPERIMENT_TRACE_LENGTH = 720_000

#: Version of the serialised layout of store entries and stream
#: bundles.  Bump it when that layout changes; old entries then fail to
#: read and are rebuilt.
SCHEMA_VERSION = 2

#: Version of the simulation model: what traces, streams and results a
#: given input produces.  ``tests/golden/golden.json`` records it beside
#: the output digests it was generated with; a change that moves any of
#: those digests must bump it and regenerate the file
#: (``python tests/golden/regen.py``), which pins each version's records
#: in the append-only ``tests/golden/versions.json``.  Both keys hash it,
#: so a bump also turns every cached result and stream into a miss.
#:
#: * 1: the first pinned model.
#: * 2: the block-drawn, prefix-stable trace generator (``docs/modeling.md`` §2).
#: * 3: instruction gaps drawn by inversion of the floored Poisson pmf
#:   (same distribution; only the traces' ticks move).
MODEL_VERSION = 3

#: Values that encode as themselves in canonical JSON.
_SCALARS = (bool, int, float, str, type(None))


def canonical(value: object, name: str) -> object:
    """``value`` as canonical JSON-ready data.

    A JSON scalar stays as it is, a tuple becomes a list and a frozen
    dataclass a dict of its fields, recursively.  Anything else (a list,
    a policy object, a NumPy array) has no stable encoding and raises a
    :class:`TypeError` naming ``name``.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return [canonical(v, name) for v in value]
    if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
        return {f.name: canonical(getattr(value, f.name), name)
                for f in dataclasses.fields(value)}
    raise TypeError(
        f"{name!r} must be a JSON scalar or a frozen dataclass of them, "
        f"got {type(value).__name__}"
    )


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@lru_cache(maxsize=None)
def _value_digest(value: object) -> str:
    """Digest of one frozen dataclass (a profile, a platform, an L1
    geometry), memoized on its value, not a name, so a replaced or
    edited object is hashed anew."""
    return _digest(canonical(value, type(value).__name__))


def platform_fingerprint(platform: PlatformConfig) -> str:
    """Short stable digest of every platform knob."""
    return _value_digest(platform)[:16]


def stream_key(
    app: str,
    length: int,
    seed: int,
    platform: PlatformConfig,
) -> str:
    """Stable hex key of one L1-filtered L2 stream (the front-end identity).

    A stream is determined by strictly less than a full job: the app's
    profile, trace length, seed and the two L1 geometries the filter
    simulates (block size included) — but *not* the L2 geometry,
    latencies, clock or design, which only shape how the stream is
    replayed.  Every job sharing these fields shares one stream, and
    therefore one entry in :class:`~repro.engine.streamcache.StreamCache`.
    """
    return _digest({
        "kind": "stream",
        "schema": SCHEMA_VERSION,
        "model": MODEL_VERSION,
        "profile": _value_digest(app_profile(app)),
        "length": length,
        "seed": seed,
        "l1i": _value_digest(platform.l1i),
        "l1d": _value_digest(platform.l1d),
    })


@dataclass(frozen=True)
class JobSpec:
    """One simulation: a registered design variant on one app trace.

    ``design`` is any name in
    :data:`~repro.core.designs.REGISTERED_DESIGNS`; ``design_kwargs``
    parameterises its constructor (see
    :func:`repro.core.designs.make_design`); each value must be a JSON
    scalar or a frozen dataclass of them (a technology, a controller
    config), which :func:`canonical` checks when the spec is built.  A
    dict passed at construction is normalised to a sorted tuple of
    pairs, keeping the spec hashable.  Both keys are computed once per
    spec, on first use.
    """

    design: str
    app: str
    length: int = EXPERIMENT_TRACE_LENGTH
    seed: int = 0
    platform: PlatformConfig = DEFAULT_PLATFORM
    design_kwargs: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.design not in REGISTERED_DESIGNS:
            raise ValueError(
                f"unknown design {self.design!r}; choose from {REGISTERED_DESIGNS}"
            )
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        kwargs = self.design_kwargs
        if isinstance(kwargs, dict):
            kwargs = tuple(sorted(kwargs.items()))
            object.__setattr__(self, "design_kwargs", kwargs)
        for key, value in kwargs:
            if not isinstance(key, str):
                raise TypeError(f"design kwarg names must be strings, got {key!r}")
            canonical(value, key)

    @property
    def kwargs(self) -> dict:
        """``design_kwargs`` as a plain dict (for ``make_design``)."""
        return dict(self.design_kwargs)

    def describe(self) -> dict:
        """The canonical JSON-ready payload the content key hashes: the
        resolved design with every default filled in, not only the
        kwargs that changed it."""
        return {
            "schema": SCHEMA_VERSION,
            "model": MODEL_VERSION,
            "design": self.design,
            "resolved": canonical(make_design(self.design, **self.kwargs), self.design),
            "app": self.app,
            "length": self.length,
            "seed": self.seed,
            "stream": self.stream_key,
            "platform": platform_fingerprint(self.platform),
        }

    @cached_property
    def content_key(self) -> str:
        """Stable hex key addressing this job's result in the store."""
        return _digest(self.describe())

    @cached_property
    def stream_key(self) -> str:
        """Key of the L2 stream this job replays (see :func:`stream_key`).

        Jobs that differ only in design share a stream key; the executor
        groups batches by it to build each stream once and schedule with
        stream affinity.
        """
        return stream_key(self.app, self.length, self.seed, self.platform)

    def label(self) -> str:
        """Short human-readable name for progress lines and tables."""
        parts = [self.design, self.app]
        if self.seed:
            parts.append(f"s{self.seed}")
        if self.design_kwargs:
            parts.append(",".join(_label_item(k, v) for k, v in self.design_kwargs))
        return ":".join(parts)


def _label_item(key: str, value: object) -> str:
    """``key=value`` for a label; a dataclass shows its ``name`` when it
    has one, else only the fields that differ from its default instance
    (``config.epoch_ticks=10000``)."""
    if not dataclasses.is_dataclass(value):
        return f"{key}={value}"
    if isinstance(getattr(value, "name", None), str):
        return f"{key}={value.name}"
    default = type(value)()
    changed = [f"{key}.{f.name}={getattr(value, f.name)}"
               for f in dataclasses.fields(value)
               if getattr(value, f.name) != getattr(default, f.name)]
    return ",".join(changed) or f"{key}=default"
