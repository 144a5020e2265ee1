"""Job specifications: one frozen, hashable description per simulation.

A :class:`JobSpec` captures everything that determines a simulation's
output — design name and constructor kwargs, app, trace length, seed and
the full platform configuration.  Its :attr:`~JobSpec.content_key` is a
SHA-256 over a canonical JSON encoding of those fields plus a schema tag,
so the key is stable across processes and Python versions, and changes
whenever the result format (or a spec field) changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.core.designs import REGISTERED_DESIGNS

__all__ = [
    "EXPERIMENT_TRACE_LENGTH",
    "SCHEMA_VERSION",
    "JobSpec",
    "canonical_json",
    "platform_fingerprint",
    "stream_key",
]

#: Accesses per app trace in the canonical experiments.  Long enough to
#: amortise L2 cold-start (each warm block is touched ~15+ times at the
#: L2) while keeping a full 8-app x 4-design grid under two minutes.
#: (Re-exported by :mod:`repro.experiments.runner` for compatibility.)
EXPERIMENT_TRACE_LENGTH = 720_000

#: Version tag baked into every content key and store payload.  Bump it
#: whenever the simulator's observable output or the serialised result
#: layout changes — old cache entries then become silent misses instead
#: of stale hits.
SCHEMA_VERSION = 2

#: Kwarg value types that survive canonical JSON encoding unchanged.
_SCALARS = (bool, int, float, str, type(None))


def canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def platform_fingerprint(platform: PlatformConfig) -> str:
    """Short stable digest of every platform knob."""
    blob = canonical_json(dataclasses.asdict(platform))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stream_key(
    app: str,
    length: int,
    seed: int,
    platform: PlatformConfig,
    l1_policy: str = "lru",
) -> str:
    """Stable hex key of one L1-filtered L2 stream (the front-end identity).

    A stream is determined by strictly less than a full job: the app,
    trace length, seed, platform (whose fingerprint covers the L1
    geometries the filter simulates) and the L1 replacement policy —
    but *not* the L2 design, which only replays the stream.  Every job
    sharing these fields shares one stream, and therefore one entry in
    :class:`~repro.engine.streamcache.StreamCache`.  The schema tag
    invalidates persisted streams whenever the simulator's observable
    output changes, exactly like result keys.
    """
    payload = {
        "kind": "stream",
        "schema": SCHEMA_VERSION,
        "app": app,
        "length": length,
        "seed": seed,
        "platform": platform_fingerprint(platform),
        "l1_policy": l1_policy,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One simulation: a registered design variant on one app trace.

    ``design`` is any name in
    :data:`~repro.core.designs.REGISTERED_DESIGNS`; ``design_kwargs``
    parameterises its constructor (see
    :func:`repro.core.designs.make_design`); values must be JSON scalars
    so the content key is stable.  A dict passed at construction is
    normalised to a sorted tuple of pairs, keeping the spec hashable.
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
            if not isinstance(value, _SCALARS):
                raise TypeError(
                    f"design kwarg {key!r} must be a JSON scalar "
                    f"(bool/int/float/str/None), got {type(value).__name__}"
                )

    @property
    def kwargs(self) -> dict:
        """``design_kwargs`` as a plain dict (for ``make_design``)."""
        return dict(self.design_kwargs)

    def describe(self) -> dict:
        """The canonical JSON-ready payload the content key hashes."""
        return {
            "schema": SCHEMA_VERSION,
            "design": self.design,
            "design_kwargs": {k: v for k, v in self.design_kwargs},
            "app": self.app,
            "length": self.length,
            "seed": self.seed,
            "platform": platform_fingerprint(self.platform),
        }

    @property
    def content_key(self) -> str:
        """Stable hex key addressing this job's result in the store."""
        return hashlib.sha256(canonical_json(self.describe()).encode()).hexdigest()

    @property
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
            parts.append(",".join(f"{k}={v}" for k, v in self.design_kwargs))
        return ":".join(parts)
