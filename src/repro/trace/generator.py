"""Synthetic trace generation from an :class:`~repro.trace.phases.AppProfile`.

The generator replaces the Android/gem5 full-system traces of the paper
(see the substitution table in ``DESIGN.md``).  It is deterministic for a
given ``(profile, length, seed)`` triple and vectorised per phase dwell,
so multi-hundred-thousand-access traces generate in well under a second.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro import obs
from repro.trace.access import Trace
from repro.trace.phases import AppProfile, PhaseSpec, Region
from repro.types import CACHE_BLOCK_SIZE, TRACE_DTYPE, KERNEL_SPACE_START, Privilege

__all__ = ["generate_trace"]


@lru_cache(maxsize=256)
def _cdf(weights: tuple[float, ...]) -> np.ndarray:
    """Cumulative distribution of ``weights``, computed exactly as
    ``Generator.choice`` computes it (``cumsum``, then divide by the last
    entry), once per weight tuple."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _choice(rng: np.random.Generator, weights: tuple[float, ...], size: int | None = None):
    """``rng.choice(len(weights), size, p=weights)`` from a cached CDF.

    Returns the same indices and consumes the same draws (one uniform
    double per sample) as numpy's weighted ``choice``, minus its
    per-call weight validation and CDF construction — the profile
    dataclasses validate weights once when they are built.
    """
    cdf = _cdf(tuple(weights))
    if size is None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    return cdf.searchsorted(rng.random(size), side="right")


def _region_blocks(region: Region) -> int:
    """Number of cache blocks a region spans (at least 1)."""
    return max(1, region.size // CACHE_BLOCK_SIZE)


def _draw_blocks(
    region: Region,
    n: int,
    rng: np.random.Generator,
    stream_cursor: dict[str, int],
) -> np.ndarray:
    """Draw ``n`` distinct block selections following the region pattern."""
    nblocks = _region_blocks(region)
    if region.pattern == "hot":
        u = rng.random(n)
        ranks = np.floor(nblocks * u**region.hotness).astype(np.int64)
        # Permute ranks into block positions with a fixed stride so hot
        # blocks spread across cache sets instead of clustering at the
        # region base (a real hot working set is scattered).
        stride = 97  # coprime with any power-of-two block count
        return (ranks * stride) % nblocks
    if region.pattern == "uniform":
        return rng.integers(0, nblocks, size=n)
    if region.pattern == "rotating":
        dwells = stream_cursor.get(region.name + "/dwells", 0)
        active = (dwells // region.rotate_dwells) % region.subsets
        sub = max(1, nblocks // region.subsets)
        return active * sub + rng.integers(0, sub, size=n)
    # stream: sequential walk that wraps, cursor persists across dwells
    start = stream_cursor.get(region.name, 0)
    idx = (start + np.arange(n, dtype=np.int64)) % nblocks
    stream_cursor[region.name] = int((start + n) % nblocks)
    return idx


def _sample_region_offsets(
    region: Region,
    n: int,
    rng: np.random.Generator,
    stream_cursor: dict[str, int],
) -> np.ndarray:
    """Draw ``n`` block indices: pattern-selected blocks expanded into
    geometric runs of consecutive same-block accesses (word-level spatial
    locality within a line)."""
    if region.run_mean <= 1.0:
        return _draw_blocks(region, n, rng, stream_cursor)
    parts: list[np.ndarray] = []
    remaining = n
    while remaining > 0:
        draws = max(1, int(remaining / region.run_mean) + 1)
        blocks = _draw_blocks(region, draws, rng, stream_cursor)
        runs = rng.geometric(1.0 / region.run_mean, size=draws)
        expanded = np.repeat(blocks, runs)
        parts.append(expanded[:remaining])
        remaining -= min(remaining, len(expanded))
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _generate_phase_burst(
    phase: PhaseSpec,
    n: int,
    rng: np.random.Generator,
    stream_cursor: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the address and kind columns of one ``n``-access dwell in
    ``phase``."""
    region_idx = _choice(rng, phase.weights, n)
    kinds = np.empty(n, dtype=np.uint8)
    addrs = np.empty(n, dtype=np.uint64)
    counts = np.bincount(region_idx, minlength=len(phase.regions)).tolist()
    for ri, (region, cnt) in enumerate(zip(phase.regions, counts)):
        if not cnt:
            continue
        mask = region_idx == ri
        offs = _sample_region_offsets(region, cnt, rng, stream_cursor)
        if region.pattern == "rotating":
            key = region.name + "/dwells"
            stream_cursor[key] = stream_cursor.get(key, 0) + 1
        addrs[mask] = np.uint64(region.base) + offs.astype(np.uint64) * np.uint64(CACHE_BLOCK_SIZE)
        kinds[mask] = _choice(rng, region.kind_weights, cnt)
    return addrs, kinds


def _validate_profile_addresses(profile: AppProfile) -> None:
    """Check privilege/address-space consistency of every region."""
    for phase in profile.phases:
        for region in phase.regions:
            in_kernel = region.base >= KERNEL_SPACE_START
            if (phase.privilege is Privilege.KERNEL) != in_kernel:
                raise ValueError(
                    f"profile {profile.name!r}: phase {phase.name!r} at "
                    f"{phase.privilege.label} privilege uses region "
                    f"{region.name!r} at {region.base:#x} on the wrong side "
                    f"of the user/kernel split"
                )


def generate_trace(profile: AppProfile, length: int, seed: int = 0) -> Trace:
    """Generate a deterministic synthetic trace of ``length`` accesses.

    Args:
        profile: Application model to sample from.
        length: Number of memory accesses to produce (> 0).
        seed: RNG seed; the same triple always yields the same trace.

    Returns:
        A :class:`~repro.trace.access.Trace` named after the profile.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    _validate_profile_addresses(profile)
    with obs.span("trace.generate", app=profile.name, length=length, seed=seed):
        return _generate(profile, length, seed)


def _generate(profile: AppProfile, length: int, seed: int) -> Trace:
    # zlib.crc32, not hash(): str hashing is salted per process
    # (PYTHONHASHSEED), which would make the same (profile, length, seed)
    # triple yield a different trace in every interpreter — breaking the
    # content-addressed result store and cross-process reproducibility.
    name_seed = zlib.crc32(profile.name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([name_seed, length, seed]))

    # Per-dwell columns, assembled into one record array at the end.
    addr_parts: list[np.ndarray] = []
    kind_parts: list[np.ndarray] = []
    gap_parts: list[np.ndarray] = []
    dwell_privs: list[int] = []
    dwells: list[int] = []
    produced = 0
    phase_i = profile.start_phase
    stream_cursor: dict[str, int] = {}
    idle_total = 0
    pending_idle = 0
    while produced < length:
        phase = profile.phases[phase_i]
        dwell = int(rng.geometric(1.0 / phase.mean_accesses))
        dwell = min(max(dwell, 1), length - produced)
        addrs, kinds = _generate_phase_burst(phase, dwell, rng, stream_cursor)
        gaps = np.maximum(1, rng.poisson(phase.mean_gap, size=dwell)).astype(np.uint64)
        if pending_idle:
            gaps[0] += np.uint64(pending_idle)
            idle_total += pending_idle
            pending_idle = 0
        addr_parts.append(addrs)
        kind_parts.append(kinds)
        gap_parts.append(gaps)  # converted to absolute ticks below
        dwell_privs.append(int(phase.privilege))
        dwells.append(dwell)
        produced += dwell
        phase_i = _choice(rng, profile.transitions[phase_i])
        # Interactive apps sleep between events; an idle period advances
        # the clock (leakage keeps burning, STT-RAM cells keep decaying)
        # without retiring instructions.
        if profile.idle_mean_ticks and rng.random() < profile.idle_prob:
            pending_idle = int(rng.exponential(profile.idle_mean_ticks))
            if profile.wake_phase is not None:
                phase_i = profile.wake_phase  # the wake interrupt handler

    records = np.zeros(produced, dtype=TRACE_DTYPE)
    records["addr"] = np.concatenate(addr_parts)
    records["kind"] = np.concatenate(kind_parts)
    records["priv"] = np.repeat(np.asarray(dwell_privs, dtype=np.uint8), dwells)
    records["tick"] = np.concatenate(gap_parts)
    records["tick"] = np.cumsum(records["tick"]) - records["tick"][0]
    instructions = int(records["tick"][-1]) + 1 - idle_total
    return Trace(profile.name, records, max(instructions, length))
