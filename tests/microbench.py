"""Synthetic microbenchmarks: single-behaviour stress traces.

Where the app suite models whole applications, these produce *pure*
access patterns — a streaming loop, a pointer chase, a code loop, a
syscall storm — which is what one wants when characterising a mechanism
in isolation (e.g. "what does the dynamic controller do under pure
streaming?").  Each returns an :class:`~repro.trace.phases.AppProfile`
usable with :func:`~repro.trace.generator.generate_trace`.  They are
test fixtures: ``tests/test_microbench.py`` checks each one's behaviour
and ``tests/golden/regen.py`` pins each one's trace and stream.
"""

from __future__ import annotations

from repro.trace.phases import AppProfile, PhaseSpec, Region
from repro.types import KERNEL_SPACE_START, Privilege

__all__ = ["MICROBENCH_NAMES", "microbench_profile"]

MICROBENCH_NAMES = ("stream", "pointer_chase", "code_loop", "syscall_storm", "idle_burst")

_KB = 1024
_DATA = (0.0, 0.68, 0.32)
_CODE = (0.9, 0.08, 0.02)
_BUF = (0.0, 0.5, 0.5)


def _single_phase(name: str, region: Region, privilege=Privilege.USER,
                  mean_gap: float = 3.0, **profile_kw) -> AppProfile:
    phase = PhaseSpec(name, privilege, (region,), (1.0,), mean_accesses=1000,
                      mean_gap=mean_gap)
    defaults = dict(idle_prob=0.0, idle_mean_ticks=0)
    defaults.update(profile_kw)
    return AppProfile(name, f"microbenchmark: {name}", (phase,), ((1.0,),), **defaults)


def microbench_profile(name: str) -> AppProfile:
    """Build the named microbenchmark profile (see ``MICROBENCH_NAMES``)."""
    if name == "stream":
        region = Region("ms", 0x1000_0000, 32 * 1024 * _KB, "stream",
                        kind_weights=_DATA, run_mean=8.0)
        return _single_phase("stream", region)
    if name == "pointer_chase":
        region = Region("mp", 0x1000_0000, 4 * 1024 * _KB, "uniform",
                        kind_weights=_DATA, run_mean=1.0)
        return _single_phase("pointer_chase", region)
    if name == "code_loop":
        region = Region("mc", 0x0040_0000, 96 * _KB, "hot", hotness=4.0,
                        kind_weights=_CODE, run_mean=8.0)
        return _single_phase("code_loop", region)
    if name == "syscall_storm":
        user = Region("mu", 0x1000_0000, 64 * _KB, "uniform", kind_weights=_DATA)
        kcode = Region("mk", KERNEL_SPACE_START + 0x10_0000, 128 * _KB, "hot",
                       hotness=3.2, kind_weights=_CODE)
        kbuf = Region("mb", KERNEL_SPACE_START + 0x1000_0000, 4 * 1024 * _KB,
                      "stream", kind_weights=_BUF, run_mean=8.0)
        phases = (
            PhaseSpec("user", Privilege.USER, (user,), (1.0,), mean_accesses=60),
            PhaseSpec("kernel", Privilege.KERNEL, (kcode, kbuf), (0.7, 0.3),
                      mean_accesses=200),
        )
        return AppProfile("syscall_storm", "microbenchmark: syscall storm",
                          phases, ((0.0, 1.0), (1.0, 0.0)), idle_prob=0.0)
    if name == "idle_burst":
        region = Region("mi", 0x1000_0000, 128 * _KB, "uniform", kind_weights=_DATA)
        return _single_phase(
            "idle_burst", region, idle_prob=0.9, idle_mean_ticks=500_000)
    raise ValueError(f"unknown microbenchmark {name!r}; choose from {MICROBENCH_NAMES}")
