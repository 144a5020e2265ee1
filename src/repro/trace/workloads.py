"""The eight-app interactive smartphone workload suite.

The paper evaluates interactive Android applications (browser, maps,
e-mail, social networking, music, casual game, video and document
reading — the Moby-style suite).  With no Android traces available
offline, each app is modelled as an :class:`~repro.trace.phases.AppProfile`
whose parameters encode what distinguishes these workloads at the memory
system level.

Each privilege side has a three-tier working set, the structure cache
studies consistently observe in real traces:

* a **hot** tier (code loops, top-of-heap) that the L1s capture,
* a **warm** tier — per-interaction state, uniformly re-referenced —
  that misses the L1s but lives comfortably in a right-sized L2
  segment; its size is the knob that decides how much L2 each side
  *deserves*, and
* a **cold/streaming** tier (full heap walks, network/media buffers)
  that no realistic L2 holds; it is what *pollutes* the shared cache
  and drives the user/kernel interference the paper measures.

:data:`APP_NAMES` lists the suite in a stable order; experiments and
benches iterate over it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.types import Privilege

if TYPE_CHECKING:
    from repro.trace.access import Trace
    from repro.trace.phases import AppProfile

__all__ = [
    "APP_NAMES",
    "EXTRA_APP_NAMES",
    "app_profile",
    "suite_trace",
    "DEFAULT_TRACE_LENGTH",
]

#: Suite order used by every figure and table (the paper's 8-app suite).
APP_NAMES = ("browser", "maps", "email", "social", "music", "game", "video", "reader")

#: Additional profiles beyond the paper's suite, for robustness studies
#: (see ``EXTRA_APP_NAMES`` consumers in benchmarks and examples).
EXTRA_APP_NAMES = ("camera", "chat", "podcast", "gallery")

#: Default per-app trace length (accesses) for experiments.
DEFAULT_TRACE_LENGTH = 240_000

_KB = 1024

# Address-space layout shared by all profiles (32-bit 3G/1G split).
_USER_CODE = 0x0040_0000
_USER_WARM = 0x1000_0000
_USER_COLD = 0x2000_0000
_USER_STREAM = 0x4000_0000
_KERNEL_CODE = 0xC010_0000
_KERNEL_WARM = 0xC400_0000
_KERNEL_COLD = 0xC800_0000
_KERNEL_BUF = 0xD000_0000

_CODE_KINDS = (0.9, 0.08, 0.02)  # overwhelmingly instruction fetch
_DATA_KINDS = (0.0, 0.68, 0.32)  # load-dominated read/write mix
_BUF_KINDS = (0.0, 0.5, 0.5)  # DMA-ish buffer traffic


def _build_profile(
    name: str,
    description: str,
    *,
    user_warm_kb: int = 48,
    user_cold_kb: int = 1536,
    user_cold_weight: float = 0.05,
    user_stream_kb: int = 2048,
    user_stream_weight: float = 0.05,
    kernel_warm_kb: int = 36,
    kernel_cold_kb: int = 1280,
    kernel_cold_weight: float = 0.05,
    kernel_buf_kb: int = 256,
    kernel_buf_weight: float = 0.10,
    kernel_dwell: int = 400,
    user_dwell: int = 520,
) -> AppProfile:
    """Assemble the standard three-phase interactive-app profile."""
    # the phase model loads when the first profile is built (stream keys
    # hash the profiles, so every sweep builds them)
    from repro.trace.phases import AppProfile, PhaseSpec, Region

    user_code = Region("user_code", _USER_CODE, 96 * _KB, "hot", 4.2, _CODE_KINDS)
    user_warm = Region(
        "user_warm", _USER_WARM, 4 * user_warm_kb * _KB, "rotating",
        kind_weights=_DATA_KINDS, subsets=4, rotate_dwells=2,
    )
    user_cold = Region("user_cold", _USER_COLD, user_cold_kb * _KB, "uniform", kind_weights=_DATA_KINDS)
    user_stream = Region(
        "user_stream", _USER_STREAM, user_stream_kb * _KB, "stream",
        kind_weights=_DATA_KINDS, run_mean=8.0,
    )
    kernel_code = Region("kernel_code", _KERNEL_CODE, 72 * _KB, "hot", 4.2, _CODE_KINDS)
    kernel_warm = Region("kernel_warm", _KERNEL_WARM, kernel_warm_kb * _KB, "uniform", kind_weights=_DATA_KINDS)
    kernel_cold = Region("kernel_cold", _KERNEL_COLD, kernel_cold_kb * _KB, "uniform", kind_weights=_DATA_KINDS)
    kernel_buf = Region(
        "kernel_buf", _KERNEL_BUF, kernel_buf_kb * _KB, "stream",
        kind_weights=_BUF_KINDS, run_mean=8.0,
    )

    user_warm_weight = 1.0 - 0.32 - user_cold_weight - user_stream_weight
    user_app = PhaseSpec(
        "user_app",
        Privilege.USER,
        (user_code, user_warm, user_cold, user_stream),
        (0.32, user_warm_weight, user_cold_weight, user_stream_weight),
        mean_accesses=user_dwell,
        mean_gap=3.0,
    )
    kernel_warm_weight = 1.0 - 0.40 - kernel_cold_weight - kernel_buf_weight
    kernel_service = PhaseSpec(
        "kernel_service",
        Privilege.KERNEL,
        (kernel_code, kernel_warm, kernel_cold, kernel_buf),
        (0.40, kernel_warm_weight, kernel_cold_weight, kernel_buf_weight),
        mean_accesses=kernel_dwell,
        mean_gap=2.5,
    )
    kernel_irq = PhaseSpec(
        "kernel_irq",
        Privilege.KERNEL,
        (kernel_code, kernel_warm),
        (0.55, 0.45),
        mean_accesses=70,
        mean_gap=2.0,
    )
    phases = (user_app, kernel_service, kernel_irq)
    transitions = (
        (0.00, 0.78, 0.22),  # user -> mostly syscall service, some IRQ
        (0.88, 0.00, 0.12),  # service -> back to user, occasional IRQ tail
        (0.80, 0.20, 0.00),  # IRQ -> user, sometimes softirq service
    )
    return AppProfile(name, description, phases, transitions, wake_phase=2)


@lru_cache(maxsize=None)
def _profiles() -> dict[str, AppProfile]:
    """Construct every profile, once per process: one entry per name in
    :data:`APP_NAMES` and :data:`EXTRA_APP_NAMES`."""
    return {
        "browser": _build_profile(
            "browser",
            "web browsing (BBench-style): large cold DOM/JS heap, heavy network syscalls",
            user_warm_kb=36, user_cold_kb=2048, user_cold_weight=0.06,
            kernel_warm_kb=40, kernel_cold_kb=1344, kernel_buf_kb=20480, kernel_buf_weight=0.12,
            kernel_dwell=530, user_dwell=480,
        ),
        "maps": _build_profile(
            "maps",
            "maps navigation: tile streaming plus mid-size heap, steady network traffic",
            user_warm_kb=52, user_cold_kb=1280, user_stream_kb=4096, user_stream_weight=0.07,
            kernel_warm_kb=32, kernel_buf_kb=20480, kernel_buf_weight=0.11,
            kernel_dwell=530, user_dwell=480,
        ),
        "email": _build_profile(
            "email",
            "e-mail client (K-9-style): small heap, bursty sync dominated by kernel I/O",
            user_warm_kb=40, user_cold_kb=1152, user_cold_weight=0.04,
            kernel_warm_kb=44, kernel_cold_kb=1536, kernel_buf_kb=2304, kernel_buf_weight=0.12,
            kernel_dwell=530, user_dwell=440,
        ),
        "social": _build_profile(
            "social",
            "social networking feed: constant network/IPC service, mixed media heap",
            user_warm_kb=52, user_cold_kb=1536, user_cold_weight=0.055,
            kernel_warm_kb=44, kernel_cold_kb=1536, kernel_buf_kb=3072, kernel_buf_weight=0.13,
            kernel_dwell=560, user_dwell=420,
        ),
        "music": _build_profile(
            "music",
            "music playback: decode streams audio buffers, periodic driver activity",
            user_warm_kb=36, user_cold_kb=1024, user_cold_weight=0.035,
            user_stream_kb=6144, user_stream_weight=0.09,
            kernel_warm_kb=28, kernel_buf_kb=3584, kernel_buf_weight=0.14,
            kernel_dwell=480, user_dwell=480,
        ),
        "game": _build_profile(
            "game",
            "casual game (Frozen-Bubble-style): hot compact state, least kernel time",
            user_warm_kb=44, user_cold_kb=1152, user_cold_weight=0.03,
            user_stream_weight=0.02,
            kernel_warm_kb=24, kernel_cold_kb=1024, kernel_buf_kb=2048, kernel_buf_weight=0.08,
            kernel_dwell=430, user_dwell=560,
        ),
        "video": _build_profile(
            "video",
            "video playback: frame buffers stream through, driver/DMA kernel traffic",
            user_warm_kb=40, user_cold_kb=1024, user_cold_weight=0.035,
            user_stream_kb=8192, user_stream_weight=0.10,
            kernel_warm_kb=32, kernel_buf_kb=4096, kernel_buf_weight=0.15,
            kernel_dwell=510, user_dwell=470,
        ),
        "camera": _build_profile(
            "camera",
            "camera capture + image pipeline: tile state plus heavy frame streaming",
            user_warm_kb=56, user_cold_kb=512, user_cold_weight=0.03,
            user_stream_kb=12288, user_stream_weight=0.16,
            kernel_warm_kb=36, kernel_buf_kb=6144, kernel_buf_weight=0.18,
            kernel_dwell=420, user_dwell=560,
        ),
        "chat": _build_profile(
            "chat",
            "instant messaging: tiny hot heap, constant notification/IPC kernel work",
            user_warm_kb=32, user_cold_kb=512, user_cold_weight=0.04,
            user_stream_weight=0.02,
            kernel_warm_kb=52, kernel_cold_kb=1024, kernel_buf_kb=2048,
            kernel_buf_weight=0.13, kernel_dwell=560, user_dwell=380,
        ),
        "podcast": _build_profile(
            "podcast",
            "background audio + download: streaming dominated, minimal user state",
            user_warm_kb=24, user_cold_kb=512, user_cold_weight=0.03,
            user_stream_kb=8192, user_stream_weight=0.20,
            kernel_warm_kb=32, kernel_buf_kb=4096, kernel_buf_weight=0.20,
            kernel_dwell=480, user_dwell=420,
        ),
        "gallery": _build_profile(
            "gallery",
            "photo gallery: thumbnail cache plus large decode streams, page-cache churn",
            user_warm_kb=64, user_cold_kb=1536, user_cold_weight=0.08,
            user_stream_kb=6144, user_stream_weight=0.12,
            kernel_warm_kb=40, kernel_cold_kb=1536, kernel_cold_weight=0.08,
            kernel_buf_kb=2048, kernel_buf_weight=0.10,
            kernel_dwell=400, user_dwell=520,
        ),
        "reader": _build_profile(
            "reader",
            "document reader: page-cache heavy rendering with moderate kernel share",
            user_warm_kb=48, user_cold_kb=1280, user_cold_weight=0.045,
            user_stream_kb=3072, user_stream_weight=0.06,
            kernel_warm_kb=28, kernel_buf_kb=2048, kernel_buf_weight=0.10,
            kernel_dwell=450, user_dwell=520,
        ),
    }


def app_profile(name: str) -> AppProfile:
    """Return the :class:`AppProfile` for ``name`` (see :data:`APP_NAMES`)."""
    profiles = _profiles()
    if name not in profiles:
        raise KeyError(f"unknown app {name!r}; choose from {APP_NAMES}")
    return profiles[name]


def suite_trace(name: str, length: int = DEFAULT_TRACE_LENGTH, seed: int = 0) -> Trace:
    """Generate the default trace for app ``name``.

    Each call generates afresh; what the simulator runs is the trace's
    L1-filtered stream, which the persistent stream cache holds
    (:func:`repro.engine.streamcache.load_stream`).
    """
    from repro.trace.generator import generate_trace

    return generate_trace(app_profile(name), length, seed)
