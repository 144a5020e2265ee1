"""The paper's figures, reconstructed (see DESIGN.md for provenance).

Each ``figN_*`` function runs the experiment behind one figure and
returns a small result object carrying both the raw rows and a
``render()`` producing the ASCII artifact the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.hierarchy import L2Stream
from repro.config import DEFAULT_PLATFORM
from repro.core.designs import DESIGN_NAMES
from repro.core.search import PartitionPoint, choose_partition, partition_point
from repro.energy.technology import RETENTION_CLASSES
from repro.engine.spec import JobSpec
from repro.engine.streamcache import load_stream
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.report import format_bars, format_percent, format_series, format_table
from repro.trace.workloads import APP_NAMES
from repro.types import Privilege

__all__ = [
    "fig1_kernel_share",
    "fig2_interference",
    "fig3_size_sweep",
    "fig4_static_space",
    "fig5_intervals",
    "fig6_energy_breakdown",
    "fig7_dynamic_timeline",
    "fig8_energy_summary",
]


# ---------------------------------------------------------------------------
# Figure 1 — kernel share of L2 accesses


@dataclass(frozen=True)
class KernelShareResult:
    """Per-app kernel share of L2 accesses (the >40% motivation)."""

    shares: dict[str, float]

    @property
    def mean(self) -> float:
        """Suite mean kernel share."""
        return float(np.mean(list(self.shares.values())))

    def render(self) -> str:
        rows = [[app, format_percent(v)] for app, v in self.shares.items()]
        rows.append(["MEAN", format_percent(self.mean)])
        return format_table(
            "Figure 1: OS-kernel share of L2 cache accesses",
            ["app", "kernel share"],
            rows,
        )


def fig1_kernel_share(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> KernelShareResult:
    """Kernel share of L2 accesses per app (paper: >40% on average)."""
    shares = {app: load_stream(app, length).kernel_share() for app in apps}
    return KernelShareResult(shares)


# ---------------------------------------------------------------------------
# Figure 2 — user/kernel interference in the shared L2


@dataclass(frozen=True)
class InterferenceRow:
    """Shared-vs-partitioned comparison at equal total capacity."""

    app: str
    shared_miss_rate: float
    partitioned_miss_rate: float
    cross_evictions_per_kilo_access: float

    @property
    def interference_penalty(self) -> float:
        """Miss-rate increase attributable to cross-privilege interference."""
        return self.shared_miss_rate - self.partitioned_miss_rate


@dataclass(frozen=True)
class InterferenceResult:
    """Figure 2 rows."""

    rows: tuple[InterferenceRow, ...]

    def render(self) -> str:
        table_rows = [
            [
                r.app,
                format_percent(r.shared_miss_rate, 2),
                format_percent(r.partitioned_miss_rate, 2),
                format_percent(r.interference_penalty, 2),
                f"{r.cross_evictions_per_kilo_access:.1f}",
            ]
            for r in self.rows
        ]
        return format_table(
            "Figure 2: user/kernel interference in the shared L2 "
            "(vs. interference-free partition of equal total size)",
            ["app", "shared mr", "partitioned mr", "penalty", "x-evict/kacc"],
            table_rows,
        )


def fig2_interference(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> InterferenceResult:
    """Shared L2 vs an equal-total-size partition (interference isolated).

    The partition splits the baseline's 16 ways 10+6 (roughly the
    suite's user/kernel access ratio), so capacity is identical and the
    only difference is that the two streams can no longer evict each
    other.  Cross-privilege evictions per thousand L2 accesses quantify
    the interference directly.
    """
    specs = {}
    for app in apps:
        specs["shared", app] = JobSpec("baseline", app, length)
        specs["equal", app] = JobSpec(
            "static-sram", app, length, design_kwargs={"user_ways": 10, "kernel_ways": 6}
        )
    results = run_specs(specs)
    rows = []
    for app in apps:
        shared = results["shared", app].l2_stats
        # the shared L2 sees every stream row, so its accesses are the stream length
        xevict = shared.cross_privilege_evictions / max(1, shared.accesses) * 1000.0
        rows.append(
            InterferenceRow(
                app=app,
                shared_miss_rate=shared.demand_miss_rate,
                partitioned_miss_rate=results["equal", app].l2_stats.demand_miss_rate,
                cross_evictions_per_kilo_access=xevict,
            )
        )
    return InterferenceResult(tuple(rows))


# ---------------------------------------------------------------------------
# Figure 3 — shared-L2 miss rate vs cache size


@dataclass(frozen=True)
class SizeSweepResult:
    """Mean shared-L2 miss rate per capacity."""

    points: tuple[tuple[int, float], ...]  # (size_bytes, mean miss rate)

    def render(self) -> str:
        return format_series(
            "Figure 3: shared-L2 demand miss rate vs capacity (suite mean)",
            "size",
            "miss rate",
            [(f"{size // 1024} KB", format_percent(mr, 2)) for size, mr in self.points],
        )


def fig3_size_sweep(
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = APP_NAMES,
    sizes_kb: tuple[int, ...] = (128, 256, 512, 768, 1024, 2048),
) -> SizeSweepResult:
    """Sweep the shared SRAM L2 capacity.

    The sweep holds the set count at the baseline's 1024 and varies the
    way count (2..32) — exactly what shrinking/growing a way-organised
    array does.
    """
    for size_kb in sizes_kb:
        if size_kb % 64:
            raise ValueError(f"sizes must be multiples of 64 KB, got {size_kb}")
    results = run_specs({
        (size_kb, app): JobSpec("baseline", app, length, design_kwargs={"ways": size_kb // 64})
        for size_kb in sizes_kb
        for app in apps
    })
    points = [
        (
            size_kb * 1024,
            float(np.mean([results[size_kb, app].l2_stats.demand_miss_rate for app in apps])),
        )
        for size_kb in sizes_kb
    ]
    return SizeSweepResult(tuple(points))


# ---------------------------------------------------------------------------
# Figure 4 — static partition design space


@dataclass(frozen=True)
class StaticSpaceResult:
    """The (user, kernel) way sweep and the chosen shrunk point."""

    points: tuple[PartitionPoint, ...]
    chosen: PartitionPoint
    baseline_miss_rate: float

    def render(self) -> str:
        rows = [
            [
                f"{p.user_ways}u+{p.kernel_ways}k",
                f"{p.total_bytes // 1024} KB",
                format_percent(p.demand_miss_rate, 2),
                format_percent(p.user_miss_rate, 2),
                format_percent(p.kernel_miss_rate, 2),
            ]
            for p in self.points
        ]
        chosen = (
            f"baseline (1024 KB shared) mr = {format_percent(self.baseline_miss_rate, 2)}; "
            f"chosen: {self.chosen.user_ways}u+{self.chosen.kernel_ways}k "
            f"({self.chosen.total_bytes // 1024} KB) at "
            f"{format_percent(self.chosen.demand_miss_rate, 2)}"
        )
        return (
            format_table(
                "Figure 4: static partition design space (suite mean)",
                ["config", "total", "miss rate", "user mr", "kernel mr"],
                rows,
            )
            + "\n"
            + chosen
        )


def fig4_static_space(
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = ("browser", "social", "game"),
    user_way_options: tuple[int, ...] = (4, 6, 8, 10),
    kernel_way_options: tuple[int, ...] = (2, 4, 6),
    tolerance: float = 0.10,
) -> StaticSpaceResult:
    """Sweep partition sizes and pick the smallest admissible point.

    Defaults to three representative apps to keep the sweep tractable;
    pass ``apps=APP_NAMES`` for the full-suite version.  Each (design,
    app) pair is one spec of a single store-backed batch; the selection
    rule is :func:`~repro.core.search.choose_partition`.  ``repro
    search`` runs this sweep over a wider way grid.
    """
    if not apps:
        raise ValueError("need at least one app to sweep")
    ways = [(uw, kw) for uw in user_way_options for kw in kernel_way_options]
    specs = {("baseline", app): JobSpec("baseline", app, length) for app in apps}
    for uw, kw in ways:
        split = {"user_ways": uw, "kernel_ways": kw}
        for app in apps:
            specs[(uw, kw), app] = JobSpec("static-sram", app, length, design_kwargs=split)
    results = run_specs(specs)
    points = [
        partition_point(uw, kw, [results[(uw, kw), app] for app in apps], DEFAULT_PLATFORM)
        for uw, kw in ways
    ]
    baseline = float(
        np.mean([results["baseline", app].l2_stats.demand_miss_rate for app in apps])
    )
    return StaticSpaceResult(tuple(points), choose_partition(points, baseline, tolerance), baseline)


# ---------------------------------------------------------------------------
# Figure 5 — access-interval distributions of the separated segments


@dataclass(frozen=True)
class IntervalRow:
    """Interval percentiles of one privilege's L2 stream (in ms)."""

    app: str
    privilege: str
    p50_ms: float
    p90_ms: float
    p99_ms: float


@dataclass(frozen=True)
class IntervalsResult:
    """Figure 5 rows plus the retention windows they motivate."""

    rows: tuple[IntervalRow, ...]

    def render(self) -> str:
        table_rows = [
            [r.app, r.privilege, f"{r.p50_ms:.2f}", f"{r.p90_ms:.2f}", f"{r.p99_ms:.2f}"]
            for r in self.rows
        ]
        windows = ", ".join(
            f"{name}={cls.retention_s * 1e3:.0f} ms" if cls.retention_s else f"{name}=inf"
            for name, cls in RETENTION_CLASSES.items()
        )
        return (
            format_table(
                "Figure 5: block inter-access intervals of the separated "
                "user/kernel L2 streams",
                ["app", "segment", "p50 (ms)", "p90 (ms)", "p99 (ms)"],
                table_rows,
                align_left_cols=2,
            )
            + f"\nretention windows: {windows}"
        )


def _privilege_intervals_ms(stream: L2Stream, privilege: Privilege, clock_hz: float) -> np.ndarray:
    """Same-block tick gaps of one privilege's rows, in milliseconds."""
    rows = stream.privilege_rows()[privilege]
    blocks = (stream.addrs[rows] // np.uint64(64)).astype(np.int64)
    ticks = stream.ticks[rows].astype(np.int64)
    order = np.argsort(blocks, kind="stable")
    sb, st = blocks[order], ticks[order]
    gaps = (st[1:] - st[:-1])[sb[1:] == sb[:-1]]
    return gaps / clock_hz * 1e3


def fig5_intervals(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> IntervalsResult:
    """Interval percentiles per privilege — why the segments get
    different STT-RAM retention classes."""
    rows = []
    clock = DEFAULT_PLATFORM.clock_hz
    for app in apps:
        stream = load_stream(app, length)
        for priv in (Privilege.USER, Privilege.KERNEL):
            ms = _privilege_intervals_ms(stream, priv, clock)
            if not len(ms):
                continue
            rows.append(
                IntervalRow(
                    app=app,
                    privilege=priv.label,
                    p50_ms=float(np.percentile(ms, 50)),
                    p90_ms=float(np.percentile(ms, 90)),
                    p99_ms=float(np.percentile(ms, 99)),
                )
            )
    return IntervalsResult(tuple(rows))


# ---------------------------------------------------------------------------
# Figure 6 — energy breakdown per design


@dataclass(frozen=True)
class EnergyBreakdownRow:
    """Suite-mean energy components of one design (microjoules)."""

    design: str
    leakage_uj: float
    read_uj: float
    write_uj: float
    refresh_uj: float
    normalized_total: float


@dataclass(frozen=True)
class EnergyBreakdownResult:
    """Figure 6 rows."""

    rows: tuple[EnergyBreakdownRow, ...]

    def render(self) -> str:
        table_rows = [
            [
                r.design,
                f"{r.leakage_uj:.1f}",
                f"{r.read_uj:.1f}",
                f"{r.write_uj:.1f}",
                f"{r.refresh_uj:.1f}",
                f"{r.normalized_total:.3f}",
            ]
            for r in self.rows
        ]
        return format_table(
            "Figure 6: L2 energy breakdown per design (suite mean, uJ)",
            ["design", "leakage", "read", "write", "refresh", "norm."],
            table_rows,
        )


def fig6_energy_breakdown(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> EnergyBreakdownResult:
    """Mean leakage/read/write/refresh energy of each canonical design."""
    results = run_specs(
        {(d, app): JobSpec(d, app, length) for d in DESIGN_NAMES for app in apps}
    )
    rows = []
    for design in DESIGN_NAMES:
        leak, read, write, refresh, norm = [], [], [], [], []
        for app in apps:
            base_total = results["baseline", app].l2_energy.total_j
            e = results[design, app].l2_energy
            leak.append(e.leakage_j)
            read.append(e.read_j)
            write.append(e.write_j)
            refresh.append(e.refresh_j)
            norm.append(e.total_j / base_total)
        rows.append(
            EnergyBreakdownRow(
                design=design,
                leakage_uj=float(np.mean(leak)) * 1e6,
                read_uj=float(np.mean(read)) * 1e6,
                write_uj=float(np.mean(write)) * 1e6,
                refresh_uj=float(np.mean(refresh)) * 1e6,
                normalized_total=float(np.mean(norm)),
            )
        )
    return EnergyBreakdownResult(tuple(rows))


# ---------------------------------------------------------------------------
# Figure 7 — dynamic partition way timeline


@dataclass(frozen=True)
class DynamicTimelineResult:
    """Powered way counts of both segments over time for one app."""

    app: str
    ticks: tuple[int, ...]
    user_ways: tuple[int, ...]
    kernel_ways: tuple[int, ...]
    mean_user_ways: float
    mean_kernel_ways: float
    static_total_ways: int

    def render(self, samples: int = 24) -> str:
        n = len(self.ticks)
        idx = np.linspace(0, n - 1, min(samples, n)).astype(int)
        rows = [
            [
                f"{self.ticks[i] / 1e6:.1f}M",
                self.user_ways[i],
                self.kernel_ways[i],
                self.user_ways[i] + self.kernel_ways[i],
            ]
            for i in idx
        ]
        footer = (
            f"time-mean powered ways: user {self.mean_user_ways:.2f}, "
            f"kernel {self.mean_kernel_ways:.2f} "
            f"(static design holds {self.static_total_ways} ways at all times)"
        )
        return (
            format_table(
                f"Figure 7: dynamic partition way timeline ({self.app})",
                ["tick", "user ways", "kernel ways", "total"],
                rows,
            )
            + "\n"
            + footer
        )


def fig7_dynamic_timeline(
    app: str = "browser", length: int = EXPERIMENT_TRACE_LENGTH
) -> DynamicTimelineResult:
    """Epoch-by-epoch powered way counts of the dynamic design."""
    result = run_specs({app: JobSpec("dynamic-stt", app, length)})[app]
    ticks = result.extras["timeline_ticks"]
    uw = result.extras["timeline_user_ways"]
    kw = result.extras["timeline_kernel_ways"]
    return DynamicTimelineResult(
        app=app,
        ticks=tuple(ticks),
        user_ways=tuple(uw),
        kernel_ways=tuple(kw),
        mean_user_ways=float(np.mean(uw)),
        mean_kernel_ways=float(np.mean(kw)),
        static_total_ways=12,
    )


# ---------------------------------------------------------------------------
# Figure 8 — normalized L2 energy per app per design (the headline)


@dataclass(frozen=True)
class EnergySummaryResult:
    """Normalized energy per (app, design) plus suite means."""

    normalized: dict[str, dict[str, float]]  # app -> design -> normalized energy

    def mean(self, design: str) -> float:
        """Suite-mean normalized energy of ``design``."""
        return float(np.mean([v[design] for v in self.normalized.values()]))

    def saving(self, design: str) -> float:
        """Suite-mean energy saving of ``design`` vs the baseline."""
        return 1.0 - self.mean(design)

    def render(self) -> str:
        designs = DESIGN_NAMES
        rows = [
            [app] + [f"{self.normalized[app][d]:.3f}" for d in designs]
            for app in self.normalized
        ]
        rows.append(["MEAN"] + [f"{self.mean(d):.3f}" for d in designs])
        table = format_table(
            "Figure 8: normalized L2 energy per design (baseline = 1.000)",
            ["app", *designs],
            rows,
        )
        bars = format_bars(
            "suite mean:",
            [(d, self.mean(d)) for d in designs],
        )
        return table + "\n" + bars


def fig8_energy_summary(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> EnergySummaryResult:
    """The headline result: per-app normalized L2 energy of all designs."""
    results = run_specs(
        {(d, app): JobSpec(d, app, length) for d in DESIGN_NAMES for app in apps}
    )
    normalized: dict[str, dict[str, float]] = {}
    for app in apps:
        base = results["baseline", app].l2_energy.total_j
        normalized[app] = {
            design: results[design, app].l2_energy.total_j / base for design in DESIGN_NAMES
        }
    return EnergySummaryResult(normalized)
