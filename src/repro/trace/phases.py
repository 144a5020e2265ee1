"""Phase-level workload model for interactive mobile applications.

The paper's motivating observation is that interactive smartphone apps
spend a large share of their memory activity in the OS kernel: every
touch event, frame, network packet and Binder IPC drags execution through
syscalls, interrupt handlers and kernel services.  We model an app as a
Markov chain over *phases*.  Each phase runs at one privilege level and
draws its accesses from a set of address *regions* with phase-specific
locality.

The model deliberately keeps few knobs; :mod:`repro.trace.workloads`
instantiates it for eight named apps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.types import Privilege

__all__ = ["Region", "PhaseSpec", "AppProfile"]


@dataclass(frozen=True)
class Region:
    """A contiguous address range with one access pattern.

    Attributes:
        name: Label used in diagnostics.
        base: Start byte address.  Kernel regions must live at or above
            :data:`repro.types.KERNEL_SPACE_START`.
        size: Region size in bytes.
        pattern: ``"hot"`` draws block ranks from a concentrated
            power-law (temporal locality), ``"stream"`` walks the region
            sequentially and wraps (spatial locality, no reuse),
            ``"uniform"`` draws blocks uniformly (pointer chasing), and
            ``"rotating"`` cycles through ``subsets`` uniform sub-working
            sets, switching every ``rotate_dwells`` phase dwells — the
            footprint of an app whose active view/page changes between
            interactions.  Rotation is what gives user blocks their long
            dead times relative to kernel blocks (Figure 5).
        hotness: Exponent of the power-law rank transform for ``"hot"``
            regions; larger values concentrate accesses on fewer blocks.
            Rank is ``floor(nblocks * u**hotness)`` for ``u ~ U[0, 1)``.
        kind_weights: Probabilities of (IFETCH, LOAD, STORE) for
            accesses drawn from this region; non-negative, summing to 1.
        run_mean: Mean number of consecutive accesses to a block once it
            is selected (geometric run lengths).  Models word-granularity
            walks within a 64-byte line — the spatial locality that gives
            real code its L1 hit rate.
    """

    name: str
    base: int
    size: int
    pattern: str = "hot"
    hotness: float = 3.0
    kind_weights: tuple[float, float, float] = (0.0, 0.7, 0.3)
    run_mean: float = 6.0
    subsets: int = 4
    rotate_dwells: int = 3

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r}: size must be positive")
        if self.pattern not in ("hot", "stream", "uniform", "rotating"):
            raise ValueError(f"region {self.name!r}: unknown pattern {self.pattern!r}")
        if self.pattern == "rotating" and (self.subsets < 2 or self.rotate_dwells < 1):
            raise ValueError(
                f"region {self.name!r}: rotating pattern needs subsets >= 2 "
                f"and rotate_dwells >= 1"
            )
        if self.pattern == "hot" and self.hotness < 1.0:
            raise ValueError(f"region {self.name!r}: hotness must be >= 1")
        if min(self.kind_weights) < 0:
            raise ValueError(f"region {self.name!r}: negative entry in kind_weights {self.kind_weights}")
        total = sum(self.kind_weights)
        if not math.isclose(total, 1.0, abs_tol=1e-5):
            raise ValueError(f"region {self.name!r}: kind_weights sum to {total}, expected 1")
        if self.run_mean < 1.0:
            raise ValueError(f"region {self.name!r}: run_mean must be >= 1")


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of app execution at a single privilege level.

    Attributes:
        name: Phase label (``"render"``, ``"syscall"``, ...).
        privilege: Privilege level of every access in the phase.
        regions: Candidate regions, paired with selection ``weights``.
        weights: Per-access probability of choosing each region
            (non-negative, summing to 1).
        mean_accesses: Mean dwell length in accesses; actual dwells are
            geometric around this mean.
        mean_gap: Mean instruction gap between consecutive accesses
            (>= 1); drives trace ticks and hence leakage time.
    """

    name: str
    privilege: Privilege
    regions: tuple[Region, ...]
    weights: tuple[float, ...]
    mean_accesses: int = 400
    mean_gap: float = 3.0

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError(f"phase {self.name!r} needs at least one region")
        if len(self.weights) != len(self.regions):
            raise ValueError(f"phase {self.name!r}: {len(self.weights)} weights for {len(self.regions)} regions")
        if min(self.weights) < 0:
            raise ValueError(f"phase {self.name!r}: negative entry in weights {self.weights}")
        if not math.isclose(sum(self.weights), 1.0, abs_tol=1e-5):
            raise ValueError(f"phase {self.name!r}: weights must sum to 1")
        if self.mean_accesses < 1:
            raise ValueError(f"phase {self.name!r}: mean_accesses must be >= 1")
        if self.mean_gap < 1.0:
            raise ValueError(f"phase {self.name!r}: mean_gap must be >= 1")


@dataclass(frozen=True)
class AppProfile:
    """A complete application model: phases plus transition structure.

    Attributes:
        name: Application name (``"browser"``...).
        description: What the app stands for in the paper's suite.
        phases: The phase set.
        transitions: Row-stochastic matrix; ``transitions[i][j]`` is the
            probability of entering phase *j* after a dwell in phase *i*.
        start_phase: Index of the first phase.
        wake_phase: Phase entered right after an idle period (the
            interrupt handler that wakes the core), or ``None`` to keep
            the Markov transition.  Timer/wake interrupts are why kernel
            blocks keep short reuse intervals even across idle time.
        idle_prob: Probability that a phase transition is preceded by an
            idle period (the core waits for the next touch event, frame
            or packet).  Idle time advances the tick clock — and hence
            leakage and retention decay — without executing instructions.
        idle_mean_ticks: Mean length of one idle period in ticks.
    """

    name: str
    description: str
    phases: tuple[PhaseSpec, ...]
    transitions: tuple[tuple[float, ...], ...]
    start_phase: int = 0
    idle_prob: float = 0.20
    idle_mean_ticks: int = 40_000
    wake_phase: int | None = None

    def __post_init__(self) -> None:
        n = len(self.phases)
        if n == 0:
            raise ValueError("profile needs at least one phase")
        if not 0.0 <= self.idle_prob <= 1.0:
            raise ValueError(f"profile {self.name!r}: idle_prob must be in [0, 1]")
        if self.idle_mean_ticks < 0:
            raise ValueError(f"profile {self.name!r}: idle_mean_ticks must be >= 0")
        if len(self.transitions) != n or any(len(row) != n for row in self.transitions):
            raise ValueError(f"profile {self.name!r}: transition matrix must be {n}x{n}")
        for i, row in enumerate(self.transitions):
            if not math.isclose(sum(row), 1.0, abs_tol=1e-5):
                raise ValueError(f"profile {self.name!r}: transition row {i} sums to {sum(row)}")
            if min(row) < 0:
                raise ValueError(f"profile {self.name!r}: negative transition probability in row {i}")
        if not 0 <= self.start_phase < n:
            raise ValueError(f"profile {self.name!r}: start_phase {self.start_phase} out of range")
        if self.wake_phase is not None and not 0 <= self.wake_phase < n:
            raise ValueError(f"profile {self.name!r}: wake_phase {self.wake_phase} out of range")

    @property
    def kernel_phase_indices(self) -> tuple[int, ...]:
        """Indices of phases that run at kernel privilege."""
        return tuple(i for i, p in enumerate(self.phases) if p.privilege is Privilege.KERNEL)

