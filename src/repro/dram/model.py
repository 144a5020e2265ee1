"""A bank/row-buffer DRAM model (LPDDR-class).

The canonical experiments charge a flat DRAM latency per L2 miss, which
is the common simplification in cache papers.  This substrate refines
that: the miss stream is mapped onto channels/banks/rows, each bank keeps
an open row, and an access is either a **row hit** (column access only),
a **row miss** (precharge + activate + column) or lands on a **busy
bank** and also waits.  Energy distinguishes activate/precharge from
column transfers.

It is used by the DRAM-sensitivity ablation
(``benchmarks/bench_ablation_dram.py``) and replaces the flat-latency
assumption in any fixed design whose ``dram`` field holds a
:class:`DRAMConfig` (``BaselineDesign(dram=DRAMConfig())``, or
``design_kwargs={"dram": DRAMConfig()}`` in a job spec); each run builds
a fresh :class:`DRAMModel` and reports its counters as a plain dict in
``extras["dram_stats"]``.  The model feeds nothing back into replay, so
it runs after it, as one pass over either engine's events
(:func:`repro.core.pipeline.dram_pass`).
It never sees expiry write-backs (dirty STT-RAM blocks that decay and
drain), which the flat model charges; ``docs/modeling.md`` §6 counts
them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DRAMConfig", "DRAMStats", "DRAMModel"]


@dataclass(frozen=True)
class DRAMConfig:
    """Timing/energy/geometry of the DRAM device (LPDDR3-class, 1 GHz core).

    Latencies are in core cycles; energies in nanojoules per event.
    """

    banks: int = 8
    row_bytes: int = 2048
    t_row_hit: int = 60
    t_row_miss: int = 140
    t_bank_busy: int = 40
    e_activate_nj: float = 12.0
    e_column_nj: float = 6.0
    e_background_mw: float = 40.0

    def __post_init__(self) -> None:
        if self.banks <= 0 or self.banks & (self.banks - 1):
            raise ValueError(f"banks must be a positive power of two, got {self.banks}")
        if self.row_bytes <= 0 or self.row_bytes & (self.row_bytes - 1):
            raise ValueError(f"row_bytes must be a positive power of two, got {self.row_bytes}")
        if not 0 < self.t_row_hit <= self.t_row_miss:
            raise ValueError("need 0 < t_row_hit <= t_row_miss")
        if self.t_bank_busy < 0:
            raise ValueError("t_bank_busy must be >= 0")


@dataclass
class DRAMStats:
    """Access counters of one DRAM model instance."""

    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_stalls: int = 0
    total_latency: int = 0
    reads: int = 0
    writes: int = 0

    @property
    def row_hit_rate(self) -> float:
        """Row-buffer hits per access."""
        return self.row_hits / self.accesses if self.accesses else 0.0


class DRAMModel:
    """Open-row DRAM with per-bank state.

    Address mapping: row = addr / row_bytes; bank = row % banks (row
    interleaving, the common choice for streaming-friendly mapping).
    """

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config if config is not None else DRAMConfig()
        self.stats = DRAMStats()
        self._open_rows: list[int | None] = [None] * self.config.banks
        self._bank_free_at: list[int] = [0] * self.config.banks

    def access(self, addr: int, tick: int, is_write: bool = False) -> int:
        """Perform one block transfer; returns its latency in cycles."""
        cfg = self.config
        st = self.stats
        row = addr // cfg.row_bytes
        bank = row & (cfg.banks - 1)

        st.accesses += 1
        if is_write:
            st.writes += 1
        else:
            st.reads += 1

        latency = 0
        if tick < self._bank_free_at[bank]:
            wait = min(self._bank_free_at[bank] - tick, cfg.t_bank_busy)
            st.busy_stalls += 1
            latency += wait

        if self._open_rows[bank] == row:
            st.row_hits += 1
            latency += cfg.t_row_hit
        else:
            st.row_misses += 1
            latency += cfg.t_row_miss
            self._open_rows[bank] = row

        self._bank_free_at[bank] = tick + latency
        st.total_latency += latency
        return latency

    def energy_j(self, busy_seconds: float = 0.0) -> float:
        """Total DRAM energy: activations + column transfers + background."""
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be >= 0")
        cfg = self.config
        st = self.stats
        dynamic = (
            st.row_misses * cfg.e_activate_nj + st.accesses * cfg.e_column_nj
        ) * 1e-9
        background = cfg.e_background_mw * 1e-3 * busy_seconds
        return dynamic + background

    def reset(self) -> None:
        """Clear bank state and counters."""
        self.stats = DRAMStats()
        self._open_rows = [None] * self.config.banks
        self._bank_free_at = [0] * self.config.banks
