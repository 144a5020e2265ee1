"""Block-frame metadata for the cache model."""

from __future__ import annotations

__all__ = ["Entry"]


class Entry:
    """Metadata of one filled block frame.

    Attributes:
        tag: Block tag (address >> (offset bits + index bits)).
        priv: Privilege of the block's owner (who fetched it).
        dirty: True once the block holds unwritten-back data.
        last_refresh: Tick at which the cell contents were last (re)written
            — a fill, a store hit, or a retention refresh.  STT-RAM data
            survives ``retention_ticks`` past this point.
        life: For exponential-retention caches, the lifetime drawn for
            the current cell contents (ticks past ``last_refresh``);
            ``None`` under the fixed-window model.
    """

    __slots__ = ("tag", "priv", "dirty", "last_refresh", "life")

    def __init__(self, tag: int, priv: int, dirty: bool, tick: int) -> None:
        self.tag = tag
        self.priv = priv
        self.dirty = dirty
        self.last_refresh = tick
        self.life = None  # per-write lifetime draw (stochastic retention)

    def __repr__(self) -> str:
        return (
            f"Entry(tag={self.tag:#x}, priv={self.priv}, dirty={self.dirty}, "
            f"last_refresh={self.last_refresh})"
        )
