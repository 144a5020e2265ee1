"""Replacement policies for the set-associative cache model.

A policy owns a small per-set state blob.  The cache calls ``on_fill`` /
``on_hit`` on every access and ``victim`` only when a set is full.  All
policies operate on way indices, and ``victim`` takes the number of
candidate ways, so they compose with way power-gating (the dynamic
partition shrinks a segment by gating its highest ways).

Implemented: true LRU, FIFO, random, tree-PLRU and SRRIP — the L2 policy
is an ablation axis in the benchmarks (the paper's platform uses LRU-like
replacement).
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "TreePLRUPolicy",
    "SRRIPPolicy",
    "make_policy",
    "POLICY_NAMES",
]


class ReplacementPolicy(abc.ABC):
    """Interface every replacement policy implements."""

    name: str = "abstract"

    @abc.abstractmethod
    def init_set(self, ways: int) -> object:
        """Create the per-set policy state for a set of ``ways`` frames."""

    @abc.abstractmethod
    def on_hit(self, state: object, way: int) -> None:
        """Record a hit on ``way``."""

    @abc.abstractmethod
    def on_fill(self, state: object, way: int) -> None:
        """Record a fill into ``way``."""

    @abc.abstractmethod
    def victim(self, state: object, ways: int) -> int:
        """Choose the way to evict from a full set of ``ways`` frames."""

    def hit_rank(self, state: object, way: int, ways: int) -> int | None:
        """Recency rank of ``way`` (0 = MRU), when the policy tracks it.

        Only true-LRU can answer; others return ``None``.  The dynamic
        partition controller uses ranks to detect useless ways.
        """
        return None


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used via per-way sequence numbers."""

    name = "lru"

    def __init__(self) -> None:
        self._seq = 0

    def init_set(self, ways: int) -> list[int]:
        return [0] * ways

    def on_hit(self, state: list[int], way: int) -> None:
        self._seq += 1
        state[way] = self._seq

    on_fill = on_hit

    def victim(self, state: list[int], ways: int) -> int:
        best, best_seq = 0, state[0]
        for w in range(1, ways):
            if state[w] < best_seq:
                best, best_seq = w, state[w]
        return best

    def hit_rank(self, state: list[int], way: int, ways: int) -> int:
        mine = state[way]
        return sum(1 for w in range(ways) if state[w] > mine)


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out: evict the oldest fill, ignore hits."""

    name = "fifo"

    def __init__(self) -> None:
        self._seq = 0

    def init_set(self, ways: int) -> list[int]:
        return [0] * ways

    def on_hit(self, state: list[int], way: int) -> None:
        pass

    def on_fill(self, state: list[int], way: int) -> None:
        self._seq += 1
        state[way] = self._seq

    def victim(self, state: list[int], ways: int) -> int:
        best, best_seq = 0, state[0]
        for w in range(1, ways):
            if state[w] < best_seq:
                best, best_seq = w, state[w]
        return best


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (seeded, hence reproducible)."""

    name = "random"

    def __init__(self, seed: int = 0xCACE) -> None:
        self._rng = np.random.default_rng(seed)

    def init_set(self, ways: int) -> None:
        return None

    def on_hit(self, state: None, way: int) -> None:
        pass

    def on_fill(self, state: None, way: int) -> None:
        pass

    def victim(self, state: None, ways: int) -> int:
        return int(self._rng.integers(0, ways))


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU (the common hardware approximation).

    State is ``(ways, bits)`` where ``bits`` is the classic ``ways - 1``
    bit array; each bit points towards the pseudo-least-recent half of
    its subtree.  Non-power-of-two way counts work because both the touch
    walk and the victim walk halve the *real* ``[0, ways)`` range, never
    producing an out-of-range way.
    """

    name = "plru"

    def init_set(self, ways: int) -> list[int]:
        return [0] * max(1, ways - 1)

    def _touch(self, state: list[int], way: int, ways: int) -> None:
        """Walk the tree towards ``way``, pointing bits away from it."""
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1 and node < len(state):
            mid = (lo + hi) // 2
            if way < mid:
                state[node] = 1  # pseudo-LRU side is now the right half
                node = 2 * node + 1
                hi = mid
            else:
                state[node] = 0  # pseudo-LRU side is now the left half
                node = 2 * node + 2
                lo = mid

    def on_hit(self, state: list[int], way: int) -> None:
        self._touch(state, way, len(state) + 1)

    def on_fill(self, state: list[int], way: int) -> None:
        self._touch(state, way, len(state) + 1)

    def victim(self, state: list[int], ways: int) -> int:
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bit = state[node] if node < len(state) else 0
            if bit:  # pseudo-LRU block lives in the right half
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10).

    2-bit RRPV per way; fills insert at ``max - 1``, hits promote to 0,
    victims are ways at ``max`` (aging everyone when none qualifies).
    """

    name = "srrip"
    max_rrpv = 3

    def init_set(self, ways: int) -> list[int]:
        return [self.max_rrpv] * ways

    def on_hit(self, state: list[int], way: int) -> None:
        state[way] = 0

    def on_fill(self, state: list[int], way: int) -> None:
        state[way] = self.max_rrpv - 1

    def victim(self, state: list[int], ways: int) -> int:
        while True:
            for w in range(ways):
                if state[w] >= self.max_rrpv:
                    return w
            for w in range(ways):
                state[w] += 1


POLICY_NAMES = ("lru", "fifo", "random", "plru", "srrip")


def make_policy(name: str, seed: int = 0xCACE) -> ReplacementPolicy:
    """Instantiate a policy by name (one of :data:`POLICY_NAMES`)."""
    table = {
        "lru": LRUPolicy,
        "fifo": FIFOPolicy,
        "plru": TreePLRUPolicy,
        "srrip": SRRIPPolicy,
    }
    if name == "random":
        return RandomPolicy(seed)
    if name not in table:
        raise ValueError(f"unknown replacement policy {name!r}; choose from {POLICY_NAMES}")
    return table[name]()
