"""Content-addressed on-disk cache of simulation results.

Layout under the store root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)::

    results/<key[:2]>/<key>.json

Each entry is a versioned JSON document carrying the spec payload it was
keyed from (for ``repro cache stats`` introspection) and the serialised
:class:`~repro.core.result.DesignResult`.  Writes are atomic (tempfile +
``os.replace``) so a crashed or concurrent writer can never publish a
half-written entry; reads treat *any* undecodable entry as a miss and
delete it, so a corrupt cache degrades to re-simulation, never a crash.

Every lookup and write is tallied twice: into the process-local
observability registry (``store.hit`` / ``store.miss`` / ``store.write``
/ ``store.corrupt-evicted`` counters, see :mod:`repro.obs`) and into a
per-instance delta that :meth:`ResultStore.flush_counters` folds into a
cumulative ``counters.json`` beside the entries — that file is what
``repro cache stats`` reads to report the store's lifetime hit rate and
corruption history across processes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.result import DesignResult
from repro.engine.spec import SCHEMA_VERSION, JobSpec, canonical_json

try:  # POSIX only; counter flushes fall back to best-effort elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "COUNTER_KEYS",
    "CounterFile",
    "ResultStore",
    "StoreStats",
    "default_store",
    "default_cache_dir",
]

#: Keys of the persisted cumulative counters (``counters.json``).
COUNTER_KEYS = ("hits", "misses", "writes", "corrupt_evictions")

#: Environment variable overriding the store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set to a non-empty value to disable the persistent store entirely
#: (``default_store`` then returns None; simulations always run fresh).
CACHE_DISABLE_ENV = "REPRO_CACHE_DISABLE"


def default_cache_dir() -> Path:
    """Store root honouring ``$REPRO_CACHE_DIR``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def default_store() -> "ResultStore | None":
    """The process-default store, or None when caching is disabled."""
    if os.environ.get(CACHE_DISABLE_ENV):
        return None
    return ResultStore(default_cache_dir())


class CounterFile:
    """Cumulative named tallies persisted as one small JSON file.

    This is the accounting mechanism shared by :class:`ResultStore`
    (``counters.json``) and the stream cache (``stream_counters.json``):
    instances accumulate deltas in memory via :meth:`tally` and fold
    them into the on-disk totals with :meth:`flush` — a read-add-replace
    guarded by an ``flock`` sidecar lock where available, so concurrent
    pool workers don't lose each other's deltas.  A missing or corrupt
    file reads as all-zero; the counters are accounting, never truth.
    """

    def __init__(self, path: Path, keys: tuple[str, ...]) -> None:
        self.path = Path(path)
        self.keys = tuple(keys)
        self._pending = dict.fromkeys(self.keys, 0)

    def tally(self, key: str, value: int = 1) -> None:
        """Add ``value`` to the unsaved delta of counter ``key``."""
        self._pending[key] += value

    def read(self) -> dict[str, int]:
        """Persisted cumulative counters (zeros when absent/corrupt)."""
        try:
            payload = json.loads(self.path.read_text())
            return {key: int(payload.get(key, 0)) for key in self.keys}
        except (OSError, ValueError, TypeError):
            return dict.fromkeys(self.keys, 0)

    def live(self) -> dict[str, int]:
        """Persisted counters plus this instance's unsaved deltas."""
        totals = self.read()
        for key in self.keys:
            totals[key] += self._pending[key]
        return totals

    def flush(self) -> dict[str, int]:
        """Fold unsaved deltas into the file; returns the new totals."""
        if not any(self._pending.values()):
            return self.read()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_fd = None
        if fcntl is not None:
            lock_fd = os.open(f"{self.path}.lock", os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
        try:
            totals = self.read()
            for key in self.keys:
                totals[key] += self._pending[key]
                self._pending[key] = 0
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(canonical_json(totals))
                os.replace(tmp, self.path)
            except BaseException:
                _discard(Path(tmp))
                raise
        finally:
            if lock_fd is not None:
                fcntl.flock(lock_fd, fcntl.LOCK_UN)
                os.close(lock_fd)
        return totals

    def reset(self) -> None:
        """Drop the persisted history and any unsaved deltas."""
        _discard(self.path)
        _discard(Path(f"{self.path}.lock"))
        self._pending = dict.fromkeys(self.keys, 0)


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


@dataclass(frozen=True)
class StoreStats:
    """Summary of a store's on-disk contents and lifetime counters."""

    root: Path
    entries: int
    total_bytes: int
    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lifetime lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Lifetime hit rate (0.0 for a never-queried store)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultStore:
    """Persistent ``JobSpec -> DesignResult`` mapping on disk."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._counters = CounterFile(self.root / "counters.json", COUNTER_KEYS)

    @property
    def results_dir(self) -> Path:
        """Directory holding the fanned-out entry files."""
        return self.root / "results"

    def _entry_path(self, key: str) -> Path:
        return self.results_dir / key[:2] / f"{key}.json"

    def _tally(self, key: str, metric: str) -> None:
        self._counters.tally(key)
        obs.inc(metric)

    def get(self, spec: JobSpec) -> DesignResult | None:
        """Stored result for ``spec``, or None on miss.

        A present-but-unreadable entry (truncated write from a killed
        process, disk corruption, an old schema) is removed and reported
        as a miss.
        """
        path = self._entry_path(spec.content_key)
        try:
            payload = json.loads(path.read_text())
            if payload["schema"] != SCHEMA_VERSION:
                raise ValueError(f"schema {payload['schema']} != {SCHEMA_VERSION}")
            result = DesignResult.from_dict(payload["result"])
        except FileNotFoundError:
            self._tally("misses", "store.miss")
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._discard(path)
            self._tally("corrupt_evictions", "store.corrupt-evicted")
            self._tally("misses", "store.miss")
            return None
        self._tally("hits", "store.hit")
        return result

    def put(self, spec: JobSpec, result: DesignResult) -> Path:
        """Persist ``result`` under ``spec``'s content key, atomically."""
        path = self._entry_path(spec.content_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SCHEMA_VERSION,
            "key": spec.content_key,
            "spec": spec.describe(),
            "result": result.to_dict(),
        }
        blob = canonical_json(payload)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            self._discard(Path(tmp))
            raise
        self._tally("writes", "store.write")
        return path

    def flush_counters(self) -> dict[str, int]:
        """Fold this instance's unsaved tallies into ``counters.json``.

        Read-add-replace under a file lock (see :class:`CounterFile`);
        returns the new cumulative counters.
        """
        return self._counters.flush()

    def counters(self) -> dict[str, int]:
        """Live view: persisted counters plus this instance's tallies."""
        return self._counters.live()

    def stats(self) -> StoreStats:
        """Entry count, total size and lifetime counters of the store."""
        entries = 0
        total = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob("*/*.json"):
                entries += 1
                total += path.stat().st_size
        counters = self.counters()
        return StoreStats(root=self.root, entries=entries, total_bytes=total, **counters)

    def clear(self) -> int:
        """Delete every entry (and the counter history); returns how
        many entries were removed."""
        removed = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob("*/*.json"):
                self._discard(path)
                removed += 1
            for sub in self.results_dir.iterdir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        self._counters.reset()
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
