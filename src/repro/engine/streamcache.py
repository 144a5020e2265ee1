"""Persistent, content-addressed, memory-mapped cache of L2 streams.

The front end of every simulation — generating an app trace and
filtering it through the split L1s — is a pure function of
``(app, length, seed, platform)``, yet it historically ran
once per *process*: every pool worker and every fresh CLI invocation
rebuilt the same streams before any design could replay them.  This
module makes the front end a one-time cost per machine: each
:class:`~repro.cache.hierarchy.L2Stream` is persisted once as a columnar
bundle under the cache root, and every later consumer maps the columns
zero-copy with ``np.load(..., mmap_mode="r")``, so all processes share
the kernel page cache instead of private heap copies.

Layout under the cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``,
beside the result store)::

    streams/<key[:2]>/<key>/
        meta.json       # schema tag, spec payload, rows, scalar context + L1 stats
        ticks.npy       # int64   \
        addrs.npy       # uint64   |
        privs.npy       # uint8    | the five parallel columns
        writes.npy      # bool     | (see hierarchy.STREAM_COLUMNS)
        demand.npy      # bool    /

Durability mirrors :class:`~repro.engine.store.ResultStore`: a bundle is
written into a temp directory and published with one atomic
``os.replace``, so readers never observe a half-written bundle; any
unreadable bundle (truncated column, stale schema, bad dtype) is evicted
and reported as a miss, so corruption degrades to a rebuild, never a
crash.  Lookups and writes are tallied into the process-local
observability registry (``streamcache.hit`` / ``streamcache.miss`` /
``streamcache.write`` / ``streamcache.build`` /
``streamcache.corrupt-evicted``) and persisted across processes through
the same :class:`~repro.engine.store.CounterFile` mechanism as the
result store, which is what gives ``repro cache stats`` the stream
cache's lifetime hit rate.

:func:`load_stream` is the one way the rest of the package obtains a
suite stream: a per-process memo over :func:`default_stream_cache`,
used by the executor, the experiments, the CLI and the benches alike.
:func:`release_stream` drops one stream from the memo, which the
executor does once a serial batch has run its last job on it.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import obs
from repro.cache.hierarchy import STREAM_COLUMNS, L2Stream, l1_filter
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.engine.spec import SCHEMA_VERSION, canonical_json, stream_key
from repro.engine.store import (
    CACHE_DISABLE_ENV,
    COUNTER_KEYS,
    CounterFile,
    StoreStats,
    default_cache_dir,
)
from repro.trace.workloads import suite_trace

__all__ = ["StreamCache", "default_stream_cache", "load_stream", "release_stream"]


class StreamCache:
    """Persistent ``stream key -> L2Stream`` mapping of columnar bundles."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._counters = CounterFile(self.root / "stream_counters.json", COUNTER_KEYS)

    @property
    def streams_dir(self) -> Path:
        """Directory holding the fanned-out stream bundles."""
        return self.root / "streams"

    def _bundle_dir(self, key: str) -> Path:
        return self.streams_dir / key[:2] / key

    def _tally(self, key: str, metric: str) -> None:
        self._counters.tally(key)
        obs.inc(metric)

    def has(
        self,
        app: str,
        length: int,
        seed: int,
        platform: PlatformConfig,
    ) -> bool:
        """Whether a published bundle exists (no validation, no tallies)."""
        key = stream_key(app, length, seed, platform)
        return (self._bundle_dir(key) / "meta.json").is_file()

    def get(
        self,
        app: str,
        length: int,
        seed: int,
        platform: PlatformConfig,
    ) -> L2Stream | None:
        """Memory-mapped stream for the key fields, or None on miss.

        A present-but-unreadable bundle (truncated column from a killed
        writer, stale schema, wrong dtype) is evicted and reported as a
        miss, mirroring :meth:`ResultStore.get` semantics.
        """
        key = stream_key(app, length, seed, platform)
        bundle = self._bundle_dir(key)
        with obs.span("stream.load", app=app, key=key[:12]) as sp:
            try:
                stream = self._read_bundle(bundle)
            except FileNotFoundError:
                sp.note(outcome="miss")
                self._tally("misses", "streamcache.miss")
                return None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                sp.note(outcome="corrupt", error=type(exc).__name__)
                shutil.rmtree(bundle, ignore_errors=True)
                self._tally("corrupt_evictions", "streamcache.corrupt-evicted")
                self._tally("misses", "streamcache.miss")
                return None
            sp.note(outcome="hit", rows=len(stream))
        self._tally("hits", "streamcache.hit")
        return stream

    def _read_bundle(self, bundle: Path) -> L2Stream:
        """Load one bundle, mapping every non-empty column zero-copy."""
        meta = json.loads((bundle / "meta.json").read_text())
        if meta["schema"] != SCHEMA_VERSION:
            raise ValueError(f"schema {meta['schema']} != {SCHEMA_VERSION}")
        rows = int(meta["rows"])
        # np.memmap cannot map a zero-length array; empty columns (an
        # empty stream) fall back to a regular read of the same file.
        mmap_mode = "r" if rows else None
        columns = {
            name: np.load(bundle / f"{name}.npy", mmap_mode=mmap_mode, allow_pickle=False)
            for name, _ in STREAM_COLUMNS
        }
        stream = L2Stream.from_columns(columns, meta["context"])
        if len(stream) != rows:
            raise ValueError(f"bundle has {len(stream)} rows, meta says {rows}")
        return stream

    def put(
        self,
        stream: L2Stream,
        app: str,
        length: int,
        seed: int,
        platform: PlatformConfig,
    ) -> Path:
        """Persist ``stream`` as a columnar bundle, atomically.

        The bundle is staged in a temp directory and published with one
        ``os.replace``.  If a concurrent writer published the same key
        first, theirs is kept (the contents are identical by
        construction) and the staged copy is discarded.
        """
        key = stream_key(app, length, seed, platform)
        bundle = self._bundle_dir(key)
        bundle.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=bundle.parent, prefix=".tmp-"))
        try:
            for name, arr in stream.columns().items():
                np.save(tmp / f"{name}.npy", np.ascontiguousarray(arr), allow_pickle=False)
            meta = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "rows": len(stream),
                "spec": {
                    "app": app,
                    "length": length,
                    "seed": seed,
                },
                "context": stream.context(),
            }
            (tmp / "meta.json").write_text(canonical_json(meta))
            os.replace(tmp, bundle)
        except OSError:
            # the target exists and is non-empty: a concurrent writer won
            shutil.rmtree(tmp, ignore_errors=True)
            if not (bundle / "meta.json").is_file():
                raise
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._tally("writes", "streamcache.write")
        return bundle

    def get_or_build(
        self,
        app: str,
        length: int,
        seed: int,
        platform: PlatformConfig,
    ) -> L2Stream:
        """The cached stream, building and persisting it on a miss.

        After a build the freshly published bundle is re-opened through
        the mmap path, so even the building process holds page-cache
        -backed column views rather than its private heap copy (the heap
        copy dies with this call).  If the re-open fails — e.g. a
        read-only cache directory — the in-heap build is returned and
        the caller still gets a correct stream.
        """
        stream = self.get(app, length, seed, platform)
        if stream is not None:
            return stream
        obs.inc("streamcache.build")
        built = l1_filter(suite_trace(app, length, seed), platform)
        try:
            bundle = self.put(built, app, length, seed, platform)
            return self._read_bundle(bundle)
        except (OSError, ValueError, KeyError, TypeError):
            return built

    def flush_counters(self) -> dict[str, int]:
        """Fold unsaved tallies into ``stream_counters.json`` (locked)."""
        return self._counters.flush()

    def counters(self) -> dict[str, int]:
        """Live view: persisted counters plus this instance's tallies."""
        return self._counters.live()

    def stats(self) -> StoreStats:
        """Bundle count, on-disk bytes and lifetime counters."""
        entries = 0
        total = 0
        if self.streams_dir.is_dir():
            for bundle in self.streams_dir.glob("*/*"):
                if not bundle.is_dir() or bundle.name.startswith(".tmp-"):
                    continue
                entries += 1
                total += sum(f.stat().st_size for f in bundle.iterdir() if f.is_file())
        counters = self.counters()
        return StoreStats(root=self.root, entries=entries, total_bytes=total, **counters)

    def clear(self) -> int:
        """Delete every bundle (and the counter history); returns how
        many bundles were removed."""
        removed = 0
        if self.streams_dir.is_dir():
            for bundle in self.streams_dir.glob("*/*"):
                if bundle.is_dir():
                    shutil.rmtree(bundle, ignore_errors=True)
                    if not bundle.name.startswith(".tmp-"):
                        removed += 1
            for sub in self.streams_dir.iterdir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        self._counters.reset()
        return removed


def default_stream_cache() -> StreamCache | None:
    """The process-default stream cache, or None when caching is disabled.

    Shares the root (and the ``REPRO_CACHE_DISABLE`` switch) with
    :func:`~repro.engine.store.default_store`.
    """
    if os.environ.get(CACHE_DISABLE_ENV):
        return None
    return StreamCache(default_cache_dir())


#: The per-process stream memo: stream key -> stream, least recently
#: used first, holding at most ``_MEMO_SIZE`` streams.
_MEMO: OrderedDict[str, L2Stream] = OrderedDict()
_MEMO_SIZE = 16


def load_stream(
    app: str, length: int, seed: int = 0, platform: PlatformConfig = DEFAULT_PLATFORM
) -> L2Stream:
    """The L1-filtered L2 stream of one suite app (memoised per process).

    Entries are zero-copy column views over the persistent
    :class:`StreamCache` bundles, so what the memo keeps alive is a
    handful of memory maps the kernel pages in and out on demand, not
    private heap copies of 720k-row streams.  Only with caching disabled
    (``REPRO_CACHE_DISABLE``) is the stream built in-process and the
    entry owns its arrays.  The stream is filtered through
    ``platform``'s L1s, so a non-default platform sees its own L1
    behaviour.  The memo is keyed on the stream key, so an edited app
    profile misses it just as it misses the persistent cache.
    """
    key = stream_key(app, length, seed, platform)
    stream = _MEMO.get(key)
    if stream is not None:
        _MEMO.move_to_end(key)
        return stream
    cache = default_stream_cache()
    if cache is None:
        stream = l1_filter(suite_trace(app, length, seed), platform)
    else:
        stream = cache.get_or_build(app, length, seed, platform)
        # one flush per unique stream per process (memoised afterwards)
        cache.flush_counters()
    _MEMO[key] = stream
    if len(_MEMO) > _MEMO_SIZE:
        _MEMO.popitem(last=False)
    return stream


def release_stream(key: str) -> None:
    """Drop the stream with stream key ``key`` from the memo, if held.

    Its column maps close once no caller holds the stream, so their
    resident pages stop counting against the process.  With caching
    disabled the memo holds the only built copy, and releasing it would
    make the next :func:`load_stream` rebuild it, so the stream stays.
    """
    if default_stream_cache() is not None:
        _MEMO.pop(key, None)


#: Empty the memo (for callers that repoint ``REPRO_CACHE_DIR``).
load_stream.cache_clear = _MEMO.clear
