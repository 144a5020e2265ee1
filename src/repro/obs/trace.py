"""Span-based tracing with structured JSONL run logs.

One *recorder* lives per process.  By default it is the
:data:`NULL_RECORDER` — every ``span()`` returns a shared, stateless
no-op context manager and every ``event()`` is a single early return, so
instrumentation left in place costs a function call and nothing more.
Recording is opted into either through the ``REPRO_TRACE`` environment
variable (a path; inherited by pool workers, which append to the same
file) or programmatically via :func:`configure`.

Event schema — one JSON object per line, four types:

* ``run`` — emitted once when a recorder opens: ``ts``, ``pid``,
  ``run_id``, ``schema``.
* ``span`` — a completed timed region: ``name``, ``ts``/``t0``/``t1``
  (epoch seconds, comparable across processes), ``dur_s`` (monotonic
  clock, immune to wall-clock steps), ``pid`` and free-form ``attrs``.
* ``event`` — a point-in-time fact: ``name``, ``ts``, ``pid``,
  ``attrs``.
* ``metrics`` — a registry snapshot: ``ts``, ``pid``, ``counters``.

:func:`validate_event` enforces the required keys; ``repro obs summary``
refuses logs that do not validate.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.obs import metrics as _metrics

__all__ = [
    "TRACE_ENV",
    "OBS_SCHEMA_VERSION",
    "REQUIRED_KEYS",
    "NULL_RECORDER",
    "NULL_SPAN",
    "JsonlRecorder",
    "NullRecorder",
    "configure",
    "event",
    "recorder",
    "set_recorder",
    "span",
    "validate_event",
]

#: Environment variable holding the run-log path; any non-empty value
#: switches the process (and its pool workers) to a JSONL recorder.
TRACE_ENV = "REPRO_TRACE"

#: Version tag stamped into every ``run`` line.
OBS_SCHEMA_VERSION = 1

#: Required keys per event type; everything else is free-form.
REQUIRED_KEYS: dict[str, frozenset[str]] = {
    "run": frozenset({"type", "ts", "pid", "run_id", "schema"}),
    "span": frozenset({"type", "name", "ts", "t0", "t1", "dur_s", "pid"}),
    "event": frozenset({"type", "name", "ts", "pid"}),
    "metrics": frozenset({"type", "ts", "pid", "counters"}),
}


def validate_event(payload: dict) -> dict:
    """Check one decoded run-log line against the schema; return it.

    Raises ``ValueError`` on an unknown type or a missing required key.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"run-log line must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("type")
    required = REQUIRED_KEYS.get(kind)
    if required is None:
        raise ValueError(f"unknown event type {kind!r}; expected one of {sorted(REQUIRED_KEYS)}")
    missing = required - payload.keys()
    if missing:
        raise ValueError(f"{kind} event missing required keys: {sorted(missing)}")
    return payload


class _NullSpan:
    """The shared do-nothing span; one instance serves every call."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **attrs) -> None:
        """Discard late-bound attributes."""


#: Singleton returned by the null recorder's ``span()``.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times its block and emits one ``span`` line on exit."""

    __slots__ = ("_recorder", "name", "attrs", "_t0", "_wall0")

    def __init__(self, recorder: "JsonlRecorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        dur = time.perf_counter() - self._t0
        wall1 = time.time()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._recorder.emit({
            "type": "span",
            "name": self.name,
            "ts": self._wall0,
            "t0": self._wall0,
            "t1": wall1,
            "dur_s": dur,
            "pid": os.getpid(),
            "attrs": self.attrs,
        })
        return False

    def note(self, **attrs) -> None:
        """Attach attributes decided after the span opened."""
        self.attrs.update(attrs)


class NullRecorder:
    """Disabled recorder: keeps no state, creates no files."""

    enabled = False
    path = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def emit(self, payload: dict) -> None:
        return None

    def metrics(self, registry: _metrics.MetricsRegistry | None = None) -> None:
        return None

    def close(self) -> None:
        return None


#: The process-wide disabled recorder.
NULL_RECORDER = NullRecorder()


class JsonlRecorder:
    """Recorder appending one JSON object per line to ``path``.

    The file is opened in append mode and flushed per line, so several
    processes (a parent and its pool workers) can interleave whole lines
    into one log.  Epoch timestamps (``time.time``) keep their events on
    one comparable timeline; durations use the monotonic clock.
    """

    enabled = True

    def __init__(self, path: str | os.PathLike, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.run_id = run_id or f"{time.time_ns():x}-{os.getpid()}"
        self.emit({
            "type": "run",
            "ts": time.time(),
            "pid": os.getpid(),
            "run_id": self.run_id,
            "schema": OBS_SCHEMA_VERSION,
        })

    def emit(self, payload: dict) -> None:
        """Write one event line and flush it."""
        if self._fh.closed:
            return
        self._fh.write(json.dumps(payload, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        self.emit({
            "type": "event",
            "name": name,
            "ts": time.time(),
            "pid": os.getpid(),
            "attrs": attrs,
        })

    def metrics(self, registry: _metrics.MetricsRegistry | None = None) -> None:
        """Snapshot a registry (default: the global one) into the log."""
        snap = (registry if registry is not None else _metrics.REGISTRY).snapshot()
        self.emit({"type": "metrics", "ts": time.time(), "pid": os.getpid(), **snap})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


_recorder: NullRecorder | JsonlRecorder | None = None


def recorder() -> NullRecorder | JsonlRecorder:
    """The process recorder, resolving ``REPRO_TRACE`` on first use."""
    global _recorder
    if _recorder is None:
        path = os.environ.get(TRACE_ENV)
        _recorder = JsonlRecorder(path) if path else NULL_RECORDER
    return _recorder


def configure(path: str | os.PathLike | None) -> NullRecorder | JsonlRecorder:
    """Programmatic opt-in: record to ``path`` (None disables).

    Closes any previously configured JSONL recorder first.
    """
    global _recorder
    if _recorder is not None and _recorder.enabled:
        _recorder.close()
    _recorder = JsonlRecorder(path) if path else NULL_RECORDER
    return _recorder


def set_recorder(rec) -> NullRecorder | JsonlRecorder | None:
    """Install ``rec`` (None → re-resolve lazily); returns the previous one."""
    global _recorder
    previous = _recorder
    _recorder = rec
    return previous


def span(name: str, **attrs):
    """Open a span on the process recorder (no-op when disabled)."""
    return recorder().span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Emit a point event on the process recorder (no-op when disabled)."""
    recorder().event(name, **attrs)
