"""Span-based tracing: where a sweep's wall-clock actually goes.

A :class:`Span` is one timed region with a name, optional attributes,
and a parent (spans nest per thread); a :class:`Tracer` collects closed
spans as flat event dicts shaped exactly like the runtime's telemetry
events (``event``/``ts`` plus payload fields), so a trace file and a
:class:`~repro.runtime.telemetry.JsonlSink` event log can be
concatenated and sorted by ``ts`` into one coherent timeline.

Tracing is **off by default** and zero-cost when off: the instrumented
hot paths call :func:`trace_span`, which returns a shared no-op context
manager after a single env check.  Instrumentation never consumes RNG
streams and never reaches a cache key, so enabling tracing cannot
change a single result bit (``tests/test_observability.py`` proves
this).

Enabling::

    SWORDFISH_TRACE=1                 # collect spans in memory
    SWORDFISH_TRACE=trace.jsonl       # ...and append them to this file
    SWORDFISH_TRACE=1 SWORDFISH_TRACE_FILE=trace.jsonl   # equivalent

Spans buffer in memory and flush to the file in batches (and at
process exit); worker processes forked mid-run detect the pid change,
drop the inherited buffer, and append to the same file — lines are
written whole, so a multi-process trace file stays parseable.  Analyze
one with ``python -m repro.observability report trace.jsonl``.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any

from .clock import wall_now

__all__ = [
    "ENV_TRACE",
    "ENV_TRACE_FILE",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "Tracer",
    "get_tracer",
    "trace_span",
    "tracing_enabled",
]

ENV_TRACE = "SWORDFISH_TRACE"
ENV_TRACE_FILE = "SWORDFISH_TRACE_FILE"

#: Env values that mean "disabled" (anything else enables tracing).
_FALSEY = frozenset({"", "0", "false", "off", "no"})

#: ``os.environ`` keeps its values in a plain dict under encoded keys,
#: so one ``dict.get`` reads ``SWORDFISH_TRACE``.  ``os.environ.get``
#: goes through ``Mapping.get``, which raises and catches ``KeyError``
#: whenever the variable is unset: about 1.5 µs per hot-path check.
_TRACE_KEY = os.environ.encodekey(ENV_TRACE)

#: Raw value of a tracer that has not read the environment yet.
_UNREAD = object()

#: Buffered spans before an automatic file flush.
FLUSH_EVERY = 512

#: In-memory cap when no trace file is configured; oldest spans are
#: dropped (and counted) rather than growing without bound.
BUFFER_CAP = 100_000


def _is_pathlike(raw: str) -> bool:
    """An env value that names a file rather than a boolean switch."""
    return ("/" in raw or "\\" in raw or raw.endswith(".jsonl")
            or raw.endswith(".json"))


class NullSpan:
    """Shared no-op stand-in returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Span:
    """One timed region; use as a context manager via ``tracer.span``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start_ts",
                 "duration_s", "_tracer", "_start_perf")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self.span_id = ""
        self.parent_id = ""
        self.start_ts = 0.0
        self.duration_s = 0.0
        self._start_perf = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (scalars only survive export)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)
        return False


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Thread-safe span collector with lazy env-driven enablement.

    ``enabled``/``path`` re-read :data:`ENV_TRACE` on access (cached on
    the raw value), so tests and CLIs can toggle tracing through the
    environment without rebuilding the tracer; explicit constructor
    arguments pin them instead (used by unit tests).
    """

    def __init__(self, enabled: bool | None = None,
                 path: str | Path | None = None):
        self._forced_enabled = enabled
        self._forced_path = str(path) if path is not None else None
        self._env_raw: object = _UNREAD
        self._env_enabled = False
        self._env_path: str | None = None
        # Re-entrant: the flush path re-reads `path` (and thus may
        # refresh the env cache) while already holding the lock.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._buffer: list[dict] = []
        self._fh = None
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self.dropped = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _refresh_env(self) -> None:
        """Re-derive the cached flag and path from the environment."""
        with self._lock:
            raw = os.environ._data.get(_TRACE_KEY)
            if raw is self._env_raw:   # double-checked under the lock
                return
            value = "" if raw is None else os.environ.decodevalue(raw)
            value = value.strip()
            self._env_enabled = value.lower() not in _FALSEY
            if self._env_enabled and _is_pathlike(value):
                self._env_path = value
            else:
                self._env_path = (os.environ.get(ENV_TRACE_FILE, "").strip()
                                  or None)
            # Published last: readers that see the new raw value also
            # see the matching enabled/path pair.
            self._env_raw = raw

    @property
    def enabled(self) -> bool:
        if self._forced_enabled is not None:
            return self._forced_enabled
        # Lock-free fast path, run on every VMM: one dict lookup and an
        # identity compare against the value the cached flag came from.
        if os.environ._data.get(_TRACE_KEY) is not self._env_raw:
            self._refresh_env()
        return self._env_enabled

    @property
    def path(self) -> str | None:
        if self._forced_path is not None:
            return self._forced_path
        if os.environ._data.get(_TRACE_KEY) is not self._env_raw:
            self._refresh_env()
        return self._env_path

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span | NullSpan:
        """A context-managed span, or the shared no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ensure_process(self) -> None:
        """After a fork the child must not replay the parent's state."""
        if os.getpid() == self._pid:   # unlocked fast path (hot)
            return
        with self._lock:
            if os.getpid() == self._pid:
                return
            self._buffer = []
            self._fh = None
            self._local = threading.local()
            self._ids = itertools.count(1)
            self.dropped = 0
            self._pid = os.getpid()    # published last (see above)

    def _open(self, span: Span) -> None:
        self._ensure_process()
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else ""
        span.span_id = f"{self._pid:x}-{next(self._ids):x}"
        stack.append(span)
        span.start_ts = wall_now()
        span._start_perf = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.duration_s = time.perf_counter() - span._start_perf
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:          # tolerate out-of-order exits
            stack.remove(span)
        self._record(span)

    def _record(self, span: Span) -> None:
        event = {"event": "span", "name": span.name, "span": span.span_id,
                 "parent": span.parent_id, "ts": round(span.start_ts, 6),
                 "dur_s": round(span.duration_s, 9), "pid": self._pid,
                 "thread": threading.current_thread().name}
        for key, value in span.attrs.items():
            event.setdefault(key, _scalar(value))
        with self._lock:
            self._buffer.append(event)
            if self.path is not None:
                if len(self._buffer) >= FLUSH_EVERY:
                    self._flush_locked()
            elif len(self._buffer) > BUFFER_CAP:
                overflow = len(self._buffer) - BUFFER_CAP
                del self._buffer[:overflow]
                self.dropped += overflow

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _flush_locked(self) -> None:
        path = self.path
        if path is None or not self._buffer:
            return
        if self._fh is None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._fh = target.open("a", encoding="utf-8")
        lines = "".join(json.dumps(event, sort_keys=True, default=str) + "\n"
                        for event in self._buffer)
        self._buffer.clear()
        self._fh.write(lines)
        self._fh.flush()

    def flush(self) -> None:
        """Write buffered spans to the trace file (no-op without one)."""
        self._ensure_process()
        with self._lock:
            self._flush_locked()

    def drain(self) -> list[dict]:
        """Return and clear the in-memory span events (for tests)."""
        with self._lock:
            events, self._buffer = self._buffer, []
        return events

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            if self._fh is not None:
                self._fh.close()
                self._fh = None


_TRACER = Tracer()
atexit.register(_TRACER.flush)


def get_tracer() -> Tracer:
    """The process-wide tracer instrumented code reports into."""
    return _TRACER


def tracing_enabled() -> bool:
    """Cheap hot-path check: is ``SWORDFISH_TRACE`` on?

    One dict lookup and an identity compare against the value the
    cached flag came from; a set or cleared variable takes effect at the
    next call.
    """
    return _TRACER.enabled


def trace_span(name: str, **attrs: Any) -> Span | NullSpan:
    """Open a span on the global tracer (no-op when tracing is off)."""
    return _TRACER.span(name, **attrs)
