"""Low-overhead span tracer: nestable timed scopes on named tracks.

The paper's whole argument is a set of *timelines*: per-kernel wall
times (Fig. 3), end-to-end search decompositions (Table III), AllReduce
latencies and wave-boundary costs (Fig. 4).  This module records such
timelines from the live system: a :class:`Tracer` accumulates completed
:class:`SpanRecord` intervals (begin/end wall-clock pairs with free-form
attributes) and point-in-time :class:`InstantRecord` markers, each tagged
with a *track* — the lane it renders on, mapped to simulated threads and
MPI ranks by the parallel drivers.

Three usage styles, all funnelled through the same module-level gate:

* context manager — ``with span("spr_round", radius=5): ...``
* decorator — ``@traced("model_opt")`` on any function
* fast path — ``add_complete(name, t0, t1, ...)`` for code that already
  measured its own interval (the kernel dispatch seam), costing one
  flag check and one list append per event.

**Zero cost when disabled.**  Tracing is off by default; every entry
point first reads the module-level :data:`ENABLED` flag and returns a
shared no-op singleton without allocating a span object.  The residual
per-dispatch cost is a single attribute load and branch — a tier-1
quality gate (``test_live_disabled_probe_is_below_gate``) holds it
below 2% of kernel dispatch time.

Enable with :func:`enable` (library), ``--trace out.json`` on
``repro search``/``repro place``, or the ``REPRO_TRACE=/path.json``
environment variable (CLI-wide); export via :mod:`repro.obs.export`.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "TRACE_ENV",
    "ENABLED",
    "SpanRecord",
    "InstantRecord",
    "Tracer",
    "enable",
    "disable",
    "is_enabled",
    "get_tracer",
    "span",
    "instant",
    "add_complete",
    "track_scope",
    "traced",
    "env_trace_path",
    "current_span_stack",
]

#: Environment variable naming the Chrome-trace output path; when set,
#: the CLI enables tracing for any subcommand and writes there on exit.
TRACE_ENV = "REPRO_TRACE"

#: Module-level master switch.  Instrumented call sites check this flag
#: (via :func:`is_enabled` or directly) before doing *any* work; while
#: it is ``False`` no span object is ever allocated.
ENABLED: bool = False

#: The track new records land on when no :func:`track_scope` is active.
DEFAULT_TRACK = "main"


@dataclass(frozen=True)
class SpanRecord:
    """One completed timed interval on a track.

    ``t_start``/``t_end`` are ``time.perf_counter`` seconds; ``seq`` is
    the tracer-wide append index, which makes sorting stable and ties
    deterministic.  Parent/child structure is *implied* by interval
    containment within a track (spans produced by nested context
    managers always nest properly, because the child exits first).
    """

    name: str
    track: str
    t_start: float
    t_end: float
    args: dict[str, Any] | None
    seq: int

    @property
    def duration(self) -> float:
        """Span length in seconds (never negative for recorded spans)."""
        return self.t_end - self.t_start


@dataclass(frozen=True)
class InstantRecord:
    """A point-in-time marker (barrier, AllReduce, eviction, progress)."""

    name: str
    track: str
    ts: float
    args: dict[str, Any] | None
    seq: int


#: Per-thread stacks of the *currently open* context-manager spans,
#: keyed by ``threading.get_ident()``.  Maintained only while tracing is
#: on (``_LiveSpan`` objects only exist then) and read by the sampling
#: profiler (:mod:`repro.obs.profiler`) to attribute wall-clock samples
#: to the innermost instrumented scope.
_OPEN_STACKS: dict[int, list[str]] = {}


def current_span_stack(thread_id: int | None = None) -> tuple[str, ...]:
    """Names of the open context-manager spans of one thread, outermost
    first (empty while tracing is off or nothing is open).

    The pre-measured ``add_complete`` fast path never *opens* a span, so
    kernel-dispatch intervals do not appear here — by design: the
    sampling profiler uses this stack to attribute time *between* the
    instrumented spans.
    """
    if thread_id is None:
        thread_id = threading.get_ident()
    return tuple(_OPEN_STACKS.get(thread_id, ()))


class _LiveSpan:
    """Context manager recording one span into a tracer on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_t0", "_stack")

    def __init__(self, tracer: "Tracer", name: str, args: dict | None) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_LiveSpan":
        stack = _OPEN_STACKS.setdefault(threading.get_ident(), [])
        stack.append(self._name)
        self._stack = stack
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        if self._stack and self._stack[-1] == self._name:
            self._stack.pop()
        self._tracer.add_complete(
            self._name, self._t0, t1, args=self._args
        )


class _NullSpan:
    """Shared no-op stand-in returned by every gate while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _TrackScope:
    """Context manager switching the tracer's current track."""

    __slots__ = ("_tracer", "_track", "_prev")

    def __init__(self, tracer: "Tracer", track: str) -> None:
        self._tracer = tracer
        self._track = track

    def __enter__(self) -> "_TrackScope":
        self._prev = self._tracer.current_track
        self._tracer.current_track = self._track
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.current_track = self._prev


class Tracer:
    """Accumulates span and instant records for one tracing session.

    A tracer is cheap, append-only state: two record lists, a sequence
    counter, and the current track name.  The simulated-parallel drivers
    switch tracks around each worker's wave (``track_scope("rank-3")``)
    so a single-process simulation still renders as a multi-lane
    timeline, the way a real hybrid run would.
    """

    def __init__(self, description: str = "") -> None:
        self.description = description
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.current_track: str = DEFAULT_TRACK
        self.created_at = time.perf_counter()
        self._seq = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **args: Any) -> _LiveSpan:
        """A context manager timing one nested scope on the current track."""
        return _LiveSpan(self, name, args or None)

    def add_complete(
        self,
        name: str,
        t_start: float,
        t_end: float,
        args: dict[str, Any] | None = None,
        track: str | None = None,
    ) -> None:
        """Record an already-measured interval (the kernel fast path)."""
        self.spans.append(
            SpanRecord(
                name=name,
                track=track if track is not None else self.current_track,
                t_start=t_start,
                t_end=max(t_end, t_start),
                args=args,
                seq=self._seq,
            )
        )
        self._seq += 1

    def instant(
        self, name: str, args: dict[str, Any] | None = None,
        track: str | None = None, ts: float | None = None,
    ) -> None:
        """Record a point event (barrier, AllReduce, eviction, progress)."""
        self.instants.append(
            InstantRecord(
                name=name,
                track=track if track is not None else self.current_track,
                ts=ts if ts is not None else time.perf_counter(),
                args=args,
                seq=self._seq,
            )
        )
        self._seq += 1

    def track_scope(self, track: str) -> _TrackScope:
        """Switch the current track for the duration of a ``with`` block."""
        return _TrackScope(self, track)

    # -- housekeeping --------------------------------------------------
    @property
    def n_events(self) -> int:
        """Total recorded events (spans + instants)."""
        return len(self.spans) + len(self.instants)

    def tracks(self) -> list[str]:
        """Track names in order of first appearance."""
        seen: dict[str, None] = {}
        for rec in sorted(
            [*self.spans, *self.instants], key=lambda r: r.seq
        ):
            seen.setdefault(rec.track, None)
        return list(seen)

    def clear(self) -> None:
        """Drop all recorded events (the session stays enabled)."""
        self.spans.clear()
        self.instants.clear()
        self._seq = 0


# ----------------------------------------------------------------------
# module-level gate
# ----------------------------------------------------------------------
_TRACER: Tracer | None = None


def enable(description: str = "") -> Tracer:
    """Turn tracing on with a fresh :class:`Tracer`; returns it.

    Re-enabling replaces the previous tracer, so every session starts
    from an empty event list.
    """
    global ENABLED, _TRACER
    _TRACER = Tracer(description=description)
    ENABLED = True
    return _TRACER


def disable() -> None:
    """Turn tracing off; the last tracer stays readable via :func:`get_tracer`."""
    global ENABLED
    ENABLED = False


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return ENABLED


def get_tracer() -> Tracer:
    """The active (or most recent) tracer; raises if none was ever enabled."""
    if _TRACER is None:
        raise RuntimeError(
            "tracing was never enabled; call repro.obs.enable() first"
        )
    return _TRACER


def span(name: str, **args: Any):
    """Gate entry point: a live span when enabled, a shared no-op otherwise."""
    if not ENABLED:
        return _NULL_SPAN
    return _TRACER.span(name, **args)


def instant(name: str, **args: Any) -> None:
    """Gate entry point for point events; no-op while disabled."""
    if ENABLED:
        _TRACER.instant(name, args or None)


def add_complete(
    name: str, t_start: float, t_end: float,
    args: dict[str, Any] | None = None, track: str | None = None,
) -> None:
    """Gate entry point for pre-measured intervals; no-op while disabled."""
    if ENABLED:
        _TRACER.add_complete(name, t_start, t_end, args=args, track=track)


def track_scope(track: str):
    """Gate entry point for track switching; a no-op scope while disabled."""
    if not ENABLED:
        return _NULL_SPAN
    return _TRACER.track_scope(track)


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator tracing every call of a function as one span.

    ``@traced()`` uses the function's qualified name; keyword attributes
    are attached to every recorded span.  While tracing is disabled the
    wrapper adds one flag check per call.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not ENABLED:
                return fn(*a, **kw)
            with _TRACER.span(label, **attrs):
                return fn(*a, **kw)

        return wrapper

    return decorate


def env_trace_path() -> str | None:
    """The :data:`TRACE_ENV` output path, or ``None`` when unset/empty."""
    path = os.environ.get(TRACE_ENV, "").strip()
    return path or None
