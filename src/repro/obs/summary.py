"""Saved-trace analysis: validation and summarisation for ``repro trace``.

Operates on a Chrome ``trace_event`` JSON payload (the on-disk format
produced by :mod:`repro.obs.export`), *not* on a live tracer — so any
trace a user saved yesterday can be validated and summarised today.

:func:`validate_chrome` checks the structural invariants Perfetto
relies on: globally sorted timestamps, per-track matched ``B``/``E``
pairs with LIFO name discipline, non-negative implied durations.
:func:`summarize_chrome` reduces the event stream to a
:class:`TraceSummary`: per-span-name totals with *self* time (the
flamegraph quantity), per-kernel duration statistics bucketed on a
fixed log scale, the wave timeline, and instant-event counts
(AllReduces, barriers, CLA recycling).  :func:`render_summary` prints
it the way ``repro trace`` shows it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import log_buckets

__all__ = [
    "SpanAggregate",
    "TraceSummary",
    "load_chrome",
    "validate_chrome",
    "summarize_chrome",
    "render_summary",
    "render_hot_paths",
]

#: Prefix the kernel dispatch seam uses for its span names.
KERNEL_PREFIX = "kernel."


def load_chrome(path: str | Path) -> dict:
    """Read a Chrome-trace JSON file (object format) from disk."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    return payload


def _timed_events(payload: dict) -> list[dict]:
    """All non-metadata events, in file order."""
    return [e for e in payload["traceEvents"] if e.get("ph") != "M"]


def _track_names(payload: dict) -> dict[tuple[int, int], str]:
    """(pid, tid) -> human track name from thread_name metadata."""
    names: dict[tuple[int, int], str] = {}
    for e in payload["traceEvents"]:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[(e.get("pid", 0), e.get("tid", 0))] = e["args"]["name"]
    return names


def validate_chrome(payload: dict) -> list[str]:
    """Structural problems of a trace payload (empty list = valid).

    Checks, in order of severity:

    * every event has a phase, name, and numeric ``ts``;
    * timestamps are globally non-decreasing in file order (what the
      exporter guarantees and stream viewers rely on);
    * per ``(pid, tid)`` the ``B``/``E`` events match like brackets —
      every ``E`` closes the most recent open ``B`` *of the same name*,
      and no span stays open at the end of the stream.
    """
    problems: list[str] = []
    events = _timed_events(payload)
    last_ts = float("-inf")
    stacks: dict[tuple[int, int], list[tuple[str, float]]] = {}
    for i, e in enumerate(events):
        ph, name, ts = e.get("ph"), e.get("name"), e.get("ts")
        if ph not in ("B", "E", "i", "I", "X"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(name, str) or not name:
            problems.append(f"event {i}: missing name")
            continue
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if ts < last_ts:
            problems.append(
                f"event {i} ({ph} {name!r}): ts {ts} < previous {last_ts}"
            )
        last_ts = max(last_ts, ts)
        key = (e.get("pid", 0), e.get("tid", 0))
        stack = stacks.setdefault(key, [])
        if ph == "B":
            stack.append((name, ts))
        elif ph == "E":
            if not stack:
                problems.append(f"event {i}: E {name!r} with no open span")
                continue
            open_name, open_ts = stack.pop()
            if open_name != name:
                problems.append(
                    f"event {i}: E {name!r} closes B {open_name!r}"
                )
            if ts < open_ts:
                problems.append(
                    f"event {i}: span {name!r} ends ({ts}) before it "
                    f"begins ({open_ts})"
                )
    for key, stack in stacks.items():
        for name, _ts in stack:
            problems.append(f"track {key}: span {name!r} never closed")
    return problems


@dataclass
class SpanAggregate:
    """Accumulated statistics for one span name."""

    name: str
    count: int = 0
    total_us: float = 0.0
    self_us: float = 0.0
    min_us: float = float("inf")
    max_us: float = 0.0
    #: log-bucket counts over span durations (bounds in microseconds)
    bucket_bounds: tuple[float, ...] = field(
        default_factory=lambda: log_buckets(1e-1, 1e7, per_decade=1)
    )
    bucket_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bucket_bounds) + 1)

    def add(self, dur_us: float, self_us: float) -> None:
        """Fold one completed span into the aggregate."""
        self.count += 1
        self.total_us += dur_us
        self.self_us += self_us
        self.min_us = min(self.min_us, dur_us)
        self.max_us = max(self.max_us, dur_us)
        i = bisect_left(self.bucket_bounds, dur_us)
        self.bucket_counts[min(i, len(self.bucket_counts) - 1)] += 1


@dataclass
class TraceSummary:
    """The digest ``repro trace`` prints."""

    duration_us: float
    n_events: int
    tracks: list[str]
    spans: dict[str, SpanAggregate]
    instants: dict[str, int]
    #: (ts_us, dur_us, width) per executed wave, file order
    wave_timeline: list[tuple[float, float, int]]
    metrics: dict | None = None
    #: ``track;outer;inner`` collapsed stacks -> self-time microseconds
    folded: dict[str, float] = field(default_factory=dict)

    def hottest_paths(self, n: int = 10) -> list[tuple[str, float]]:
        """The ``n`` heaviest collapsed-stack paths by self time."""
        return sorted(self.folded.items(), key=lambda kv: -kv[1])[:n]

    def top_by_self_time(self, n: int = 15) -> list[SpanAggregate]:
        """Span aggregates ranked by total self time, descending."""
        return sorted(self.spans.values(), key=lambda a: -a.self_us)[:n]

    def kernel_aggregates(self) -> dict[str, SpanAggregate]:
        """Aggregates of the kernel-dispatch spans, keyed without prefix."""
        return {
            name[len(KERNEL_PREFIX):]: agg
            for name, agg in sorted(self.spans.items())
            if name.startswith(KERNEL_PREFIX)
        }


def summarize_chrome(payload: dict) -> TraceSummary:
    """Reduce a (valid) Chrome-trace payload to a :class:`TraceSummary`.

    Raises ``ValueError`` when the payload fails
    :func:`validate_chrome` — summarising a malformed trace would
    silently misattribute time.
    """
    problems = validate_chrome(payload)
    if problems:
        raise ValueError(
            "invalid trace: " + "; ".join(problems[:5])
            + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
        )
    events = _timed_events(payload)
    names = _track_names(payload)
    spans: dict[str, SpanAggregate] = {}
    instants: dict[str, int] = {}
    waves: list[tuple[float, float, int, bool]] = []
    folded: dict[str, float] = {}
    stacks: dict[tuple[int, int], list[list]] = {}
    t_min, t_max = float("inf"), float("-inf")
    for e in events:
        ts = float(e["ts"])
        t_min, t_max = min(t_min, ts), max(t_max, ts)
        key = (e.get("pid", 0), e.get("tid", 0))
        ph = e["ph"]
        if ph in ("i", "I"):
            instants[e["name"]] = instants.get(e["name"], 0) + 1
            continue
        stack = stacks.setdefault(key, [])
        if ph == "B":
            # [name, start, child time, args]
            stack.append([e["name"], ts, 0.0, e.get("args")])
        elif ph == "E":
            name, start, child_us, args = stack.pop()
            dur = ts - start
            self_us = max(0.0, dur - child_us)
            agg = spans.setdefault(name, SpanAggregate(name=name))
            agg.add(dur, self_us)
            path = ";".join(
                [names.get(key, f"track-{key[1]}"),
                 *[f[0] for f in stack], name]
            )
            folded[path] = folded.get(path, 0.0) + self_us
            if stack:
                stack[-1][2] += dur
            if name == "wave":
                args = args or {}
                waves.append((start, dur, int(args.get("width", 0))))
    duration = (t_max - t_min) if events else 0.0
    return TraceSummary(
        duration_us=duration,
        n_events=len(events),
        tracks=[names.get(k, f"track-{k[1]}") for k in sorted(stacks or names)],
        spans=spans,
        instants=instants,
        wave_timeline=waves,
        metrics=payload.get("otherData", {}).get("metrics"),
        folded=folded,
    )


def _fmt_us(us: float) -> str:
    """Human-scale duration (us/ms/s)."""
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.3f}ms"
    return f"{us:.1f}us"


def render_summary(summary: TraceSummary, top: int = 15) -> str:
    """Multi-section text report for one summarised trace."""
    lines: list[str] = []
    lines.append(
        f"trace: {summary.n_events} events over {_fmt_us(summary.duration_us)}"
        f" on {len(summary.tracks)} track(s): {', '.join(summary.tracks)}"
    )
    ranked = summary.top_by_self_time(top)
    if ranked:
        lines.append("")
        lines.append(f"top {len(ranked)} spans by self time:")
        w = max(len(a.name) for a in ranked)
        lines.append(
            f"  {'span':<{w}}  {'calls':>7}  {'self':>10}  {'total':>10}  "
            f"{'mean':>10}"
        )
        for a in ranked:
            lines.append(
                f"  {a.name:<{w}}  {a.count:>7}  {_fmt_us(a.self_us):>10}  "
                f"{_fmt_us(a.total_us):>10}  "
                f"{_fmt_us(a.total_us / a.count):>10}"
            )
    kernels = summary.kernel_aggregates()
    if kernels:
        lines.append("")
        lines.append("per-kernel dispatch durations (log-bucketed):")
        w = max(len(k) for k in kernels)
        for name, agg in kernels.items():
            # Render only the occupied bucket window.
            occupied = [
                (b, c)
                for b, c in zip(
                    [*agg.bucket_bounds, float("inf")], agg.bucket_counts
                )
                if c
            ]
            hist = " ".join(f"<={_fmt_us(b)}:{c}" for b, c in occupied)
            lines.append(
                f"  {name:<{w}}  x{agg.count:<6} "
                f"total {_fmt_us(agg.total_us):>10}  {hist}"
            )
    if summary.wave_timeline:
        shown = summary.wave_timeline[:top]
        lines.append("")
        lines.append(
            f"wave timeline ({len(summary.wave_timeline)} waves, "
            f"first {len(shown)} shown):"
        )
        lines.append(f"  {'t':>12}  {'dur':>10}  {'width':>5}")
        for ts, dur, width in shown:
            lines.append(
                f"  {_fmt_us(ts):>12}  {_fmt_us(dur):>10}  {width:>5}"
            )
    if summary.instants:
        lines.append("")
        lines.append("instant events:")
        for name, n in sorted(summary.instants.items()):
            lines.append(f"  {name}: {n}")
    if summary.metrics:
        lines.append("")
        lines.append(f"embedded metrics snapshot: {len(summary.metrics)} series")
    return "\n".join(lines) + "\n"


def render_hot_paths(summary: TraceSummary, n: int = 10) -> str:
    """The ``repro trace FILE --top N`` report: hottest folded paths.

    Renders the trace's collapsed-stack self times through the shared
    flamegraph formatter, so saved traces are inspectable without
    loading Perfetto.
    """
    from .export import render_folded

    head = (
        f"hottest {min(n, len(summary.folded))} of {len(summary.folded)} "
        f"folded stack paths (self time):\n"
    )
    return head + render_folded(summary.folded, top=n)
