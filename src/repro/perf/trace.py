"""Scalable kernel-invocation traces.

Table III's workload is "a full ML tree search" on 15-taxon alignments
of 10K-4000K sites.  The kernel *mix* of such a search — how many
``newview``/``evaluate``/``derivativeSum``/``derivativeCore`` calls and
how many reduction points it performs — depends on the taxon count and
the search trajectory, but not (to first order) on the alignment width:
every kernel call just processes proportionally more sites.  The
reproduction exploits that: we run our real search once on a 15-taxon
alignment at a tractable width, record the counters, and replay the
trace at any width through the platform cost models.

(The paper makes the same separation implicitly: "number of taxa has no
influence on relative speedups ... we are exclusively testing parallel
performance", Sec. VI-A3.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "KernelTrace",
    "trace_from_search",
    "trace_from_profile",
    "trace_from_spans",
    "DEFAULT_TRACE",
]

KERNELS = ("newview", "evaluate", "derivative_sum", "derivative_core")


@dataclass(frozen=True)
class KernelTrace:
    """Kernel mix of one tree-search run, independent of alignment width.

    ``calls`` maps each of the paper's four kernels to its invocation
    count; ``reductions`` counts the scalar AllReduce points (one per
    ``evaluate`` and per ``derivativeCore`` batch in ExaML).

    ``measured_seconds`` / ``measured_bytes`` optionally carry per-kernel
    wall time and bytes moved as recorded by the dispatching backend's
    :class:`~repro.core.backends.KernelProfile` — measured quantities
    that :func:`repro.perf.costmodel.measured_costs` turns into
    calibration input for the analytic predictions.

    ``wave_summary`` optionally carries the levelized-schedule shape of
    the traced workload (a :meth:`repro.core.schedule.WaveStats.to_dict`
    payload: plans, waves, ops, max/mean width).  The
    wave structure — not just the call mix — is what the scheduling cost
    model (:func:`repro.perf.costmodel.wave_schedule_costs`) needs to
    separate serial depth from parallel width.
    """

    n_taxa: int
    traced_sites: int
    calls: dict[str, int]
    reductions: int
    description: str = ""
    measured_seconds: dict[str, float] | None = None
    measured_bytes: dict[str, int] | None = None
    wave_summary: dict | None = None

    def __post_init__(self) -> None:
        missing = [k for k in KERNELS if k not in self.calls]
        if missing:
            raise ValueError(f"trace missing kernels: {missing}")
        if any(v < 0 for v in self.calls.values()):
            raise ValueError("negative call counts")

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def to_json(self) -> str:
        payload = {
            "n_taxa": self.n_taxa,
            "traced_sites": self.traced_sites,
            "calls": self.calls,
            "reductions": self.reductions,
            "description": self.description,
        }
        if self.measured_seconds is not None:
            payload["measured_seconds"] = self.measured_seconds
        if self.measured_bytes is not None:
            payload["measured_bytes"] = self.measured_bytes
        if self.wave_summary is not None:
            payload["wave_summary"] = self.wave_summary
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "KernelTrace":
        d = json.loads(text)
        seconds = d.get("measured_seconds")
        nbytes = d.get("measured_bytes")
        return cls(
            n_taxa=d["n_taxa"],
            traced_sites=d["traced_sites"],
            calls={k: int(v) for k, v in d["calls"].items()},
            reductions=int(d["reductions"]),
            description=d.get("description", ""),
            measured_seconds=(
                {k: float(v) for k, v in seconds.items()}
                if seconds is not None
                else None
            ),
            measured_bytes=(
                {k: int(v) for k, v in nbytes.items()}
                if nbytes is not None
                else None
            ),
            wave_summary=d.get("wave_summary"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "KernelTrace":
        return cls.from_json(Path(path).read_text())


def trace_from_search(result) -> KernelTrace:
    """Extract a trace from a :class:`repro.search.SearchResult`.

    If the search engine dispatched through a profiling backend, the
    measured per-kernel wall times and traffic ride along in the trace's
    ``measured_*`` fields.
    """
    counters = result.counters
    seconds = None
    nbytes = None
    profile = getattr(result.engine, "profile", None)
    if profile is not None and getattr(profile, "seconds", None):
        seconds = profile.merged_seconds()
        nbytes = profile.merged_bytes()
    wave_stats = getattr(result.engine, "wave_stats", None)
    wave_summary = (
        wave_stats.to_dict() if wave_stats is not None and wave_stats.waves else None
    )
    return KernelTrace(
        n_taxa=result.tree.n_leaves,
        traced_sites=result.engine.patterns.n_patterns,
        calls=counters.merged(),
        reductions=counters.reductions,
        description="full ML tree search (parsimony start, model opt, lazy SPR)",
        measured_seconds=seconds,
        measured_bytes=nbytes,
        wave_summary=wave_summary,
    )


def trace_from_profile(
    profile, n_taxa: int, traced_sites: int, description: str = "",
    wave_stats=None,
) -> KernelTrace:
    """Build a trace directly from a backend's :class:`KernelProfile`.

    Unlike :func:`trace_from_search` this needs no search result — any
    profiled workload (EPA run, partitioned evaluation, benchmark loop)
    yields a replayable, *measured* kernel trace.

    .. note:: **Cumulative, not per-run.**  A
       :class:`~repro.core.backends.KernelProfile` (and likewise
       :class:`~repro.core.traversal.KernelCounters` and
       :class:`~repro.core.schedule.WaveStats`) accumulates across every
       workload dispatched through its backend since construction or the
       last explicit ``reset()``.  This function therefore reads the
       *cumulative* numbers: to trace a single run, call
       ``profile.reset()`` (or the engine-level ``reset_profile()``,
       which also zeroes counters and wave statistics) immediately
       before the workload, then build the trace immediately after.

    ``wave_stats`` (a :class:`repro.core.schedule.WaveStats`, e.g. an
    engine's ``wave_stats`` property) optionally attaches the levelized
    schedule shape — it follows the same cumulative semantics.
    """
    return KernelTrace(
        n_taxa=n_taxa,
        traced_sites=traced_sites,
        calls=profile.merged(),
        reductions=profile.reductions,
        description=description,
        measured_seconds=profile.merged_seconds(),
        measured_bytes=profile.merged_bytes(),
        wave_summary=(
            wave_stats.to_dict()
            if wave_stats is not None and wave_stats.waves
            else None
        ),
    )


def trace_from_spans(
    source, n_taxa: int, traced_sites: int, description: str = ""
) -> KernelTrace:
    """Collapse a recorded span tree into a *measured* :class:`KernelTrace`.

    The :mod:`repro.obs` bridge: any tracing session — a live
    :class:`~repro.obs.spans.Tracer` or a saved Chrome-trace payload
    (the dict :func:`repro.obs.summary.load_chrome` returns) — carries
    one ``kernel.<kind>`` span per PLF dispatch, each tagged with the
    bytes it moved.  Folding those spans yields the same four-kernel
    call mix, measured wall seconds, and traffic that
    :func:`trace_from_profile` reads from a
    :class:`~repro.core.backends.KernelProfile`, so a trace recorded
    yesterday feeds :func:`repro.perf.costmodel.measured_costs` exactly
    like a live profile does.  Reductions follow the
    :class:`~repro.core.traversal.KernelCounters` rule: one per
    ``evaluate`` and per ``derivative_core`` dispatch.

    The ``wave_summary`` is rebuilt from the recorded ``wave`` spans
    (count, op totals, max/mean width, summed wall seconds).

    .. warning:: Record the source trace with the **reference** or
       **compiled** backend.  The shadow backend dispatches every kernel
       twice (primary + reference), so its span stream double-counts
       calls relative to the engine's own counters.
    """
    # (kind value, duration seconds, bytes) rows
    kernel_rows: list[tuple[str, float, int]] = []
    wave_rows: list[tuple[int, float]] = []
    if isinstance(source, dict):  # Chrome payload: matched B/E pairs
        open_spans: dict[tuple, list] = {}
        for e in source.get("traceEvents", ()):
            ph, name = e.get("ph"), e.get("name", "")
            key = (e.get("pid", 0), e.get("tid", 0))
            if ph == "B":
                open_spans.setdefault(key, []).append(e)
            elif ph == "E":
                stack = open_spans.get(key)
                if not stack:
                    continue
                b = stack.pop()
                dur_s = (float(e["ts"]) - float(b["ts"])) / 1e6
                args = b.get("args") or {}
                if name.startswith("kernel."):
                    kernel_rows.append(
                        (name[len("kernel."):], dur_s,
                         int(args.get("bytes", 0)))
                    )
                elif name == "wave":
                    wave_rows.append((int(args.get("width", 0)), dur_s))
    else:  # live Tracer
        for rec in source.spans:
            args = rec.args or {}
            if rec.name.startswith("kernel."):
                kernel_rows.append(
                    (rec.name[len("kernel."):], rec.duration,
                     int(args.get("bytes", 0)))
                )
            elif rec.name == "wave":
                wave_rows.append((int(args.get("width", 0)), rec.duration))

    calls = {k: 0 for k in KERNELS}
    seconds = {k: 0.0 for k in KERNELS}
    nbytes = {k: 0 for k in KERNELS}
    reductions = 0
    for kind, dur_s, b in kernel_rows:
        key = "newview" if kind.startswith("newview") else kind
        if key not in calls:
            raise ValueError(f"unknown kernel span 'kernel.{kind}'")
        calls[key] += 1
        seconds[key] += dur_s
        nbytes[key] += b
        if key in ("evaluate", "derivative_core"):
            reductions += 1
    wave_summary = None
    if wave_rows:
        widths = [w for w, _ in wave_rows]
        wave_summary = {
            "plans": 0,  # plan membership is not span-visible
            "waves": len(wave_rows),
            "ops": sum(widths),
            "max_width": max(widths),
            "seconds": sum(s for _, s in wave_rows),
            "bytes_moved": sum(nbytes.values()),
            "kernel_mix": {},
        }
    return KernelTrace(
        n_taxa=n_taxa,
        traced_sites=traced_sites,
        calls=calls,
        reductions=reductions,
        description=description or "rebuilt from recorded spans",
        measured_seconds=seconds,
        measured_bytes=nbytes,
        wave_summary=wave_summary,
    )


#: Default workload: kernel mix recorded from this library's own full ML
#: tree search on a simulated 15-taxon GTR+Gamma alignment (seed 2014,
#: 1000 sites -> 820 patterns, SPR radii (5, 10)); the search recovered
#: the true topology (RF = 0).  Regenerate with
#: ``repro.harness.datasets.build_default_trace()``.
DEFAULT_TRACE = KernelTrace(
    n_taxa=15,
    traced_sites=820,
    calls={
        "newview": 10849,
        "evaluate": 1407,
        "derivative_sum": 1438,
        "derivative_core": 11186,
    },
    reductions=12593,
    description="full ML tree search (parsimony start, model opt, lazy SPR)",
)
