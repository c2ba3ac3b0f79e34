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
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "KernelTrace",
    "trace_from_search",
    "trace_from_profile",
    "DEFAULT_TRACE",
]

KERNELS = ("newview", "evaluate", "derivative_sum", "derivative_core")


@dataclass(frozen=True)
class KernelTrace:
    """Kernel mix of one tree-search run, independent of alignment width.

    ``calls`` maps each of the paper's four kernels to its invocation
    count; ``reductions`` counts the scalar AllReduce points (one per
    ``evaluate`` and per ``derivativeCore`` batch in ExaML).

    ``measured_seconds`` optionally carries per-kernel wall time as
    recorded by the dispatching backend's
    :class:`~repro.core.backends.KernelProfile` — the measured
    calibration input for the analytic predictions.  :meth:`from_json`
    ignores keys beyond these fields, so older saved traces still load.
    """

    n_taxa: int
    traced_sites: int
    calls: dict[str, int]
    reductions: int
    description: str = ""
    measured_seconds: dict[str, float] | None = None

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
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "KernelTrace":
        d = json.loads(text)
        seconds = d.get("measured_seconds")
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
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "KernelTrace":
        return cls.from_json(Path(path).read_text())


def trace_from_search(result) -> KernelTrace:
    """Extract a trace from a :class:`repro.search.SearchResult`.

    If the search engine dispatched through a profiling backend, the
    measured per-kernel wall times ride along in ``measured_seconds``.
    """
    counters = result.counters
    seconds = None
    profile = getattr(result.engine, "profile", None)
    if profile is not None and getattr(profile, "seconds", None):
        seconds = profile.merged_seconds()
    return KernelTrace(
        n_taxa=result.tree.n_leaves,
        traced_sites=result.engine.patterns.n_patterns,
        calls=counters.merged(),
        reductions=counters.reductions,
        description="full ML tree search (parsimony start, model opt, lazy SPR)",
        measured_seconds=seconds,
    )


def trace_from_profile(
    profile, n_taxa: int, traced_sites: int, description: str = ""
) -> KernelTrace:
    """Build a trace directly from a backend's :class:`KernelProfile`.

    Unlike :func:`trace_from_search` this needs no search result — any
    profiled workload (EPA run, partitioned evaluation, benchmark loop)
    yields a replayable, *measured* kernel trace.

    .. note:: **Cumulative, not per-run.**  A
       :class:`~repro.core.backends.KernelProfile` (and likewise
       :class:`~repro.core.traversal.KernelCounters`) accumulates across every
       workload dispatched through its backend since construction or the
       last explicit ``reset()``.  This function therefore reads the
       *cumulative* numbers: to trace a single run, call
       ``profile.reset()`` (or the engine-level ``reset_profile()``,
       which also zeroes the engine's counters) immediately before the
       workload, then build the trace immediately after.
    """
    return KernelTrace(
        n_taxa=n_taxa,
        traced_sites=traced_sites,
        calls=profile.merged(),
        reductions=profile.reductions,
        description=description,
        measured_seconds=profile.merged_seconds(),
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
