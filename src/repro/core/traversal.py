"""Traversal descriptors, the execution-plan IR, and kernel accounting.

ExaML replicates the tree-search state on every rank and drives the PLF
through *traversal descriptors* — ordered lists of ``newview``
operations that make a virtual root's two CLAs valid.  We keep the same
structure: the engine plans a traversal (only the stale directed nodes
``(node, toward_edge)``), executes it, and records every kernel
invocation in a :class:`KernelCounters` object.  An all-branch gradient
is the same IR: ``newview`` ops for both directions of every edge, then
one :class:`EdgeGradientOp` per branch.

On top of the flat op list sits the **execution-plan IR**: the
:func:`levelize` planner folds the list into dependency *waves*
(:class:`Wave`), where every directed CLA an op reads was produced by an
earlier wave (or was already valid) and the ops within one wave are
mutually independent.  The plan is the unit of optimisation for wave
dispatch (:meth:`LikelihoodEngine.run_wave`), fork-join wave pickup, and
distributed sync placement — BEAGLE's ``updatePartials`` operation queue
generalised into a levelized schedule.

The counters are the bridge to the performance model: a full tree search
run yields, per kernel, the number of calls and the number of
(site-pattern x call) units processed, which
:class:`repro.perf.trace.KernelTrace` scales to the paper's dataset
sizes and feeds to the platform cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "KernelKind",
    "COMBINE_KINDS",
    "MERGED_KERNEL_KEYS",
    "PAPER_KERNEL_KEYS",
    "merged_kernel_key",
    "NewviewOp",
    "EdgeGradientOp",
    "Wave",
    "ExecutionPlan",
    "levelize",
    "KernelCounters",
]


class KernelKind(str, Enum):
    """The PLF kernels of Section IV, split by ``newview`` tip cases.

    RAxML implements (and the paper vectorises) distinct code paths for
    the tip-tip / tip-inner / inner-inner ``newview`` cases; we count
    them separately because their arithmetic intensity differs, then the
    cost model aggregates them back into the paper's four kernels.

    ``EDGE_GRADIENT`` fuses ``derivativeSum`` + ``derivativeCore`` for
    one branch of the one-traversal all-branch gradient.
    """

    NEWVIEW_TIP_TIP = "newview_tip_tip"
    NEWVIEW_TIP_INNER = "newview_tip_inner"
    NEWVIEW_INNER_INNER = "newview_inner_inner"
    EVALUATE = "evaluate"
    DERIVATIVE_SUM = "derivative_sum"
    DERIVATIVE_CORE = "derivative_core"
    EDGE_GRADIENT = "edge_gradient"

    @property
    def newview_like(self) -> bool:
        return self.value.startswith("newview")


#: The ``newview`` kernel by the number of tip operands.
COMBINE_KINDS = {
    2: KernelKind.NEWVIEW_TIP_TIP,
    1: KernelKind.NEWVIEW_TIP_INNER,
    0: KernelKind.NEWVIEW_INNER_INNER,
}


#: Aggregated kernel names: the paper's four plus the fused per-edge
#: gradient.  Consumers that only understand the paper's kernels (cost
#: model calibration, trace replay) keep iterating their own four-name
#: tuple and are unaffected.
MERGED_KERNEL_KEYS = (
    "newview",
    "evaluate",
    "derivative_sum",
    "derivative_core",
    "edge_gradient",
)

#: The paper's original kernel families.  Aggregated counter dicts are
#: seeded with exactly these; ``edge_gradient`` appears only once
#: observed, so workloads that never run a gradient sweep report the
#: same keys they always did.
PAPER_KERNEL_KEYS = MERGED_KERNEL_KEYS[:4]


def merged_kernel_key(kind: KernelKind) -> str:
    """Collapse a :class:`KernelKind` to its aggregated counter name."""
    return "newview" if kind.newview_like else kind.value


@dataclass(frozen=True)
class NewviewOp:
    """One planned CLA update: the CLA of ``node`` directed toward
    ``up_edge``, from its two other neighbours across their edges.

    ``sid`` is the interned id of the directed subtree the op computes,
    which validates the result; ``None`` recomputes a CLA whose id is
    already current (one the store had dropped).
    """

    node: int
    up_edge: int
    child1: int
    edge1: int
    child2: int
    edge2: int
    kind: KernelKind
    sid: int | None = None


@dataclass(frozen=True)
class EdgeGradientOp:
    """One planned per-edge derivative: lnL', lnL'' for ``edge``.

    The sum buffer is the element-wise product of the two views of the
    branch, the CLAs (or tips) of ``u`` and ``v`` each directed toward
    ``edge``.
    """

    edge: int
    u: int
    v: int
    kind: KernelKind = KernelKind.EDGE_GRADIENT


@dataclass(frozen=True)
class Wave:
    """One dependency level of an :class:`ExecutionPlan`.

    Every op in a wave reads only CLAs produced by *earlier* waves (or
    tips / already-valid CLAs), so the ops are mutually independent and
    may be dispatched as one batched kernel call, farmed out to
    fork-join workers, or executed in any order.  Waves hold
    :class:`NewviewOp`; a gradient plan's waves also hold the
    :class:`EdgeGradientOp` of every branch whose two directed CLAs an
    earlier wave produced.
    """

    index: int
    ops: tuple

    @property
    def width(self) -> int:
        return len(self.ops)

    def kernel_mix(self) -> dict[KernelKind, int]:
        mix: dict[KernelKind, int] = {}
        for op in self.ops:
            mix[op.kind] = mix.get(op.kind, 0) + 1
        return mix

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class ExecutionPlan:
    """A levelized schedule: the IR between planning and dispatch.

    Produced by :func:`levelize` from a planned op list; consumed by
    :meth:`repro.core.engine.LikelihoodEngine.execute_plan`.  ``depth``
    (number of waves) bounds the serial critical path; ``max_width``
    bounds the exploitable thread parallelism; both feed the analytic
    cost model's serial-depth vs. parallel-width split.
    """

    root_edge: int
    waves: list[Wave] = field(default_factory=list)

    @property
    def n_ops(self) -> int:
        return sum(len(w) for w in self.waves)

    @property
    def depth(self) -> int:
        return len(self.waves)

    @property
    def max_width(self) -> int:
        return max((w.width for w in self.waves), default=0)

    @property
    def mean_width(self) -> float:
        return self.n_ops / self.depth if self.waves else 0.0

    def kernel_mix(self) -> dict[KernelKind, int]:
        mix: dict[KernelKind, int] = {}
        for wave in self.waves:
            for kind, n in wave.kernel_mix().items():
                mix[kind] = mix.get(kind, 0) + n
        return mix

    def iter_ops(self):
        """Flat op iteration in a valid (topological) execution order."""
        for wave in self.waves:
            yield from wave.ops

    def __len__(self) -> int:
        return self.n_ops


def levelize(root_edge: int, ops: list) -> ExecutionPlan:
    """Fold planned ops for ``root_edge`` into waves.

    An op's *level* is one past the highest level of the two directed
    CLAs ``(node, toward_edge)`` it reads, where CLAs not produced by
    these ops (tips, or CLAs that are already valid) sit at level
    ``-1``.  Ops are listed so that every CLA is produced before it is
    read, so a single forward pass assigns final levels; ops sharing a
    level are mutually independent by construction and become one
    :class:`Wave`.
    """

    level: dict[tuple[int, int], int] = {}
    buckets: dict[int, list] = {}
    for op in ops:
        if type(op) is NewviewOp:
            lvl = max(
                level.get((op.child1, op.edge1), -1),
                level.get((op.child2, op.edge2), -1),
            ) + 1
            level[op.node, op.up_edge] = lvl
        else:
            lvl = max(
                level.get((op.u, op.edge), -1), level.get((op.v, op.edge), -1)
            ) + 1
        buckets.setdefault(lvl, []).append(op)
    waves = [
        Wave(index=i, ops=tuple(buckets[lvl]))
        for i, lvl in enumerate(sorted(buckets))
    ]
    return ExecutionPlan(root_edge=root_edge, waves=waves)


@dataclass
class KernelCounters:
    """Running totals of kernel invocations and processed site units.

    ``calls[k]`` counts invocations of kernel ``k``; ``site_units[k]``
    counts ``calls x n_patterns`` work units, the quantity per-site cost
    models multiply by their per-site time.  ``reductions`` counts the
    scalar all-reduce points (one per ``evaluate``, one per
    ``derivativeCore`` batch) that dominate distributed overhead in
    Sec. VI-B3.
    """

    calls: dict[KernelKind, int] = field(default_factory=dict)
    site_units: dict[KernelKind, int] = field(default_factory=dict)
    reductions: int = 0

    def record(self, kind: KernelKind, n_patterns: int, calls: int = 1) -> None:
        self.calls[kind] = self.calls.get(kind, 0) + calls
        self.site_units[kind] = self.site_units.get(kind, 0) + calls * n_patterns
        if kind in (KernelKind.EVALUATE, KernelKind.DERIVATIVE_CORE):
            self.reductions += calls

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def merged(self) -> dict[str, int]:
        """Calls aggregated to the :data:`MERGED_KERNEL_KEYS` names.

        Seeded with the paper's four families; "edge_gradient" appears
        only once a gradient sweep has run.
        """
        out = {key: 0 for key in PAPER_KERNEL_KEYS}
        for kind, n in self.calls.items():
            key = merged_kernel_key(kind)
            out[key] = out.get(key, 0) + n
        return out

    def merged_site_units(self) -> dict[str, int]:
        """Site units aggregated like :meth:`merged`."""
        out = {key: 0 for key in PAPER_KERNEL_KEYS}
        for kind, n in self.site_units.items():
            key = merged_kernel_key(kind)
            out[key] = out.get(key, 0) + n
        return out

    def copy(self) -> "KernelCounters":
        c = KernelCounters()
        c.calls = dict(self.calls)
        c.site_units = dict(self.site_units)
        c.reductions = self.reductions
        return c

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate ``other``'s totals into this object (in place).

        Used to fold one backend's profile into another (a
        :class:`~repro.core.backends.KernelProfile` is a counter set);
        callers are responsible for not merging the same source twice.
        (Sliced parallel engines merge each worker's one backend profile
        once — ``repro.parallel.substrate.Substrate.merged_profile`` —
        and never sum ``calls``: see
        ``repro.parallel.substrate.Substrate.counters``.)
        """
        for kind, n in other.calls.items():
            self.calls[kind] = self.calls.get(kind, 0) + n
        for kind, n in other.site_units.items():
            self.site_units[kind] = self.site_units.get(kind, 0) + n
        self.reductions += other.reductions

    def reset(self) -> None:
        """Zero all totals.

        Counters are **cumulative across runs** by default: repeated
        ``run()`` / ``log_likelihood()`` calls on the same engine keep
        adding to the same object.  Call ``reset()`` (or
        ``engine.reset_profile()``) between runs when you need
        per-run numbers, e.g. before building a per-run
        :class:`repro.perf.trace.KernelTrace`.
        """
        self.calls.clear()
        self.site_units.clear()
        self.reductions = 0

    def diff(self, earlier: "KernelCounters") -> "KernelCounters":
        """Counters accumulated since ``earlier`` (a prior :meth:`copy`)."""
        c = KernelCounters()
        keys = set(self.calls) | set(earlier.calls)
        c.calls = {
            k: self.calls.get(k, 0) - earlier.calls.get(k, 0)
            for k in keys
            if self.calls.get(k, 0) != earlier.calls.get(k, 0)
        }
        keys = set(self.site_units) | set(earlier.site_units)
        c.site_units = {
            k: self.site_units.get(k, 0) - earlier.site_units.get(k, 0)
            for k in keys
            if self.site_units.get(k, 0) != earlier.site_units.get(k, 0)
        }
        c.reductions = self.reductions - earlier.reductions
        return c
