"""Traversal descriptors, the execution-plan IR, and kernel accounting.

ExaML replicates the tree-search state on every rank and drives the PLF
through *traversal descriptors* — ordered lists of ``newview``
operations that make a virtual root's two CLAs valid.  We keep the same
structure: the engine plans a traversal (only the stale nodes), executes
it, and records every kernel invocation in a :class:`KernelCounters`
object.

On top of the flat op list sits the **execution-plan IR**: the
:func:`levelize` planner folds the list into dependency *waves*
(:class:`Wave`), where every op's inner children were produced by an
earlier wave (or were already valid) and the ops within one wave are
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
    "PreorderOp",
    "EdgeGradientOp",
    "Wave",
    "ExecutionPlan",
    "GradientPlan",
    "levelize",
    "levelize_upsweep",
    "KernelCounters",
]


class KernelKind(str, Enum):
    """The PLF kernels of Section IV, split by ``newview`` tip cases.

    RAxML implements (and the paper vectorises) distinct code paths for
    the tip-tip / tip-inner / inner-inner ``newview`` cases; we count
    them separately because their arithmetic intensity differs, then the
    cost model aggregates them back into the paper's four kernels.

    The ``PREORDER_*`` kinds are the up-sweep mirror of ``newview``: the
    pre-order partial toward an edge combines the partial across the
    parent edge with the sibling CLA — arithmetically the same kernel,
    counted separately because it belongs to the derivative phase.
    ``EDGE_GRADIENT`` fuses ``derivativeSum`` + ``derivativeCore`` for
    one branch of the one-traversal all-branch gradient.
    """

    NEWVIEW_TIP_TIP = "newview_tip_tip"
    NEWVIEW_TIP_INNER = "newview_tip_inner"
    NEWVIEW_INNER_INNER = "newview_inner_inner"
    EVALUATE = "evaluate"
    DERIVATIVE_SUM = "derivative_sum"
    DERIVATIVE_CORE = "derivative_core"
    PREORDER_TIP_TIP = "preorder_tip_tip"
    PREORDER_TIP_INNER = "preorder_tip_inner"
    PREORDER_INNER_INNER = "preorder_inner_inner"
    EDGE_GRADIENT = "edge_gradient"

    @property
    def newview_like(self) -> bool:
        return self.value.startswith("newview")

    @property
    def preorder_like(self) -> bool:
        return self.value.startswith("preorder")


#: The ``newview``-shaped kernel of a ``(family, tips)`` pair: family
#: ``"newview"`` or ``"preorder"``, ``tips`` the number of tip operands.
COMBINE_KINDS = {
    (family, tips): KernelKind(f"{family}_{case}")
    for family in ("newview", "preorder")
    for tips, case in ((2, "tip_tip"), (1, "tip_inner"), (0, "inner_inner"))
}


#: Aggregated kernel names: the paper's four plus the two up-sweep
#: families introduced by the bidirectional plan.  Consumers that only
#: understand the paper's kernels (cost model calibration, trace replay)
#: keep iterating their own four-name tuple and are unaffected.
MERGED_KERNEL_KEYS = (
    "newview",
    "evaluate",
    "derivative_sum",
    "derivative_core",
    "preorder",
    "edge_gradient",
)

#: The paper's original kernel families.  Aggregated counter dicts are
#: seeded with exactly these; the up-sweep families appear only once
#: observed, so workloads that never run a gradient sweep report the
#: same keys they always did.
PAPER_KERNEL_KEYS = MERGED_KERNEL_KEYS[:4]


def merged_kernel_key(kind: KernelKind) -> str:
    """Collapse a :class:`KernelKind` to its aggregated counter name."""
    if kind.newview_like:
        return "newview"
    if kind.preorder_like:
        return "preorder"
    return kind.value


@dataclass(frozen=True)
class NewviewOp:
    """One planned CLA update: parent from two children across two edges."""

    node: int
    up_edge: int
    child1: int
    edge1: int
    child2: int
    edge2: int
    kind: KernelKind


@dataclass(frozen=True)
class PreorderOp:
    """One planned pre-order partial: the tree *above* ``edge``.

    Computes ``P[edge]``, the eigen-CLA of everything on the far side of
    ``edge`` as seen from its top endpoint ``node``.  The two operands
    mirror a ``newview``: the view across the parent edge ``up_edge``
    (either the already-computed partial ``P[up_edge]`` when
    ``across_is_partial``, or — at the up-sweep roots — the down CLA /
    tip of ``across``, the node on the far side of the virtual root) and
    the sibling subtree's down CLA / tip through ``sibling_edge``.
    """

    edge: int
    node: int
    up_edge: int
    across: int
    across_is_partial: bool
    sibling: int
    sibling_edge: int
    kind: KernelKind


@dataclass(frozen=True)
class EdgeGradientOp:
    """One planned per-edge derivative: lnL', lnL'' for ``edge``.

    The sum buffer is the element-wise product of the two views of the
    branch: the pre-order partial ``P[edge]`` (when ``top_is_partial``)
    or the down CLA / tip of ``top`` (at the virtual root edge, where
    both views are down CLAs), and the down CLA / tip of ``bottom``.
    """

    edge: int
    top: int
    bottom: int
    top_is_partial: bool
    kind: KernelKind = KernelKind.EDGE_GRADIENT


@dataclass(frozen=True)
class Wave:
    """One dependency level of an :class:`ExecutionPlan`.

    Every op in a wave reads only CLAs produced by *earlier* waves (or
    tips / already-valid CLAs), so the ops are mutually independent and
    may be dispatched as one batched kernel call, farmed out to
    fork-join workers, or executed in any order.  Down-sweep waves hold
    :class:`NewviewOp`; up-sweep waves mix :class:`PreorderOp` and
    :class:`EdgeGradientOp` (a branch's gradient becomes ready one level
    after its partial, alongside the next level of partials).
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

    Produced by :func:`levelize` from a planned ``newview`` op list;
    consumed by :meth:`repro.core.engine.LikelihoodEngine.execute_plan`.
    ``depth`` (number of waves) bounds the serial critical path;
    ``max_width`` bounds the exploitable thread parallelism; both feed the
    analytic cost model's serial-depth vs. parallel-width split.
    """

    root_edge: int
    waves: list[Wave] = field(default_factory=list)
    #: ``"down"`` for post-order (newview) plans, ``"up"`` for the
    #: pre-order + gradient sweep of a :class:`GradientPlan`.
    direction: str = "down"

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


def levelize(root_edge: int, ops: list[NewviewOp]) -> ExecutionPlan:
    """Fold the planned ``newview`` ops for ``root_edge`` into waves.

    An op's *level* is ``max(level(child1), level(child2)) + 1`` where
    children not updated by these ops (tips, or CLAs that are already
    valid) sit at level ``-1``.  Plans list ops in postorder (children
    before parents), so a single forward pass assigns final levels; ops
    sharing a level are mutually independent by construction and become
    one :class:`Wave`.
    """

    level: dict[int, int] = {}
    buckets: dict[int, list[NewviewOp]] = {}
    for op in ops:
        lvl = max(level.get(op.child1, -1), level.get(op.child2, -1)) + 1
        level[op.node] = lvl
        buckets.setdefault(lvl, []).append(op)
    waves = [
        Wave(index=i, ops=tuple(buckets[lvl]))
        for i, lvl in enumerate(sorted(buckets))
    ]
    return ExecutionPlan(root_edge=root_edge, waves=waves)


@dataclass
class GradientPlan:
    """The bidirectional plan: one down-sweep, one mixed-kind up-sweep.

    ``down`` is the ordinary post-order plan that validates every CLA
    toward ``root_edge``; ``up`` is the root-to-tip sweep whose waves
    interleave pre-order partials with the per-edge gradient ops that
    become ready as the partials land.  Executing both yields first and
    second log-likelihood derivatives for all ``2N - 3`` branches in
    O(N) kernel calls — the linear-time alternative to ``2N - 3``
    independent ``derivativeSum`` re-traversals.
    """

    root_edge: int
    down: ExecutionPlan
    up: ExecutionPlan

    @property
    def n_ops(self) -> int:
        return self.down.n_ops + self.up.n_ops

    @property
    def depth(self) -> int:
        return self.down.depth + self.up.depth

    def kernel_mix(self) -> dict[KernelKind, int]:
        mix = self.down.kernel_mix()
        for kind, n in self.up.kernel_mix().items():
            mix[kind] = mix.get(kind, 0) + n
        return mix


def levelize_upsweep(
    root_edge: int, pre_ops: list[PreorderOp], grad_ops: list[EdgeGradientOp]
) -> ExecutionPlan:
    """Fold the gradient up-sweep into root-to-tip dependency waves.

    ``pre_ops`` list the pre-order partials parents before children;
    ``grad_ops`` carry one op per branch (``2N - 3`` of them, the
    virtual root edge included).  A pre-order partial's level is one
    past its parent partial's level (partials fed by the virtual root's
    down CLAs sit at level 0); an edge's gradient op runs one level after
    the partial it consumes, so it shares a wave with the *next*
    generation of partials — the mixed kernel-kind waves the engine
    partitions per op class.  The virtual root edge's gradient needs only
    down CLAs and joins wave 0.
    """

    plevel: dict[int, int] = {}
    buckets: dict[int, list] = {}
    for op in pre_ops:
        lvl = plevel[op.up_edge] + 1 if op.across_is_partial else 0
        plevel[op.edge] = lvl
        buckets.setdefault(lvl, []).append(op)
    for op in grad_ops:
        lvl = plevel[op.edge] + 1 if op.top_is_partial else 0
        buckets.setdefault(lvl, []).append(op)
    waves = [
        Wave(index=i, ops=tuple(buckets[lvl]))
        for i, lvl in enumerate(sorted(buckets))
    ]
    return ExecutionPlan(root_edge=root_edge, waves=waves, direction="up")


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

        Seeded with the paper's four families; "preorder" and
        "edge_gradient" appear only once a gradient sweep has run.
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
        callers are responsible for not merging the same source twice.  (The dedup-by-identity rule for *profiles* of engines
        sharing a backend lives in
        ``repro.parallel.forkjoin.merged_backend_profile``; sliced
        parallel engines never sum ``calls`` — see
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
