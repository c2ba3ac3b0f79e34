"""Branch-length optimisation: Newton sweeps and all-branch gradients.

The paper's third and fourth kernels exist for exactly this routine:
``derivativeSum`` pre-computes the element-wise CLA product for the
branch under optimisation once, and each Newton–Raphson iteration then
calls only ``derivativeCore`` (first and second log-likelihood
derivatives) — no CLA traffic at all.  We reproduce that structure: one
``edge_sum_buffer`` per branch, then a damped Newton iteration on the
branch length with a golden-section fallback for the (rare) non-concave
starts.

Full-tree optimisation (:func:`optimize_all_branches`) offers three
methods:

``"newton"``
    The classic per-branch sweep in depth-first edge order (RAxML's
    ``treeEvaluate``), 2N - 3 re-rooted ``derivativeSum`` traversals per
    pass.  Kept as the parity oracle for the gradient path.
``"gradient"``
    A full-tree smoother over :func:`all_branch_gradients`: *one*
    bidirectional traversal yields every branch's ``(d1, d2)``, all
    branches take a simultaneous damped Newton step, and a global
    backtracking line search keeps each sweep monotone in lnL.
``"prox"``
    The ISTA-style proximal-gradient optimiser with an L1 branch-length
    penalty (:mod:`repro.search.proxgrad`) — for sparse /
    near-multifurcating trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import LikelihoodEngine
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.tree import MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH

__all__ = [
    "BranchOptResult",
    "BRANCH_OPT_METHODS",
    "all_branch_gradients",
    "newton_converged",
    "optimize_branch",
    "optimize_all_branches",
    "polish_branch",
]

#: Full-tree smoothing methods accepted by :func:`optimize_all_branches`
#: (and the ``--branch-opt`` CLI flag).
BRANCH_OPT_METHODS = ("newton", "gradient", "prox")

#: Relative gradient floor of the Newton stop.  ``d1`` is a sum over
#: patterns of terms as large as lnL's own; each carries one rounding
#: (2^-53 ~ 1.1e-16) and up to ~1e6 of them cancel at the optimum, so a
#: ``|d1|`` below ~1e-10 * |lnL| is summation noise, not a slope.
GRADIENT_EPSILON = 1e-10

#: Relative step floor.  Near the optimum a step ``dt`` moves lnL by
#: ``d2 * dt^2 / 2`` with ``|d2| * t^2 <~ |lnL|``, so a step below
#: sqrt(2^-52) ~ 1.5e-8 of ``t`` changes lnL by less than one ulp: the
#: maximiser of a double-precision lnL is only defined to that width.
STEP_EPSILON = 1e-8


@dataclass
class BranchOptResult:
    """Outcome of a single-branch optimisation."""

    edge: int
    initial_length: float
    length: float
    iterations: int
    converged: bool


def all_branch_gradients(
    engine, root_edge: int | None = None
) -> dict[int, tuple[float, float]]:
    """``{edge_id: (dlnL/dt, d²lnL/dt²)}`` for every branch at once.

    Search-level entry point for the engines' bidirectional sweep: one
    post-order plus one pre-order traversal instead of 2N - 3 re-rooted
    ``derivativeSum`` traversals.  Every engine (the serial one under any
    rate model and CLA store, partitioned, fork-join, distributed)
    provides the method; the values match the per-branch ``edge_sum_buffer`` +
    ``branch_derivatives`` pair bit-for-bit.
    """
    return engine.all_branch_gradients(root_edge)


def newton_converged(
    lnl: float, d1: float, d2: float, t: float, tolerance: float = 1e-8
) -> bool:
    """The one stop test of every Newton loop in :mod:`repro.search`.

    True when the gradient is below what the summation resolves or the
    pending Newton step below what ``t`` does (``|d1 / d2| < STEP_EPSILON
    * t``, the test RAxML's ``zmin/zmax`` loop applies).
    """
    if abs(d1) < max(tolerance, GRADIENT_EPSILON * abs(lnl)):
        return True
    return d2 < 0.0 and abs(d1) < STEP_EPSILON * t * -d2


def polish_branch(
    engine: LikelihoodEngine, sumbuf: np.ndarray, t: float, iterations: int
) -> float:
    """At most ``iterations`` undamped Newton steps from ``t`` on a fixed
    sum buffer: the quick polish behind every lazily scored trial move
    (SPR insertion, NNI swap, EPA pendant branch)."""
    for _ in range(iterations):
        lnl, d1, d2 = engine.branch_derivatives(sumbuf, t)
        if d2 >= 0.0 or newton_converged(lnl, d1, d2, t):
            break
        t = min(max(t - d1 / d2, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
    return float(t)


def _newton_on_sumbuffer(
    engine: LikelihoodEngine,
    sumbuf: np.ndarray,
    t0: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[float, int, bool]:
    """Maximise lnL(t) given a fixed sum buffer; returns ``(t, iters, ok)``.

    Newton steps ``t <- t - lnL'/lnL''`` while the curvature is negative;
    otherwise (or when a step does not improve) the step is halved toward
    the current point — RAxML applies the same damping through its
    ``zmin/zmax`` clamps — until it falls below the resolution of ``t``
    (:data:`STEP_EPSILON`), where another evaluation could only compare
    rounding noise.
    """
    t = float(np.clip(t0, MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH))
    lnl, d1, d2 = engine.branch_derivatives(sumbuf, t)
    for it in range(1, max_iterations + 1):
        if newton_converged(lnl, d1, d2, t, tolerance):
            return t, it, True
        if d2 < 0.0:
            step = -d1 / d2
        else:
            # Gradient direction with a conservative magnitude when the
            # surface is locally convex (far from the optimum).
            step = np.sign(d1) * max(abs(t), 0.05)
        # Damped update: halve the step until the likelihood improves.
        improved = False
        while abs(step) >= STEP_EPSILON * t:
            t_new = float(np.clip(t + step, MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH))
            if t_new == t:
                break
            lnl_new, d1_new, d2_new = engine.branch_derivatives(sumbuf, t_new)
            if lnl_new >= lnl - 1e-13:
                t, lnl, d1, d2 = t_new, lnl_new, d1_new, d2_new
                improved = True
                break
            step *= 0.5
        if not improved:
            return t, it, abs(d1) < 1e-2
    return t, max_iterations, abs(d1) < 1e-2


def optimize_branch(
    engine: LikelihoodEngine,
    edge_id: int,
    tolerance: float = 1e-8,
    max_iterations: int = 64,
) -> BranchOptResult:
    """Optimise one branch length in place on the engine's tree."""
    edge = engine.tree.edge(edge_id)
    with _obs.span("search.branch_opt", edge=edge_id):
        sumbuf = engine.edge_sum_buffer(edge_id)
        t, iters, ok = _newton_on_sumbuffer(
            engine, sumbuf, edge.length, tolerance, max_iterations
        )
    result = BranchOptResult(
        edge=edge_id,
        initial_length=edge.length,
        length=t,
        iterations=iters,
        converged=ok,
    )
    edge.length = t
    return result


def optimize_all_branches(
    engine: LikelihoodEngine,
    passes: int = 4,
    tolerance: float = 1e-8,
    improvement_epsilon: float = 1e-4,
    method: str = "newton",
) -> float:
    """Smoothing passes over every branch; returns the final lnL.

    ``method`` selects the full-tree smoother (:data:`BRANCH_OPT_METHODS`):
    the per-branch Newton sweep, the one-traversal gradient smoother, or
    the L1-penalised proximal-gradient optimiser.  For ``"newton"``,
    branches are visited in an order that follows tree adjacency (edges
    discovered by depth-first search), so consecutive optimisations share
    most of their CLA validity and the engine's traversal planner only
    recomputes the nodes along the shifted virtual root — mirroring how
    RAxML walks the tree during ``treeEvaluate``.
    """
    if method not in BRANCH_OPT_METHODS:
        raise ValueError(
            f"method must be one of {BRANCH_OPT_METHODS}, got {method!r}"
        )
    tree = engine.tree
    with _obs.span("search.branch_smoothing", passes=passes, method=method):
        if _obs.ENABLED:
            _obs_metrics.get_registry().counter(
                f"repro_branch_opt_method_{method}_total",
                "full-tree smoothing runs by method",
            ).inc()
        if method == "gradient":
            return _smooth_gradient(
                engine, tree, passes, tolerance, improvement_epsilon
            )
        if method == "prox":
            from .proxgrad import proximal_smooth

            return proximal_smooth(
                engine, max_sweeps=max(16, 8 * passes), tolerance=tolerance
            ).lnl
        return _smooth_all(
            engine, tree, passes, tolerance, improvement_epsilon
        )


def _smooth_all(
    engine: LikelihoodEngine,
    tree,
    passes: int,
    tolerance: float,
    improvement_epsilon: float,
) -> float:
    lnl = engine.log_likelihood()
    for _ in range(passes):
        start = tree.leaves()[0]
        order: list[int] = []
        seen: set[int] = set()
        stack = [start]
        visited = {start}
        while stack:
            node = stack.pop()
            for nbr, eid in tree.neighbors(node):
                if eid not in seen:
                    seen.add(eid)
                    order.append(eid)
                if nbr not in visited:
                    visited.add(nbr)
                    stack.append(nbr)
        for eid in order:
            optimize_branch(engine, eid, tolerance=tolerance)
        new_lnl = engine.log_likelihood()
        if new_lnl < lnl - 1e-6 and new_lnl < lnl * (1 + 1e-12):
            # A smoothing pass must never make things worse; a drop means
            # numerical trouble worth surfacing rather than hiding.
            raise FloatingPointError(
                f"branch smoothing decreased lnL from {lnl} to {new_lnl}"
            )
        if new_lnl - lnl < improvement_epsilon:
            return new_lnl
        lnl = new_lnl
    return lnl


def _smooth_gradient(
    engine,
    tree,
    passes: int,
    tolerance: float,
    improvement_epsilon: float,
) -> float:
    """Simultaneous damped Newton over one-traversal gradients.

    Each sweep costs one bidirectional traversal (O(N) kernel calls)
    against the Newton sweep's 2N - 3 re-rooted traversals; because all
    branches move at once the step is guarded by a *global* backtracking
    line search (halve every step until lnL improves), and more, cheaper
    sweeps are run — the sweep budget is ``8 * passes`` so the smoother
    converges to the same optimum the sequential sweep finds.
    """
    lnl = engine.log_likelihood()
    max_sweeps = max(16, 8 * passes)
    for sweep in range(1, max_sweeps + 1):
        grads = all_branch_gradients(engine)
        if max(abs(d1) for d1, _ in grads.values()) < tolerance:
            break
        old = {eid: tree.edge(eid).length for eid in grads}
        steps = {}
        for eid, (d1, d2) in grads.items():
            if d2 < 0.0:
                steps[eid] = -d1 / d2
            else:
                steps[eid] = float(np.sign(d1)) * max(abs(old[eid]), 0.05)
        scale = 1.0
        improved = False
        lnl_new = lnl
        for _ in range(30):
            for eid, t0 in old.items():
                tree.edge(eid).length = float(
                    np.clip(
                        t0 + scale * steps[eid],
                        MIN_BRANCH_LENGTH,
                        MAX_BRANCH_LENGTH,
                    )
                )
            lnl_new = engine.log_likelihood()
            if lnl_new >= lnl - 1e-13:
                improved = True
                break
            scale *= 0.5
        if _obs.ENABLED:
            _obs_metrics.get_registry().counter(
                "repro_branch_opt_gradient_sweeps_total",
                "gradient-smoother sweeps (one traversal each)",
            ).inc()
        if not improved:
            for eid, t0 in old.items():
                tree.edge(eid).length = t0
            engine.log_likelihood()  # restore CLA validity at the old lengths
            break
        gain = lnl_new - lnl
        lnl = lnl_new
        # The per-sweep gain decays geometrically near the optimum; a
        # tighter cut than the Newton sweep's pass criterion keeps the
        # two methods' final lnL within 1e-6 of each other.
        if gain < improvement_epsilon * 1e-3:
            break
    return lnl
