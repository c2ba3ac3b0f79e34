"""The likelihood engine: CLAs, virtual roots, and kernel dispatch.

:class:`LikelihoodEngine` is the equivalent of RAxML's likelihood core,
and the only engine there is: it plans minimal traversals when the tree
changes, tracks which conditional likelihood arrays are valid for which
orientation and runs the per-op loop.  Two small collaborators do the
rest:

* a **rate model** (:mod:`repro.core.ratemodel`), chosen from the rates
  the engine is given — Gamma through the pluggable
  :class:`~repro.core.backends.KernelBackend`, CAT as per-site NumPy
  math, ``p_inv`` as a root-level mixture around either — owns every
  branch-dependent formula;
* a **CLA store** (:mod:`repro.core.memsave`) holds one CLA per
  *directed node* ``(node, toward_edge)``, fully resident or under a
  least-recently-used budget.

The engine is the only thing that computes; a store only remembers.
Every operand is resolved through one get-or-recompute helper and held
in local variables while its op runs, so an entry the store has dropped
is simply recomputed (by the ordinary op, recursively) when next needed.

Validity tracking uses interned *subtree ids* instead of explicit
invalidation hooks: a CLA oriented toward edge ``e`` is valid iff the
topology and branch lengths below it are unchanged since it was computed
(a model change drops every CLA).  The planning walk interns each
directed node's subtree to an int (O(1) per node, at any tree depth) and
plans exactly the stale CLAs — which makes it impossible for a topology
move or branch-length change to leave a stale CLA behind, a classic
source of silent likelihood bugs in hand-invalidated codes.  Moving the
virtual root keeps every CLA it does not invalidate, and the pre-order
"partials" of the all-branch gradient are simply the CLAs of the other
direction: one recurrence, one store, one op class.

Every kernel dispatch is recorded in :class:`KernelCounters`; a tree
search run therefore leaves behind the invocation trace that drives the
paper's performance model (Sec. VI).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates, GammaRates
from ..phylo.tree import Tree
from .backends import KernelBackend, KernelProfile, get_backend
from .cat import CatModel
from .invariant import InvariantMixture
from .memsave import ClaStore
from .ratemodel import GammaModel
from .traversal import (
    COMBINE_KINDS,
    EdgeGradientOp,
    ExecutionPlan,
    KernelCounters,
    KernelKind,
    NewviewOp,
    Wave,
    levelize,
)

__all__ = ["LikelihoodEngine"]

#: Interned subtree ids kept between model changes before the table is
#: cleared (about 8x the largest count the benchmark searches reach).
MAX_SUBTREE_IDS = 1 << 14


class LikelihoodEngine:
    """Phylogenetic likelihood function over a mutable tree.

    Parameters
    ----------
    patterns:
        Pattern-compressed alignment (see
        :meth:`repro.phylo.alignment.Alignment.compress`).
    tree:
        The tree the engine evaluates.  The engine holds a reference; the
        tree may be mutated freely (SPR/NNI/branch changes) between
        calls — stale CLAs are detected structurally.
    model:
        A reversible substitution model.
    rates:
        Among-site rate heterogeneity, which also picks the rate model:
        :class:`~repro.phylo.rates.GammaRates` (the paper's Gamma4
        configuration is ``GammaRates(alpha, 4)``),
        :class:`~repro.phylo.rates.CatRates` for per-site CAT rates, or
        ``None`` for a single unit rate.
    backend:
        Kernel implementation: a registered backend name
        (``"reference"``, ``"compiled"``, ``"shadow"``), an already
        constructed :class:`~repro.core.backends.KernelBackend`, or
        ``None`` for the process default (``REPRO_BACKEND`` environment
        variable, else ``compiled``).
    p_inv:
        Proportion of invariable sites in ``[0, 1)``; ``None`` for no
        ``+I`` mixture.
    store:
        The :class:`~repro.core.memsave.ClaStore` holding the directed
        CLAs; ``None`` keeps everything resident.

    :func:`repro.core.backends.make_engine` is the usual way to build one.
    ``rates_model`` keeps the rates object it was given, ``rates`` is the
    :class:`~repro.core.ratemodel.RateModel` currently built from it.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | CatRates | None = None,
        backend: str | KernelBackend | None = None,
        *,
        p_inv: float | None = None,
        store: ClaStore | None = None,
    ) -> None:
        if rates is None:
            rates = GammaRates(1.0, 1)
        elif (
            isinstance(rates, CatRates)
            and rates.site_categories.shape[0] != patterns.n_patterns
        ):
            raise ValueError(
                f"CAT assignment covers {rates.site_categories.shape[0]} "
                f"patterns, alignment has {patterns.n_patterns}"
            )
        self.patterns = patterns
        self.tree = tree
        self.backend = get_backend(backend)
        self.counters = KernelCounters()
        self.store = store if store is not None else ClaStore()
        #: ``(node, toward_edge) -> interned subtree id`` of each stored CLA.
        self._valid: dict[tuple[int, int], int] = {}
        self._subtree_ids: dict[tuple, int] = {}
        self._next_id = itertools.count()
        self._grad: dict[int, tuple] = {}
        self._grad_terms = False
        self._tip_codes: dict[str, np.ndarray] = {
            name: patterns.row(name) for name in patterns.taxa
        }
        self.model = model
        self.rates_model = rates
        #: CAT shape parameter the assignment was derived from (``None``
        #: under Gamma, whose shape is ``rates_model.alpha``).
        self.alpha = 1.0 if isinstance(rates, CatRates) else None
        self.set_p_inv(p_inv)

    # ------------------------------------------------------------------
    # model handling
    # ------------------------------------------------------------------
    def set_model(
        self,
        model: SubstitutionModel,
        rates: GammaRates | CatRates | None = None,
    ) -> None:
        """Install new model parameters; all CLAs become stale.

        ``rates`` must be of the type the engine was built with (Gamma
        and CAT CLAs have different shapes); ``None`` keeps the current
        ones.
        """
        if model.n_states != self.patterns.states.n_states:
            raise ValueError(
                f"model has {model.n_states} states, alignment alphabet has "
                f"{self.patterns.states.n_states}"
            )
        if rates is None:
            rates = self.rates_model
        elif type(rates) is not type(self.rates_model):
            raise ValueError(
                f"engine was built with {type(self.rates_model).__name__}, "
                f"set_model got {type(rates).__name__}"
            )
        self.model = model
        self.rates_model = rates
        make = CatModel if isinstance(rates, CatRates) else GammaModel
        self.rates = make(self.backend, self.patterns, model, rates)
        if self.p_inv is not None:
            self.rates = InvariantMixture(
                self.rates, self.patterns, model, self.p_inv
            )
        self.drop_caches()

    def set_alpha(self, alpha: float) -> None:
        """Convenience: replace the Gamma shape parameter.

        Under CAT the category rates are re-derived from the shape and
        the per-site category assignment is kept.
        """
        if self.cat is None:
            self.set_model(self.model, self.rates_model.with_alpha(alpha))
        else:
            self.set_cat(self.cat.with_alpha(alpha, self.patterns.weights), alpha)

    @property
    def cat(self) -> CatRates | None:
        """The CAT assignment (``None`` for a Gamma engine)."""
        rates = self.rates_model
        return rates if isinstance(rates, CatRates) else None

    def set_cat(self, cat: CatRates, alpha: float | None = None) -> None:
        """Install a new CAT assignment (and the shape it came from)."""
        if alpha is not None:
            self.alpha = alpha
        self.set_model(self.model, cat)

    def set_p_inv(self, p_inv: float | None) -> None:
        """Set the invariable proportion; rescales the variable rates."""
        if p_inv is not None and not 0.0 <= p_inv < 1.0:
            raise ValueError(f"p_inv must be in [0, 1), got {p_inv}")
        self.p_inv = p_inv
        self.set_model(self.model)

    # ------------------------------------------------------------------
    # traversal planning
    # ------------------------------------------------------------------
    def _make_op(
        self, node: int, up_edge: int, sid: int | None = None
    ) -> NewviewOp:
        """Build the ``newview`` op descriptor for one directed node."""
        tree = self.tree
        (c1, e1), (c2, e2) = tree.children(node, up_edge)
        tips = tree.is_leaf(c1) + tree.is_leaf(c2)
        return NewviewOp(
            node=node, up_edge=up_edge, child1=c1, edge1=e1,
            child2=c2, edge2=e2, kind=COMBINE_KINDS[tips], sid=sid,
        )

    def plan_traversal(self, root_edge: int) -> list[NewviewOp]:
        """The ``newview`` ops, in post-order, that validate both root CLAs.

        The same walk interns every directed node's subtree: a leaf's id
        is its name, an inner node's is the int drawn for the flat key
        ``(up_edge, e1, length(e1), id(c1), e2, length(e2), id(c2))``.
        Equal ids imply equal subtree content, so a directed node whose
        cached id is current is skipped.  Ids are never reused: clearing
        the table can cost a recomputation, never revive a stale CLA.
        """
        tree = self.tree
        table = self._subtree_ids
        if len(table) > MAX_SUBTREE_IDS:
            table.clear()
        valid = self._valid
        # One direction per node in one walk: the id of each node's
        # subtree below the root, which plan_gradient reads back.
        ids = self._walk_ids = {}
        ops: list[NewviewOp] = []
        for node, _parent, up_edge in tree.postorder(root_edge):
            name = tree.name(node)
            if name is not None:
                ids[node] = name
                continue
            (c1, e1), (c2, e2) = tree.children(node, up_edge)
            key = (up_edge, e1, tree.edge(e1).length, ids[c1],
                   e2, tree.edge(e2).length, ids[c2])
            sid = ids[node] = table.setdefault(key, next(self._next_id))
            if valid.get((node, up_edge)) != sid:
                ops.append(self._make_op(node, up_edge, sid))
        return ops

    def plan_execution(self, root_edge: int) -> ExecutionPlan:
        """Plan and levelize the traversal for ``root_edge``."""
        return levelize(root_edge, self.plan_traversal(root_edge))

    def plan_gradient(self, root_edge: int) -> ExecutionPlan:
        """Plan first and second derivatives of every branch.

        The id-gated post-order plan for ``root_edge`` validates every
        CLA directed toward the root; a pre-order walk then interns the
        other direction of every inner node — the rest of the tree seen
        across each child edge, the "pre-order partial" — and plans the
        stale ones as ordinary ``newview`` ops.  Each branch ends with one
        fused gradient of its two directed CLAs.  A cold engine plans
        ``(N - 2) + (2N - 4)`` ``newview`` ops and ``2N - 3`` gradients —
        O(N), against the O(N^2) of re-rooting ``derivativeSum`` at every
        branch; an unchanged tree plans only the gradients.
        """
        ops, grads = self._plan_both_directions(root_edge)
        return levelize(root_edge, ops + grads)

    def ensure_both_directions(self) -> None:
        """Make both directed CLAs of every branch valid: the ``newview``
        ops of :meth:`plan_gradient` without its gradients, so an
        unchanged tree runs none."""
        root_edge = self.default_edge()
        ops, _ = self._plan_both_directions(root_edge)
        self.execute_plan(levelize(root_edge, ops))

    def _plan_both_directions(
        self, root_edge: int
    ) -> tuple[list[NewviewOp], list[EdgeGradientOp]]:
        """The stale ``newview`` ops of both directions and one gradient
        op per branch, as :meth:`plan_gradient` describes."""
        ops = self.plan_traversal(root_edge)
        tree = self.tree
        ids, valid, table = self._walk_ids, self._valid, self._subtree_ids
        edge = tree.edge(root_edge)
        grads = [EdgeGradientOp(root_edge, edge.u, edge.v)]
        # (node, its edge toward the root, id of the rest of the tree
        # seen across that edge)
        stack = [
            (n, root_edge, ids[other])
            for n, other in ((edge.u, edge.v), (edge.v, edge.u))
            if not tree.is_leaf(n)
        ]
        while stack:
            node, up_edge, across = stack.pop()
            for child, eid in tree.children(node, up_edge):
                (c1, e1), (c2, e2) = tree.children(node, eid)
                key = (eid, e1, tree.edge(e1).length,
                       across if e1 == up_edge else ids[c1],
                       e2, tree.edge(e2).length,
                       across if e2 == up_edge else ids[c2])
                sid = table.setdefault(key, next(self._next_id))
                if valid.get((node, eid)) != sid:
                    ops.append(self._make_op(node, eid, sid))
                grads.append(EdgeGradientOp(eid, node, child))
                if not tree.is_leaf(child):
                    stack.append((child, eid, sid))
        return ops, grads

    # ------------------------------------------------------------------
    # the per-op loop: resolve operands, combine, remember
    # ------------------------------------------------------------------
    def cla(self, node: int, edge: int) -> tuple[np.ndarray, np.ndarray]:
        """``(z, scale)`` of inner ``node`` directed toward ``edge``.

        Plans run in wave order, so a CLA an op reads was produced by an
        earlier wave or was valid at plan time; if the store has dropped
        it since, it is recomputed here — by the ordinary op, whose own
        operands resolve the same way (its id is current already).
        """
        entry = self.store.get((node, edge))
        if entry is None:
            entry = self._run_op(self._make_op(node, edge))
        return entry

    def _operand(self, node: int, edge: int) -> tuple:
        """One ``combine`` operand seen across ``edge``: ``(codes, t)`` for
        a tip, ``(z, scale, t)`` for a CLA."""
        t = self.tree.edge(edge).length
        name = self.tree.name(node)
        if name is not None:
            return self._tip_codes[name], t
        return (*self.cla(node, edge), t)

    def _view(self, node: int, edge: int) -> tuple[np.ndarray, "np.ndarray | int"]:
        """``(z, scale)`` of a root-level operand: tip view or CLA."""
        name = self.tree.name(node)
        if name is not None:
            return self.rates.tip_view(self._tip_codes[name]), 0
        return self.cla(node, edge)

    def _run_op(self, op) -> "tuple[np.ndarray, np.ndarray] | None":
        """Run one plan op; a ``newview`` returns its ``(z, scale)``.

        The operands stay referenced from this frame while the rate model
        combines them, so the store is free to drop them meanwhile.
        """
        if type(op) is not NewviewOp:
            return self._run_gradient_op(op)
        key = (op.node, op.up_edge)
        a = self._operand(op.child1, op.edge1)
        b = self._operand(op.child2, op.edge2)
        z, scale = self.rates.combine(op.kind, a, b)
        self.store.put(key, z, scale)
        if op.sid is not None:
            self._valid[key] = op.sid
        self.counters.record(op.kind, self.patterns.n_patterns)
        return z, scale

    def _run_gradient_op(self, op: EdgeGradientOp) -> None:
        """Fused per-edge ``(d1, d2)`` — or per-pattern terms — of one branch."""
        z_u, sc_u = self._view(op.u, op.edge)
        z_v, sc_v = self._view(op.v, op.edge)
        t = self.tree.edge(op.edge).length
        if self._grad_terms:
            self._grad[op.edge] = self.rates.edge_gradient_terms(z_u, z_v, t)
        else:
            # The combined scale counts are unused by plain rate models
            # (derivative ratios are scale-invariant); the +I mixture
            # needs true per-site magnitudes and consumes them.
            self._grad[op.edge] = self.rates.edge_gradient(
                z_u, z_v, sc_u + sc_v, t
            )[1:]
        self.counters.record(KernelKind.EDGE_GRADIENT, self.patterns.n_patterns)

    def all_branch_gradients(
        self, root_edge: int | None = None, *, terms: bool = False
    ) -> dict[int, tuple]:
        """First and second lnL derivatives of **every** branch at once.

        One plan makes both directed CLAs of every branch valid (reusing
        every valid one) and yields ``{edge_id: (d1, d2)}`` for all
        ``2N - 3`` branches — the derivatives each match what
        ``edge_sum_buffer`` + ``branch_derivatives`` computes per branch,
        without re-rooting the traversal 2N - 3 times.

        With ``terms=True`` the result is ``{edge_id: (l0, l1, l2)}``
        per-pattern site terms instead — the form parallel drivers
        gather from each worker's slice and reduce in fixed pattern
        order (:func:`repro.core.kernels.derivative_reduce`) for
        bit-identical serial/parallel agreement.
        """
        if root_edge is None:
            root_edge = self.default_edge()
        return self.execute_gradient(self.plan_gradient(root_edge), terms=terms)

    def execute_gradient(
        self, plan: ExecutionPlan, *, terms: bool = False
    ) -> dict[int, tuple]:
        """Run a :meth:`plan_gradient` plan: its ``plan.depth`` waves
        yield what :meth:`all_branch_gradients` returns."""
        out = self._grad = {}
        self._grad_terms = terms
        with _obs.span(
            "gradient.all_branches",
            edges=len(self.tree.edge_ids),
            waves=plan.depth,
        ):
            self.execute_plan(plan)
        if _obs.ENABLED:
            reg = _obs_metrics.get_registry()
            reg.counter(
                "repro_gradient_sweeps_total",
                "all-branch gradient sweeps",
            ).inc()
            reg.counter(
                "repro_gradient_waves_total",
                "executed gradient-plan waves",
            ).inc(plan.depth)
        return out

    def execute_plan(self, plan: ExecutionPlan) -> None:
        """Run a levelized plan, wave by wave, then drop dead CLAs."""
        if plan.waves:
            with _obs.span("plan", waves=len(plan.waves), ops=plan.n_ops):
                for wave in plan.waves:
                    self.run_wave(wave)
        self._forget_dead()

    def _forget_dead(self) -> None:
        """Forget every CLA whose edge left the tree or no longer touches
        its node, once there are more than can be live.

        Three directed CLAs per inner node is the most a tree holds, so
        past that the books hold CLAs of retired nodes or edges.  A trial
        undo hands node and edge ids back, but a reused id only ever hits
        the cache through an equal interned subtree id.
        """
        tree = self.tree
        if len(self._valid) <= 3 * (tree.n_leaves - 2):
            return
        for node, eid in list(self._valid):
            if not tree.has_edge(eid) or node not in (
                tree.edge(eid).u, tree.edge(eid).v
            ):
                del self._valid[node, eid]
                self.store.discard((node, eid))

    def run_wave(self, wave: Wave) -> None:
        """Run one wave (timed as a ``wave`` span when tracing is on).

        Waves hold :class:`NewviewOp`; a gradient plan's waves may mix
        them with the :class:`EdgeGradientOp` reductions they unblock.
        Parallel drivers (fork-join, distributed, partitioned) call this directly
        to interleave their own synchronisation accounting between waves.
        """
        if not wave.ops:
            return
        traced = _obs.ENABLED
        t0 = time.perf_counter() if traced else 0.0
        for op in wave.ops:
            self._run_op(op)
        if traced:
            elapsed = time.perf_counter() - t0
            _obs.get_tracer().add_complete(
                "wave",
                t0,
                t0 + elapsed,
                args={"wave": wave.index, "width": wave.width},
            )
            reg = _obs_metrics.get_registry()
            reg.counter("repro_waves_total", "executed waves").inc()
            reg.histogram(
                "repro_wave_width",
                "ops per executed wave",
                bounds=_obs_metrics.log_buckets(1.0, 4096.0, per_decade=3),
            ).observe(wave.width)
            reg.histogram(
                "repro_wave_seconds", "wall seconds per wave"
            ).observe(elapsed)

    def ensure_valid(self, root_edge: int) -> None:
        """Make both CLAs adjacent to ``root_edge`` valid."""
        self.execute_plan(self.plan_execution(root_edge))

    # ------------------------------------------------------------------
    # root-level quantities
    # ------------------------------------------------------------------
    def _root_sides(self, root_edge: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(z_left, z_right, scale_counts)`` for a validated root edge."""
        edge = self.tree.edge(root_edge)
        z_l, sc_l = self._view(edge.u, root_edge)
        z_r, sc_r = self._view(edge.v, root_edge)
        scales = np.zeros(self.patterns.n_patterns, dtype=np.int64)
        return z_l, z_r, scales + sc_l + sc_r

    def default_edge(self) -> int:
        """A deterministic virtual-root branch (lowest edge id)."""
        return min(self.tree.edge_ids)

    def log_likelihood(self, root_edge: int | None = None) -> float:
        """Tree log-likelihood with the virtual root on ``root_edge``.

        Under reversibility the value is identical for every choice of
        root edge (the pulley principle) — a property the test suite
        checks exhaustively.
        """
        if root_edge is None:
            root_edge = self.default_edge()
        self.ensure_valid(root_edge)
        lnl = self.rates.log_likelihood(
            *self._root_sides(root_edge), self.tree.edge(root_edge).length
        )
        self.counters.record(KernelKind.EVALUATE, self.patterns.n_patterns)
        return lnl

    def site_log_likelihoods(self, root_edge: int | None = None) -> np.ndarray:
        """Per-pattern log-likelihoods (expand with ``patterns.expand``)."""
        if root_edge is None:
            root_edge = self.default_edge()
        self.ensure_valid(root_edge)
        self.counters.record(KernelKind.EVALUATE, self.patterns.n_patterns)
        return self.rates.site_log_likelihoods(
            *self._root_sides(root_edge), self.tree.edge(root_edge).length
        )

    def edge_sum_buffer(self, root_edge: int):
        """The ``derivativeSum`` pre-computation for a branch.

        Valid for every trial length of *this* branch while the rest of
        the tree is unchanged — the reuse that makes Newton–Raphson
        iterations nearly free (Sec. IV).  Opaque: hand it back to
        :meth:`branch_derivatives` / :meth:`derivative_site_terms`.
        """
        self.ensure_valid(root_edge)
        sumbuf = self.rates.sum_buffer(*self._root_sides(root_edge))
        self.counters.record(KernelKind.DERIVATIVE_SUM, self.patterns.n_patterns)
        return sumbuf

    def branch_derivatives(self, sumbuf, t: float) -> tuple[float, float, float]:
        """``(lnL*, dlnL/dt, d2lnL/dt2)`` at trial branch length ``t``.

        ``lnL*`` omits the (t-independent) scaling correction; see
        :func:`repro.core.kernels.derivative_core`.
        """
        out = self.rates.branch_derivatives(sumbuf, t)
        self.counters.record(KernelKind.DERIVATIVE_CORE, self.patterns.n_patterns)
        return out

    def derivative_site_terms(
        self, sumbuf, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern ``(l, l', l'')`` of the ``derivativeCore`` site phase.

        Parallel engines call this on each worker's pattern slice, gather
        the three arrays in pattern order and reduce at the master with
        :func:`repro.core.kernels.derivative_reduce` — a fixed,
        worker-count-independent order, so the reduced derivatives are
        bit-identical to :meth:`branch_derivatives`.
        """
        out = self.rates.derivative_site_terms(sumbuf, t)
        self.counters.record(KernelKind.DERIVATIVE_CORE, self.patterns.n_patterns)
        return out

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    @property
    def profile(self) -> KernelProfile:
        """The backend's measured per-kernel profile (calls, wall time).

        Unlike :attr:`counters` (which tracks this engine's dispatches),
        the profile lives on the backend and aggregates across every
        engine sharing that backend instance — e.g. all ranks of a
        :class:`~repro.parallel.distributed.DistributedEngine`.
        """
        return self.backend.profile

    def reset_profile(self) -> None:
        """Zero the kernel counters and the backend profile.

        Counters and profiles are cumulative across repeated
        ``run()``/``log_likelihood()`` calls; call this between runs to
        obtain per-run measurements (e.g. before building a per-run
        :func:`repro.perf.trace.trace_from_profile`).
        """
        self.counters.reset()
        self.backend.profile.reset()

    def reset_all_observability(self) -> None:
        """One-call reset of every cumulative measurement layer.

        Extends :meth:`reset_profile` (counters, backend profile) with
        the process-wide :mod:`repro.obs` metrics registry and the live
        tracer's recorded spans/instants (when tracing is enabled), so a
        benchmark or traced search can start every run from a clean
        slate with a single call.
        """
        self.reset_profile()
        _obs_metrics.get_registry().reset()
        if _obs.ENABLED:
            _obs.get_tracer().clear()

    def drop_caches(self) -> None:
        """Release all CLAs (memory-saving hook; they rebuild lazily)."""
        self.store.clear()
        self._valid.clear()
        self._subtree_ids.clear()

    def close(self) -> None:
        """Nothing to release: a serial engine owns no pool or arena."""

    def cla_memory_bytes(self) -> int:
        """Current CLA memory footprint (the paper's 8 GB-per-card concern)."""
        return self.store.nbytes()
