"""The likelihood engine: CLAs, virtual roots, and kernel dispatch.

:class:`LikelihoodEngine` is the equivalent of RAxML's likelihood core:
it owns the conditional likelihood arrays (one per internal node), keeps
track of which are valid for which orientation, plans minimal traversals
when the tree changes, and dispatches the four kernels through a
pluggable :class:`~repro.core.backends.KernelBackend` (the NumPy
reference kernels of :mod:`repro.core.kernels` by default — select
others via the ``backend`` argument or the ``REPRO_BACKEND`` environment
variable).

Validity tracking uses structural *subtree signatures* instead of
explicit invalidation hooks: a CLA oriented toward edge ``e`` is valid
iff the topology and branch lengths below it (plus the model parameters)
are unchanged since it was computed.  The engine recomputes a signature
per node during traversal planning (O(n) per likelihood evaluation) and
recomputes exactly the stale CLAs — which makes it impossible for a
topology move or branch-length change to leave a stale CLA behind, a
classic source of silent likelihood bugs in hand-invalidated codes.

Every kernel dispatch is recorded in :class:`KernelCounters`; a tree
search run therefore leaves behind the invocation trace that drives the
paper's performance model (Sec. VI).
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from . import kernels
from .backends import KernelBackend, KernelProfile, get_backend
from .schedule import NewviewCall, WaveProfile, WaveStats, dispatch_call
from .traversal import (
    EdgeGradientOp,
    ExecutionPlan,
    GradientDescriptor,
    GradientPlan,
    KernelCounters,
    KernelKind,
    NewviewOp,
    PreorderOp,
    TraversalDescriptor,
    Wave,
    levelize,
    levelize_upsweep,
)

__all__ = ["LikelihoodEngine", "branch_signature", "subtree_signatures"]


def subtree_signatures(
    tree: Tree, root_edge: int, model_version: int
) -> dict[tuple[int, int], object]:
    """Subtree signature of every directed (node, up_edge) below the root.

    The signature of a leaf is its name; an internal node's signature
    combines its children's signatures with the connecting edge ids
    and lengths, plus the global model version.  Two equal signatures
    imply equal subtree likelihood content.
    """
    sigs: dict[tuple[int, int], object] = {}
    for node, _parent, up_edge in tree.postorder(root_edge):
        if tree.is_leaf(node):
            sigs[(node, up_edge)] = tree.name(node)
            continue
        parts = [model_version]
        for child, eid in tree.children(node, up_edge):
            parts.append((eid, tree.edge(eid).length, sigs[(child, eid)]))
        sigs[(node, up_edge)] = tuple(parts)
    return sigs


def branch_signature(tree: Tree, edge_id: int, model_version: int) -> tuple:
    """``(length, (version, u-side, v-side subtree signatures))`` of a branch.

    Exactly the inputs ``edge_sum_buffer`` + Newton consume, so equal
    keys mean the deterministic solve would reproduce its last result.
    It depends only on the tree and the model version — sliced parallel
    engines compute it at the master, whatever the substrate.
    """
    edge = tree.edge(edge_id)
    sigs = subtree_signatures(tree, edge_id, model_version)
    return (
        edge.length,
        (model_version, sigs[(edge.u, edge_id)], sigs[(edge.v, edge_id)]),
    )


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
        Discrete-Gamma heterogeneity (the paper's Gamma4 configuration is
        ``GammaRates(alpha, 4)``); ``None`` means a single unit rate.
    backend:
        Kernel implementation: a registered backend name
        (``"reference"``, ``"compiled"``, ``"shadow"``), an already
        constructed :class:`~repro.core.backends.KernelBackend`, or
        ``None`` for the process default (``REPRO_BACKEND`` environment
        variable, falling back to the reference kernels).
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.patterns = patterns
        self.tree = tree
        self.backend = get_backend(backend)
        self.counters = KernelCounters()
        #: Per-plan operand preparation cache: branch matrices and tip
        #: lookup tables keyed by branch *length* (the model is fixed
        #: within one plan execution), so same-length ops share operand
        #: arrays.
        self._prep_cache: dict[tuple, np.ndarray] = {}
        #: Cumulative wave-execution statistics of this engine.
        self.wave_stats = WaveStats()
        self._model_version = 0
        self._clas: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._valid: dict[int, tuple[int, object]] = {}  # node -> (edge, signature)
        #: Pre-order partials of the current gradient up-sweep, keyed by
        #: edge id.  Unlike post-order CLAs these have no cross-call
        #: validity tracking: a partial depends on the *entire* rest of
        #: the tree, so the dict lives only for the duration of one
        #: :meth:`all_branch_gradients` call.
        self._pre: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._grad: dict[int, tuple[float, float]] = {}
        self._grad_terms: "dict[int, tuple] | None" = None
        self._tip_codes: dict[str, np.ndarray] = {
            name: patterns.row(name) for name in patterns.taxa
        }
        self.set_model(model, rates if rates is not None else GammaRates(1.0, 1))

    # ------------------------------------------------------------------
    # model handling
    # ------------------------------------------------------------------
    def set_model(self, model: SubstitutionModel, rates: GammaRates | None = None) -> None:
        """Install new model parameters; all CLAs become stale."""
        if model.n_states != self.patterns.states.n_states:
            raise ValueError(
                f"model has {model.n_states} states, alignment alphabet has "
                f"{self.patterns.states.n_states}"
            )
        self.model = model
        if rates is not None:
            self.rates_model = rates
        self.eigen = model.eigen()
        self.rate_values = self.rates_model.rates
        self.rate_weights = self.rates_model.weights
        self.n_rates = self.rate_values.shape[0]
        if self.patterns.states.n_states <= 8:
            tip_table = self.patterns.states.tip_table()
            self._tip_eigen = kernels.tip_eigen_table(self.eigen, tip_table)
        else:
            # Large alphabets (protein): build rows only for codes present.
            codes = np.unique(self.patterns.data)
            rows = self.patterns.states.tip_rows(codes)
            dense = np.zeros((int(codes.max()) + 1, model.n_states))
            dense[codes] = rows
            self._tip_eigen = dense @ self.eigen.u_inv.T
        self._model_version += 1
        self._valid.clear()
        self._prep_cache.clear()  # operand cache embeds the old model

    def set_alpha(self, alpha: float) -> None:
        """Convenience: replace the Gamma shape parameter."""
        self.set_model(self.model, self.rates_model.with_alpha(alpha))

    # ------------------------------------------------------------------
    # signatures (structural CLA validity)
    # ------------------------------------------------------------------
    def _signatures(self, root_edge: int) -> dict[tuple[int, int], object]:
        """:func:`subtree_signatures` under this engine's model version."""
        return subtree_signatures(self.tree, root_edge, self._model_version)

    def branch_signature(self, edge_id: int) -> tuple:
        """Key fully determining a per-branch Newton solve on ``edge_id``."""
        return branch_signature(self.tree, edge_id, self._model_version)

    # ------------------------------------------------------------------
    # traversal planning and execution
    # ------------------------------------------------------------------
    def _make_op(self, node: int, up_edge: int) -> NewviewOp:
        """Build the ``newview`` op descriptor for one directed node."""
        tree = self.tree
        (c1, e1), (c2, e2) = tree.children(node, up_edge)
        tips = tree.is_leaf(c1) + tree.is_leaf(c2)
        kind = (
            KernelKind.NEWVIEW_TIP_TIP
            if tips == 2
            else KernelKind.NEWVIEW_TIP_INNER
            if tips == 1
            else KernelKind.NEWVIEW_INNER_INNER
        )
        return NewviewOp(
            node=node, up_edge=up_edge, child1=c1, edge1=e1,
            child2=c2, edge2=e2, kind=kind,
        )

    def plan_traversal(self, root_edge: int) -> TraversalDescriptor:
        """List the ``newview`` ops needed to validate both root CLAs."""
        tree = self.tree
        sigs = self._signatures(root_edge)
        desc = TraversalDescriptor(root_edge=root_edge)
        for node, _parent, up_edge in tree.postorder(root_edge):
            if tree.is_leaf(node):
                continue
            cached = self._valid.get(node)
            if cached is not None and cached == (up_edge, sigs[(node, up_edge)]):
                continue
            desc.ops.append(self._make_op(node, up_edge))
        self._last_sigs = sigs
        return desc

    #: Entry cap on the per-plan preparation cache (distinct branch
    #: lengths met since the last clear); beyond it the cache is wiped
    #: wholesale, bounding memory across long searches.
    _PREP_CACHE_MAX = 512

    def _branch_a(self, edge_id: int) -> np.ndarray:
        """Per-rate branch matrices for an edge, cached by branch length.

        Valid because the model is fixed between :meth:`set_model` calls
        (which clear the cache) — so ops across a plan with equal branch
        lengths share one operand array, amortising P-matrix
        construction.
        """
        key = ("a", self.tree.edge(edge_id).length)
        a = self._prep_cache.get(key)
        if a is None:
            if len(self._prep_cache) > self._PREP_CACHE_MAX:
                self._prep_cache.clear()
            a = kernels.branch_matrices(self.eigen, self.rate_values, key[1])
            self._prep_cache[key] = a
        return a

    def _tip_lookup(self, edge_id: int) -> np.ndarray:
        """Tip lookup table for an edge, cached alongside :meth:`_branch_a`."""
        key = ("lut", self.tree.edge(edge_id).length)
        lut = self._prep_cache.get(key)
        if lut is None:
            lut = kernels.tip_branch_lookup(
                self._branch_a(edge_id), self._tip_eigen
            )
            self._prep_cache[key] = lut
        return lut

    def _prepare_op(self, op: NewviewOp) -> NewviewCall:
        """Resolve one op's operands into a ready backend call.

        Ops are prepared wave-by-wave, so inner children's CLAs were
        produced by an earlier wave (or were already valid) by the time
        this runs.
        """
        tree = self.tree
        if op.kind is KernelKind.NEWVIEW_TIP_TIP:
            args = (
                self.eigen.u_inv,
                self._tip_lookup(op.edge1),
                self._tip_codes[tree.name(op.child1)],
                self._tip_lookup(op.edge2),
                self._tip_codes[tree.name(op.child2)],
            )
        elif op.kind is KernelKind.NEWVIEW_TIP_INNER:
            # orient: child1 may be the inner one
            if tree.is_leaf(op.child1):
                tip_child, tip_edge = op.child1, op.edge1
                inner_child, inner_edge = op.child2, op.edge2
            else:
                tip_child, tip_edge = op.child2, op.edge2
                inner_child, inner_edge = op.child1, op.edge1
            z2, sc2 = self._clas[inner_child]
            args = (
                self.eigen.u_inv,
                self._tip_lookup(tip_edge),
                self._tip_codes[tree.name(tip_child)],
                self._branch_a(inner_edge),
                z2, sc2,
            )
        else:
            z1, sc1 = self._clas[op.child1]
            z2, sc2 = self._clas[op.child2]
            args = (
                self.eigen.u_inv,
                self._branch_a(op.edge1), self._branch_a(op.edge2),
                z1, z2, sc1, sc2,
            )
        return NewviewCall(op=op, kind=op.kind, args=args)

    def _store_op(self, op: NewviewOp, z: np.ndarray, sc: np.ndarray) -> None:
        """Commit one op's result: CLA, validity entry, counters."""
        self._clas[op.node] = (z, sc)
        self._valid[op.node] = (op.up_edge, self._last_sigs[(op.node, op.up_edge)])
        self.counters.record(op.kind, self.patterns.n_patterns)

    def _run_ops(self, ops: tuple) -> None:
        """Prepare, dispatch and store one wave of independent ops.

        Down-sweep waves hold :class:`NewviewOp` only; gradient up-sweep
        waves may mix :class:`PreorderOp` partials with the
        :class:`EdgeGradientOp` reductions they unblock.  The wave is
        partitioned by op class and each group dispatched through its own
        path (partials go to the backend exactly like ``newview``;
        gradients are per-edge scalar reductions).
        """
        nv = tuple(op for op in ops if isinstance(op, NewviewOp))
        pre = tuple(op for op in ops if isinstance(op, PreorderOp))
        grad = tuple(op for op in ops if isinstance(op, EdgeGradientOp))
        if nv:
            self._run_newview_ops(nv)
        if pre:
            self._run_preorder_ops(pre)
        if grad:
            self._run_gradient_ops(grad)

    def _run_newview_ops(self, ops: tuple[NewviewOp, ...]) -> None:
        for op in ops:
            call = self._prepare_op(op)
            self._store_op(op, *dispatch_call(self.backend, call))

    # ------------------------------------------------------------------
    # gradient up-sweep (pre-order partials + per-edge gradients)
    # ------------------------------------------------------------------
    def _prepare_preorder_op(self, op: PreorderOp) -> NewviewCall:
        """Resolve one pre-order partial into a ready backend call.

        The partial for edge ``e = (node -> child)`` is a ``newview`` at
        ``node`` combining (a) everything *across* the node's own up
        edge — the parent's partial when one exists, else the CLA/tip on
        the far side of the virtual root — and (b) the sibling subtree.
        Waves run in up-sweep level order, so the parent partial is
        already in ``self._pre`` by the time this op prepares.
        """
        tree = self.tree
        if op.across_is_partial:
            z1, sc1 = self._pre[op.up_edge]
            side1 = (self._branch_a(op.up_edge), z1, sc1)
        elif tree.is_leaf(op.across):
            side1 = (
                self._tip_lookup(op.up_edge),
                self._tip_codes[tree.name(op.across)],
            )
        else:
            z1, sc1 = self._clas[op.across]
            side1 = (self._branch_a(op.up_edge), z1, sc1)
        if tree.is_leaf(op.sibling):
            side2 = (
                self._tip_lookup(op.sibling_edge),
                self._tip_codes[tree.name(op.sibling)],
            )
        else:
            z2, sc2 = self._clas[op.sibling]
            side2 = (self._branch_a(op.sibling_edge), z2, sc2)
        if op.kind is KernelKind.PREORDER_TIP_TIP:
            args = (self.eigen.u_inv, *side1, *side2)
        elif op.kind is KernelKind.PREORDER_TIP_INNER:
            tip, inner = (side1, side2) if len(side1) == 2 else (side2, side1)
            a, z, sc = inner
            args = (self.eigen.u_inv, *tip, a, z, sc)
        else:
            a1, z1, sc1 = side1
            a2, z2, sc2 = side2
            args = (self.eigen.u_inv, a1, a2, z1, z2, sc1, sc2)
        return NewviewCall(op=op, kind=op.kind, args=args)

    def _store_preorder_op(
        self, op: PreorderOp, z: np.ndarray, sc: np.ndarray
    ) -> None:
        """Commit one pre-order partial (hook for eviction-aware engines)."""
        self._pre[op.edge] = (z, sc)
        self.counters.record(op.kind, self.patterns.n_patterns)

    def _run_preorder_ops(self, ops: tuple[PreorderOp, ...]) -> None:
        for op in ops:
            call = self._prepare_preorder_op(op)
            self._store_preorder_op(op, *dispatch_call(self.backend, call))

    def _node_side(self, node: int) -> tuple[np.ndarray, "np.ndarray | int"]:
        """``(z, scale)`` for one gradient operand: tip view or CLA."""
        if self.tree.is_leaf(node):
            codes = self._tip_codes[self.tree.name(node)]
            return self._tip_eigen[codes][:, None, :], 0
        return self._clas[node]

    def _edge_gradient(
        self,
        z_top: np.ndarray,
        z_bottom: np.ndarray,
        scales: "np.ndarray | int",
        t: float,
    ) -> tuple[float, float, float]:
        """Fused per-edge ``(lnL*, d1, d2)`` dispatch (overridable).

        ``scales`` (combined scale counts of the two operands) is unused
        here — the derivative ratios are scale-invariant — but engines
        whose mixture needs true per-site likelihoods (+I) override this
        hook and consume it.
        """
        return self.backend.edge_gradient(
            z_top,
            z_bottom,
            self.eigen.eigenvalues,
            self.rate_values,
            self.rate_weights,
            t,
            self.patterns.weights,
        )

    def _edge_gradient_site_terms(
        self, z_top: np.ndarray, z_bottom: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern ``(l, l', l'')`` of one edge gradient (parallel path)."""
        return self.backend.edge_gradient_terms(
            z_top, z_bottom, self.eigen.eigenvalues, self.rate_values,
            self.rate_weights, t,
        )

    def _run_gradient_ops(self, ops: tuple[EdgeGradientOp, ...]) -> None:
        tree = self.tree
        collect_terms = self._grad_terms is not None
        for op in ops:
            if op.top_is_partial:
                z_t, sc_t = self._pre[op.edge]
            else:
                z_t, sc_t = self._node_side(op.top)
            z_b, sc_b = self._node_side(op.bottom)
            t = tree.edge(op.edge).length
            if collect_terms:
                self._grad_terms[op.edge] = self._edge_gradient_site_terms(
                    z_t, z_b, t
                )
            else:
                _, d1, d2 = self._edge_gradient(z_t, z_b, sc_t + sc_b, t)
                self._grad[op.edge] = (d1, d2)
            self.counters.record(
                KernelKind.EDGE_GRADIENT, self.patterns.n_patterns
            )

    def plan_gradient(self, root_edge: int) -> GradientPlan:
        """Plan the bidirectional traversal for all-branch gradients.

        The down-sweep is the (signature-gated) post-order plan for the
        virtual root; the up-sweep computes one pre-order partial per
        directed non-root edge (``2N - 4`` of them) and one fused
        gradient per branch (``2N - 3``) — O(N) kernel calls total,
        against the O(N^2) of re-rooting ``derivativeSum`` at every
        branch.
        """
        tree = self.tree
        desc = GradientDescriptor(root_edge=root_edge)
        edge = tree.edge(root_edge)
        desc.grad_ops.append(
            EdgeGradientOp(
                edge=root_edge, top=edge.u, bottom=edge.v, top_is_partial=False
            )
        )
        stack: list[tuple[int, int, int, bool]] = []
        for node, other in ((edge.u, edge.v), (edge.v, edge.u)):
            if not tree.is_leaf(node):
                stack.append((node, root_edge, other, False))
        while stack:
            node, up_edge, across, across_partial = stack.pop()
            (c1, e1), (c2, e2) = tree.children(node, up_edge)
            for (child, eid), (sib, sib_eid) in (
                ((c1, e1), (c2, e2)),
                ((c2, e2), (c1, e1)),
            ):
                tips = int(not across_partial and tree.is_leaf(across))
                tips += int(tree.is_leaf(sib))
                kind = (
                    KernelKind.PREORDER_TIP_TIP
                    if tips == 2
                    else KernelKind.PREORDER_TIP_INNER
                    if tips == 1
                    else KernelKind.PREORDER_INNER_INNER
                )
                desc.pre_ops.append(
                    PreorderOp(
                        edge=eid, node=node, up_edge=up_edge, across=across,
                        across_is_partial=across_partial, sibling=sib,
                        sibling_edge=sib_eid, kind=kind,
                    )
                )
                desc.grad_ops.append(
                    EdgeGradientOp(
                        edge=eid, top=node, bottom=child, top_is_partial=True
                    )
                )
                if not tree.is_leaf(child):
                    stack.append((child, eid, node, True))
        return GradientPlan(
            root_edge=root_edge,
            down=self.plan_execution(root_edge),
            up=levelize_upsweep(desc),
        )

    def all_branch_gradients(
        self, root_edge: int | None = None, *, terms: bool = False
    ) -> dict[int, tuple]:
        """First and second lnL derivatives of **every** branch at once.

        One post-order down-sweep (reusing valid CLAs) plus one
        pre-order up-sweep yields ``{edge_id: (d1, d2)}`` for all
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
        plan = self.plan_gradient(root_edge)
        self._pre = {}
        self._grad = {}
        self._grad_terms = {} if terms else None
        n_edges = sum(
            1
            for w in plan.up.waves
            for op in w.ops
            if isinstance(op, EdgeGradientOp)
        )
        with _obs.span(
            "gradient.all_branches", edges=n_edges, up_waves=plan.up.depth
        ):
            self.execute_plan(plan.down)
            self.execute_plan(plan.up)
        if _obs.ENABLED:
            reg = _obs_metrics.get_registry()
            reg.counter(
                "repro_gradient_sweeps_total",
                "all-branch gradient up-sweeps",
            ).inc()
            reg.counter(
                "repro_gradient_upsweep_waves_total",
                "executed gradient up-sweep waves",
            ).inc(plan.up.depth)
        out = self._grad_terms if terms else self._grad
        self._pre = {}  # partials are single-sweep; release the memory
        self._grad_terms = None
        return out

    def plan_execution(self, root_edge: int) -> ExecutionPlan:
        """Plan and levelize the traversal for ``root_edge``."""
        return levelize(self.plan_traversal(root_edge))

    def execute_plan(self, plan: ExecutionPlan) -> None:
        """Run a levelized plan, wave by wave."""
        if not plan.waves:
            return
        self.wave_stats.plans += 1
        self.wave_stats.last_plan.clear()
        self._prep_cache.clear()
        with _obs.span("plan", waves=len(plan.waves), ops=plan.n_ops):
            for wave in plan.waves:
                self.run_wave(wave)

    def run_wave(self, wave: Wave) -> None:
        """Run one wave and record its :class:`WaveProfile`.

        Parallel drivers (fork-join, distributed, partitioned) call this
        directly to interleave their own synchronisation accounting
        between waves.
        """
        if not wave.ops:
            return
        profile = self.backend.profile
        b0 = sum(profile.bytes_moved.values())
        t0 = time.perf_counter()
        self._run_ops(wave.ops)
        elapsed = time.perf_counter() - t0
        self.wave_stats.record(
            WaveProfile(
                index=wave.index,
                width=wave.width,
                kernel_mix={k.value: n for k, n in wave.kernel_mix().items()},
                seconds=elapsed,
                bytes_moved=sum(profile.bytes_moved.values()) - b0,
            )
        )
        if _obs.ENABLED:
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

    def execute_traversal(self, desc: TraversalDescriptor) -> None:
        """Run the planned ``newview`` operations, updating CLAs in place.

        Compatibility wrapper: descriptors are levelized and executed as
        plans.
        """
        self.execute_plan(levelize(desc))

    def ensure_valid(self, root_edge: int) -> None:
        """Make both CLAs adjacent to ``root_edge`` valid."""
        self.execute_plan(self.plan_execution(root_edge))
        # Topology moves retire node ids; evict their CLAs once the cache
        # clearly outgrows the live tree (node ids are never reused, so a
        # dead entry can never come back to life).
        if len(self._clas) > 4 * self.tree.n_leaves:
            live = set(self.tree.nodes)
            for node in [n for n in self._clas if n not in live]:
                del self._clas[node]
                self._valid.pop(node, None)

    # ------------------------------------------------------------------
    # root-level quantities
    # ------------------------------------------------------------------
    def _root_sides(self, root_edge: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(z_left, z_right, scale_counts)`` for a validated root edge."""
        edge = self.tree.edge(root_edge)
        zs = []
        scales = np.zeros(self.patterns.n_patterns, dtype=np.int64)
        for node in (edge.u, edge.v):
            if self.tree.is_leaf(node):
                codes = self._tip_codes[self.tree.name(node)]
                zs.append(self._tip_eigen[codes][:, None, :])
            else:
                z, sc = self._clas[node]
                zs.append(z)
                scales = scales + sc
        return zs[0], zs[1], scales

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
        z_l, z_r, scales = self._root_sides(root_edge)
        exps = kernels.branch_exponentials(
            self.eigen, self.rate_values, self.tree.edge(root_edge).length
        )
        lnl = self.backend.evaluate_edge(
            z_l, z_r, exps, self.rate_weights, self.patterns.weights, scales
        )
        self.counters.record(KernelKind.EVALUATE, self.patterns.n_patterns)
        return lnl

    def site_log_likelihoods(self, root_edge: int | None = None) -> np.ndarray:
        """Per-pattern log-likelihoods (expand with ``patterns.expand``)."""
        if root_edge is None:
            root_edge = self.default_edge()
        self.ensure_valid(root_edge)
        z_l, z_r, scales = self._root_sides(root_edge)
        exps = kernels.branch_exponentials(
            self.eigen, self.rate_values, self.tree.edge(root_edge).length
        )
        self.counters.record(KernelKind.EVALUATE, self.patterns.n_patterns)
        return self.backend.site_log_likelihoods(
            z_l, z_r, exps, self.rate_weights, scales
        )

    def edge_sum_buffer(self, root_edge: int) -> np.ndarray:
        """The ``derivativeSum`` pre-computation for a branch.

        Valid for every trial length of *this* branch while the rest of
        the tree is unchanged — the reuse that makes Newton–Raphson
        iterations nearly free (Sec. IV).
        """
        self.ensure_valid(root_edge)
        z_l, z_r, _ = self._root_sides(root_edge)
        sumbuf = self.backend.derivative_sum(z_l, z_r)
        self.counters.record(KernelKind.DERIVATIVE_SUM, self.patterns.n_patterns)
        return sumbuf

    def branch_derivatives(
        self, sumbuf: np.ndarray, t: float
    ) -> tuple[float, float, float]:
        """``(lnL*, dlnL/dt, d2lnL/dt2)`` at trial branch length ``t``.

        ``lnL*`` omits the (t-independent) scaling correction; see
        :func:`repro.core.kernels.derivative_core`.
        """
        out = self.backend.derivative_core(
            sumbuf,
            self.eigen.eigenvalues,
            self.rate_values,
            self.rate_weights,
            t,
            self.patterns.weights,
        )
        self.counters.record(KernelKind.DERIVATIVE_CORE, self.patterns.n_patterns)
        return out

    def derivative_site_terms(
        self, sumbuf: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern ``(l, l', l'')`` of the ``derivativeCore`` site phase.

        Parallel engines call this on each worker's pattern slice, gather
        the three arrays in pattern order and reduce at the master with
        :func:`repro.core.kernels.derivative_reduce` — a fixed,
        worker-count-independent order, so the reduced derivatives are
        bit-identical to :meth:`branch_derivatives`.
        """
        out = self.backend.derivative_site_terms(
            sumbuf,
            self.eigen.eigenvalues,
            self.rate_values,
            self.rate_weights,
            t,
        )
        self.counters.record(KernelKind.DERIVATIVE_CORE, self.patterns.n_patterns)
        return out

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    @property
    def profile(self) -> KernelProfile:
        """The backend's measured per-kernel profile (wall time, bytes).

        Unlike :attr:`counters` (which tracks this engine's dispatches),
        the profile lives on the backend and aggregates across every
        engine sharing that backend instance — e.g. all ranks of a
        :class:`~repro.parallel.distributed.DistributedEngine`.
        """
        return self.backend.profile

    def reset_profile(self) -> None:
        """Zero counters, the backend profile, and wave statistics.

        Counters, profiles and wave stats are cumulative across repeated
        ``run()``/``log_likelihood()`` calls; call this between runs to
        obtain per-run measurements (e.g. before building a per-run
        :func:`repro.perf.trace.trace_from_profile`).
        """
        self.counters.reset()
        self.backend.profile.reset()
        self.wave_stats.reset()

    def reset_all_observability(self) -> None:
        """One-call reset of every cumulative measurement layer.

        Extends :meth:`reset_profile` (counters, backend profile, wave
        stats) with the process-wide :mod:`repro.obs` metrics registry
        and the live tracer's recorded spans/instants (when tracing is
        enabled), so a benchmark or traced search can start every run
        from a clean slate with a single call.
        """
        from ..obs import metrics as _obs_metrics
        from ..obs import spans as _obs

        self.reset_profile()
        _obs_metrics.get_registry().reset()
        if _obs.ENABLED:
            _obs.get_tracer().clear()

    def drop_caches(self) -> None:
        """Release all CLAs (memory-saving hook; they rebuild lazily)."""
        self._clas.clear()
        self._valid.clear()
        self._pre.clear()

    def cla_memory_bytes(self) -> int:
        """Current CLA memory footprint (the paper's 8 GB-per-card concern)."""
        return sum(z.nbytes + sc.nbytes for z, sc in self._clas.values())
