"""Memory-saving likelihood engine: CLA recomputation under a budget.

The paper's Sec. V-A lists "advanced memory saving techniques, which
rely on CLA recomputations [23]" (Izquierdo-Carrasco, Gagneur,
Stamatakis 2012) among the features its MIC port does *not* yet support
— a gap that matters on the Phi, whose 8 GB of on-card RAM is the
binding constraint for the 4000K-site dataset (Sec. VI-B2).  This module
supplies that extension: :class:`MemorySavingEngine` keeps at most
``max_resident`` conditional likelihood arrays alive and transparently
*recomputes* evicted ones when a traversal needs them again — trading
additional ``newview`` work for memory, exactly the paper-[23] tradeoff.

The implementation leans on the base engine's structural validity
tracking: an evicted CLA simply looks stale to the traversal planner, so
the recomputation logic is the ordinary planner and no separate
dependency bookkeeping is needed.  Eviction is least-recently-used,
which keeps the CLAs around the active virtual root resident (RAxML's
vector-pinning heuristic approximates the same behaviour).

Theoretical floor: a post-order recomputation only ever needs one CLA
per tree level, so ``max_resident >= ceil(log2(n_taxa)) + 2`` always
makes progress; we enforce a conservative minimum of 3.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from .backends import KernelBackend
from .engine import LikelihoodEngine
from .traversal import EdgeGradientOp, NewviewOp, PreorderOp

__all__ = ["MemorySavingEngine"]


def _note_recompute(node: int) -> None:
    """Trace one eviction-caused CLA recomputation (obs must be enabled)."""
    _obs.instant("cla_recompute", node=node)
    _obs_metrics.get_registry().counter(
        "repro_cla_recomputes_total",
        "extra newview dispatches caused by CLA eviction",
    ).inc()


class MemorySavingEngine(LikelihoodEngine):
    """Likelihood engine with a hard cap on resident CLAs.

    Parameters
    ----------
    max_resident:
        Maximum number of internal-node CLAs kept in memory (>= 3).
        With ``n`` taxa the full engine holds ``n - 2``; the memory
        fraction used is roughly ``max_resident / (n - 2)``.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        max_resident: int = 8,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if max_resident < 3:
            raise ValueError("max_resident must be at least 3")
        self.max_resident = max_resident
        self._clock = count()
        self._last_used: dict[int, int] = {}
        # Counted pins: the same node can be pinned by nested scopes
        # (e.g. as a root endpoint *and* as an operand), so membership
        # alone would let an inner unpin clobber an outer pin.
        self._pin_counts: dict[int, int] = {}
        self.recomputed_clas = 0  # extra newview work caused by eviction
        self._computed_once: set[int] = set()
        # Pre-order partials share the CLA budget: their own LRU stamps,
        # pins, and op descriptors (for eviction-driven recomputation).
        self._pre_last_used: dict[int, int] = {}
        self._pre_pin_counts: dict[int, int] = {}
        self._pre_ops: dict[int, PreorderOp] = {}
        self.recomputed_pre = 0  # extra pre-order work caused by eviction
        super().__init__(patterns, tree, model, rates, backend=backend)

    # ------------------------------------------------------------------
    def _touch(self, node: int) -> None:
        self._last_used[node] = next(self._clock)

    def _pin(self, node: int) -> None:
        self._pin_counts[node] = self._pin_counts.get(node, 0) + 1

    def _unpin(self, node: int) -> None:
        remaining = self._pin_counts.get(node, 0) - 1
        if remaining <= 0:
            self._pin_counts.pop(node, None)
        else:
            self._pin_counts[node] = remaining

    def _touch_pre(self, edge: int) -> None:
        self._pre_last_used[edge] = next(self._clock)

    def _pin_pre(self, edge: int) -> None:
        self._pre_pin_counts[edge] = self._pre_pin_counts.get(edge, 0) + 1

    def _unpin_pre(self, edge: int) -> None:
        remaining = self._pre_pin_counts.get(edge, 0) - 1
        if remaining <= 0:
            self._pre_pin_counts.pop(edge, None)
        else:
            self._pre_pin_counts[edge] = remaining

    def _store_op(self, op: NewviewOp, z: np.ndarray, sc: np.ndarray) -> None:
        super()._store_op(op, z, sc)
        self._touch(op.node)
        self._computed_once.add(op.node)

    def _store_preorder_op(self, op, z: np.ndarray, sc: np.ndarray) -> None:
        super()._store_preorder_op(op, z, sc)
        self._touch_pre(op.edge)

    def _run_newview_ops(self, ops: tuple[NewviewOp, ...]) -> None:
        """Wave execution with CLA slot recycling.

        A wave may be wider than the CLA budget, so it is processed in
        sub-batches of at most ``max_resident // 3`` ops (each op can
        pin up to three slots: its two operands and its result).  Before
        a sub-batch dispatches, any operand evicted since its producing
        wave is transparently rematerialised; the operands and fresh
        results stay pinned until the sub-batch commits, then the LRU
        sweep reclaims slots for the next one.
        """
        limit = max(1, self.max_resident // 3)
        for start in range(0, len(ops), limit):
            chunk = ops[start:start + limit]
            pinned: list[int] = []
            try:
                for op in chunk:
                    for child, edge in (
                        (op.child1, op.edge1), (op.child2, op.edge2)
                    ):
                        if not self.tree.is_leaf(child):
                            self._materialize(child, edge)
                            self._pin(child)
                            pinned.append(child)
                    self._pin(op.node)
                    pinned.append(op.node)
                    # Extra newview work caused by eviction: the node was
                    # computed before but its CLA slot has been recycled.
                    if op.node in self._computed_once and op.node not in self._clas:
                        self.recomputed_clas += 1
                        if _obs.ENABLED:
                            _note_recompute(op.node)
                super()._run_newview_ops(tuple(chunk))
            finally:
                for node in pinned:
                    self._unpin(node)
            self._evict()

    def _run_preorder_ops(self, ops: tuple[PreorderOp, ...]) -> None:
        """Up-sweep partials under the CLA budget.

        Partials join the post-order CLAs in one shared eviction pool:
        each sub-batch pins its operands (the parent's partial, the
        across/sibling down CLAs — rematerialised if recycled) and its
        fresh results, then releases them to the LRU sweep.
        """
        limit = max(1, self.max_resident // 3)
        for start in range(0, len(ops), limit):
            chunk = ops[start:start + limit]
            pinned: list[int] = []
            pinned_pre: list[int] = []
            try:
                for op in chunk:
                    self._pre_ops[op.edge] = op
                    if op.across_is_partial:
                        self._materialize_pre(op.up_edge)
                        self._pin_pre(op.up_edge)
                        pinned_pre.append(op.up_edge)
                    elif not self.tree.is_leaf(op.across):
                        self._materialize(op.across, op.up_edge)
                        self._pin(op.across)
                        pinned.append(op.across)
                    if not self.tree.is_leaf(op.sibling):
                        self._materialize(op.sibling, op.sibling_edge)
                        self._pin(op.sibling)
                        pinned.append(op.sibling)
                    self._pin_pre(op.edge)
                    pinned_pre.append(op.edge)
                super()._run_preorder_ops(tuple(chunk))
            finally:
                for node in pinned:
                    self._unpin(node)
                for edge in pinned_pre:
                    self._unpin_pre(edge)
            self._evict()

    def _materialize_pre(self, edge: int) -> None:
        """Rematerialise one (possibly evicted) pre-order partial.

        Recursive toward the virtual root, mirroring :meth:`_materialize`
        for post-order CLAs; each recomputation is a single dispatch
        with its operands pinned.
        """
        if edge in self._pre:
            self._touch_pre(edge)
            return
        op = self._pre_ops[edge]
        self.recomputed_pre += 1
        if _obs.ENABLED:
            _obs.instant("pre_recompute", edge=edge)
            _obs_metrics.get_registry().counter(
                "repro_pre_recomputes_total",
                "extra pre-order dispatches caused by eviction",
            ).inc()
        self._pin_pre(edge)
        pinned: list[int] = []
        pinned_pre: list[int] = []
        try:
            if op.across_is_partial:
                self._materialize_pre(op.up_edge)
                self._pin_pre(op.up_edge)
                pinned_pre.append(op.up_edge)
            elif not self.tree.is_leaf(op.across):
                self._materialize(op.across, op.up_edge)
                self._pin(op.across)
                pinned.append(op.across)
            if not self.tree.is_leaf(op.sibling):
                self._materialize(op.sibling, op.sibling_edge)
                self._pin(op.sibling)
                pinned.append(op.sibling)
            LikelihoodEngine._run_preorder_ops(self, (op,))
            self._evict()
        finally:
            for node in pinned:
                self._unpin(node)
            for e in pinned_pre:
                self._unpin_pre(e)
            self._unpin_pre(edge)

    def _run_gradient_ops(self, ops: tuple[EdgeGradientOp, ...]) -> None:
        """Per-edge gradients with operand rematerialisation + pinning."""
        for op in ops:
            pinned: list[int] = []
            pinned_pre: list[int] = []
            try:
                if op.top_is_partial:
                    self._materialize_pre(op.edge)
                    self._pin_pre(op.edge)
                    pinned_pre.append(op.edge)
                elif not self.tree.is_leaf(op.top):
                    self._materialize(op.top, op.edge)
                    self._pin(op.top)
                    pinned.append(op.top)
                if not self.tree.is_leaf(op.bottom):
                    self._materialize(op.bottom, op.edge)
                    self._pin(op.bottom)
                    pinned.append(op.bottom)
                super()._run_gradient_ops((op,))
            finally:
                for node in pinned:
                    self._unpin(node)
                for edge in pinned_pre:
                    self._unpin_pre(edge)
        self._evict()

    def ensure_valid(self, root_edge: int) -> None:
        """Execute the plan, pinning the two root CLAs against each other.

        Without the pin, later waves (or the second root side) could
        evict the first root CLA under a tight budget, leaving
        ``_root_sides`` nothing to read.
        """
        plan = self.plan_execution(root_edge)  # refreshes signature table
        edge = self.tree.edge(root_edge)
        pins = [n for n in (edge.u, edge.v) if not self.tree.is_leaf(n)]
        for node in pins:
            self._pin(node)
        try:
            self.execute_plan(plan)
            # A root side that was valid at plan time may have been
            # recycled earlier; rematerialise on demand.
            for node in pins:
                self._materialize(node, root_edge)
        finally:
            for node in pins:
                self._unpin(node)
        self._evict()
        # drop CLAs of nodes removed by topology moves (as in the base)
        live = set(self.tree.nodes)
        for node in [n for n in self._clas if n not in live]:
            del self._clas[node]
            self._valid.pop(node, None)
            self._last_used.pop(node, None)

    def _materialize(self, node: int, up_edge: int) -> None:
        """Depth-first rematerialisation of one (possibly evicted) CLA.

        Recursive with pinning: while a node's op runs, its children are
        pinned so the LRU eviction cannot drop an operand between its
        (re)computation and its use.  Dispatch goes straight through the
        base engine — a recompute is a single op, not a wave.
        """
        tree = self.tree
        if tree.is_leaf(node):
            return
        sig = self._last_sigs.get((node, up_edge))
        cached = self._valid.get(node)
        if node in self._clas and sig is not None and cached == (up_edge, sig):
            self._touch(node)
            return
        op = self._make_op(node, up_edge)
        if node in self._computed_once and node not in self._clas:
            self.recomputed_clas += 1
            if _obs.ENABLED:
                _note_recompute(node)
        self._pin(node)
        try:
            self._materialize(op.child1, op.edge1)
            self._pin(op.child1)
            try:
                self._materialize(op.child2, op.edge2)
                self._pin(op.child2)
                try:
                    LikelihoodEngine._run_ops(self, (op,))
                finally:
                    self._unpin(op.child2)
            finally:
                self._unpin(op.child1)
            # Evict while the fresh result is still pinned: when pinned
            # entries alone exceed the budget, the LRU sweep would
            # otherwise consume the node we just produced.
            self._evict()
        finally:
            self._unpin(node)

    def _evict(self) -> None:
        """Drop least-recently-used buffers beyond the budget.

        Post-order CLAs and pre-order partials share one pool under the
        same ``max_resident`` cap and one LRU clock.  Pinned entries are
        never evicted, so during deep recomputations the cap is exceeded
        by at most the recursion path length (the log-depth floor of the
        recomputation strategy).
        """
        while len(self._clas) + len(self._pre) > self.max_resident:
            victims = [
                ("cla", n) for n in self._clas if n not in self._pin_counts
            ] + [
                ("pre", e) for e in self._pre if e not in self._pre_pin_counts
            ]
            if not victims:
                return
            pool, victim = min(
                victims,
                key=lambda kv: (
                    self._last_used if kv[0] == "cla" else self._pre_last_used
                ).get(kv[1], -1),
            )
            if pool == "cla":
                del self._clas[victim]
                self._valid.pop(victim, None)
                self._last_used.pop(victim, None)
            else:
                del self._pre[victim]
                self._pre_last_used.pop(victim, None)
            if _obs.ENABLED:
                _obs.instant("cla_evict", node=victim, pool=pool)
                _obs_metrics.get_registry().counter(
                    "repro_cla_evictions_total", "CLA slots recycled by LRU"
                ).inc()

    def _root_sides(self, root_edge: int):
        edge = self.tree.edge(root_edge)
        for node in (edge.u, edge.v):
            if not self.tree.is_leaf(node):
                self._touch(node)
        return super()._root_sides(root_edge)

    def all_branch_gradients(
        self, root_edge: int | None = None, *, terms: bool = False
    ):
        """All-branch gradients under the CLA budget (see the base class).

        Pre-order bookkeeping (LRU stamps, op descriptors) is scoped to
        one sweep, exactly like the partials themselves.
        """
        self._pre_last_used.clear()
        self._pre_pin_counts.clear()
        self._pre_ops.clear()
        try:
            return super().all_branch_gradients(root_edge, terms=terms)
        finally:
            self._pre_last_used.clear()
            self._pre_ops.clear()

    # ------------------------------------------------------------------
    def resident_clas(self) -> int:
        return len(self._clas)

    def memory_fraction(self) -> float:
        """Resident CLA memory relative to the full (uncapped) engine."""
        full = max(1, self.tree.n_leaves - 2)
        return min(1.0, self.max_resident / full)
