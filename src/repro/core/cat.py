"""CAT (per-site rate) likelihood engine — the paper's named extension.

The paper's MIC port supports only the Gamma model; Sec. VII lists "the
CAT model of rate heterogeneity" as planned future work, and Sec. V-B2
explains why it is awkward on the MIC: one rate per site means 4 doubles
per site (32 bytes), which straddles the 64-byte alignment boundary
unless padded (handled by :class:`repro.core.layouts.InterleavedLayout`).

Under CAT (Stamatakis 2006), every site pattern is assigned to one of a
small number of rate categories, so a site's CLA is a single
``n_states`` vector and every branch-dependent table becomes per-site:

    P_p(t) = U diag(exp(lam * r_p * t)) U^-1

:class:`CatLikelihoodEngine` subclasses the Gamma engine, keeping its
traversal/validity machinery (CLAs stay ``(patterns, 1, states)`` so the
caching and scaling plumbing is shared) and overriding exactly the
branch-dependent kernels.
"""

from __future__ import annotations

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates
from ..phylo.tree import Tree
from .backends import KernelBackend
from .engine import LikelihoodEngine
from .scaling import LOG_SCALE_STEP, rescale_clv
from .traversal import KernelKind

__all__ = ["CatLikelihoodEngine", "assign_categories_by_likelihood"]


def assign_categories_by_likelihood(
    engine: "CatLikelihoodEngine",
    n_iterations: int = 3,
    root_edge: int | None = None,
) -> "CatLikelihoodEngine":
    """Likelihood-driven CAT category assignment (Stamatakis 2006).

    RAxML's CAT procedure assigns each site to the rate category that
    maximises that site's likelihood, then renormalises the rates so the
    weighted mean stays 1, iterating a few times.  This replaces the
    random assignment of :meth:`repro.phylo.rates.CatRates.from_gamma`
    with the data-driven one, and (like RAxML) typically raises the
    total log-likelihood substantially.

    Modifies ``engine.cat`` in place (via ``set_model``); returns the
    engine for chaining.
    """
    from ..phylo.rates import CatRates

    if root_edge is None:
        root_edge = engine.default_edge()
    for _ in range(n_iterations):
        rates = engine.cat.category_rates
        per_cat = np.empty((rates.shape[0], engine.patterns.n_patterns))
        original = engine.cat
        for c in range(rates.shape[0]):
            trial = CatRates(
                category_rates=rates,
                site_categories=np.full(
                    engine.patterns.n_patterns, c, dtype=np.int64
                ),
            )
            engine.cat = trial
            engine.set_model(engine.model)
            per_cat[c] = engine.site_log_likelihoods(root_edge)
        best = per_cat.argmax(axis=0)
        if np.array_equal(best, original.site_categories):
            engine.cat = original
            engine.set_model(engine.model)
            break
        mean = float(
            np.average(rates[best], weights=engine.patterns.weights)
        )
        engine.cat = CatRates(
            category_rates=rates / mean, site_categories=best
        )
        engine.set_model(engine.model)
    return engine


class CatLikelihoodEngine(LikelihoodEngine):
    """PLF engine with one substitution rate per site pattern.

    Exposes the same public surface as :class:`LikelihoodEngine`; the
    branch-length optimiser, model optimiser, and SPR search from
    :mod:`repro.search` run on it unchanged.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        cat: CatRates,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if cat.site_categories.shape[0] != patterns.n_patterns:
            raise ValueError(
                f"CAT assignment covers {cat.site_categories.shape[0]} "
                f"patterns, alignment has {patterns.n_patterns}"
            )
        self.cat = cat
        self._alpha = 1.0
        super().__init__(patterns, tree, model, rates=None, backend=backend)

    # ------------------------------------------------------------------
    # model handling
    # ------------------------------------------------------------------
    def set_model(self, model: SubstitutionModel, rates=None) -> None:  # noqa: ARG002
        from ..phylo.rates import GammaRates

        # The Gamma plumbing of the base engine is bypassed; a unit
        # single-category GammaRates keeps its bookkeeping satisfied.
        super().set_model(model, rates=GammaRates(1.0, 1))
        # Per-site rate vector; the single pseudo 'rate category' axis of
        # the CLA arrays stays length 1.
        self.site_rates = self.cat.site_rates()
        self.n_rates = 1

    def set_alpha(self, alpha: float) -> None:
        """Re-derive the category rates from a Gamma shape (keeps the
        per-site category assignment)."""
        self.set_cat(self.cat.with_alpha(alpha, self.patterns.weights), alpha)

    def set_cat(self, cat: CatRates, alpha: float | None = None) -> None:
        """Install a new CAT assignment (and the shape it came from)."""
        self.cat = cat
        if alpha is not None:
            self._alpha = alpha
        self.set_model(self.model)

    @property
    def alpha(self) -> float:
        return self._alpha

    # ------------------------------------------------------------------
    # per-site branch tables
    # ------------------------------------------------------------------
    def _site_exponentials(self, t: float) -> np.ndarray:
        """``exp(lam_k r_p t)`` per pattern, shape ``(patterns, states)``."""
        if t < 0:
            raise ValueError(f"negative branch length {t}")
        cat_exp = np.exp(
            np.multiply.outer(
                self.cat.category_rates * t, self.eigen.eigenvalues
            )
        )  # (C, s)
        return cat_exp[self.cat.site_categories]

    def _site_a(self, edge_id: int) -> np.ndarray:
        """Per-site ``A(t) = U diag(exp(...))``, shape ``(patterns, s, s)``."""
        e = self._site_exponentials(self.tree.edge(edge_id).length)
        return self.eigen.u[None, :, :] * e[:, None, :]

    def _site_tip_lookup(self, edge_id: int, codes: np.ndarray) -> np.ndarray:
        """``A_p(t) @ tipVector[code_p]`` per site, shape ``(p, s)``.

        Per-category lookup tables are built once per branch and gathered
        by (category, code) — the CAT equivalent of the tip table trick.
        """
        cat_exp = np.exp(
            np.multiply.outer(
                self.cat.category_rates * self.tree.edge(edge_id).length,
                self.eigen.eigenvalues,
            )
        )  # (C, s)
        a = self.eigen.u[None, :, :] * cat_exp[:, None, :]  # (C, s, s)
        lut = np.einsum("cik,mk->cmi", a, self._tip_eigen)  # (C, codes, s)
        return lut[self.cat.site_categories, codes]

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _run_newview_ops(self, ops) -> None:
        """CAT ``newview`` for one wave of independent ops.

        The per-site branch tables bypass the backend kernels;
        :meth:`run_wave` still drives the schedule (and collects wave
        statistics) unchanged.
        """
        tree = self.tree
        for op in ops:
            if op.kind is KernelKind.NEWVIEW_TIP_TIP:
                w1 = self._site_tip_lookup(
                    op.edge1, self._tip_codes[tree.name(op.child1)]
                )
                w2 = self._site_tip_lookup(
                    op.edge2, self._tip_codes[tree.name(op.child2)]
                )
                sc = np.zeros(self.patterns.n_patterns, dtype=np.int64)
            elif op.kind is KernelKind.NEWVIEW_TIP_INNER:
                if tree.is_leaf(op.child1):
                    tip_child, tip_edge = op.child1, op.edge1
                    inner_child, inner_edge = op.child2, op.edge2
                else:
                    tip_child, tip_edge = op.child2, op.edge2
                    inner_child, inner_edge = op.child1, op.edge1
                w1 = self._site_tip_lookup(
                    tip_edge, self._tip_codes[tree.name(tip_child)]
                )
                z2, sc2 = self._clas[inner_child]
                w2 = np.einsum("pik,pk->pi", self._site_a(inner_edge), z2[:, 0, :])
                sc = sc2.copy()
            else:
                z1, sc1 = self._clas[op.child1]
                z2, sc2 = self._clas[op.child2]
                w1 = np.einsum("pik,pk->pi", self._site_a(op.edge1), z1[:, 0, :])
                w2 = np.einsum("pik,pk->pi", self._site_a(op.edge2), z2[:, 0, :])
                sc = sc1 + sc2
            v = w1 * w2
            z_out = (v @ self.eigen.u_inv.T)[:, None, :]
            if op.kind is not KernelKind.NEWVIEW_TIP_TIP:
                rescale_clv(z_out, sc)
            self._store_op(op, z_out, sc)

    def _run_preorder_ops(self, ops) -> None:
        """CAT pre-order partials (same per-site math as the newview path)."""
        tree = self.tree
        for op in ops:
            if op.across_is_partial:
                z1, sc1 = self._pre[op.up_edge]
                w1 = np.einsum(
                    "pik,pk->pi", self._site_a(op.up_edge), z1[:, 0, :]
                )
                sc = sc1.copy()
            elif tree.is_leaf(op.across):
                w1 = self._site_tip_lookup(
                    op.up_edge, self._tip_codes[tree.name(op.across)]
                )
                sc = np.zeros(self.patterns.n_patterns, dtype=np.int64)
            else:
                z1, sc1 = self._clas[op.across]
                w1 = np.einsum(
                    "pik,pk->pi", self._site_a(op.up_edge), z1[:, 0, :]
                )
                sc = sc1.copy()
            if tree.is_leaf(op.sibling):
                w2 = self._site_tip_lookup(
                    op.sibling_edge, self._tip_codes[tree.name(op.sibling)]
                )
            else:
                z2, sc2 = self._clas[op.sibling]
                w2 = np.einsum(
                    "pik,pk->pi", self._site_a(op.sibling_edge), z2[:, 0, :]
                )
                sc = sc + sc2
            v = w1 * w2
            z_out = (v @ self.eigen.u_inv.T)[:, None, :]
            if op.kind is not KernelKind.PREORDER_TIP_TIP:
                rescale_clv(z_out, sc)
            self._store_preorder_op(op, z_out, sc)

    def _edge_gradient_site_terms(self, z_top, z_bottom, t):
        """CAT per-pattern gradient terms (per-site rates, no categories)."""
        sumbuf = (z_top * z_bottom)[:, 0, :]
        g = self.site_rates[:, None] * self.eigen.eigenvalues[None, :]
        e = np.exp(g * t)
        l0 = (sumbuf * e).sum(axis=1)
        l1 = (sumbuf * g * e).sum(axis=1)
        l2 = (sumbuf * g * g * e).sum(axis=1)
        return l0, l1, l2

    def _edge_gradient(self, z_top, z_bottom, scales, t):  # noqa: ARG002
        from .kernels import derivative_reduce

        return derivative_reduce(
            *self._edge_gradient_site_terms(z_top, z_bottom, t),
            self.patterns.weights,
        )

    # ------------------------------------------------------------------
    # root-level quantities
    # ------------------------------------------------------------------
    def _site_likelihoods_at(self, root_edge: int) -> tuple[np.ndarray, np.ndarray]:
        z_l, z_r, scales = self._root_sides(root_edge)
        e = self._site_exponentials(self.tree.edge(root_edge).length)
        terms = z_l[:, 0, :] * z_r[:, 0, :] * e
        return terms.sum(axis=1), scales

    def log_likelihood(self, root_edge: int | None = None) -> float:
        if root_edge is None:
            root_edge = self.default_edge()
        self.ensure_valid(root_edge)
        site_l, scales = self._site_likelihoods_at(root_edge)
        if np.any(site_l <= 0.0):
            raise FloatingPointError("non-positive CAT site likelihood")
        lnl = np.log(site_l) - scales * LOG_SCALE_STEP
        self.counters.record(KernelKind.EVALUATE, self.patterns.n_patterns)
        return float(np.dot(lnl, self.patterns.weights))

    def site_log_likelihoods(self, root_edge: int | None = None) -> np.ndarray:
        if root_edge is None:
            root_edge = self.default_edge()
        self.ensure_valid(root_edge)
        site_l, scales = self._site_likelihoods_at(root_edge)
        self.counters.record(KernelKind.EVALUATE, self.patterns.n_patterns)
        return np.log(site_l) - scales * LOG_SCALE_STEP

    def edge_sum_buffer(self, root_edge: int) -> np.ndarray:
        self.ensure_valid(root_edge)
        z_l, z_r, _ = self._root_sides(root_edge)
        sumbuf = self.backend.derivative_sum(z_l, z_r)[:, 0, :]
        self.counters.record(KernelKind.DERIVATIVE_SUM, self.patterns.n_patterns)
        return sumbuf

    def derivative_site_terms(
        self, sumbuf: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern ``(l, l', l'')`` with per-site CAT rates.

        Each pattern's terms depend only on that pattern's ``sumbuf`` row
        and rate, so worker slices reproduce the full-alignment values
        bit-for-bit — the property the parallel engines' fixed-order
        master reduction relies on.
        """
        g = self.site_rates[:, None] * self.eigen.eigenvalues[None, :]  # (p, s)
        e = np.exp(g * t)
        l0 = (sumbuf * e).sum(axis=1)
        l1 = (sumbuf * g * e).sum(axis=1)
        l2 = (sumbuf * g * g * e).sum(axis=1)
        self.counters.record(KernelKind.DERIVATIVE_CORE, self.patterns.n_patterns)
        return l0, l1, l2

    def branch_derivatives(self, sumbuf: np.ndarray, t: float) -> tuple[float, float, float]:
        from .kernels import derivative_reduce

        return derivative_reduce(
            *self.derivative_site_terms(sumbuf, t), self.patterns.weights
        )
