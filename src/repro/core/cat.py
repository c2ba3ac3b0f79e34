"""CAT (per-site rate) model — the paper's named extension.

The paper's MIC port supports only the Gamma model; Sec. VII lists "the
CAT model of rate heterogeneity" as planned future work, and Sec. V-B2
explains why it is awkward on the MIC: one rate per site means 4 doubles
per site (32 bytes), which straddles the 64-byte alignment boundary
unless padded (handled by :class:`repro.core.layouts.InterleavedLayout`).

Under CAT (Stamatakis 2006), every site pattern is assigned to one of a
small number of rate categories, so a site's CLA is a single
``n_states`` vector and every branch-dependent table becomes per-site:

    P_p(t) = U diag(exp(lam * r_p * t)) U^-1

:class:`CatModel` is the :class:`~repro.core.ratemodel.RateModel` the
engine builds when it is given :class:`~repro.phylo.rates.CatRates`:
CLAs stay ``(patterns, 1, states)`` so the engine's planning, validity
and storage are shared with Gamma, and the per-site branch tables are
plain NumPy (they bypass the backend's per-category kernels).
"""

from __future__ import annotations

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates
from . import kernels
from .backends import KernelBackend
from .ratemodel import RateModel
from .scaling import rescale_clv
from .traversal import KernelKind

__all__ = ["CatModel", "assign_categories_by_likelihood"]


def assign_categories_by_likelihood(engine, n_iterations: int = 3, root_edge=None):
    """Likelihood-driven CAT category assignment (Stamatakis 2006).

    RAxML's CAT procedure assigns each site to the rate category that
    maximises that site's likelihood, then renormalises the rates so the
    weighted mean stays 1, iterating a few times.  This replaces the
    random assignment of :meth:`repro.phylo.rates.CatRates.from_gamma`
    with the data-driven one, and (like RAxML) typically raises the
    total log-likelihood substantially.

    Installs each assignment through ``engine.set_cat``; returns the
    engine for chaining.
    """
    if root_edge is None:
        root_edge = engine.default_edge()
    n_patterns = engine.patterns.n_patterns
    for _ in range(n_iterations):
        original = engine.cat
        rates = original.category_rates
        per_cat = np.empty((rates.shape[0], n_patterns))
        for c in range(rates.shape[0]):
            engine.set_cat(
                CatRates(rates, np.full(n_patterns, c, dtype=np.int64))
            )
            per_cat[c] = engine.site_log_likelihoods(root_edge)
        best = per_cat.argmax(axis=0)
        if np.array_equal(best, original.site_categories):
            engine.set_cat(original)
            break
        mean = float(np.average(rates[best], weights=engine.patterns.weights))
        engine.set_cat(CatRates(rates / mean, best))
    return engine


class CatModel(RateModel):
    """One substitution rate per site pattern."""

    def __init__(
        self,
        backend: KernelBackend,
        patterns: PatternAlignment,
        model: SubstitutionModel,
        cat: CatRates,
    ) -> None:
        super().__init__(backend, patterns, model)
        self.rate_values = cat.category_rates
        self.site_categories = cat.site_categories

    @property
    def site_rates(self) -> np.ndarray:
        """Per-pattern rate vector."""
        return self.rate_values[self.site_categories]

    def _category_exponentials(self, t: float) -> np.ndarray:
        """``exp(lam_k r_c t)`` per category, shape ``(C, states)``."""
        if not t >= 0:  # also refuses NaN
            raise ValueError(f"negative or NaN branch length {t}")
        return np.exp(np.multiply.outer(self.rate_values * t, self.eigen.eigenvalues))

    def _project(self, operand: tuple) -> tuple[np.ndarray, "np.ndarray | int"]:
        """One operand pushed across its branch: ``(A_p(t) x_p, scale)``.

        Tips gather from per-category lookup tables built once per
        branch — the CAT equivalent of the tip table trick.
        """
        cat_exp = self._category_exponentials(operand[-1])
        a = self.eigen.u[None, :, :] * cat_exp[:, None, :]  # (C, s, s)
        if len(operand) == 2:
            lut = np.einsum("cik,mk->cmi", a, self.tip_eigen)  # (C, codes, s)
            return lut[self.site_categories, operand[0]], 0
        z, scale, _ = operand
        return np.einsum("pik,pk->pi", a[self.site_categories], z[:, 0, :]), scale

    def combine(self, kind: KernelKind, a: tuple, b: tuple):
        w1, sc1 = self._project(a)
        w2, sc2 = self._project(b)
        z = ((w1 * w2) @ self.eigen.u_inv.T)[:, None, :]
        if len(a) == len(b) == 2:  # two tips: nothing to rescale yet
            return z, np.zeros(z.shape[0], dtype=np.int64)
        scale = sc1 + sc2
        rescale_clv(z, scale)
        return z, scale

    def site_log_likelihoods(self, z_left, z_right, scales, t):
        e = self._category_exponentials(t)[self.site_categories]
        site_l = (z_left[:, 0, :] * z_right[:, 0, :] * e).sum(axis=1)
        return kernels.log_site_likelihoods(site_l, scales)

    def sum_buffer(self, z_left, z_right, scales):
        return self.backend.derivative_sum(z_left, z_right)[:, 0, :]

    def derivative_site_terms(self, sumbuf, t):
        """Per-pattern ``(l, l', l'')`` with per-site rates.

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
        return l0, l1, l2
