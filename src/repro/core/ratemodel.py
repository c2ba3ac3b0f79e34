"""Rate models: every branch-dependent formula of the PLF, written once.

:class:`~repro.core.engine.LikelihoodEngine` plans traversals, resolves
operands and keeps the books; *what* is computed from two resolved
operands is the rate model's business.  One is built per ``(model,
rates)`` pair — :meth:`LikelihoodEngine.set_model` simply makes a new
one — from the rates the engine was given:

``GammaRates``  -> :class:`GammaModel` (this module): the kernel backend
    plus the branch-length operand cache;
``CatRates``    -> :class:`repro.core.cat.CatModel`: per-site NumPy math;
``p_inv``       -> :class:`repro.core.invariant.InvariantMixture`, a
    root-level mixture wrapped around either.

The interface (:class:`RateModel`) takes *resolved* operands only — a
tip is ``(codes, t)``, a CLA ``(z, scale, t)``, ``t`` being the length
of the branch the operand is seen across — so a rate model never sees
the tree, the CLA store or an op descriptor.
"""

from __future__ import annotations

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from . import kernels
from .backends import KernelBackend
from .traversal import KernelKind

__all__ = ["RateModel", "GammaModel"]


class RateModel:
    """What the engine asks of a rate model.

    Subclasses supply ``combine``, ``site_log_likelihoods``,
    ``sum_buffer`` and ``derivative_site_terms``; the scalar reductions
    below are defined from them (a subclass may fuse one into a single
    backend dispatch, never change its value).  ``rate_values`` holds the
    category rates every branch table is derived from.
    """

    rate_values: np.ndarray

    def __init__(
        self,
        backend: KernelBackend,
        patterns: PatternAlignment,
        model: SubstitutionModel,
    ) -> None:
        self.backend = backend
        self.weights = patterns.weights
        self.eigen = model.eigen()
        states = patterns.states
        if states.n_states <= 8:
            self.tip_eigen = kernels.tip_eigen_table(self.eigen, states.tip_table())
        else:
            # Large alphabets (protein): build rows only for codes present.
            codes = np.unique(patterns.data)
            dense = np.zeros((int(codes.max()) + 1, model.n_states))
            dense[codes] = states.tip_rows(codes)
            self.tip_eigen = dense @ self.eigen.u_inv.T

    def tip_view(self, codes: np.ndarray) -> np.ndarray:
        """A tip as a CLA-shaped operand of the root-level kernels."""
        return self.tip_eigen[codes][:, None, :]

    # -- supplied by the subclass ----------------------------------------
    def combine(self, kind: KernelKind, a: tuple, b: tuple):
        """``(z, scale)`` of a ``newview`` op from its two operands."""
        raise NotImplementedError

    def site_log_likelihoods(self, z_left, z_right, scales, t: float) -> np.ndarray:
        """Per-pattern lnL at a root branch of length ``t``."""
        raise NotImplementedError

    def sum_buffer(self, z_left, z_right, scales):
        """The ``derivativeSum`` pre-computation (opaque to the caller)."""
        raise NotImplementedError

    def derivative_site_terms(self, sumbuf, t: float):
        """Per-pattern ``(l, l', l'')`` at trial length ``t``."""
        raise NotImplementedError

    # -- defined from the above ------------------------------------------
    def log_likelihood(self, z_left, z_right, scales, t: float) -> float:
        lnl = self.site_log_likelihoods(z_left, z_right, scales, t)
        return float(np.dot(lnl, self.weights))

    def branch_derivatives(self, sumbuf, t: float) -> tuple[float, float, float]:
        """``(lnL*, dlnL/dt, d2lnL/dt2)``; ``lnL*`` omits the scaling."""
        return kernels.derivative_reduce(
            *self.derivative_site_terms(sumbuf, t), self.weights
        )

    def edge_gradient_terms(self, z_top, z_bottom, t: float):
        """Per-pattern ``(l, l', l'')`` of one edge of the gradient sweep."""
        return self.derivative_site_terms(
            self.sum_buffer(z_top, z_bottom, None), t
        )

    def edge_gradient(self, z_top, z_bottom, scales, t: float):
        """Fused ``sum_buffer`` + ``branch_derivatives`` of one edge."""
        return self.branch_derivatives(self.sum_buffer(z_top, z_bottom, scales), t)


class GammaModel(RateModel):
    """Discrete-Gamma heterogeneity: the kernel backend does the arithmetic.

    This is the single place a plan op becomes a backend call
    (``KernelKind.value`` *is* the backend method name).  Branch matrices
    and tip lookup tables are cached by branch *length* for the life of
    the model, so ops with equal lengths share operand arrays.
    """

    #: Entry cap on the operand cache (distinct branch lengths met);
    #: beyond it the cache is wiped wholesale, bounding long searches.
    _PREP_CACHE_MAX = 512

    def __init__(
        self,
        backend: KernelBackend,
        patterns: PatternAlignment,
        model: SubstitutionModel,
        rates: GammaRates,
    ) -> None:
        super().__init__(backend, patterns, model)
        self.rate_values = rates.rates
        self.rate_weights = rates.weights
        self._prep_cache: dict[tuple, np.ndarray] = {}

    def _matrices(self, t: float) -> np.ndarray:
        """Per-rate branch matrices ``A(t)``, cached by length."""
        key = ("a", t)
        a = self._prep_cache.get(key)
        if a is None:
            if len(self._prep_cache) > self._PREP_CACHE_MAX:
                self._prep_cache.clear()
            a = kernels.branch_matrices(self.eigen, self.rate_values, t)
            self._prep_cache[key] = a
        return a

    def _lookup(self, t: float) -> np.ndarray:
        """Tip lookup table for length ``t``, cached beside :meth:`_matrices`."""
        key = ("lut", t)
        lut = self._prep_cache.get(key)
        if lut is None:
            lut = kernels.tip_branch_lookup(self._matrices(t), self.tip_eigen)
            self._prep_cache[key] = lut
        return lut

    def combine(self, kind: KernelKind, a: tuple, b: tuple):
        if len(a) == 3 and len(b) == 2:
            a, b = b, a  # the mixed kernel takes its tip operand first
        kernel = getattr(self.backend, kind.value)
        u_inv = self.eigen.u_inv
        if len(b) == 2:
            return kernel(
                u_inv, self._lookup(a[1]), a[0], self._lookup(b[1]), b[0]
            )
        z2, sc2, t2 = b
        if len(a) == 2:
            return kernel(
                u_inv, self._lookup(a[1]), a[0], self._matrices(t2), z2, sc2
            )
        z1, sc1, t1 = a
        return kernel(
            u_inv, self._matrices(t1), self._matrices(t2), z1, z2, sc1, sc2
        )

    def _exponentials(self, t: float) -> np.ndarray:
        return kernels.branch_exponentials(self.eigen, self.rate_values, t)

    def site_log_likelihoods(self, z_left, z_right, scales, t):
        return self.backend.site_log_likelihoods(
            z_left, z_right, self._exponentials(t), self.rate_weights, scales
        )

    def log_likelihood(self, z_left, z_right, scales, t):
        return self.backend.evaluate_edge(
            z_left, z_right, self._exponentials(t), self.rate_weights,
            self.weights, scales,
        )

    def sum_buffer(self, z_left, z_right, scales):
        return self.backend.derivative_sum(z_left, z_right)

    def _rate_args(self, t: float) -> tuple:
        return self.eigen.eigenvalues, self.rate_values, self.rate_weights, t

    def derivative_site_terms(self, sumbuf, t):
        return self.backend.derivative_site_terms(sumbuf, *self._rate_args(t))

    def branch_derivatives(self, sumbuf, t):
        return self.backend.derivative_core(
            sumbuf, *self._rate_args(t), self.weights
        )

    def edge_gradient_terms(self, z_top, z_bottom, t):
        return self.backend.edge_gradient_terms(
            z_top, z_bottom, *self._rate_args(t)
        )

    def edge_gradient(self, z_top, z_bottom, scales, t):
        return self.backend.edge_gradient(
            z_top, z_bottom, *self._rate_args(t), self.weights
        )
