"""Proportion-of-invariant-sites mixture: ``+I`` over any rate model.

The classic extension of the paper's GTR+Gamma configuration: a fraction
``p_inv`` of sites is assumed strictly invariable (substitution rate 0),
the remainder evolves under the wrapped rate model (Gamma or CAT), with
the variable-class rates rescaled by ``1/(1 - p_inv)`` so the expected
rate stays 1 and branch lengths keep their units.  Per site,

    L = p_inv * I(site) + (1 - p_inv) * L_inner(site)

where the invariant mass ``I`` is the stationary probability of a state
compatible with *every* tip character — a branch-length- and
topology-independent constant per pattern (the rate-0 transition matrix
is the identity).  The mixture therefore lives entirely at the root:
CLAs and per-site derivative terms are the inner model's, and
only the final per-site combination is reweighted.

Numerically the mixture is combined in log space so the per-site scaling
counters of deep trees never have to be un-scaled (``exp(256 c ln 2)``
overflows immediately); the derivative path uses the identity
``d lnL/dt = (G/L) * d lnG/dt`` with the variable fraction ``G/L``
computed from log quantities — which is why the sum buffer carries the
root scale counters along.
"""

from __future__ import annotations

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from .ratemodel import RateModel
from .scaling import LOG_SCALE_STEP

__all__ = ["InvariantMixture"]


class InvariantMixture(RateModel):
    """``p_inv``-weighted mixture of an invariant class and ``inner``.

    Owns no tables of its own: ops and tips go straight to ``inner``.
    """

    def __init__(
        self,
        inner: RateModel,
        patterns: PatternAlignment,
        model: SubstitutionModel,
        p_inv: float,
    ) -> None:
        # RateModel.__init__ (eigen system, tip table) is deliberately not
        # run: those are ``inner``'s.
        self.inner = inner
        self.p_inv = p_inv
        self.weights = patterns.weights
        inner.rate_values = inner.rate_values / (1.0 - p_inv)
        self.combine = inner.combine
        self.tip_view = inner.tip_view
        # invariant mass per pattern: pi-weighted compatibility of a
        # constant column (AND of all tip bitmask codes)
        mask = patterns.data[0].astype(np.uint64)
        for row in patterns.data[1:]:
            mask = mask & row.astype(np.uint64)
        inv_mass = patterns.states.tip_rows(mask) @ model.frequencies
        with np.errstate(divide="ignore"):
            self._log_inv = np.log(p_inv) + np.log(inv_mass)

    @property
    def rate_values(self) -> np.ndarray:
        """The inner model's (rescaled) category rates."""
        return self.inner.rate_values

    def site_log_likelihoods(self, z_left, z_right, scales, t):
        lg = self.inner.site_log_likelihoods(z_left, z_right, scales, t)
        return np.logaddexp(self._log_inv, np.log1p(-self.p_inv) + lg)

    def sum_buffer(self, z_left, z_right, scales):
        """The inner sum buffer plus the scale counters the mixture needs."""
        return self.inner.sum_buffer(z_left, z_right, scales), scales

    def derivative_site_terms(self, sumbuf, t):
        raise NotImplementedError(
            "+I derivatives are serial-only: the invariant mixture needs "
            "per-site scale counters, which the plain three-term parallel "
            "reduction does not carry"
        )

    def branch_derivatives(self, sumbuf_scales, t):
        sumbuf, scales = sumbuf_scales
        l0, l1, l2 = self.inner.derivative_site_terms(sumbuf, t)
        if np.any(l0 <= 0.0):
            raise FloatingPointError("non-positive site likelihood in +I model")
        # variable fraction G/L per site, scale-count safe (log space):
        # log G = log(1-p) + log(l0_computed) - scales * LOG_SCALE_STEP
        log_g = np.log1p(-self.p_inv) + np.log(l0) - scales * LOG_SCALE_STEP
        log_total = np.logaddexp(log_g, self._log_inv)
        g_frac = np.exp(log_g - log_total)
        r1 = g_frac * (l1 / l0)
        d2 = g_frac * (l2 / l0) - r1 * r1
        w = self.weights
        return (
            float(np.dot(log_total, w)),
            float(np.dot(r1, w)),
            float(np.dot(d2, w)),
        )
