"""``compiled`` kernel backend: generated C behind the stable kernel API.

:class:`CompiledBackend` implements the full :class:`~repro.core.
backends.KernelBackend` protocol (plus the parallel-engine ``*_terms``
site phases) by calling into extension modules built on demand by
:mod:`repro.core.ckernels.build` from :mod:`~repro.core.ckernels.
codegen` source — one module per ``(n_states, n_rates)`` pair, resolved
from operand shapes at call time.  Each hook allocates its outputs with
``np.empty`` and makes one call; the C entry point reads the NumPy
operands through the buffer protocol, checks them and broadcasts
extent-1 axes itself, so no per-call marshalling is left in Python.

Division of labour per kernel:

* all per-site arithmetic (CLA contractions, scaling, site-likelihood
  and derivative site phases, element-wise products) runs in C;
* transcendental *tables* (the ``exp`` factors) and final reductions
  (``np.log``/``np.dot``/:func:`repro.core.kernels.derivative_reduce`)
  stay in NumPy, so reduction order — and hence every scalar the
  engines compare — is produced by exactly the same code path as the
  reference backend.

Each entry point releases the GIL around its site loop, so the
``threads`` worker substrate gets genuine parallel speedup from this
backend (NumPy kernels already release it inside ufuncs; here the whole
kernel body runs GIL-free).

When no C toolchain or no ``Python.h`` is available (or a compile
fails), the instance permanently swaps its arithmetic hooks for the
reference backend's NumPy ones, emits a one-time ``RuntimeWarning``, and
records the reason for ``repro backends``.  Timing and accounting live in the
shared base class either way, so the profile keeps one stream across
the switch.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..backends import ReferenceBackend, _BackendBase
from .build import CompilerUnavailable, load_kernels, probe_toolchain

__all__ = ["CompiledBackend"]

_warned_fallback = False


class CompiledBackend(_BackendBase):
    """Generated-C kernel extensions (``backend="compiled"``)."""

    name = "compiled"
    description = (
        "C kernels generated per (states, rates), compiled at first use "
        "with the system compiler and imported as an extension module; "
        "falls back to reference when no toolchain is available"
    )

    def __init__(self) -> None:
        super().__init__()
        self._libs: dict[tuple[int, int], object] = {}
        self.fallback_reason: str | None = None
        try:
            probe_toolchain()
        except CompilerUnavailable as exc:
            self._activate_fallback(str(exc))

    # -- toolchain plumbing -------------------------------------------
    def _activate_fallback(self, reason: str) -> None:
        """Swap every arithmetic hook for the reference backend's."""
        global _warned_fallback
        self.fallback_reason = reason
        for hook in self._HOOKS:
            setattr(self, hook, getattr(ReferenceBackend, hook))
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                f"compiled kernels unavailable ({reason}); "
                "falling back to the reference kernels "
                "(REPRO_BACKEND=reference selects them without this warning)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _dispatch(self, *call):
        try:
            return super()._dispatch(*call)
        except CompilerUnavailable as exc:  # compile failed at first use
            self._activate_fallback(str(exc))
            return super()._dispatch(*call)  # hooks are looked up by name

    def _lib(self, states: int, rates: int):
        lib = self._libs.get((states, rates))
        if lib is None:
            lib = self._libs[states, rates] = load_kernels(states, rates)
        return lib

    # -- newview -------------------------------------------------------
    def _tip_tip(self, u_inv, lookup1, codes1, lookup2, codes2):
        c, _, k = lookup1.shape
        p = codes1.shape[0]
        z = np.empty((p, c, k))
        self._lib(k, c).nv_tip_tip(u_inv, lookup1, codes1, lookup2, codes2, z)
        return z, np.zeros(p, dtype=np.int64)

    def _tip_inner(self, u_inv, lookup1, codes1, a2, z2, scale2):
        p, c, k = z2.shape
        z, sc = np.empty((p, c, k)), np.empty(p, dtype=np.int64)
        self._lib(k, c).nv_tip_inner(
            u_inv, lookup1, codes1, a2, z2, scale2, z, sc
        )
        return z, sc

    def _inner_inner(self, u_inv, a1, a2, z1, z2, scale1, scale2):
        p, c, k = z1.shape
        z, sc = np.empty((p, c, k)), np.empty(p, dtype=np.int64)
        self._lib(k, c).nv_inner_inner(
            u_inv, a1, a2, z1, z2, scale1, scale2, z, sc
        )
        return z, sc

    # -- evaluate ------------------------------------------------------
    def _site_likelihoods(self, z_left, z_right, exps, rate_weights):
        """Linear-scale per-site likelihoods via the C site loop."""
        c, k = np.shape(exps)
        out = np.empty(max(z_left.shape[0], z_right.shape[0]))
        self._lib(k, c).evaluate_site(z_left, z_right, exps, rate_weights, out)
        return out

    # -- derivatives ---------------------------------------------------
    def _product(self, z_left, z_right):
        out = np.empty(tuple(map(max, z_left.shape, z_right.shape)))
        _, c, k = out.shape
        self._lib(k, c).ew_product(z_left, z_right, out)
        return out

    def _terms(self, entry, p, operands, eigenvalues, rates, rate_weights, t):
        """Site terms of ``entry``; only the ``exp`` table is NumPy's."""
        rates = np.asarray(rates, dtype=np.float64)
        e = np.exp(np.multiply.outer(rates, eigenvalues) * t)
        c, k = e.shape
        out = np.empty(p), np.empty(p), np.empty(p)
        getattr(self._lib(k, c), entry)(
            *operands, e, rates, eigenvalues, rate_weights, *out
        )
        return out

    def _site_terms(self, sumbuf, *rate_args):
        p = sumbuf.shape[0]
        return self._terms("deriv_site_terms", p, (sumbuf,), *rate_args)

    # -- fused edge gradient ------------------------------------------
    def _gradient_terms(self, z_top, z_bottom, *rate_args):
        p = max(z_top.shape[0], z_bottom.shape[0])
        return self._terms("grad_site_terms", p, (z_top, z_bottom), *rate_args)
