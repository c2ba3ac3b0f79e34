"""``compiled`` kernel backend: generated C behind the stable kernel API.

:class:`CompiledBackend` implements the full :class:`~repro.core.
backends.KernelBackend` protocol (plus the parallel-engine ``*_terms``
site phases) by dispatching into shared objects built on demand by
:mod:`repro.core.ckernels.build` from :mod:`~repro.core.ckernels.
codegen` source — one object per ``(n_states, n_rates)`` pair, resolved
from operand shapes at call time.

Division of labour per kernel:

* all per-site arithmetic (CLA contractions, scaling, site-likelihood
  and derivative site phases, element-wise products) runs in C;
* transcendental *tables* (``exp`` factors) and final reductions
  (``np.log``/``np.dot``/:func:`repro.core.kernels.derivative_reduce`)
  stay in NumPy, so reduction order — and hence every scalar the
  engines compare — is produced by exactly the same code path as the
  reference backend.

ctypes releases the GIL for the duration of each call, so the
``threads`` worker substrate gets genuine parallel speedup from this
backend (NumPy kernels already release it inside ufuncs; here the whole
kernel body runs GIL-free).

When no C toolchain is available (or a compile fails), the instance
permanently swaps its arithmetic hooks for the reference backend's
NumPy ones, emits a one-time ``RuntimeWarning``, and records the
reason for ``repro backends``.  Timing and accounting live in the
shared base class either way, so the profile keeps one stream across
the switch.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..backends import ReferenceBackend, _BackendBase
from .build import (
    CompilerUnavailable,
    ProbeStatus,
    load_kernels,
    probe_status,
    probe_toolchain,
)

__all__ = ["CompiledBackend"]

_warned_fallback = False


def _f64(a: np.ndarray) -> np.ndarray:
    """C-contiguous float64 view/copy (no copy on the engine hot path)."""
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _u32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.uint32)


def _estrides(a: np.ndarray) -> tuple[int, ...]:
    """Strides in elements (broadcast axes contribute 0)."""
    return tuple(s // a.itemsize for s in a.strides)


class CompiledBackend(_BackendBase):
    """Generated-C kernels loaded via ctypes (``backend="compiled"``)."""

    name = "compiled"
    description = (
        "C kernels generated per (states, rates), compiled at first use "
        "with the system compiler and loaded via ctypes; falls back to "
        "reference when no toolchain is available"
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
        key = (states, rates)
        lib = self._libs.get(key)
        if lib is None:
            lib = load_kernels(states, rates)
            self._libs[key] = lib
        return lib

    @staticmethod
    def probe() -> ProbeStatus:
        """Toolchain availability report (for ``repro backends``)."""
        return probe_status()

    # -- newview -------------------------------------------------------
    def _tip_tip(self, u_inv, lookup1, codes1, lookup2, codes2):
        lookup1, lookup2 = _f64(lookup1), _f64(lookup2)
        codes1, codes2 = _u32(codes1), _u32(codes2)
        c, m1, k = lookup1.shape
        m2 = lookup2.shape[1]
        lib = self._lib(k, c)
        p = codes1.shape[0]
        z = np.empty((p, c, k))
        u_inv = np.asarray(u_inv, dtype=np.float64)
        s0, s1 = _estrides(u_inv)
        lib.nv_tip_tip(
            p, u_inv.ctypes.data, s0, s1,
            lookup1.ctypes.data, m1, codes1.ctypes.data,
            lookup2.ctypes.data, m2, codes2.ctypes.data,
            z.ctypes.data,
        )
        return z, np.zeros(p, dtype=np.int64)

    def _tip_inner(self, u_inv, lookup1, codes1, a2, z2, scale2):
        lookup1, a2, z2 = _f64(lookup1), _f64(a2), _f64(z2)
        codes1 = _u32(codes1)
        p, c, k = z2.shape
        m1 = lookup1.shape[1]
        lib = self._lib(k, c)
        z = np.empty((p, c, k))
        sc = np.empty(p, dtype=np.int64)
        u_inv = np.asarray(u_inv, dtype=np.float64)
        s0, s1 = _estrides(u_inv)
        lib.nv_tip_inner(
            p, u_inv.ctypes.data, s0, s1,
            lookup1.ctypes.data, m1, codes1.ctypes.data,
            a2.ctypes.data, z2.ctypes.data,
            _i64(scale2).ctypes.data,
            z.ctypes.data, sc.ctypes.data,
        )
        return z, sc

    def _inner_inner(self, u_inv, a1, a2, z1, z2, scale1, scale2):
        a1, a2, z1, z2 = _f64(a1), _f64(a2), _f64(z1), _f64(z2)
        p, c, k = z1.shape
        lib = self._lib(k, c)
        z = np.empty((p, c, k))
        sc = np.empty(p, dtype=np.int64)
        u_inv = np.asarray(u_inv, dtype=np.float64)
        s0, s1 = _estrides(u_inv)
        lib.nv_inner_inner(
            p, u_inv.ctypes.data, s0, s1,
            a1.ctypes.data, a2.ctypes.data,
            z1.ctypes.data, z2.ctypes.data,
            _i64(scale1).ctypes.data, _i64(scale2).ctypes.data,
            z.ctypes.data, sc.ctypes.data,
        )
        return z, sc

    # -- evaluate ------------------------------------------------------
    def _site_likelihoods(self, z_left, z_right, exps, rate_weights):
        """Linear-scale per-site likelihoods via the C site loop."""
        exps = _f64(exps)
        rate_weights = _f64(rate_weights)
        c, k = exps.shape
        p = np.broadcast_shapes(z_left.shape, z_right.shape, (1, c, k))[0]
        zl = np.broadcast_to(np.asarray(z_left, dtype=np.float64), (p, c, k))
        zr = np.broadcast_to(np.asarray(z_right, dtype=np.float64), (p, c, k))
        lib = self._lib(k, c)
        out = np.empty(p)
        lib.evaluate_site(
            p, zl.ctypes.data, *_estrides(zl),
            zr.ctypes.data, *_estrides(zr),
            exps.ctypes.data, rate_weights.ctypes.data, out.ctypes.data,
        )
        return out

    # -- derivatives ---------------------------------------------------
    def _product(self, z_left, z_right):
        p, c, k = np.broadcast_shapes(z_left.shape, z_right.shape)
        zl = np.broadcast_to(np.asarray(z_left, dtype=np.float64), (p, c, k))
        zr = np.broadcast_to(np.asarray(z_right, dtype=np.float64), (p, c, k))
        lib = self._lib(k, c)
        out = np.empty((p, c, k))
        lib.ew_product(
            p, zl.ctypes.data, *_estrides(zl),
            zr.ctypes.data, *_estrides(zr), out.ctypes.data,
        )
        return out

    @staticmethod
    def _factor_tables(eigenvalues, rates, rate_weights, t):
        """The reference kernels' ``m0/m1/m2`` weight tables (NumPy exp)."""
        g = np.multiply.outer(np.asarray(rates, dtype=np.float64), eigenvalues)
        e = np.exp(g * t)
        m0 = rate_weights[:, None] * e
        m1 = m0 * g
        m2 = m1 * g
        return _f64(m0), _f64(m1), _f64(m2)

    def _site_terms(self, sumbuf, eigenvalues, rates, rate_weights, t):
        m0, m1, m2 = self._factor_tables(eigenvalues, rates, rate_weights, t)
        c, k = m0.shape
        p = np.broadcast_shapes(sumbuf.shape, (1, c, k))[0]
        sb = np.broadcast_to(np.asarray(sumbuf, dtype=np.float64), (p, c, k))
        lib = self._lib(k, c)
        l0, l1, l2 = np.empty(p), np.empty(p), np.empty(p)
        lib.deriv_site_terms(
            p, sb.ctypes.data, *_estrides(sb),
            m0.ctypes.data, m1.ctypes.data, m2.ctypes.data,
            l0.ctypes.data, l1.ctypes.data, l2.ctypes.data,
        )
        return l0, l1, l2

    # -- fused edge gradient (up-sweep) --------------------------------
    def _gradient_terms(
        self, z_top, z_bottom, eigenvalues, rates, rate_weights, t
    ):
        m0, m1, m2 = self._factor_tables(eigenvalues, rates, rate_weights, t)
        c, k = m0.shape
        p = np.broadcast_shapes(z_top.shape, z_bottom.shape, (1, c, k))[0]
        zt = np.broadcast_to(np.asarray(z_top, dtype=np.float64), (p, c, k))
        zb = np.broadcast_to(np.asarray(z_bottom, dtype=np.float64), (p, c, k))
        lib = self._lib(k, c)
        l0, l1, l2 = np.empty(p), np.empty(p), np.empty(p)
        lib.grad_site_terms(
            p, zt.ctypes.data, *_estrides(zt),
            zb.ctypes.data, *_estrides(zb),
            m0.ctypes.data, m1.ctypes.data, m2.ctypes.data,
            l0.ctypes.data, l1.ctypes.data, l2.ctypes.data,
        )
        return l0, l1, l2
