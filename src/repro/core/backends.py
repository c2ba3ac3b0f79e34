"""Pluggable kernel backends: one dispatch seam for every PLF variant.

The paper's contribution is swapping PLF kernel *implementations*
(AVX host vs MIC intrinsics, Sec. IV-V) underneath an unchanged
tree-search driver.  BEAGLE formalises the same idea as a
runtime-selectable "implementation" layer behind a stable kernel API
with *one* dispatch/accounting path; this module is that layer for the
reproduction.

A :class:`KernelBackend` provides the four PLF kernels of Section IV
(``newview`` in its three tip cases, ``evaluate``, ``derivativeSum``,
``derivativeCore``) plus their gradient up-sweep mirrors.
:class:`~repro.core.engine.LikelihoodEngine` — and every engine built
from it (partitioned, fork-join, distributed) — reaches the kernels
through its rate model only (:mod:`repro.core.ratemodel`).  The public
methods, their timing and their accounting are written once, in
:class:`_BackendBase`; a new implementation subclasses it, supplies the
seven private arithmetic hooks listed there and calls
:func:`register_backend`.

Shipped backends
----------------
``compiled``
    Generated C behind ctypes (:mod:`repro.core.ckernels`) — **the
    default**.  Degrades to the reference arithmetic, with one
    ``RuntimeWarning``, when no toolchain is available.
``reference``
    The NumPy ground-truth kernels from :mod:`repro.core.kernels`: the
    oracle the tests, ``shadow`` and the e2e harness's recompute check
    compare against (``REPRO_BACKEND=reference`` forces it).
``shadow``
    Runs *two* backends per dispatch and asserts their CLAs, scale
    counters, log-likelihoods and derivatives agree — turning every
    test and search run into a cross-backend correctness oracle
    (``REPRO_BACKEND=shadow pytest`` checks compiled-vs-reference parity
    end-to-end).

The paper's Sec. V-B cache-blocking claim is reproduced in the modelled
harness (:mod:`repro.harness.ablations` over
:mod:`repro.core.vectorized`), not by a production backend.

Every backend records a per-kernel :class:`KernelProfile` (calls, site
units, wall seconds) extending
:class:`~repro.core.traversal.KernelCounters`; the measured per-kernel
times ride into a :class:`~repro.perf.trace.KernelTrace` through
:func:`repro.perf.trace.trace_from_profile`, the one calibration input
for the Figure 3 / Table III predictions.

The environment variable :data:`DEFAULT_BACKEND_ENV` (``REPRO_BACKEND``)
selects the process-wide default backend for engines constructed without
an explicit one; unset, that default is ``compiled``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from . import kernels
from .traversal import (
    PAPER_KERNEL_KEYS,
    KernelCounters,
    KernelKind,
    merged_kernel_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..phylo.alignment import PatternAlignment
    from ..phylo.models import SubstitutionModel
    from ..phylo.rates import CatRates, GammaRates
    from ..phylo.tree import Tree
    from .engine import LikelihoodEngine

__all__ = [
    "DEFAULT_BACKEND_ENV",
    "KernelProfile",
    "KernelBackend",
    "BackendInfo",
    "ReferenceBackend",
    "ShadowBackend",
    "BackendMismatchError",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "make_engine",
]

#: Environment variable naming the default backend for engines built
#: without an explicit one (e.g. ``REPRO_BACKEND=shadow pytest``).
DEFAULT_BACKEND_ENV = "REPRO_BACKEND"


# ----------------------------------------------------------------------
# profiling
# ----------------------------------------------------------------------
def _observe_kernel(
    kind: KernelKind,
    backend_name: str,
    n_patterns: int,
    t_start: float,
    elapsed_s: float,
) -> None:
    """Mirror one kernel dispatch into the obs layer (tracer + metrics).

    Callers gate on :data:`repro.obs.spans.ENABLED` *before* calling, so
    disabled runs pay only that flag check.  The span rides on the
    interval the dispatcher already measured for its
    :class:`KernelProfile`, so the two views of kernel time are
    identical by construction.
    """
    _obs.get_tracer().add_complete(
        "kernel." + kind.value,
        t_start,
        t_start + elapsed_s,
        args={
            "patterns": int(n_patterns),
            "backend": backend_name,
        },
    )
    reg = _obs_metrics.get_registry()
    reg.counter(
        "repro_kernel_dispatch_total", "PLF kernel dispatches"
    ).inc()
    key = merged_kernel_key(kind)
    reg.histogram(
        "repro_kernel_seconds_" + key,
        f"wall seconds per {key} dispatch",
    ).observe(elapsed_s)


@dataclass
class KernelProfile(KernelCounters):
    """Kernel counters extended with measured wall time.

    ``seconds[k]`` accumulates wall-clock time spent inside kernel ``k``;
    with the inherited ``site_units`` it yields measured per-site times,
    the quantity the analytic cost model (:mod:`repro.perf.costmodel`)
    otherwise supplies from VM constants.
    """

    seconds: dict[KernelKind, float] = field(default_factory=dict)

    def record_timed(
        self, kind: KernelKind, n_patterns: int, elapsed_s: float
    ) -> None:
        self.record(kind, n_patterns)
        self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed_s

    def reset(self) -> None:
        """Zero the profile (counters and wall times).

        Profiles are **cumulative**: a backend instance keeps
        accumulating across every run (and every engine) that dispatches
        through it.  Reset between runs for per-run measurements.
        """
        super().reset()
        self.seconds.clear()

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate another profile's totals into this one (in place).

        Accepts a plain :class:`KernelCounters` too (seconds are then
        left untouched).  Callers aggregating across workers must
        dedupe *shared* backend instances by identity first — merging the
        same backend's profile once per worker would multiply every
        dispatch by the worker count (the double-counting bug fixed in
        the parallel-execution PR).
        """
        super().merge(other)
        if isinstance(other, KernelProfile):
            for kind, s in other.seconds.items():
                self.seconds[kind] = self.seconds.get(kind, 0.0) + s

    def to_dict(self) -> dict:
        """Picklable plain-dict form (for cross-process profile reports)."""
        return {
            "calls": {k.value: v for k, v in self.calls.items()},
            "site_units": {k.value: v for k, v in self.site_units.items()},
            "reductions": self.reductions,
            "seconds": {k.value: v for k, v in self.seconds.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelProfile":
        p = cls()
        p.calls = {KernelKind(k): int(v) for k, v in d.get("calls", {}).items()}
        p.site_units = {
            KernelKind(k): int(v) for k, v in d.get("site_units", {}).items()
        }
        p.reductions = int(d.get("reductions", 0))
        p.seconds = {KernelKind(k): float(v) for k, v in d.get("seconds", {}).items()}
        return p

    # -- aggregation to the merged kernel names ------------------------
    def merged_seconds(self) -> dict[str, float]:
        """Wall seconds aggregated to the merged kernel names.

        Like :meth:`KernelCounters.merged`, seeded with the paper's four
        families only; up-sweep families appear once observed.
        """
        out = {k: 0.0 for k in PAPER_KERNEL_KEYS}
        for kind, s in self.seconds.items():
            key = merged_kernel_key(kind)
            out[key] = out.get(key, 0.0) + s
        return out


# ----------------------------------------------------------------------
# the kernel API, written once
# ----------------------------------------------------------------------
class _BackendBase:
    """The stable kernel API every PLF implementation provides.

    Signatures mirror the reference kernels in :mod:`repro.core.kernels`.
    Every public kernel method lives here, once, and goes through
    :meth:`_dispatch` — one ``perf_counter`` interval per call, recorded
    by :meth:`_record` into :attr:`profile` and (when tracing is on) the
    obs layer.  ``profile`` accumulates across the backend's lifetime (an
    instance may be shared by several engines — e.g. the per-rank
    sub-engines of a distributed run — and then aggregates across them).

    A concrete backend supplies only arithmetic, as seven private hooks::

        _tip_tip(u_inv, lookup1, codes1, lookup2, codes2) -> (z, scale)
        _tip_inner(u_inv, lookup1, codes1, a2, z2, scale2) -> (z, scale)
        _inner_inner(u_inv, a1, a2, z1, z2, scale1, scale2) -> (z, scale)
        _site_likelihoods(z_left, z_right, exps, rate_weights) -> L_p (linear)
        _product(z_left, z_right) -> element-wise CLA product
        _site_terms(sumbuf, eigenvalues, rates, rate_weights, t) -> (l, l', l'')
        _gradient_terms(z_top, z_bottom, eigenvalues, rates, rate_weights, t)
            -> (l, l', l'')

    ``preorder_*`` (the gradient up-sweep's pre-order partials) is the
    ``newview`` hook under a different :class:`KernelKind`; the log/scale
    step of ``evaluate`` and the cross-site reductions
    (:func:`kernels.derivative_reduce`, ``np.dot``) are shared, so every
    scalar the engines compare is reduced by the same code whichever
    backend produced the per-site values.
    """

    name = "base"
    description = ""

    _HOOKS = (
        "_tip_tip",
        "_tip_inner",
        "_inner_inner",
        "_site_likelihoods",
        "_product",
        "_site_terms",
        "_gradient_terms",
    )

    def __init__(self) -> None:
        self.profile = KernelProfile()

    # -- the one accounting path ---------------------------------------
    def _record(
        self,
        kind: KernelKind,
        n_patterns: int,
        t0: float,
        elapsed: float,
    ) -> None:
        self.profile.record_timed(kind, n_patterns, elapsed)
        if _obs.ENABLED:
            _observe_kernel(kind, self.name, n_patterns, t0, elapsed)

    def _dispatch(
        self, op: str, kind: KernelKind, n_patterns: int, hook: str, *args
    ):
        """Run public kernel ``op`` — arithmetic ``hook`` — timed."""
        t0 = time.perf_counter()
        out = getattr(self, hook)(*args)
        elapsed = time.perf_counter() - t0
        self._record(kind, n_patterns, t0, elapsed)
        return out

    # -- arithmetic shared by every backend -----------------------------
    def _site_lnl(self, z_left, z_right, exps, rate_weights, scale_counts):
        return kernels.log_site_likelihoods(
            self._site_likelihoods(z_left, z_right, exps, rate_weights),
            scale_counts,
        )

    def _edge_lnl(
        self, z_left, z_right, exps, rate_weights, pattern_weights, scale_counts
    ):
        lnls = self._site_lnl(z_left, z_right, exps, rate_weights, scale_counts)
        return float(np.dot(lnls, pattern_weights))

    def _core(self, sumbuf, eigenvalues, rates, rate_weights, t, pattern_weights):
        return kernels.derivative_reduce(
            *self._site_terms(sumbuf, eigenvalues, rates, rate_weights, t),
            pattern_weights,
        )

    def _gradient(
        self, z_top, z_bottom, eigenvalues, rates, rate_weights, t, pattern_weights
    ):
        return kernels.derivative_reduce(
            *self._gradient_terms(
                z_top, z_bottom, eigenvalues, rates, rate_weights, t
            ),
            pattern_weights,
        )

    # -- newview and its pre-order mirror --------------------------------
    def newview_tip_tip(
        self,
        u_inv: np.ndarray,
        lookup1: np.ndarray,
        codes1: np.ndarray,
        lookup2: np.ndarray,
        codes2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._dispatch(
            "newview_tip_tip", KernelKind.NEWVIEW_TIP_TIP, codes1.shape[0],
            "_tip_tip", u_inv, lookup1, codes1, lookup2, codes2,
        )

    def newview_tip_inner(
        self,
        u_inv: np.ndarray,
        lookup1: np.ndarray,
        codes1: np.ndarray,
        a2: np.ndarray,
        z2: np.ndarray,
        scale2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._dispatch(
            "newview_tip_inner", KernelKind.NEWVIEW_TIP_INNER, z2.shape[0],
            "_tip_inner", u_inv, lookup1, codes1, a2, z2, scale2,
        )

    def newview_inner_inner(
        self,
        u_inv: np.ndarray,
        a1: np.ndarray,
        a2: np.ndarray,
        z1: np.ndarray,
        z2: np.ndarray,
        scale1: np.ndarray,
        scale2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._dispatch(
            "newview_inner_inner", KernelKind.NEWVIEW_INNER_INNER, z1.shape[0],
            "_inner_inner", u_inv, a1, a2, z1, z2, scale1, scale2,
        )

    def preorder_tip_tip(
        self,
        u_inv: np.ndarray,
        lookup1: np.ndarray,
        codes1: np.ndarray,
        lookup2: np.ndarray,
        codes2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._dispatch(
            "preorder_tip_tip", KernelKind.PREORDER_TIP_TIP, codes1.shape[0],
            "_tip_tip", u_inv, lookup1, codes1, lookup2, codes2,
        )

    def preorder_tip_inner(
        self,
        u_inv: np.ndarray,
        lookup1: np.ndarray,
        codes1: np.ndarray,
        a2: np.ndarray,
        z2: np.ndarray,
        scale2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._dispatch(
            "preorder_tip_inner", KernelKind.PREORDER_TIP_INNER, z2.shape[0],
            "_tip_inner", u_inv, lookup1, codes1, a2, z2, scale2,
        )

    def preorder_inner_inner(
        self,
        u_inv: np.ndarray,
        a1: np.ndarray,
        a2: np.ndarray,
        z1: np.ndarray,
        z2: np.ndarray,
        scale1: np.ndarray,
        scale2: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._dispatch(
            "preorder_inner_inner", KernelKind.PREORDER_INNER_INNER,
            z1.shape[0],
            "_inner_inner", u_inv, a1, a2, z1, z2, scale1, scale2,
        )

    # -- evaluate --------------------------------------------------------
    def site_log_likelihoods(
        self,
        z_left: np.ndarray,
        z_right: np.ndarray,
        exps: np.ndarray,
        rate_weights: np.ndarray,
        scale_counts: np.ndarray,
    ) -> np.ndarray:
        return self._dispatch(
            "site_log_likelihoods", KernelKind.EVALUATE, z_left.shape[0],
            "_site_lnl", z_left, z_right, exps, rate_weights, scale_counts,
        )

    def evaluate_edge(
        self,
        z_left: np.ndarray,
        z_right: np.ndarray,
        exps: np.ndarray,
        rate_weights: np.ndarray,
        pattern_weights: np.ndarray,
        scale_counts: np.ndarray,
    ) -> float:
        return self._dispatch(
            "evaluate_edge", KernelKind.EVALUATE, z_left.shape[0],
            "_edge_lnl",
            z_left, z_right, exps, rate_weights, pattern_weights, scale_counts,
        )

    # -- derivatives -----------------------------------------------------
    def derivative_sum(
        self, z_left: np.ndarray, z_right: np.ndarray
    ) -> np.ndarray:
        return self._dispatch(
            "derivative_sum", KernelKind.DERIVATIVE_SUM, z_left.shape[0],
            "_product", z_left, z_right,
        )

    def derivative_core(
        self,
        sumbuf: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
        pattern_weights: np.ndarray,
    ) -> tuple[float, float, float]:
        return self._dispatch(
            "derivative_core", KernelKind.DERIVATIVE_CORE, sumbuf.shape[0],
            "_core",
            sumbuf, eigenvalues, rates, rate_weights, t, pattern_weights,
        )

    def derivative_site_terms(
        self,
        sumbuf: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Site phase of ``derivativeCore`` (per-pattern ``l, l', l''``).

        Used by parallel engines: workers compute their slice's terms,
        the master gathers and reduces (:func:`kernels.derivative_reduce`)
        in a fixed order, so results match sequential bit-for-bit.
        """
        return self._dispatch(
            "derivative_site_terms", KernelKind.DERIVATIVE_CORE,
            sumbuf.shape[0],
            "_site_terms", sumbuf, eigenvalues, rates, rate_weights, t,
        )

    # -- fused edge gradient (up-sweep) ----------------------------------
    def edge_gradient(
        self,
        z_top: np.ndarray,
        z_bottom: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
        pattern_weights: np.ndarray,
    ) -> tuple[float, float, float]:
        """Fused ``derivativeSum`` + ``derivativeCore`` for one branch."""
        return self._dispatch(
            "edge_gradient", KernelKind.EDGE_GRADIENT, z_top.shape[0],
            "_gradient",
            z_top, z_bottom, eigenvalues, rates, rate_weights, t, pattern_weights,
        )

    def edge_gradient_terms(
        self,
        z_top: np.ndarray,
        z_bottom: np.ndarray,
        eigenvalues: np.ndarray,
        rates: np.ndarray,
        rate_weights: np.ndarray,
        t: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Site phase of the fused gradient kernel (per-pattern terms).

        The parallel mirror of :meth:`edge_gradient`: workers compute
        their slice's terms, the master gathers in pattern order and
        reduces (:func:`kernels.derivative_reduce`) — bit-identical to
        the sequential fused kernel.
        """
        return self._dispatch(
            "edge_gradient_terms", KernelKind.EDGE_GRADIENT, z_top.shape[0],
            "_gradient_terms",
            z_top, z_bottom, eigenvalues, rates, rate_weights, t,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


#: The kernel API as a type, for annotations: a backend *is* a
#: :class:`_BackendBase` (its public methods are the API).
KernelBackend = _BackendBase


# ----------------------------------------------------------------------
# reference backend
# ----------------------------------------------------------------------
class ReferenceBackend(_BackendBase):
    """NumPy ground-truth kernels (:mod:`repro.core.kernels`), unchanged."""

    name = "reference"
    description = "NumPy reference kernels, whole-array (ground truth)"

    _tip_tip = staticmethod(kernels.newview_tip_tip)
    _tip_inner = staticmethod(kernels.newview_tip_inner)
    _inner_inner = staticmethod(kernels.newview_inner_inner)
    _site_likelihoods = staticmethod(kernels.site_likelihoods)
    _product = staticmethod(kernels.derivative_sum)
    _site_terms = staticmethod(kernels.derivative_site_terms)
    _gradient_terms = staticmethod(kernels.edge_gradient_terms)


# ----------------------------------------------------------------------
# shadow backend (cross-implementation oracle)
# ----------------------------------------------------------------------
class BackendMismatchError(AssertionError):
    """Two shadowed backends disagreed on a kernel result."""


class ShadowBackend(_BackendBase):
    """Run two backends per dispatch; assert they agree; return primary's.

    Turns any workload — the tier-1 test suite, a full tree search, an
    EPA placement run — into a cross-backend differential test: every
    CLA, scale-counter vector, log-likelihood and derivative triple is
    compared between ``primary`` and ``reference`` with ``allclose``
    tolerances (integer results, i.e. scale counters, exactly), and a
    :class:`BackendMismatchError` names the first kernel that diverges.
    The default ``atol`` is the compiled backend's stated parity bound
    (1e-10: bitwise on contiguous operands, summation-order noise on
    broadcast tip views, which a near-zero derivative sum turns into
    absolute rather than relative error).

    Both wrapped backends are driven through their *public* methods, so
    their own profiles count every shadowed dispatch under its true
    :class:`KernelKind`; the shadow's profile times the combined
    dispatch (``shadow.primary.profile`` still measures the primary
    alone).
    """

    name = "shadow"
    description = "runs compiled + reference per dispatch, asserts parity"

    def __init__(
        self,
        primary: KernelBackend | None = None,
        reference: KernelBackend | None = None,
        rtol: float = 1e-9,
        atol: float = 1e-10,
    ) -> None:
        super().__init__()
        self.primary = primary if primary is not None else get_backend("compiled")
        self.reference = (
            reference if reference is not None else ReferenceBackend()
        )
        self.rtol = rtol
        self.atol = atol
        self.checks = 0  # dispatches verified so far

    def _dispatch(self, op, kind, n_patterns, hook, *args):
        # the arithmetic of every op is "run it on both and compare"
        return super()._dispatch(op, kind, n_patterns, "_run_both", op, *args)

    def _run_both(self, op: str, *args):
        got = getattr(self.primary, op)(*args)
        want = getattr(self.reference, op)(*args)
        pairs = zip(got, want) if isinstance(got, tuple) else [(got, want)]
        for i, (a, b) in enumerate(pairs):
            a, b = np.asarray(a), np.asarray(b)
            if a.shape != b.shape:
                self._fail(op, f"result[{i}] shape {a.shape} vs {b.shape}")
            if a.dtype.kind in "iu":  # scale counters: exact
                ok = np.array_equal(a, b)
            else:
                ok = np.allclose(a, b, rtol=self.rtol, atol=self.atol)
            if not ok:
                self._fail(
                    op, f"result[{i}] max |delta| = {np.max(np.abs(a - b)):g}"
                )
        self.checks += 1
        return got

    def _fail(self, op: str, detail: str) -> None:
        raise BackendMismatchError(
            f"backend {self.primary.name!r} disagrees with "
            f"{self.reference.name!r} on {op}: {detail}"
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendInfo:
    """Registry entry: construction recipe plus a one-line description."""

    name: str
    factory: Callable[[], KernelBackend]
    description: str


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str, factory: Callable[[], KernelBackend], description: str = ""
) -> None:
    """Register (or replace) a backend under ``name``.

    ``factory`` is called afresh for every :func:`get_backend` resolution
    so each engine stack gets its own profile/scratch state.
    """
    _REGISTRY[name] = BackendInfo(
        name=name, factory=factory, description=description
    )


def available_backends() -> list[BackendInfo]:
    """Registered backends in registration order."""
    return list(_REGISTRY.values())


def get_backend(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend spec to a live instance.

    ``None`` reads :data:`DEFAULT_BACKEND_ENV` and, when that is unset,
    means ``compiled`` — which falls back to the reference arithmetic
    (one ``RuntimeWarning``) on a machine without a C compiler;
    ``REPRO_BACKEND=reference`` forces the NumPy oracle.  A string is
    looked up in the registry (fresh instance per call); an
    already-constructed backend passes through unchanged — which is how
    multi-engine drivers (partitioned, fork-join, distributed) share one
    instance and hence one aggregated profile.
    """
    if spec is None:
        spec = os.environ.get(DEFAULT_BACKEND_ENV, "compiled")
    if isinstance(spec, str):
        info = _REGISTRY.get(spec)
        if info is None:
            names = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"unknown backend {spec!r} (registered: {names})")
        return info.factory()
    return spec


def resolve_backend_name(backend: "KernelBackend") -> str | None:
    """Map a backend *instance* back to its registry name, if registered.

    Worker pools and process-based engines ship backend *names* across
    the fork boundary (each worker builds its own instance), so call
    sites that accept instances use this to translate before spawning.
    Only exact-type matches against registrations whose factory *is* the
    class count; subclasses and ad-hoc instances return ``None``.
    """
    for name, info in _REGISTRY.items():
        if isinstance(info.factory, type) and type(backend) is info.factory:
            return name
    return None


register_backend(
    "reference", ReferenceBackend, ReferenceBackend.description
)
register_backend("shadow", ShadowBackend, ShadowBackend.description)

# Imported after the base classes exist (ckernels.backend subclasses
# _BackendBase); registering the class itself keeps resolve_backend_name
# working across the worker-pool fork boundary.
from .ckernels.backend import CompiledBackend  # noqa: E402

register_backend("compiled", CompiledBackend, CompiledBackend.description)


# ----------------------------------------------------------------------
# engine factory
# ----------------------------------------------------------------------
def make_engine(
    patterns: "PatternAlignment",
    tree: "Tree",
    model: "SubstitutionModel",
    rates: "GammaRates | None" = None,
    *,
    backend: "str | KernelBackend | None" = None,
    max_resident: int | None = None,
    cat: "CatRates | None" = None,
    p_inv: float | None = None,
    workers: int = 1,
    execution: str = "simulated",
) -> "LikelihoodEngine":
    """Single construction point: one engine, composed from its options.

    The options are orthogonal and every combination the maths allows
    constructs — the kernel backend, the rate model (``rates`` for
    Gamma or ``cat`` for per-site CAT rates, either under the
    invariant-sites mixture ``p_inv``), the CLA store (resident, or at
    most ``max_resident`` arrays with recomputation) and real parallel
    execution (``workers`` / ``execution``):

    ==================  ========  ================  ================
    rate model          resident  ``max_resident``  ``workers > 1``
    ==================  ========  ================  ================
    ``rates`` (Gamma)   yes       yes               yes, both stores
    ``cat``             yes       yes               yes, both stores
    either + ``p_inv``  yes       yes               no
    ==================  ========  ================  ================

    ``workers > 1`` returns a
    :class:`~repro.parallel.forkjoin.ForkJoinEngine` running ``workers``
    site slices — each the same serial engine over its share of the
    patterns — on the given ``execution`` substrate (``simulated``,
    ``threads`` or ``processes``); results stay bit-identical to the
    serial engine.  The parallel engines own OS resources — call
    ``close()`` (or use them as context managers) when done.

    What raises ``ValueError``, completely: ``workers < 1``; ``cat``
    together with ``rates`` (CAT replaces Gamma); ``max_resident < 3``;
    ``p_inv`` with ``workers > 1`` (the sum-buffer lanes carry no scale
    counters, which the mixture's derivatives need); an unregistered
    backend *instance* with a non-simulated substrate (each worker builds
    its own from a name).
    """
    from .engine import LikelihoodEngine
    from .memsave import ClaStore

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if cat is not None and rates is not None:
        raise ValueError("cat replaces Gamma rates; pass rates=None")
    if max_resident is not None and max_resident < 3:
        raise ValueError("max_resident must be at least 3")
    if workers == 1:
        return LikelihoodEngine(
            patterns, tree, model, cat if cat is not None else rates,
            backend=get_backend(backend), p_inv=p_inv,
            store=ClaStore(max_resident),
        )

    if p_inv is not None:
        raise ValueError(
            "p_inv cannot be combined with workers > 1: the sum-buffer "
            "lanes carry no scale counters"
        )
    # Lazy import: repro.parallel imports repro.core, not vice versa.
    from ..parallel.forkjoin import ForkJoinEngine

    # Thread/process substrates build per-worker instances from a
    # *name*; translate registered instances here so callers get a
    # boundary error instead of a failure deep inside the pool.
    if (
        backend is not None
        and not isinstance(backend, str)
        and execution != "simulated"
    ):
        name = resolve_backend_name(backend)
        if name is None:
            raise ValueError(
                f"execution={execution!r} with workers={workers} "
                "requires a backend *name* (each worker builds its "
                "own instance); got an unregistered "
                f"{type(backend).__name__} instance — pass one of: "
                + ", ".join(sorted(_REGISTRY))
            )
        backend = name
    engine = ForkJoinEngine(
        patterns,
        tree,
        model,
        rates,
        n_threads=workers,
        backend=backend,
        execution=execution,
        cat=cat,
    )
    if max_resident is not None:
        engine.set_max_resident(max_resident)
    return engine
