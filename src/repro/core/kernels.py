"""Reference implementations of the four PLF kernels (Section IV).

These are the NumPy ground-truth versions of the routines the paper
ports to the MIC:

* :func:`newview_inner_inner` / :func:`newview_tip_inner` /
  :func:`newview_tip_tip` — conditional likelihood array (CLA) update
  for a parent node from its two children,
* :func:`evaluate_edge` — tree log-likelihood at a virtual root,
* :func:`derivative_sum` — the ``derivativeSum`` pre-computation
  (element-wise product of the two root-adjacent CLAs),
* :func:`derivative_core` — first and second log-likelihood derivatives
  with respect to a branch length, consumed by Newton–Raphson.

Representation
--------------
CLAs are stored in **eigenbasis coordinates**: the stored vector ``z``
relates to the conditional likelihood vector ``w`` (probability of the
subtree data given each state) by ``w = U z``, where ``Q = U diag(lam)
U^-1`` is the pi-symmetrised eigendecomposition from
:mod:`repro.phylo.models`.  That decomposition gives the crucial
identity ``U^T diag(pi) U = I``, which collapses the virtual-root dot
product to

    L_site,c = sum_k  z_left[k] * z_right[k] * exp(lam_k * r_c * t)

— i.e. ``evaluate`` needs only an element-wise triple product,
``derivativeSum`` is *exactly* the paper's Figure 2 loop
(``sum[l] = left[l] * right[l]``, 16 doubles per site for DNA+Gamma4),
and branch-length derivatives act on the diagonal exponentials alone.
This is the same algebra RAxML exploits; it is why the paper's
derivative kernels exist as a separate pre-computation at all.

Shapes: ``z`` is ``(n_patterns, n_rates, n_states)``; tips are
``(n_patterns, 1, n_states)`` views (tip vectors don't depend on the
rate category and broadcast).  Branch matrices ``A(t)`` are
``(n_rates, n_states, n_states)`` with ``A = U diag(exp(lam r_c t))``,
so ``w_child_after_branch = A z_child`` and the transition matrix is
``P(t) = A(t) U^-1``.
"""

from __future__ import annotations

import numpy as np

from ..phylo.models import EigenSystem
from .scaling import LOG_SCALE_STEP, rescale_clv

__all__ = [
    "branch_exponentials",
    "branch_matrices",
    "tip_eigen_table",
    "tip_branch_lookup",
    "newview_inner_inner",
    "newview_tip_inner",
    "newview_tip_tip",
    "evaluate_edge",
    "derivative_sum",
    "derivative_site_terms",
    "derivative_reduce",
    "derivative_core",
    "edge_gradient_terms",
    "edge_gradient",
    "site_likelihoods",
    "log_site_likelihoods",
    "site_log_likelihoods",
]


def branch_exponentials(
    eigen: EigenSystem, rates: np.ndarray, t: float
) -> np.ndarray:
    """``exp(lam_k * r_c * t)`` table, shape ``(n_rates, n_states)``.

    This is RAxML's ``diagptable`` — the only branch-length-dependent
    quantity ``evaluate`` and ``derivativeCore`` need.
    """
    if not t >= 0:  # also refuses NaN
        raise ValueError(f"negative or NaN branch length {t}")
    rates = np.asarray(rates, dtype=np.float64)
    return np.exp(np.multiply.outer(rates * t, eigen.eigenvalues))


def branch_matrices(eigen: EigenSystem, rates: np.ndarray, t: float) -> np.ndarray:
    """Per-rate ``A(t) = U diag(exp(lam r_c t))``, shape ``(c, s, s)``.

    ``A(t) @ z`` maps a child CLA (eigen coordinates) to the state-space
    conditional likelihood vector *after* traversing the branch.
    """
    e = branch_exponentials(eigen, rates, t)  # (c, k)
    return eigen.u[None, :, :] * e[:, None, :]


def tip_eigen_table(eigen: EigenSystem, tip_table: np.ndarray) -> np.ndarray:
    """Eigen-coordinates of every tip state code: ``U^-1 @ chi_code``.

    ``tip_table`` is the ``(n_codes, n_states)`` 0/1 indicator table from
    :meth:`repro.phylo.states.StateSpace.tip_table`; the result is the
    RAxML ``tipVector`` lookup (16 x 4 doubles for DNA).
    """
    return tip_table @ eigen.u_inv.T


def tip_branch_lookup(a: np.ndarray, tip_eigen: np.ndarray) -> np.ndarray:
    """Precomputed ``A(t) @ tipVector[code]`` per rate and state code.

    Shape ``(n_rates, n_codes, n_states)``.  ``newview`` tip cases gather
    rows of this table instead of doing per-site matrix-vector products —
    the classic tip optimisation the paper inherits from RAxML (16 codes
    cover every possible DNA tip column).
    """
    return np.einsum("cik,mk->cmi", a, tip_eigen)


def newview_inner_inner(
    u_inv: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    z1: np.ndarray,
    z2: np.ndarray,
    scale1: np.ndarray,
    scale2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``newview`` for two inner children; returns ``(z_out, scale_out)``.

    ``w_child = A_child z_child`` per rate, ``v = w1 * w2`` element-wise,
    ``z_out = U^-1 v`` — two dense mat-vecs plus a back-projection per
    site and rate, the paper's "1x4 vector times 4x4 matrix" inner loops
    (Sec. V-B3).
    """
    w1 = np.einsum("cik,pck->pci", a1, z1)
    w2 = np.einsum("cik,pck->pci", a2, z2)
    v = w1 * w2
    z_out = np.einsum("ki,pci->pck", u_inv, v)
    scale_out = scale1 + scale2
    rescale_clv(z_out, scale_out)
    return z_out, scale_out


def newview_tip_inner(
    u_inv: np.ndarray,
    lookup1: np.ndarray,
    codes1: np.ndarray,
    a2: np.ndarray,
    z2: np.ndarray,
    scale2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``newview`` with a tip left child (gathered from ``lookup1``)."""
    w1 = lookup1[:, codes1, :].transpose(1, 0, 2)  # (p, c, i)
    w2 = np.einsum("cik,pck->pci", a2, z2)
    v = w1 * w2
    z_out = np.einsum("ki,pci->pck", u_inv, v)
    scale_out = scale2.copy()
    rescale_clv(z_out, scale_out)
    return z_out, scale_out


def newview_tip_tip(
    u_inv: np.ndarray,
    lookup1: np.ndarray,
    codes1: np.ndarray,
    lookup2: np.ndarray,
    codes2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``newview`` with two tip children.

    Tip-tip parents can never underflow (entries are products of
    transition probabilities bounded well above the threshold), so no
    rescale check is needed — RAxML skips it here too.
    """
    w1 = lookup1[:, codes1, :].transpose(1, 0, 2)
    w2 = lookup2[:, codes2, :].transpose(1, 0, 2)
    v = w1 * w2
    z_out = np.einsum("ki,pci->pck", u_inv, v)
    scale_out = np.zeros(z_out.shape[0], dtype=np.int64)
    return z_out, scale_out


def site_likelihoods(
    z_left: np.ndarray,
    z_right: np.ndarray,
    exps: np.ndarray,
    rate_weights: np.ndarray,
) -> np.ndarray:
    """Per-pattern *linear-scale* likelihoods at a virtual root.

    ``exps`` is the :func:`branch_exponentials` table of the root branch.
    The identity ``U^T diag(pi) U = I`` reduces the root computation to

        L_p = sum_c w_c sum_k z_l[p,c,k] z_r[p,c,k] exps[c,k]
    """
    terms = z_left * z_right * exps[None, :, :]
    return np.einsum("pck,c->p", terms, rate_weights)


def log_site_likelihoods(
    site_l: np.ndarray, scale_counts: np.ndarray
) -> np.ndarray:
    """Log phase of ``evaluate``: ``log L_p`` with the scaling undone.

    ``scale_counts`` is the summed scaling counter of both root sides.
    Shared by every backend, so the positivity check and the scale
    correction are applied to their per-site values by the same code.
    """
    if (site_l <= 0.0).any():
        bad = int(np.argmin(site_l))
        raise FloatingPointError(
            f"non-positive site likelihood {site_l[bad]:g} at pattern {bad}; "
            "tree or model is numerically degenerate"
        )
    return np.log(site_l) - scale_counts * LOG_SCALE_STEP


def site_log_likelihoods(
    z_left: np.ndarray,
    z_right: np.ndarray,
    exps: np.ndarray,
    rate_weights: np.ndarray,
    scale_counts: np.ndarray,
) -> np.ndarray:
    """Per-pattern log-likelihoods at a virtual root."""
    return log_site_likelihoods(
        site_likelihoods(z_left, z_right, exps, rate_weights), scale_counts
    )


def evaluate_edge(
    z_left: np.ndarray,
    z_right: np.ndarray,
    exps: np.ndarray,
    rate_weights: np.ndarray,
    pattern_weights: np.ndarray,
    scale_counts: np.ndarray,
) -> float:
    """Total tree log-likelihood (the ``evaluate`` kernel).

    Weighted sum of per-pattern log-likelihoods over the compressed
    alignment.  In the distributed codes this is the reduction point:
    each worker evaluates its site range and an AllReduce sums the
    partial values (Sec. V-D).
    """
    lnl = site_log_likelihoods(z_left, z_right, exps, rate_weights, scale_counts)
    return float(np.dot(lnl, pattern_weights))


def derivative_sum(z_left: np.ndarray, z_right: np.ndarray) -> np.ndarray:
    """The ``derivativeSum`` kernel: element-wise CLA product.

    Computed once per branch under optimisation and reused by every
    Newton–Raphson iteration (the paper's motivation for splitting the
    derivative computation in two).  For DNA+Gamma4 this is the 16-wide
    ``sum[l] = left[l] * right[l]`` loop of Figure 2 — a pure streaming
    kernel, which is why it shows the best MIC speedup (2.8x, Fig. 3).
    """
    return z_left * z_right


def derivative_core(
    sumbuf: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    rate_weights: np.ndarray,
    t: float,
    pattern_weights: np.ndarray,
) -> tuple[float, float, float]:
    """The ``derivativeCore`` kernel: ``(lnL, d lnL/dt, d2 lnL/dt2)``.

    With ``d = sumbuf`` and ``g_ck = lam_k r_c``:

        l_p(t)   = sum_c w_c sum_k d[p,c,k] exp(g_ck t)
        l'_p(t)  = ... g_ck exp(g_ck t),   l''_p with g_ck^2

        dlnL  = sum_p wt_p l'_p / l_p
        d2lnL = sum_p wt_p (l''_p / l_p - (l'_p / l_p)^2)

    Per-site scaling counters cancel in the log-derivatives (they are
    constant in ``t``), so they are not needed here; the returned ``lnL``
    is therefore *unscaled* and only valid for ratio comparisons within
    one optimisation — use ``evaluate_edge`` for reportable values.

    The per-site phase processes 16 doubles per site followed by a few
    scalar accumulations — the structure whose scalar tail the paper
    removes by blocking 8 sites at a time (Sec. V-B4).
    """
    l0, l1, l2 = derivative_site_terms(sumbuf, eigenvalues, rates, rate_weights, t)
    return derivative_reduce(l0, l1, l2, pattern_weights)


def derivative_site_terms(
    sumbuf: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    rate_weights: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pattern ``(l, l', l'')`` of :func:`derivative_core`.

    Split out so parallel engines can compute the site phase on each
    worker's slice and perform the *reduction* (:func:`derivative_reduce`)
    at the master over the gathered full-length arrays — in a fixed,
    worker-count-independent order, which keeps the three returned scalars
    bit-identical to the sequential code path.

    The weight tables are associated as ``m0 = w*e``, ``m1 = m0*g``,
    ``m2 = m1*g`` — the same association the compiled backend feeds its
    C site loop — so per-pattern values are bitwise identical whichever
    backend or slice width computed them.
    """
    g = np.multiply.outer(np.asarray(rates, dtype=np.float64), eigenvalues)
    e = np.exp(g * t)
    m0 = rate_weights[:, None] * e
    m1 = m0 * g
    m2 = m1 * g
    l0 = np.einsum("pck,ck->p", sumbuf, m0)
    l1 = np.einsum("pck,ck->p", sumbuf, m1)
    l2 = np.einsum("pck,ck->p", sumbuf, m2)
    return l0, l1, l2


def edge_gradient_terms(
    z_top: np.ndarray,
    z_bottom: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    rate_weights: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pattern ``(l, l', l'')`` for one edge of the all-branch gradient.

    Fuses ``derivativeSum`` with the site phase of ``derivativeCore``:
    ``z_top`` and ``z_bottom`` are the edge's two directed CLAs (the tree
    on either side of it), so the element-wise product is exactly the
    branch's sum buffer.  Per-pattern
    values are bitwise identical to ``derivative_site_terms(
    derivative_sum(z_top, z_bottom), ...)`` — the product is formed with
    the same operand order — which is what lets parallel engines gather
    per-slice terms and reduce at the master bit-identically.
    """
    return derivative_site_terms(
        z_top * z_bottom, eigenvalues, rates, rate_weights, t
    )


def edge_gradient(
    z_top: np.ndarray,
    z_bottom: np.ndarray,
    eigenvalues: np.ndarray,
    rates: np.ndarray,
    rate_weights: np.ndarray,
    t: float,
    pattern_weights: np.ndarray,
) -> tuple[float, float, float]:
    """The fused per-edge gradient kernel: ``(lnL, dlnL/dt, d2lnL/dt2)``.

    One invocation per branch of the gradient sweep replaces the separate
    ``derivativeSum`` + ``derivativeCore`` pair of the per-branch Newton
    path.  As with :func:`derivative_core`, scaling counters cancel in
    the log-derivatives and the returned ``lnL`` is unscaled.
    """
    l0, l1, l2 = edge_gradient_terms(
        z_top, z_bottom, eigenvalues, rates, rate_weights, t
    )
    return derivative_reduce(l0, l1, l2, pattern_weights)


def derivative_reduce(
    l0: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    pattern_weights: np.ndarray,
) -> tuple[float, float, float]:
    """Scalar phase of ``derivativeCore``: weighted reduction of site terms.

    Deterministic regardless of how the ``l*`` arrays were produced
    (sequential, per-worker slices gathered in pattern order, ...) —
    ``np.dot`` over the same full-length arrays always reduces in the
    same order, so parallel results match sequential ones bit-for-bit.
    """
    if (l0 <= 0.0).any():
        bad = int(np.argmin(l0))
        raise FloatingPointError(
            f"non-positive site likelihood {l0[bad]:g} at pattern {bad} "
            "during branch-length derivative evaluation"
        )
    r1 = l1 / l0
    lnl = float(np.dot(np.log(l0), pattern_weights))
    d1 = float(np.dot(r1, pattern_weights))
    d2 = float(np.dot(l2 / l0 - r1 * r1, pattern_weights))
    return lnl, d1, d2
