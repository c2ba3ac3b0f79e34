"""Model-parameter optimisation: Gamma shape and GTR exchangeabilities.

RAxML interleaves Brent-style one-dimensional optimisation of each free
model parameter with branch-length smoothing until the likelihood gain
drops below a threshold.  We follow the same coordinate-wise scheme
using :func:`scipy.optimize.minimize_scalar` (bounded Brent) per
parameter:

* the Gamma shape ``alpha`` on a log-scale bracket ``[0.02, 100]``,
* the five free GTR exchangeabilities (the sixth, GT, is the fixed
  reference = 1, RAxML's convention),
* optionally the base frequencies via softmax coordinates (empirical
  frequencies are the default, as in the paper's runs).

Each parameter change invalidates every CLA (the engine handles that via
its model version), so model optimisation is deliberately scheduled
*rarely* relative to branch/topology moves — as in RAxML.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from ..core.engine import LikelihoodEngine
from .branch_opt import optimize_all_branches

__all__ = [
    "ModelOptResult",
    "optimize_alpha",
    "optimize_rates",
    "optimize_model",
    "optimize_pinv",
]

ALPHA_BOUNDS = (0.02, 100.0)
RATE_BOUNDS = (1e-4, 100.0)

#: L-BFGS-B's forward-difference step for the exchangeability gradient,
#: in log-rate units.  A forward difference errs by ``h·|f''|/2``
#: (truncation: smooth, and the same on every backend) plus ``2·ε_f/h``
#: (lnL's rounding noise, where backends differ), least at
#: ``h = 2·sqrt(ε_f/|f''|)``.  Bounding ε_f by the rounding of the sum
#: over P patterns, ``P·2⁻⁵³·|lnL|``, gives 1.0e-8 on 2 300 patterns at
#: lnL ≈ -4.1e4; with ``|f''|`` = 200-900 per log-rate at the optimum,
#: ``h ≈ 1e-5``.  Smaller alignments, and the noise measured along a
#: rate axis (1e-11 to 5e-11), put the optimum lower, down to ~4e-7, but
#: erring high only adds truncation, which is backend-independent and
#: cheap: the optimiser stops ``h/2`` off the optimum, ``|f''|·h²/8`` ≈
#: 1e-8 of lnL.  SciPy's default of 1e-8 lies two to three decades below
#: every such optimum, where the noise term lets the backends' last bits
#: steer the iterates (DESIGN.md §14).
RATE_FD_STEP = 1e-5


@dataclass
class ModelOptResult:
    """Outcome of a model-optimisation round."""

    lnl: float
    alpha: float
    exchangeabilities: np.ndarray
    rounds: int


def _engine_lnl(engine: LikelihoodEngine) -> float:
    return engine.log_likelihood()


def optimize_alpha(engine: LikelihoodEngine, tolerance: float = 1e-4) -> float:
    """Brent-optimise the Gamma shape parameter; returns the new lnL."""

    def objective(log_alpha: float) -> float:
        engine.set_alpha(float(np.exp(log_alpha)))
        return -_engine_lnl(engine)

    res = minimize_scalar(
        objective,
        bounds=(np.log(ALPHA_BOUNDS[0]), np.log(ALPHA_BOUNDS[1])),
        method="bounded",
        options={"xatol": tolerance},
    )
    engine.set_alpha(float(np.exp(res.x)))
    return _engine_lnl(engine)


def optimize_pinv(engine, tolerance: float = 1e-4, max_pinv: float = 0.95) -> float:
    """Brent-optimise the invariable-sites proportion of a +I engine.

    ``engine`` is a :class:`~repro.core.engine.LikelihoodEngine` built
    with a ``p_inv`` (see :class:`repro.core.invariant.InvariantMixture`);
    returns the new lnL.
    """

    def objective(p: float) -> float:
        engine.set_p_inv(float(p))
        return -engine.log_likelihood()

    res = minimize_scalar(
        objective,
        bounds=(0.0, max_pinv),
        method="bounded",
        options={"xatol": tolerance},
    )
    engine.set_p_inv(float(res.x))
    return engine.log_likelihood()


def optimize_rates(engine: LikelihoodEngine, tolerance: float = 1e-6) -> float:
    """Joint optimisation of the free exchangeabilities; returns lnL.

    The last exchangeability is the reference rate pinned to 1 (RAxML
    normalises GT = 1 for DNA); the others are optimised jointly in log
    space with L-BFGS-B.  Joint optimisation matters here: the free
    rates are *ratios* against the pinned reference, so they are
    strongly correlated and one-at-a-time coordinate descent (RAxML's
    historical scheme) creeps toward the optimum — slowly enough to
    distort nested-model comparisons.
    """
    from scipy.optimize import minimize

    model = engine.model
    ex = model.exchangeabilities.copy()
    n_free = ex.shape[0] - 1
    if n_free == 0:
        return _engine_lnl(engine)

    def objective(log_rates: np.ndarray) -> float:
        trial = ex.copy()
        trial[:n_free] = np.exp(log_rates)
        engine.set_model(model.with_parameters(exchangeabilities=trial))
        return -_engine_lnl(engine)

    x0 = np.log(np.clip(ex[:n_free], RATE_BOUNDS[0], RATE_BOUNDS[1]))
    res = minimize(
        objective,
        x0,
        method="L-BFGS-B",
        bounds=[(np.log(RATE_BOUNDS[0]), np.log(RATE_BOUNDS[1]))] * n_free,
        options={"ftol": tolerance, "maxiter": 100, "eps": RATE_FD_STEP},
    )
    final = ex.copy()
    final[:n_free] = np.exp(res.x)
    engine.set_model(model.with_parameters(exchangeabilities=final))
    return _engine_lnl(engine)


def optimize_model(
    engine: LikelihoodEngine,
    max_rounds: int = 3,
    epsilon: float = 0.1,
    optimize_exchangeabilities: bool = True,
    branch_passes: int = 2,
) -> ModelOptResult:
    """Alternate alpha / rates / branch-length optimisation to convergence.

    ``epsilon`` is the lnL-improvement threshold below which another
    round is not worth its (full-CLA-invalidation) cost — RAxML's
    ``likelihoodEpsilon`` plays the same role.
    """
    lnl = _engine_lnl(engine)
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        lnl_new = optimize_alpha(engine)
        if optimize_exchangeabilities and engine.model.exchangeabilities.shape[0] == 6:
            lnl_new = optimize_rates(engine)
        lnl_new = optimize_all_branches(engine, passes=branch_passes)
        if lnl_new - lnl < epsilon:
            lnl = lnl_new
            break
        lnl = lnl_new
    return ModelOptResult(
        lnl=lnl,
        alpha=engine.rates_model.alpha,
        exchangeabilities=engine.model.exchangeabilities.copy(),
        rounds=rounds,
    )
