"""Information-criterion model selection (AIC / AICc / BIC).

Which substitution model should a study use?  The standard answer
(jModelTest / ModelTest-NG style) is to fit each candidate on a fixed
reasonable tree and compare penalised likelihoods.  This module runs the
comparison over the library's DNA model family — JC69, K80, HKY85, GTR,
each optionally with Gamma rate heterogeneity and/or invariant sites —
reusing the optimisers from :mod:`repro.search`.

Free-parameter counts follow the usual conventions: branch lengths
(``2n - 3``) are counted for every model, exchangeabilities and
frequencies per model family, +1 for the Gamma shape, +1 for ``p_inv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.backends import KernelBackend, get_backend, make_engine
from ..core.engine import LikelihoodEngine
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel, gtr, hky85, jc69, k80
from ..phylo.tree import Tree
from ..phylo.rates import GammaRates
from .branch_opt import optimize_all_branches
from .model_opt import optimize_alpha, optimize_pinv, optimize_rates
from .raxml_light import empirical_frequencies

__all__ = ["ModelFit", "candidate_models", "select_model"]

#: Free model parameters (beyond branch lengths): (exchangeabilities,
#: frequencies) per family.
_FAMILY_PARAMS = {
    "JC69": (0, 0),
    "K80": (1, 0),
    "HKY85": (1, 3),
    "GTR": (5, 3),
}


@dataclass(frozen=True)
class ModelFit:
    """One candidate's fit: likelihood and information criteria."""

    name: str
    lnl: float
    n_parameters: int
    aic: float
    aicc: float
    bic: float
    alpha: float | None = None
    p_inv: float | None = None


def candidate_models(patterns: PatternAlignment) -> dict[str, SubstitutionModel]:
    """The DNA candidate set with empirical frequencies where free."""
    freqs = empirical_frequencies(patterns)
    return {
        "JC69": jc69(),
        "K80": k80(),
        "HKY85": hky85(2.0, freqs),
        "GTR": gtr(frequencies=freqs),
    }


def _optimize_kappa(engine: LikelihoodEngine, tolerance: float = 1e-4) -> float:
    """Brent over the single transition/transversion ratio (K80/HKY85).

    Unlike :func:`repro.search.model_opt.optimize_rates` this respects
    the family constraint — AG and CT share one multiplier, the four
    transversions stay at 1 — so the nested-model likelihood ordering
    (JC <= K80 <= HKY <= GTR) holds in the selection table.
    """
    from scipy.optimize import minimize_scalar

    model = engine.model

    def objective(log_kappa: float) -> float:
        k = float(np.exp(log_kappa))
        ex = np.array([1.0, k, 1.0, 1.0, k, 1.0])
        engine.set_model(model.with_parameters(exchangeabilities=ex))
        return -engine.log_likelihood()

    res = minimize_scalar(
        objective,
        bounds=(np.log(1e-2), np.log(1e2)),
        method="bounded",
        options={"xatol": tolerance},
    )
    k = float(np.exp(res.x))
    engine.set_model(
        model.with_parameters(
            exchangeabilities=np.array([1.0, k, 1.0, 1.0, k, 1.0])
        )
    )
    return engine.log_likelihood()


def _fit_one(
    name: str,
    model: SubstitutionModel,
    patterns: PatternAlignment,
    tree: Tree,
    with_gamma: bool,
    with_inv: bool,
    branch_passes: int,
    backend: "str | KernelBackend | None" = None,
) -> ModelFit:
    gamma = GammaRates(1.0, 4) if with_gamma else GammaRates(1.0, 1)
    engine: LikelihoodEngine = make_engine(
        patterns, tree.copy(), model, gamma,
        p_inv=0.05 if with_inv else None,
        backend=backend,
    )
    lnl = optimize_all_branches(engine, passes=branch_passes)
    family_ex, family_freq = _FAMILY_PARAMS[name]
    alpha = None
    p_inv = None
    # two alternation rounds so nested models (GTR > HKY) converge far
    # enough that likelihood ordering respects the nesting
    for _ in range(2):
        if name == "GTR":
            lnl = optimize_rates(engine)
        elif name in ("K80", "HKY85"):
            lnl = _optimize_kappa(engine)
        if with_gamma:
            lnl = optimize_alpha(engine)
            alpha = engine.rates_model.alpha
        if with_inv:
            lnl = optimize_pinv(engine)
            p_inv = engine.p_inv
        lnl = optimize_all_branches(engine, passes=branch_passes)

    n_branches = 2 * patterns.n_taxa - 3
    k = n_branches + family_ex + family_freq
    k += 1 if with_gamma else 0
    k += 1 if with_inv else 0
    n_sites = patterns.n_sites
    aic = 2 * k - 2 * lnl
    denom = n_sites - k - 1
    aicc = aic + (2 * k * (k + 1) / denom if denom > 0 else np.inf)
    bic = k * np.log(n_sites) - 2 * lnl
    label = name + ("+G" if with_gamma else "") + ("+I" if with_inv else "")
    return ModelFit(
        name=label, lnl=lnl, n_parameters=k, aic=aic, aicc=aicc, bic=bic,
        alpha=alpha, p_inv=p_inv,
    )


def select_model(
    patterns: PatternAlignment,
    tree: Tree,
    criterion: str = "bic",
    include_gamma: bool = True,
    include_invariant: bool = False,
    branch_passes: int = 2,
    backend: "str | KernelBackend | None" = None,
) -> tuple[ModelFit, list[ModelFit]]:
    """Fit the candidate family on a fixed tree; return (best, all_fits).

    ``criterion`` picks the ranking column (``"aic"``, ``"aicc"`` or
    ``"bic"``).  The topology is held fixed (standard model-selection
    practice); branch lengths and model parameters are optimised per
    candidate.  ``backend`` selects the kernel implementation shared by
    every candidate fit.
    """
    if criterion not in ("aic", "aicc", "bic"):
        raise ValueError(f"unknown criterion {criterion!r}")
    backend = get_backend(backend)
    fits: list[ModelFit] = []
    variants = [(False, False)]
    if include_gamma:
        variants.append((True, False))
    if include_invariant:
        variants.append((False, True))
        if include_gamma:
            variants.append((True, True))
    for name, model in candidate_models(patterns).items():
        for with_gamma, with_inv in variants:
            fits.append(
                _fit_one(
                    name, model, patterns, tree, with_gamma, with_inv,
                    branch_passes, backend=backend,
                )
            )
    fits.sort(key=lambda f: getattr(f, criterion))
    return fits[0], fits
