"""Among-site rate heterogeneity: discrete Gamma (Yang 1994) and CAT.

The paper's MIC port supports exactly one heterogeneity model — the
Gamma model with four discrete rates — because its 4 states x 4 rates =
16 doubles per site map perfectly onto two 8-lane MIC vectors (Sec.
V-B2/V-B3).  We implement the standard Yang (1994) discretisation: the
Gamma(alpha, alpha) distribution (mean 1) is cut into ``k`` equal-
probability categories and each category is represented by its
conditional mean, so the average rate stays exactly 1 and branch lengths
keep their expected-substitutions interpretation.

The CAT approximation (Stamatakis 2006) — one rate per site drawn from a
small set of per-site categories, no per-rate loop — is provided as the
paper's named extension; its odd per-site stride (4 doubles) is exactly
the alignment hazard Sec. V-B2 warns about, which our layout code
handles by padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv

__all__ = ["discrete_gamma_rates", "GammaRates", "CatRates"]


def discrete_gamma_rates(alpha: float, n_categories: int = 4) -> np.ndarray:
    """Mean rates of the ``n_categories`` equal-probability Gamma slices.

    For ``X ~ Gamma(shape=alpha, rate=alpha)`` (mean 1) the conditional
    mean of the slice between quantiles ``q_{i}`` and ``q_{i+1}`` is

        k * [ I(alpha+1, alpha*q_{i+1}) - I(alpha+1, alpha*q_i) ]

    with ``I`` the regularised lower incomplete gamma function — the
    closed form used by RAxML (and originally by Yang's PAML).

    The returned rates are positive, increasing, and average exactly 1.
    """
    if alpha <= 0:
        raise ValueError(f"gamma shape alpha must be positive, got {alpha}")
    if n_categories < 1:
        raise ValueError("need at least one rate category")
    if n_categories == 1:
        return np.ones(1)
    probs = np.arange(1, n_categories) / n_categories
    # == scipy.stats.gamma.ppf(probs, a=alpha, scale=1/alpha) bit for bit,
    # without the 0.2-0.5 s import of scipy.stats.
    cuts = gammaincinv(alpha, probs) * (1.0 / alpha)
    bounds = np.concatenate(([0.0], cuts * alpha, [np.inf]))
    upper = np.where(np.isinf(bounds[1:]), 1.0, gammainc(alpha + 1.0, bounds[1:]))
    lower = gammainc(alpha + 1.0, bounds[:-1])
    rates = n_categories * (upper - lower)
    # Guard against ppf round-off: renormalise the (already ~1) mean.
    return rates / rates.mean()


@dataclass(frozen=True)
class GammaRates:
    """Discrete-Gamma rate model: ``k`` rates, equal weights ``1/k``."""

    alpha: float
    n_categories: int = 4

    @property
    def rates(self) -> np.ndarray:
        return discrete_gamma_rates(self.alpha, self.n_categories)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_categories, 1.0 / self.n_categories)

    def with_alpha(self, alpha: float) -> "GammaRates":
        return GammaRates(alpha=alpha, n_categories=self.n_categories)


@dataclass(frozen=True)
class CatRates:
    """CAT-style per-site rates: each site pattern owns one rate category.

    ``category_rates`` holds the distinct rates; ``site_categories`` maps
    each alignment pattern to a category index.  Rates are normalised so
    the *weighted* mean rate over patterns is 1 (weights supplied at
    construction), preserving branch-length units.
    """

    category_rates: np.ndarray
    site_categories: np.ndarray

    def __post_init__(self) -> None:
        cr = np.asarray(self.category_rates, dtype=np.float64)
        sc = np.asarray(self.site_categories, dtype=np.int64)
        if np.any(cr <= 0):
            raise ValueError("CAT category rates must be positive")
        if sc.min(initial=0) < 0 or (sc.size and sc.max() >= cr.size):
            raise ValueError("site category index out of range")
        object.__setattr__(self, "category_rates", cr)
        object.__setattr__(self, "site_categories", sc)

    @property
    def n_categories(self) -> int:
        return self.category_rates.shape[0]

    def site_rates(self) -> np.ndarray:
        """Per-pattern rate vector."""
        return self.category_rates[self.site_categories]

    def with_alpha(self, alpha: float, weights: np.ndarray) -> "CatRates":
        """Category rates re-derived from a Gamma shape, assignment kept.

        ``weights`` must be the pattern weights of the *full* alignment
        the assignment covers: normalising against a slice's weights
        would silently shift every site rate.
        """
        rates = discrete_gamma_rates(alpha, self.n_categories)
        mean = float(np.average(rates[self.site_categories], weights=weights))
        return CatRates(
            category_rates=rates / mean, site_categories=self.site_categories
        )

    @classmethod
    def from_gamma(
        cls,
        alpha: float,
        n_patterns: int,
        n_categories: int,
        rng: np.random.Generator,
        weights: np.ndarray | None = None,
    ) -> "CatRates":
        """Random CAT assignment with Gamma-discretised category rates.

        A cheap stand-in for RAxML's likelihood-driven CAT clustering:
        good enough to exercise the per-site-rate kernel paths and the
        alignment-padding logic.
        """
        rates = discrete_gamma_rates(alpha, n_categories)
        cats = rng.integers(0, n_categories, size=n_patterns)
        if weights is None:
            weights = np.ones(n_patterns)
        mean = float(np.average(rates[cats], weights=weights))
        return cls(category_rates=rates / mean, site_categories=cats)
