"""Unit tests for rate-heterogeneity models."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import gamma as gamma_dist

from repro.phylo.rates import CatRates, GammaRates, discrete_gamma_rates


class TestDiscreteGamma:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_mean_is_one(self, alpha):
        rates = discrete_gamma_rates(alpha, 4)
        assert rates.mean() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    def test_category_counts(self, k):
        rates = discrete_gamma_rates(0.7, k)
        assert rates.shape == (k,)
        assert rates.mean() == pytest.approx(1.0)

    def test_rates_increasing(self):
        rates = discrete_gamma_rates(0.5, 4)
        assert np.all(np.diff(rates) > 0)

    def test_rates_positive(self):
        rates = discrete_gamma_rates(0.05, 4)
        assert np.all(rates > 0)

    def test_large_alpha_approaches_uniform(self):
        rates = discrete_gamma_rates(500.0, 4)
        np.testing.assert_allclose(rates, 1.0, atol=0.1)

    def test_small_alpha_is_skewed(self):
        rates = discrete_gamma_rates(0.1, 4)
        assert rates[0] < 1e-3
        assert rates[-1] > 2.0

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_bitwise_equal_to_the_scipy_stats_quantiles(self, k):
        """``gammaincinv`` replaced ``scipy.stats.gamma.ppf`` (an import
        worth 0.2-0.5 s of every process start): not one bit may move."""
        probs = np.arange(1, k) / k
        grid = np.concatenate(
            ([0.02, 0.05, 0.3, 1.0, 2.0, 37.5, 100.0], np.geomspace(0.02, 100, 200))
        )
        for alpha in grid:
            cuts = gamma_dist.ppf(probs, a=alpha, scale=1.0 / alpha)
            bounds = np.concatenate(([0.0], cuts * alpha, [np.inf]))
            mass = np.where(
                np.isinf(bounds[1:]), 1.0, gammainc(alpha + 1.0, bounds[1:])
            ) - gammainc(alpha + 1.0, bounds[:-1])
            expected = k * mass / (k * mass).mean()
            assert np.array_equal(discrete_gamma_rates(alpha, k), expected)

    def test_search_import_leaves_scipy_stats_out(self):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.search; sys.exit('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 0

    def test_matches_monte_carlo_category_means(self):
        """Category means equal conditional means of the Gamma slices."""
        alpha, k = 0.8, 4
        rates = discrete_gamma_rates(alpha, k)
        rng = np.random.default_rng(0)
        draws = np.sort(gamma_dist.rvs(alpha, scale=1 / alpha, size=400_000, random_state=rng))
        mc = draws.reshape(k, -1).mean(axis=1)
        np.testing.assert_allclose(rates, mc, rtol=0.02)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            discrete_gamma_rates(-1.0, 4)
        with pytest.raises(ValueError):
            discrete_gamma_rates(1.0, 0)

    def test_single_category_is_unit(self):
        np.testing.assert_array_equal(discrete_gamma_rates(0.5, 1), [1.0])


class TestGammaRates:
    def test_weights_uniform(self):
        g = GammaRates(alpha=1.0, n_categories=4)
        np.testing.assert_allclose(g.weights, 0.25)

    def test_with_alpha(self):
        g = GammaRates(alpha=1.0).with_alpha(2.0)
        assert g.alpha == 2.0
        assert g.n_categories == 4


class TestCatRates:
    def test_from_gamma_normalised(self):
        rng = np.random.default_rng(1)
        cat = CatRates.from_gamma(0.7, n_patterns=100, n_categories=4, rng=rng)
        assert cat.site_rates().shape == (100,)
        assert cat.site_rates().mean() == pytest.approx(1.0, abs=1e-9)

    def test_weighted_normalisation(self):
        rng = np.random.default_rng(2)
        weights = rng.integers(1, 5, size=50).astype(float)
        cat = CatRates.from_gamma(0.7, 50, 4, rng, weights=weights)
        mean = np.average(cat.site_rates(), weights=weights)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_category_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            CatRates(np.array([1.0]), np.array([0, 1]))

    def test_positive_rates_required(self):
        with pytest.raises(ValueError, match="positive"):
            CatRates(np.array([0.0, 1.0]), np.array([0, 1]))
