"""Kernel correctness: reference kernels vs. brute-force likelihood."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.core import LikelihoodEngine
from repro.core.kernels import (
    branch_exponentials,
    branch_matrices,
    derivative_core,
    derivative_sum,
    evaluate_edge,
    tip_eigen_table,
)
from repro.core.scaling import LOG_SCALE_STEP, SCALE_THRESHOLD, rescale_clv
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.phylo.states import DNA


def brute_force_lnl(tree, patterns, model, gamma):
    """Independent Felsenstein pruning with scipy expm matrices."""
    q = model.rate_matrix()
    pi = model.frequencies
    tip_table = patterns.states.tip_table()
    rates = gamma.rates

    def cond(node, up_edge, rate):
        if tree.is_leaf(node):
            return tip_table[patterns.row(tree.name(node))]
        out = np.ones((patterns.n_patterns, model.n_states))
        for child, eid in tree.children(node, up_edge):
            p = expm(q * rate * tree.edge(eid).length)
            out *= cond(child, eid, rate) @ p.T
        return out

    e0 = tree.edge_ids[0]
    edge = tree.edge(e0)
    total = np.zeros(patterns.n_patterns)
    for r, rate in enumerate(rates):
        p = expm(q * rate * edge.length)
        wl = cond(edge.u, e0, rate)
        wr = cond(edge.v, e0, rate)
        total += gamma.weights[r] * np.einsum("pi,i,ij,pj->p", wl, pi, p, wr)
    return float(np.dot(np.log(total), patterns.weights))


@pytest.fixture(scope="module")
def setup():
    sim = simulate_dataset(n_taxa=7, n_sites=80, seed=21)
    patterns = sim.alignment.compress()
    model = gtr(
        np.array([1.5, 2.8, 0.7, 1.2, 4.1, 1.0]),
        np.array([0.28, 0.22, 0.24, 0.26]),
    )
    gamma = GammaRates(0.6, 4)
    engine = LikelihoodEngine(patterns, sim.tree.copy(), model, gamma)
    return sim, patterns, model, gamma, engine


class TestAgainstBruteForce:
    def test_log_likelihood_matches(self, setup):
        sim, patterns, model, gamma, engine = setup
        expected = brute_force_lnl(engine.tree, patterns, model, gamma)
        assert engine.log_likelihood() == pytest.approx(expected, abs=1e-9)

    def test_no_gamma_case(self):
        sim = simulate_dataset(n_taxa=5, n_sites=50, seed=5, alpha=None)
        patterns = sim.alignment.compress()
        model = gtr()
        gamma = GammaRates(1.0, 1)
        engine = LikelihoodEngine(patterns, sim.tree.copy(), model, gamma)
        expected = brute_force_lnl(engine.tree, patterns, model, gamma)
        assert engine.log_likelihood() == pytest.approx(expected, abs=1e-9)


class TestBranchStructures:
    def test_branch_matrix_times_uinv_is_p(self, setup):
        _, _, model, gamma, _ = setup
        eig = model.eigen()
        a = branch_matrices(eig, gamma.rates, 0.37)
        q = model.rate_matrix()
        for c, rate in enumerate(gamma.rates):
            np.testing.assert_allclose(
                a[c] @ eig.u_inv, expm(q * rate * 0.37), atol=1e-10
            )

    def test_exponentials_shape_and_t0(self, setup):
        _, _, model, gamma, _ = setup
        eig = model.eigen()
        e = branch_exponentials(eig, gamma.rates, 0.0)
        np.testing.assert_allclose(e, 1.0)

    def test_tip_eigen_roundtrip(self, setup):
        """U @ tipVector[code] must reproduce the indicator vector."""
        _, _, model, _, _ = setup
        eig = model.eigen()
        table = DNA.tip_table()
        tv = tip_eigen_table(eig, table)
        np.testing.assert_allclose(tv @ eig.u.T, table, atol=1e-12)


class TestDerivatives:
    def test_derivative_matches_finite_difference(self, setup):
        _, patterns, model, gamma, engine = setup
        eid = engine.tree.edge_ids[3]
        sumbuf = engine.edge_sum_buffer(eid)
        t0 = 0.23
        _, d1, d2 = engine.branch_derivatives(sumbuf, t0)
        h = 1e-6

        def lnl_at(t):
            engine.tree.edge(eid).length = t
            return engine.log_likelihood(eid)

        orig = engine.tree.edge(eid).length
        num_d1 = (lnl_at(t0 + h) - lnl_at(t0 - h)) / (2 * h)
        # Second differences cancel catastrophically at h=1e-6 on lnL
        # values of magnitude ~1e3; a wider step keeps FD noise below the
        # O(h^2) truncation error.
        h2 = 1e-4
        num_d2 = (lnl_at(t0 + h2) - 2 * lnl_at(t0) + lnl_at(t0 - h2)) / (h2 * h2)
        engine.tree.edge(eid).length = orig
        assert d1 == pytest.approx(num_d1, rel=1e-4, abs=1e-4)
        assert d2 == pytest.approx(num_d2, rel=1e-4, abs=1e-3)

    def test_derivative_core_lnl_consistent_with_evaluate(self, setup):
        """derivativeCore's lnL equals evaluate's (up to scaling consts)."""
        _, patterns, model, gamma, engine = setup
        eid = engine.tree.edge_ids[0]
        t = engine.tree.edge(eid).length
        sumbuf = engine.edge_sum_buffer(eid)
        lnl_core, _, _ = engine.branch_derivatives(sumbuf, t)
        # evaluate path
        engine.ensure_valid(eid)
        z_l, z_r, scales = engine._root_sides(eid)
        eig = engine.rates.eigen
        exps = branch_exponentials(eig, gamma.rates, t)
        lnl_eval = evaluate_edge(
            z_l, z_r, exps, engine.rates.rate_weights, patterns.weights, scales
        )
        correction = float(np.dot(scales, patterns.weights)) * LOG_SCALE_STEP
        assert lnl_core - correction == pytest.approx(lnl_eval, abs=1e-8)

    def test_derivative_sum_is_elementwise_product(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 4, 4))
        b = rng.normal(size=(10, 4, 4))
        np.testing.assert_array_equal(derivative_sum(a, b), a * b)

    def test_derivative_core_rejects_bad_sumbuffer(self, setup):
        _, patterns, model, gamma, _ = setup
        eig = model.eigen()
        bad = -np.ones((3, 4, 4))
        with pytest.raises(FloatingPointError):
            derivative_core(
                bad, eig.eigenvalues, gamma.rates, gamma.weights, 0.1,
                np.ones(3),
            )


class TestScaling:
    def test_rescale_triggers_below_threshold(self):
        z = np.full((2, 4, 4), SCALE_THRESHOLD / 4)
        z[1] = 0.5  # second pattern healthy
        counts = np.zeros(2, dtype=np.int64)
        rescale_clv(z, counts)
        assert counts[0] == 1 and counts[1] == 0
        assert z[0, 0, 0] == pytest.approx(SCALE_THRESHOLD / 4 * 2.0**256)

    def test_scaled_likelihood_equals_unscaled(self):
        """A deep caterpillar forces scaling; lnL must match brute force.

        Long branches make every CLA entry shrink by a constant factor per
        level; ~200 levels cross the 2**-256 threshold.  Near-uniform
        Gamma rates (huge alpha) keep *all* rate categories decaying, so
        whole site blocks underflow — the trigger condition.
        """
        from repro.phylo import Alignment, Tree

        n = 220
        core = "(t0:2.0,t1:2.0)"
        for i in range(2, n):
            core = f"({core}:2.0,t{i}:2.0)"
        tree = Tree.from_newick(core + ";")
        seqs = {f"t{i}": "ACGTAC" for i in range(n)}
        patterns = Alignment.from_sequences(seqs).compress()
        model = gtr()
        gamma = GammaRates(200.0, 4)
        engine = LikelihoodEngine(patterns, tree, model, gamma)
        lnl = engine.log_likelihood()
        total_scales = sum(int(sc.sum()) for _, (_, sc) in engine.store.items())
        assert total_scales > 0, "test should exercise the scaling path"
        expected = brute_force_lnl(tree, patterns, model, gamma)
        assert lnl == pytest.approx(expected, rel=1e-10)
