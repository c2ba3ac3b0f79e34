"""Tests for the GTR+I(+Gamma) invariant-sites model."""

import numpy as np
import pytest

from repro.core import KernelKind, LikelihoodEngine, make_engine
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.search import optimize_all_branches
from repro.search.model_opt import optimize_pinv


@pytest.fixture(scope="module")
def setup():
    sim = simulate_dataset(n_taxa=7, n_sites=300, seed=81)
    pat = sim.alignment.compress()
    model = gtr(
        np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
        np.array([0.3, 0.2, 0.2, 0.3]),
    )
    return sim, pat, model


class TestCorrectness:
    def test_pinv_zero_equals_plain_engine(self, setup):
        sim, pat, model = setup
        plain = LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(0.7, 4))
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=0.0
        )
        assert inv.log_likelihood() == pytest.approx(
            plain.log_likelihood(), abs=1e-10
        )

    def test_matches_manual_mixture(self, setup):
        """L = p*I + (1-p)*L_gamma, with variable rates scaled 1/(1-p)."""
        sim, pat, model = setup
        p = 0.25
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=p
        )
        lnl_inv = inv.log_likelihood()
        # manual: plain engine with scaled rates gives the Gamma part
        gamma = GammaRates(0.7, 4)
        plain = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        plain.rates.rate_values = plain.rates.rate_values / (1 - p)
        lg = plain.site_log_likelihoods()
        # invariant mass per pattern
        mask = pat.data[0].astype(np.uint64)
        for row in pat.data[1:]:
            mask = mask & row.astype(np.uint64)
        inv_mass = pat.states.tip_rows(mask) @ model.frequencies
        with np.errstate(divide="ignore"):
            expected_site = np.logaddexp(
                np.log(p) + np.log(inv_mass), np.log1p(-p) + lg
            )
        expected = float(np.dot(expected_site, pat.weights))
        assert lnl_inv == pytest.approx(expected, abs=1e-9)

    def test_pulley_principle(self, setup):
        sim, pat, model = setup
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=0.2
        )
        vals = [inv.log_likelihood(e) for e in inv.tree.edge_ids]
        assert max(vals) - min(vals) < 1e-9

    def test_derivatives_match_finite_difference(self, setup):
        sim, pat, model = setup
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=0.3
        )
        tree = inv.tree
        eid = tree.edge_ids[2]
        sb = inv.edge_sum_buffer(eid)
        t0 = tree.edge(eid).length
        _, d1, d2 = inv.branch_derivatives(sb, t0)
        h = 1e-6

        def lnl_at(t):
            tree.edge(eid).length = t
            return inv.log_likelihood(eid)

        fd1 = (lnl_at(t0 + h) - lnl_at(t0 - h)) / (2 * h)
        h2 = 1e-4
        fd2 = (lnl_at(t0 + h2) - 2 * lnl_at(t0) + lnl_at(t0 - h2)) / (h2 * h2)
        tree.edge(eid).length = t0
        assert d1 == pytest.approx(fd1, rel=1e-4, abs=1e-4)
        assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-2)


    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    def test_derivatives_reach_the_backend(self, setup, backend):
        """+I Newton runs the backend's ``derivative_core`` kernel: every
        dispatch the engine counts is one the backend timed."""
        sim, pat, model = setup
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=0.1,
            backend=backend,
        )
        eid = inv.default_edge()
        sb = inv.edge_sum_buffer(eid)
        for t in (0.05, 0.1):
            inv.branch_derivatives(sb, t)
        core = KernelKind.DERIVATIVE_CORE
        assert inv.profile.calls[core] == inv.counters.calls[core] == 2


class TestBehaviour:
    def test_branch_optimization_runs(self, setup):
        sim, pat, model = setup
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=0.2
        )
        before = inv.log_likelihood()
        after = optimize_all_branches(inv, passes=2)
        assert after >= before

    def test_pinv_recovery_on_invariant_rich_data(self):
        """Data simulated with many constant sites prefers p_inv > 0."""
        from repro.phylo import Tree, simulate_alignment, Alignment

        model = gtr()
        tree = Tree.from_newick("((a:0.4,b:0.4):0.2,(c:0.4,d:0.4):0.2);")
        rng = np.random.default_rng(5)
        var = simulate_alignment(tree, model, 600, rng).alignment
        # splice in 400 genuinely invariant columns
        states = "ACGT"
        const_cols = rng.choice(4, size=400)
        seqs = {}
        for i, taxon in enumerate(var.taxa):
            extra = "".join(states[c] for c in const_cols)
            seqs[taxon] = var.sequence(taxon) + extra
        pat = Alignment.from_sequences(seqs).compress()
        inv = make_engine(
            pat, tree.copy(), model, GammaRates(10.0, 4), p_inv=0.01
        )
        lnl = optimize_pinv(inv)
        assert inv.p_inv > 0.15
        # and the optimised model beats p_inv = 0
        inv.set_p_inv(0.0)
        assert lnl > inv.log_likelihood()

    def test_pinv_validation(self, setup):
        sim, pat, model = setup
        with pytest.raises(ValueError, match="p_inv"):
            make_engine(
                pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=1.0
            )

    def test_variable_rates_rescaled(self, setup):
        sim, pat, model = setup
        inv = make_engine(
            pat, sim.tree.copy(), model, GammaRates(0.7, 4), p_inv=0.5
        )
        plain = LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(0.7, 4))
        np.testing.assert_allclose(
            inv.rates.rate_values, plain.rates.rate_values / 0.5
        )
