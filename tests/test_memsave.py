"""Tests for the bounded CLA store (memory saving by recomputation)."""

import numpy as np
import pytest

from repro.core import LikelihoodEngine, make_engine
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.search import optimize_all_branches, spr_round


@pytest.fixture(scope="module")
def problem():
    sim = simulate_dataset(n_taxa=20, n_sites=150, seed=33)
    pat = sim.alignment.compress()
    return sim, pat, gtr(), GammaRates(0.8, 4)


class TestExactness:
    def test_matches_full_engine(self, problem):
        sim, pat, model, gamma = problem
        full = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=4
        )
        assert save.log_likelihood() == pytest.approx(
            full.log_likelihood(), abs=1e-10
        )

    def test_every_root_edge_exact(self, problem):
        sim, pat, model, gamma = problem
        full = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=4
        )
        reference = full.log_likelihood()
        for e in save.tree.edge_ids:
            assert save.log_likelihood(e) == pytest.approx(reference, abs=1e-9)

    def test_minimum_budget_on_larger_tree(self):
        sim = simulate_dataset(n_taxa=40, n_sites=80, seed=1)
        pat = sim.alignment.compress()
        full = LikelihoodEngine(pat, sim.tree.copy(), gtr(), GammaRates(1.0, 4))
        save = make_engine(
            pat, sim.tree.copy(), gtr(), GammaRates(1.0, 4), max_resident=3
        )
        assert save.log_likelihood() == pytest.approx(
            full.log_likelihood(), abs=1e-9
        )

    def test_branch_optimization_identical(self, problem):
        sim, pat, model, gamma = problem
        full = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=5
        )
        lnl_full = optimize_all_branches(full, passes=1)
        lnl_save = optimize_all_branches(save, passes=1)
        assert lnl_save == pytest.approx(lnl_full, abs=1e-8)

    def test_spr_round_runs_under_pressure(self, problem):
        sim, pat, model, gamma = problem
        from repro.phylo import random_topology

        bad = random_topology(list(pat.taxa), np.random.default_rng(2))
        save = make_engine(pat, bad, model, gamma, max_resident=5)
        optimize_all_branches(save, passes=1)
        stats = spr_round(save, radius=3)
        assert stats.lnl_after >= stats.lnl_before


class TestBudget:
    def test_residency_capped(self, problem):
        sim, pat, model, gamma = problem
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=4
        )
        for e in save.tree.edge_ids:
            save.log_likelihood(e)
            assert len(save.store) <= 4

    def test_recomputation_counted(self, problem):
        sim, pat, model, gamma = problem
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=4
        )
        for e in save.tree.edge_ids:
            save.log_likelihood(e)
        assert save.store.recomputed > 0

    def test_more_newviews_than_full_engine(self, problem):
        sim, pat, model, gamma = problem
        full = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=4
        )
        for e in sorted(sim.tree.edge_ids):
            full.log_likelihood(e)
            save.log_likelihood(e)
        assert (
            save.counters.merged()["newview"] > full.counters.merged()["newview"]
        )

    def test_large_budget_avoids_recomputation(self, problem):
        sim, pat, model, gamma = problem
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=100
        )
        for e in save.tree.edge_ids:
            save.log_likelihood(e)
        assert save.store.recomputed == 0

    def test_memory_fraction(self, problem):
        """With ``n`` taxa the full engine holds ``n - 2`` CLAs; the
        bounded one holds ``max_resident / (n - 2)`` of that memory."""
        sim, pat, model, gamma = problem
        full = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=6
        )
        full.log_likelihood()
        save.log_likelihood()
        assert save.cla_memory_bytes() == pytest.approx(
            full.cla_memory_bytes() * 6 / 18
        )

    def test_drop_caches_is_not_eviction(self, problem):
        """Only what the *budget* dropped counts as a recomputation:
        ``drop_caches`` / ``set_model`` are the caller's own forgetting."""
        sim, pat, model, gamma = problem
        save = make_engine(
            pat, sim.tree.copy(), model, gamma, max_resident=100
        )
        save.log_likelihood()
        save.drop_caches()
        save.log_likelihood()
        save.set_alpha(0.5)
        save.log_likelihood()
        assert save.store.recomputed == 0

    def test_minimum_validated(self, problem):
        sim, pat, model, gamma = problem
        with pytest.raises(ValueError, match="at least 3"):
            make_engine(
                pat, sim.tree.copy(), model, gamma, max_resident=2
            )
