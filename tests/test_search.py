"""Tests for branch/model optimisation, SPR search, and the full driver."""

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.phylo import GammaRates, gtr, random_topology, simulate_dataset
from repro.phylo.tree import MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH
from repro.search import (
    SearchConfig,
    empirical_frequencies,
    ml_search,
    optimize_all_branches,
    optimize_alpha,
    optimize_branch,
    optimize_model,
    spr_round,
    spr_search,
)
from repro.search.branch_opt import _newton_on_sumbuffer, newton_converged
from tolerances import BRANCH_LENGTH_RTOL


@pytest.fixture(scope="module")
def engine_setup():
    sim = simulate_dataset(n_taxa=8, n_sites=400, seed=31)
    pat = sim.alignment.compress()
    model = gtr(frequencies=empirical_frequencies(pat))
    return sim, pat, model


def fresh_engine(sim, pat, model, alpha=1.0):
    return LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(alpha, 4))


class TestBranchOpt:
    def test_single_branch_improves_lnl(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        eid = eng.tree.edge_ids[0]
        eng.tree.edge(eid).length = 2.0  # deliberately bad
        before = eng.log_likelihood()
        res = optimize_branch(eng, eid)
        after = eng.log_likelihood()
        assert after >= before
        assert res.length != pytest.approx(2.0)

    def test_optimum_has_zero_gradient(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        eid = eng.tree.edge_ids[1]
        optimize_branch(eng, eid)
        sumbuf = eng.edge_sum_buffer(eid)
        _, d1, d2 = eng.branch_derivatives(sumbuf, eng.tree.edge(eid).length)
        assert abs(d1) < 1e-4
        assert d2 < 0

    def test_smoothing_monotone(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        rng = np.random.default_rng(0)
        for e in eng.tree.edges:
            e.length = float(rng.uniform(0.01, 1.0))
        before = eng.log_likelihood()
        after = optimize_all_branches(eng, passes=3)
        assert after > before

    def test_recovers_known_branch_length(self):
        """On abundant data the ML branch length approaches the truth."""
        from repro.phylo import Tree, simulate_alignment

        model = gtr()
        tree = Tree.from_newick("((a:0.1,b:0.1):0.25,(c:0.1,d:0.1):0.25);")
        rng = np.random.default_rng(0)
        sim = simulate_alignment(tree, model, 50_000, rng)
        pat = sim.alignment.compress()
        eng = LikelihoodEngine(pat, tree.copy(), model, GammaRates(1.0, 1))
        optimize_all_branches(eng, passes=4)
        internals = eng.tree.internal_nodes()
        eid = eng.tree.find_edge(*internals)
        assert eng.tree.edge(eid).length == pytest.approx(0.5, abs=0.05)


def _parent_rule(engine, sumbuf, t0, tolerance=1e-8, max_iterations=64):
    """The Newton loop as it was before PR 21, kept as the reference:
    absolute ``|d1| < tolerance`` and 30 unconditional step halvings."""
    t = float(np.clip(t0, MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH))
    lnl, d1, d2 = engine.branch_derivatives(sumbuf, t)
    for _ in range(max_iterations):
        if abs(d1) < tolerance:
            break
        step = -d1 / d2 if d2 < 0.0 else np.sign(d1) * max(abs(t), 0.05)
        for _ in range(30):
            t_new = float(
                np.clip(t + step, MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH)
            )
            if t_new == t:
                return t
            lnl_new, d1_new, d2_new = engine.branch_derivatives(sumbuf, t_new)
            if lnl_new >= lnl - 1e-13:
                t, lnl, d1, d2 = t_new, lnl_new, d1_new, d2_new
                break
            step *= 0.5
        else:
            break
    return t


class TestNewtonStop:
    """The stop test converges on what double precision can resolve."""

    @pytest.fixture()
    def counted(self):
        """12 taxa x 1000 sites, ``branch_derivatives`` calls counted."""
        sim = simulate_dataset(n_taxa=12, n_sites=1000, seed=5)
        eng = LikelihoodEngine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(1.0, 4),
        )
        calls = []
        inner = eng.branch_derivatives

        def branch_derivatives(sumbuf, t):
            calls.append(t)
            return inner(sumbuf, t)

        eng.branch_derivatives = branch_derivatives
        return eng, calls

    def test_predicate(self):
        # gradient below the summation noise of an lnL of this size ...
        assert newton_converged(-4e4, 3e-6, -1e5, 0.1)
        assert not newton_converged(-4e4, 5e-6, -10.0, 0.1)
        # ... the absolute tolerance where lnL is small ...
        assert newton_converged(-10.0, 5e-9, -1.0, 0.1)
        assert not newton_converged(-10.0, 5e-8, -1.0, 0.1, tolerance=1e-8)
        # ... or a pending Newton step below the resolution of t,
        # which a convex point (no Newton step) never satisfies
        assert newton_converged(-4e4, 5e-6, -1e4, 0.1)
        assert not newton_converged(-4e4, 5e-6, 1e4, 0.1)

    def test_converged_start_costs_at_most_two_evaluations(self, counted):
        eng, calls = counted
        for eid in eng.tree.edge_ids:
            sumbuf = eng.edge_sum_buffer(eid)
            t_opt = _parent_rule(eng, sumbuf, eng.tree.edge(eid).length)
            for _ in range(3):  # plain Newton onto the stationary point
                _, d1, d2 = eng.branch_derivatives(sumbuf, t_opt)
                t_opt -= d1 / d2
            del calls[:]
            t, _, ok = _newton_on_sumbuffer(eng, sumbuf, t_opt, 1e-8, 64)
            assert ok and len(calls) <= 2
            # restarted from its own answer it learns nothing new either
            del calls[:]
            again, _, ok = _newton_on_sumbuffer(eng, sumbuf, t, 1e-8, 64)
            assert ok and len(calls) <= 3
            assert again == pytest.approx(t_opt, rel=BRANCH_LENGTH_RTOL)

    def test_lengths_match_the_parent_rule_at_a_fraction_of_its_cost(
        self, counted
    ):
        eng, calls = counted
        spent = {"new": 0, "parent": 0}
        for eid in eng.tree.edge_ids:
            sumbuf = eng.edge_sum_buffer(eid)
            t0 = eng.tree.edge(eid).length
            del calls[:]
            t, _, ok = _newton_on_sumbuffer(eng, sumbuf, t0, 1e-8, 64)
            spent["new"] += len(calls)
            del calls[:]
            t_parent = _parent_rule(eng, sumbuf, t0)
            spent["parent"] += len(calls)
            assert ok
            assert t == pytest.approx(t_parent, rel=BRANCH_LENGTH_RTOL)
        assert spent["new"] < spent["parent"] / 4

    def test_mean_evaluations_per_solve(self, counted):
        eng, calls = counted
        optimize_all_branches(eng, passes=1)
        assert len(calls) / len(eng.tree.edge_ids) <= 6

    @pytest.mark.parametrize(
        "start", [MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH, 5.0]
    )
    def test_clamp_and_convex_starts_converge(self, counted, start):
        eng, calls = counted
        eid = eng.tree.edge_ids[3]
        sumbuf = eng.edge_sum_buffer(eid)
        if start == 5.0:  # far out the surface is convex: no Newton step
            assert eng.branch_derivatives(sumbuf, start)[2] >= 0.0
        t_opt = _parent_rule(eng, sumbuf, eng.tree.edge(eid).length)
        del calls[:]
        t, _, ok = _newton_on_sumbuffer(eng, sumbuf, start, 1e-8, 64)
        assert ok and len(calls) <= 20
        assert t == pytest.approx(t_opt, rel=BRANCH_LENGTH_RTOL)


class TestModelOpt:
    def test_alpha_recovery(self):
        sim = simulate_dataset(n_taxa=8, n_sites=5000, seed=32, alpha=0.4)
        pat = sim.alignment.compress()
        model = gtr(
            np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
            np.array([0.3, 0.2, 0.2, 0.3]),
        )
        eng = LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(2.0, 4))
        optimize_alpha(eng)
        assert eng.rates_model.alpha == pytest.approx(0.4, abs=0.12)

    def test_model_opt_monotone(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model, alpha=3.0)
        before = eng.log_likelihood()
        res = optimize_model(eng, max_rounds=2)
        assert res.lnl > before

    def test_empirical_frequencies_sane(self, engine_setup):
        _, pat, _ = engine_setup
        freqs = empirical_frequencies(pat)
        assert freqs.shape == (4,)
        assert freqs.sum() == pytest.approx(1.0)
        assert np.all(freqs > 0)


class TestSpr:
    def test_round_improves_bad_tree(self, engine_setup):
        sim, pat, model = engine_setup
        bad_tree = random_topology(list(pat.taxa), np.random.default_rng(123))
        eng = LikelihoodEngine(pat, bad_tree, model, GammaRates(1.0, 4))
        optimize_all_branches(eng, passes=2)
        stats = spr_round(eng, radius=5)
        assert stats.lnl_after >= stats.lnl_before
        assert stats.moves_tried > 0

    def test_round_on_optimal_tree_accepts_nothing(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        optimize_all_branches(eng, passes=3)
        stats = spr_round(eng, radius=3, epsilon=0.1)
        # true tree with optimised branches should be (near) SPR-optimal
        assert stats.moves_accepted <= 1

    def test_rejected_trials_leave_the_tree_exactly(self, engine_setup):
        sim, pat, model = engine_setup
        eng = fresh_engine(sim, pat, model)
        optimize_all_branches(eng, passes=1)
        before = eng.tree.to_state()
        stats = spr_round(eng, radius=5, epsilon=1e9)
        assert stats.moves_tried > 0 and stats.moves_accepted == 0
        assert eng.tree.to_state() == before


class TestRingEscalation:
    """``spr_search`` scores only the ring of new targets after a round
    that accepted nothing; that must equal re-scoring the full disk."""

    @pytest.fixture(scope="class")
    def ring_case(self):
        sim = simulate_dataset(n_taxa=10, n_sites=200, seed=22)
        return sim.alignment.compress()

    @staticmethod
    def _engine(pat, tree_seed):
        tree = random_topology(list(pat.taxa), np.random.default_rng(tree_seed))
        eng = LikelihoodEngine(pat, tree, gtr(), GammaRates(1.0, 4))
        optimize_all_branches(eng, passes=1)
        return eng

    @staticmethod
    def _full_schedule(engine, radii, max_rounds=10, smooth_passes=2):
        """``spr_search``'s radius ladder, every round over the full disk."""
        history, idx = [], 0
        for _ in range(max_rounds):
            stats = spr_round(engine, radii[idx])
            history.append(stats)
            if stats.moves_accepted:
                optimize_all_branches(engine, passes=smooth_passes)
                continue
            idx += 1
            if idx == len(radii):
                break
        return history

    @pytest.mark.parametrize("tree_seed", [0, 2, 4])
    def test_ring_rounds_equal_full_rounds_bitwise(self, ring_case, tree_seed):
        radii = (1, 5)
        ring = self._engine(ring_case, tree_seed)
        full = self._engine(ring_case, tree_seed)
        ring_history = spr_search(ring, radii=radii)
        full_history = self._full_schedule(full, radii)

        assert ring.log_likelihood() == full.log_likelihood()
        assert ring.tree.to_state() == full.tree.to_state()
        assert [(h.radius, h.moves_accepted) for h in ring_history] == [
            (h.radius, h.moves_accepted) for h in full_history
        ]
        ring_trials = sum(h.moves_tried for h in ring_history)
        assert ring_trials < sum(h.moves_tried for h in full_history)
        if tree_seed in (0, 4):
            # the ring round itself accepts: later subtrees of that round
            # must then score their full disk again
            assert any(
                h.moves_accepted
                for prev, h in zip(ring_history, ring_history[1:])
                if prev.moves_accepted == 0
            )

    def test_non_increasing_radii(self, ring_case):
        ring, full = self._engine(ring_case, 2), self._engine(ring_case, 2)
        ring_history = spr_search(ring, radii=(3, 1, 3))
        full_history = self._full_schedule(full, (3, 1, 3))
        assert ring.tree.to_state() == full.tree.to_state()
        # the ring of a smaller radius is empty; the last round scores
        # only what radius 1 did not reach
        assert [h.radius for h in ring_history][-2:] == [1, 3]
        assert ring_history[-2].moves_tried == 0
        assert 0 < ring_history[-1].moves_tried < full_history[-1].moves_tried


class TestFullSearch:
    def test_recovers_true_topology(self):
        sim = simulate_dataset(n_taxa=8, n_sites=800, seed=33)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(4,), max_spr_rounds=4)
        )
        assert res.tree.robinson_foulds(sim.tree) == 0

    def test_beats_starting_tree(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=34)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(4,), max_spr_rounds=3)
        )
        start_lnl = res.lnl_trajectory[0][1]
        assert res.lnl > start_lnl

    def test_trajectory_monotone(self):
        sim = simulate_dataset(n_taxa=7, n_sites=300, seed=35)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(3,), max_spr_rounds=3)
        )
        values = [v for _, v in res.lnl_trajectory]
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    def test_counters_populated(self):
        sim = simulate_dataset(n_taxa=6, n_sites=200, seed=36)
        res = ml_search(
            sim.alignment, config=SearchConfig(radii=(3,), max_spr_rounds=2)
        )
        merged = res.counters.merged()
        assert merged["newview"] > 0
        assert merged["evaluate"] > 0
        assert merged["derivative_sum"] > 0
        assert merged["derivative_core"] > merged["derivative_sum"]
        assert res.counters.reductions > 0

    def test_user_starting_tree_respected(self):
        sim = simulate_dataset(n_taxa=6, n_sites=200, seed=37)
        start = sim.tree.copy()
        res = ml_search(
            sim.alignment,
            starting_tree=start,
            config=SearchConfig(radii=(3,), max_spr_rounds=1),
        )
        # the provided tree is copied, not mutated
        assert start.robinson_foulds(sim.tree) == 0
        assert res.lnl < 0
