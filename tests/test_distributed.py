"""Integration tests: the distributed engine vs the serial engine."""

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.parallel import DistributedEngine, SimMPI
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.search import optimize_all_branches, optimize_branch, spr_round


@pytest.fixture(scope="module")
def problem():
    sim = simulate_dataset(n_taxa=8, n_sites=300, seed=55)
    pat = sim.alignment.compress()
    model = gtr(
        np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
        np.array([0.3, 0.2, 0.2, 0.3]),
    )
    gamma = GammaRates(0.7, 4)
    return sim, pat, model, gamma


class TestEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 7])
    def test_log_likelihood_matches_serial(self, problem, n_ranks):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        dist = DistributedEngine(
            pat, sim.tree.copy(), model, gamma, n_ranks=n_ranks
        )
        assert dist.log_likelihood() - serial.log_likelihood() == 0.0

    def test_site_lnl_gathered_in_order(self, problem):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        dist = DistributedEngine(pat, sim.tree.copy(), model, gamma, n_ranks=3)
        np.testing.assert_array_equal(
            dist.site_log_likelihoods(), serial.site_log_likelihoods()
        )

    def test_derivatives_match_serial(self, problem):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        tree2 = sim.tree.copy()
        dist = DistributedEngine(pat, tree2, model, gamma, n_ranks=4)
        eid = serial.tree.edge_ids[2]
        sb_serial = serial.edge_sum_buffer(eid)
        sb_dist = dist.edge_sum_buffer(tree2.edge_ids[2])
        for t in (0.05, 0.2, 0.9):
            a = serial.branch_derivatives(sb_serial, t)
            b = dist.branch_derivatives(sb_dist, t)
            assert [x - y for x, y in zip(a, b)] == [0.0, 0.0, 0.0]


class TestSearchOnDistributedEngine:
    """ExaML's point: the search code is oblivious to the distribution."""

    def test_branch_optimization_matches_serial(self, problem):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        tree2 = sim.tree.copy()
        dist = DistributedEngine(pat, tree2, model, gamma, n_ranks=3)
        lnl_serial = optimize_all_branches(serial, passes=2)
        lnl_dist = optimize_all_branches(dist, passes=2)
        assert lnl_dist - lnl_serial == 0.0

    def test_single_branch_same_optimum(self, problem):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        tree2 = sim.tree.copy()
        dist = DistributedEngine(pat, tree2, model, gamma, n_ranks=2)
        e_serial = serial.tree.edge_ids[0]
        e_dist = tree2.edge_ids[0]
        r1 = optimize_branch(serial, e_serial)
        r2 = optimize_branch(dist, e_dist)
        assert r1.length - r2.length == 0.0

    def test_spr_round_runs_distributed(self, problem):
        sim, pat, model, gamma = problem
        from repro.phylo import random_topology

        bad_tree = random_topology(list(pat.taxa), np.random.default_rng(3))
        dist = DistributedEngine(pat, bad_tree, model, gamma, n_ranks=2)
        optimize_all_branches(dist, passes=1)
        stats = spr_round(dist, radius=4)
        assert stats.lnl_after >= stats.lnl_before
        assert dist.comm_seconds > 0

    def test_communication_counted_per_reduction(self, problem):
        sim, pat, model, gamma = problem
        mpi = SimMPI(4)
        dist = DistributedEngine(
            pat, sim.tree.copy(), model, gamma, n_ranks=4, mpi=mpi
        )
        dist.log_likelihood()
        assert mpi.allreduce_calls == 1
        sb = dist.edge_sum_buffer(dist.default_edge())
        dist.branch_derivatives(sb, 0.1)
        assert mpi.allreduce_calls == 2


class TestValidation:
    def test_rank_mismatch_rejected(self, problem):
        sim, pat, model, gamma = problem
        with pytest.raises(ValueError, match="mismatch"):
            DistributedEngine(
                pat, sim.tree.copy(), model, gamma, n_ranks=3, mpi=SimMPI(2)
            )

    def test_zero_ranks_rejected(self, problem):
        sim, pat, model, gamma = problem
        with pytest.raises(ValueError, match="rank"):
            DistributedEngine(pat, sim.tree.copy(), model, gamma, n_ranks=0)


class TestProcessesExecution:
    """PR 5: each simulated rank backed by a real worker process."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_lnl_and_derivatives_bit_identical(self, problem, n_ranks):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        edge = serial.default_edge()
        t = sim.tree.edge(edge).length
        ref = serial.branch_derivatives(serial.edge_sum_buffer(edge), t)
        with DistributedEngine(
            pat, sim.tree.copy(), model, gamma, n_ranks=n_ranks,
            execution="processes",
        ) as dist:
            assert dist.log_likelihood() - serial.log_likelihood() == 0.0
            got = dist.branch_derivatives(dist.edge_sum_buffer(edge), t)
            for g, s in zip(got, ref):
                assert g - s == 0.0
            # reductions still go through the modelled interconnect
            assert dist.mpi.allreduce_calls >= 2
            if n_ranks > 1:
                assert dist.comm_seconds > 0.0
        from repro.parallel import active_arena_segments

        assert active_arena_segments() == []

    def test_injected_rank_death_kills_real_worker(self, problem):
        from repro.faults import FaultPlan, FaultSpec

        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        plan = FaultPlan(
            (FaultSpec(kind="rank-death", at_calls=(1,), rank=1),), seed=0
        )
        with DistributedEngine(
            pat, sim.tree.copy(), model, gamma, n_ranks=3,
            mpi=SimMPI(3, fault_plan=plan), execution="processes",
        ) as dist:
            first = dist.log_likelihood()   # allreduce call 0: clean
            assert first - serial.log_likelihood() == 0.0
            second = dist.log_likelihood()  # call 1: rank 1 dies
            assert second - serial.log_likelihood() == 0.0
            assert dist.dead_ranks == {1}
            assert dist.adoptions[1] in dist.alive_ranks
            # the real worker was killed; the next region notices the
            # broken pipe and replays on the adopter, still bit-exact
            third = dist.log_likelihood()
            assert third - serial.log_likelihood() == 0.0
            assert dist.pool.dead == {1}

    def test_abort_policy_propagates(self, problem):
        from repro.faults import FaultPlan, FaultSpec, RankFailure

        sim, pat, model, gamma = problem
        plan = FaultPlan(
            (FaultSpec(kind="rank-death", at_calls=(0,), rank=0),), seed=0
        )
        with DistributedEngine(
            pat, sim.tree.copy(), model, gamma, n_ranks=2,
            mpi=SimMPI(2, fault_plan=plan), execution="processes",
            on_rank_failure="abort",
        ) as dist:
            with pytest.raises(RankFailure):
                dist.log_likelihood()
