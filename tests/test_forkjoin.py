"""Tests for the functional fork-join (RAxML-Light PThreads) engine."""

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.parallel.forkjoin import ForkJoinEngine
from repro.parallel.pthreads import MIC_PTHREADS
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.search import optimize_all_branches


@pytest.fixture(scope="module")
def problem():
    sim = simulate_dataset(n_taxa=8, n_sites=240, seed=44)
    pat = sim.alignment.compress()
    return sim, pat, gtr(), GammaRates(0.9, 4)


class TestEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 4, 7])
    def test_matches_serial(self, problem, threads):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        fj = ForkJoinEngine(pat, sim.tree.copy(), model, gamma, n_threads=threads)
        assert fj.log_likelihood() - serial.log_likelihood() == 0.0

    def test_site_lnl_order(self, problem):
        sim, pat, model, gamma = problem
        serial = LikelihoodEngine(pat, sim.tree.copy(), model, gamma)
        fj = ForkJoinEngine(pat, sim.tree.copy(), model, gamma, n_threads=3)
        np.testing.assert_array_equal(
            fj.site_log_likelihoods(), serial.site_log_likelihoods()
        )

    def test_branch_opt_on_forkjoin(self, problem):
        sim, pat, model, gamma = problem
        fj = ForkJoinEngine(pat, sim.tree.copy(), model, gamma, n_threads=3)
        before = fj.log_likelihood()
        after = optimize_all_branches(fj, passes=2)
        assert after >= before


class TestAccounting:
    def test_two_syncs_per_kernel_call(self, problem):
        """The defining property: every kernel call is a parallel region."""
        sim, pat, model, gamma = problem
        fj = ForkJoinEngine(
            pat, sim.tree.copy(), model, gamma, n_threads=4,
            sync_model=MIC_PTHREADS,
        )
        fj.log_likelihood()
        regions_after_lnl = fj.parallel_regions
        assert regions_after_lnl >= 1
        sb = fj.edge_sum_buffer(fj.default_edge())
        fj.branch_derivatives(sb, 0.1)
        assert fj.parallel_regions == regions_after_lnl + 2
        expected = fj.parallel_regions * MIC_PTHREADS.region_overhead_s(4)
        assert fj.sync_seconds == pytest.approx(expected)

    def test_more_sync_than_examl_scheme(self, problem):
        """Fork-join accumulates region cost on newview-heavy workloads
        where ExaML's scheme pays nothing (E9's mechanism)."""
        from repro.parallel import DistributedEngine, SimMPI

        sim, pat, model, gamma = problem
        fj = ForkJoinEngine(
            pat, sim.tree.copy(), model, gamma, n_threads=4,
            sync_model=MIC_PTHREADS,
        )
        mpi = SimMPI(4)
        dist = DistributedEngine(
            pat, sim.tree.copy(), model, gamma, n_ranks=4, mpi=mpi
        )
        optimize_all_branches(fj, passes=1)
        optimize_all_branches(dist, passes=1)
        # fork-join pays 2 barriers per call; ExaML only at reductions
        assert fj.sync_seconds > mpi.comm_seconds

    def test_thread_validation(self, problem):
        sim, pat, model, gamma = problem
        with pytest.raises(ValueError, match="thread"):
            ForkJoinEngine(pat, sim.tree.copy(), model, gamma, n_threads=0)
