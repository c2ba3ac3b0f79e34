"""Tests for the simulated parallel runtimes (MPI/OpenMP/PThreads)."""

import numpy as np
import pytest

from repro.parallel import (
    CPU_OPENMP,
    CPU_PTHREADS,
    INFINIBAND_QLOGIC,
    MIC_ONCARD_MPI,
    MIC_OPENMP,
    MIC_PTHREADS,
    PCIE_MIC_MIC,
    SHARED_MEMORY,
    SimMPI,
    allreduce_time,
    distribute_block,
)


class TestInterconnects:
    def test_paper_latency_ordering(self):
        """Paper Sec. VI-B3: shm < IB (<5us) < MIC-MIC PCIe (~20us)."""
        assert SHARED_MEMORY.latency_s < INFINIBAND_QLOGIC.latency_s
        assert INFINIBAND_QLOGIC.latency_s < PCIE_MIC_MIC.latency_s
        assert PCIE_MIC_MIC.latency_s == pytest.approx(20e-6)

    def test_message_time_monotone_in_size(self):
        small = PCIE_MIC_MIC.message_time(8)
        big = PCIE_MIC_MIC.message_time(1 << 20)
        assert big > small

    def test_contention_grows_with_ranks(self):
        t2 = MIC_ONCARD_MPI.message_time(8, n_ranks=2)
        t120 = MIC_ONCARD_MPI.message_time(8, n_ranks=120)
        assert t120 > 3 * t2

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SHARED_MEMORY.message_time(-1)


class TestAllReduce:
    def test_single_rank_free(self):
        assert allreduce_time(1, 8, SHARED_MEMORY) == 0.0

    def test_cost_grows_with_ranks(self):
        costs = [allreduce_time(p, 8, SHARED_MEMORY) for p in (2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_hierarchical_charges_inter_link(self):
        flat = allreduce_time(4, 8, MIC_ONCARD_MPI)
        hier = allreduce_time(
            4, 8, MIC_ONCARD_MPI, inter=PCIE_MIC_MIC, ranks_per_group=2
        )
        # the hierarchical path includes the slow PCIe hop
        assert hier > 0
        assert hier != flat

    def test_flat_mic_reduction_is_expensive(self):
        """The Sec. V-D flat-MPI failure: 120-rank on-card AllReduce."""
        flat120 = allreduce_time(120, 8, MIC_ONCARD_MPI)
        hybrid2 = allreduce_time(2, 8, MIC_ONCARD_MPI)
        assert flat120 > 10 * hybrid2

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            allreduce_time(0, 8, SHARED_MEMORY)


class TestSimMPI:
    def test_allreduce_sums_exactly(self):
        mpi = SimMPI(4)
        parts = [np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                 np.array([5.0, 6.0]), np.array([7.0, 8.0])]
        total = mpi.allreduce_sum(parts)
        np.testing.assert_array_equal(total, [16.0, 20.0])

    def test_scalar_contributions(self):
        mpi = SimMPI(3)
        assert mpi.allreduce_sum([1.0, 2.0, 3.0])[0] == 6.0

    def test_accounting(self):
        mpi = SimMPI(4)
        mpi.allreduce_sum([1.0] * 4)
        mpi.allreduce_sum([2.0] * 4)
        assert mpi.allreduce_calls == 2
        assert mpi.comm_seconds > 0
        assert mpi.bytes_reduced == 2 * 8 * 4

    def test_wrong_contribution_count(self):
        mpi = SimMPI(2)
        with pytest.raises(ValueError, match="contributions"):
            mpi.allreduce_sum([1.0])

    def test_shape_mismatch(self):
        mpi = SimMPI(2)
        with pytest.raises(ValueError, match="shape"):
            mpi.allreduce_sum([np.zeros(2), np.zeros(3)])


class TestSyncModels:
    def test_mic_region_slower_than_cpu(self):
        assert MIC_OPENMP.region_overhead_s(118) > CPU_OPENMP.region_overhead_s(16)

    def test_single_thread_free(self):
        assert MIC_OPENMP.region_overhead_s(1) == 0.0

    def test_forkjoin_doubles_barrier(self):
        assert MIC_PTHREADS.region_overhead_s(118) == pytest.approx(
            2 * MIC_OPENMP.region_overhead_s(118)
        )
        assert CPU_PTHREADS.region_overhead_s(16) == pytest.approx(
            2 * CPU_OPENMP.region_overhead_s(16)
        )

    def test_parallel_for_scales(self):
        t1 = MIC_OPENMP.parallel_for_time(10_000, 1, 1e-7)
        t118 = MIC_OPENMP.parallel_for_time(10_000, 118, 1e-7)
        # big enough chunk: threading wins despite the ~113 us region cost
        assert t118 < t1

    def test_parallel_for_tiny_chunks_lose(self):
        # 100 items across 118 threads: barrier dominates
        t1 = MIC_OPENMP.parallel_for_time(100, 1, 1e-8)
        t118 = MIC_OPENMP.parallel_for_time(100, 118, 1e-8)
        assert t118 > t1


class TestDistribution:
    def test_block_covers_all_sites(self):
        d = distribute_block(103, 7)
        seen = sorted(i for a in d.assignment for i in a)
        assert seen == list(range(103))

    def test_balance(self):
        d = distribute_block(1000, 7)
        counts = d.per_worker_counts
        assert max(counts) - min(counts) <= 1
        assert d.imbalance < 1.01

    def test_max_per_worker(self):
        d = distribute_block(100, 8)
        assert d.max_per_worker == 13

    def test_more_workers_than_sites(self):
        d = distribute_block(3, 8)
        assert sum(d.per_worker_counts) == 3

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            distribute_block(10, 0)


class TestDistributionEdgeCases:
    """PR 5 satellites: empty slices and worker-surplus corner cases."""

    @pytest.mark.parametrize("factory", [distribute_block])
    def test_zero_patterns_gives_all_empty(self, factory):
        d = factory(0, 3)
        assert d.per_worker_counts == [0, 0, 0]
        assert all(len(a) == 0 for a in d.assignment)

    @pytest.mark.parametrize("factory", [distribute_block])
    def test_more_workers_than_patterns(self, factory):
        d = factory(3, 8)
        assert sum(d.per_worker_counts) == 3
        # the surplus workers hold empty, queryable slices
        assert list(d.indices_of(7)) == []
        seen = sorted(i for a in d.assignment for i in a)
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize("factory", [distribute_block])
    def test_single_worker_owns_everything(self, factory):
        d = factory(17, 1)
        assert list(d.indices_of(0)) == list(range(17))

    def test_block_slices_are_contiguous(self):
        d = distribute_block(103, 7)
        for w in range(7):
            idx = d.indices_of(w)
            if len(idx):
                assert list(idx) == list(range(idx[0], idx[-1] + 1))


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestDistributionProperties:
    """Every distribution is a partition: disjoint, complete, balanced."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_patterns=st.integers(min_value=0, max_value=500),
        n_workers=st.integers(min_value=1, max_value=40),
    )
    def test_partition_property(self, n_patterns, n_workers):
        d = distribute_block(n_patterns, n_workers)
        chunks = [list(d.indices_of(w)) for w in range(n_workers)]
        flat = [i for c in chunks for i in c]
        # disjoint + complete
        assert sorted(flat) == list(range(n_patterns))
        assert len(set(flat)) == len(flat)
        counts = [len(c) for c in chunks]
        # ceil-sized blocks: no worker exceeds ceil(n/p), and every
        # non-empty chunk is a contiguous index range
        ceil = -(-n_patterns // n_workers)
        assert max(counts, default=0) <= ceil
        for c in chunks:
            if c:
                assert c == list(range(c[0], c[-1] + 1))
