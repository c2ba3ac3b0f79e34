"""Partitioned (multi-gene) likelihood evaluation — paper extension.

The paper's MIC port "supports multiple data partitions" but was neither
optimised nor evaluated for them, warning that many partitions shrink
the parallel block size and grow communication (Sec. V-A); per-partition
load balancing is listed as future work (Sec. VII).

:class:`PartitionedEngine` evaluates a shared tree under independent
substitution models per partition (the standard multi-gene setup): the
total log-likelihood is the sum of the per-partition values, branch
lengths are shared (proportional branch lengths are a further extension)
and branch derivatives add across partitions — so the whole
:mod:`repro.search` layer again runs unchanged.

:func:`partition_workers` implements the load-balancing question the
paper raises: distributing whole partitions over workers (cheap, but
imbalanced for skewed partition sizes) versus splitting every partition
cyclically over all workers (balanced, but more synchronisation blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from .backends import KernelBackend, KernelProfile, get_backend
from .engine import LikelihoodEngine
from .schedule import FusedPlan, WaveStats, fuse_plans

__all__ = ["Partition", "PartitionedEngine", "partition_workers"]


@dataclass
class Partition:
    """One alignment partition: its data and its model configuration."""

    name: str
    patterns: PatternAlignment
    model: SubstitutionModel
    gamma: GammaRates


class PartitionedEngine:
    """Sum-of-partitions likelihood over one shared tree.

    Duck-types the single-partition :class:`LikelihoodEngine` surface
    used by the optimisers (``log_likelihood``, ``edge_sum_buffer``,
    ``branch_derivatives``, ``tree``), so branch-length optimisation and
    SPR search operate on partitioned data unchanged.
    """

    def __init__(
        self,
        partitions: list[Partition],
        tree: Tree,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        taxa = set(partitions[0].patterns.taxa)
        for p in partitions[1:]:
            if set(p.patterns.taxa) != taxa:
                raise ValueError(
                    f"partition {p.name!r} has a different taxon set"
                )
        self.partitions = partitions
        self.tree = tree
        # One backend instance shared by every per-partition engine, so
        # its profile aggregates the whole multi-gene workload.
        self.backend = get_backend(backend)
        self.engines = [
            LikelihoodEngine(p.patterns, tree, p.model, p.gamma, backend=self.backend)
            for p in partitions
        ]

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def rates_model(self) -> GammaRates:
        return self.engines[0].rates_model

    @property
    def model(self) -> SubstitutionModel:
        return self.engines[0].model

    def default_edge(self) -> int:
        return self.engines[0].default_edge()

    def branch_signature(self, edge_id: int) -> tuple:
        """Per-branch Newton memo key: every partition's model counts."""
        parts = [e.branch_signature(edge_id) for e in self.engines]
        return (parts[0][0], *(part[1] for part in parts))

    def set_alpha(self, alpha: float) -> None:
        """Shared-alpha convenience (per-partition alphas via engines)."""
        for engine in self.engines:
            engine.set_alpha(alpha)

    def plan_execution(self, root_edge: int) -> FusedPlan:
        """Per-partition plans fused into one cross-partition schedule.

        Wave ``k`` of the fused plan carries wave ``k`` of every
        partition, so the whole multi-gene update advances as a single
        levelized schedule instead of partition-by-partition dribbles —
        the synchronisation unit of a parallel driver spans partitions.
        """
        return fuse_plans(e.plan_execution(root_edge) for e in self.engines)

    def execute_plan(self, fused: FusedPlan) -> None:
        for wave in fused.waves:
            for part_idx, sub in wave.parts:
                self.engines[part_idx].run_wave(sub)

    def ensure_valid(self, root_edge: int) -> None:
        """Validate every partition's root CLAs via the fused schedule."""
        self.execute_plan(self.plan_execution(root_edge))

    def log_likelihood(self, root_edge: int | None = None) -> float:
        if root_edge is None:
            root_edge = self.default_edge()
        self.ensure_valid(root_edge)
        return sum(e.log_likelihood(root_edge) for e in self.engines)

    def edge_sum_buffer(self, root_edge: int) -> list[np.ndarray]:
        return [e.edge_sum_buffer(root_edge) for e in self.engines]

    def branch_derivatives(
        self, sumbufs: list[np.ndarray], t: float
    ) -> tuple[float, float, float]:
        totals = np.zeros(3)
        for engine, sb in zip(self.engines, sumbufs):
            totals += np.array(engine.branch_derivatives(sb, t))
        return float(totals[0]), float(totals[1]), float(totals[2])

    def all_branch_gradients(
        self, root_edge: int | None = None
    ) -> dict[int, tuple[float, float]]:
        """All-branch gradients summed across partitions.

        Branch lengths are shared, so each branch's lnL derivative is the
        sum of the per-partition derivatives — the same additivity
        :meth:`branch_derivatives` uses, now for every branch in one
        bidirectional sweep per partition.
        """
        if root_edge is None:
            root_edge = self.default_edge()
        totals: dict[int, tuple[float, float]] = {}
        for engine in self.engines:
            for eid, (d1, d2) in engine.all_branch_gradients(root_edge).items():
                t1, t2 = totals.get(eid, (0.0, 0.0))
                totals[eid] = (t1 + d1, t2 + d2)
        return totals

    def drop_caches(self) -> None:
        for engine in self.engines:
            engine.drop_caches()

    @property
    def counters(self):
        """Aggregated counters across partitions."""
        total = self.engines[0].counters.copy()
        for engine in self.engines[1:]:
            total.merge(engine.counters)
        return total

    @property
    def profile(self) -> KernelProfile:
        """Measured per-kernel profile of the shared backend."""
        return self.backend.profile

    @property
    def wave_stats(self) -> WaveStats:
        """Wave statistics aggregated across every partition's engine."""
        total = WaveStats()
        for engine in self.engines:
            total.merge(engine.wave_stats)
        return total

    def reset_profile(self) -> None:
        """Zero counters, the shared backend profile, and wave stats."""
        self.backend.profile.reset()
        for engine in self.engines:
            engine.counters.reset()
            engine.wave_stats.reset()

    def per_site_log_likelihoods(self) -> dict[str, np.ndarray]:
        """Per-partition pattern log-likelihood vectors."""
        return {
            p.name: e.site_log_likelihoods()
            for p, e in zip(self.partitions, self.engines)
        }


def partition_workers(
    partition_sizes: list[int], n_workers: int, scheme: str = "cyclic"
) -> list[list[tuple[int, int]]]:
    """Distribute partitioned sites over workers (Sec. VII's concern).

    Returns per-worker lists of ``(partition_index, n_sites)`` blocks.

    ``scheme="whole"`` assigns entire partitions greedily to the least
    loaded worker (longest-processing-time heuristic); ``"cyclic"``
    splits every partition across all workers.  The imbalance of the two
    schemes is compared by the partitioned-alignment tests.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    assignment: list[list[tuple[int, int]]] = [[] for _ in range(n_workers)]
    if scheme == "whole":
        loads = [0] * n_workers
        order = sorted(
            range(len(partition_sizes)),
            key=lambda i: partition_sizes[i],
            reverse=True,
        )
        for idx in order:
            w = loads.index(min(loads))
            assignment[w].append((idx, partition_sizes[idx]))
            loads[w] += partition_sizes[idx]
        return assignment
    if scheme == "cyclic":
        for idx, size in enumerate(partition_sizes):
            base = size // n_workers
            extra = size % n_workers
            for w in range(n_workers):
                share = base + (1 if w < extra else 0)
                if share:
                    assignment[w].append((idx, share))
        return assignment
    raise ValueError(f"unknown scheme {scheme!r}")
