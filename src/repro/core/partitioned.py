"""Partitioned (multi-gene) alignments — paper extension.

The paper's MIC port "supports multiple data partitions" but was neither
optimised nor evaluated for them, warning that many partitions shrink
the parallel block size and grow communication (Sec. V-A); per-partition
load balancing is listed as future work (Sec. VII).

A :class:`Partition` is one gene: its data and its own substitution
model and rates.  The likelihood over partitions sharing one tree is
:class:`repro.parallel.PartitionedEngine`, the sliced PLF with one slice
per partition: lnL is one fixed-order reduction of the concatenated
per-pattern lanes and branch lengths are shared (proportional branch
lengths are a further extension).

:func:`partition_workers` implements the load-balancing question the
paper raises: distributing whole partitions over workers (cheap, but
imbalanced for skewed partition sizes) versus splitting every partition
cyclically over all workers (balanced, but more synchronisation blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates

__all__ = ["Partition", "partition_workers"]


@dataclass
class Partition:
    """One alignment partition: its data and its model configuration."""

    name: str
    patterns: PatternAlignment
    model: SubstitutionModel
    gamma: GammaRates


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
