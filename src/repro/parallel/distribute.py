"""Alignment-site distribution across workers (ranks x threads).

ExaML and RAxML-Light distribute site patterns evenly over workers; the
quantity that matters for performance is the *maximum* per-worker count
(the slowest worker gates every barrier).  Every substrate slices by
:func:`distribute_block`: contiguous blocks of ``ceil(n/w)`` patterns,
so a process worker's share of every shared lane is one plain slice
(surplus workers hold empty blocks).  Partitioned alignments are laid
out differently: one slice per partition, block after block
(:class:`~repro.parallel.sliced.PartitionedEngine`); how whole versus
split partitions would balance over workers — the concern the paper's
Sec. V-A and VII flag for multi-gene datasets — is
:func:`repro.core.partitioned.partition_workers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.rates import CatRates

__all__ = [
    "SiteDistribution",
    "distribute_block",
    "slice_patterns",
    "slice_cat",
]


@dataclass(frozen=True)
class SiteDistribution:
    """Assignment of pattern indices to workers."""

    n_sites: int
    n_workers: int
    assignment: tuple[tuple[int, ...], ...]  # worker -> site indices

    @property
    def per_worker_counts(self) -> list[int]:
        return [len(a) for a in self.assignment]

    @property
    def max_per_worker(self) -> int:
        return max(self.per_worker_counts) if self.assignment else 0

    @property
    def imbalance(self) -> float:
        """max/mean per-worker count (1.0 = perfectly balanced)."""
        counts = self.per_worker_counts
        mean = sum(counts) / len(counts)
        return self.max_per_worker / mean if mean else 1.0

    def indices_of(self, worker: int) -> np.ndarray:
        return np.asarray(self.assignment[worker], dtype=np.int64)


def distribute_block(n_sites: int, n_workers: int) -> SiteDistribution:
    """Contiguous blocks of ``ceil(n/w)`` sites per worker."""
    if n_workers < 1:
        raise ValueError("need at least one worker")
    chunk = ceil(n_sites / n_workers)
    assignment = tuple(
        tuple(range(w * chunk, min((w + 1) * chunk, n_sites)))
        for w in range(n_workers)
    )
    return SiteDistribution(n_sites, n_workers, assignment)


def slice_patterns(patterns: PatternAlignment, idx: np.ndarray) -> PatternAlignment:
    """A worker-local pattern alignment over a subset of pattern columns."""
    return PatternAlignment(
        taxa=list(patterns.taxa),
        data=np.ascontiguousarray(patterns.data[:, idx]),
        weights=patterns.weights[idx].copy(),
        site_to_pattern=np.arange(idx.shape[0]),
        states=patterns.states,
    )


def slice_cat(cat: CatRates, idx: np.ndarray) -> CatRates:
    """A worker's per-site CAT rates over a pattern index slice.

    ``category_rates`` are kept verbatim (they were normalised against
    the *full* alignment's pattern weights by the master), so sliced
    engines reproduce the full engine's per-site rates bit-for-bit.
    """
    return CatRates(
        category_rates=cat.category_rates,
        site_categories=cat.site_categories[idx],
    )
