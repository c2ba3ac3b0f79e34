"""Multiple sequence alignment container and site-pattern compression.

The likelihood of a tree factorises over alignment columns, and identical
columns contribute identical per-site likelihoods.  RAxML therefore
compresses the alignment to its unique columns ("site patterns") and
carries an integer weight per pattern; all PLF kernels iterate over
patterns, and ``evaluate`` multiplies each per-pattern log-likelihood by
its weight.  The paper reports dataset sizes as "# alignment patterns"
(Table III) — for the simulated INDELible alignments essentially every
column is unique at the lengths used, so patterns ~= sites.

:class:`Alignment` stores the raw encoded matrix; :class:`PatternAlignment`
is the compressed form consumed by the likelihood engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DNA, StateSpace

__all__ = ["Alignment", "PatternAlignment", "compress_patterns"]


@dataclass
class Alignment:
    """An ``n_taxa x n_sites`` matrix of encoded character codes.

    Attributes
    ----------
    taxa:
        Taxon labels, in row order.  Must be unique.
    data:
        ``uint32`` array of shape ``(n_taxa, n_sites)`` holding bitmask
        state codes (see :mod:`repro.phylo.states`).
    states:
        The :class:`StateSpace` the codes belong to.
    """

    taxa: list[str]
    data: np.ndarray
    states: StateSpace = DNA

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.uint32)
        if self.data.ndim != 2:
            raise ValueError("alignment data must be 2-D (taxa x sites)")
        if len(self.taxa) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.taxa)} taxon labels for {self.data.shape[0]} rows"
            )
        if len(set(self.taxa)) != len(self.taxa):
            raise ValueError("duplicate taxon labels")

    @classmethod
    def from_sequences(
        cls, sequences: dict[str, str], states: StateSpace = DNA
    ) -> "Alignment":
        """Build from a ``{taxon: sequence}`` mapping of equal-length strings."""
        if not sequences:
            raise ValueError("empty alignment")
        taxa = list(sequences)
        lengths = {len(s) for s in sequences.values()}
        if len(lengths) != 1:
            raise ValueError(f"sequences have differing lengths: {sorted(lengths)}")
        if lengths == {0}:
            raise ValueError("alignment has no sites")
        data = np.stack([states.encode(sequences[t]) for t in taxa])
        return cls(taxa, data, states)

    @property
    def n_taxa(self) -> int:
        return self.data.shape[0]

    @property
    def n_sites(self) -> int:
        return self.data.shape[1]

    def sequence(self, taxon: str) -> str:
        """Decoded text sequence of one taxon."""
        return self.states.decode(self.data[self.taxa.index(taxon)])

    def compress(self) -> "PatternAlignment":
        """Compress identical columns into weighted site patterns."""
        return compress_patterns(self)


@dataclass
class PatternAlignment:
    """Pattern-compressed alignment: unique columns plus weights.

    ``data[:, p]`` is the ``p``-th unique column; ``weights[p]`` counts how
    many original columns it represents.  ``site_to_pattern`` maps each
    original column index to its pattern, so per-site quantities can be
    expanded back if needed (e.g. for per-site likelihood output).
    """

    taxa: list[str]
    data: np.ndarray
    weights: np.ndarray
    site_to_pattern: np.ndarray
    states: StateSpace = DNA

    @property
    def n_taxa(self) -> int:
        return self.data.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.data.shape[1]

    @property
    def n_sites(self) -> int:
        """Original (uncompressed) alignment width."""
        return int(self.weights.sum())

    def row(self, taxon: str) -> np.ndarray:
        """Pattern-space code row for one taxon."""
        return self.data[self.taxa.index(taxon)]

    def expand(self, per_pattern: np.ndarray) -> np.ndarray:
        """Expand a per-pattern vector back to per-site order."""
        per_pattern = np.asarray(per_pattern)
        return per_pattern[..., self.site_to_pattern]


def compress_patterns(alignment: Alignment) -> PatternAlignment:
    """Collapse identical alignment columns into weighted patterns.

    Patterns are returned in order of first appearance, which keeps the
    compressed alignment deterministic for a given input (important for
    reproducible kernel traces).
    """
    cols = alignment.data.T  # (n_sites, n_taxa)
    # np.unique on rows gives lexicographic order; recover first-appearance
    # order through the index of each pattern's first occurrence.
    _, first_idx, inverse, counts = np.unique(
        cols, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    site_to_pattern = rank[inverse].astype(np.int64)
    data = alignment.data[:, np.sort(first_idx)]
    weights = counts[order].astype(np.float64)
    return PatternAlignment(
        taxa=list(alignment.taxa),
        data=np.ascontiguousarray(data),
        weights=weights,
        site_to_pattern=site_to_pattern,
        states=alignment.states,
    )
