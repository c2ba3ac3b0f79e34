"""Non-parametric bootstrap support values.

Standard Felsenstein bootstrap as RAxML implements it: each replicate
resamples alignment columns with replacement — which, on a
pattern-compressed alignment, is just a *reweighting* of the existing
patterns (drawing per-pattern counts from a multinomial over the
original weights).  No new CLAs, no re-encoding: the likelihood engine
only needs new pattern weights, making replicates cheap — the same
observation behind RAxML's rapid-bootstrap implementation.

For each replicate a (reduced-effort) ML search runs, and
:func:`support_values` maps the frequency of every bipartition of a
reference tree over the replicate trees — the numbers drawn on published
phylogenies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree

__all__ = ["bootstrap_weights", "BootstrapResult", "bootstrap_analysis", "support_values"]


def bootstrap_weights(
    patterns: PatternAlignment, rng: np.random.Generator
) -> np.ndarray:
    """One bootstrap replicate as a per-pattern weight vector.

    Sampling ``n_sites`` columns with replacement is multinomial over
    the patterns with probabilities proportional to the original
    weights; the result sums exactly to the original site count.
    """
    n_sites = int(patterns.weights.sum())
    probs = patterns.weights / patterns.weights.sum()
    return rng.multinomial(n_sites, probs).astype(np.float64)


@dataclass
class BootstrapResult:
    """Replicate trees plus the per-split support of a reference tree."""

    reference: Tree
    replicate_trees: list[Tree] = field(default_factory=list)
    support: dict[frozenset[str], float] = field(default_factory=dict)

    def min_support(self) -> float:
        return min(self.support.values()) if self.support else 1.0

    def consensus(self, threshold: float = 0.5):
        """Majority-rule consensus of the replicate trees.

        Returns ``(tree, split_support)`` — see
        :func:`repro.phylo.consensus.majority_rule_consensus`.
        """
        from ..phylo.consensus import majority_rule_consensus

        return majority_rule_consensus(self.replicate_trees, threshold)


def support_values(
    reference: Tree, replicates: list[Tree]
) -> dict[frozenset[str], float]:
    """Fraction of replicate trees containing each reference bipartition.

    Raises ``ValueError`` when a replicate's taxon set differs from the
    reference's, as :meth:`Tree.robinson_foulds` does.
    """
    if not replicates:
        raise ValueError("no replicate trees")
    taxa = set(reference.leaf_names())
    if any(set(tree.leaf_names()) != taxa for tree in replicates):
        raise ValueError("trees have different taxon sets")
    ref_splits = reference.splits()
    counts = {s: 0 for s in ref_splits}
    for tree in replicates:
        rep_splits = tree.splits()
        for s in ref_splits:
            if s in rep_splits:
                counts[s] += 1
    return {s: c / len(replicates) for s, c in counts.items()}


def bootstrap_analysis(
    patterns: PatternAlignment,
    reference: Tree,
    model: SubstitutionModel,
    gamma: GammaRates | None = None,
    n_replicates: int = 10,
    seed: int = 0,
    search_radius: int = 3,
) -> BootstrapResult:
    """Run bootstrap replicates and compute reference-tree supports.

    Each replicate reweights the patterns and runs a reduced ML search
    (small SPR radius, no model re-optimisation — RAxML's rapid
    bootstrap makes the same effort tradeoff).
    """
    from .raxml_light import SearchConfig, ml_search

    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    rng = np.random.default_rng(seed)
    result = BootstrapResult(reference=reference.copy())
    for rep in range(n_replicates):
        weights = bootstrap_weights(patterns, rng)
        keep = weights > 0
        replicate = PatternAlignment(
            taxa=list(patterns.taxa),
            data=np.ascontiguousarray(patterns.data[:, keep]),
            weights=weights[keep],
            site_to_pattern=np.arange(int(keep.sum())),
            states=patterns.states,
        )
        search = ml_search(
            replicate,
            model=model,
            gamma=gamma,
            config=SearchConfig(
                radii=(search_radius,),
                max_spr_rounds=3,
                model_rounds=1,
                optimize_exchangeabilities=False,
                seed=seed * 1000 + rep,
            ),
        )
        result.replicate_trees.append(search.tree)
    result.support = support_values(reference, result.replicate_trees)
    return result
