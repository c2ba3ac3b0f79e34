#!/usr/bin/env python
"""Bootstrap support, consensus trees, and CAT rate assignment.

Demonstrates the inference-quality toolkit around the core search:

1. infer an ML tree,
2. run non-parametric bootstrap replicates (pattern reweighting),
3. compute per-branch support values and draw them on the tree,
4. build the majority-rule consensus of the replicates,
5. compare the Gamma model against a likelihood-assigned CAT model
   (the Stamatakis-2006 approximation the paper lists as future work).

Run:  python examples/bootstrap_support.py
"""

import numpy as np

from repro.core import make_engine
from repro.core.cat import assign_categories_by_likelihood
from repro.phylo import CatRates, GammaRates, ascii_tree, gtr, simulate_dataset
from repro.search import SearchConfig, bootstrap_analysis, ml_search


def main() -> None:
    sim = simulate_dataset(n_taxa=8, n_sites=800, seed=2024, alpha=0.5)
    patterns = sim.alignment.compress()

    # 1. ML tree
    result = ml_search(
        sim.alignment, config=SearchConfig(radii=(4,), max_spr_rounds=4)
    )
    print(f"ML tree lnL: {result.lnl:.2f} "
          f"(RF to truth: {result.tree.robinson_foulds(sim.tree)})")

    # 2./3. bootstrap + support
    boot = bootstrap_analysis(
        patterns, result.tree, result.model, GammaRates(result.alpha, 4),
        n_replicates=10, seed=7,
    )
    print(f"\nbootstrap ({len(boot.replicate_trees)} replicates), "
          f"minimum split support: {boot.min_support() * 100:.0f}%")
    print(ascii_tree(result.tree, support=boot.support))

    # 4. majority-rule consensus
    consensus, cons_support = boot.consensus()
    print("\nmajority-rule consensus of the replicates:")
    print(ascii_tree(consensus, show_lengths=False, support=cons_support))

    # 5. Gamma vs likelihood-assigned CAT
    gamma_engine = make_engine(
        patterns, result.tree.copy(), result.model, GammaRates(result.alpha, 4)
    )
    rng = np.random.default_rng(1)
    cat = CatRates.from_gamma(
        result.alpha, patterns.n_patterns, 4, rng, weights=patterns.weights
    )
    cat_engine = make_engine(
        patterns, result.tree.copy(), result.model, cat=cat
    )
    random_lnl = cat_engine.log_likelihood()
    assign_categories_by_likelihood(cat_engine)
    print(f"\nGamma4 lnL:                  {gamma_engine.log_likelihood():.2f}")
    print(f"CAT lnL (random categories): {random_lnl:.2f}")
    print(f"CAT lnL (ML-assigned):       {cat_engine.log_likelihood():.2f}")
    print("(CAT overfits per-site rates, hence its higher likelihood — "
          "the reason RAxML only uses CAT for searching, not reporting)")


if __name__ == "__main__":
    main()
