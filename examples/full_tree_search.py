#!/usr/bin/env python
"""A realistic inference workflow: files in, tree + report out.

Mirrors how RAxML-Light is driven in practice: a PHYLIP alignment on
disk, a full ML search (parsimony start -> model optimisation -> SPR
rounds -> final polish), and a Newick tree plus a run report written
back out.  Also demonstrates the partitioned-analysis extension: the
same tree evaluated under two independent per-gene models.

Run:  python examples/full_tree_search.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.partitioned import Partition
from repro.parallel import PartitionedEngine
from repro.phylo import (
    GammaRates,
    gtr,
    read_phylip,
    simulate_alignment,
    simulate_dataset,
    write_phylip,
)
from repro.search import SearchConfig, ml_search, optimize_all_branches


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    workdir.mkdir(parents=True, exist_ok=True)

    # --- produce an input file (in real use this comes from a sequencer)
    sim = simulate_dataset(n_taxa=10, n_sites=2000, seed=7)
    phylip_path = workdir / "alignment.phy"
    write_phylip(sim.alignment, phylip_path)
    print(f"wrote {phylip_path}")

    # --- the actual workflow: read, search, write
    alignment = read_phylip(phylip_path)
    result = ml_search(
        alignment, config=SearchConfig(radii=(5, 10), max_spr_rounds=8, seed=7)
    )
    tree_path = workdir / "ml_tree.nwk"
    tree_path.write_text(result.newick + "\n")

    print(f"final lnL: {result.lnl:.3f}   alpha: {result.alpha:.3f}")
    print("GTR exchangeabilities (AC AG AT CG CT GT):")
    print("  " + " ".join(f"{x:.3f}" for x in result.model.exchangeabilities))
    print(f"search wall time: {result.wall_time:.1f}s")
    print("likelihood trajectory:")
    for stage, lnl in result.lnl_trajectory:
        print(f"  {stage:<20s} {lnl:.3f}")
    print(f"RF distance to the generating topology: "
          f"{result.tree.robinson_foulds(sim.tree)}")
    print(f"wrote {tree_path}")

    # --- partitioned analysis on the inferred tree (two 'genes')
    rng = np.random.default_rng(8)
    model2 = gtr(
        np.array([0.9, 4.5, 1.1, 0.9, 4.5, 1.0]),
        np.array([0.35, 0.15, 0.15, 0.35]),
    )
    gene2 = simulate_alignment(
        result.tree, model2, 800, rng, gamma=GammaRates(0.5, 4)
    ).alignment
    engine = PartitionedEngine(
        [
            Partition("gene1", alignment.compress(), result.model,
                      GammaRates(result.alpha, 4)),
            Partition("gene2", gene2.compress(), model2, GammaRates(0.5, 4)),
        ],
        result.tree.copy(),
    )
    lnl = optimize_all_branches(engine, passes=2)
    print(f"\npartitioned analysis (2 genes, shared branch lengths): "
          f"lnL = {lnl:.3f}")
    for name, site_lnl in engine.per_site_log_likelihoods().items():
        print(f"  {name}: {site_lnl.shape[0]} patterns, "
              f"mean site lnL {site_lnl.mean():.3f}")


if __name__ == "__main__":
    main()
