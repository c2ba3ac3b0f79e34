"""Trees deeper than the recursion limit: planning, likelihood and Newick.

A 2 000-taxon caterpillar nests 2 000 levels deep.  Nothing on the
likelihood path or the Newick path may recurse per level: repeated
``log_likelihood()`` calls must agree bit for bit (the second call is
the one that plans against cached CLAs), and the tree must survive a
Newick round trip.
"""

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.phylo import Alignment, Tree, gtr

N_TAXA = 2000


def names(n):
    return [f"t{i:04d}" for i in range(n)]


def caterpillar(n, lengths=None):
    """Leaves hung one by one off a spine: depth n - 2 from either end."""
    lengths = iter(lengths if lengths is not None else [0.05] * (2 * n - 3))
    taxa = names(n)
    t = Tree()
    spine = t.add_node(taxa[0])
    for name in taxa[1:-1]:
        inner = t.add_node()
        t.add_edge(spine, inner, next(lengths))
        t.add_edge(inner, t.add_node(name), next(lengths))
        spine = inner
    t.add_edge(spine, t.add_node(taxa[-1]), next(lengths))
    return t


def balanced(n):
    """Pairs of subtrees joined level by level, the last two by an edge."""
    t = Tree()
    level = [t.add_node(name) for name in names(n)]
    while len(level) > 2:
        joined = []
        for left, right in zip(level[::2], level[1::2]):
            inner = t.add_node()
            t.add_edge(inner, left, 0.05)
            t.add_edge(inner, right, 0.05)
            joined.append(inner)
        level = joined + level[len(joined) * 2:]
    t.add_edge(*level, 0.05)
    return t


def split_lengths(tree):
    return {
        mask: tree.edge(eid).length
        for eid, (_, mask) in tree.split_masks().items()
    }


@pytest.mark.parametrize("shape", [caterpillar, balanced])
def test_repeated_calls_agree_bit_for_bit(shape):
    tree = shape(N_TAXA)
    tree.check()
    rng = np.random.default_rng(0)
    aln = Alignment.from_sequences(
        {name: "".join(rng.choice(list("ACGT"), 8)) for name in names(N_TAXA)}
    )
    engine = LikelihoodEngine(aln.compress(), tree, gtr())
    lnls = [engine.log_likelihood() for _ in range(10)]
    assert np.isfinite(lnls[0])
    assert all(lnl == lnls[0] for lnl in lnls)
    # only the first call computed anything
    assert engine.counters.merged()["newview"] == N_TAXA - 2


def test_caterpillar_newick_round_trip():
    rng = np.random.default_rng(1)
    tree = caterpillar(N_TAXA, rng.integers(1, 500, 2 * N_TAXA - 3) / 1000)
    back = Tree.from_newick(tree.to_newick())
    back.check()
    # keyed by split mask: equal dicts mean equal splits and lengths
    assert split_lengths(back) == split_lengths(tree)
