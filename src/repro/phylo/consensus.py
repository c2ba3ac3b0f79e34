"""Majority-rule consensus trees from tree sets (bootstrap summaries).

Given the replicate trees of a bootstrap analysis, the majority-rule
consensus contains exactly the bipartitions present in more than half
(or a stricter threshold) of the replicates — the standard way to
summarise bootstrap topological uncertainty (RAxML's ``-J MR``).

Compatible majority splits always form a tree, built here by greedy
insertion from the most to the least frequent split.
"""

from __future__ import annotations

from .tree import Tree

__all__ = ["split_frequencies", "majority_rule_consensus"]


def split_frequencies(trees: list[Tree]) -> dict[frozenset[str], float]:
    """Fraction of input trees containing each non-trivial bipartition."""
    if not trees:
        raise ValueError("no input trees")
    taxa = set(trees[0].leaf_names())
    for t in trees[1:]:
        if set(t.leaf_names()) != taxa:
            raise ValueError("trees have different taxon sets")
    counts: dict[frozenset[str], int] = {}
    for t in trees:
        for split in t.splits():
            counts[split] = counts.get(split, 0) + 1
    return {s: c / len(trees) for s, c in counts.items()}


def majority_rule_consensus(
    trees: list[Tree], threshold: float = 0.5
) -> tuple[Tree, dict[frozenset[str], float]]:
    """Build the majority-rule consensus tree.

    Returns ``(consensus_tree, split_support)`` where ``split_support``
    maps every split *in the consensus* to its frequency.  ``threshold``
    is the inclusion frequency (0.5 = strict majority; higher values
    give more conservative, less resolved trees).  Splits at exactly the
    threshold are excluded, and greedy frequency-ordered insertion keeps
    the accepted set compatible even at thresholds below 0.5.

    Each split is held as its cluster: the leaf bitmask of the side
    without taxon 0 (:meth:`Tree.split_masks`).  Two splits are
    compatible exactly when their clusters are nested or disjoint, so
    the accepted clusters form a hierarchy, and the (possibly
    multifurcating) tree hangs each leaf and each cluster under the
    smallest accepted cluster containing it, or under a hub node.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    freqs = split_frequencies(trees)
    taxa = sorted(trees[0].leaf_names())
    bit = {name: 1 << i for i, name in enumerate(taxa)}
    full = (1 << len(taxa)) - 1
    ordered = sorted(freqs.items(), key=lambda kv: (-kv[1], sorted(kv[0])))
    accepted: list[int] = []
    support: dict[frozenset[str], float] = {}
    for split, freq in ordered:
        if freq <= threshold:
            break
        cluster = full ^ sum(bit[name] for name in split)
        if all(cluster & c in (0, c, cluster) for c in accepted):
            accepted.append(cluster)
            support[split] = freq

    by_size = sorted(accepted, key=int.bit_count)
    tree = Tree()
    hub = tree.add_node()
    node_of: dict[int, int] = {}

    def parent(mask: int) -> int:
        """The node of the smallest accepted cluster strictly holding
        ``mask`` (created before ``mask``'s, being larger), or the hub."""
        for c in by_size:
            if c != mask and c & mask == mask:
                return node_of[c]
        return hub

    for cluster in reversed(by_size):
        node_of[cluster] = tree.add_node()
        tree.add_edge(parent(cluster), node_of[cluster], 0.1)
    for name in taxa:
        tree.add_edge(parent(bit[name]), tree.add_node(name), 0.1)
    return tree, support
