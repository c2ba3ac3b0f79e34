"""Tests for split frequencies and majority-rule consensus trees."""

import numpy as np
import pytest

from repro.phylo import Tree, random_topology
from repro.phylo.consensus import majority_rule_consensus, split_frequencies


def trees_abcdef():
    t1 = Tree.from_newick("((a,b),(c,d),(e,f));")
    t2 = Tree.from_newick("((a,b),(c,e),(d,f));")
    t3 = Tree.from_newick("((a,b),(c,d),(e,f));")
    return [t1, t2, t3]


class TestSplitFrequencies:
    def test_unanimous_split(self):
        freqs = split_frequencies(trees_abcdef())
        ab = frozenset({"a", "b"})
        assert freqs[ab] == pytest.approx(1.0)

    def test_partial_split(self):
        freqs = split_frequencies(trees_abcdef())
        cd_split = frozenset({"a", "b", "e", "f"})  # canonical side of cd
        assert freqs[cd_split] == pytest.approx(2 / 3)

    def test_requires_same_taxa(self):
        t1 = Tree.from_newick("((a,b),(c,d));")
        t2 = Tree.from_newick("((a,b),(c,e));")
        with pytest.raises(ValueError, match="taxon sets"):
            split_frequencies([t1, t2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no input"):
            split_frequencies([])


class TestMajorityRuleConsensus:
    def test_recovers_majority_splits(self):
        cons, support = majority_rule_consensus(trees_abcdef())
        splits = cons.splits()
        assert frozenset({"a", "b"}) in splits
        # cd and ef splits appear in 2/3 of trees -> included
        assert len(splits) == 3
        assert support[frozenset({"a", "b"})] == pytest.approx(1.0)

    def test_identical_trees_give_input_topology(self):
        ref = Tree.from_newick("((a,b),((c,d),e),f);")
        cons, support = majority_rule_consensus([ref.copy() for _ in range(4)])
        assert cons.robinson_foulds(ref) == 0
        assert all(v == 1.0 for v in support.values())

    def test_conflicting_trees_give_star(self):
        """Three incompatible resolutions of a quartet -> unresolved."""
        t1 = Tree.from_newick("((a,b),(c,d));")
        t2 = Tree.from_newick("((a,c),(b,d));")
        t3 = Tree.from_newick("((a,d),(b,c));")
        cons, support = majority_rule_consensus([t1, t2, t3])
        assert len(cons.splits()) == 0  # star
        assert support == {}

    def test_all_leaves_present(self):
        cons, _ = majority_rule_consensus(trees_abcdef())
        assert sorted(cons.leaf_names()) == ["a", "b", "c", "d", "e", "f"]

    def test_higher_threshold_less_resolved(self):
        trees = trees_abcdef()
        loose, _ = majority_rule_consensus(trees, threshold=0.5)
        strict, _ = majority_rule_consensus(trees, threshold=0.9)
        assert len(strict.splits()) <= len(loose.splits())

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            majority_rule_consensus(trees_abcdef(), threshold=1.0)

    def test_random_trees_consensus_is_valid_tree(self):
        names = [f"t{i}" for i in range(8)]
        trees = [
            random_topology(names, np.random.default_rng(s)) for s in range(7)
        ]
        cons, support = majority_rule_consensus(trees)
        assert sorted(cons.leaf_names()) == sorted(names)
        # all consensus splits must exist in >50% of inputs
        freqs = split_frequencies(trees)
        for s in cons.splits():
            assert freqs.get(s, 0.0) > 0.5

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 0.8])
    def test_consensus_has_exactly_the_supported_splits(self, threshold):
        for case in range(40):
            rng = np.random.default_rng(case)
            names = [f"t{i}" for i in range(int(rng.integers(4, 13)))]
            base = random_topology(names, rng)
            trees = [base.copy() for _ in range(int(rng.integers(0, 4)))]
            trees += [
                random_topology(names, rng)
                for _ in range(int(rng.integers(1, 6)))
            ]
            cons, support = majority_rule_consensus(trees, threshold)
            assert cons.splits() == set(support)
            assert sorted(cons.leaf_names()) == sorted(names)
