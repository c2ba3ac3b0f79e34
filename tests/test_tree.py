"""Unit tests for the unrooted tree structure and topology moves."""

import numpy as np
import pytest

from repro.phylo import Tree, random_topology


def quartet() -> Tree:
    """((a,b),(c,d)) with all branch lengths 0.1."""
    return Tree.from_newick("((a:0.1,b:0.1):0.1,(c:0.1,d:0.1):0.1);")


def six_taxa() -> Tree:
    return Tree.from_newick(
        "((a:0.1,b:0.2):0.05,(c:0.1,(d:0.1,(e:0.1,f:0.1):0.1):0.1):0.05);"
    )


class TestConstruction:
    def test_quartet_shape(self):
        t = quartet()
        t.check()
        assert t.n_leaves == 4
        assert len(t.edges) == 5
        assert len(t.internal_nodes()) == 2

    def test_rooted_newick_is_unrooted(self):
        # Rooted input has a degree-2 root that must be suppressed.
        t = Tree.from_newick("((a:0.1,b:0.1):0.2,(c:0.1,d:0.1):0.3);")
        t.check()
        # the merged central edge has length 0.2 + 0.3
        internals = t.internal_nodes()
        eid = t.find_edge(*internals)
        assert t.edge(eid).length == pytest.approx(0.5)

    def test_newick_roundtrip_splits(self):
        t = six_taxa()
        t2 = Tree.from_newick(t.to_newick())
        assert t.robinson_foulds(t2) == 0

    def test_copy_is_deep(self):
        t = quartet()
        t2 = t.copy()
        t2.edge(t2.edge_ids[0]).length = 9.9
        assert t.edge(t.edge_ids[0]).length != 9.9

    def test_self_loop_rejected(self):
        t = Tree()
        n = t.add_node("x")
        with pytest.raises(ValueError, match="self-loop"):
            t.add_edge(n, n)


class TestQueries:
    def test_leaves_and_names(self):
        t = quartet()
        assert sorted(t.leaf_names()) == ["a", "b", "c", "d"]
        assert t.name(t.node_by_name("a")) == "a"

    def test_degree(self):
        t = quartet()
        for leaf in t.leaves():
            assert t.degree(leaf) == 1
        for internal in t.internal_nodes():
            assert t.degree(internal) == 3

    def test_subtree_leaves(self):
        t = quartet()
        a = t.node_by_name("a")
        (nbr, eid) = t.neighbors(a)[0]
        # from the internal side, blocking the pendant edge, we see b, c, d
        names = sorted(t.name(n) for n in t.subtree_leaves(nbr, eid))
        assert names == ["b", "c", "d"]

    def test_path_edges(self):
        t = quartet()
        a, c = t.node_by_name("a"), t.node_by_name("c")
        path = t.path_edges(a, c)
        assert len(path) == 3  # a-int1, int1-int2, int2-c

    def test_postorder_children_before_parents(self):
        t = six_taxa()
        root_edge = t.edge_ids[0]
        seen = set()
        for node, _parent, up_edge in t.postorder(root_edge):
            for child, _eid in t.children(node, up_edge):
                assert child in seen
            seen.add(node)

    def test_postorder_visits_children_in_adjacency_order(self):
        # the recursive definition the engine's plans were built on
        def side(t, node, parent, up_edge):
            out = []
            for child, eid in t.children(node, up_edge):
                out += side(t, child, node, eid)
            return out + [(node, parent, up_edge)]

        for seed in range(10):
            t = random_topology(
                [f"t{i}" for i in range(5 + 2 * seed)],
                np.random.default_rng(seed),
            )
            for e in t.edges:
                assert t.postorder(e.id) == (
                    side(t, e.u, e.v, e.id) + side(t, e.v, e.u, e.id)
                )

    def test_edges_within_radius_grows(self):
        t = six_taxa()
        eid = t.edge_ids[0]
        r1 = set(t.edges_within_radius(eid, 1))
        r3 = set(t.edges_within_radius(eid, 3))
        assert r1 <= r3

    def test_total_branch_length(self):
        # 4 pendant edges of 0.1 plus the central edge merged to 0.1 + 0.1
        assert quartet().total_branch_length() == pytest.approx(0.6)


class TestMoves:
    def test_split_edge_preserves_length(self):
        t = quartet()
        eid = t.edge_ids[0]
        before = t.edge(eid).length
        mid = t.split_edge(eid, 0.25)
        lengths = [t.edge(e).length for e in t.incident_edges(mid)]
        assert sum(lengths) == pytest.approx(before)

    def test_attach_and_prune_roundtrip(self):
        t = quartet()
        eid = t.edge_ids[0]
        leaf, mid, pend = t.attach_leaf(eid, "e", pendant_length=0.3)
        t.check()
        assert t.n_leaves == 5
        rec = t.prune_subtree(pend, subtree_root=leaf)
        t.remove_node(leaf)
        t.check()
        assert t.n_leaves == 4
        assert rec.pendant_length == pytest.approx(0.3)

    def test_spr_and_undo_restore_topology_and_lengths(self):
        t = six_taxa()
        before_newick = t.to_newick()
        before_lengths = {e.id: e.length for e in t.edges}
        a = t.node_by_name("a")
        pendant = t.incident_edges(a)[0]
        targets = t.spr_candidates(pendant, radius=5, subtree_root=a)
        assert targets
        _, undo = t.spr(pendant, targets[-1], subtree_root=a)
        t.check()
        undo()
        t.check()
        t2 = Tree.from_newick(before_newick)
        assert t.robinson_foulds(t2) == 0
        assert {e.id: e.length for e in t.edges} == before_lengths

    def test_every_trial_spr_undo_is_exact(self):
        """Trial + undo restores ids, lengths, orders and counters for
        every (pruning, radius-10 target) pair of a 16-taxon tree, even
        when the trial changed lengths, as the lazy scorer does."""
        t = random_topology(
            [f"t{i}" for i in range(16)], np.random.default_rng(4)
        )
        before = t.to_state()
        trials = 0
        for e in t.edges:
            for sub in (e.u, e.v):
                for target in t.spr_candidates(e.id, 10, subtree_root=sub):
                    pendant, undo = t.spr(e.id, target, subtree_root=sub)
                    t.edge(pendant).length *= 3.0
                    for eid in t.incident_edges(sub):
                        t.edge(eid).length += 0.125
                    undo()
                    assert t.to_state() == before
                    trials += 1
        assert trials > 300

    def test_refused_spr_leaves_the_tree_as_it_was(self):
        t = six_taxa()
        before = t.to_state()
        a = t.node_by_name("a")
        pendant = t.incident_edges(a)[0]
        merged_away = next(
            eid for eid in t.incident_edges(t.edge(pendant).other(a))
            if eid != pendant
        )
        with pytest.raises(ValueError, match="consumed by the prune"):
            t.spr(pendant, merged_away, subtree_root=a)
        assert t.to_state() == before

    def test_spr_changes_topology(self):
        t = six_taxa()
        before = t.copy()
        a = t.node_by_name("a")
        pendant = t.incident_edges(a)[0]
        targets = t.spr_candidates(pendant, radius=5, subtree_root=a)
        moved = False
        for target in targets:
            _, undo = t.spr(pendant, target, subtree_root=a)
            if t.robinson_foulds(before) > 0:
                moved = True
            undo()
            pendant = t.incident_edges(a)[0]
        assert moved

    def test_spr_candidates_exclude_subtree(self):
        t = six_taxa()
        e = t.node_by_name("e")
        pendant = t.incident_edges(e)[0]
        subtree_nodes = {e}
        for target in t.spr_candidates(pendant, radius=10, subtree_root=e):
            edge = t.edge(target)
            assert edge.u not in subtree_nodes and edge.v not in subtree_nodes

    def test_nni_swap_and_undo(self):
        t = six_taxa()
        before = t.copy()
        internal_edges = [
            e.id for e in t.edges if not t.is_leaf(e.u) and not t.is_leaf(e.v)
        ]
        undo = t.nni_swap(internal_edges[0], which=0)
        t.check()
        assert t.robinson_foulds(before) > 0
        t.edge(internal_edges[0]).length = 0.7
        undo()
        t.check()
        assert t.to_state() == before.to_state()

    def test_prune_requires_direction_when_ambiguous(self):
        t = six_taxa()
        internal_edges = [
            e.id for e in t.edges if not t.is_leaf(e.u) and not t.is_leaf(e.v)
        ]
        with pytest.raises(ValueError, match="subtree_root"):
            t.prune_subtree(internal_edges[0])


class TestSplitsAndRF:
    def test_identical_trees_rf_zero(self):
        assert six_taxa().robinson_foulds(six_taxa()) == 0

    def test_different_trees_rf_positive(self):
        t1 = Tree.from_newick("((a,b),(c,d));")
        t2 = Tree.from_newick("((a,c),(b,d));")
        assert t1.robinson_foulds(t2) == 2

    def test_rf_requires_same_taxa(self):
        t1 = Tree.from_newick("((a,b),(c,d));")
        t2 = Tree.from_newick("((a,b),(c,e));")
        with pytest.raises(ValueError, match="taxon sets"):
            t1.robinson_foulds(t2)

    def test_splits_count(self):
        # unrooted 6-taxon binary tree has n-3 = 3 internal edges
        assert len(six_taxa().splits()) == 3

    def test_split_masks_canonical_side(self):
        # bit i is the i-th sorted name; each mask is the side without "a"
        t = six_taxa()
        masks = t.split_masks()
        assert set(masks) == set(t.edge_ids)
        assert sorted(mask for _, mask in masks.values()) == [
            0b000010, 0b000100, 0b001000, 0b010000, 0b100000,  # b .. f
            0b110000, 0b111000, 0b111100, 0b111110,  # ef, def, cdef, bcdef
        ]
        for eid, (node, mask) in masks.items():
            side = {t.name(n) for n in t.subtree_leaves(node, eid)}
            assert side == {"abcdef"[i] for i in range(6) if mask >> i & 1}

    def test_splits_hold_the_smallest_taxon(self):
        assert six_taxa().splits() == {
            frozenset("ab"), frozenset("abc"), frozenset("abcd")
        }

    def test_degree_two_node_has_no_split(self):
        # the edge above the degree-2 node separates {C} from {A, B}
        t = Tree.from_newick("(A:1,B:1,(C:1):1);")
        assert t.splits() == set()
        assert t.robinson_foulds(Tree.from_newick("(A:1,B:1,C:1);")) == 0

    def test_deep_caterpillar(self):
        # 1 500 taxa in a chain: deeper than the recursion limit allows
        from repro.core import LikelihoodEngine
        from repro.phylo import Alignment, gtr

        names = [f"t{i:04d}" for i in range(1500)]
        t = Tree()
        spine = t.add_node(names[0])
        for name in names[1:-1]:
            inner = t.add_node()
            t.add_edge(spine, inner)
            t.add_edge(inner, t.add_node(name))
            spine = inner
        t.add_edge(spine, t.add_node(names[-1]))
        t.check()
        assert len(t.splits()) == len(names) - 3
        rng = np.random.default_rng(0)
        aln = Alignment.from_sequences(
            {name: "".join(rng.choice(list("ACGT"), 8)) for name in names}
        )
        lnl = LikelihoodEngine(aln.compress(), t, gtr()).log_likelihood()
        assert np.isfinite(lnl)


class TestRandomTopology:
    def test_valid_binary_tree(self):
        rng = np.random.default_rng(5)
        t = random_topology([f"t{i}" for i in range(12)], rng)
        t.check()
        assert t.n_leaves == 12

    def test_deterministic_given_seed(self):
        names = [f"t{i}" for i in range(8)]
        t1 = random_topology(names, np.random.default_rng(7))
        t2 = random_topology(names, np.random.default_rng(7))
        assert t1.robinson_foulds(t2) == 0

    def test_branch_lengths_in_range(self):
        rng = np.random.default_rng(5)
        t = random_topology(["a", "b", "c", "d", "e"], rng, branch_length=(0.1, 0.2))
        for e in t.edges:
            assert 0.1 <= e.length <= 0.2
