"""Independent verification of tree invariants using networkx.

Our :class:`~repro.phylo.tree.Tree` implements its own graph
bookkeeping; these tests cross-check it against networkx as an
independent graph oracle — connectivity, acyclicity, path finding, and
patristic distances — on randomly generated and mutated trees.
"""

import networkx as nx
import numpy as np
import pytest

from repro.phylo import Tree, random_topology


def to_networkx(tree: Tree) -> nx.Graph:
    g = nx.Graph()
    for node in tree.nodes:
        g.add_node(node, name=tree.name(node))
    for e in tree.edges:
        g.add_edge(e.u, e.v, weight=e.length, eid=e.id)
    return g


@pytest.fixture(params=[3, 7, 21])
def tree(request):
    rng = np.random.default_rng(request.param)
    n = request.param + 4
    return random_topology([f"t{i}" for i in range(n)], rng)


class TestGraphInvariants:
    def test_is_a_tree(self, tree):
        g = to_networkx(tree)
        assert nx.is_tree(g)

    def test_still_a_tree_after_spr(self, tree):
        leaf = tree.leaves()[0]
        pendant = tree.incident_edges(leaf)[0]
        targets = tree.spr_candidates(pendant, radius=6, subtree_root=leaf)
        if not targets:
            pytest.skip("no SPR targets at this size")
        tree.spr(pendant, targets[-1], subtree_root=leaf)
        assert nx.is_tree(to_networkx(tree))

    def test_path_edges_matches_shortest_path(self, tree):
        g = to_networkx(tree)
        leaves = tree.leaves()
        for u in leaves[:3]:
            for v in leaves[-3:]:
                if u == v:
                    continue
                ours = tree.path_edges(u, v)
                nx_nodes = nx.shortest_path(g, u, v)
                assert len(ours) == len(nx_nodes) - 1
                # same edge set
                nx_eids = {
                    g.edges[a, b]["eid"]
                    for a, b in zip(nx_nodes, nx_nodes[1:])
                }
                assert set(ours) == nx_eids

    def test_patristic_distance_agrees(self, tree):
        g = to_networkx(tree)
        leaves = tree.leaves()
        u, v = leaves[0], leaves[-1]
        ours = sum(tree.edge(e).length for e in tree.path_edges(u, v))
        theirs = nx.shortest_path_length(g, u, v, weight="weight")
        assert ours == pytest.approx(theirs)

    def test_subtree_leaves_match_component(self, tree):
        e = tree.edges[len(tree.edges) // 2]
        g = to_networkx(tree)
        g.remove_edge(e.u, e.v)
        comp_u = nx.node_connected_component(g, e.u)
        ours = set(tree.subtree_leaves(e.u, e.id))
        theirs = {n for n in comp_u if tree.is_leaf(n)}
        assert ours == theirs

    @pytest.mark.parametrize("after_spr", [False, True])
    def test_split_masks_match_components(self, tree, after_spr):
        if after_spr:
            leaf = tree.leaves()[0]
            pendant = tree.incident_edges(leaf)[0]
            targets = tree.spr_candidates(pendant, radius=6, subtree_root=leaf)
            tree.spr(pendant, targets[-1], subtree_root=leaf)
        taxa = sorted(tree.leaf_names())
        g = to_networkx(tree)
        masks = tree.split_masks()
        assert set(masks) == set(tree.edge_ids)
        for e in tree.edges:
            g.remove_edge(e.u, e.v)
            side = {
                tree.name(n)
                for n in nx.node_connected_component(g, e.u)
                if tree.is_leaf(n)
            }
            g.add_edge(e.u, e.v)
            if taxa[0] in side:
                side = set(taxa) - side
            _, mask = masks[e.id]
            assert mask == sum(1 << taxa.index(name) for name in side)

    def test_degree_sequence(self, tree):
        g = to_networkx(tree)
        for node in tree.nodes:
            assert tree.degree(node) == g.degree[node]
