"""Unrooted phylogenetic trees with branch lengths and topology moves.

The likelihood codes in the paper (RAxML-Light, ExaML) operate on
*unrooted binary* trees: every internal node has degree 3, every leaf
degree 1, and a tree over ``n`` taxa has ``2n - 3`` branches.  Under a
time-reversible model the likelihood is independent of root placement
(the "pulley principle"), so a *virtual root* is placed on an arbitrary
branch only for the duration of an ``evaluate`` call.

This module provides the mutable tree structure those algorithms need:

* node/edge bookkeeping with stable integer ids (CLA buffers in the
  likelihood engine are keyed by node id and survive topology moves),
* the moves used by tree search — leaf insertion for stepwise addition,
  SPR (subtree pruning and regrafting) with exact undo, and NNI,
* Newick round-tripping, bipartition extraction, and Robinson–Foulds
  distances for verifying topology recovery in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .newick import NewickError, NewickNode, format_newick, parse_newick

__all__ = ["Edge", "Tree", "PruneRecord", "mask_names", "random_topology"]

DEFAULT_BRANCH_LENGTH = 0.1
MIN_BRANCH_LENGTH = 1e-8
MAX_BRANCH_LENGTH = 50.0


@dataclass
class Edge:
    """Undirected branch between nodes ``u`` and ``v`` with a length."""

    id: int
    u: int
    v: int
    length: float

    def other(self, node: int) -> int:
        """The endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} not on edge {self.id}")


@dataclass
class PruneRecord:
    """Undo information returned by :meth:`Tree.prune_subtree`."""

    subtree_root: int
    attach_x: int
    attach_y: int
    merged_edge: int
    len_x: float
    len_y: float
    pendant_length: float


class Tree:
    """Mutable unrooted tree over named leaves.

    Nodes are integers; leaves carry a name, internal nodes do not.  The
    undo of a trial move hands the ids it allocated back for the next
    trial to reuse, so caches keyed by ids must also check content (as
    the likelihood engine does by interning each subtree's edge ids,
    lengths and leaf names to an integer id).  Newick reading and
    writing are iterative, so any depth fits.
    """

    def __init__(self) -> None:
        self._names: dict[int, str | None] = {}
        self._adj: dict[int, list[int]] = {}
        self._edges: dict[int, Edge] = {}
        self._next_node = 0
        self._next_edge = 0

    # ------------------------------------------------------------------
    # construction primitives
    # ------------------------------------------------------------------
    def add_node(self, name: str | None = None) -> int:
        """Create a new isolated node; returns its id."""
        nid = self._next_node
        self._next_node += 1
        self._names[nid] = name
        self._adj[nid] = []
        return nid

    def add_edge(self, u: int, v: int, length: float = DEFAULT_BRANCH_LENGTH) -> int:
        """Connect two existing nodes; returns the new edge id."""
        if u not in self._adj or v not in self._adj:
            raise KeyError(f"unknown node in edge ({u}, {v})")
        if u == v:
            raise ValueError("self-loop edges are not allowed")
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = Edge(eid, u, v, float(length))
        self._adj[u].append(eid)
        self._adj[v].append(eid)
        return eid

    def remove_edge(self, eid: int) -> Edge:
        """Detach and return an edge (endpoints remain)."""
        edge = self._edges.pop(eid)
        self._adj[edge.u].remove(eid)
        self._adj[edge.v].remove(eid)
        return edge

    def remove_node(self, nid: int) -> None:
        """Delete an isolated node."""
        if self._adj[nid]:
            raise ValueError(f"node {nid} still has incident edges")
        del self._adj[nid]
        del self._names[nid]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        return list(self._adj)

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    @property
    def edge_ids(self) -> list[int]:
        return list(self._edges)

    def edge(self, eid: int) -> Edge:
        return self._edges[eid]

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def name(self, nid: int) -> str | None:
        return self._names[nid]

    def is_leaf(self, nid: int) -> bool:
        return self._names[nid] is not None

    def degree(self, nid: int) -> int:
        return len(self._adj[nid])

    def leaves(self) -> list[int]:
        return [n for n, name in self._names.items() if name is not None]

    def internal_nodes(self) -> list[int]:
        return [n for n, name in self._names.items() if name is None]

    @property
    def n_leaves(self) -> int:
        return sum(1 for name in self._names.values() if name is not None)

    def leaf_names(self) -> list[str]:
        return [self._names[n] for n in self.leaves()]  # type: ignore[misc]

    def node_by_name(self, name: str) -> int:
        for nid, nm in self._names.items():
            if nm == name:
                return nid
        raise KeyError(f"no leaf named {name!r}")

    def incident_edges(self, nid: int) -> list[int]:
        return list(self._adj[nid])

    def neighbors(self, nid: int) -> list[tuple[int, int]]:
        """``(neighbor_node, edge_id)`` pairs around a node."""
        return [(self._edges[e].other(nid), e) for e in self._adj[nid]]

    def find_edge(self, u: int, v: int) -> int:
        """Edge id between two adjacent nodes."""
        for e in self._adj[u]:
            if self._edges[e].other(u) == v:
                return e
        raise KeyError(f"nodes {u} and {v} are not adjacent")

    def check(self) -> None:
        """Assert unrooted-binary invariants (used liberally in tests)."""
        for nid in self._adj:
            deg = self.degree(nid)
            if self.is_leaf(nid):
                if deg != 1:
                    raise AssertionError(f"leaf {nid} has degree {deg}")
            elif deg != 3:
                raise AssertionError(f"internal node {nid} has degree {deg}")
        n = self.n_leaves
        if n >= 3 and len(self._edges) != 2 * n - 3:
            raise AssertionError(
                f"{n} leaves but {len(self._edges)} edges (expected {2 * n - 3})"
            )
        # connectivity
        if self._adj:
            seen = set()
            stack = [next(iter(self._adj))]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(v for v, _ in self.neighbors(u))
            if len(seen) != len(self._adj):
                raise AssertionError("tree is disconnected")

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def dfs_from(self, start: int, blocked_edge: int | None = None) -> Iterator[int]:
        """Nodes reachable from ``start`` without crossing ``blocked_edge``."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            yield u
            for eid in self._adj[u]:
                if eid == blocked_edge:
                    continue
                v = self._edges[eid].other(u)
                if v not in seen:
                    seen.add(v)
                    stack.append(v)

    def subtree_leaves(self, node: int, blocked_edge: int) -> list[int]:
        """Leaves on ``node``'s side of ``blocked_edge``."""
        return [n for n in self.dfs_from(node, blocked_edge) if self.is_leaf(n)]

    def postorder(self, root_edge: int) -> list[tuple[int, int, int]]:
        """Directed post-order below a virtual root placed on ``root_edge``.

        Returns ``(node, parent, edge_to_parent)`` triples such that every
        node appears after all nodes in its subtree.  Both endpoints of
        the root edge appear (with each other as parent), which is the
        traversal order ``newview`` needs to make the two root CLAs valid.
        """
        edge = self._edges[root_edge]
        out: list[tuple[int, int, int]] = []
        for start, parent in ((edge.u, edge.v), (edge.v, edge.u)):
            out.extend(self._postorder_side(start, parent, root_edge))
        return out

    def _postorder_side(
        self, node: int, parent: int, up_edge: int
    ) -> list[tuple[int, int, int]]:
        # Iterative, so a deep (caterpillar) tree cannot hit the recursion
        # limit: the reverse of a pre-order taking children last-first is
        # the post-order taking them first-first, in adjacency order.
        out: list[tuple[int, int, int]] = []
        stack = [(node, parent, up_edge)]
        while stack:
            item = stack.pop()
            out.append(item)
            node = item[0]
            for eid in self._adj[node]:
                if eid != item[2]:
                    stack.append((self._edges[eid].other(node), node, eid))
        out.reverse()
        return out

    def children(self, node: int, up_edge: int) -> list[tuple[int, int]]:
        """``(child, edge)`` pairs of a node viewed from ``up_edge``."""
        return [
            (self._edges[e].other(node), e) for e in self._adj[node] if e != up_edge
        ]

    def path_edges(self, u: int, v: int) -> list[int]:
        """Edge ids along the unique path between two nodes."""
        parent: dict[int, tuple[int, int]] = {u: (-1, -1)}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y, eid in self.neighbors(x):
                if y not in parent:
                    parent[y] = (x, eid)
                    stack.append(y)
        if v not in parent:
            raise KeyError(f"no path from {u} to {v}")
        path = []
        x = v
        while x != u:
            px, eid = parent[x]
            path.append(eid)
            x = px
        path.reverse()
        return path

    def edges_within_radius(self, eid: int, radius: int) -> list[int]:
        """Edges whose node-distance from ``eid`` is at most ``radius``.

        Distance is counted in intervening nodes; the edge itself is
        excluded.  Used to bound SPR regraft candidates (the paper's
        rearrangement radius).
        """
        edge = self._edges[eid]
        found: set[int] = set()
        frontier = [(edge.u, 0), (edge.v, 0)]
        seen_nodes = {edge.u, edge.v}
        while frontier:
            node, dist = frontier.pop()
            if dist >= radius:
                continue
            for nbr, e2 in self.neighbors(node):
                if e2 == eid:
                    continue
                found.add(e2)
                if nbr not in seen_nodes:
                    seen_nodes.add(nbr)
                    frontier.append((nbr, dist + 1))
        return sorted(found)

    # ------------------------------------------------------------------
    # topology moves
    # ------------------------------------------------------------------
    def split_edge(self, eid: int, fraction: float = 0.5) -> int:
        """Insert a degree-2 node on an edge; returns the new node.

        The original edge is removed and replaced by two edges whose
        lengths sum to the original length (``fraction`` toward ``u``).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        edge = self.remove_edge(eid)
        mid = self.add_node()
        self.add_edge(edge.u, mid, max(edge.length * fraction, MIN_BRANCH_LENGTH))
        self.add_edge(mid, edge.v, max(edge.length * (1 - fraction), MIN_BRANCH_LENGTH))
        return mid

    def suppress_node(self, nid: int) -> int:
        """Remove a degree-2 node, merging its two edges; returns new edge id."""
        if self.degree(nid) != 2:
            raise ValueError(f"node {nid} has degree {self.degree(nid)}, not 2")
        e1, e2 = self._adj[nid]
        a = self._edges[e1].other(nid)
        b = self._edges[e2].other(nid)
        total = self._edges[e1].length + self._edges[e2].length
        self.remove_edge(e1)
        self.remove_edge(e2)
        self.remove_node(nid)
        return self.add_edge(a, b, total)

    def attach_leaf(
        self,
        eid: int,
        name: str,
        pendant_length: float = DEFAULT_BRANCH_LENGTH,
        fraction: float = 0.5,
    ) -> tuple[int, int, int]:
        """Insert a new leaf onto an edge (stepwise addition step).

        Returns ``(leaf_id, junction_id, pendant_edge_id)``.
        """
        mid = self.split_edge(eid, fraction)
        leaf = self.add_node(name)
        pend = self.add_edge(mid, leaf, pendant_length)
        return leaf, mid, pend

    def _prune_sides(
        self, pendant_edge: int, subtree_root: int | None
    ) -> tuple[int, int]:
        """Resolve ``(attachment_node, subtree_root)`` for a prune.

        When both endpoints are internal the move is directional and the
        caller must disambiguate via ``subtree_root``.
        """
        edge = self._edges[pendant_edge]
        if subtree_root is not None:
            a = edge.other(subtree_root)
            if self.is_leaf(a) or self.degree(a) != 3:
                raise ValueError(
                    f"attachment node {a} of edge {pendant_edge} is not an "
                    "internal degree-3 node"
                )
            return a, subtree_root
        candidates = [
            (a, s)
            for a, s in ((edge.u, edge.v), (edge.v, edge.u))
            if not self.is_leaf(a) and self.degree(a) == 3
        ]
        if not candidates:
            raise ValueError(f"edge {pendant_edge} has no prunable attachment node")
        if len(candidates) == 2:
            raise ValueError(
                f"edge {pendant_edge} is internal-internal; pass subtree_root "
                "to pick the prune direction"
            )
        return candidates[0]

    def prune_subtree(
        self, pendant_edge: int, subtree_root: int | None = None
    ) -> PruneRecord:
        """Detach the subtree hanging off ``pendant_edge`` (SPR phase 1).

        ``pendant_edge`` must connect a degree-3 attachment node ``a`` to
        the subtree root ``s``; after pruning, ``a`` is suppressed and its
        other two edges are merged.  The detached subtree (rooted at
        ``s``) keeps all its internal structure.
        """
        edge = self._edges[pendant_edge]
        a, s = self._prune_sides(pendant_edge, subtree_root)
        pendant_length = edge.length
        self.remove_edge(pendant_edge)
        other = self._adj[a]
        x = self._edges[other[0]].other(a)
        y = self._edges[other[1]].other(a)
        len_x = self._edges[other[0]].length
        len_y = self._edges[other[1]].length
        merged = self.suppress_node(a)
        return PruneRecord(
            subtree_root=s,
            attach_x=x,
            attach_y=y,
            merged_edge=merged,
            len_x=len_x,
            len_y=len_y,
            pendant_length=pendant_length,
        )

    def regraft(
        self,
        subtree_root: int,
        target_edge: int,
        pendant_length: float = DEFAULT_BRANCH_LENGTH,
        fraction: float = 0.5,
    ) -> tuple[int, int]:
        """Attach a detached subtree onto ``target_edge`` (SPR phase 2).

        Returns ``(junction_id, pendant_edge_id)``.
        """
        mid = self.split_edge(target_edge, fraction)
        pend = self.add_edge(mid, subtree_root, pendant_length)
        return mid, pend

    def spr(
        self, pendant_edge: int, target_edge: int, subtree_root: int | None = None
    ) -> tuple[int, Callable[[], None]]:
        """Perform an SPR move; returns ``(new_pendant_edge, undo)``.

        ``undo`` restores the exact prior state (see :meth:`_snapshot`).
        ``target_edge`` must survive the prune (i.e. not be one of the two
        edges merged away at the old attachment point).
        """
        undo = self._snapshot()
        rec = self.prune_subtree(pendant_edge, subtree_root)
        if not self.has_edge(target_edge):
            undo()
            raise ValueError(
                "target edge was consumed by the prune; choose an edge outside "
                "the immediate neighborhood of the pruned attachment node"
            )
        _, pend = self.regraft(rec.subtree_root, target_edge, rec.pendant_length)
        return pend, undo

    def spr_candidates(
        self, pendant_edge: int, radius: int, subtree_root: int | None = None
    ) -> list[int]:
        """Valid regraft target edges for an SPR of ``pendant_edge``.

        Excludes edges inside the pruned subtree and the edges adjacent to
        the attachment node (regrafting there reproduces the original
        topology).  ``radius`` bounds the distance from the original
        attachment point, as in RAxML's rearrangement radius.
        """
        try:
            a, s = self._prune_sides(pendant_edge, subtree_root)
        except ValueError:
            return []
        subtree_nodes = set(self.dfs_from(s, pendant_edge))
        banned = set(self._adj[a])
        nearby = self.edges_within_radius(pendant_edge, radius + 1)
        out = []
        for eid in nearby:
            if eid in banned or eid == pendant_edge:
                continue
            e = self._edges[eid]
            if e.u in subtree_nodes or e.v in subtree_nodes:
                continue
            out.append(eid)
        return out

    def nni_swap(self, internal_edge: int, which: int = 0) -> Callable[[], None]:
        """Nearest-neighbour interchange across an internal edge.

        Swaps one of the two subtrees on ``u``'s side with one on ``v``'s
        side (``which`` selects which of ``v``'s subtrees).  Returns an
        exact undo, as :meth:`spr` does.
        """
        edge = self._edges[internal_edge]
        u, v = edge.u, edge.v
        if self.is_leaf(u) or self.is_leaf(v):
            raise ValueError("NNI requires an internal edge")
        undo = self._snapshot()
        eu = [e for e in self._adj[u] if e != internal_edge][0]
        ev = [e for e in self._adj[v] if e != internal_edge][which]
        a = self._edges[eu].other(u)
        b = self._edges[ev].other(v)
        len_a = self._edges[eu].length
        len_b = self._edges[ev].length
        self.remove_edge(eu)
        self.remove_edge(ev)
        self.add_edge(u, b, len_b)
        self.add_edge(v, a, len_a)
        return undo

    def _snapshot(self) -> Callable[[], None]:
        """An undo, to call once, restoring this exact state: ids, id
        counters, every branch length (even one changed since), list and
        dict order, so that ``to_state()`` is again what it is now."""
        names, edges = dict(self._names), dict(self._edges)
        adj = {n: list(es) for n, es in self._adj.items()}
        lengths = [e.length for e in edges.values()]
        counters = self._next_node, self._next_edge

        def undo() -> None:
            self._names, self._adj, self._edges = names, adj, edges
            for e, length in zip(edges.values(), lengths):
                e.length = length
            self._next_node, self._next_edge = counters

        return undo

    # ------------------------------------------------------------------
    # bipartitions / distances
    # ------------------------------------------------------------------
    def split_masks(self) -> dict[int, tuple[int, int]]:
        """Every edge's split, from one post-order pass: ``edge id ->
        (node, mask)``, ``mask`` holding the leaves on ``node``'s side.

        Bit *i* stands for the *i*-th name of ``sorted(leaf_names())``,
        so masks of trees over the same taxa compare.  Rooted at taxon
        0's pendant edge, ``node`` is the endpoint away from taxon 0 and
        ``mask`` the canonical side, the one without it.  A split is
        non-trivial exactly when both sides hold at least two taxa.
        """
        taxa = sorted(self.leaf_names())
        if len(taxa) < 2:
            return {}
        bit = {name: 1 << i for i, name in enumerate(taxa)}
        leaf0 = self.node_by_name(taxa[0])
        root_edge = self._adj[leaf0][0]
        below: dict[int, int] = {}
        out: dict[int, tuple[int, int]] = {}
        for node, parent, up_edge in self._postorder_side(
            self._edges[root_edge].other(leaf0), leaf0, root_edge
        ):
            mask = below.pop(node, 0) | bit.get(self._names[node], 0)
            out[up_edge] = (node, mask)
            below[parent] = below.get(parent, 0) | mask
        return out

    def splits(self) -> set[frozenset[str]]:
        """Non-trivial bipartitions, each as the name set of the side
        holding the smallest taxon (a view over :meth:`split_masks`)."""
        taxa = sorted(self.leaf_names())
        full = (1 << len(taxa)) - 1
        return {
            frozenset(mask_names(full ^ mask, taxa))
            for _, mask in self.split_masks().values()
            if mask.bit_count() >= 2 and (full ^ mask).bit_count() >= 2
        }

    def robinson_foulds(self, other: "Tree") -> int:
        """Unnormalised RF distance (symmetric difference of splits)."""
        if set(self.leaf_names()) != set(other.leaf_names()):
            raise ValueError("trees have different taxon sets")
        a, b = self.splits(), other.splits()
        return len(a ^ b)

    def total_branch_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    # ------------------------------------------------------------------
    # copying / Newick
    # ------------------------------------------------------------------
    def copy(self) -> "Tree":
        """Deep copy preserving node and edge ids."""
        t = Tree()
        t._names = dict(self._names)
        t._adj = {n: list(es) for n, es in self._adj.items()}
        t._edges = {e.id: Edge(e.id, e.u, e.v, e.length) for e in self.edges}
        t._next_node = self._next_node
        t._next_edge = self._next_edge
        return t

    def to_state(self) -> dict:
        """Exact structural dump: ids, adjacency order, id counters.

        Unlike Newick, this representation is *faithful*: node/edge ids,
        per-node adjacency-list order, dict iteration order, and the id
        counters all survive a round trip (JSON floats round-trip
        exactly in Python).  A tree restored via :meth:`from_state` is
        indistinguishable from the original to any traversal or
        enumeration — the property crash-safe checkpoints need so a
        resumed search replays the *identical* floating-point trajectory
        of an uninterrupted one.
        """
        return {
            "names": [[nid, name] for nid, name in self._names.items()],
            "adj": [[nid, list(eids)] for nid, eids in self._adj.items()],
            "edges": [
                [e.id, e.u, e.v, e.length] for e in self._edges.values()
            ],
            "next_node": self._next_node,
            "next_edge": self._next_edge,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Tree":
        """Rebuild a tree from :meth:`to_state` output, exactly."""
        try:
            t = cls()
            t._names = {int(nid): name for nid, name in state["names"]}
            t._adj = {
                int(nid): [int(e) for e in eids] for nid, eids in state["adj"]
            }
            t._edges = {
                int(e[0]): Edge(int(e[0]), int(e[1]), int(e[2]), float(e[3]))
                for e in state["edges"]
            }
            t._next_node = int(state["next_node"])
            t._next_edge = int(state["next_edge"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValueError(f"malformed tree state: {exc}") from exc
        for eid, edge in t._edges.items():
            if edge.u not in t._adj or edge.v not in t._adj:
                raise ValueError(
                    f"tree state edge {eid} references unknown node"
                )
            if eid not in t._adj[edge.u] or eid not in t._adj[edge.v]:
                raise ValueError(f"tree state adjacency missing edge {eid}")
        return t

    def to_newick(self, precision: int = 6) -> str:
        """Serialise as unrooted Newick (trifurcation at an internal node)."""
        internals = self.internal_nodes()
        if not internals:
            # 1- or 2-leaf degenerate trees
            leaves = self.leaves()
            if len(leaves) == 1:
                return f"{self._names[leaves[0]]};"
            e = self.edges[0]
            root = NewickNode(
                children=[
                    NewickNode(label=self._names[e.u], length=e.length / 2),
                    NewickNode(label=self._names[e.v], length=e.length / 2),
                ]
            )
            return format_newick(root, precision=precision)
        # Iterative, so any depth fits: each node's NewickNode takes its
        # children in adjacency order, whatever order the nodes are visited.
        root = NewickNode()
        stack: list[tuple[int, int | None, NewickNode]] = [
            (internals[0], None, root)
        ]
        while stack:
            node, up_edge, nn = stack.pop()
            for eid in self._adj[node]:
                if eid == up_edge:
                    continue
                child = self._edges[eid].other(node)
                length = self._edges[eid].length
                cn = NewickNode(label=self._names[child], length=length)
                nn.children.append(cn)
                if not self.is_leaf(child):
                    stack.append((child, eid, cn))
        return format_newick(root, precision=precision)

    @classmethod
    def from_newick(cls, text: str) -> "Tree":
        """Parse Newick text, unrooting a rooted (2-child) tree if needed.

        Raises :class:`~repro.phylo.newick.NewickError` (a ``ValueError``)
        for a tree no likelihood can be computed on: an unnamed or
        repeated leaf, or a branch length that is negative, not finite or
        exceeds ``MAX_BRANCH_LENGTH``.
        """
        root = parse_newick(text)
        t = cls()
        names: set[str] = set()

        def add_leaf(nn: NewickNode) -> int:
            if not nn.label:
                raise NewickError("Newick leaf without a name")
            if nn.label in names:
                raise NewickError(f"Newick leaf {nn.label!r} appears twice")
            names.add(nn.label)
            return t.add_node(nn.label)

        def attach(parent: int, child: int, nn: NewickNode) -> None:
            length = DEFAULT_BRANCH_LENGTH if nn.length is None else nn.length
            if not 0.0 <= length <= MAX_BRANCH_LENGTH:
                raise NewickError(
                    f"branch length {length} is negative, not finite or "
                    f"exceeds {MAX_BRANCH_LENGTH}"
                )
            t.add_edge(parent, child, length)

        if root.is_leaf:
            root_id = add_leaf(root)
        else:
            # Iterative, in the order a recursive build would take: ids
            # are drawn in pre-order, and the edge to an inner child is
            # added once that child's whole subtree is built.
            root_id = t.add_node()
            stack = [(root, root_id, iter(root.children))]
            while stack:
                nn, node, pending = stack[-1]
                child = next(pending, None)
                if child is None:
                    stack.pop()
                    if stack:
                        attach(stack[-1][1], node, nn)
                elif child.is_leaf:
                    attach(node, add_leaf(child), child)
                else:
                    stack.append((child, t.add_node(), iter(child.children)))
        # A rooted binary tree yields a degree-2 root: suppress it.
        if not t.is_leaf(root_id) and t.degree(root_id) == 2:
            t.suppress_node(root_id)
        return t

    def __repr__(self) -> str:
        return f"Tree(n_leaves={self.n_leaves}, n_edges={len(self._edges)})"


def mask_names(mask: int, taxa: list[str]) -> list[str]:
    """The names of ``taxa`` (sorted, as :meth:`Tree.split_masks` numbers
    them) whose bits are set in ``mask``, in order."""
    return [name for i, name in enumerate(taxa) if mask >> i & 1]


def random_topology(
    names: list[str],
    rng: np.random.Generator,
    branch_length: float | tuple[float, float] = (0.02, 0.4),
) -> Tree:
    """Random unrooted binary topology by sequential random attachment.

    ``branch_length`` is either a constant or a ``(low, high)`` uniform
    range sampled per branch.  Matches how the paper's simulated test
    trees are produced (INDELible draws a random guide tree).
    """
    if len(names) < 2:
        raise ValueError("need at least 2 taxa")

    def draw() -> float:
        if isinstance(branch_length, tuple):
            return float(rng.uniform(*branch_length))
        return float(branch_length)

    t = Tree()
    order = list(names)
    idx = rng.permutation(len(order))
    order = [order[i] for i in idx]
    a = t.add_node(order[0])
    b = t.add_node(order[1])
    t.add_edge(a, b, draw())
    for name in order[2:]:
        eid = int(rng.choice(t.edge_ids))
        t.attach_leaf(eid, name, pendant_length=draw(), fraction=float(rng.uniform(0.2, 0.8)))
    for e in t.edges:
        e.length = draw()
    return t
