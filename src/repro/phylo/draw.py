"""ASCII tree rendering for terminal output.

Small utility for inspecting inferred trees without leaving the
terminal: renders an unrooted tree (rooted for display at an internal
node) as an indented branch diagram with optional branch lengths and
per-split support values — the kind of quick look RAxML users get from
``nw_display``-style tools.
"""

from __future__ import annotations

from .tree import Tree, mask_names

__all__ = ["ascii_tree"]


def ascii_tree(
    tree: Tree,
    show_lengths: bool = True,
    support: dict[frozenset[str], float] | None = None,
) -> str:
    """Render a tree as ASCII art, one leaf per line.

    ``support`` (as produced by
    :func:`repro.search.bootstrap.support_values`) annotates internal
    branches with percentage values.
    """
    if tree.n_leaves == 0:
        return "(empty tree)"
    if tree.n_leaves == 1:
        return tree.leaf_names()[0]
    internals = tree.internal_nodes()
    root = internals[0] if internals else tree.leaves()[0]
    taxa = sorted(tree.leaf_names())
    full = (1 << len(taxa)) - 1
    masks = tree.split_masks()
    lines: list[str] = []

    def branch_label(eid: int, node: int) -> str:
        parts = []
        if show_lengths:
            parts.append(f"{tree.edge(eid).length:.4f}")
        if support is not None and not tree.is_leaf(node):
            # support is keyed like Tree.splits: the side holding taxon 0
            split = frozenset(mask_names(full ^ masks[eid][1], taxa))
            if split in support:
                parts.append(f"[{support[split] * 100:.0f}%]")
        return (" " + " ".join(parts)) if parts else ""

    def walk(node: int, up_edge: int | None, prefix: str, connector: str) -> None:
        label = "" if up_edge is None else branch_label(up_edge, node)
        children = [
            (tree.edge(e).other(node), e)
            for e in tree.incident_edges(node)
            if e != up_edge
        ]
        if not children:
            lines.append(f"{prefix}{connector}{tree.name(node)}{label}")
            return
        # Root may be a leaf on degenerate (2-leaf) trees: show its name.
        head = tree.name(node) or "+"
        lines.append(f"{prefix}{connector}{head}{label}")
        child_prefix = prefix + ("|  " if connector == "+--" else "   ")
        for i, (child, eid) in enumerate(children):
            last = i == len(children) - 1
            walk(child, eid, child_prefix, "`--" if last else "+--")

    walk(root, None, "", "")
    return "\n".join(lines)
