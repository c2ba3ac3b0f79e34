"""Newick tree text format: tokenizer, parser, and writer.

The parser produces a lightweight nested structure (:class:`NewickNode`)
that :mod:`repro.phylo.tree` converts into its edge-list representation.
Supported syntax: arbitrary multifurcations, branch lengths (``:0.12``),
quoted labels (``'name with spaces'``), internal-node labels (kept but
unused by the likelihood code), and comments in square brackets (ignored,
as in most phylogenetics tools).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NewickNode", "parse_newick", "format_newick", "NewickError"]


class NewickError(ValueError):
    """Raised on malformed Newick input."""


@dataclass
class NewickNode:
    """One node of a parsed Newick tree.

    ``length`` is the length of the branch *above* this node (toward the
    parent); it is ``None`` for the root or when absent in the input.
    """

    label: str | None = None
    length: float | None = None
    children: list["NewickNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["NewickNode"]:
        """All leaf descendants, left-to-right."""
        out: list[NewickNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "[":  # comment — skip to matching bracket
            end = text.find("]", i)
            if end < 0:
                raise NewickError("unterminated [comment]")
            i = end + 1
        elif ch in "(),:;":
            tokens.append(ch)
            i += 1
        elif ch == "'":
            end = i + 1
            while end < n and text[end] != "'":
                end += 1
            if end >= n:
                raise NewickError("unterminated quoted label")
            tokens.append(text[i + 1 : end])
            i = end + 1
        else:
            end = i
            while end < n and text[end] not in "(),:;[" and not text[end].isspace():
                end += 1
            tokens.append(text[i:end])
            i = end
    return tokens


def parse_newick(text: str) -> NewickNode:
    """Parse a single Newick tree string into a :class:`NewickNode` root."""
    tokens = _tokenize(text)
    if not tokens:
        raise NewickError("empty Newick input")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise NewickError("unexpected end of Newick input")
        tok = tokens[pos]
        pos += 1
        return tok

    def finish(node: NewickNode) -> None:
        """Read the optional label and ``:length`` closing ``node``."""
        tok = peek()
        if tok is not None and tok not in "(),:;":
            node.label = take()
        if peek() == ":":
            take()
            raw = take()
            try:
                node.length = float(raw)
            except ValueError as exc:
                raise NewickError(f"bad branch length {raw!r}") from exc

    # Iterative, so nesting depth is bounded by memory, not the recursion
    # limit: ``parents`` holds the nodes whose ``)`` is still to come.
    root = node = NewickNode()
    parents: list[NewickNode] = []
    while True:
        if peek() == "(":
            take()
            parents.append(node)
        else:
            finish(node)
            while parents and peek() != ",":
                if take() != ")":
                    raise NewickError("expected ')'")
                node = parents.pop()
                finish(node)
            if not parents:
                break
            take()  # the "," before the next sibling
        node = NewickNode()
        parents[-1].children.append(node)
    if peek() == ";":
        take()
    if pos != len(tokens):
        raise NewickError(f"trailing Newick tokens: {tokens[pos:]}")
    if root.is_leaf and root.label is None:
        raise NewickError("Newick tree has no content")
    return root


def _needs_quoting(label: str) -> bool:
    return any(ch in "(),:;[] '" or ch.isspace() for ch in label)


def format_newick(root: NewickNode, *, precision: int = 6) -> str:
    """Serialise a :class:`NewickNode` back to Newick text."""

    def _fmt_label(label: str | None) -> str:
        if label is None:
            return ""
        return f"'{label}'" if _needs_quoting(label) else label

    # Iterative: the stack holds nodes still to write and the text that
    # closes each open node, in the order they are written.
    parts: list[str] = []
    stack: list[NewickNode | str] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):  # a "," or a node's closing text
            parts.append(node)
            continue
        tail = _fmt_label(node.label)
        if node.length is not None:
            tail += f":{node.length:.{precision}f}"
        if node.is_leaf:
            parts.append(tail)
            continue
        parts.append("(")
        stack.append(")" + tail)
        for i in range(len(node.children) - 1, -1, -1):
            stack.append(node.children[i])
            if i:
                stack.append(",")
    return "".join(parts) + ";"
