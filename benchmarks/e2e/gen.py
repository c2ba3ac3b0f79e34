"""Input generator for the e2e benchmark (NumPy only).

Draws a random binary tree, evolves DNA down it under GTR with
continuous Gamma rate heterogeneity, and hands the result out as FASTA
and Newick *text*.  The program under test only ever sees that text
through its public parsers, never ``repro.phylo.simulate``, so a change
to the repo's simulator cannot move a workload.

The tree is drawn from the workload's fixed ``tree_seed`` and the
sequences from the run's ``seed``: the shape of the problem (taxa,
sites, topology, branch lengths) defines the workload, the seed draws
one realisation of it.  Ten seeds then give ten alignments whose search
cost differs by a few percent, not by a different tree each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASES = np.array(list("ACGT"))

# Generating model, fixed: GTR exchangeabilities (AC AG AT CG CT GT),
# base frequencies, Gamma shape.
GTR_RATES = (1.2, 3.6, 0.8, 1.0, 4.2, 1.0)
GTR_FREQS = (0.30, 0.22, 0.20, 0.28)
GAMMA_ALPHA = 0.8

@dataclass
class GenTree:
    """Rooted binary tree; leaves are the keys of ``names``."""

    names: dict[int, str]
    children: dict[int, tuple[int, int]]
    length: dict[int, float]  # branch above each non-root node
    root: int

    def newick(self) -> str:
        def build(node: int) -> str:
            if node in self.names:
                body = self.names[node]
            else:
                body = "(" + ",".join(build(c) for c in self.children[node]) + ")"
            if node == self.root:
                return body
            return f"{body}:{self.length[node]:.8f}"

        return build(self.root) + ";"

    def pruned(self, drop: set[str]) -> "GenTree":
        """Copy without the named leaves; degree-2 nodes are merged."""
        names, children, length = {}, {}, {}

        def build(node: int) -> int | None:
            if node in self.names:
                if self.names[node] in drop:
                    return None
                names[node] = self.names[node]
                length[node] = self.length[node]
                return node
            kept = [k for k in map(build, self.children[node]) if k is not None]
            if not kept:
                return None
            if len(kept) == 1:
                if node != self.root:
                    length[kept[0]] += self.length[node]
                return kept[0]
            children[node] = (kept[0], kept[1])
            if node != self.root:
                length[node] = self.length[node]
            return node

        root = build(self.root)
        length.pop(root, None)
        return GenTree(names, children, length, root)


def taxon_names(n: int) -> list[str]:
    return [f"t{i + 1:03d}" for i in range(n)]


def random_tree(
    n_taxa: int, rng: np.random.Generator, branch_range: tuple[float, float]
) -> GenTree:
    """Join two random live lineages until one is left (Yule shape);
    every branch length is uniform in ``branch_range``."""
    names = dict(enumerate(taxon_names(n_taxa)))
    children: dict[int, tuple[int, int]] = {}
    live = list(names)
    nxt = n_taxa
    while len(live) > 1:
        i, j = sorted(rng.choice(len(live), size=2, replace=False))
        b = live.pop(j)
        a = live.pop(i)
        children[nxt] = (a, b)
        live.append(nxt)
        nxt += 1
    root = live[0]
    length = {
        node: float(rng.uniform(*branch_range))
        for node in list(names) + list(children)
        if node != root
    }
    return GenTree(names, children, length, root)


def _eigen() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystem of the normalised GTR rate matrix."""
    pi = np.array(GTR_FREQS)
    r = np.zeros((4, 4))
    r[np.triu_indices(4, 1)] = GTR_RATES
    r = r + r.T
    q = r * pi[None, :]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    q /= -(pi * np.diag(q)).sum()
    # Symmetrise with sqrt(pi) so eigh applies and U^-1 is explicit.
    s = np.sqrt(pi)
    lam, v = np.linalg.eigh(q * s[:, None] / s[None, :])
    return lam, v / s[:, None], (v * s[:, None]).T


def evolve(
    tree: GenTree, n_sites: int, rng: np.random.Generator
) -> tuple[list[str], np.ndarray]:
    """Leaf names (sorted) and their ``(taxa, sites)`` base codes."""
    lam, u, u_inv = _eigen()
    site_rate = rng.gamma(GAMMA_ALPHA, 1.0 / GAMMA_ALPHA, size=n_sites)
    states = {tree.root: rng.choice(4, size=n_sites, p=np.array(GTR_FREQS))}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in tree.children.get(node, ()):
            # P(t r_s) rows for each site's parent state, sampled by
            # inverting the cumulative row.
            e = np.exp(np.outer(site_rate * tree.length[child], lam))
            rows = np.einsum("sk,sk,kj->sj", u[states[node]], e, u_inv)
            cum = np.cumsum(np.clip(rows, 0.0, None), axis=1)
            draw = rng.random(n_sites) * cum[:, -1]
            states[child] = np.minimum((draw[:, None] > cum).sum(axis=1), 3)
            stack.append(child)
    leaves = sorted(tree.names, key=tree.names.get)
    return [tree.names[i] for i in leaves], np.array([states[i] for i in leaves])


def pin_patterns(codes: np.ndarray, n_sites: int, n_patterns: int) -> np.ndarray:
    """Indices of ``n_sites`` columns holding exactly ``n_patterns``
    distinct columns.

    Keeps the column that first shows each of the first ``n_patterns``
    patterns, then the earliest repeats of those patterns until
    ``n_sites`` columns are kept.  Kernel work per call is proportional
    to the pattern count, which otherwise wanders by a few percent from
    seed to seed; with it pinned, two seeds differ only in the path the
    search takes.
    """
    _, first, inverse = np.unique(
        codes, axis=1, return_index=True, return_inverse=True
    )
    first_shown = np.sort(first)[:n_patterns]
    allowed = np.flatnonzero(first[inverse.ravel()] <= first_shown[-1])
    repeats = np.setdiff1d(allowed, first_shown)[: n_sites - n_patterns]
    if len(first_shown) + len(repeats) < n_sites:
        raise ValueError(
            f"{codes.shape[1]} columns cannot give {n_sites} sites "
            f"with {n_patterns} patterns"
        )
    return np.sort(np.concatenate([first_shown, repeats]))


def evolve_pinned(
    tree: GenTree,
    n_sites: int,
    n_patterns: int,
    rng: np.random.Generator,
    pinned_taxa: set[str] | None = None,
) -> tuple[list[str], np.ndarray]:
    """``evolve`` with the pattern count of the ``pinned_taxa`` rows
    (default: all) pinned; draws more columns when pinning runs out."""
    factor = 3
    while True:
        names, codes = evolve(tree, n_sites * factor, rng)
        rows = [pinned_taxa is None or n in pinned_taxa for n in names]
        try:
            return names, codes[:, pin_patterns(codes[rows], n_sites, n_patterns)]
        except ValueError:
            if factor > 100:
                raise
            factor *= 4


def to_seqs(names: list[str], codes: np.ndarray) -> dict[str, str]:
    return {name: "".join(BASES[row]) for name, row in zip(names, codes)}


def fasta(seqs: dict[str, str]) -> str:
    return "".join(f">{name}\n{seq}\n" for name, seq in seqs.items())


def mutate(row: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Substitute a ``rate`` share of the sites by a different base."""
    out = row.copy()
    hit = rng.random(len(row)) < rate
    out[hit] = (out[hit] + rng.integers(1, 4, size=int(hit.sum()))) % 4
    return out


@dataclass
class Dataset:
    """What one workload repetition feeds the program, all as text."""

    fasta: str  # search: all taxa; placement: the reference taxa
    newick: str  # generating tree (search) or reference tree (placement)
    queries: dict[str, str]  # placement only: {query name: aligned row}


def search_dataset(
    n_taxa: int,
    n_sites: int,
    n_patterns: int,
    branch_range: tuple[float, float],
    tree_seed: int,
    seed: int,
) -> Dataset:
    tree = random_tree(n_taxa, np.random.default_rng(tree_seed), branch_range)
    names, codes = evolve_pinned(
        tree, n_sites, n_patterns, np.random.default_rng(seed)
    )
    return Dataset(fasta(to_seqs(names, codes)), tree.newick(), {})


def placement_dataset(
    n_taxa: int,
    n_sites: int,
    n_patterns: int,
    branch_range: tuple[float, float],
    tree_seed: int,
    seed: int,
    n_pruned: int,
    n_queries: int,
) -> Dataset:
    """Reference = tree minus ``n_pruned`` taxa, pinned to
    ``n_patterns``; queries = the pruned taxa's rows, each with its own
    2 % random substitutions, so no two queries are equal and the
    merged-pattern cache never hits."""
    tree_rng = np.random.default_rng(tree_seed)
    tree = random_tree(n_taxa, tree_rng, branch_range)
    dropped = set(
        tree_rng.choice(taxon_names(n_taxa), size=n_pruned, replace=False)
    )
    rng = np.random.default_rng(seed)
    kept = set(taxon_names(n_taxa)) - dropped
    names, codes = evolve_pinned(tree, n_sites, n_patterns, rng, kept)
    is_ref = np.array([n in kept for n in names])
    pruned_rows = codes[~is_ref]
    queries = to_seqs(
        [f"q{i + 1:05d}" for i in range(n_queries)],
        [mutate(pruned_rows[i % n_pruned], 0.02, rng) for i in range(n_queries)],
    )
    reference = to_seqs([n for n in names if n in kept], codes[is_ref])
    return Dataset(fasta(reference), tree.pruned(dropped).newick(), queries)
