"""The four workloads: inputs, the timed public call, and its checks.

Every call into the program goes through a public entry point with no
``backend=``, ``workers=`` or ``execution=`` argument (the traced pass
passes the ``TimingBackend`` proxy of the *default* backend), so the
numbers are those of what the repo ships as default.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

import gen

RELATIVE_LNL = 1e-6  # recomputed vs reported log-likelihood


@dataclass(frozen=True)
class Spec:
    """Shape of one workload.  ``n_patterns`` is pinned by the
    generator and verified after the program's own ``compress()``."""

    kind: str  # "search", "place" or "serve"
    n_taxa: int
    n_sites: int
    n_patterns: int
    branch_range: tuple[float, float]
    tree_seed: int
    n_pruned: int = 0
    n_queries: int = 0  # per place_queries call; serve: rows the clients mutate
    require_true_topology: bool = False


# Sized so that one timed call takes about 3 s on the 2-core reference
# box and six or more fit in one run; see README.md for how each relates to
# the shape ISSUE 11 asked for.
SPECS = {
    # Long alignment, few taxa: kernel arithmetic on 2 300-pattern
    # arrays is ~88 % of the wall-clock.
    "search_wide": Spec(
        "search", 8, 6_000, 2_300, (0.05, 0.4), 101,
        require_true_topology=True,
    ),
    # Many taxa, closely related (short branches): 170 patterns, so the
    # same search makes twice the kernel calls on arrays 14x smaller
    # and half the wall-clock is plan, dispatch and driver Python.
    "search_deep": Spec("search", 16, 600, 170, (0.015, 0.03), 202),
    # 28-taxon reference (53 edges), one cold place_queries call that
    # fuses 12 queries.
    "place_offline": Spec(
        "place", 32, 2_000, 1_300, (0.03, 0.15), 303, n_pruned=4, n_queries=12
    ),
    # 14-taxon reference behind the HTTP server, one query per request.
    "serve_closed": Spec(
        "serve", 16, 600, 330, (0.03, 0.15), 404, n_pruned=2, n_queries=2
    ),
}

SMOKE_SPECS = {
    "search_wide": Spec("search", 6, 200, 95, (0.05, 0.4), 101),
    "search_deep": Spec("search", 7, 120, 20, (0.015, 0.03), 202),
    "place_offline": Spec(
        "place", 10, 200, 75, (0.03, 0.15), 303, n_pruned=2, n_queries=3
    ),
    "serve_closed": Spec(
        "serve", 8, 150, 50, (0.03, 0.15), 404, n_pruned=2, n_queries=2
    ),
}

#: The throw-away call that ends set-up: finishes lazy imports and
#: loads whatever the default backend loads on first use.
WARM_UP = Spec("search", 4, 40, 10, (0.05, 0.3), 505)


@dataclass
class Inputs:
    """Parsed inputs of one repetition plus the text they came from."""

    dataset: gen.Dataset
    alignment: object  # repro.phylo.Alignment, what the program is given
    patterns: object  # its compress(), for the checks only
    load_s: float  # parse + compress, the phylo.load_s lane


def rep_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def load(spec: Spec, seed: int) -> Inputs:
    """Generate one dataset and parse it with the public parsers."""
    from repro.phylo import read_fasta

    if spec.kind == "search":
        dataset = gen.search_dataset(
            spec.n_taxa, spec.n_sites, spec.n_patterns,
            spec.branch_range, spec.tree_seed, seed,
        )
    else:
        dataset = gen.placement_dataset(
            spec.n_taxa, spec.n_sites, spec.n_patterns,
            spec.branch_range, spec.tree_seed, seed,
            spec.n_pruned, spec.n_queries,
        )
    t0 = time.perf_counter()
    alignment = read_fasta(io.StringIO(dataset.fasta))
    patterns = alignment.compress()
    load_s = time.perf_counter() - t0
    if patterns.n_patterns != spec.n_patterns:
        raise SystemExit(
            f"pattern count {patterns.n_patterns} differs from the pinned "
            f"{spec.n_patterns}: the workload is not the one measured before"
        )
    return Inputs(dataset, alignment, patterns, load_s)


def warm_up() -> None:
    from repro.search import ml_search

    ml_search(load(WARM_UP, 1).alignment)


# ----------------------------------------------------------------------
# the timed public calls
# ----------------------------------------------------------------------
def run_op(spec: Spec, inputs: Inputs, backend=None):
    """One timed call.  ``backend`` is only ever the traced pass's
    ``TimingBackend``; untraced, the argument is not passed at all."""
    extra = {} if backend is None else {"backend": backend}
    if spec.kind == "search":
        from repro.search import ml_search

        return ml_search(inputs.alignment, **extra)
    from repro.phylo import GammaRates, Tree, gtr
    from repro.search import place_queries

    return place_queries(
        inputs.alignment,
        Tree.from_newick(inputs.dataset.newick),
        inputs.dataset.queries,
        gtr(),
        GammaRates(1.0, 4),
        **extra,
    )


def result_lanes(spec: Spec, result) -> dict[str, int]:
    """Per-layer counts read from the public result object."""
    history = result.spr_history if spec.kind == "search" else []
    return {
        "search.spr_rounds": len(history),
        "search.spr_accepted": sum(r.moves_accepted for r in history),
        "search.epa.queries": 0 if spec.kind == "search" else len(result),
    }


def fingerprint(spec: Spec, result) -> tuple:
    """What traced and untraced calls on one dataset must agree on."""
    if spec.kind == "search":
        return (result.lnl, result.newick)
    return tuple(
        (r.query, tuple((p.edge_label, p.log_likelihood) for p in r.placements))
        for r in result
    )


# ----------------------------------------------------------------------
# correctness checks (after the timed call, never inside it)
# ----------------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_LNL * max(abs(a), abs(b))


def _reference_lnl(patterns, tree, model, gamma) -> float:
    from repro.core.backends import make_engine

    return make_engine(
        patterns, tree, model, gamma, backend="reference"
    ).log_likelihood()


def check_search(spec: Spec, inputs: Inputs, result) -> list[str]:
    """Problems with one search result (empty = correct)."""
    from repro.phylo import GammaRates, Tree

    problems = []
    patterns = inputs.patterns
    gamma = GammaRates(result.alpha, 4)
    recomputed = _reference_lnl(patterns, result.tree.copy(), result.model, gamma)
    if not _close(recomputed, result.lnl):
        problems.append(f"lnL {result.lnl!r} recomputes to {recomputed!r}")
    true_tree = Tree.from_newick(inputs.dataset.newick)
    true_lnl = _reference_lnl(patterns, true_tree, result.model, gamma)
    if result.lnl < true_lnl - RELATIVE_LNL * abs(true_lnl):
        problems.append(
            f"lnL {result.lnl!r} below the generating tree's {true_lnl!r}"
        )
    if spec.require_true_topology:
        rf = result.tree.robinson_foulds(true_tree)
        if rf != 0:
            problems.append(f"RF distance {rf} to the generating topology")
    return problems


def _edge_by_label(tree, label: tuple[str, ...]) -> int | None:
    """Edge whose smaller leaf side is ``label`` (epa's branch id)."""
    for edge in tree.edges:
        sides = [
            sorted(tree.name(n) for n in tree.subtree_leaves(node, edge.id))
            for node in (edge.u, edge.v)
        ]
        if tuple(min(sides, key=lambda s: (len(s), s))) == tuple(label):
            return edge.id
    return None


def check_placement(inputs: Inputs, query: str, result, recompute: bool) -> list[str]:
    """Problems with one query's ``PlacementResult``."""
    from repro.phylo import Alignment, GammaRates, Tree, gtr

    if result.query != query or not result.placements:
        return [f"{query}: no placement returned"]
    problems = []
    lwr = sum(p.weight_ratio for p in result.placements)
    if not lwr <= 1.0 + 1e-9:
        problems.append(f"{query}: LWRs sum to {lwr!r}")
    if recompute:
        best = result.best
        tree = Tree.from_newick(inputs.dataset.newick)
        edge = _edge_by_label(tree, best.edge_label)
        if edge is None:
            return problems + [f"{query}: no edge labelled {best.edge_label}"]
        tree.attach_leaf(edge, query, pendant_length=best.pendant_length)
        ref = inputs.alignment
        merged = Alignment.from_sequences(
            {**{t: ref.sequence(t) for t in ref.taxa},
             query: inputs.dataset.queries[query]}
        )
        lnl = _reference_lnl(merged.compress(), tree, gtr(), GammaRates(1.0, 4))
        if not _close(lnl, best.log_likelihood):
            problems.append(
                f"{query}: lnL {best.log_likelihood!r} recomputes to {lnl!r}"
            )
    return problems


#: Queries per place_queries call whose best placement is re-attached
#: and recomputed with a fresh reference engine.
RECOMPUTED_PER_CALL = 4


def check_op(spec: Spec, inputs: Inputs, result) -> tuple[int, list[str]]:
    """``(operations attempted, problems)`` for one timed call; each
    problem names one failed operation."""
    if spec.kind == "search":
        problems = check_search(spec, inputs, result)
        return 1, ["; ".join(problems)] if problems else []
    queries = list(inputs.dataset.queries)
    by_query = {r.query: r for r in result}
    failed = []
    for i, query in enumerate(queries):
        found = by_query.get(query)
        problems = (
            [f"{query}: missing from the results"]
            if found is None
            else check_placement(inputs, query, found, i < RECOMPUTED_PER_CALL)
        )
        if problems:
            failed.append("; ".join(problems))
    return len(queries), failed


def serve_query_source(inputs: Inputs, seed: int, client: int):
    """Endless unique ``(name, sequence)`` queries for one client: the
    pruned taxa's rows, each with fresh 2 % substitutions, so the
    server's merged-pattern cache never hits."""
    rng = np.random.default_rng([seed, client])
    rows = [
        np.searchsorted(gen.BASES, np.array(list(seq)))
        for seq in inputs.dataset.queries.values()
    ]
    count = 0
    while True:
        row = gen.mutate(rows[count % len(rows)], 0.02, rng)
        count += 1
        yield f"c{client}n{count:06d}", "".join(gen.BASES[row])
