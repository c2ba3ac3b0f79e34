"""Evolutionary Placement Algorithm (EPA) — the paper's Sec. VII outlook.

The paper closes by suggesting the MIC kernels be applied to the EPA
(Berger et al. 2011): placing *query* sequences (e.g. short
environmental reads) onto a fixed *reference* tree, evaluating every
(branch, query) pair independently — "allowing for efficient
parallelization with less communication overhead" than tree search.

This module implements the algorithm on one reference engine:

1. each query becomes a row gather of the reference patterns: its
   sites' distinct ``(reference pattern, query code)`` pairs, in order
   of first appearance, are exactly the patterns of the merged and
   compressed alignment, so no query is merged, re-encoded or
   compressed and no per-query engine is built,
2. for each reference branch ``(u, v)``, the CLAs of ``u`` and ``v``
   directed toward it (held by the reference engine) are gathered to
   the query's patterns and combined at the branch midpoint, the
   pendant branch to the query's tip gets a few Newton iterations, and
   the insertion is scored with one ``evaluate`` — no tree surgery,
3. placements are reported ranked by log-likelihood with likelihood
   weight ratios over the **full** candidate set, then truncated to
   ``keep_best`` (the standard EPA output).

The (branch x query) loop is embarrassingly parallel; the kernel trace
it generates contains *zero* required reductions per placement, which is
exactly the communication profile the paper expects to suit the MIC.

:class:`PlacementSession` is the warm-state form of the algorithm: it
compresses the reference once, caches the per-branch labels/distal
lengths and the jplace frame (annotated tree, label -> edge number),
holds the one reference engine, and places any number of query sets on
it.  The long-running placement server (:mod:`repro.serve`) keeps one
session resident per reference tree; the offline :func:`place_queries`
entry point is a thin wrapper that builds a session, places, and tears
it down.  Queries are placed one at a time, in the order given.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.backends import KernelBackend, get_backend, make_engine
from ..core.traversal import COMBINE_KINDS, KernelKind
from ..obs import server as _obs_server
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import MIN_BRANCH_LENGTH, Tree, mask_names
from .branch_opt import polish_branch

__all__ = [
    "Placement",
    "PlacementResult",
    "PlacementSession",
    "place_queries",
    "to_jplace",
]


@dataclass(frozen=True)
class Placement:
    """One candidate placement of a query on a reference branch."""

    edge_label: tuple[str, ...]  # smaller split side, identifies the branch
    log_likelihood: float
    pendant_length: float
    weight_ratio: float = 0.0
    distal_length: float = 0.0


@dataclass
class PlacementResult:
    """Ranked placements of one query sequence."""

    query: str
    placements: list[Placement] = field(default_factory=list)

    @property
    def best(self) -> Placement:
        return self.placements[0]


def _edge_labels(tree: Tree) -> dict[int, tuple[str, ...]]:
    """Stable branch identifiers by edge id: the side of the edge's split
    that is smaller by ``(size, sorted names)``, as sorted names."""
    taxa = sorted(tree.leaf_names())
    full = (1 << len(taxa)) - 1
    labels = {}
    for eid, (_, mask) in tree.split_masks().items():
        sides = mask_names(mask, taxa), mask_names(full ^ mask, taxa)
        labels[eid] = tuple(min(sides, key=lambda side: (len(side), side)))
    return labels


class _QueryScorer:
    """One query, scored on the reference engine by row gathers.

    Its patterns are the distinct ``(reference pattern, query code)``
    pairs of its sites in order of first appearance — exactly what
    compressing the reference plus the query gives — so ``rows`` picks
    each one's reference pattern and every per-pattern value is the
    merged engine's.  Kernels run through the engine's rate model, aimed
    at the query's pattern weights, on the engine's backend, and are
    counted in its counters; :func:`~repro.search.branch_opt.polish_branch`
    drives the scorer as it drives an engine.
    """

    def __init__(self, engine, reference: PatternAlignment, seq: str) -> None:
        states = reference.states
        codes = states.encode(seq)
        key = reference.site_to_pattern * (states.undetermined + 1) + codes
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        order = np.argsort(first, kind="stable")
        sites = first[order]
        self.rows = reference.site_to_pattern[sites]
        engine.rates.cover_codes(codes)
        self.rates = engine.rates.with_weights(counts[order].astype(np.float64))
        self.tip = self.rates.tip_view(codes[sites])
        self.counters = engine.counters
        self.n_patterns = len(sites)

    def counted(self, kind: KernelKind, out):
        self.counters.record(kind, self.n_patterns)
        return out

    def branch_derivatives(self, sumbuf, t: float) -> tuple[float, float, float]:
        out = self.rates.branch_derivatives(sumbuf, t)
        return self.counted(KernelKind.DERIVATIVE_CORE, out)


class PlacementSession:
    """Warm, reusable placement state for one reference tree.

    Construction does the per-reference work once — compress the
    alignment, copy the tree, precompute every candidate branch's
    stable label and midpoint distal length, the jplace frame.
    :meth:`warm` builds the session's one engine over the reference
    (through the ``max_resident`` memory-saving machinery when
    requested) and validates both directed CLAs of every branch; every
    query is then scored on it by a row gather of those CLAs — no tree
    surgery, no per-query engine — so repeated :meth:`place` calls pay
    only per-query arithmetic.  Sessions should be ``close()``d (or used
    as context managers).
    """

    def __init__(
        self,
        reference_alignment: PatternAlignment | Alignment,
        reference_tree: Tree,
        model: SubstitutionModel,
        gamma: GammaRates | None = None,
        *,
        newton_iterations: int = 4,
        backend: "str | KernelBackend | None" = None,
        max_resident: int | None = None,
    ) -> None:
        if isinstance(reference_alignment, Alignment):
            reference_alignment = reference_alignment.compress()
        self.reference = reference_alignment
        self.model = model
        self.gamma = gamma
        self.newton_iterations = newton_iterations
        self.max_resident = max_resident
        self._backend = get_backend(backend)
        self.tree = reference_tree.copy()  # pristine; never mutated
        self._width = len(reference_alignment.site_to_pattern)
        self._leaf_rows = {
            node: reference_alignment.row(self.tree.name(node))
            for node in self.tree.leaves()
        }
        labels = _edge_labels(self.tree)
        self._candidates = [
            (e, labels[e.id], 0.5 * e.length) for e in self.tree.edges
        ]
        self._jplace_frame = (
            _annotated_newick(self.tree),
            {labels[e.id]: i for i, e in enumerate(self.tree.edges)},
        )
        self._engine = None
        self.reference_lnl: float | None = None  # set by warm()
        self.queries_placed = 0

    # -- lifecycle -----------------------------------------------------
    def warm(self):
        """Build the session's reference engine and validate both
        directed CLAs of every branch; returns the engine.

        Sets :attr:`reference_lnl`.  Idempotent: the engine stays
        resident until :meth:`close`.
        """
        if self._engine is None:
            self._engine = make_engine(
                self.reference, self.tree, self.model, self.gamma,
                backend=self._backend, max_resident=self.max_resident,
            )
            root = self.tree.edges[0].id
            self.reference_lnl = float(self._engine.log_likelihood(root))
        self._engine.ensure_both_directions()
        return self._engine

    def close(self) -> None:
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self) -> "PlacementSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- placement -----------------------------------------------------
    def place(
        self,
        queries: dict[str, str],
        *,
        keep_best: int = 5,
        on_result=None,
    ) -> list[PlacementResult]:
        """Place every query; ranked, LWR-weighted results in query order.

        ``on_result`` is called with each :class:`PlacementResult` as it
        completes (progress reporting).
        """
        if not queries:
            raise ValueError("no query sequences given")
        engine = self.warm()
        results: list[PlacementResult] = []
        for name, seq in queries.items():
            result = self._place_one(engine, name, seq, keep_best)
            results.append(result)
            if on_result is not None:
                on_result(result)
        self.queries_placed += len(results)
        return results

    def _place_one(
        self, engine, name: str, seq: str, keep_best: int
    ) -> PlacementResult:
        if name in self.reference.taxa:
            raise ValueError(f"query {name!r} collides with a reference taxon")
        if len(seq) != self._width:
            raise ValueError(
                f"query {name!r} has {len(seq)} sites, reference has "
                f"{self._width} (queries must be aligned to the reference "
                "alignment)"
            )
        scorer = _QueryScorer(engine, self.reference, seq)
        placements = [
            self._score_edge(engine, scorer, *candidate)
            for candidate in self._candidates
        ]
        return PlacementResult(
            query=name, placements=self._rank(placements, keep_best)
        )

    def _score_edge(
        self, engine, scorer: _QueryScorer, edge, label, distal: float
    ) -> Placement:
        """Insert the query at the midpoint of ``edge`` and score it.

        The junction combines ``u``'s and ``v``'s sides of the edge,
        gathered to the query's patterns, across the half lengths
        :meth:`~repro.phylo.tree.Tree.split_edge` gives; the pendant
        then gets a Newton polish and one ``evaluate``.
        """
        half, rows = max(edge.length * 0.5, MIN_BRANCH_LENGTH), scorer.rows
        sides = [
            (self._leaf_rows[node][rows], half) if node in self._leaf_rows
            else (*(a[rows] for a in engine.cla(node, edge.id)), half)
            for node in (edge.u, edge.v)
        ]
        kind = COMBINE_KINDS[sum(len(side) == 2 for side in sides)]
        rates, tip = scorer.rates, scorer.tip
        z, scale = scorer.counted(kind, rates.combine(kind, *sides))
        scales = scale.astype(np.int64)
        sumbuf = scorer.counted(
            KernelKind.DERIVATIVE_SUM, rates.sum_buffer(z, tip, scales)
        )
        t = polish_branch(scorer, sumbuf, 0.1, self.newton_iterations)
        lnl = rates.log_likelihood(z, tip, scales, t)
        return Placement(
            edge_label=label,
            log_likelihood=scorer.counted(KernelKind.EVALUATE, lnl),
            pendant_length=t,
            distal_length=distal,
        )

    def _rank(
        self, placements: list[Placement], keep_best: int
    ) -> list[Placement]:
        """Sort by lnl, softmax LWRs over ALL candidates, then truncate.

        The softmax must run over the full evaluated set *before*
        ``keep_best`` slicing — normalising after truncation inflates
        every reported ratio (ISSUE 9 satellite).
        """
        placements = sorted(
            placements, key=lambda p: p.log_likelihood, reverse=True
        )
        lnls = np.array([p.log_likelihood for p in placements])
        weights = np.exp(lnls - lnls.max())
        weights /= weights.sum()
        ranked = [
            replace(p, weight_ratio=float(w))
            for p, w in zip(placements, weights)
        ]
        return ranked[:keep_best]

    def to_jplace(self, results: list[PlacementResult]) -> dict:
        """:func:`to_jplace` on the frame computed at construction."""
        return _jplace_document(results, *self._jplace_frame)


def place_queries(
    reference_alignment: PatternAlignment | Alignment,
    reference_tree: Tree,
    queries: dict[str, str],
    model: SubstitutionModel,
    gamma: GammaRates | None = None,
    newton_iterations: int = 4,
    keep_best: int = 5,
    backend: "str | KernelBackend | None" = None,
) -> list[PlacementResult]:
    """Place each query sequence on its best reference branches.

    Parameters
    ----------
    reference_alignment:
        Alignment of the reference taxa (compressed or not).
    reference_tree:
        The fixed reference topology with branch lengths (not modified).
    queries:
        ``{name: aligned_sequence}`` — aligned to the reference columns.
    keep_best:
        How many top placements to report per query.  Likelihood weight
        ratios are normalised over the *full* candidate set before
        truncation, so reported LWRs are true posteriors of the kept
        branches (they sum to <= 1).
    backend:
        Kernel backend name or instance of the one reference engine
        every query is scored on (see :mod:`repro.core.backends`).

    One-shot wrapper over :class:`PlacementSession`; long-running
    callers (the placement server) hold a session instead.
    """
    session = PlacementSession(
        reference_alignment,
        reference_tree,
        model,
        gamma,
        newton_iterations=newton_iterations,
        backend=backend,
    )
    if _obs_server.ENABLED:
        _obs_server.progress_begin(
            "place",
            total_steps=len(queries),
            queries=len(queries),
            reference_taxa=session.reference.n_taxa,
        )

    def _report(result: PlacementResult) -> None:
        if _obs_server.ENABLED:
            _obs_server.progress_update(
                "place",
                lnl=result.placements[0].log_likelihood
                if result.placements
                else None,
            )

    try:
        results = session.place(
            queries,
            keep_best=keep_best,
            on_result=_report,
        )
    except BaseException as exc:
        # /progress must not keep showing a stale in-flight run after a
        # failure (ISSUE 9 satellite): mark it failed, then re-raise.
        if _obs_server.ENABLED:
            _obs_server.progress_fail(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        session.close()
    if _obs_server.ENABLED:
        _obs_server.progress_finish(
            results[-1].placements[0].log_likelihood
            if results and results[-1].placements
            else None
        )
    return results


def _annotated_newick(tree: Tree) -> str:
    """The jplace tree string: Newick with ``{edge_num}`` annotations."""
    edge_num = {e.id: i for i, e in enumerate(tree.edges)}
    internals = tree.internal_nodes()
    root_node = internals[0] if internals else tree.leaves()[0]
    # Iterative, as format_newick is: the stack holds (node, up edge)
    # pairs still to write and the text that closes each open node.
    parts: list[str] = []
    stack: list[tuple[int, int | None] | str] = [(root_node, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, up_edge = item
        tail = ""
        if up_edge is not None:
            e = tree.edge(up_edge)
            tail = f":{e.length:.6f}{{{edge_num[up_edge]}}}"
        if tree.is_leaf(node):
            parts.append(tree.name(node) + tail)
            continue
        down = [eid for eid in tree.incident_edges(node) if eid != up_edge]
        parts.append("(")
        stack.append(")" + tail)
        for i in range(len(down) - 1, -1, -1):
            stack.append((tree.edge(down[i]).other(node), down[i]))
            if i:
                stack.append(",")
    return "".join(parts) + ";"


def to_jplace(
    results: list[PlacementResult], reference_tree: Tree
) -> dict:
    """Serialise placements in the ``jplace`` interchange format.

    Emits the standard structure consumed by placement viewers
    (gappa/iTOL): a reference-tree Newick string with ``{edge_number}``
    annotations and per-query placement rows
    ``[edge_num, likelihood, like_weight_ratio, distal_length,
    pendant_length]``.  Edge numbers follow the branch labels used by
    :func:`place_queries`, re-derived from the live tree
    (:meth:`PlacementSession.to_jplace` derives them once per session).

    Returns the jplace dictionary (pass to ``json.dump`` to write).
    """
    labels = _edge_labels(reference_tree)
    return _jplace_document(
        results,
        _annotated_newick(reference_tree),
        {labels[e.id]: i for i, e in enumerate(reference_tree.edges)},
    )


def _jplace_document(
    results: list[PlacementResult],
    tree_string: str,
    label_to_num: dict[tuple[str, ...], int],
) -> dict:
    placements = [
        {
            "p": [
                [
                    label_to_num[p.edge_label],
                    p.log_likelihood,
                    p.weight_ratio,
                    p.distal_length,
                    p.pendant_length,
                ]
                for p in result.placements
            ],
            "n": [result.query],
        }
        for result in results
    ]
    return {
        "version": 3,
        "tree": tree_string,
        "placements": placements,
        "fields": [
            "edge_num",
            "likelihood",
            "like_weight_ratio",
            "distal_length",
            "pendant_length",
        ],
        "metadata": {"invocation": "repro.search.epa.place_queries"},
    }
