"""Evolutionary Placement Algorithm (EPA) — the paper's Sec. VII outlook.

The paper closes by suggesting the MIC kernels be applied to the EPA
(Berger et al. 2011): placing *query* sequences (e.g. short
environmental reads) onto a fixed *reference* tree, evaluating every
(branch, query) pair independently — "allowing for efficient
parallelization with less communication overhead" than tree search.

This module implements the algorithm on the reproduction's engine:

1. each query is merged into the reference alignment and gets its own
   engine over the merged patterns (no CLA is shared between queries
   yet: the O(edges) rewrite on one warm reference engine, ROADMAP,
   is what changes that),
2. for each reference branch, the query is attached at the branch
   midpoint, the pendant branch length gets a few Newton iterations,
   and the insertion is scored with one ``evaluate``,
3. placements are reported ranked by log-likelihood with likelihood
   weight ratios over the **full** candidate set, then truncated to
   ``keep_best`` (the standard EPA output).

The (branch x query) loop is embarrassingly parallel; the kernel trace
it generates contains *zero* required reductions per placement, which is
exactly the communication profile the paper expects to suit the MIC.

:class:`PlacementSession` is the warm-state form of the algorithm: it
compresses the reference once, caches the decoded reference rows, the
per-branch labels/distal lengths and the jplace frame (annotated tree,
label → edge number), and places any number of query sets against
them.  The long-running placement server (:mod:`repro.serve`)
keeps one session resident per reference tree; the offline
:func:`place_queries` entry point is a thin wrapper that builds a
session, places, and tears it down.  Queries are placed one at a time,
in the order given: each gets its own engine over its merged alignment,
which is closed before the next query's is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.backends import KernelBackend, get_backend, make_engine
from ..obs import server as _obs_server
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree, mask_names
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


def _edge_label(tree: Tree, edge_id: int) -> tuple[str, ...]:
    """One edge's :func:`_edge_labels` entry."""
    return _edge_labels(tree)[edge_id]


class PlacementSession:
    """Warm, reusable placement state for one reference tree.

    Construction does the per-reference work once — compress the
    alignment, decode the reference rows for fast query merging, copy
    the tree, precompute every candidate branch's stable label and
    midpoint distal length, the jplace frame — so repeated :meth:`place`
    calls only pay per-query cost: merge + compress the query into the
    reference, build that alignment's engine, evaluate every branch.

    ``warm()`` additionally builds a resident reference engine (through
    the ``max_resident`` memory-saving machinery when requested) for the
    reference log-likelihood the placement server reports per tenant.
    Placement does not read it: every query builds its own engine (the
    O(edges) rewrite, ROADMAP, is what will place on this one).
    Sessions holding a warm engine should be ``close()``d (or used as
    context managers).
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
        workers: int = 1,
        execution: str = "simulated",
        max_resident: int | None = None,
    ) -> None:
        if isinstance(reference_alignment, Alignment):
            reference_alignment = reference_alignment.compress()
        self.reference = reference_alignment
        self.model = model
        self.gamma = gamma
        self.newton_iterations = newton_iterations
        self.workers = workers
        self.execution = execution
        self.max_resident = max_resident
        # One shared instance feeds every serial per-query engine a single
        # profile; worker engines resolve (and check) the spec themselves.
        self._backend = get_backend(backend) if workers == 1 else backend
        self.tree = reference_tree.copy()  # pristine; never mutated
        # Decode reference rows once; _merge re-uses them per query.
        self._ref_seqs = {
            t: reference_alignment.states.decode(
                reference_alignment.data[reference_alignment.taxa.index(t)][
                    reference_alignment.site_to_pattern
                ]
            )
            for t in reference_alignment.taxa
        }
        self._width = len(next(iter(self._ref_seqs.values())))
        # Candidate branches as (endpoints, label, midpoint distal length,
        # clamped to the branch).  Endpoints, not edge ids: those churn on
        # attach / detach, node ids survive, and tree.copy() preserves
        # both.  Labels and distals depend only on the pristine topology.
        labels = _edge_labels(self.tree)
        self._candidates = [
            ((e.u, e.v), labels[e.id], min(0.5 * e.length, e.length))
            for e in self.tree.edges
        ]
        self._jplace_frame = (
            _annotated_newick(self.tree),
            {labels[e.id]: i for i, e in enumerate(self.tree.edges)},
        )
        self._ref_engine = None
        self.reference_lnl: float | None = None  # set by warm()
        self.queries_placed = 0

    # -- lifecycle -----------------------------------------------------
    def warm(self) -> float:
        """Build the resident reference engine and sweep it once.

        Returns the reference tree's log-likelihood.  Idempotent: the
        engine stays resident until :meth:`close`; :meth:`place` builds
        its own per-query engines and does not use it.
        """
        if self._ref_engine is None:
            self._ref_engine = make_engine(
                self.reference,
                self.tree,
                self.model,
                self.gamma,
                backend=self._backend,
                max_resident=self.max_resident,
            )
            root = self.tree.edges[0].id
            self.reference_lnl = float(self._ref_engine.log_likelihood(root))
        return self.reference_lnl

    def close(self) -> None:
        if self._ref_engine is not None:
            self._ref_engine.close()
            self._ref_engine = None

    def __enter__(self) -> "PlacementSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query preparation ---------------------------------------------
    def _merged_patterns(self, name: str, seq: str) -> PatternAlignment:
        """Reference + one query row, compressed."""
        if name in self._ref_seqs:
            raise ValueError(f"query {name!r} collides with a reference taxon")
        if len(seq) != self._width:
            raise ValueError(
                f"query {name!r} has {len(seq)} sites, reference has "
                f"{self._width} (queries must be aligned to the reference "
                "alignment)"
            )
        return Alignment.from_sequences(
            {**self._ref_seqs, name: seq}, self.reference.states
        ).compress()

    # -- placement -----------------------------------------------------
    def place(
        self,
        queries: dict[str, str],
        *,
        keep_best: int = 5,
        on_result=None,
    ) -> list[PlacementResult]:
        """Place every query; ranked, LWR-weighted results in query order.

        Queries are placed one at a time, one engine alive at a time.
        ``on_result`` is called with each :class:`PlacementResult` as it
        completes (progress reporting).
        """
        if not queries:
            raise ValueError("no query sequences given")
        results: list[PlacementResult] = []
        for name, seq in queries.items():
            result = self._place_one(name, seq, keep_best)
            results.append(result)
            if on_result is not None:
                on_result(result)
        self.queries_placed += len(results)
        return results

    def _place_one(self, name: str, seq: str, keep_best: int) -> PlacementResult:
        merged = self._merged_patterns(name, seq)
        tree = self.tree.copy()
        engine = make_engine(
            merged,
            tree,
            self.model,
            self.gamma,
            backend=self._backend,
            workers=self.workers,
            execution=self.execution,
        )
        try:
            placements = [
                self._evaluate_candidate(engine, tree, name, *candidate)
                for candidate in self._candidates
            ]
        finally:
            engine.close()
        return PlacementResult(
            query=name, placements=self._rank(placements, keep_best)
        )

    def _evaluate_candidate(
        self, engine, tree: Tree, name: str, ends, label, distal: float
    ) -> Placement:
        """Attach, Newton-optimise the pendant, score, detach."""
        eid = tree.find_edge(*ends)
        leaf, mid, pend = tree.attach_leaf(eid, name, pendant_length=0.1)
        sumbuf = engine.edge_sum_buffer(pend)
        t = polish_branch(engine, sumbuf, 0.1, self.newton_iterations)
        tree.edge(pend).length = t
        placement = Placement(
            edge_label=label,
            log_likelihood=engine.log_likelihood(pend),
            pendant_length=t,
            distal_length=distal,
        )
        # detach the query again
        tree.remove_edge(pend)
        tree.remove_node(leaf)
        tree.suppress_node(mid)
        return placement

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
    workers: int = 1,
    execution: str = "simulated",
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
        Kernel backend name or instance shared by every per-query engine
        (see :mod:`repro.core.backends`).
    workers / execution:
        ``workers > 1`` evaluates each per-query engine on a
        :class:`~repro.parallel.forkjoin.ForkJoinEngine` with that many
        site slices (``execution``: ``simulated``/``threads``/
        ``processes``); placements stay bit-identical to the serial
        run.  Engines are closed after each query, so no pool or
        shared-memory segment outlives the call.

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
        workers=workers,
        execution=execution,
    )
    if _obs_server.ENABLED:
        _obs_server.progress_begin(
            "place",
            total_steps=len(queries),
            queries=len(queries),
            reference_taxa=session.reference.n_taxa,
            workers=workers,
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
