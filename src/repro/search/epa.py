"""Evolutionary Placement Algorithm (EPA) — the paper's Sec. VII outlook.

The paper closes by suggesting the MIC kernels be applied to the EPA
(Berger et al. 2011): placing *query* sequences (e.g. short
environmental reads) onto a fixed *reference* tree, evaluating every
(branch, query) pair independently — "allowing for efficient
parallelization with less communication overhead" than tree search.

This module implements the algorithm on the reproduction's engine:

1. the reference tree's CLAs are computed once,
2. for each query and each reference branch, the query is attached at
   the branch midpoint, the pendant branch length gets a few Newton
   iterations, and the insertion is scored with one ``evaluate``,
3. placements are reported ranked by log-likelihood with likelihood
   weight ratios over the **full** candidate set, then truncated to
   ``keep_best`` (the standard EPA output).

The (branch x query) loop is embarrassingly parallel; the kernel trace
it generates contains *zero* required reductions per placement, which is
exactly the communication profile the paper expects to suit the MIC.

:class:`PlacementSession` is the warm-state form of the algorithm: it
compresses the reference once, caches the decoded reference rows and
per-branch labels/distal lengths, and places any number of query sets
against them.  The long-running placement server (:mod:`repro.serve`)
keeps one session resident per reference tree; the offline
:func:`place_queries` entry point is a thin wrapper that builds a
session, places, and tears it down.  Queries are placed one at a time,
in the order given: each gets its own engine over its merged alignment,
which is closed before the next query's is built.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.backends import (
    KernelBackend,
    get_backend,
    make_engine,
    resolve_backend_name,
)
from ..obs import server as _obs_server
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from .branch_opt import newton_converged

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


def _edge_label(tree: Tree, edge_id: int) -> tuple[str, ...]:
    """Stable branch identifier: the sorted smaller leaf-name side."""
    edge = tree.edge(edge_id)
    side = sorted(
        tree.name(n) for n in tree.subtree_leaves(edge.u, edge_id)
    )
    other = sorted(
        tree.name(n) for n in tree.subtree_leaves(edge.v, edge_id)
    )
    return tuple(min(side, other, key=lambda s: (len(s), s)))


def _resolve_session_backend(
    backend: "str | KernelBackend | None", workers: int, execution: str
):
    """Boundary validation for the backend spec (see ISSUE 9 satellite).

    Thread/process substrates ship backend *names* to workers; a raw
    instance would otherwise die deep inside :class:`WorkerPool`.
    Registered instances are translated back to their name here; ad-hoc
    instances get a clear error at the call boundary.  The serial path
    resolves to one shared instance so every per-query engine feeds a
    single profile.
    """
    if workers > 1:
        if (
            backend is not None
            and not isinstance(backend, str)
            and execution != "simulated"
        ):
            name = resolve_backend_name(backend)
            if name is None:
                raise ValueError(
                    f"execution={execution!r} with workers={workers} "
                    "requires a backend *name* (each worker builds its own "
                    "instance); got an unregistered "
                    f"{type(backend).__name__} instance"
                )
            return name
        return backend
    return get_backend(backend)


class PlacementSession:
    """Warm, reusable placement state for one reference tree.

    Construction does the per-reference work once — compress the
    alignment, decode the reference rows for fast query merging, copy
    the tree, precompute every candidate branch's stable label and
    midpoint distal length — so repeated :meth:`place` calls only pay
    per-query cost.  A bounded LRU keeps recently merged+compressed
    query pattern alignments (the dominant non-kernel cost) so repeated
    or retried queries are free.

    ``warm()`` additionally builds a resident reference engine (through
    the ``max_resident`` memory-saving machinery when requested) and
    computes the reference CLAs/log-likelihood once — the placement
    server calls it at tenant registration so first-query latency does
    not include the cold sweep.  Sessions holding a warm engine should
    be ``close()``d (or used as context managers).
    """

    #: Merged-pattern LRU capacity (per-query compressed alignments).
    MERGE_CACHE_MAX = 64

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
        self._backend = _resolve_session_backend(backend, workers, execution)
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
        # Candidate branches by endpoints (edge ids churn on attach /
        # detach; node ids survive, and tree.copy() preserves both).
        # Labels and midpoint distal lengths depend only on the pristine
        # topology, so precompute them per candidate.
        self._candidates: list[tuple[int, int]] = []
        self._labels: dict[tuple[int, int], tuple[str, ...]] = {}
        self._distals: dict[tuple[int, int], float] = {}
        for e in self.tree.edges:
            key = (e.u, e.v)
            self._candidates.append(key)
            self._labels[key] = _edge_label(self.tree, e.id)
            # midpoint attachment: distal = L/2, clamped to the branch
            self._distals[key] = min(0.5 * e.length, e.length)
        self._merge_cache: OrderedDict[tuple[str, str], PatternAlignment] = (
            OrderedDict()
        )
        self._ref_engine = None
        self._reference_lnl: float | None = None
        self.queries_placed = 0

    # -- lifecycle -----------------------------------------------------
    def warm(self) -> float:
        """Build the resident reference engine and sweep its CLAs once.

        Returns the reference tree's log-likelihood.  Idempotent: the
        engine stays resident until :meth:`close`.
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
            self._reference_lnl = float(self._ref_engine.log_likelihood(root))
        return self._reference_lnl

    @property
    def reference_lnl(self) -> float | None:
        """Reference-tree log-likelihood (``None`` before :meth:`warm`)."""
        return self._reference_lnl

    def close(self) -> None:
        if self._ref_engine is not None:
            closer = getattr(self._ref_engine, "close", None)
            if callable(closer):
                closer()
            self._ref_engine = None

    def __enter__(self) -> "PlacementSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query preparation ---------------------------------------------
    def _merged_patterns(self, name: str, seq: str) -> PatternAlignment:
        """Reference + one query row, compressed (LRU-cached)."""
        if name in self._ref_seqs:
            raise ValueError(f"query {name!r} collides with a reference taxon")
        if len(seq) != self._width:
            raise ValueError(
                f"query {name!r} has {len(seq)} sites, reference has "
                f"{self._width} (queries must be aligned to the reference "
                "alignment)"
            )
        key = (name, seq)
        cached = self._merge_cache.get(key)
        if cached is not None:
            self._merge_cache.move_to_end(key)
            return cached
        merged = Alignment.from_sequences(
            {**self._ref_seqs, name: seq}, self.reference.states
        ).compress()
        self._merge_cache[key] = merged
        while len(self._merge_cache) > self.MERGE_CACHE_MAX:
            self._merge_cache.popitem(last=False)
        return merged

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
        state = _QueryState(
            name=name, tree=tree, engine=self._make_query_engine(merged, tree)
        )
        try:
            for key in self._candidates:
                self._evaluate_candidate(state, key)
        finally:
            state.close()
        return PlacementResult(
            query=name, placements=self._rank(state.placements, keep_best)
        )

    def _make_query_engine(self, merged: PatternAlignment, tree: Tree):
        return make_engine(
            merged,
            tree,
            self.model,
            self.gamma,
            backend=self._backend,
            workers=self.workers,
            execution=self.execution,
        )

    def _evaluate_candidate(
        self, state: "_QueryState", key: tuple[int, int]
    ) -> None:
        """Attach, Newton-optimise the pendant, score, detach, record."""
        engine, tree = state.engine, state.tree
        eid = tree.find_edge(*key)
        leaf, mid, pend = tree.attach_leaf(eid, state.name, pendant_length=0.1)
        sumbuf = engine.edge_sum_buffer(pend)
        t = 0.1
        for _ in range(self.newton_iterations):
            lnl, d1, d2 = engine.branch_derivatives(sumbuf, t)
            if d2 >= 0 or newton_converged(lnl, d1, d2, t):
                break
            t = float(np.clip(t - d1 / d2, 1e-8, 50.0))
        tree.edge(pend).length = t
        lnl = engine.log_likelihood(pend)
        state.placements.append(
            Placement(
                edge_label=self._labels[key],
                log_likelihood=lnl,
                pendant_length=t,
                distal_length=self._distals[key],
            )
        )
        # detach the query again
        tree.remove_edge(pend)
        tree.remove_node(leaf)
        tree.suppress_node(mid)

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



@dataclass
class _QueryState:
    """Per-query working set during one :meth:`PlacementSession.place`."""

    name: str
    tree: Tree
    engine: object
    placements: list[Placement] = field(default_factory=list)

    def close(self) -> None:
        closer = getattr(self.engine, "close", None)
        if callable(closer):
            closer()


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


def to_jplace(
    results: list[PlacementResult], reference_tree: Tree
) -> dict:
    """Serialise placements in the ``jplace`` interchange format.

    Emits the standard structure consumed by placement viewers
    (gappa/iTOL): a reference-tree Newick string with ``{edge_number}``
    annotations and per-query placement rows
    ``[edge_num, likelihood, like_weight_ratio, distal_length,
    pendant_length]``.  Edge numbers follow the branch labels used by
    :func:`place_queries`, re-derived from the live tree.

    Returns the jplace dictionary (pass to ``json.dump`` to write).
    """
    label_to_num: dict[tuple[str, ...], int] = {}
    edge_num: dict[int, int] = {}
    for i, e in enumerate(reference_tree.edges):
        label_to_num[_edge_label(reference_tree, e.id)] = i
        edge_num[e.id] = i

    # Newick with {N} edge annotations: rebuild via the tree's writer,
    # then annotate by walking the structure in the same traversal order.
    internals = reference_tree.internal_nodes()
    root_node = internals[0] if internals else reference_tree.leaves()[0]

    def build(node: int, up_edge: int | None) -> str:
        if reference_tree.is_leaf(node):
            body = reference_tree.name(node)
        else:
            parts = [
                build(reference_tree.edge(eid).other(node), eid)
                for eid in reference_tree.incident_edges(node)
                if eid != up_edge
            ]
            body = "(" + ",".join(parts) + ")"
        if up_edge is None:
            return body
        e = reference_tree.edge(up_edge)
        return f"{body}:{e.length:.6f}{{{edge_num[up_edge]}}}"

    tree_string = build(root_node, None) + ";"

    placements = []
    for result in results:
        rows = []
        for p in result.placements:
            num = label_to_num.get(p.edge_label)
            if num is None:  # pragma: no cover - defensive
                continue
            rows.append(
                [
                    num,
                    p.log_likelihood,
                    p.weight_ratio,
                    p.distal_length,
                    p.pendant_length,
                ]
            )
        placements.append({"p": rows, "n": [result.query]})
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
