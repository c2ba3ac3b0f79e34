"""Lazy SPR tree search (RAxML's rearrangement strategy).

One SPR *round* visits every prunable subtree, regrafts it onto every
branch within the rearrangement ``radius``, scores the insertion
*lazily* — only the new pendant branch is re-optimised (a handful of
Newton iterations) before a single ``evaluate`` — and keeps the best
insertion if it improves the likelihood.  Accepted moves get a local
branch-length polish; rounds repeat until no move improves the tree.

This is the loop that generates the kernel-invocation mix the paper
measures: thousands of small ``newview``/``evaluate`` calls per second
interleaved with branch-optimisation kernels, which is precisely why
offload-mode invocation latency kills MIC performance (Sec. V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.engine import LikelihoodEngine
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from .branch_opt import optimize_all_branches, optimize_branch, polish_branch

__all__ = ["SprRoundStats", "spr_round", "spr_search"]


@dataclass
class SprRoundStats:
    """Accounting for one SPR round."""

    moves_tried: int = 0
    moves_accepted: int = 0
    lnl_before: float = 0.0
    lnl_after: float = 0.0
    accepted: list[tuple[int, int]] = field(default_factory=list)


def _lazy_insertion_score(
    engine: LikelihoodEngine, pendant_edge: int, newton_iterations: int
) -> float:
    """Score a trial insertion: quick pendant-branch polish + evaluate."""
    edge = engine.tree.edge(pendant_edge)
    sumbuf = engine.edge_sum_buffer(pendant_edge)
    edge.length = polish_branch(engine, sumbuf, edge.length, newton_iterations)
    return engine.log_likelihood(pendant_edge)


def spr_round(
    engine: LikelihoodEngine,
    radius: int,
    epsilon: float = 0.01,
    newton_iterations: int = 2,
) -> SprRoundStats:
    """One full round of lazy SPR over all prunable subtrees.

    A move is accepted immediately when its (lazily scored) likelihood
    beats the current best by ``epsilon``; after acceptance the three
    branches created by the regraft are optimised properly.  When
    tracing is enabled the round is recorded as one
    ``search.spr_round`` span with per-acceptance instants.
    """
    with _obs.span("search.spr_round", radius=radius):
        return _spr_round_impl(engine, radius, epsilon, newton_iterations)


def _spr_round_impl(
    engine: LikelihoodEngine,
    radius: int,
    epsilon: float,
    newton_iterations: int,
) -> SprRoundStats:
    tree = engine.tree
    stats = SprRoundStats(lnl_before=engine.log_likelihood())
    current = stats.lnl_before

    # Trial moves delete and recreate nodes and edges (both ids churn), so
    # a candidate pruning is identified purely semantically: by the
    # leaf-name set of the pruned subtree.  The live pendant edge and
    # subtree-root node are re-located from the leaf set before every
    # trial.  Candidates are re-enumerated from the live tree after each
    # processed subtree, since accepted moves create new prunable
    # subtrees.
    def enumerate_candidates() -> list[frozenset[str]]:
        out = []
        for e in tree.edges:
            for attach, sub in ((e.u, e.v), (e.v, e.u)):
                if not tree.is_leaf(attach) and tree.degree(attach) == 3:
                    out.append(
                        frozenset(
                            tree.name(n) for n in tree.subtree_leaves(sub, e.id)
                        )
                    )
        return out

    def locate(leafset: frozenset[str]) -> tuple[int, int] | None:
        """Current ``(pendant_edge, subtree_root)`` of a leaf set, if any."""
        for e in tree.edges:
            for attach, sub in ((e.u, e.v), (e.v, e.u)):
                if tree.is_leaf(attach) or tree.degree(attach) != 3:
                    continue
                side = frozenset(
                    tree.name(n) for n in tree.subtree_leaves(sub, e.id)
                )
                if side == leafset:
                    return e.id, sub
        return None

    processed: set[frozenset[str]] = set()
    while True:
        leafset = next(
            (c for c in enumerate_candidates() if c not in processed), None
        )
        if leafset is None:
            break
        processed.add(leafset)
        located = locate(leafset)
        if located is None:
            continue
        pendant, sub = located
        target_pairs = [
            (tree.edge(t).u, tree.edge(t).v)
            for t in tree.spr_candidates(pendant, radius, subtree_root=sub)
        ]
        best_pair = None
        best_lnl = current + epsilon
        for u, v in target_pairs:
            located = locate(leafset)
            if located is None:  # pragma: no cover - defensive
                break
            pendant, sub = located
            try:
                target = tree.find_edge(u, v)
            except KeyError:  # pragma: no cover - defensive
                continue
            new_pendant, undo = tree.spr(pendant, target, subtree_root=sub)
            stats.moves_tried += 1
            lnl = _lazy_insertion_score(engine, new_pendant, newton_iterations)
            undo()
            if lnl > best_lnl:
                best_lnl = lnl
                best_pair = (u, v)
        if best_pair is not None:
            pendant, sub = locate(leafset)
            best_target = tree.find_edge(*best_pair)
            new_pendant, _ = tree.spr(pendant, best_target, subtree_root=sub)
            # Polish the branches around the new junction.
            junction = tree.edge(new_pendant).other(sub)
            for _, eid in tree.neighbors(junction):
                optimize_branch(engine, eid)
            current = engine.log_likelihood()
            stats.moves_accepted += 1
            stats.accepted.append((sub, best_target))
            if _obs.ENABLED:
                _obs.instant(
                    "search.spr_accept", radius=radius, lnl=current
                )
                _obs_metrics.get_registry().counter(
                    "repro_spr_moves_accepted_total", "accepted SPR moves"
                ).inc()

    stats.lnl_after = current
    if _obs.ENABLED:
        _obs_metrics.get_registry().counter(
            "repro_spr_moves_tried_total", "trial SPR regrafts scored"
        ).inc(stats.moves_tried)
    return stats


def spr_search(
    engine: LikelihoodEngine,
    radii: tuple[int, ...] = (5, 10),
    max_rounds: int = 10,
    epsilon: float = 0.01,
    smooth_passes: int = 2,
    start_round: int = 0,
    start_radius_idx: int = 0,
    on_round=None,
) -> list[SprRoundStats]:
    """Iterated SPR rounds with an escalating radius schedule.

    Starts with the smallest radius; when a round yields no accepted
    moves the next radius is tried, and the search stops once the
    largest radius also yields none — RAxML-Light's hill-climbing
    schedule in miniature.  Each productive round is followed by
    branch-length smoothing.

    Restartability: ``start_round``/``start_radius_idx`` continue the
    schedule from a checkpointed position (a resumed search must not
    re-descend the radius ladder), and ``on_round(round_index,
    next_radius_idx, stats)`` — called after each round's smoothing,
    with the radius index the *next* round will use — is the seam the
    checkpointing driver snapshots through (it may raise
    :class:`~repro.faults.InjectedCrash` to simulate a mid-search kill).
    """
    history: list[SprRoundStats] = []
    radius_idx = start_radius_idx
    for round_index in range(start_round, max_rounds):
        if radius_idx >= len(radii):
            break
        stats = spr_round(engine, radii[radius_idx], epsilon=epsilon)
        history.append(stats)
        done = False
        if stats.moves_accepted == 0:
            radius_idx += 1
            done = radius_idx >= len(radii)
        else:
            optimize_all_branches(engine, passes=smooth_passes)
        if on_round is not None:
            on_round(round_index, radius_idx, stats)
        if done:
            break
    return history
