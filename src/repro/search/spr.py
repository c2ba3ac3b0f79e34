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

from dataclasses import dataclass

from ..core.engine import LikelihoodEngine
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from .branch_opt import optimize_all_branches, optimize_branch, polish_branch

__all__ = ["SprRoundStats", "spr_round", "spr_search"]


@dataclass
class SprRoundStats:
    """Accounting for one SPR round."""

    radius: int = 0
    moves_tried: int = 0
    moves_accepted: int = 0
    lnl_before: float = 0.0
    lnl_after: float = 0.0


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
    scored_radius: int | None = None,
) -> SprRoundStats:
    """One full round of lazy SPR over all prunable subtrees.

    A move is accepted immediately when its (lazily scored) likelihood
    beats the current best by ``epsilon``; after acceptance the three
    branches created by the regraft are optimised properly.  When
    tracing is enabled the round is recorded as one
    ``search.spr_round`` span with per-acceptance instants.

    ``scored_radius``: a round at that radius has just scored this very
    tree and accepted nothing, so only the targets beyond it are scored
    until a move is accepted; as trial undo is exact, that equals a full
    round bit for bit.
    """
    with _obs.span("search.spr_round", radius=radius):
        return _spr_round_impl(
            engine, radius, epsilon, newton_iterations, scored_radius
        )


def _prunings(tree) -> list[tuple[int, int, int]]:
    """Every ``(pruned leaf mask, pendant edge, subtree root)`` SPR can
    prune (masks as in :meth:`~repro.phylo.tree.Tree.split_masks`)."""
    masks = tree.split_masks()
    full = (1 << tree.n_leaves) - 1
    out = []
    for e in tree.edges:
        node, mask = masks[e.id]
        for attach, sub in ((e.u, e.v), (e.v, e.u)):
            if not tree.is_leaf(attach) and tree.degree(attach) == 3:
                out.append((mask if sub == node else full ^ mask, e.id, sub))
    return out


def _spr_round_impl(
    engine: LikelihoodEngine,
    radius: int,
    epsilon: float,
    newton_iterations: int,
    scored_radius: int | None,
) -> SprRoundStats:
    tree = engine.tree
    stats = SprRoundStats(radius=radius, lnl_before=engine.log_likelihood())
    current = stats.lnl_before

    # A trial regraft and its undo leave the tree exactly as it was, ids
    # included, so the prunings enumerated for a tree state stay valid
    # until a move is accepted.  An accepted move creates new prunable
    # subtrees and re-labels edges: the prunings are then re-enumerated,
    # and the leaf mask of the pruned subtree is what tells a processed
    # pruning from a new one.
    processed: set[int] = set()
    pending = _prunings(tree)
    while pending:
        leafset, pendant, sub = pending.pop(0)
        if leafset in processed:
            continue
        processed.add(leafset)
        targets = tree.spr_candidates(pendant, radius, subtree_root=sub)
        if scored_radius is not None:
            scored = set(
                tree.spr_candidates(pendant, scored_radius, subtree_root=sub)
            )
            targets = [t for t in targets if t not in scored]
        best_target = None
        best_lnl = current + epsilon
        for target in targets:
            new_pendant, undo = tree.spr(pendant, target, subtree_root=sub)
            stats.moves_tried += 1
            lnl = _lazy_insertion_score(engine, new_pendant, newton_iterations)
            undo()
            if lnl > best_lnl:
                best_lnl = lnl
                best_target = target
        if best_target is None:
            continue
        new_pendant, _ = tree.spr(pendant, best_target, subtree_root=sub)
        # Polish the branches around the new junction.
        junction = tree.edge(new_pendant).other(sub)
        for _, eid in tree.neighbors(junction):
            optimize_branch(engine, eid)
        current = engine.log_likelihood()
        stats.moves_accepted += 1
        scored_radius = None
        pending = _prunings(tree)
        if _obs.ENABLED:
            _obs.instant("search.spr_accept", radius=radius, lnl=current)
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
    branch-length smoothing.  A round right after one that accepted
    nothing scores only the new ring of targets (``scored_radius``); the
    first round of a resumed search scores in full.

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
    scored_radius = None
    for round_index in range(start_round, max_rounds):
        if radius_idx >= len(radii):
            break
        stats = spr_round(
            engine, radii[radius_idx], epsilon=epsilon,
            scored_radius=scored_radius,
        )
        history.append(stats)
        done = False
        if stats.moves_accepted == 0:
            scored_radius = radii[radius_idx]
            radius_idx += 1
            done = radius_idx >= len(radii)
        else:
            scored_radius = None
            optimize_all_branches(engine, passes=smooth_passes)
        if on_round is not None:
            on_round(round_index, radius_idx, stats)
        if done:
            break
    return history
