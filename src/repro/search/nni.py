"""Nearest-neighbour-interchange (NNI) hill climbing.

The cheap alternative to SPR: each internal branch admits two
interchanges of the subtrees at its ends, giving ``2(n-3)`` neighbours
per topology instead of SPR's ``O(n * radius)``.  RAxML uses NNI-like
moves in its fast bootstrap mode; here NNI serves as (a) a lightweight
search option, and (b) the local-rearrangement polish after SPR rounds.

Same lazy scoring as the SPR module: apply the move, re-optimise only
the central branch with a couple of Newton steps, evaluate once, undo
unless improved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import LikelihoodEngine
from .branch_opt import optimize_all_branches, optimize_branch, polish_branch

__all__ = ["NniRoundStats", "nni_round", "nni_search"]


@dataclass
class NniRoundStats:
    """Accounting for one sweep over all internal branches."""

    moves_tried: int = 0
    moves_accepted: int = 0
    lnl_before: float = 0.0
    lnl_after: float = 0.0


def _internal_edge_pairs(tree) -> list[tuple[int, int]]:
    """Internal edges identified by their (stable) endpoint node ids."""
    return [
        (e.u, e.v)
        for e in tree.edges
        if not tree.is_leaf(e.u) and not tree.is_leaf(e.v)
    ]


def nni_round(
    engine: LikelihoodEngine, epsilon: float = 0.01, newton_iterations: int = 2
) -> NniRoundStats:
    """Try both NNI variants across every internal branch."""
    tree = engine.tree
    stats = NniRoundStats(lnl_before=engine.log_likelihood())
    current = stats.lnl_before
    for u, v in _internal_edge_pairs(tree):
        try:
            eid = tree.find_edge(u, v)
        except KeyError:  # consumed by an earlier accepted move
            continue
        if tree.is_leaf(u) or tree.is_leaf(v):
            continue
        for which in (0, 1):
            undo = tree.nni_swap(eid, which=which)
            stats.moves_tried += 1
            # quick central-branch polish, then score
            sumbuf = engine.edge_sum_buffer(eid)
            edge = tree.edge(eid)
            edge.length = polish_branch(
                engine, sumbuf, edge.length, newton_iterations
            )
            lnl = engine.log_likelihood(eid)
            if lnl > current + epsilon:
                current = lnl
                stats.moves_accepted += 1
                optimize_branch(engine, eid)
                current = engine.log_likelihood()
            else:
                undo()  # exact: also restores the central length
    stats.lnl_after = current
    return stats


def nni_search(
    engine: LikelihoodEngine,
    max_rounds: int = 10,
    epsilon: float = 0.01,
    smooth_passes: int = 1,
) -> list[NniRoundStats]:
    """Iterate NNI rounds to a local optimum."""
    history: list[NniRoundStats] = []
    for _ in range(max_rounds):
        stats = nni_round(engine, epsilon=epsilon)
        history.append(stats)
        if stats.moves_accepted == 0:
            break
        optimize_all_branches(engine, passes=smooth_passes)
    return history
