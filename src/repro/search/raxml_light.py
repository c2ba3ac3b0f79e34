"""RAxML-Light-style maximum-likelihood tree search driver.

The complete inference pipeline the paper benchmarks (Sec. VI measures
"a full ML tree search"):

1. randomized stepwise-addition parsimony starting tree,
2. initial branch-length smoothing,
3. model-parameter optimisation (Gamma alpha + GTR rates),
4. lazy SPR rounds with an escalating rearrangement radius,
5. final model + branch-length polish.

The returned :class:`SearchResult` carries the optimised tree, the
likelihood trajectory, and — crucially for the reproduction — the
engine's :class:`~repro.core.traversal.KernelCounters`, i.e. the
kernel-invocation trace that the performance harness scales to the
paper's dataset sizes (Table III's workload is exactly "one full tree
search").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.backends import KernelBackend, make_engine
from ..core.engine import LikelihoodEngine
from ..faults.plan import FaultPlan, InjectedCrash
from ..obs import metrics as _obs_metrics
from ..obs import server as _obs_server
from ..obs import spans as _obs
from ..core.traversal import KernelCounters
from ..phylo.alignment import Alignment, PatternAlignment
from ..phylo.models import SubstitutionModel, gtr
from ..phylo.parsimony import stepwise_addition_tree
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from .branch_opt import BRANCH_OPT_METHODS, optimize_all_branches
from .checkpoint import Checkpoint, CheckpointWriter, resume_engine
from .model_opt import optimize_model
from .spr import SprRoundStats, spr_search

__all__ = ["SearchConfig", "SearchResult", "ml_search", "STAGE_ORDER"]

#: Completion order of the driver's checkpointable stages.  A resumed
#: search skips every stage whose rank is <= the checkpoint's.
STAGE_ORDER = {
    "start": 0,
    "initial_branch_opt": 1,
    "model_opt": 2,
    "spr": 3,
    "final": 4,
}


@dataclass
class SearchConfig:
    """Tuning knobs of the ML search (defaults mirror small RAxML runs).

    ``checkpoint_path`` enables periodic crash-safe snapshots (atomic
    write + last-``checkpoint_keep`` rotation) every
    ``checkpoint_every`` driver steps — a *step* is one completed
    checkpointable unit: the initial evaluation, the initial branch
    smoothing, model optimisation, each SPR round, and the final
    polish.
    """

    radii: tuple[int, ...] = (5, 10)
    max_spr_rounds: int = 10
    spr_epsilon: float = 0.01
    model_rounds: int = 2
    optimize_exchangeabilities: bool = True
    final_branch_passes: int = 4
    #: Full-tree smoothing method ("newton", "gradient" or "prox"); a
    #: resumed run keeps the checkpoint's method over this setting.
    branch_opt_method: str = "newton"
    seed: int = 0
    checkpoint_path: str | Path | None = None
    checkpoint_every: int = 1
    checkpoint_keep: int = 3


@dataclass
class SearchResult:
    """Outcome of a full ML tree search."""

    tree: Tree
    lnl: float
    model: SubstitutionModel
    alpha: float
    engine: LikelihoodEngine
    counters: KernelCounters
    spr_history: list[SprRoundStats] = field(default_factory=list)
    lnl_trajectory: list[tuple[str, float]] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def newick(self) -> str:
        return self.tree.to_newick()


class _Progress:
    """The driver's step clock: crash injection + periodic snapshots.

    One ``tick`` per completed checkpointable unit.  Order matters: the
    crash check precedes the write, so a step that "kills the process"
    is *not* persisted — exactly what a real mid-run kill leaves behind
    (the rotation holds the previous step's snapshot).
    """

    def __init__(
        self,
        engine,
        writer: CheckpointWriter | None,
        fault_plan: FaultPlan | None,
        first_step: int = 0,
    ) -> None:
        self.engine = engine
        self.writer = writer
        self.fault_plan = fault_plan
        self.step = first_step

    def tick(
        self, stage: str, lnl: float, spr_round: int = 0, spr_radius_idx: int = 0
    ) -> None:
        step = self.step
        self.step += 1
        if _obs_server.ENABLED:
            _obs_server.progress_update(
                stage, lnl=lnl,
                spr_round=spr_round, spr_radius_idx=spr_radius_idx,
            )
        if self.fault_plan is not None and self.fault_plan.crash_at_step(step):
            raise InjectedCrash(step)
        if self.writer is not None:
            self.writer.maybe_write(
                self.engine, lnl, stage, step, spr_round, spr_radius_idx
            )


def ml_search(
    alignment: Alignment | PatternAlignment,
    model: SubstitutionModel | None = None,
    gamma: GammaRates | None = None,
    config: SearchConfig | None = None,
    starting_tree: Tree | None = None,
    backend: str | KernelBackend | None = None,
    resume_from: Checkpoint | None = None,
    fault_plan: FaultPlan | None = None,
    workers: int = 1,
    execution: str = "simulated",
) -> SearchResult:
    """Run a complete maximum-likelihood tree search.

    Parameters
    ----------
    alignment:
        Raw or pattern-compressed alignment.
    model:
        Starting substitution model; defaults to GTR with empirical base
        frequencies (RAxML's default for DNA).
    gamma:
        Rate heterogeneity; defaults to Gamma4 with ``alpha=1`` — the
        paper's "Γ model with four discrete rates".
    starting_tree:
        Optional user tree; otherwise a randomized stepwise-addition
        parsimony tree is built (RAxML-Light's default).
    backend:
        Kernel backend name or instance driving the whole search (see
        :mod:`repro.core.backends`); ``None`` uses the process default.
    resume_from:
        A loaded :class:`Checkpoint` — the engine is rebuilt from it,
        the restored ``lnl`` seeds the likelihood trajectory, completed
        stages are *skipped* (per the checkpoint's ``stage``), and the
        SPR schedule continues from the recorded round/radius position,
        so resumption continues the run instead of repeating it.
    fault_plan:
        Active :class:`~repro.faults.FaultPlan`; the driver consults it
        once per completed step (``crash-at-step``) and hands it to the
        checkpoint writer (``crash-in-write``).
    workers / execution:
        ``workers > 1`` runs every likelihood evaluation of the search
        on a :class:`~repro.parallel.forkjoin.ForkJoinEngine` with that
        many site slices on the chosen substrate (``simulated``,
        ``threads``, ``processes``).  The search trajectory is
        bit-identical to the serial run for every worker count.  The
        returned ``SearchResult.engine`` owns the pool — call its
        ``close()`` when finished (the CLI does this automatically).

    Crash safety: with ``config.checkpoint_path`` set, a rotated atomic
    snapshot is written every ``checkpoint_every`` steps (step 0
    included), so a crash costs only the steps since the last snapshot.
    """
    t_start = time.perf_counter()
    config = config or SearchConfig()
    patterns = (
        alignment if isinstance(alignment, PatternAlignment) else alignment.compress()
    )
    rng = np.random.default_rng(config.seed)
    if model is None and resume_from is None:
        model = gtr(frequencies=empirical_frequencies(patterns))
    if gamma is None:
        gamma = GammaRates(alpha=1.0, n_categories=4)

    branch_method = config.branch_opt_method
    if resume_from is not None and resume_from.branch_opt_method:
        # The checkpoint's method wins: the resumed trajectory must keep
        # smoothing with the optimiser that produced it.
        branch_method = resume_from.branch_opt_method
    if branch_method not in BRANCH_OPT_METHODS:
        raise ValueError(
            f"branch_opt_method must be one of {BRANCH_OPT_METHODS}, "
            f"got {branch_method!r}"
        )

    writer = None
    if config.checkpoint_path is not None:
        writer = CheckpointWriter(
            config.checkpoint_path,
            every=config.checkpoint_every,
            keep=config.checkpoint_keep,
            fault_plan=fault_plan,
            branch_opt_method=branch_method,
        )

    resume_rank = -1
    spr_start_round = 0
    spr_start_radius_idx = 0
    if resume_from is not None:
        engine = resume_engine(
            patterns,
            resume_from,
            backend=backend,
            workers=workers,
            execution=execution,
        )
        tree = engine.tree
        stage = resume_from.stage or "start"
        resume_rank = STAGE_ORDER.get(stage, 0)
        if stage == "spr":
            spr_start_round = resume_from.spr_round + 1
            spr_start_radius_idx = resume_from.spr_radius_idx
        elif resume_rank > STAGE_ORDER["spr"]:
            spr_start_round = config.max_spr_rounds  # SPR already done
        first_step = resume_from.step + 1
    else:
        tree = (
            starting_tree.copy()
            if starting_tree is not None
            else stepwise_addition_tree(patterns, rng)
        )
        for edge in tree.edges:
            edge.length = max(edge.length, 0.05)
        engine = make_engine(
            patterns,
            tree,
            model,
            gamma,
            backend=backend,
            workers=workers,
            execution=execution,
        )
        first_step = 0

    progress = _Progress(engine, writer, fault_plan, first_step=first_step)
    if _obs_server.ENABLED:
        # The step clock: 4 stage ticks (start, initial branch opt,
        # model opt, final) plus one per SPR round, minus whatever a
        # resumed checkpoint already completed.
        planned = 4 + config.max_spr_rounds
        _obs_server.progress_begin(
            "ml_search",
            total_steps=max(planned - first_step, 1),
            taxa=patterns.n_taxa,
            patterns=patterns.n_patterns,
            resumed=resume_from is not None,
            workers=workers,
        )
    trajectory: list[tuple[str, float]] = []
    history: list[SprRoundStats] = []
    with _obs.span(
        "search.ml_search",
        taxa=patterns.n_taxa,
        patterns=patterns.n_patterns,
        resumed=resume_from is not None,
    ):
        try:
            if resume_from is not None:
                lnl = (
                    resume_from.lnl
                    if resume_from.lnl is not None
                    else engine.log_likelihood()
                )
                trajectory.append((f"resume:{resume_from.stage}", lnl))
                _obs.instant(
                    "search.resume",
                    stage=resume_from.stage,
                    step=resume_from.step,
                    lnl=lnl,
                )
                if _obs.ENABLED:
                    _obs_metrics.get_registry().counter(
                        "repro_search_resumes_total",
                        "searches resumed from a checkpoint",
                    ).inc()
            else:
                lnl = engine.log_likelihood()
                trajectory.append(("start", lnl))
                _obs.instant("search.progress", phase="start", lnl=lnl)
                progress.tick("start", lnl)

            if resume_rank < STAGE_ORDER["initial_branch_opt"]:
                with _obs.span("search.initial_branch_opt"):
                    lnl = optimize_all_branches(
                        engine, passes=2, method=branch_method
                    )
                trajectory.append(("initial_branch_opt", lnl))
                _obs.instant(
                    "search.progress", phase="initial_branch_opt", lnl=lnl
                )
                progress.tick("initial_branch_opt", lnl)

            if resume_rank < STAGE_ORDER["model_opt"]:
                with _obs.span("search.model_opt"):
                    mres = optimize_model(
                        engine,
                        max_rounds=config.model_rounds,
                        optimize_exchangeabilities=config.optimize_exchangeabilities,
                    )
                trajectory.append(("model_opt", mres.lnl))
                _obs.instant("search.progress", phase="model_opt", lnl=mres.lnl)
                progress.tick("model_opt", mres.lnl)

            if spr_start_round < config.max_spr_rounds:
                def on_round(round_index, next_radius_idx, stats):
                    progress.tick(
                        "spr",
                        stats.lnl_after,
                        spr_round=round_index,
                        spr_radius_idx=next_radius_idx,
                    )

                with _obs.span("search.spr", radii=list(config.radii)):
                    history = spr_search(
                        engine,
                        radii=config.radii,
                        max_rounds=config.max_spr_rounds,
                        epsilon=config.spr_epsilon,
                        start_round=spr_start_round,
                        start_radius_idx=spr_start_radius_idx,
                        on_round=on_round,
                    )
                    trajectory.append(("spr", engine.log_likelihood()))
                _obs.instant("search.progress", phase="spr", lnl=trajectory[-1][1])

            if resume_rank < STAGE_ORDER["final"]:
                with _obs.span("search.final_polish"):
                    mres = optimize_model(
                        engine,
                        max_rounds=1,
                        optimize_exchangeabilities=config.optimize_exchangeabilities,
                    )
                    lnl = optimize_all_branches(
                        engine,
                        passes=config.final_branch_passes,
                        method=branch_method,
                    )
                trajectory.append(("final", lnl))
                _obs.instant("search.progress", phase="final", lnl=lnl)
                progress.tick("final", lnl)
            else:
                lnl = engine.log_likelihood()
        except BaseException:
            # An injected crash means the simulated process is dead: no
            # write (the rotation already holds the last periodic
            # snapshot), just propagate.  Real worker pools are shut
            # down — a *simulated* crash must not leak actual
            # shared-memory segments.
            engine.close()
            raise

    if _obs_server.ENABLED:
        _obs_server.progress_finish(lnl)
    return SearchResult(
        tree=engine.tree,
        lnl=lnl,
        model=engine.model,
        alpha=engine.rates_model.alpha,
        engine=engine,
        counters=engine.counters,
        spr_history=history,
        lnl_trajectory=trajectory,
        wall_time=time.perf_counter() - t_start,
    )


def empirical_frequencies(patterns: PatternAlignment) -> np.ndarray:
    """Weighted empirical state frequencies (ambiguities split evenly).

    RAxML's default base-frequency estimator: each character contributes
    its indicator mass divided by its ambiguity degree, weighted by the
    pattern multiplicity; a small pseudocount keeps degenerate alignments
    (e.g. a state never observed) strictly positive.
    """
    rows = patterns.states.tip_rows(patterns.data.reshape(-1))
    rows = rows / rows.sum(axis=1, keepdims=True)
    w = np.tile(patterns.weights, patterns.n_taxa)
    freqs = (rows * w[:, None]).sum(axis=0)
    freqs = freqs + 1e-6
    return freqs / freqs.sum()
