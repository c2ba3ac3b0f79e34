"""Survival harness: run a search under a fault plan, restarting on crash.

This is the "operator" side of the fault story.  The search driver
simulates a *process*: an :class:`~repro.faults.InjectedCrash` means
that process is dead and nothing in-run can help it.  The runner plays
the role of the job scheduler that notices the death, starts a fresh
process, and points it at the last complete checkpoint — exactly the
ExaML production loop on a machine with a wall-clock queue limit.

One :class:`~repro.faults.FaultPlan` instance spans every restart (a
plan models a machine lifetime, not a process lifetime), so a
``crash-at-step`` spec with ``max_fires=1`` kills the first process and
then lets its successor run to completion instead of re-firing forever.

``verify=True`` additionally runs the identical search *without* the
fault plan and checks the survivor reached the same final likelihood
(to 1e-8) and the same unrooted topology — the acceptance criterion of
the crash-safety work.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from .plan import FaultPlan, InjectedCrash

__all__ = ["FaultRunReport", "run_search_with_faults"]

#: Final-likelihood agreement required for ``verify`` to pass.
VERIFY_LNL_TOL = 1e-8


@dataclass
class FaultRunReport:
    """What happened when a search ran under a fault plan."""

    survived: bool
    restarts: int = 0
    crashes: int = 0
    faults_fired: int = 0
    fault_summary: dict[str, int] = field(default_factory=dict)
    checkpoint_path: str = ""
    lnl: float | None = None
    result: object | None = None
    #: filled only with ``verify=True``
    baseline_lnl: float | None = None
    lnl_delta: float | None = None
    topology_match: bool | None = None

    @property
    def verified(self) -> bool | None:
        """Did the survivor match the uninterrupted baseline?"""
        if self.lnl_delta is None:
            return None
        return bool(
            self.lnl_delta <= VERIFY_LNL_TOL and self.topology_match
        )


def run_search_with_faults(
    alignment,
    plan: FaultPlan,
    config=None,
    *,
    model=None,
    gamma=None,
    backend=None,
    max_restarts: int = 5,
    verify: bool = False,
) -> FaultRunReport:
    """Run ``ml_search`` under ``plan``, resuming after every crash.

    ``config`` is a :class:`~repro.search.SearchConfig`; when its
    ``checkpoint_path`` is unset a temporary rotation is used (the
    harness needs *somewhere* to recover from).  A crash
    (:class:`InjectedCrash`) triggers a restart from the newest loadable
    snapshot, up to ``max_restarts`` fresh processes; beyond that the
    run is declared dead (``survived=False``).
    """
    # Imported here, not at module top: the search layer imports
    # ``repro.faults`` for the exception taxonomy, so the runner must
    # not be part of the ``repro.faults`` import cycle.
    from ..search.checkpoint import load_latest_checkpoint
    from ..search.raxml_light import SearchConfig, ml_search

    config = config or SearchConfig()
    if config.checkpoint_path is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-faults-")
        config = replace(config, checkpoint_path=str(Path(tmpdir) / "ck.json"))

    report = FaultRunReport(
        survived=False, checkpoint_path=str(config.checkpoint_path)
    )
    resume_from = None
    attempts = max_restarts + 1  # first process + restarts
    with _obs.span("faults.run", plan=plan.name or "custom"):
        for attempt in range(attempts):
            try:
                result = ml_search(
                    alignment,
                    model=model,
                    gamma=gamma,
                    config=config,
                    backend=backend,
                    resume_from=resume_from,
                    fault_plan=plan,
                )
            except InjectedCrash as crash:
                report.crashes += 1
                _obs.instant(
                    "faults.crash", step=crash.step, where=crash.where,
                    attempt=attempt,
                )
            else:
                report.survived = True
                report.result = result
                report.lnl = result.lnl
                break
            if attempt + 1 >= attempts:
                break  # out of restart budget
            report.restarts += 1
            try:
                resume_from, _slot = load_latest_checkpoint(
                    config.checkpoint_path, keep=config.checkpoint_keep
                )
            except ValueError:
                # Died before the first snapshot landed: start over.
                resume_from = None
            if _obs.ENABLED:
                _obs_metrics.get_registry().counter(
                    "repro_fault_runner_restarts_total",
                    "processes restarted by the survival runner",
                ).inc()

    report.faults_fired = plan.n_fired
    report.fault_summary = plan.summary()

    if verify and report.survived:
        baseline_cfg = replace(config, checkpoint_path=None)
        baseline = ml_search(
            alignment,
            model=model,
            gamma=gamma,
            config=baseline_cfg,
            backend=backend,
        )
        report.baseline_lnl = baseline.lnl
        report.lnl_delta = abs(baseline.lnl - report.result.lnl)
        report.topology_match = (
            baseline.tree.splits() == report.result.tree.splits()
        )
    return report
