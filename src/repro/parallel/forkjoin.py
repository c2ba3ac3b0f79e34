"""RAxML-Light-style PThreads fork-join synchronisation (Sec. V-C).

RAxML-Light distributes sites evenly among worker threads (here:
contiguous blocks, :func:`~repro.parallel.distribute.distribute_block`,
on every substrate); *every* kernel invocation becomes a parallel
region bracketed by two synchronisation points (job announcement +
completion barrier), and reductions happen at the master.  The paper
reuses this scheme unchanged for the native MIC port.

:class:`ForkJoinEngine` is the :class:`~repro.parallel.sliced.
SlicedEngine` under that policy (:class:`ForkJoinSync`).  ``execution``
picks the fidelity: ``"simulated"`` runs slices sequentially and charges
each region the *modelled* cost of a :class:`~repro.parallel.pthreads.
ForkJoinModel`; ``"threads"`` and ``"processes"`` really fork and join
and *measure* it (:class:`~repro.parallel.substrate.BarrierStats`).
"""

from __future__ import annotations

import os

from ..core.backends import KernelBackend
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates, GammaRates
from ..phylo.tree import Tree
from .pthreads import CPU_PTHREADS, ForkJoinModel
from .sliced import EXECUTION_MODES, SlicedEngine, SyncPolicy

__all__ = [
    "ForkJoinEngine",
    "ForkJoinSync",
    "EXECUTION_MODES",
    "WORKERS_ENV",
    "EXEC_ENV",
    "default_workers",
    "default_execution",
]

#: Environment variables consulted for process-wide parallel defaults
#: (mirrors ``REPRO_BACKEND`` for kernel backends).
WORKERS_ENV = "REPRO_WORKERS"
EXEC_ENV = "REPRO_EXEC"


def default_workers() -> int:
    """Process default worker count: ``$REPRO_WORKERS`` or 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from exc
    if n < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {n}")
    return n


def default_execution() -> str:
    """Process default execution mode: ``$REPRO_EXEC`` or ``simulated``."""
    raw = os.environ.get(EXEC_ENV, "").strip()
    if not raw:
        return EXECUTION_MODES[0]
    if raw not in EXECUTION_MODES:
        raise ValueError(
            f"{EXEC_ENV} must be one of {', '.join(EXECUTION_MODES)}; got {raw!r}"
        )
    return raw


class ForkJoinSync(SyncPolicy):
    """RAxML-Light's policy: every wave and kernel region is a parallel
    region bracketed by two barriers.

    With a ``model`` (simulated execution) each region is charged
    ``model.region_overhead_s(n_threads)``; without one the substrate
    really forks and joins, and the numbers are its measured
    :class:`~repro.parallel.substrate.BarrierStats`.  Reductions happen
    in shared memory at the master, so ``reduce`` stays free.
    """

    def __init__(self, n_threads: int, model: ForkJoinModel | None) -> None:
        self.n_threads = n_threads
        self.model = model
        self._regions = 0

    @property
    def parallel_regions(self) -> int:
        """Parallel regions so far (two barriers each)."""
        if self.model is None:
            return self.substrate.barrier_stats.regions
        return self._regions

    @property
    def sync_seconds(self) -> float:
        """Modelled or measured barrier overhead so far."""
        if self.model is None:
            return self.substrate.barrier_stats.overhead_seconds
        return self._regions * self.model.region_overhead_s(self.n_threads)

    def region(self) -> None:
        self._regions += 1
        if _obs.ENABLED:
            _obs.instant("forkjoin_region", threads=self.n_threads)
            reg = _obs_metrics.get_registry()
            reg.counter(
                "repro_forkjoin_regions_total",
                "fork-join parallel regions (two barriers each)",
            ).inc()
            reg.counter(
                "repro_barriers_total", "fork-join region barriers"
            ).inc(2)

    def wave(self, k: int, sweep: str) -> None:
        self.region()  # whole waves: one region per wave, not per newview

    def reset(self) -> None:
        self._regions = 0


class ForkJoinEngine(SlicedEngine):
    """Master/worker PLF over site slices with per-region barrier costs."""

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        n_threads: int = 4,
        sync_model: ForkJoinModel = CPU_PTHREADS,
        backend: str | KernelBackend | None = None,
        execution: str = "simulated",
        cat: CatRates | None = None,
        on_worker_failure: str = "degrade",
    ) -> None:
        if n_threads < 1:
            raise ValueError("need at least one thread")
        self.sync_model = sync_model
        super().__init__(
            patterns, tree, model, rates,
            ForkJoinSync(
                n_threads, sync_model if execution == "simulated" else None
            ),
            n_workers=n_threads, execution=execution, cat=cat,
            backend=backend, on_worker_failure=on_worker_failure,
            track="thread-{}".format,
        )
