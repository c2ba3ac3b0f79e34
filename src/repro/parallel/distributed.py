"""ExaML's communicate-only-at-reductions synchronisation (Sec. V-D).

Every rank runs its own *consistent* copy of the tree search over its
slice of the sites, and the ranks communicate only where information
must be combined — the AllReduce after ``evaluate`` and after each
``derivativeCore`` batch.  There is *no* communication between
consecutive ``newview`` calls.

:class:`DistributedEngine` is the :class:`~repro.parallel.sliced.
SlicedEngine` under that policy (:class:`ExaMLSync`): every reduction
point goes through :class:`~repro.parallel.simmpi.SimMPI`, which
accounts volume and modelled time and can inject rank deaths.  The
AllReduce is accounting and fault injection only — *returned* values
come from the master's fixed-order lane reduction, bit-identical to the
sequential engine for every rank count and substrate.
"""

from __future__ import annotations

from ..core.backends import KernelBackend
from ..faults.plan import RankFailure
from ..obs import metrics as _obs_metrics
from ..obs import server as _obs_server
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import GammaRates
from ..phylo.tree import Tree
from .simmpi import SimMPI
from .sliced import SlicedEngine, SyncPolicy

__all__ = ["DistributedEngine", "ExaMLSync"]


class ExaMLSync(SyncPolicy):
    """ExaML's policy: free wave boundaries, one AllReduce per reduction.

    Wave boundaries are counted (:attr:`wave_boundaries`) but charge no
    communication; cost comes only from the :class:`SimMPI` reductions.
    A rank death injected by the fault plan follows ``on_rank_failure``:

    * ``"degrade"`` — the lowest surviving rank *adopts* the dead rank's
      slice (re-reading it is charged as modelled recovery time), the
      collective is retried among survivors and the search continues
      with identical numerics.  A substrate with real workers kills the
      worker too, so the *next* region exercises real slice adoption;
    * ``"abort"`` — :class:`~repro.faults.RankFailure` propagates to the
      caller.
    """

    def __init__(self, mpi: SimMPI, on_rank_failure: str = "degrade") -> None:
        if on_rank_failure not in ("degrade", "abort"):
            raise ValueError("on_rank_failure must be 'degrade' or 'abort'")
        self.mpi = mpi
        self.on_rank_failure = on_rank_failure
        self.dead_ranks: set[int] = set()
        self.adoptions: dict[int, int] = {}
        self.rank_failures = 0
        self.recovery_seconds = 0.0
        self.wave_boundaries = 0

    @property
    def comm_seconds(self) -> float:
        """Modelled communication time accumulated so far."""
        return self.mpi.comm_seconds

    @property
    def alive_ranks(self) -> list[int]:
        """Ranks still alive, in index order."""
        return [
            r for r in range(self.mpi.n_ranks) if r not in self.dead_ranks
        ]

    def owner_of(self, rank: int) -> int:
        """The rank currently computing ``rank``'s slice (adoption-aware)."""
        return self.adoptions.get(rank, rank)

    # -- hooks -----------------------------------------------------------
    def wave(self, k: int, sweep: str) -> None:
        self.wave_boundaries += 1
        if _obs.ENABLED:
            _obs.instant(
                "wave_boundary", wave=k, ranks=self.mpi.n_ranks, sweep=sweep
            )
            _obs_metrics.get_registry().counter(
                "repro_wave_boundaries_total",
                "lock-step wave boundaries across ranks",
            ).inc()

    def reduce(self, parts) -> None:
        """One AllReduce of the per-rank ``parts()``; a death during the
        collective is absorbed (slice adoption) and the collective retried
        among survivors, bounded against always-fire fault plans."""
        parts = parts()
        for _ in range(2 * self.mpi.n_ranks + 1):
            try:
                self.mpi.allreduce_sum(parts)
                return
            except RankFailure as failure:
                if self.on_rank_failure == "abort":
                    raise
                if failure.rank not in self.dead_ranks:
                    self.substrate.kill_worker(failure.rank)
                    self._adopt(failure)
        raise RankFailure(-1, "rank-death faults kept firing; giving up")

    def absorbed(self) -> None:
        """Mirror a real worker death the substrate absorbed."""
        for w in self.substrate.dead:
            if w not in self.dead_ranks:
                self.dead_ranks.add(w)
                self.rank_failures += 1
            self.adoptions[w] = self.substrate.adoptions.get(w, w)

    def reset(self) -> None:
        self.wave_boundaries = 0
        self.recovery_seconds = 0.0
        self.mpi.comm_seconds = 0.0
        self.mpi.allreduce_calls = 0
        self.mpi.bytes_reduced = 0.0
        self.mpi.allreduce_retries = 0
        self.mpi.seconds_in_faults = 0.0

    # -- rank-failure recovery -------------------------------------------
    def _adopt(self, failure: RankFailure) -> None:
        """Degrade around one injected death: lowest survivor adopts."""
        rank = failure.rank
        survivors = [r for r in self.alive_ranks if r != rank]
        if not survivors:
            raise RankFailure(rank, "last surviving rank failed") from failure
        adopter = survivors[0]
        self.dead_ranks.add(rank)
        self.adoptions[rank] = adopter
        for ghost, owner in list(self.adoptions.items()):
            if owner == rank:  # re-adopt slices the dead rank had adopted
                self.adoptions[ghost] = adopter
        self.rank_failures += 1
        # Modelled recovery: survivors synchronise (one barrier) and the
        # adopter re-reads + rebuilds the dead rank's slice — tip data
        # over the interconnect, CLAs recomputed locally (not charged
        # separately: the next traversal recomputes them anyway).
        patterns = self.substrate.patterns
        slice_bytes = float(
            self.substrate.distribution.indices_of(rank).shape[0]
            * len(patterns.taxa) * patterns.data.itemsize
        )
        dt = (
            self.mpi.interconnect.message_time(slice_bytes, len(survivors))
            if slice_bytes
            else 0.0
        )
        self.recovery_seconds += dt
        self.mpi.comm_seconds += dt
        self.mpi.barrier()
        event = {
            "adopter": adopter,
            "survivors": len(survivors),
            "recovery_us": dt * 1e6,
        }
        if _obs.ENABLED:
            _obs.instant("rank.adopted", dead=rank, **event)
            _obs_metrics.get_registry().counter(
                "repro_rank_failures_total",
                "injected rank deaths absorbed by degradation",
            ).inc()
        if _obs_server.ENABLED:
            _obs_server.health_event("rank_death", rank=rank, **event)


class DistributedEngine(SlicedEngine):
    """Rank-parallel PLF over a shared tree (ExaML's communication scheme).

    All ranks reference the *same* :class:`Tree` — mirroring ExaML, where
    each process deterministically replays the identical sequence of
    updates, so tree state never needs to be communicated.  See
    :class:`ExaMLSync` for ``on_rank_failure``.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None = None,
        n_ranks: int = 2,
        mpi: SimMPI | None = None,
        backend: str | KernelBackend | None = None,
        on_rank_failure: str = "degrade",
        execution: str = "simulated",
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if mpi is None:
            mpi = SimMPI(n_ranks)
        if mpi.n_ranks != n_ranks:
            raise ValueError("SimMPI rank count mismatch")
        sync = ExaMLSync(mpi, on_rank_failure)
        super().__init__(
            patterns, tree, model, rates, sync,
            n_workers=n_ranks, execution=execution, backend=backend,
            on_worker_failure=on_rank_failure,
            track=lambda rank: f"rank-{sync.owner_of(rank)}",
        )
