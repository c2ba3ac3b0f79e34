"""The site-sliced parallel likelihood engine, written once.

The paper's two parallelisations (Sec. V-C/V-D) run the *same*
site-sliced PLF and differ only in **where they synchronise**.
:class:`SlicedEngine` is that shared PLF — every algorithm of the
:class:`~repro.core.engine.LikelihoodEngine` surface, once — composed of
a **substrate** (:mod:`repro.parallel.substrate`) that runs commands on
the slice engines, and a :class:`SyncPolicy` that only does accounting
and fault handling (:class:`~repro.parallel.forkjoin.ForkJoinSync`,
:class:`~repro.parallel.distributed.ExaMLSync`); :class:`PartitionedEngine`
is the same PLF with one slice per partition.

Every reported number comes from the master's fixed-order reduction of
the gathered lanes, so results are **bit-identical** to the sequential
engine on every substrate, policy and worker count.  Every substrate
slices sites into contiguous blocks
(:func:`~repro.parallel.distribute.distribute_block`).
"""

from __future__ import annotations

import numpy as np

from ..core.backends import KernelBackend, KernelProfile
from ..core.kernels import derivative_reduce
from ..core.partitioned import Partition
from ..core.traversal import KernelCounters
from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.models import SubstitutionModel
from ..phylo.rates import CatRates, GammaRates
from ..phylo.tree import Tree
from .pool import WorkerPool
from .substrate import (
    LocalSubstrate,
    Substrate,
    SumBufferHandle,
    WorkerFailure,
    WorkerRestart,
)

__all__ = ["EXECUTION_MODES", "PartitionedEngine", "SlicedEngine", "SyncPolicy"]

#: Supported execution substrates, cheapest first.
EXECUTION_MODES = ("simulated", "threads", "processes")


class SyncPolicy:
    """Where a sliced engine synchronises (accounting + faults only).

    The engine calls :meth:`wave` before every lock-step wave (``sweep``
    is ``"down"`` or ``"up"``), :meth:`region` before every kernel
    region (evaluate, ``derivativeSum``, ``derivativeCore``),
    :meth:`reduce` where ranks would combine per-slice scalars
    (``parts()`` builds them on demand), :meth:`absorbed` after the
    substrate absorbed a worker death, and :meth:`reset` with the
    profile.  The defaults synchronise nowhere.
    """

    substrate: Substrate

    def bind(self, substrate: Substrate) -> None:
        self.substrate = substrate

    def wave(self, k: int, sweep: str) -> None:
        pass

    def region(self) -> None:
        pass

    def reduce(self, parts) -> None:
        pass

    def absorbed(self) -> None:
        pass

    def reset(self) -> None:
        pass


class SlicedEngine:
    """Master half of the site-sliced PLF over one substrate + sync policy.

    Duck-types :class:`~repro.core.engine.LikelihoodEngine` closely
    enough that the branch-length optimisers and the SPR search run on
    it unchanged.  The substrate is chosen here, once, from
    ``execution``: :class:`LocalSubstrate` for ``simulated``/``threads``,
    :class:`WorkerPool` (also :attr:`pool`) for ``processes``; ``track``
    names slice ``w``'s trace track where slices run in the master's
    thread; ``parts`` makes each in-process slice a partition (see
    :class:`LocalSubstrate`).  The policy's accounting
    (``parallel_regions``, ``wave_boundaries``, ``dead_ranks``, ...)
    reads through as engine attributes.
    """

    def __init__(
        self,
        patterns: PatternAlignment | None,
        tree: Tree,
        model: SubstitutionModel,
        rates: GammaRates | None,
        sync: SyncPolicy,
        *,
        n_workers: int,
        execution: str,
        cat: CatRates | None = None,
        backend=None,
        on_worker_failure: str = "degrade",
        track=None,
        parts=None,
    ) -> None:
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
            )
        slicing = dict(n_workers=n_workers, backend=backend, cat=cat)
        if execution == "processes":
            self.pool = self.substrate = WorkerPool(
                patterns, tree, model, rates,
                on_worker_failure=on_worker_failure, **slicing,
            )
        else:
            self.pool = None
            self.substrate = LocalSubstrate(
                patterns, tree, model, rates, track=track,
                threads=execution == "threads", parts=parts, **slicing,
            )
        sync.bind(self.substrate)
        self.sync = sync
        self.patterns = patterns
        self.weights = self.substrate.weights  # of the lanes it reduces
        self.tree = tree
        self.cat = cat
        self.execution = execution
        self.distribution = self.substrate.distribution
        #: In-process slice engines in owner order (``[]`` for processes).
        self.slices = list(self.substrate.slices)
        self.barrier_stats = self.substrate.barrier_stats
        self.model = model
        self.rates_model = rates if rates is not None else GammaRates(1.0, 1)
        #: CAT shape parameter (None for plain Gamma engines).
        self.alpha = 1.0 if cat is not None else None

    def __getattr__(self, name: str):
        if name == "sync":  # not bound yet: nothing to read through to
            raise AttributeError(name)
        return getattr(self.sync, name)

    # -- substrate driving -----------------------------------------------
    def _replay(self, fn):
        """Run ``fn``, replaying it across absorbed worker deaths (slices
        are deterministic, so a replay on the adopter is exact).  Bounded
        to guard against pathological always-fire fault plans."""
        last = -1
        for _ in range(2 * self.substrate.n_workers + 1):
            try:
                return fn()
            except WorkerRestart as exc:
                last = exc.worker
                self.sync.absorbed()
        raise WorkerFailure(last, "too many worker restarts")

    def _validate(self, root_edge: int) -> None:
        """One prepare, then the levelized plan wave by wave (no replay:
        callers wrap the whole top-level op so replays re-prepare)."""
        depth = self.substrate.prepare(self.tree, root_edge)
        for k in range(depth):
            self.sync.wave(k, "down")
            self.substrate.run_wave(k)

    def ensure_valid(self, root_edge: int) -> None:
        """Advance every slice through the levelized plan in lock-step
        (slices share the tree, so a wave index identifies the work);
        what a wave boundary costs is the policy's call."""
        self._replay(lambda: self._validate(root_edge))

    def _rooted_site_lane(self, root_edge: int) -> np.ndarray:
        self._validate(root_edge)
        self.sync.region()
        self.substrate.root(root_edge)
        return self.substrate.lanes.site

    # -- LikelihoodEngine-compatible surface -----------------------------
    def set_model(self, model: SubstitutionModel, rates: GammaRates | None = None) -> None:
        self.model = model
        if rates is not None:
            self.rates_model = rates
        self._replay(lambda: self.substrate.set_model(model, rates))

    def set_alpha(self, alpha: float) -> None:
        alpha = float(alpha)
        if self.cat is None:
            self.rates_model = self.rates_model.with_alpha(alpha)
            self._replay(lambda: self.substrate.set_alpha(alpha))
            return
        # CAT rates renormalise against the *full* alignment's weights,
        # which only the master holds.
        self.cat = self.cat.with_alpha(alpha, self.weights)
        self.alpha = alpha
        self._replay(lambda: self.substrate.set_cat(self.cat, alpha))

    def default_edge(self) -> int:
        return min(self.tree.edge_ids)

    def log_likelihood(self, root_edge: int | None = None) -> float:
        """The gathered per-site lane reduced in fixed pattern order."""
        if root_edge is None:
            root_edge = self.default_edge()
        value = self._replay(
            lambda: float(
                np.dot(self._rooted_site_lane(root_edge), self.weights)
            )
        )
        self.sync.reduce(lambda: list(self.substrate.lanes.partial[:, 0]))
        return value

    def site_log_likelihoods(self, root_edge: int | None = None) -> np.ndarray:
        """Gathered per-pattern lnL in original pattern order."""
        if root_edge is None:
            root_edge = self.default_edge()
        return self._replay(lambda: self._rooted_site_lane(root_edge).copy())

    def edge_sum_buffer(self, root_edge: int) -> SumBufferHandle:
        """Per-slice ``derivativeSum`` buffers (stay resident; opaque)."""
        def op() -> SumBufferHandle:
            self._validate(root_edge)
            self.sync.region()
            return self.substrate.sumbuf(root_edge)
        return self._replay(op)

    def branch_derivatives(
        self, sumbufs: SumBufferHandle, t: float
    ) -> tuple[float, float, float]:
        """Per-slice ``derivativeCore`` site terms, reduced at the master."""
        def op() -> tuple[float, float, float]:
            self.sync.region()
            self.substrate.deriv(sumbufs, t)
            l0, l1, l2 = self.substrate.lanes.terms
            return derivative_reduce(l0, l1, l2, self.weights)
        value = self._replay(op)
        self.sync.reduce(lambda: list(self.substrate.lanes.partial[:, 1:4]))
        return value

    def all_branch_gradients(
        self, root_edge: int | None = None
    ) -> dict[int, tuple[float, float]]:
        """All-branch ``(d1, d2)``: every slice runs its own gradient
        plan; the master reduces each edge's gathered ``(l0, l1, l2)``
        lanes like the sequential engine.  Gradient-plan waves are
        accounted like any other, and the whole sweep is *one* reduction
        point of ``2 * (2N - 3)`` doubles — O(1) collectives instead of
        O(N)."""
        if root_edge is None:
            root_edge = self.default_edge()

        def op():
            self._validate(root_edge)
            return self.substrate.grad(root_edge)
        lanes, waves = self._replay(op)
        for k in range(waves):
            self.sync.wave(k, "gradient")
        weights = self.weights
        out = {
            eid: derivative_reduce(*lanes[eid], weights)[1:]
            for eid in sorted(lanes)
        }
        self.sync.reduce(lambda: self._gradient_partials(lanes))
        return out

    def _gradient_partials(self, lanes: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Per-slice ``(d1, d2)`` partial vectors, as ranks would send them."""
        terms = np.empty((2 * len(lanes), self.weights.shape[0]))
        for j, eid in enumerate(sorted(lanes)):
            l0, l1, l2 = lanes[eid]
            terms[2 * j] = r1 = l1 / l0
            terms[2 * j + 1] = l2 / l0 - r1 * r1
        slices = map(self.distribution.indices_of, range(self.substrate.n_workers))
        return [terms[:, idx] @ self.weights[idx] for idx in slices]

    def set_max_resident(self, max_resident: int) -> None:
        """Keep at most ``max_resident`` CLAs per slice, recomputing the
        rest (:class:`~repro.core.memsave.ClaStore`); results unchanged."""
        self._replay(lambda: self.substrate.set_max_resident(max_resident))

    def drop_caches(self) -> None:
        self._replay(self.substrate.drop_caches)

    # -- observability ---------------------------------------------------
    @property
    def counters(self) -> KernelCounters:
        """Kernel counters of the run — equal to the serial engine's on
        every substrate (see :meth:`Substrate.counters`)."""
        return self._replay(self.substrate.counters)

    @property
    def profile(self) -> KernelProfile:
        """Measured kernel profile over every worker's backend."""
        return self._replay(self.substrate.merged_profile)

    def reset_profile(self) -> None:
        """Zero every slice's counters and profile and the policy's
        accounting."""
        self._replay(self.substrate.reset_profiles)
        self.sync.reset()

    def reset_all_observability(self) -> None:
        """Engine-wide reset plus the obs metrics registry and tracer."""
        self.reset_profile()
        _obs_metrics.get_registry().reset()
        if _obs.ENABLED:
            _obs.get_tracer().clear()

    # -- lifetime --------------------------------------------------------
    def close(self) -> None:
        """Shut the process/thread pool down, unlinking the arena (idempotent)."""
        self.substrate.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PartitionedEngine(SlicedEngine):
    """Multi-gene likelihood over one shared tree (shared branch lengths):
    one in-process slice per :class:`~repro.core.partitioned.Partition`,
    built from its own alignment, model and rates, all on one backend
    instance.  ``model`` / ``rates_model`` are the first partition's."""

    def __init__(
        self,
        partitions: list[Partition],
        tree: Tree,
        backend: str | KernelBackend | None = None,
    ) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        for p in partitions[1:]:
            if set(p.patterns.taxa) != set(partitions[0].patterns.taxa):
                raise ValueError(f"partition {p.name!r} has a different taxon set")
        self.partitions = partitions
        super().__init__(
            None, tree, partitions[0].model, partitions[0].gamma, SyncPolicy(),
            n_workers=len(partitions), execution="simulated",
            backend=backend, parts=partitions,
        )

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def per_site_log_likelihoods(self) -> dict[str, np.ndarray]:
        """Per-partition pattern log-likelihood vectors."""
        lane = self.site_log_likelihoods()
        return {
            p.name: lane[self.distribution.indices_of(w)]
            for w, p in enumerate(self.partitions)
        }

    def set_model(self, model: SubstitutionModel, rates: GammaRates | None = None) -> None:
        raise ValueError("partitions carry their own models; set them per Partition")
