"""Execution substrates for the site-sliced PLF: one command protocol.

A *substrate* owns one slice engine per worker and runs a small command
set on all of them, leaving results in full-length pattern-order *lanes*
the master reduces in fixed order.  The protocol is written once:

* :class:`SliceWorker`, the worker side, holds ``{owner: (engine,
  index)}`` (its own slice plus any adopted ones) and executes commands;
  the :class:`~repro.parallel.pool.WorkerPool` child process and the
  in-process :class:`LocalSubstrate` both run exactly this class.
* :class:`Substrate`, the master side, defines every command in terms of
  one ``_region(cmd, *args)`` broadcast-and-join that implementations
  supply: pipes to worker processes, or a direct call / thread-pool map.

Slice engines (CLAs, plans, sum buffers, counters, backend profile) live
on the worker side; the master owns the tree, the model state it ships,
the lane reductions and the measured :class:`BarrierStats`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ..core.backends import KernelProfile, get_backend
from ..core.engine import LikelihoodEngine
from ..core.traversal import KernelCounters
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.rates import CatRates
from ..phylo.tree import Tree
from .distribute import (
    SiteDistribution,
    distribute_block,
    slice_cat,
    slice_patterns,
)

__all__ = [
    "BarrierStats",
    "WorkerFailure",
    "WorkerRestart",
    "SumBufferHandle",
    "SliceWorker",
    "Substrate",
    "LocalSubstrate",
    "require_backend_name",
]


@dataclass
class BarrierStats:
    """Measured fork-join region costs (replaces the modelled constants).

    One *region* is a job broadcast plus a completion join — the paper's
    two synchronisation points.  ``region_seconds`` is master wall time;
    ``compute_seconds`` sums the per-worker compute times from the acks;
    ``overhead_seconds`` accumulates ``region - max(worker compute)``:
    the measured announcement + barrier + straggler cost.
    """

    regions: int = 0
    region_seconds: float = 0.0
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0
    max_region_seconds: float = 0.0

    def record(self, region_s: float, worker_s: list[float]) -> None:
        self.regions += 1
        self.region_seconds += region_s
        self.compute_seconds += sum(worker_s)
        self.overhead_seconds += max(region_s - max(worker_s, default=0.0), 0.0)
        self.max_region_seconds = max(self.max_region_seconds, region_s)

    @property
    def mean_region_overhead_s(self) -> float:
        return self.overhead_seconds / self.regions if self.regions else 0.0

    def reset(self) -> None:
        self.__init__()

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "mean_region_overhead_s": self.mean_region_overhead_s,
        }


class WorkerFailure(RuntimeError):
    """A worker died and the failure policy chose not to absorb it."""

    def __init__(self, worker: int, message: str = "") -> None:
        super().__init__(message or f"pool worker {worker} died")
        self.worker = worker


class WorkerRestart(RuntimeError):
    """Internal signal: a death was absorbed; replay the current operation."""

    def __init__(self, worker: int) -> None:
        super().__init__(f"worker {worker} absorbed; replay the operation")
        self.worker = worker


@dataclass(frozen=True)
class SumBufferHandle:
    """Opaque handle to the substrate-resident ``derivativeSum`` buffers:
    valid while ``epoch`` matches the substrate's latest ``sumbuf`` (one
    live buffer per slice, like RAxML's single ``sumBuffer``)."""

    epoch: int


def require_backend_name(backend, execution: str) -> None:
    """Reject backend *instances* where every worker builds its own."""
    if backend is not None and not isinstance(backend, str):
        raise ValueError(
            f"execution={execution!r} takes a backend *name* (each worker "
            "builds its own instance; scratch-carrying backends are not "
            "safe to share across threads or processes); got a backend "
            "object — pass the registry name, or use repro.core.backends."
            "resolve_backend_name() to translate a registered instance"
        )


def build_slice_engine(patterns, idx, tree, backend, state: dict) -> LikelihoodEngine:
    """A slice engine over ``patterns[:, idx]`` in its owner's model
    ``state``: the serial engine, its rates sliced with its patterns."""
    cat = state["cat"]
    engine = LikelihoodEngine(
        slice_patterns(patterns, idx), tree, state["model"],
        state["rates"] if cat is None else slice_cat(cat, idx),
        backend=backend,
    )
    engine.store.max_resident = state["max_resident"]
    if state["alpha"] is not None:  # a ghost joining after a shape refit
        engine.alpha = state["alpha"]
    return engine


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class LocalLanes:
    """In-process result lanes: plain arrays in pattern order.  Sum
    buffers stay per owner (in-process slices cannot die mid-solve)."""

    def __init__(self, n_patterns: int, n_workers: int) -> None:
        self.site = np.empty(n_patterns)
        self.terms = np.empty((3, n_patterns))
        self.partial = np.zeros((n_workers, 4))
        self._sumbufs: dict[int, np.ndarray] = {}

    def put_sumbuf(self, owner: int, index, sumbuf: np.ndarray) -> None:
        self._sumbufs[owner] = sumbuf

    def get_sumbuf(self, owner: int, index) -> np.ndarray:
        return self._sumbufs[owner]


class SliceWorker:
    """Worker-side command handler over ``{owner: (engine, index)}``.

    ``index`` addresses the owner's patterns in the full-length lanes;
    ``build(owner, tree, backend, state)`` makes one ``(engine, index)``
    and is how adopted slices join.  ``partial[owner]`` carries the
    scalars a distributed run would AllReduce (accounting only: reported
    values come from the master's lane reductions).  With ``track`` set,
    each owner's work runs under that trace track.
    """

    def __init__(self, lanes, backend, build, tree, owners, state, track=None):
        self.lanes = lanes
        self.backend = backend
        self.tree = tree
        self.track = track
        self._build = build
        self.slots = {o: build(o, tree, backend, state) for o in owners}
        self.plans: dict[int, object] = {}

    def _each(self):
        for owner, (engine, index) in self.slots.items():
            if self.track is None:
                yield owner, engine, index
            else:
                with _obs.track_scope(self.track(owner)):
                    yield owner, engine, index

    def timed(self, cmd: str, *args) -> tuple[float, object]:
        """Run one command; returns ``(compute_seconds, payload)``."""
        handler = getattr(self, f"cmd_{cmd}", None)
        if handler is None:
            raise ValueError(f"unknown substrate command {cmd!r}")
        t0 = time.perf_counter()
        payload = handler(*args)
        return time.perf_counter() - t0, payload

    # -- commands --------------------------------------------------------
    def cmd_prepare(self, tree_state, root_edge: int) -> int:
        if tree_state is not None:  # replicated trees (worker processes)
            self.tree = Tree.from_state(tree_state)
            for engine, _index in self.slots.values():
                engine.tree = self.tree
        depth = 0
        for owner, engine, _index in self._each():
            plan = self.plans[owner] = engine.plan_execution(root_edge)
            depth = max(depth, plan.depth)
        return depth

    def cmd_wave(self, k: int) -> None:
        for owner, engine, _index in self._each():
            plan = self.plans.get(owner)
            if plan is not None and k < plan.depth:
                engine.run_wave(plan.waves[k])

    def cmd_root(self, root_edge: int) -> None:
        for owner, engine, index in self._each():
            site = engine.site_log_likelihoods(root_edge)
            self.lanes.site[index] = site
            self.lanes.partial[owner, 0] = np.dot(site, engine.patterns.weights)

    def cmd_sumbuf(self, root_edge: int) -> None:
        for owner, engine, index in self._each():
            self.lanes.put_sumbuf(owner, index, engine.edge_sum_buffer(root_edge))

    def cmd_deriv(self, t: float) -> None:
        terms = self.lanes.terms
        for owner, engine, index in self._each():
            sumbuf = self.lanes.get_sumbuf(owner, index)
            site_terms = engine.derivative_site_terms(sumbuf, t)
            w = engine.patterns.weights
            for row, lane in enumerate(site_terms):
                terms[row, index] = lane
                self.lanes.partial[owner, 1 + row] = np.dot(lane, w)

    def cmd_grad(self, root_edge: int) -> dict:
        """``{owner: (executed waves, {edge: (3, slice) site terms})}``:
        the whole gradient plan runs slice-locally."""
        out = {}
        for owner, engine, _index in self._each():
            plan = engine.plan_gradient(root_edge)
            terms = engine.execute_gradient(plan, terms=True)
            out[owner] = (
                plan.depth,
                {eid: np.stack(t3) for eid, t3 in terms.items()},
            )
        return out

    def cmd_set_model(self, model, rates) -> None:
        for engine, _index in self.slots.values():
            engine.set_model(model, rates)

    def cmd_set_alpha(self, alpha: float) -> None:
        for engine, _index in self.slots.values():
            engine.set_alpha(alpha)

    def cmd_set_cat(self, cats: dict[int, CatRates], alpha) -> None:
        for owner, (engine, _index) in self.slots.items():
            engine.set_cat(cats[owner], alpha)

    def cmd_set_max_resident(self, max_resident: int) -> None:
        for engine, _index in self.slots.values():
            engine.store.max_resident = max_resident

    def cmd_adopt(self, dead: int, state: dict) -> None:
        if dead not in self.slots:  # idempotent re-announcement
            self.slots[dead] = self._build(dead, self.tree, self.backend, state)

    def cmd_profile(self) -> dict:
        return {
            "profile": self.backend.profile.to_dict(),
            "counters": {
                o: engine.counters.copy() for o, (engine, _i) in self.slots.items()
            },
        }

    def cmd_reset(self) -> None:
        for engine, _index in self.slots.values():
            engine.reset_profile()

    def cmd_drop_caches(self) -> None:
        for engine, _index in self.slots.values():
            engine.drop_caches()
        self.plans.clear()


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class Substrate:
    """Master-side command surface; subclasses supply ``_region``.

    ``_region(cmd, *args)`` broadcasts one command to every live worker,
    joins, and returns ``{worker: payload}``; ``_ship_tree(tree)`` is
    what ``prepare`` sends as the tree (a state dict for replicated
    trees, ``None`` when slices share the master's tree object).
    ``dead``/``adoptions`` describe absorbed worker deaths.
    """

    #: In-process slice engines in owner order (none for worker processes).
    slices: tuple = ()

    def _init_state(
        self,
        weights: np.ndarray,
        model,
        rates,
        cat: CatRates | None,
        n_workers: int,
        distribution: SiteDistribution | None = None,
    ) -> None:
        """Every slicing is :func:`distribute_block` over the lanes, except
        a partitioned substrate's one block per partition."""
        if n_workers < 1:
            raise ValueError("need at least one worker")
        #: Pattern weights of the full lanes, in lane order.
        self.weights = weights
        self.n_workers = n_workers
        self.distribution = distribution or distribute_block(
            weights.shape[0], n_workers
        )
        self.barrier_stats = BarrierStats()
        self.sumbuf_epoch = 0
        self.dead: set[int] = set()
        self.adoptions: dict[int, int] = {}
        self._state = {
            "model": model, "rates": rates, "cat": cat, "alpha": None,
            "max_resident": None,
        }

    def _region(self, cmd: str, *args) -> dict[int, object]:
        raise NotImplementedError

    def _ship_tree(self, tree: Tree):
        return None

    def kill_worker(self, worker: int) -> None:
        """Fault-injection hook: make an injected death real (if it can be)."""

    # -- likelihood commands ---------------------------------------------
    def prepare(self, tree: Tree, root_edge: int) -> int:
        """Sync trees + levelize on every slice; returns the max depth."""
        depths = self._region("prepare", self._ship_tree(tree), root_edge)
        return max((int(d) for d in depths.values()), default=0)

    def run_wave(self, k: int) -> None:
        self._region("wave", k)

    def root(self, root_edge: int) -> None:
        """Fill the site lane + per-slice partial lnL for ``root_edge``."""
        self._region("root", root_edge)

    def sumbuf(self, root_edge: int) -> SumBufferHandle:
        self._region("sumbuf", root_edge)
        self.sumbuf_epoch += 1
        return SumBufferHandle(self.sumbuf_epoch)

    def deriv(self, handle: SumBufferHandle, t: float) -> None:
        """Fill the terms lane + partials at trial length ``t``."""
        if handle.epoch != self.sumbuf_epoch:
            raise ValueError(
                "stale sum-buffer handle: the substrate holds one live "
                "derivativeSum buffer and it has been overwritten"
            )
        self._region("deriv", float(t))

    def grad(self, root_edge: int) -> tuple[dict[int, np.ndarray], int]:
        """All-branch gradient lanes ``{edge_id: (3, n_patterns)}`` plus
        the number of waves the sweep executed, in one region.  Site
        terms land at their owner's pattern index (adopted slices at the
        dead worker's), keeping pattern order identical."""
        n = self.weights.shape[0]
        lanes: dict[int, np.ndarray] = {}
        waves = 0
        for per_owner in self._region("grad", root_edge).values():
            for owner, (n_waves, per_edge) in per_owner.items():
                waves = max(waves, n_waves)
                index = self._index[owner]
                for eid, stacked in per_edge.items():
                    lane = lanes.get(eid)
                    if lane is None:
                        lane = lanes[eid] = np.empty((3, n))
                    lane[:, index] = stacked
        return lanes, waves

    # -- model state -----------------------------------------------------
    def set_model(self, model, rates) -> None:
        self._state["model"] = model
        if rates is not None:
            self._state["rates"] = rates
        self._region("set_model", model, rates)

    def set_alpha(self, alpha: float) -> None:
        """Gamma slices only: CAT needs :meth:`set_cat` (slice-local
        renormalisation would use the wrong weights)."""
        if self._state["cat"] is not None:
            raise ValueError("CAT substrates take set_cat, not set_alpha")
        if self._state["rates"] is not None:
            self._state["rates"] = self._state["rates"].with_alpha(float(alpha))
        self._region("set_alpha", float(alpha))

    def set_cat(self, cat: CatRates, alpha: float | None = None) -> None:
        """Install a full-alignment CAT assignment (already normalised by
        the master against full-pattern weights); sliced per owner here."""
        self._state["cat"] = cat
        self._state["alpha"] = alpha
        per_owner = {
            w: slice_cat(cat, self.distribution.indices_of(w))
            for w in range(self.n_workers)
        }
        self._region("set_cat", per_owner, alpha)

    def set_max_resident(self, max_resident: int) -> None:
        """Bound every slice's CLA store (adopted slices included)."""
        self._state["max_resident"] = max_resident
        self._region("set_max_resident", max_resident)

    def drop_caches(self) -> None:
        self._region("drop_caches")

    # -- observability ---------------------------------------------------
    def merged_profile(self) -> KernelProfile:
        """One profile over every worker's backend (no double counting:
        each worker owns exactly one backend instance)."""
        total = KernelProfile()
        for report in self._region("profile").values():
            total.merge(KernelProfile.from_dict(report["profile"]))
        return total

    def counters(self) -> KernelCounters:
        """The run's kernel counters, equal to a serial engine's: every
        slice performs the same call mix, so ``calls``/``reductions`` are
        one slice's (the per-kind maximum — a ghost rebuilt after an
        adoption restarts from zero); ``site_units`` sum over slices."""
        total = KernelCounters()
        for report in self._region("profile").values():
            for c in report["counters"].values():
                for kind, n in c.calls.items():
                    total.calls[kind] = max(total.calls.get(kind, 0), n)
                for kind, n in c.site_units.items():
                    total.site_units[kind] = total.site_units.get(kind, 0) + n
                total.reductions = max(total.reductions, c.reductions)
        return total

    def reset_profiles(self) -> None:
        self._region("reset")
        self.barrier_stats.reset()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalSubstrate(Substrate):
    """In-process slices sharing the master's tree: one
    :class:`SliceWorker` looping over every slice (``simulated``), or
    one per slice on a persistent thread pool (``threads``: NumPy
    kernels release the GIL, and every region's announcement/barrier
    cost is *measured* into ``barrier_stats``).  With ``parts``
    (:class:`~repro.core.partitioned.Partition` s) instead of
    ``patterns``, slice ``w`` is partition ``w`` and lane block ``w``."""

    def __init__(
        self,
        patterns: PatternAlignment | None,
        tree: Tree,
        model,
        rates=None,
        *,
        n_workers: int,
        backend=None,
        cat: CatRates | None = None,
        threads: bool = False,
        track=None,
        parts=None,
    ) -> None:
        self.patterns = patterns
        self.parts = parts
        if parts is None:
            weights, distribution = patterns.weights, None
        else:
            weights = np.concatenate([p.patterns.weights for p in parts])
            ends = np.cumsum([p.patterns.n_patterns for p in parts])
            distribution = SiteDistribution(int(ends[-1]), n_workers, tuple(
                tuple(range(end - p.patterns.n_patterns, end))
                for p, end in zip(parts, ends)
            ))
        self._init_state(weights, model, rates, cat, n_workers, distribution)
        self._index = [
            self.distribution.indices_of(w) for w in range(n_workers)
        ]
        self.lanes = LocalLanes(weights.shape[0], n_workers)
        self._executor = None
        groups = [list(range(n_workers))]
        if threads:
            require_backend_name(backend, "threads")
            self._executor = ThreadPoolExecutor(
                n_workers, thread_name_prefix="repro-fj"
            )
            groups = [[w] for w in range(n_workers)]
            track = None  # the tracer's current track is not per-thread
        self.workers = [
            SliceWorker(
                self.lanes, get_backend(backend), self._build, tree, owners,
                self._state, track,
            )
            for owners in groups
        ]

    def _build(self, owner: int, tree: Tree, backend, state: dict):
        idx = self._index[owner]
        if self.parts is None:
            return build_slice_engine(self.patterns, idx, tree, backend, state), idx
        part = self.parts[owner]  # its own data, model and rates
        own = {**state, "model": part.model, "rates": part.gamma}
        whole = np.arange(idx.size)
        return build_slice_engine(part.patterns, whole, tree, backend, own), idx

    @property
    def slices(self) -> list[LikelihoodEngine]:
        """The slice engines, in owner order."""
        return [e for w in self.workers for e, _index in w.slots.values()]

    def _region(self, cmd: str, *args) -> dict[int, object]:
        if self._executor is None:
            return {0: self.workers[0].timed(cmd, *args)[1]}
        t0 = time.perf_counter()
        replies = list(
            self._executor.map(lambda w: w.timed(cmd, *args), self.workers)
        )
        self.barrier_stats.record(
            time.perf_counter() - t0, [secs for secs, _ in replies]
        )
        return {w: payload for w, (_, payload) in enumerate(replies)}

    def close(self) -> None:
        """Shut the thread pool down (idempotent; no-op when serial)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
