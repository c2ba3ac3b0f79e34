"""Persistent multiprocess worker pool executing the PLF for real.

A spawn-once pool of worker processes, each owning one contiguous site
slice, with what crosses a process shared through a
:class:`~repro.parallel.shm.SharedArena`.  The command surface and the
worker-side handler are :mod:`repro.parallel.substrate`'s; this module
supplies the process half — arena lanes, the child main loop and the
measured region.
Design points, mirroring the paper's PThreads scheme (Sec. V-C/V-D):

* **zero-copy lanes** — tips, weights, the sum buffer and the result
  lanes live in the arena; CLAs and scale counters stay in each
  worker's private :class:`~repro.core.memsave.ClaStore` (only that
  worker reads them); a region's payload is a few dozen bytes of job
  descriptor over a pipe.
* **deterministic replay** — every worker holds an id-exact replica of
  the tree and levelizes the *same* plan as the master, so a wave index
  fully identifies the work.
* **degradable workers** — a worker death (a real crash, or
  :meth:`WorkerPool.kill_worker`) is absorbed by slice adoption at the
  lowest survivor and the interrupted operation replayed; numerics are
  unchanged because slices stay disjoint and lanes keep pattern order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref

import numpy as np

from ..core.backends import get_backend
from ..obs import server as _obs_server
from ..obs import spans as _obs
from ..phylo.alignment import PatternAlignment
from ..phylo.rates import CatRates, GammaRates
from ..phylo.tree import Tree
from .shm import SharedArena
from .substrate import (
    BarrierStats,
    SliceWorker,
    Substrate,
    SumBufferHandle,
    WorkerFailure,
    WorkerRestart,
    build_slice_engine,
    require_backend_name,
)

__all__ = [
    "BarrierStats",
    "WorkerFailure",
    "WorkerRestart",
    "SumBufferHandle",
    "WorkerPool",
]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class ArenaLanes:
    """Result lanes living in the shared arena (zero-copy both sides).

    The live ``derivativeSum`` buffer is arena-resident too, so a ghost
    engine adopted between ``sumbuf`` and ``deriv`` still finds it.
    """

    def __init__(self, arena: SharedArena) -> None:
        self.site = arena.view("site")
        self.terms = arena.view("terms")
        self.partial = arena.view("partial")
        self._sumbuf = arena.view("sumbuf")

    def put_sumbuf(self, owner: int, index: slice, sumbuf: np.ndarray) -> None:
        # (rates, states) per pattern; CAT buffers drop the rates axis.
        self._tail = sumbuf.shape[1:]
        self._sumbuf[index].reshape(sumbuf.shape)[...] = sumbuf

    def get_sumbuf(self, owner: int, index: slice) -> np.ndarray:
        view = self._sumbuf[index]
        return view.reshape(view.shape[0], *self._tail)


def _worker_main(conn, cfg: dict) -> None:
    """Worker process: attach the arena, serve :class:`SliceWorker` commands.

    Replies are ``("ok", compute_seconds, payload)`` or ``("err", text)``.
    The loop exits on ``("close",)``, a broken pipe (master died), or an
    injected ``("die",)`` used by the fault tests.
    """
    arena = SharedArena.attach(cfg["arena_name"], cfg["layout"])
    weights = arena.view("weights")
    patterns = PatternAlignment(
        taxa=list(cfg["taxa"]), data=arena.view("tips"), weights=weights,
        site_to_pattern=np.arange(weights.shape[0]), states=cfg["states"],
    )

    def build(owner: int, tree: Tree, backend, state: dict):
        """One slice engine over the arena's pattern data."""
        lo, hi = cfg["bounds"][owner]
        engine = build_slice_engine(patterns, np.arange(lo, hi), tree, backend, state)
        return engine, slice(lo, hi)

    worker = SliceWorker(
        ArenaLanes(arena), get_backend(cfg["backend"]), build,
        Tree.from_state(cfg["tree_state"]), [cfg["worker_id"]], cfg["state"],
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # master is gone
            break
        cmd = msg[0]
        if cmd == "die":  # fault-injection hook: no goodbye
            os._exit(17)
        try:
            if cmd == "close":
                conn.send(("ok", 0.0, None))
                break
            conn.send(("ok", *worker.timed(cmd, *msg[1:])))
        except Exception as exc:  # noqa: BLE001 - forwarded to the master
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    try:
        arena.close()
        conn.close()
    except Exception:  # pragma: no cover - teardown best-effort
        pass


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class WorkerPool(Substrate):
    """Spawn-once pool of slice workers over one shared arena.

    ``cat`` selects CAT workers (mutually exclusive with ``rates``);
    ``backend`` must be a registry *name* (or ``None``), each worker
    process resolving its own instance.  ``on_worker_failure``:
    ``"degrade"`` re-assigns a dead worker's slice to the lowest
    survivor and replays the interrupted operation; ``"abort"`` raises
    :class:`WorkerFailure`.
    """

    def __init__(
        self,
        patterns: PatternAlignment,
        tree,
        model,
        rates: GammaRates | None = None,
        *,
        n_workers: int,
        backend: str | None = None,
        cat: CatRates | None = None,
        on_worker_failure: str = "degrade",
    ) -> None:
        require_backend_name(backend, "processes")
        if on_worker_failure not in ("degrade", "abort"):
            raise ValueError("on_worker_failure must be 'degrade' or 'abort'")
        self.patterns = patterns
        self._init_state(patterns.weights, model, rates, cat, n_workers)
        self.on_worker_failure = on_worker_failure
        self.backend_name = backend
        n_patterns = patterns.n_patterns
        #: Each worker's contiguous block ``[lo, hi)`` (empty blocks at the end).
        self.bounds = [
            (a[0], a[-1] + 1) if a else (n_patterns, n_patterns)
            for a in self.distribution.assignment
        ]
        self._index = [slice(lo, hi) for lo, hi in self.bounds]
        n_rates = 1 if cat is not None else (rates.rates.shape[0] if rates else 1)
        n_states = patterns.states.n_states
        self.arena = SharedArena.create(
            n_patterns=n_patterns,
            n_rates=n_rates,
            n_states=n_states,
            n_taxa=len(patterns.taxa),
            n_workers=n_workers,
            tip_dtype=patterns.data.dtype,
        )
        self.arena.view("tips")[:] = patterns.data
        self.arena.view("weights")[:] = patterns.weights
        self.lanes = ArenaLanes(self.arena)

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self.worker_failures = 0
        self._conns = []
        self._procs = []
        cfg = {
            "bounds": self.bounds,
            "arena_name": self.arena.name,
            "layout": self.arena.layout,
            "taxa": list(patterns.taxa),
            "states": patterns.states,
            "state": self._state,
            "backend": backend,
            "tree_state": tree.to_state(),
        }
        for w in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, {**cfg, "worker_id": w}),
                daemon=True,
                name=f"repro-pool-{w}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._conns, self.arena
        )
        if _obs_server.ENABLED:
            _obs_server.register_pool(self)

    # -- liveness -------------------------------------------------------
    @property
    def alive(self) -> list[int]:
        return [w for w in range(self.n_workers) if w not in self.dead]

    def owner_of(self, worker: int) -> int:
        return self.adoptions.get(worker, worker)

    def _mark_dead(self, worker: int) -> None:
        if worker in self.dead:
            return
        self.dead.add(worker)
        self.worker_failures += 1
        proc = self._procs[worker]
        if proc.is_alive():  # pragma: no cover - pipe died first
            proc.terminate()
        proc.join(timeout=5)

    def _absorb_failures(self, failed: list[int]) -> None:
        """Apply the failure policy to worker deaths detected in a region.

        Called only when every surviving worker is quiescent (all commands
        sent in the failed region have had their replies consumed), so the
        adoption handshake below cannot interleave with in-flight work.
        Raises :class:`WorkerRestart` (degrade: caller replays the whole
        top-level operation) or :class:`WorkerFailure` (abort / nobody
        left).
        """
        for w in failed:
            self._mark_dead(w)
        if self.on_worker_failure == "abort" or not self.alive:
            raise WorkerFailure(failed[0])
        while True:
            adopter = self.alive[0]
            orphans = sorted(
                g for g in self.dead
                if self.adoptions.get(g) not in self.alive
            )
            try:
                for ghost in orphans:
                    self._conns[adopter].send(("adopt", ghost, self._state))
                    reply = self._conns[adopter].recv()
                    if reply[0] == "err":
                        raise RuntimeError(
                            f"pool worker {adopter}: {reply[1]}"
                        )
                    self.adoptions[ghost] = adopter
                break
            except (BrokenPipeError, EOFError, OSError):
                # The adopter died during the handshake; try the next one.
                self._mark_dead(adopter)
                if not self.alive:
                    raise WorkerFailure(adopter) from None
        event = {
            "dead": sorted(self.dead),
            "adopter": self.alive[0],
            "survivors": len(self.alive),
        }
        if _obs.ENABLED:
            _obs.instant("pool.worker_adopted", **event)
        if _obs_server.ENABLED:
            _obs_server.health_event("worker_death", **event)
        raise WorkerRestart(failed[0])

    # -- the fork-join region -------------------------------------------
    def _ship_tree(self, tree: Tree) -> dict:
        """Workers replay on replicas: ship the id-exact tree state."""
        return tree.to_state()

    def _region(self, label: str, *args) -> dict[int, object]:
        """One measured region: broadcast, join, account, trace.

        The sweep always completes — a worker found dead mid-region is
        noted, the remaining replies are still consumed (keeping every
        survivor quiescent), and only then is the failure policy applied.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        payload = (label, *args)
        t0 = time.perf_counter()
        sent: list[int] = []
        failed: list[int] = []
        for w in self.alive:
            try:
                self._conns[w].send(payload)
                sent.append(w)
            except (BrokenPipeError, OSError):
                failed.append(w)
        elapsed: dict[int, float] = {}
        payloads: dict[int, object] = {}
        errors: list[tuple[int, str]] = []
        for w in sent:
            try:
                reply = self._conns[w].recv()
            except (EOFError, OSError):
                failed.append(w)
                continue
            if reply[0] == "err":
                errors.append((w, reply[1]))
                continue
            elapsed[w] = float(reply[1])
            payloads[w] = reply[2]
        region_s = time.perf_counter() - t0
        if errors:
            w, err = errors[0]
            raise RuntimeError(f"pool worker {w}: {err}")
        if failed:
            self._absorb_failures(failed)
        self.barrier_stats.record(region_s, list(elapsed.values()))
        if _obs.ENABLED:
            tracer = _obs.get_tracer()
            tracer.add_complete(
                f"pool.region.{label}", t0, t0 + region_s,
                args={"workers": len(elapsed)},
            )
            for w, secs in elapsed.items():
                tracer.add_complete(
                    f"pool.{label}", t0, t0 + secs, track=f"worker-{w}"
                )
        return payloads

    # -- fault-injection hook -------------------------------------------
    def kill_worker(self, worker: int) -> None:
        """Test hook: hard-kill one worker (PR 4 rank-death made real)."""
        if worker in self.dead:
            return
        try:
            self._conns[worker].send(("die",))
        except (BrokenPipeError, OSError):
            pass
        self._procs[worker].join(timeout=5)

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink the arena. Idempotent."""
        self._closed = True
        self._finalizer()  # runs _shutdown once


def _shutdown(procs, conns, arena) -> None:
    """Say goodbye, close pipes, join/terminate workers, unlink the arena.

    Workers are told to exit and the pipes closed *before* any join, so
    a pool dropped without :meth:`WorkerPool.close` does not wait out the
    join timeout.  Closing alone is not enough: a forked worker holds
    inherited copies of the master's pipe ends, so its ``recv`` would
    never see ``EOFError``.
    """
    for conn in conns:
        try:
            conn.send(("close",))  # no reply awaited
        except OSError:  # a dead worker's broken pipe
            pass
        conn.close()
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2)
    arena.close()
