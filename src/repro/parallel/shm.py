"""Shared-memory arena for what crosses a process boundary.

In the paper's PThreads scheme each worker computes its own site slice
and the master does the reductions (Sec. V-C): no worker ever reads
another worker's conditional likelihood arrays.  So a fork-join region
needs shared only what the master hands out (tip codes, pattern
weights) and what it reads back (the result lanes); CLAs and scale
counters stay in each worker's private
:class:`~repro.core.memsave.ClaStore`.

:class:`SharedArena` holds exactly those regions for *process* workers
using :mod:`multiprocessing.shared_memory`: one segment, carved into
named regions whose pattern axis is sliced per worker (contiguous block
distribution, so a worker's lane is a plain ndarray slice — zero copies
on either side of a region boundary).

Region map (``p`` = patterns, ``c`` = rate categories, ``k`` = states)::

    tips     (n_taxa, p)  tip state codes     read-only after creation
    weights  (p,)         pattern weights     read-only after creation
    site     (p,)         per-site lnL lane   worker-written, master-read
    terms    (3, p)       derivative site terms (l, l', l'')
    sumbuf   (p, c, k)    the live ``derivativeSum`` buffer (an adopter
                          of a dead worker's slice reads it back)
    partial  (workers, 4) per-worker partial reductions (accounting lane)

The module tracks every segment this process created;
:func:`active_arena_segments` lets tests and CI assert that engines
leak nothing after ``close()``.
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ARENA_PREFIX",
    "ArenaLayout",
    "SharedArena",
    "active_arena_segments",
]

#: Name prefix of every arena segment (leak checks grep for this).
ARENA_PREFIX = "repro-arena"

#: Names of segments created by this process and not yet unlinked.
_LIVE_SEGMENTS: dict[str, "weakref.ref[SharedArena]"] = {}


@dataclass(frozen=True)
class ArenaLayout:
    """Byte layout of one arena: ``name -> (offset, shape, dtype str)``.

    Frozen and picklable so spawn-start workers can attach by
    ``(segment name, layout)`` alone.
    """

    regions: tuple[tuple[str, int, tuple[int, ...], str], ...]
    total_bytes: int

    def region(self, name: str) -> tuple[int, tuple[int, ...], str]:
        for rname, offset, shape, dtype in self.regions:
            if rname == name:
                return offset, shape, dtype
        raise KeyError(f"no arena region named {name!r}")


def _build_layout(specs: list[tuple[str, tuple[int, ...], np.dtype]]) -> ArenaLayout:
    regions = []
    offset = 0
    for name, shape, dtype in specs:
        # 64-byte alignment per region: cache-line (and AVX-512 vector)
        # friendly, mirroring the paper's aligned CLA allocations.
        offset = (offset + 63) & ~63
        regions.append((name, offset, tuple(int(s) for s in shape), str(dtype)))
        offset += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    return ArenaLayout(regions=tuple(regions), total_bytes=max(offset, 1))


class SharedArena:
    """One shared-memory segment holding all cross-process PLF state.

    Create with :meth:`create` (master), attach with :meth:`attach`
    (spawn-start workers; fork-start workers simply inherit the object).
    ``close()`` drops this process's mapping; ``unlink()`` (owner only)
    removes the segment from the system.  A :mod:`weakref` finalizer
    and an :mod:`atexit` hook unlink owned segments even when a driver
    forgets, so crashed tests cannot strand ``/dev/shm`` entries.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, layout: ArenaLayout, owner: bool
    ) -> None:
        self._shm = shm
        self.layout = layout
        self.owner = owner
        self.name = shm.name
        self._views: dict[str, np.ndarray] = {}
        self._closed = False
        if owner:
            _LIVE_SEGMENTS[self.name] = weakref.ref(self)
            self._finalizer = weakref.finalize(
                self, _cleanup_segment, shm, self.name
            )
        else:
            self._finalizer = weakref.finalize(self, _close_only, shm)

    # -- construction --------------------------------------------------
    @classmethod
    def create(
        cls,
        n_patterns: int,
        n_rates: int,
        n_states: int,
        n_taxa: int,
        n_workers: int,
        tip_dtype: "np.dtype | str" = np.uint8,
    ) -> "SharedArena":
        specs = [
            ("tips", (n_taxa, n_patterns), np.dtype(tip_dtype)),
            ("weights", (n_patterns,), np.dtype(np.float64)),
            ("site", (n_patterns,), np.dtype(np.float64)),
            ("terms", (3, n_patterns), np.dtype(np.float64)),
            ("sumbuf", (n_patterns, n_rates, n_states), np.dtype(np.float64)),
            ("partial", (n_workers, 4), np.dtype(np.float64)),
        ]
        layout = _build_layout(specs)
        name = f"{ARENA_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=layout.total_bytes
        )
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, name: str, layout: ArenaLayout) -> "SharedArena":
        """Map an existing segment (worker side).

        Python's per-process resource tracker assumes whoever opens a
        segment co-owns it and would unlink it (with a warning) when the
        worker exits; the master owns arena lifetime here.  Registration
        is suppressed for the duration of the open (rather than
        register-then-unregister): under the fork start method workers
        share the master's tracker, whose cache is a *set*, so a worker's
        unregister would silently delete the master's own registration.
        This is the standard workaround until ``SharedMemory(track=False)``
        (3.13) is available.
        """
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_register(rname, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original_register(rname, rtype)

        resource_tracker.register = _no_register
        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original_register
        return cls(shm, layout, owner=False)

    # -- views ----------------------------------------------------------
    def view(self, name: str) -> np.ndarray:
        """Full ndarray over one region (cached; zero-copy)."""
        v = self._views.get(name)
        if v is None:
            offset, shape, dtype = self.layout.region(name)
            v = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)
            self._views[name] = v
        return v

    @property
    def nbytes(self) -> int:
        return self.layout.total_bytes

    # -- lifetime -------------------------------------------------------
    def close(self) -> None:
        """Unmap (and, for the owner, unlink) the segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        self._finalizer.detach()
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a view; the mapping
            pass  # dies with the process, but the unlink below must run
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_SEGMENTS.pop(self.name, None)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cleanup_segment(shm: shared_memory.SharedMemory, name: str) -> None:
    """Finalizer for owned arenas: unmap + unlink, never raise."""
    try:
        shm.close()
        shm.unlink()
    except Exception:  # pragma: no cover - best-effort teardown
        pass
    _LIVE_SEGMENTS.pop(name, None)


def _close_only(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except Exception:  # pragma: no cover - best-effort teardown
        pass


def active_arena_segments() -> list[str]:
    """Arena segments currently visible to this process.

    Combines the in-process registry of owned segments with a scan of
    ``/dev/shm`` (where Linux backs POSIX shared memory), so the leak
    check also catches segments stranded by a dead process.
    """
    names = {
        name for name, ref in list(_LIVE_SEGMENTS.items()) if ref() is not None
    }
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        try:
            for entry in os.listdir(shm_dir):
                if entry.startswith(ARENA_PREFIX):
                    names.add(entry)
        except OSError:  # pragma: no cover - scan is best-effort
            pass
    return sorted(names)


@atexit.register
def _unlink_leftovers() -> None:  # pragma: no cover - interpreter teardown
    for name, ref in list(_LIVE_SEGMENTS.items()):
        arena = ref()
        if arena is not None:
            arena.close()
