"""The CLA store: where conditional likelihood arrays live, and how many.

The paper's Sec. V-A lists "advanced memory saving techniques, which
rely on CLA recomputations [23]" (Izquierdo-Carrasco, Gagneur,
Stamatakis 2012) among the features its MIC port does *not* yet support
— a gap that matters on the Phi, whose 8 GB of on-card RAM is the
binding constraint for the 4000K-site dataset (Sec. VI-B2).

:class:`ClaStore` is the engine's one pool of CLAs, keyed by *directed
node* ``(node, toward_edge)``: an inner node has one CLA per incident
edge, and the pre-order partials of a gradient sweep are just the
directions a post-order walk does not visit — the single indexed buffer
pool of BEAGLE and Gangavarapu et al.  At most three entries per inner
node can be live; the engine forgets those of retired nodes and edges.
It is a mapping with a policy: with ``max_resident=None`` everything
stays resident; with a budget, at most ``max_resident`` entries do and
the least recently used one is dropped on every ``put`` beyond it.

A store only remembers.  It never computes: an entry that is gone is
recomputed by :class:`~repro.core.engine.LikelihoodEngine`, which
resolves every operand through one get-or-recompute helper and keeps
the arrays it is combining in local variables while the op runs — so an
entry evicted mid-recursion stays alive exactly as long as the op that
holds it, and the transient overshoot above the budget is the recursion
path (one CLA per tree level, the log-depth floor of paper [23]).  Any
positive budget is therefore *correct*; ``make_engine`` enforces the
documented floor of 3 (two operands and a result), below which every op
would recompute its own operands.
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs

__all__ = ["ClaStore"]


class ClaStore:
    """``key -> (z, scale)`` with an optional least-recently-used budget.

    ``max_resident`` may be set (or changed) on a live store; the next
    ``put`` trims to it.  ``recomputed`` counts entries stored again
    after the *budget* dropped them — the extra kernel work the memory
    saving costs; :meth:`clear` and :meth:`discard` are the caller's own
    forgetting and are never counted.
    """

    def __init__(self, max_resident: int | None = None) -> None:
        self.max_resident = max_resident
        self.recomputed = 0
        # Insertion order is recency order: least recently used first.
        self._entries: dict[object, tuple[np.ndarray, np.ndarray]] = {}
        self._evicted: set[object] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def nbytes(self) -> int:
        """Bytes held by the stored arrays."""
        return sum(z.nbytes + sc.nbytes for z, sc in self._entries.values())

    def get(self, key: object) -> "tuple[np.ndarray, np.ndarray] | None":
        """The stored ``(z, scale)`` (now the most recently used) or ``None``."""
        entry = self._entries.get(key)
        if entry is not None and self.max_resident is not None:
            del self._entries[key]
            self._entries[key] = entry
        return entry

    def put(self, key: object, z: np.ndarray, scale: np.ndarray) -> None:
        """Store one entry, then drop the oldest ones beyond the budget."""
        if key in self._evicted:
            self._evicted.remove(key)
            self.recomputed += 1
            if _obs.ENABLED:
                _obs.instant("cla_recompute", key=str(key))
                _obs_metrics.get_registry().counter(
                    "repro_cla_recomputes_total",
                    "extra kernel dispatches caused by CLA eviction",
                ).inc()
        if self.max_resident is None:
            self._entries[key] = (z, scale)
            return
        self._entries.pop(key, None)
        self._entries[key] = (z, scale)
        while len(self._entries) > self.max_resident:
            victim = next(iter(self._entries))
            self.discard(victim)
            self._evicted.add(victim)
            if _obs.ENABLED:
                _obs.instant("cla_evict", key=str(victim))
                _obs_metrics.get_registry().counter(
                    "repro_cla_evictions_total", "CLA slots recycled by LRU"
                ).inc()

    def discard(self, key: object) -> None:
        """Forget one entry (a CLA of a retired node or edge)."""
        self._entries.pop(key, None)
        self._evicted.discard(key)

    def clear(self) -> None:
        """Forget everything, including what the budget had dropped."""
        self._entries.clear()
        self._evicted.clear()
