"""Fault taxonomy and the deterministic, seedable fault schedule.

A :class:`FaultPlan` is the single source of truth for *when things go
wrong* in a simulated run.  Instrumented call sites (AllReduce, the
search-driver step loop, the checkpoint writer) call
:meth:`FaultPlan.consult` with their fault *kind*; the plan decides —
deterministically, from the seed and the per-kind consultation index —
whether that call fails, and logs a :class:`FaultEvent` either way a
fault fires.  Two trigger styles coexist:

* **scheduled** — ``at_calls=(3, 7)`` fires on exactly the 4th and 8th
  consultation of that kind (0-based), or ``step=4`` for the
  step-indexed kinds (``crash-at-step``); reproductions of a specific
  failure timeline;
* **stochastic** — ``probability=0.05`` draws from the plan's seeded
  RNG on every consultation.  Same seed, same consultation sequence,
  same faults — runs stay replayable.

Fault kinds and where they are injected:

================== ====================================================
``allreduce-timeout``   :meth:`~repro.parallel.simmpi.SimMPI.allreduce_sum`
``rank-death``          same (a rank stops contributing mid-collective)
``crash-at-step``       the search driver's step loop (process dies)
``crash-in-write``      the checkpoint writer, *between* fsync and the
                        atomic rename (kill-mid-write simulation)
================== ====================================================
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import spans as _obs

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "AllReduceTimeout",
    "RankFailure",
    "InjectedCrash",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
]

#: Every fault kind a plan may schedule (see module docstring).
FAULT_KINDS = (
    "allreduce-timeout",
    "rank-death",
    "crash-at-step",
    "crash-in-write",
)


# ----------------------------------------------------------------------
# exception taxonomy
# ----------------------------------------------------------------------
class FaultError(RuntimeError):
    """Base class for every injected-fault failure surfaced to callers."""


class AllReduceTimeout(FaultError):
    """An AllReduce collective never completed within its deadline."""


class RankFailure(FaultError):
    """An MPI rank died; carries the dead rank's index."""

    def __init__(self, rank: int, message: str | None = None) -> None:
        super().__init__(message or f"rank {rank} failed")
        self.rank = rank


class InjectedCrash(FaultError):
    """The simulated process died (crash-at-step / crash-in-write).

    Deliberately *not* caught by the in-run recovery machinery: a crash
    means this process is gone, and recovery is a fresh process resuming
    from the last complete checkpoint (see :mod:`repro.faults.runner`).
    """

    def __init__(self, step: int, where: str = "step") -> None:
        super().__init__(f"injected crash at {where} {step}")
        self.step = step
        self.where = where


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One scheduled or stochastic fault source inside a plan.

    ``at_calls`` fires on those 0-based consultation indices of the
    spec's kind; ``step`` matches the step-indexed kinds against the
    caller-supplied ``step=`` detail; ``probability`` draws from the
    plan RNG.  ``max_fires`` bounds total fires (scheduled specs default
    to firing each listed occasion once; stochastic specs default to
    unlimited).  ``rank`` names the victim for ``rank-death``.
    """

    kind: str
    probability: float = 0.0
    at_calls: tuple[int, ...] = ()
    step: int | None = None
    rank: int | None = None
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if (
            self.probability == 0.0
            and not self.at_calls
            and self.step is None
        ):
            raise ValueError(
                "inert FaultSpec: needs probability, at_calls, or step"
            )

    @property
    def fire_budget(self) -> float:
        """Effective fire bound: explicit ``max_fires`` or the default."""
        if self.max_fires is not None:
            return self.max_fires
        if self.probability > 0.0:
            return float("inf")
        # scheduled-only: one fire per listed occasion
        return len(self.at_calls) + (1 if self.step is not None else 0)


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the plan's flight recorder)."""

    kind: str
    consult_index: int
    spec_index: int
    detail: dict


class FaultPlan:
    """Deterministic, seedable fault schedule consulted by call sites.

    The plan is stateful: it counts consultations per kind, draws from
    one seeded RNG, bounds each spec's fires, and appends every fired
    fault to :attr:`events`.  Replays are exact: the same seed and the
    same sequence of ``consult`` calls produce the same faults.  A plan
    instance is meant to span a whole simulated *machine lifetime* —
    the survival runner keeps one plan across crash/resume cycles so a
    once-only crash does not re-fire after restart.
    """

    def __init__(
        self,
        specs: list[FaultSpec] | tuple[FaultSpec, ...] = (),
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self.name = name
        self.events: list[FaultEvent] = []
        self._rng = np.random.default_rng(seed)
        self._consults: dict[str, int] = defaultdict(int)
        self._fires: dict[int, int] = defaultdict(int)

    # -- core ----------------------------------------------------------
    def consult(self, kind: str, **detail) -> FaultSpec | None:
        """Does the next occasion of ``kind`` fault?  Returns the spec.

        Step-indexed kinds pass ``step=`` in ``detail`` and match specs
        by ``spec.step``; other specs match by ``at_calls`` against the
        per-kind consultation counter or by a seeded probability draw.
        The first matching spec wins.  Fired faults are appended to
        :attr:`events` and emitted as obs counters/instants.
        """
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        index = self._consults[kind]
        self._consults[kind] = index + 1
        for spec_index, spec in enumerate(self.specs):
            if spec.kind != kind:
                continue
            if self._fires[spec_index] >= spec.fire_budget:
                continue
            if spec.step is not None:
                hit = detail.get("step") == spec.step
            else:
                hit = index in spec.at_calls
                if not hit and spec.probability > 0.0:
                    hit = self._rng.random() < spec.probability
            if hit:
                self._fires[spec_index] += 1
                event = FaultEvent(
                    kind=kind,
                    consult_index=index,
                    spec_index=spec_index,
                    detail=dict(detail),
                )
                self.events.append(event)
                self._emit(event)
                return spec
        return None

    def _emit(self, event: FaultEvent) -> None:
        if not _obs.ENABLED:
            return
        _obs.instant(
            "fault.injected", kind=event.kind, consult=event.consult_index,
            **{k: v for k, v in event.detail.items() if isinstance(v, (int, float, str))},
        )
        reg = _obs_metrics.get_registry()
        reg.counter(
            "repro_faults_injected_total", "faults fired by the active plan"
        ).inc()
        reg.counter(
            "repro_faults_" + event.kind.replace("-", "_") + "_total",
            f"'{event.kind}' faults fired",
        ).inc()

    # -- convenience wrappers (one per injection site) -----------------
    def crash_at_step(self, step: int) -> bool:
        """Search-driver hook: should the process die at ``step``?"""
        return self.consult("crash-at-step", step=step) is not None

    def crash_in_write(self, target: str) -> bool:
        """Checkpoint-writer hook: die between fsync and rename?"""
        return self.consult("crash-in-write", target=target) is not None

    def rank_death(self, n_ranks: int) -> int | None:
        """Collective hook: the rank that dies now, or ``None``."""
        spec = self.consult("rank-death", n_ranks=n_ranks)
        if spec is None:
            return None
        if spec.rank is not None:
            return spec.rank % n_ranks
        return int(self._rng.integers(n_ranks))

    # -- reporting -----------------------------------------------------
    @property
    def n_fired(self) -> int:
        return len(self.events)

    def consults(self, kind: str) -> int:
        """How many times ``kind`` has been consulted so far."""
        return self._consults[kind]

    def summary(self) -> dict[str, int]:
        """Fired-fault counts per kind (only kinds that fired appear)."""
        out: dict[str, int] = defaultdict(int)
        for event in self.events:
            out[event.kind] += 1
        return dict(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"{len(self.specs)} specs"
        return f"FaultPlan({label}, seed={self.seed}, fired={self.n_fired})"
