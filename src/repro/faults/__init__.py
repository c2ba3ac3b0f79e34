"""repro.faults — deterministic fault injection and recovery.

The paper's application story rests on ExaML's robustness model: binary
checkpoint/restart (multi-day supercomputer runs survive job-queue
kills) and collectives that tolerate a slow or dying MPI rank.

This package supplies the *injection* half, hooked into every layer:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seedable,
  deterministic schedule of faults (AllReduce timeout, rank death,
  crash-at-step, crash-in-write) consulted by instrumented call sites,
  plus the exception taxonomy (:class:`FaultError` and friends);
* :mod:`repro.faults.retry` — :class:`RetryPolicy`, bounded exponential
  backoff with seeded jitter, used by the simulated MPI collectives;
* :mod:`repro.faults.plans` — the named built-in plans behind
  ``repro faults --plan NAME`` and :func:`plan_from_json` for custom
  schedules;
* :mod:`repro.faults.runner` — the survival harness: run a search under
  a plan, auto-resume from checkpoints after injected crashes, and
  report whether the final likelihood matches an uninterrupted run.
  (Imported lazily — ``from repro.faults import runner`` — because it
  depends on :mod:`repro.search`, which itself consults this package.)

Recovery lives where the work happens: collective retry and rank
adoption in :mod:`repro.parallel`, and crash-safe rotated checkpoints
in :mod:`repro.search.checkpoint`.  Every injected fault, retry, and
recovery emits :mod:`repro.obs` counters and instants so an exported
trace shows the full recovery timeline.
"""

from .plan import (
    AllReduceTimeout,
    FaultError,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    RankFailure,
)
from .plans import available_plans, make_plan, plan_from_json
from .retry import RetryPolicy

__all__ = [
    "FaultError",
    "AllReduceTimeout",
    "RankFailure",
    "InjectedCrash",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "available_plans",
    "make_plan",
    "plan_from_json",
]
