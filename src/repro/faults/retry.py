"""Bounded exponential backoff with seeded jitter.

The recovery half of transient faults: a retry loop pays an increasing
*modelled* delay between attempts (the simulated runtimes account wall
time instead of sleeping, so fault-heavy tests stay fast and
deterministic) and gives up after a bounded attempt budget.  The jitter
is the standard "equal-jitter-ish" multiplicative spread that keeps
simultaneous retries from resynchronising on a shared interconnect, drawn
from the caller's seeded RNG so schedules replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule: ``base * multiplier**(attempt-1)``.

    ``max_attempts`` counts *total* tries (first attempt included), so
    ``max_attempts=4`` allows three retries.  Delays are capped at
    ``max_delay_s`` and spread by ``±jitter`` (a fraction; 0 disables).
    """

    max_attempts: int = 4
    base_delay_s: float = 100e-6
    multiplier: float = 2.0
    max_delay_s: float = 10e-3
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_s(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Modelled delay before retry number ``attempt`` (1-based).

        Attempt 1 is the first *retry* (after the first failure).  With
        an ``rng`` the delay is scaled by a uniform factor in
        ``[1 - jitter, 1 + jitter]``; without one it is the deterministic
        midpoint.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay

    def schedule(self, rng: np.random.Generator | None = None) -> list[float]:
        """The full backoff schedule (``max_attempts - 1`` delays)."""
        return [self.backoff_s(a, rng) for a in range(1, self.max_attempts)]
