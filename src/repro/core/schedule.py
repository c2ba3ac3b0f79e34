"""Execution-plan scheduling: wave statistics.

The planner (:func:`repro.core.traversal.levelize`) folds a traversal
descriptor into an :class:`~repro.core.traversal.ExecutionPlan` of
dependency *waves*; :meth:`LikelihoodEngine.execute_plan` runs such a
plan wave by wave, and every op of every wave goes through the engine's
one per-op path — resolve the two operands, let the rate model combine
them, store the result.

Every executed wave's width, kernel mix, seconds and bytes are folded
into the engine's :class:`WaveStats`, the quantity
:mod:`repro.perf.trace` attaches to kernel traces so the analytic cost
model can separate serial-depth cost (one per wave) from parallel-width
cost (one per op).

Several plans advancing together (site slices, partitions) need no
plan of their own: the sliced engine's substrate runs wave ``k`` of
every slice's plan in one lock-step wave
(:mod:`repro.parallel.substrate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WaveStats"]


@dataclass
class WaveStats:
    """Running totals over every wave an engine has run.

    ``plans``/``waves``/``ops`` count executed plans (non-empty only),
    their waves and ops; ``max_width`` is the widest wave seen (the
    exploitable thread parallelism); ``seconds``/``bytes_moved``
    accumulate wall time and backend traffic attributed to wave
    execution.  Like the kernel counters, the totals are **cumulative
    across runs** — call :meth:`reset` (or ``engine.reset_profile()``)
    for per-run numbers.
    """

    plans: int = 0
    waves: int = 0
    ops: int = 0
    max_width: int = 0
    seconds: float = 0.0
    bytes_moved: int = 0
    kernel_mix: dict[str, int] = field(default_factory=dict)

    @property
    def mean_width(self) -> float:
        return self.ops / self.waves if self.waves else 0.0

    def merge(self, other: "WaveStats") -> "WaveStats":
        """Fold another engine's stats into this one (in place)."""
        self.plans += other.plans
        self.waves += other.waves
        self.ops += other.ops
        self.max_width = max(self.max_width, other.max_width)
        self.seconds += other.seconds
        self.bytes_moved += other.bytes_moved
        for kind, n in other.kernel_mix.items():
            self.kernel_mix[kind] = self.kernel_mix.get(kind, 0) + n
        return self

    def reset(self) -> None:
        self.plans = 0
        self.waves = 0
        self.ops = 0
        self.max_width = 0
        self.seconds = 0.0
        self.bytes_moved = 0
        self.kernel_mix.clear()

    def to_dict(self) -> dict:
        """JSON-ready summary (attached to kernel traces)."""
        return {
            "plans": self.plans,
            "waves": self.waves,
            "ops": self.ops,
            "max_width": self.max_width,
            "mean_width": self.mean_width,
            "seconds": self.seconds,
            "bytes_moved": self.bytes_moved,
            "kernel_mix": dict(self.kernel_mix),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WaveStats":
        stats = cls(
            plans=int(d.get("plans", 0)),
            waves=int(d.get("waves", 0)),
            ops=int(d.get("ops", 0)),
            max_width=int(d.get("max_width", 0)),
            seconds=float(d.get("seconds", 0.0)),
            bytes_moved=int(d.get("bytes_moved", 0)),
        )
        stats.kernel_mix = {
            str(k): int(v) for k, v in d.get("kernel_mix", {}).items()
        }
        return stats
