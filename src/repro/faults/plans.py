"""Named built-in fault plans and JSON plan loading.

The ``repro faults`` subcommand (and the CI fault-injection job) refer
to plans by name; each name maps to a factory so every run gets a fresh
plan instance (plans are stateful flight recorders).  Every named plan
schedules a kind a search consults (``crash-at-step``,
``crash-in-write``), so each fires under ``repro faults``.  Custom
schedules load from JSON via :func:`plan_from_json`::

    {"seed": 7, "specs": [
        {"kind": "allreduce-timeout", "probability": 0.05},
        {"kind": "crash-at-step", "step": 4}
    ]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .plan import FaultPlan, FaultSpec

__all__ = ["PlanInfo", "available_plans", "make_plan", "plan_from_json"]


@dataclass(frozen=True)
class PlanInfo:
    """A registry entry: name, description, and spec factory."""

    name: str
    description: str
    specs: tuple[FaultSpec, ...]


_REGISTRY: dict[str, PlanInfo] = {}


def _register(name: str, description: str, *specs: FaultSpec) -> None:
    _REGISTRY[name] = PlanInfo(name=name, description=description, specs=specs)


_register(
    "none",
    "no faults (baseline control)",
)
_register(
    "crash-midsearch",
    "the process dies at search step 4 (resume from checkpoint)",
    FaultSpec(kind="crash-at-step", step=4),
)
_register(
    "crash-early",
    "the process dies at search step 1 (before model optimisation)",
    FaultSpec(kind="crash-at-step", step=1),
)
_register(
    "double-crash",
    "the process dies at steps 3 and 5 — two resume cycles",
    FaultSpec(kind="crash-at-step", step=3),
    FaultSpec(kind="crash-at-step", step=5),
)
_register(
    "crash-in-write",
    "killed between fsync and rename on the 2nd checkpoint write",
    FaultSpec(kind="crash-in-write", at_calls=(1,)),
)


def available_plans() -> list[PlanInfo]:
    """Registered plans in registration order."""
    return list(_REGISTRY.values())


def make_plan(name: str, seed: int = 0) -> FaultPlan:
    """A fresh :class:`FaultPlan` instance for a registered name."""
    try:
        info = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown fault plan {name!r} (known: {known})") from None
    return FaultPlan(info.specs, seed=seed, name=name)


def plan_from_json(source: str | Path | dict, seed: int | None = None) -> FaultPlan:
    """Load a custom plan from a JSON file path or an already-parsed dict.

    The document holds ``specs`` (a list of :class:`FaultSpec` field
    dicts) and an optional ``seed``/``name``; a ``seed`` argument
    overrides the document's.  Malformed documents raise ``ValueError``
    naming the offending spec.
    """
    if isinstance(source, dict):
        doc = source
        origin = "<dict>"
    else:
        path = Path(source)
        origin = str(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"unreadable fault plan {origin}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("specs", []), list):
        raise ValueError(f"fault plan {origin}: expected an object with 'specs'")
    specs = []
    for i, raw in enumerate(doc.get("specs", [])):
        try:
            if "at_calls" in raw:
                raw = {**raw, "at_calls": tuple(raw["at_calls"])}
            specs.append(FaultSpec(**raw))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"fault plan {origin}: bad spec #{i}: {exc}") from exc
    plan_seed = seed if seed is not None else int(doc.get("seed", 0))
    return FaultPlan(specs, seed=plan_seed, name=str(doc.get("name", origin)))
