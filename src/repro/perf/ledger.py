"""Perf-regression ledger: one schema for every benchmark artifact.

The repo's performance story used to live in five loose ``BENCH_*.json``
files, each with its own ad-hoc shape — comparable only by eyeball.
This module turns that trajectory into a queryable artifact, following
the Gysela Xeon Phi study's methodology of treating measured kernel
timings as first-class, comparable data across configurations:

* :class:`LedgerEntry` — the unit row: a benchmark id, a *config
  fingerprint* (stable hash of the parameters that make two runs
  comparable), a flat ``metric name -> float`` mapping, and host info;
* :class:`Ledger` — an append-only collection with atomic JSON
  persistence (``PERF_LEDGER.json`` at the repo root is the committed
  baseline);
* :func:`entries_from_report` — adapters that ingest each of the four
  legacy ``BENCH_*.json`` shapes (obs overhead, backends, gradients,
  parallel scaling) into ledger entries, so history is not lost;
* :func:`compare` — the regression diff: matches entries across two
  ledgers by ``(benchmark, fingerprint)``, classifies each shared
  metric as lower-better or higher-better by name convention, and
  flags relative movements beyond a threshold.

The CLI front end is ``repro bench``: run suites and append entries,
``repro bench --compare BASELINE`` to diff and exit nonzero on
regression (``--report-only`` for advisory CI lanes).
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA",
    "DEFAULT_THRESHOLD",
    "LedgerEntry",
    "Ledger",
    "MetricDelta",
    "config_fingerprint",
    "host_info",
    "entries_from_report",
    "load_report",
    "metric_direction",
    "compare",
    "render_compare",
]

#: Schema tag written into every ledger file.
SCHEMA = "repro-perf-ledger/1"

#: Default relative-change threshold for :func:`compare` (10%).
DEFAULT_THRESHOLD = 0.10

#: Name fragments marking a metric as lower-is-better (durations,
#: overheads) — checked before the higher-is-better set.
_LOWER_BETTER_SUFFIXES = ("_s", "_seconds", "_ns", "_us", "_ms")
_LOWER_BETTER_SUBSTRINGS = ("overhead",)

#: Name fragments marking a metric as higher-is-better.
_HIGHER_BETTER_SUBSTRINGS = ("speedup",)


def config_fingerprint(config: dict) -> str:
    """Stable short hash of the parameters that make runs comparable.

    Canonical-JSON SHA-256, truncated to 12 hex chars — collisions
    across a repo's worth of benchmark configs are not a concern, and
    short fingerprints keep the ledger and CLI output readable.
    """
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def host_info() -> dict:
    """Where a benchmark ran: platform, python, numpy, CPU budget."""
    import os

    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
    }


@dataclass
class LedgerEntry:
    """One benchmark measurement: who ran, under what config, measuring what.

    ``metrics`` is flat (``name -> float``); nested structure from the
    source report is flattened with dotted keys, so every number stays
    individually addressable by :func:`compare`.
    """

    benchmark: str
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    host: dict = field(default_factory=dict)
    fingerprint: str = ""
    source: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = config_fingerprint(self.config)

    @property
    def key(self) -> tuple[str, str]:
        """The identity :func:`compare` matches entries on."""
        return (self.benchmark, self.fingerprint)

    def to_dict(self) -> dict:
        """JSON-ready row."""
        return {
            "benchmark": self.benchmark,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "metrics": self.metrics,
            "host": self.host,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LedgerEntry":
        """Inverse of :meth:`to_dict` (unknown keys ignored)."""
        return cls(
            benchmark=d["benchmark"],
            config=d.get("config", {}),
            metrics=d.get("metrics", {}),
            host=d.get("host", {}),
            fingerprint=d.get("fingerprint", ""),
            source=d.get("source", ""),
        )


class Ledger:
    """Append-only collection of :class:`LedgerEntry` rows."""

    def __init__(self, entries: list[LedgerEntry] | None = None) -> None:
        self.entries: list[LedgerEntry] = list(entries or [])

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: LedgerEntry) -> None:
        """Add one row."""
        self.entries.append(entry)

    def extend(self, entries: list[LedgerEntry]) -> None:
        """Add several rows."""
        self.entries.extend(entries)

    def by_key(self) -> dict[tuple[str, str], LedgerEntry]:
        """Latest entry per ``(benchmark, fingerprint)`` identity."""
        out: dict[tuple[str, str], LedgerEntry] = {}
        for e in self.entries:  # later rows win: the ledger is append-only
            out[e.key] = e
        return out

    def benchmarks(self) -> list[str]:
        """Distinct benchmark ids, sorted."""
        return sorted({e.benchmark for e in self.entries})

    def to_dict(self) -> dict:
        """JSON-ready document (schema-tagged)."""
        return {
            "schema": SCHEMA,
            "entries": [e.to_dict() for e in self.entries],
        }

    def save(self, path: str | Path) -> Path:
        """Atomically write the ledger as JSON; returns the path."""
        from ..util import atomic_write_text

        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_dict(), indent=1) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Ledger":
        """Read a ledger file; raises ``ValueError`` on schema mismatch."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict) or data.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: not a perf ledger (expected schema {SCHEMA!r})"
            )
        return cls([LedgerEntry.from_dict(d) for d in data.get("entries", [])])


# ----------------------------------------------------------------------
# legacy BENCH_*.json ingestion
# ----------------------------------------------------------------------
def _flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested dict as ``a.b.c -> float``."""
    out: dict[str, float] = {}
    if isinstance(value, bool):
        out[prefix] = float(value)
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for k, v in value.items():
            out.update(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _sniff(data: dict) -> str:
    """Which legacy report shape a raw BENCH dict is."""
    if "probe_ns" in data:
        return "obs"
    if "backends" in data and "results" in data:
        return "backends"
    if "configs" in data:
        return "parallel"
    results = data.get("results")
    if isinstance(results, list) and results:
        if "one_traversal_s" in results[0]:
            return "gradients"
    raise ValueError("unrecognised benchmark report shape")


def entries_from_report(data: dict, source: str = "") -> list[LedgerEntry]:
    """Ledger entries for one raw benchmark report dict.

    Accepts the unified shape new benchmarks emit (``{"benchmark": id,
    "entries": [{config, metrics}, ...]}``) and all four legacy
    ``BENCH_*.json`` shapes; raises ``ValueError`` on anything else.
    One entry is produced per measured configuration (per sites count,
    per worker count, ...), so comparisons stay per-config.
    """
    host = host_info()
    if isinstance(data.get("entries"), list) and "benchmark" in data:
        return [
            LedgerEntry(
                benchmark=data["benchmark"],
                config=row.get("config", {}),
                metrics=_flatten(row.get("metrics", {})),
                host=row.get("host", host),
                source=source,
            )
            for row in data["entries"]
        ]

    kind = _sniff(data)
    entries: list[LedgerEntry] = []
    if kind == "obs":
        config = {
            "backend": data.get("backend"),
            "n_taxa": data.get("n_taxa"),
            "n_sites": data.get("n_sites"),
            "probes_per_dispatch": data.get("probes_per_dispatch"),
        }
        metrics = {
            k: float(data[k])
            for k in (
                "probe_ns",
                "disabled_s",
                "disabled_ns_per_dispatch",
                "enabled_s",
                "disabled_overhead_ratio",
                "enabled_overhead_ratio",
            )
            if isinstance(data.get(k), (int, float))
        }
        entries.append(
            LedgerEntry("bench_obs", config, metrics, host, source=source)
        )
    elif kind == "backends":
        for row in data["results"]:
            config = {"sites": row.get("sites"), "backends": data["backends"]}
            metrics = _flatten(
                {k: v for k, v in row.items() if k != "sites"}
            )
            entries.append(
                LedgerEntry(
                    "bench_backends", config, metrics, host, source=source
                )
            )
    elif kind == "gradients":
        for row in data["results"]:
            config = {
                "sites": row.get("sites"),
                "n_taxa": row.get("n_taxa"),
                "backend": data.get("backend"),
            }
            metrics = _flatten(
                {
                    k: v
                    for k, v in row.items()
                    if k not in ("sites", "n_taxa")
                }
            )
            entries.append(
                LedgerEntry(
                    "bench_gradients", config, metrics, host, source=source
                )
            )
    else:  # parallel
        for cfg in data["configs"]:
            for mode, runs in cfg.get("modes", {}).items():
                for run in runs:
                    config = {
                        "sites": cfg.get("sites"),
                        "mode": mode,
                        "workers": run.get("workers"),
                    }
                    metrics = _flatten(
                        {
                            k: v
                            for k, v in run.items()
                            if k != "workers"
                        }
                    )
                    metrics["serial_seconds"] = float(
                        cfg.get("serial_seconds", 0.0)
                    )
                    entries.append(
                        LedgerEntry(
                            "bench_parallel",
                            config,
                            metrics,
                            data.get("env", host),
                            source=source,
                        )
                    )
    return entries


def load_report(path: str | Path) -> list[LedgerEntry]:
    """Read one benchmark report file into ledger entries."""
    path = Path(path)
    return entries_from_report(json.loads(path.read_text()), source=path.name)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def metric_direction(name: str) -> str | None:
    """``"lower"``/``"higher"``-is-better, or ``None`` for informational.

    Classified by name convention: duration/overhead metrics (``*_s``,
    ``*_seconds``, ``*_ns``, ``*overhead*``) want to go down, speedups
    want to go up; anything else (counts, deltas, bucket data) is not a
    regression signal on its own.
    """
    leaf = name.rsplit(".", 1)[-1]
    if any(s in leaf for s in _HIGHER_BETTER_SUBSTRINGS):
        return "higher"
    if leaf.endswith(_LOWER_BETTER_SUFFIXES) or any(
        s in leaf for s in _LOWER_BETTER_SUBSTRINGS
    ):
        return "lower"
    return None


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two ledgers."""

    benchmark: str
    fingerprint: str
    metric: str
    baseline: float
    current: float
    direction: str
    #: relative change in the *bad* direction (positive = worse)
    worsening: float

    def regressed(self, threshold: float) -> bool:
        """Whether the movement exceeds ``threshold`` the wrong way."""
        return self.worsening > threshold


def compare(
    baseline: Ledger,
    current: Ledger,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[MetricDelta], list[MetricDelta]]:
    """Diff two ledgers: ``(regressions, all_compared_deltas)``.

    Entries match on ``(benchmark, fingerprint)``; only directional
    metrics (see :func:`metric_direction`) present on both sides are
    compared.  ``worsening`` is ``current/baseline - 1`` for
    lower-is-better metrics and ``baseline/current - 1`` for
    higher-is-better ones, so "positive beyond the threshold" always
    means "got worse".  Baseline values of zero are skipped (no
    meaningful ratio).
    """
    base_by_key = baseline.by_key()
    cur_by_key = current.by_key()
    deltas: list[MetricDelta] = []
    for key in sorted(set(base_by_key) & set(cur_by_key)):
        b, c = base_by_key[key], cur_by_key[key]
        for metric in sorted(set(b.metrics) & set(c.metrics)):
            direction = metric_direction(metric)
            if direction is None:
                continue
            bv, cv = b.metrics[metric], c.metrics[metric]
            if bv <= 0 or cv <= 0:
                continue
            worsening = (
                cv / bv - 1.0 if direction == "lower" else bv / cv - 1.0
            )
            deltas.append(
                MetricDelta(
                    benchmark=key[0],
                    fingerprint=key[1],
                    metric=metric,
                    baseline=bv,
                    current=cv,
                    direction=direction,
                    worsening=worsening,
                )
            )
    regressions = [d for d in deltas if d.regressed(threshold)]
    return regressions, deltas


def render_compare(
    regressions: list[MetricDelta],
    deltas: list[MetricDelta],
    threshold: float,
) -> str:
    """Human-readable diff report for ``repro bench --compare``."""
    lines = [
        f"compared {len(deltas)} directional metrics "
        f"(threshold {threshold:.0%}): "
        f"{len(regressions)} regression(s)"
    ]
    for d in sorted(regressions, key=lambda d: -d.worsening):
        lines.append(
            f"  REGRESSED {d.benchmark}[{d.fingerprint}] {d.metric}: "
            f"{d.baseline:g} -> {d.current:g} "
            f"({d.worsening:+.1%} worse, {d.direction}-is-better)"
        )
    if not regressions and deltas:
        worst = max(deltas, key=lambda d: d.worsening)
        lines.append(
            f"  worst movement: {worst.benchmark} {worst.metric} "
            f"{worst.worsening:+.1%} (within threshold)"
        )
    return "\n".join(lines) + "\n"
