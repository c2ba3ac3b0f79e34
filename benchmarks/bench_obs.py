#!/usr/bin/env python
"""Observability overhead benchmark: enabled vs disabled dispatch cost.

The tracing subsystem promises **zero cost while disabled**: every
instrumented call site guards on the module-level ``repro.obs.spans
.ENABLED`` flag before allocating anything, so a disabled run pays one
attribute load + branch ("probe") per instrumentation point.  This
benchmark quantifies that promise three ways:

1. **probe cost** — a tight loop over the exact guard expression the
   kernel seam uses, yielding nanoseconds per probe;
2. **dispatch cost** — cold full-tree ``ensure_valid`` wall time per
   kernel dispatch with tracing *disabled* (the denominator that
   matters: the guard rides on every dispatch);
3. **enabled cost** — the same workload with tracing *enabled*, showing
   what turning the tracer on actually costs (span append + metrics
   update per dispatch).

The acceptance gate holds the *disabled* overhead —
``probe_ns x probes_per_dispatch / disabled_dispatch_ns`` — below 2%.
The probe-based formulation is deliberate: an end-to-end
disabled-vs-baseline wall-clock diff of <2% drowns in scheduler noise
on shared CI runners, while the probe cost itself is stable to a few
nanoseconds.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]
        [--out BENCH_obs.json]

Writes a JSON report (default ``BENCH_obs.json``) and exits non-zero
when the disabled-overhead gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.engine import LikelihoodEngine  # noqa: E402
from repro.obs import spans as obs_spans  # noqa: E402
from repro.obs import disable, enable, get_tracer  # noqa: E402
from repro.phylo.alignment import PatternAlignment  # noqa: E402
from repro.phylo.models import gtr  # noqa: E402
from repro.phylo.rates import GammaRates  # noqa: E402
from repro.phylo.tree import Tree  # noqa: E402

#: Guard evaluations a single kernel dispatch performs on the hot path
#: (one in ``_BackendBase._record``; wave/plan guards amortise over many
#: dispatches but are counted here anyway, erring on the high side).
PROBES_PER_DISPATCH = 3

#: The acceptance gate on disabled overhead.
MAX_DISABLED_OVERHEAD = 0.02

N_TAXA = 8
N_SITES = 2000
BACKEND = "compiled"


def balanced_tree(n_leaves: int, length: float = 0.1) -> Tree:
    """Complete balanced unrooted topology with uniform branch lengths."""
    tree = Tree()
    level = [tree.add_node(f"t{i}") for i in range(n_leaves)]
    while len(level) > 2:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            parent = tree.add_node()
            tree.add_edge(parent, level[i], length)
            tree.add_edge(parent, level[i + 1], length)
            nxt.append(parent)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    tree.add_edge(level[0], level[1], length)
    return tree


def make_patterns(n_taxa: int, n_sites: int, seed: int = 2014) -> PatternAlignment:
    """Random unambiguous DNA, kept uncompressed (patterns == sites)."""
    rng = np.random.default_rng(seed)
    data = rng.choice(
        np.array([1, 2, 4, 8], dtype=np.uint32), size=(n_taxa, n_sites)
    )
    return PatternAlignment(
        taxa=[f"t{i}" for i in range(n_taxa)],
        data=data,
        weights=np.ones(n_sites),
        site_to_pattern=np.arange(n_sites),
    )


def probe_cost_ns(loops: int) -> float:
    """Nanoseconds per disabled-guard evaluation, best of 5 runs."""
    disable()
    mod = obs_spans
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        hits = 0
        for _ in range(loops):
            if mod.ENABLED:  # the exact guard instrumented code uses
                hits += 1
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        assert hits == 0
    return best / loops * 1e9


def dispatch_cost(engine: LikelihoodEngine, root: int, repeats: int) -> tuple[float, int]:
    """(median seconds, dispatch count) for one cold full validation.

    Median, not best-of: the enabled/disabled comparison divides two of
    these numbers, and the minimum of two noisy samples underflows —
    the committed report once showed a *negative* enabled overhead.
    The median is a consistent estimator of the same central cost on
    both sides of the ratio.
    """
    times = []
    dispatches = 0
    for _ in range(repeats):
        engine.drop_caches()
        before = engine.profile.total_calls()
        t0 = time.perf_counter()
        engine.ensure_valid(root)
        times.append(time.perf_counter() - t0)
        dispatches = engine.profile.total_calls() - before
    times.sort()
    n = len(times)
    median = (
        times[n // 2] if n % 2 else (times[n // 2 - 1] + times[n // 2]) / 2
    )
    return median, dispatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer loops and repeats (CI smoke)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_obs.json",
                        help="JSON report path")
    args = parser.parse_args(argv)
    loops = 200_000 if args.quick else 2_000_000
    repeats = 3 if args.quick else 7

    probe_ns = probe_cost_ns(loops)

    engine = LikelihoodEngine(
        make_patterns(N_TAXA, N_SITES), balanced_tree(N_TAXA),
        gtr(), GammaRates(0.8, 4), backend=BACKEND,
    )
    root = engine.default_edge()
    engine.ensure_valid(root)  # warm-up / allocation

    disable()
    disabled_s, dispatches = dispatch_cost(engine, root, repeats)

    enable("bench_obs")
    enabled_s, _ = dispatch_cost(engine, root, repeats)
    n_events = get_tracer().n_events
    disable()

    disabled_ns_per_dispatch = disabled_s / dispatches * 1e9
    disabled_overhead = (
        probe_ns * PROBES_PER_DISPATCH / disabled_ns_per_dispatch
    )
    # Clamp at zero: enabled tracing cannot genuinely be faster than
    # disabled, so a negative ratio is residual measurement noise.
    enabled_overhead = max(0.0, enabled_s / disabled_s - 1.0)

    report = {
        "benchmark": (
            "obs overhead: guard probes vs cold ensure_valid dispatch, "
            "balanced tree, compiled backend, median of repeats"
        ),
        "backend": BACKEND,
        "n_taxa": N_TAXA,
        "n_sites": N_SITES,
        "repeats": repeats,
        "quick": args.quick,
        "probe_ns": probe_ns,
        "probes_per_dispatch": PROBES_PER_DISPATCH,
        "dispatches_per_validation": dispatches,
        "disabled_s": disabled_s,
        "disabled_ns_per_dispatch": disabled_ns_per_dispatch,
        "enabled_s": enabled_s,
        "enabled_events_per_validation": n_events,
        "disabled_overhead_ratio": disabled_overhead,
        "enabled_overhead_ratio": enabled_overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    print(f"probe:     {probe_ns:8.2f} ns per disabled guard")
    print(f"dispatch:  {disabled_ns_per_dispatch:8.0f} ns per kernel "
          f"dispatch ({dispatches} dispatches per validation)")
    print(f"disabled overhead: {disabled_overhead:.4%}  "
          f"(gate: < {MAX_DISABLED_OVERHEAD:.0%})")
    print(f"enabled overhead:  {enabled_overhead:+.2%} wall "
          f"({n_events} events recorded)")
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if disabled_overhead >= MAX_DISABLED_OVERHEAD:
        print(
            f"FAIL: disabled tracing costs {disabled_overhead:.4%} of "
            f"dispatch time (gate {MAX_DISABLED_OVERHEAD:.0%})",
            file=sys.stderr,
        )
        return 1
    print("PASS: disabled tracing is below the overhead gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
