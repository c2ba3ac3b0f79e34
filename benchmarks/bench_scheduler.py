#!/usr/bin/env python
"""Scheduler benchmark: batched wave dispatch vs the per-op path.

Times a full tree validation (``ensure_valid`` from cold CLAs) on a
balanced tree with equal branch lengths — the layout where the
execution-plan IR has most to offer: every cherry's tip-tip ``newview``
shares one pair of tip lookup tables through the per-plan preparation
cache, so the ``compiled`` backend's stacked ``newview_batch`` collapses
the whole first wave into a single pair-table build plus one gather per
op, where the per-op path runs the C tip-tip kernel for every cherry.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py [--quick]
        [--out BENCH_scheduler.json] [--sites 10000 100000 1000000]

Writes a JSON report (default ``BENCH_scheduler.json``) and exits
non-zero if the two paths' CLAs diverge beyond 1e-10.  The
batched-vs-per-op ratio is reported, not gated: under ``compiled`` the
NumPy gather costs about what the C per-op kernel does (0.8-1.0x on the
committed rows), so the ratio is the evidence a later perf PR starts
from, not a claim this bench defends.
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
from repro.phylo.alignment import PatternAlignment  # noqa: E402
from repro.phylo.models import gtr  # noqa: E402
from repro.phylo.rates import GammaRates  # noqa: E402
from repro.phylo.tree import Tree  # noqa: E402

DEFAULT_SITES = (10_000, 100_000, 1_000_000)
#: Balanced 8-taxon tree: of its 6 newview ops, 3 are tip-tip cherries
#: (the case stacked dispatch collapses into one pair-table gather), one
#: is tip-inner and two are inner-inner — all three kernel kinds in play.
N_TAXA = 8
BRANCH_LENGTH = 0.1
BACKEND = "compiled"


def balanced_tree(n_leaves: int, length: float = BRANCH_LENGTH) -> Tree:
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


def time_mode(engine: LikelihoodEngine, root: int, batch: bool, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one cold full validation."""
    engine.executor.batch = batch
    best = float("inf")
    for _ in range(repeats):
        engine.drop_caches()
        t0 = time.perf_counter()
        engine.ensure_valid(root)
        best = min(best, time.perf_counter() - t0)
    return best


def cla_divergence(engine: LikelihoodEngine, root: int) -> float:
    """Max |CLA difference| between the per-op and batched paths."""
    engine.executor.batch = False
    engine.drop_caches()
    engine.ensure_valid(root)
    reference = dict(engine._clas)  # arrays are never mutated in place
    engine.executor.batch = True
    engine.drop_caches()
    engine.ensure_valid(root)
    worst = 0.0
    for node, (z, _sc) in engine._clas.items():
        z_ref, _ = reference[node]
        worst = max(worst, float(np.max(np.abs(z - z_ref))))
    return worst


def bench_width(n_sites: int, repeats: int) -> dict:
    tree = balanced_tree(N_TAXA)
    engine = LikelihoodEngine(
        make_patterns(N_TAXA, n_sites), tree, gtr(), GammaRates(0.8, 4),
        backend=BACKEND,
    )
    root = engine.default_edge()
    time_mode(engine, root, batch=True, repeats=1)  # warm-up / allocation
    per_op = time_mode(engine, root, batch=False, repeats=repeats)
    batched = time_mode(engine, root, batch=True, repeats=repeats)
    max_diff = cla_divergence(engine, root)
    engine.drop_caches()
    shape = engine.plan_execution(root)
    return {
        "sites": n_sites,
        "n_taxa": N_TAXA,
        "per_op_s": per_op,
        "batched_s": batched,
        "speedup_batched_vs_per_op": per_op / batched,
        "max_abs_cla_diff": max_diff,
        "plan": {
            "ops": shape.n_ops,
            "waves": shape.depth,
            "max_width": shape.max_width,
            "kernel_mix": {k.value: n for k, n in shape.kernel_mix().items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller widths and fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--sites", type=int, nargs="+", default=None,
        help="alignment widths to benchmark",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per width (default: 5, or 3 with --quick)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_scheduler.json",
        help="JSON report path",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.quick else 5)
    sites = args.sites or (
        [10_000, 50_000] if args.quick else list(DEFAULT_SITES)
    )

    rows = []
    print(f"{'sites':>9}  {'per-op':>11}  {'batched':>11}  {'speedup':>7}  "
          f"{'maxdiff':>9}")
    for n_sites in sorted(sites):
        row = bench_width(n_sites, repeats)
        rows.append(row)
        print(
            f"{n_sites:>9}  "
            f"{row['per_op_s'] * 1e3:>9.3f}ms  "
            f"{row['batched_s'] * 1e3:>9.3f}ms  "
            f"{row['speedup_batched_vs_per_op']:>6.2f}x  "
            f"{row['max_abs_cla_diff']:>9.2e}"
        )

    report = {
        "benchmark": (
            "cold full-tree ensure_valid, balanced tree, compiled backend, "
            "best of repeats"
        ),
        "backend": BACKEND,
        "repeats": repeats,
        "quick": args.quick,
        "results": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = False
    for row in rows:
        if row["max_abs_cla_diff"] > 1e-10:
            print(
                f"FAIL: CLA divergence {row['max_abs_cla_diff']:.2e} at "
                f"{row['sites']} sites",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print(
        f"OK: parity 1e-10; batched {rows[-1]['speedup_batched_vs_per_op']:.2f}x "
        f"over per-op at {rows[-1]['sites']} sites (reported, not gated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
