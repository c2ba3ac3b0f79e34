#!/usr/bin/env python
"""All-branch gradient benchmark: one bidirectional traversal vs 2N-3
per-branch ``derivativeSum`` sweeps.

Both contenders start from the same validated engine (post-order CLAs
valid at the default virtual root) and produce first/second lnL
derivatives for every branch:

* **per-branch cold** is the classic baseline without incremental CLA
  reuse: every one of the ``2N - 3`` re-rootings pays a full post-order
  traversal (``N - 2`` newviews), O(N^2) kernel calls total;
* **per-branch warm** is the same loop on this repo's directed CLA
  store, which keeps every CLA across re-rootings: each of the ``2N - 4``
  directions away from the first root is computed once, so the loop is
  linear too, at a ``derivativeSum`` + ``derivativeCore`` pair per
  branch;
* **one-traversal** (``all_branch_gradients``) reuses the valid CLAs
  toward the root and computes the ``2N - 4`` other directions plus
  ``2N - 3`` fused edge gradients — O(N) kernel calls, no re-rooting.

A ``taxa_scaling`` section sweeps the taxon count at a fixed small width
so the committed JSON shows the O(N^2) -> O(N) derivative-phase
kernel-call collapse directly.

Usage::

    PYTHONPATH=src python benchmarks/bench_gradients.py [--quick]
        [--out BENCH_gradients.json] [--sites 1000 10000 100000]

Writes a JSON report (default ``BENCH_gradients.json``) and exits
non-zero if the two contenders' derivatives diverge beyond 1e-8
(relative), if the one-traversal or warm per-branch path fails its
exact kernel-call count, or if the cold per-branch path stops being
quadratic.
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

DEFAULT_SITES = (1_000, 10_000, 100_000)
N_TAXA = 16
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


def make_engine(n_sites: int) -> LikelihoodEngine:
    return LikelihoodEngine(
        make_patterns(N_TAXA, n_sites), balanced_tree(N_TAXA),
        gtr(), GammaRates(0.8, 4), backend=BACKEND,
    )


def per_branch_gradients(
    engine: LikelihoodEngine, cold: bool = False
) -> dict[int, tuple]:
    """The pre-IR path: re-root ``derivativeSum`` at every branch.

    ``cold=True`` drops the CLA cache before each branch, modelling the
    classic implementation that re-traverses the whole tree per
    re-rooting (no signature-gated incremental reuse) — the O(N^2)
    baseline the one-traversal sweep replaces.
    """
    out = {}
    for eid in sorted(engine.tree.edge_ids):
        if cold:
            engine.drop_caches()
        sumbuf = engine.edge_sum_buffer(eid)
        _, d1, d2 = engine.branch_derivatives(
            sumbuf, engine.tree.edge(eid).length
        )
        out[eid] = (d1, d2)
    return out


def derivative_phase_calls(engine: LikelihoodEngine) -> dict[str, int]:
    """Merged kernel calls since the last counter reset."""
    return {k: n for k, n in engine.counters.merged().items() if n}


def bench_width(n_sites: int, repeats: int) -> dict:
    n_branches = 2 * N_TAXA - 3

    def run(mode) -> tuple[float, dict[int, tuple], dict[str, int]]:
        best, result, calls = float("inf"), None, None
        for _ in range(repeats):
            engine = make_engine(n_sites)
            engine.log_likelihood()  # both contenders start from valid CLAs
            engine.reset_profile()
            t0 = time.perf_counter()
            result = mode(engine)
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best, calls = elapsed, derivative_phase_calls(engine)
        return best, result, calls

    cold_s, _, cold_calls = run(lambda e: per_branch_gradients(e, cold=True))
    naive_s, naive, naive_calls = run(per_branch_gradients)
    sweep_s, sweep, sweep_calls = run(lambda e: e.all_branch_gradients())

    worst = 0.0
    for eid in naive:
        for a, b in zip(sweep[eid], naive[eid]):
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))

    return {
        "sites": n_sites,
        "n_taxa": N_TAXA,
        "n_branches": n_branches,
        "per_branch_cold_s": cold_s,
        "per_branch_s": naive_s,
        "one_traversal_s": sweep_s,
        "speedup_one_traversal": naive_s / sweep_s,
        "speedup_vs_cold": cold_s / sweep_s,
        "max_rel_derivative_diff": worst,
        "per_branch_cold_calls": cold_calls,
        "per_branch_calls": naive_calls,
        "one_traversal_calls": sweep_calls,
        "per_branch_cold_total_calls": sum(cold_calls.values()),
        "per_branch_total_calls": sum(naive_calls.values()),
        "one_traversal_total_calls": sum(sweep_calls.values()),
    }


def taxa_scaling(taxa: tuple[int, ...], n_sites: int = 64) -> list[dict]:
    """Derivative-phase kernel calls vs taxon count for every contender,
    each on its own engine with the CLAs toward the default root valid."""
    rows = []
    for n_taxa in taxa:
        patterns = make_patterns(n_taxa, n_sites)

        def count(mode) -> int:
            engine = LikelihoodEngine(
                patterns, balanced_tree(n_taxa),
                gtr(), GammaRates(0.8, 4), backend=BACKEND,
            )
            engine.log_likelihood()
            engine.reset_profile()
            mode(engine)
            return sum(engine.counters.merged().values())

        rows.append({
            "n_taxa": n_taxa,
            "n_branches": 2 * n_taxa - 3,
            "per_branch_cold_calls": count(
                lambda e: per_branch_gradients(e, cold=True)
            ),
            "per_branch_calls": count(per_branch_gradients),
            "one_traversal_calls": count(lambda e: e.all_branch_gradients()),
        })
    return rows


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
        help="timing repeats per width (default: 5, or 2 with --quick)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_gradients.json",
        help="JSON report path",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (2 if args.quick else 5)
    sites = args.sites or ([1_000, 10_000] if args.quick else list(DEFAULT_SITES))

    rows = []
    print(f"{'sites':>9}  {'cold':>12}  {'per-branch':>12}  {'one-trav':>12}  "
          f"{'speedup':>7}  {'calls (cold/warm/one)':>21}  {'maxdiff':>9}")
    for n_sites in sorted(sites):
        row = bench_width(n_sites, repeats)
        rows.append(row)
        print(
            f"{n_sites:>9}  "
            f"{row['per_branch_cold_s'] * 1e3:>10.3f}ms  "
            f"{row['per_branch_s'] * 1e3:>10.3f}ms  "
            f"{row['one_traversal_s'] * 1e3:>10.3f}ms  "
            f"{row['speedup_one_traversal']:>6.2f}x  "
            f"{row['per_branch_cold_total_calls']:>6}/"
            f"{row['per_branch_total_calls']}/"
            f"{row['one_traversal_total_calls']:<4}  "
            f"{row['max_rel_derivative_diff']:>9.2e}"
        )

    scaling = taxa_scaling((8, 16, 32, 64) if args.quick else (8, 16, 32, 64, 128))
    print("\nderivative-phase kernel calls vs taxa (cold O(N^2) -> one-traversal O(N)):")
    for s in scaling:
        print(
            f"  N={s['n_taxa']:>4}: cold {s['per_branch_cold_calls']:>6}  "
            f"warm {s['per_branch_calls']:>5}  "
            f"one-traversal {s['one_traversal_calls']:>4}"
        )

    report = {
        "benchmark": (
            "all-branch derivatives from valid CLAs: 2N-3 re-rooted "
            "derivativeSum sweeps vs one bidirectional traversal, "
            "balanced tree, compiled backend, best of repeats"
        ),
        "backend": BACKEND,
        "n_taxa": N_TAXA,
        "repeats": repeats,
        "quick": args.quick,
        "results": rows,
        "taxa_scaling": scaling,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = False
    n_branches = 2 * N_TAXA - 3
    linear_budget = (N_TAXA - 2) + (2 * N_TAXA - 4) + n_branches
    for row in rows:
        if row["max_rel_derivative_diff"] > 1e-8:
            print(
                f"FAIL: derivative divergence "
                f"{row['max_rel_derivative_diff']:.2e} at {row['sites']} "
                "sites (gate: 1e-8)",
                file=sys.stderr,
            )
            failed = True
        # Both contenders start with the N - 2 CLAs toward the root valid,
        # so each computes exactly the 2N - 4 other directions.
        one = row["one_traversal_calls"]
        if one.get("newview", 0) != 2 * N_TAXA - 4 or one.get(
            "edge_gradient", 0
        ) != n_branches:
            print(
                f"FAIL: one-traversal kernel mix {one} is not the O(N) "
                f"budget (newview {2 * N_TAXA - 4}, edge_gradient "
                f"{n_branches}) at {row['sites']} sites",
                file=sys.stderr,
            )
            failed = True
        if row["one_traversal_total_calls"] > linear_budget:
            print(
                f"FAIL: one-traversal used "
                f"{row['one_traversal_total_calls']} kernel calls "
                f"(O(N) budget: {linear_budget}) at {row['sites']} sites",
                file=sys.stderr,
            )
            failed = True
        warm = row["per_branch_calls"]
        if warm.get("newview", 0) != 2 * N_TAXA - 4:
            print(
                f"FAIL: warm per-branch kernel mix {warm} recomputes "
                f"directed CLAs (newview {2 * N_TAXA - 4} expected) at "
                f"{row['sites']} sites",
                file=sys.stderr,
            )
            failed = True
        quadratic_floor = n_branches * (N_TAXA - 2)
        if row["per_branch_cold_total_calls"] < quadratic_floor:
            print(
                f"FAIL: cold per-branch used only "
                f"{row['per_branch_cold_total_calls']} calls "
                f"(expected >= {quadratic_floor}) — no longer the O(N^2) "
                "baseline",
                file=sys.stderr,
            )
            failed = True
    # the scaling sweep must show quadratic cold growth vs linear sweep
    big = scaling[-1]
    if big["per_branch_cold_calls"] < big["n_branches"] * (big["n_taxa"] - 2):
        print("FAIL: taxa scaling lost its quadratic cold baseline",
              file=sys.stderr)
        failed = True
    if big["one_traversal_calls"] > 5 * big["n_taxa"]:
        print(
            f"FAIL: one-traversal not O(N): {big['one_traversal_calls']} "
            f"calls at N={big['n_taxa']}",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    last = rows[-1]
    print(
        f"OK: one traversal = {last['one_traversal_total_calls']} kernel "
        f"calls vs {last['per_branch_total_calls']} per-branch "
        f"({last['speedup_one_traversal']:.2f}x wall at {last['sites']} sites), "
        "parity 1e-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
