#!/usr/bin/env python
"""Strong-scaling benchmark for real parallel PLF execution (PR 5).

Times full log-likelihood evaluations on the fork-join engine's real
substrates — ``threads`` (in-process pool) and ``processes`` (spawn-once
worker pool over a shared-memory arena) — against the serial engine, at
alignment widths spanning the paper's Table III range, and verifies
that every parallel result is **bit-identical** to the serial one.

Honesty note: the evaluation container for this repository exposes a
single CPU core (``os.cpu_count()`` is recorded in the report), so no
wall-clock speedup is physically possible here; the numbers quantify
the *overhead* of the parallel machinery (barrier latency, slice
dispatch, shared-memory reduction) rather than its scaling.  On a real
multi-core host the same harness produces the strong-scaling curve.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
        [--out BENCH_parallel.json] [--sites 10000 100000 1000000]
        [--workers 1 2 4 8] [--reps 2]

Writes a JSON report (default ``BENCH_parallel.json`` at the repo root)
and exits non-zero if any parallel evaluation deviates from the serial
value by even one ULP.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import LikelihoodEngine  # noqa: E402
from repro.parallel import (  # noqa: E402
    ForkJoinEngine,
    active_arena_segments,
)
from repro.phylo import GammaRates, gtr, simulate_dataset  # noqa: E402
from repro.phylo.alignment import PatternAlignment  # noqa: E402

DEFAULT_SITES = (10_000, 100_000, 1_000_000)
DEFAULT_WORKERS = (1, 2, 4, 8)
MODES = ("threads", "processes")
N_TAXA = 8


def synthetic_patterns(n_patterns: int, seed: int = 2014) -> PatternAlignment:
    """Uncompressible random DNA patterns (weight 1 each).

    Pattern compression would collapse a simulated 1M-site alignment of
    8 taxa far below 1M unique columns; random unit-weight patterns keep
    the per-site workload equal to the nominal width, which is what a
    kernel-throughput benchmark should measure.
    """
    rng = np.random.default_rng(seed)
    # DNA tip codes are bitmasks: A=1, C=2, G=4, T=8
    data = np.left_shift(
        1, rng.integers(0, 4, size=(N_TAXA, n_patterns))
    ).astype(np.int8)
    return PatternAlignment(
        taxa=[f"taxon{i:02d}" for i in range(N_TAXA)],
        data=data,
        weights=np.ones(n_patterns),
        site_to_pattern=np.arange(n_patterns),
    )


def timed_eval(engine, reps: int) -> tuple[float, float]:
    """(best seconds, lnl) over ``reps`` cold evaluations."""
    best = float("inf")
    lnl = None
    for _ in range(reps):
        engine.drop_caches()
        t0 = time.perf_counter()
        lnl = engine.log_likelihood()
        best = min(best, time.perf_counter() - t0)
    return best, lnl


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small widths / fewer configs (CI smoke)")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_parallel.json")
    ap.add_argument("--sites", type=int, nargs="+", default=None)
    ap.add_argument("--workers", type=int, nargs="+", default=None)
    ap.add_argument("--reps", type=int, default=2)
    args = ap.parse_args(argv)

    if args.quick:
        sites_list = args.sites or [2_000, 20_000]
        workers_list = args.workers or [1, 2]
        reps = 1
    else:
        sites_list = args.sites or list(DEFAULT_SITES)
        workers_list = args.workers or list(DEFAULT_WORKERS)
        reps = args.reps

    tree = simulate_dataset(n_taxa=N_TAXA, n_sites=16, seed=7).tree
    model, gamma = gtr(), GammaRates(0.9, 4)

    report = {
        "benchmark": "bench_parallel",
        "description": "strong scaling of real fork-join PLF execution",
        "env": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "cpu_count above is the honest hardware budget of this run; "
            "with a single core the parallel substrates cannot beat the "
            "serial engine, so treat per-worker times as overhead "
            "measurements, not scaling results"
        ),
        "reps": reps,
        "configs": [],
    }
    failures = 0

    for n_sites in sites_list:
        pat = synthetic_patterns(n_sites)
        serial = LikelihoodEngine(pat, tree.copy(), model, gamma)
        serial_s, serial_lnl = timed_eval(serial, reps)
        print(f"[{n_sites:>9,} sites] serial: {serial_s:.3f}s "
              f"lnL={serial_lnl:.2f}")
        entry = {
            "sites": n_sites,
            "serial_seconds": serial_s,
            "serial_lnl": serial_lnl,
            "modes": {},
        }
        for mode in MODES:
            rows = []
            for n in workers_list:
                with ForkJoinEngine(
                    pat, tree.copy(), model, gamma, n_threads=n,
                    execution=mode, backend="reference",
                ) as fj:
                    par_s, par_lnl = timed_eval(fj, reps)
                    delta = par_lnl - serial_lnl
                    stats = fj.barrier_stats
                    rows.append({
                        "workers": n,
                        "seconds": par_s,
                        "speedup": serial_s / par_s if par_s else 0.0,
                        "lnl_delta_vs_serial": delta,
                        "bit_identical": delta == 0.0,
                        "barrier_stats": stats.to_dict(),
                    })
                    if delta != 0.0:
                        failures += 1
                        print(f"  !! {mode} x{n}: delta={delta!r}")
                    print(f"  {mode:>9} x{n}: {par_s:.3f}s "
                          f"speedup={rows[-1]['speedup']:.2f} "
                          f"overhead/region="
                          f"{stats.mean_region_overhead_s * 1e6:.0f}us")
            entry["modes"][mode] = rows
        report["configs"].append(entry)
        leaked = active_arena_segments()
        if leaked:
            failures += 1
            print(f"  !! leaked shared-memory segments: {leaked}")

    report["all_bit_identical"] = failures == 0
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
