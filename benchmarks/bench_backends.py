#!/usr/bin/env python
"""Backend microbenchmark: reference vs. compiled PLF kernels.

Times the two hot kernels of a likelihood evaluation — ``newview``
(inner-inner case) and ``evaluate`` — at alignment widths spanning the
paper's Table III range, for every benchmarked backend.  The reference
backend materialises full-width ``(patterns, rates, states)``
temporaries that spill to DRAM from ~100K sites; the generated-C
``compiled`` backend fuses the whole kernel into one pass with no
temporaries at all, so it must win there.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py [--quick]
        [--out BENCH_backends.json] [--sites 1000 10000 100000]

Writes a JSON report (default ``BENCH_backends.json`` next to the repo
root) and exits non-zero if ``compiled`` fails to beat ``reference`` at
the largest width >= 100K sites (the gate is skipped when no C toolchain
is available).
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

from repro.core.backends import get_backend  # noqa: E402
from repro.core.ckernels import probe_status  # noqa: E402

BACKENDS = ("reference", "compiled")
DEFAULT_SITES = (1_000, 10_000, 100_000)
N_RATES = 4
N_STATES = 4


def make_operands(n_sites: int, seed: int = 2014) -> dict:
    """Random DNA+Gamma4-shaped operands for one kernel invocation."""
    rng = np.random.default_rng(seed)
    return {
        "u_inv": rng.normal(size=(N_STATES, N_STATES)),
        "a1": rng.uniform(0.05, 1.0, size=(N_RATES, N_STATES, N_STATES)),
        "a2": rng.uniform(0.05, 1.0, size=(N_RATES, N_STATES, N_STATES)),
        "z1": rng.uniform(0.1, 1.0, size=(n_sites, N_RATES, N_STATES)),
        "z2": rng.uniform(0.1, 1.0, size=(n_sites, N_RATES, N_STATES)),
        "scale1": np.zeros(n_sites, dtype=np.int64),
        "scale2": np.zeros(n_sites, dtype=np.int64),
        "exps": rng.uniform(0.1, 1.0, size=(N_RATES, N_STATES)),
        "rate_weights": np.full(N_RATES, 1.0 / N_RATES),
        "pattern_weights": np.ones(n_sites),
        "scale_counts": np.zeros(n_sites, dtype=np.int64),
    }


def _one_pass(backend, d) -> tuple[float, float]:
    """Seconds for one newview + one evaluate on ``backend``."""
    t0 = time.perf_counter()
    backend.newview_inner_inner(
        d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
        d["scale1"], d["scale2"],
    )
    t1 = time.perf_counter()
    backend.evaluate_edge(
        d["z1"], d["z2"], d["exps"], d["rate_weights"],
        d["pattern_weights"], d["scale_counts"],
    )
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def bench_width(n_sites: int, repeats: int, backends: tuple) -> dict:
    d = make_operands(n_sites)
    row: dict = {"sites": n_sites}
    for name in backends:
        backend = get_backend(name)
        _one_pass(backend, d)  # warm-up: first-use compile
        best_nv = best_ev = float("inf")
        for _ in range(repeats):
            nv, ev = _one_pass(backend, d)
            best_nv = min(best_nv, nv)
            best_ev = min(best_ev, ev)
        row[name] = {
            "newview_s": best_nv,
            "evaluate_s": best_ev,
            "total_s": best_nv + best_ev,
        }
    if "compiled" in row:
        row["speedup_compiled_vs_reference"] = (
            row["reference"]["total_s"] / row["compiled"]["total_s"]
        )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats (CI smoke; timings are noisier)",
    )
    parser.add_argument(
        "--sites", type=int, nargs="+", default=list(DEFAULT_SITES),
        help="alignment widths to benchmark",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per width (default: 7, or 3 with --quick)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_backends.json",
        help="JSON report path",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.quick else 7)

    compiled_ok = probe_status().available
    backends = BACKENDS if compiled_ok else tuple(
        b for b in BACKENDS if b != "compiled"
    )
    if not compiled_ok:
        print("note: no C toolchain; skipping the compiled backend rows")

    rows = []
    hdr = f"{'sites':>9}  {'reference':>11}"
    if compiled_ok:
        hdr += f"  {'compiled':>11}  {'speedup':>7}"
    print(hdr)
    for n_sites in sorted(args.sites):
        row = bench_width(n_sites, repeats, backends)
        rows.append(row)
        line = f"{n_sites:>9}  {row['reference']['total_s'] * 1e3:>9.3f}ms"
        if compiled_ok:
            line += (
                f"  {row['compiled']['total_s'] * 1e3:>9.3f}ms"
                f"  {row['speedup_compiled_vs_reference']:>6.2f}x"
            )
        print(line)

    report = {
        "benchmark": "newview_inner_inner + evaluate_edge, best of repeats",
        "backends": list(backends),
        "repeats": repeats,
        "quick": args.quick,
        "results": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    # Acceptance gate at the largest >=100K width (needs a toolchain).
    large = [r for r in rows if r["sites"] >= 100_000]
    if large and compiled_ok:
        gate = large[-1]
        speedup = gate["speedup_compiled_vs_reference"]
        if speedup <= 1.0:
            print(
                f"FAIL: compiled slower than reference at {gate['sites']} "
                f"sites ({speedup:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: compiled {speedup:.2f}x faster than reference at "
            f"{gate['sites']} sites"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
