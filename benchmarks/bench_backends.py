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

A second, report-only section measures the fixed cost of a call: every
public method of the ``compiled`` backend at 1, 170 and 2 300 patterns,
against its bare arithmetic — the C entry point called directly with
the outputs (and, for the derivative kinds, the ``exp`` table) made
beforehand.  The difference is what the Python side of a call costs:
dispatch and timing, output allocation, and for the derivative and
evaluate kinds the NumPy ``exp`` table and reductions.
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
FIXED_COST_PATTERNS = (1, 170, 2_300)
N_RATES = 4
N_STATES = 4
N_CODES = 16


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
        "lookup1": rng.uniform(0.1, 1.0, size=(N_RATES, N_CODES, N_STATES)),
        "lookup2": rng.uniform(0.1, 1.0, size=(N_RATES, N_CODES, N_STATES)),
        "codes1": rng.integers(0, N_CODES, size=n_sites).astype(np.uint32),
        "codes2": rng.integers(0, N_CODES, size=n_sites).astype(np.uint32),
        "eigenvalues": np.concatenate(
            [[0.0], -rng.uniform(0.1, 2.0, size=N_STATES - 1)]
        ),
        "rates": rng.uniform(0.2, 3.0, size=N_RATES),
        "t": 0.13,
    }


def fixed_cost_cases(d: dict) -> list[tuple]:
    """``(method, args, entry, entry_args)`` for every public method.

    ``entry`` is the C function doing the method's arithmetic
    and ``entry_args`` its operands with the outputs preallocated.
    """
    p = d["z1"].shape[0]
    cla, scale = np.empty_like(d["z1"]), np.empty(p, dtype=np.int64)
    terms = (np.empty(p), np.empty(p), np.empty(p))
    rate_args = (d["eigenvalues"], d["rates"], d["rate_weights"], d["t"])
    e = np.exp(np.multiply.outer(d["rates"], d["eigenvalues"]) * d["t"])
    tables = (e, d["rates"], d["eigenvalues"], d["rate_weights"])
    sumbuf = d["z1"] * d["z2"]
    zz = (d["z1"], d["z2"])
    ev = (*zz, d["exps"], d["rate_weights"])
    newview = {
        "tip_tip": (
            (d["u_inv"], d["lookup1"], d["codes1"], d["lookup2"],
             d["codes2"]), "nv_tip_tip", (cla,),
        ),
        "tip_inner": (
            (d["u_inv"], d["lookup1"], d["codes1"], d["a2"], d["z2"],
             d["scale2"]), "nv_tip_inner", (cla, scale),
        ),
        "inner_inner": (
            (d["u_inv"], d["a1"], d["a2"], *zz, d["scale1"], d["scale2"]),
            "nv_inner_inner", (cla, scale),
        ),
    }
    cases = [
        (f"newview_{kind}", args, entry, (*args, *outs))
        for kind, (args, entry, outs) in newview.items()
    ]
    return cases + [
        ("site_log_likelihoods", (*ev, d["scale_counts"]),
         "evaluate_site", (*ev, np.empty(p))),
        ("evaluate_edge", (*ev, d["pattern_weights"], d["scale_counts"]),
         "evaluate_site", (*ev, np.empty(p))),
        ("derivative_sum", zz, "ew_product", (*zz, cla)),
        ("derivative_core", (sumbuf, *rate_args, d["pattern_weights"]),
         "deriv_site_terms", (sumbuf, *tables, *terms)),
        ("derivative_site_terms", (sumbuf, *rate_args),
         "deriv_site_terms", (sumbuf, *tables, *terms)),
        ("edge_gradient", (*zz, *rate_args, d["pattern_weights"]),
         "grad_site_terms", (*zz, *tables, *terms)),
        ("edge_gradient_terms", (*zz, *rate_args),
         "grad_site_terms", (*zz, *tables, *terms)),
    ]


def per_call_us(fn, args: tuple, calls: int) -> float:
    """Mean microseconds of ``fn(*args)`` over ``calls`` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return (time.perf_counter() - t0) / calls * 1e6


def bench_fixed_cost(calls: int, repeats: int) -> list[dict]:
    """Public-method vs bare-entry microseconds per call (report only)."""
    backend = get_backend("compiled")
    lib = backend._lib(N_STATES, N_RATES)
    rows = []
    for p in FIXED_COST_PATTERNS:
        d = make_operands(p)
        n = calls if p <= 170 else max(calls // 10, 10)
        for method, args, entry, entry_args in fixed_cost_cases(d):
            public = bare = float("inf")
            for _ in range(repeats):  # alternate, keep the best of each
                public = min(public, per_call_us(
                    getattr(backend, method), args, n))
                bare = min(bare, per_call_us(
                    getattr(lib, entry), entry_args, n))
            rows.append({
                "method": method, "patterns": p, "public_us": public,
                "bare_us": bare, "overhead_us": public - bare,
            })
    return rows


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
    if compiled_ok:
        calls = 200 if args.quick else 3_000
        fixed = bench_fixed_cost(calls, repeats=5)
        print(f"\nper-call cost, compiled (us; best of 5 x {calls} calls, "
              f"x1/10 at {FIXED_COST_PATTERNS[-1]} patterns)")
        print(f"{'method':<22} {'patterns':>8} {'public':>9} {'bare':>9} "
              f"{'overhead':>9}")
        for r in fixed:
            print(f"{r['method']:<22} {r['patterns']:>8} {r['public_us']:>9.2f}"
                  f" {r['bare_us']:>9.2f} {r['overhead_us']:>9.2f}")
        report["fixed_cost"] = {
            "benchmark": "us per call: public method vs bare C entry point "
                         "(report only)",
            "calls": calls,
            "rows": fixed,
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
