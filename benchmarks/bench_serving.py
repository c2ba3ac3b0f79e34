#!/usr/bin/env python
"""Load-test harness for the placement server (ISSUE 9 tentpole).

Starts an in-process :class:`repro.serve.PlacementServer` on an
ephemeral port with one warm tenant, then fires placement queries from
``batch_size`` concurrent HTTP clients per round — the tenant's
dispatcher admits concurrent requests together and places them one at
a time, so ``batch_size`` is the queue depth each round offers.  Reports
end-to-end request latency (p50/p99, the regression-gated metrics) and
aggregate queries/sec per batch size, and verifies the served jplace
output is **bit-identical** (log-likelihood delta == 0.0) to an offline
serial ``place_queries`` run of the same queries.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]
        [--out BENCH_serving.json] [--batch-sizes 1 4 16]
        [--queries 32] [--sites 600]

Writes a JSON report in the unified ledger shape (``entries`` with
``config``/``metrics``) — ``repro bench serving`` ingests it straight
into ``PERF_LEDGER.json`` — and exits non-zero if any served placement
deviates from the offline run by even one ULP.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.phylo import GammaRates, gtr, simulate_dataset  # noqa: E402
from repro.phylo.alignment import Alignment  # noqa: E402
from repro.search.epa import place_queries, to_jplace  # noqa: E402
from repro.serve import PlacementServer  # noqa: E402

DEFAULT_BATCH_SIZES = (1, 4, 16)
N_TAXA = 8
BACKEND = "compiled"


def build_reference(n_sites: int, seed: int = 77):
    """Simulated reference (one taxon pruned off to serve as the query)."""
    sim = simulate_dataset(n_taxa=N_TAXA, n_sites=n_sites, seed=seed)
    aln, tree = sim.alignment, sim.tree
    query = aln.taxa[3]
    ref_tree = tree.copy()
    leaf = ref_tree.node_by_name(query)
    pend = ref_tree.incident_edges(leaf)[0]
    ref_tree.prune_subtree(pend, subtree_root=leaf)
    ref_tree.remove_node(leaf)
    ref_aln = Alignment.from_sequences(
        {t: aln.sequence(t) for t in aln.taxa if t != query}
    )
    return ref_aln, ref_tree, aln.sequence(query)


def post_json(url: str, body: dict, timeout: float = 300.0) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def run_round(
    base_url: str, seq: str, batch_size: int, n_queries: int, tag: str
) -> tuple[list[float], float, dict]:
    """Fire ``n_queries`` single-query requests, ``batch_size`` at a time.

    Returns (per-request latencies, wall seconds, one jplace response
    for the parity check).
    """
    latencies: list[float] = []
    lock = threading.Lock()
    sample: dict = {}

    def client(name: str) -> None:
        t0 = time.perf_counter()
        doc = post_json(
            f"{base_url}/tenants/bench/place",
            {"queries": {name: seq}, "keep_best": 1000},
        )
        dt = time.perf_counter() - t0
        with lock:
            latencies.append(dt)
            sample.setdefault("doc", doc)
            sample.setdefault("name", name)

    wall0 = time.perf_counter()
    fired = 0
    while fired < n_queries:
        wave = min(batch_size, n_queries - fired)
        threads = [
            threading.Thread(target=client, args=(f"{tag}_q{fired + i}",))
            for i in range(wave)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fired += wave
    wall = time.perf_counter() - wall0
    return latencies, wall, sample


def parity_delta(ref_aln, ref_tree, seq: str, served: dict, name: str) -> float:
    """Max |lnl delta| between a served response and the offline run."""
    offline = place_queries(
        ref_aln,
        ref_tree,
        {name: seq},
        gtr(),
        GammaRates(1.0, 4),
        keep_best=1000,
        backend=BACKEND,
    )
    expected = to_jplace(offline, ref_tree)
    exp_rows = expected["placements"][0]["p"]
    got_rows = served["placements"][0]["p"]
    if len(exp_rows) != len(got_rows):
        return float("inf")
    delta = 0.0
    for exp, got in zip(exp_rows, got_rows):
        for a, b in zip(exp, got):
            delta = max(delta, abs(float(a) - float(b)))
    return delta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small reference / fewer rounds (CI smoke)")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_serving.json")
    ap.add_argument("--batch-sizes", type=int, nargs="+", default=None)
    ap.add_argument("--queries", type=int, default=None,
                    help="total queries per batch-size round")
    ap.add_argument("--sites", type=int, default=None)
    args = ap.parse_args(argv)

    if args.quick:
        batch_sizes = args.batch_sizes or [1, 4]
        n_queries = args.queries or 8
        n_sites = args.sites or 200
    else:
        batch_sizes = args.batch_sizes or list(DEFAULT_BATCH_SIZES)
        n_queries = args.queries or 32
        n_sites = args.sites or 600

    ref_aln, ref_tree, seq = build_reference(n_sites)

    report = {
        "benchmark": "bench_serving",
        "description": (
            "placement-server latency/throughput vs concurrent clients"
        ),
        "env": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "note": (
            "batch_size is the number of concurrent HTTP clients; the "
            "tenant dispatcher admits their requests together and places "
            "them one at a time. qps and lnl_delta are informational; the "
            "p50/p99 latency metrics are the regression-gated ones."
        ),
        "entries": [],
    }
    failures = 0

    server = PlacementServer(
        port=0, max_batch=max(batch_sizes), batch_wait_s=0.01,
        backend=BACKEND,
    )
    try:
        server.add_tenant("bench", ref_aln, ref_tree)
        for batch_size in batch_sizes:
            latencies, wall, sample = run_round(
                server.url, seq, batch_size, n_queries, f"b{batch_size}"
            )
            delta = parity_delta(
                ref_aln, ref_tree, seq, sample["doc"], sample["name"]
            )
            identical = delta == 0.0
            if not identical:
                failures += 1
                print(f"  !! batch={batch_size}: served != offline "
                      f"(delta={delta!r})")
            p50 = float(np.percentile(latencies, 50))
            p99 = float(np.percentile(latencies, 99))
            qps = n_queries / wall if wall else 0.0
            print(
                f"[batch {batch_size:>2}] {n_queries} queries: "
                f"p50={p50 * 1e3:.1f}ms p99={p99 * 1e3:.1f}ms "
                f"qps={qps:.2f} bit_identical={identical}"
            )
            report["entries"].append({
                "config": {
                    "batch_size": batch_size,
                    "queries": n_queries,
                    "sites": n_sites,
                    "taxa": N_TAXA,
                    "backend": BACKEND,
                },
                "metrics": {
                    "p50_latency_s": p50,
                    "p99_latency_s": p99,
                    "qps": qps,
                    "lnl_delta": delta,
                    "bit_identical": 1.0 if identical else 0.0,
                },
            })
    finally:
        server.stop()

    report["all_bit_identical"] = failures == 0
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
