"""Self-tests of the e2e benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.hygiene()  # private caches, single-threaded BLAS, src/ on the path

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# span arithmetic and the percentile rule
# ----------------------------------------------------------------------
def test_self_time_on_nested_spans():
    # op [0, 10] > stage [1, 9] > kernel [2, 4], kernel [5, 8]; stage [9, 10]
    recorded = [
        ["op", 0.0, 10.0, -1, 1],
        ["search.stage", 1.0, 9.0, 0, 1],
        ["core.backends.newview_tip_tip", 2.0, 4.0, 1, 1],
        ["core.backends.derivative_core", 5.0, 8.0, 1, 1],
        ["search.stage", 9.0, 10.0, 0, 1],
    ]
    totals = spans.totals_by_name(recorded)
    assert totals["op"].self_time == pytest.approx(1.0)
    assert totals["search.stage"].count == 2
    assert totals["search.stage"].inclusive == pytest.approx(9.0)
    assert totals["search.stage"].self_time == pytest.approx(4.0)
    lanes = spans.layer_metrics(recorded, n_patterns=100)
    assert lanes["core.backends.kernel_s"] == pytest.approx(5.0)
    assert lanes["core.backends.kernel_share"] == pytest.approx(0.5)
    assert lanes["search.self_s"] == pytest.approx(4.0)
    assert lanes["unattributed_s"] == pytest.approx(1.0)
    assert lanes["core.backends.newview_ns_per_pattern"] == pytest.approx(2e9 / 100)
    assert lanes["search.newton_iters_per_edge"] == 1.0  # no derivative_sum seen
    # Self times of all spans add up to the root's duration.
    assert sum(t.self_time for t in totals.values()) == pytest.approx(10.0)


def test_tracer_records_parent_and_restores_patches():
    import repro.search.raxml_light as driver

    original = driver.make_engine
    with spans.tracing() as (tracer, _backend):
        assert driver.make_engine is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert driver.make_engine is original
    outer, inner = tracer.spans
    assert outer[spans.PARENT] == -1 and inner[spans.PARENT] == 0
    assert outer[spans.START] <= inner[spans.START] <= inner[spans.END] <= outer[spans.END]


@pytest.mark.parametrize(
    "n, expected", [(4, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (380, 95)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    assert p == 50 or n * (100 - p) / 100 >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert run.percentile(values, 95) == 190
    assert run.percentile(values, 75) == 150
    assert run.percentile([3.0, 1.0], 50) == 2.0


def test_quiet_slices_keep_the_undisturbed_part_of_the_window():
    from serving import Sample

    def sample(done: float, latency: float) -> Sample:
        return Sample(0.0, latency, 0.0, 200, 0, "q", "", done)

    # A 12 s window from t0 = 100, a response every 0.02 s: 0.1 s
    # latencies in [2 s, 4 s) and [8 s, 10 s), 0.3 s elsewhere (the
    # host was busy), and nothing at all from 10 s on.
    t0 = 100.0
    quiet = lambda i: 100 <= i < 200 or 400 <= i < 500
    samples = [sample(t0 + 0.02 * i, 0.1 if quiet(i) else 0.3) for i in range(1, 500)]
    kept, seconds = run.quiet_slices(samples, t0, 12.0)
    assert seconds == pytest.approx(4.0)
    assert {s.latency for s in kept} == {0.1}
    assert len(kept) == 200 >= run.SERVE_QUIET_RESPONSES
    # Fewer responses than that: every slice that holds one.
    kept, seconds = run.quiet_slices(samples[:120], t0, 12.0)
    assert sorted(s.done for s in kept) == [s.done for s in samples[:120]]
    assert seconds == pytest.approx(4.0)


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
def test_generator_pins_patterns_and_repeats_per_seed():
    from repro.phylo import Tree, read_fasta

    spec = workloads.SMOKE_SPECS["place_offline"]
    args = (spec.n_taxa, spec.n_sites, spec.n_patterns, spec.branch_range,
            spec.tree_seed)
    a = gen.placement_dataset(*args, 7, spec.n_pruned, spec.n_queries)
    b = gen.placement_dataset(*args, 7, spec.n_pruned, spec.n_queries)
    c = gen.placement_dataset(*args, 8, spec.n_pruned, spec.n_queries)
    assert a == b and a.fasta != c.fasta and a.newick == c.newick
    for dataset in (a, c):
        alignment = read_fasta(io.StringIO(dataset.fasta))
        assert alignment.n_sites == spec.n_sites
        assert alignment.compress().n_patterns == spec.n_patterns
        tree = Tree.from_newick(dataset.newick)
        assert sorted(tree.leaf_names()) == sorted(alignment.taxa)
        assert len(alignment.taxa) == spec.n_taxa - spec.n_pruned
        assert len(set(dataset.queries.values())) == spec.n_queries


def test_pruning_merges_branch_lengths():
    tree = gen.random_tree(6, np.random.default_rng(3), (0.1, 0.2))
    total = sum(tree.length.values())
    leaf = next(iter(tree.names))
    pruned = tree.pruned({tree.names[leaf]})
    assert len(pruned.names) == 5
    assert all(len(kids) == 2 for kids in pruned.children.values())
    # Only the pruned pendant branch is lost; or, when the pruned leaf
    # hung off the root, the root's other branch goes with it.
    assert sum(pruned.length.values()) <= total - tree.length[leaf] + 1e-12


# ----------------------------------------------------------------------
# the timing proxy changes nothing
# ----------------------------------------------------------------------
def public_callables(obj) -> set[str]:
    return {n for n in dir(obj) if not n.startswith("_") and callable(getattr(obj, n))}


@pytest.mark.parametrize("name", ["reference", "compiled"])
def test_timing_backend_exposes_exactly_the_inner_hooks(name):
    from repro.core.backends import get_backend

    inner = get_backend(name)
    proxy = spans.TimingBackend(inner, spans.Tracer())
    assert public_callables(proxy) == public_callables(inner)
    for hook in ("newview_batch", "edge_gradient_terms", "derivative_site_terms"):
        assert hasattr(proxy, hook) == hasattr(inner, hook)
    assert proxy.name == inner.name and proxy.profile is inner.profile


def test_traced_search_equals_untraced():
    inputs = workloads.load(workloads.WARM_UP, 3)
    plain = workloads.run_op(workloads.WARM_UP, inputs)
    with spans.tracing() as (tracer, backend):
        with tracer.span("op"):
            traced = workloads.run_op(workloads.WARM_UP, inputs, backend)
    assert traced.lnl == plain.lnl and traced.newick == plain.newick
    assert traced.counters == plain.counters
    lanes = spans.layer_metrics(tracer.spans, workloads.WARM_UP.n_patterns)
    assert lanes["core.backends.calls"] == plain.counters.total_calls()
    assert lanes["core.engine.builds"] == 1
    assert workloads.check_op(workloads.WARM_UP, inputs, traced) == (1, [])


def test_checks_catch_a_wrong_answer():
    inputs = workloads.load(workloads.WARM_UP, 3)
    result = workloads.run_op(workloads.WARM_UP, inputs)
    result.lnl += 1.0
    attempted, problems = workloads.check_op(workloads.WARM_UP, inputs, result)
    assert attempted == 1 and len(problems) == 1 and "recomputes" in problems[0]


# ----------------------------------------------------------------------
# the whole command, tiny sizes
# ----------------------------------------------------------------------
def test_smoke_emits_exactly_the_declared_metrics():
    declared = run.declared()
    names = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    assert "FAILED" not in done.stdout
    seen: dict[str, set[str]] = {}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in {w["name"] for w in declared["workloads"]}:
            seen.setdefault(fields[0], set()).add(fields[1])
    assert set(seen) == {w["name"] for w in declared["workloads"]}
    for workload, printed in seen.items():
        assert printed == names | {"failed_frac"}, (workload, printed ^ names)
    assert elapsed < 40, f"--smoke took {elapsed:.1f} s"


def test_single_run_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "search_wide", "--seed", "5", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    declared = run.declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    assert all(m["value"] > 0 for m in last["metrics"].values())
