"""One-traversal all-branch gradients and the gradient-based optimizers.

Five angles:

* property-based (hypothesis): ``all_branch_gradients`` must match a
  Richardson-extrapolated central finite difference of the
  log-likelihood AND the per-branch ``derivativeCore`` first derivative
  to 1e-8 on every backend;
* bit-parity: every engine flavour (CAT, +I, memory-saving,
  partitioned) and every parallel substrate (fork-join at 1/2/4
  workers, distributed ranks) must agree with the serial sweep exactly
  (delta == 0.0 — the terms-mode lane gather reduces in fixed pattern
  order);
* kernel budget: every directed CLA computed once, counted — ``N - 2``
  toward the root and ``2N - 4`` the other way on a cold engine, none on
  an unchanged tree, ``2N - 3`` edge gradients and zero per-branch
  re-rooting;
* optimizer parity: the gradient smoother must reach the Newton sweep's
  final lnL within 1e-6; the proximal optimizer must trade lnL for
  exact sparsity;
* plumbing: method validation, checkpoint round-trip of the chosen
  method, and the observability counters/spans of the new code paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LikelihoodEngine
from repro.core import make_engine as core_make_engine
from repro.core.partitioned import Partition
from repro.parallel import PartitionedEngine
from repro.parallel.distributed import DistributedEngine
from repro.parallel.forkjoin import ForkJoinEngine
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.phylo.rates import CatRates, discrete_gamma_rates
from repro.search import optimize_all_branches, proximal_smooth
from repro.search.branch_opt import BRANCH_OPT_METHODS, all_branch_gradients

MODEL_ARGS = (
    np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
    np.array([0.3, 0.2, 0.2, 0.3]),
)


def make_parts(seed: int, n_taxa: int = 6, n_sites: int = 150):
    sim = simulate_dataset(n_taxa=n_taxa, n_sites=n_sites, seed=seed)
    return sim.alignment.compress(), sim.tree.copy()


def make_engine(seed: int, backend: str = "compiled", **kw) -> LikelihoodEngine:
    patterns, tree = make_parts(seed, **kw)
    return LikelihoodEngine(
        patterns, tree, gtr(*MODEL_ARGS), GammaRates(0.8, 4), backend=backend
    )


def per_branch_reference(engine) -> dict[int, tuple[float, float]]:
    """The oracle: re-rooted ``derivativeSum`` + ``derivativeCore``."""
    out = {}
    for eid in sorted(engine.tree.edge_ids):
        sumbuf = engine.edge_sum_buffer(eid)
        _, d1, d2 = engine.branch_derivatives(
            sumbuf, engine.tree.edge(eid).length
        )
        out[eid] = (d1, d2)
    return out


def richardson_fd(engine, eid: int, h: float = 3e-4) -> float:
    """O(h^4) central difference of lnL w.r.t. one branch length.

    The truncation term scales like ``d5 ~ 1/t^5``, so the step shrinks
    with the branch length (and callers skip near-minimum branches).
    """
    edge = engine.tree.edge(eid)
    t0 = edge.length
    h = min(h, t0 / 8.0)

    def lnl_at(t: float) -> float:
        edge.length = t
        return engine.log_likelihood()

    def central(step: float) -> float:
        return (lnl_at(t0 + step) - lnl_at(t0 - step)) / (2.0 * step)

    try:
        d_h, d_h2 = central(h), central(h / 2.0)
    finally:
        edge.length = t0
        engine.log_likelihood()  # restore validity at the original length
    return (4.0 * d_h2 - d_h) / 3.0


# ----------------------------------------------------------------------
# correctness: FD and per-branch parity
# ----------------------------------------------------------------------
class TestGradientCorrectness:
    @given(
        seed=st.integers(0, 2**31),
        backend=st.sampled_from(["reference", "compiled", "shadow"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_matches_fd_and_derivative_core(self, seed, backend):
        engine = make_engine(seed % 1000, backend=backend, n_sites=120)
        grads = engine.all_branch_gradients()
        oracle = per_branch_reference(engine)
        assert set(grads) == set(engine.tree.edge_ids)
        for eid, (d1, d2) in grads.items():
            # exact agreement with the per-branch derivativeCore pair
            assert abs(d1 - oracle[eid][0]) <= 1e-8 * max(1.0, abs(d1))
            assert abs(d2 - oracle[eid][1]) <= 1e-8 * max(1.0, abs(d2))
        # FD on a few branches (each costs four full lnL evaluations);
        # near-minimum branches are skipped — their higher derivatives
        # blow up like 1/t^5 and no finite step is accurate there.
        rng = np.random.default_rng(seed)
        candidates = [
            e for e in sorted(grads)
            if engine.tree.edge(e).length >= 5e-3
        ]
        sample = rng.choice(
            candidates, size=min(3, len(candidates)), replace=False
        )
        for eid in sample:
            fd = richardson_fd(engine, int(eid))
            d1 = grads[int(eid)][0]
            # 5e-8, not 1e-8: the FD itself carries ~2e-8 roundoff
            # (eps * |lnL| / h with lnL in the thousands at h ~ 3e-4),
            # so a tighter bound flakes on the FD, not the gradient —
            # the exact oracle parity above is the correctness gate.
            assert abs(fd - d1) <= 5e-8 * max(1.0, abs(d1), abs(fd))

    @pytest.mark.parametrize("backend", ["reference", "compiled", "shadow"])
    def test_backends_bit_identical_to_per_branch(self, backend):
        engine = make_engine(5, backend=backend)
        grads = engine.all_branch_gradients()
        for eid, pair in per_branch_reference(engine).items():
            assert grads[eid] == pair  # same kernels, same order: exact

    def test_engine_flavours_match_per_branch(self):
        patterns, tree = make_parts(11, n_taxa=8, n_sites=200)
        model = gtr(*MODEL_ARGS)
        rates = GammaRates(0.8, 4)
        cr = discrete_gamma_rates(0.8, 4)
        sc = np.arange(patterns.n_patterns) % 4
        cat = CatRates(
            category_rates=cr
            / float(np.average(cr[sc], weights=patterns.weights)),
            site_categories=sc,
        )
        flavours = [
            core_make_engine(
                patterns, tree.copy(), model, rates,
                backend="compiled", max_resident=6,
            ),
            core_make_engine(patterns, tree.copy(), model, cat=cat),
            core_make_engine(
                patterns, tree.copy(), model, rates, p_inv=0.2
            ),
            PartitionedEngine(
                [
                    Partition("a", patterns, model, rates),
                    Partition("b", patterns, gtr(), GammaRates(1.1, 4)),
                ],
                tree.copy(),
            ),
        ]
        for engine in flavours:
            grads = engine.all_branch_gradients()
            oracle = per_branch_reference(engine)
            for eid, (d1, d2) in grads.items():
                assert abs(d1 - oracle[eid][0]) <= 1e-8 * max(1.0, abs(d1))
                assert abs(d2 - oracle[eid][1]) <= 1e-8 * max(1.0, abs(d2))


# ----------------------------------------------------------------------
# bit-parity: serial vs parallel substrates
# ----------------------------------------------------------------------
class TestParallelBitParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_forkjoin_simulated_exact(self, n_workers):
        patterns, tree = make_parts(13, n_taxa=8, n_sites=220)
        model = gtr(*MODEL_ARGS)
        rates = GammaRates(0.8, 4)
        serial = LikelihoodEngine(
            patterns, tree.copy(), model, rates, backend="compiled"
        )
        want = serial.all_branch_gradients()
        fj = ForkJoinEngine(
            patterns, tree.copy(), model, rates,
            n_threads=n_workers, backend="compiled",
        )
        got = fj.all_branch_gradients()
        assert set(got) == set(want)
        delta = max(
            abs(a - b) for e in want for a, b in zip(got[e], want[e])
        )
        assert delta == 0.0

    def test_distributed_simulated_exact_one_allreduce(self):
        patterns, tree = make_parts(13, n_taxa=8, n_sites=220)
        model = gtr(*MODEL_ARGS)
        rates = GammaRates(0.8, 4)
        serial = LikelihoodEngine(
            patterns, tree.copy(), model, rates, backend="compiled"
        )
        want = serial.all_branch_gradients()
        de = DistributedEngine(
            patterns, tree.copy(), model, rates, n_ranks=3, backend="compiled"
        )
        de.log_likelihood()
        boundaries0 = de.wave_boundaries
        calls0 = de.mpi.allreduce_calls
        got = de.all_branch_gradients()
        delta = max(
            abs(a - b) for e in want for a, b in zip(got[e], want[e])
        )
        assert delta == 0.0
        # ExaML's O(1)-collectives discipline: the whole gradient sweep
        # costs one AllReduce, while every up-wave is a counted boundary.
        assert de.mpi.allreduce_calls == calls0 + 1
        assert de.wave_boundaries > boundaries0


# ----------------------------------------------------------------------
# kernel budget: O(N), no per-branch re-traversal
# ----------------------------------------------------------------------
class TestKernelBudget:
    def test_one_traversal_call_counts(self):
        n_taxa = 10
        engine = make_engine(7, n_taxa=n_taxa, n_sites=100)
        engine.log_likelihood()  # every CLA toward the root valid
        engine.reset_profile()
        grads = engine.all_branch_gradients()
        n_branches = 2 * n_taxa - 3
        assert len(grads) == n_branches
        merged = engine.counters.merged()
        # only the other direction of every inner node is computed
        assert merged["newview"] == 2 * n_taxa - 4
        assert merged["edge_gradient"] == n_branches
        # the old path's kernels never fire: no re-rooted derivativeSum
        assert merged["derivative_sum"] == 0
        assert merged["derivative_core"] == 0

    def test_cold_engine_adds_one_postorder_sweep(self):
        n_taxa = 10
        engine = make_engine(7, n_taxa=n_taxa, n_sites=100)
        engine.reset_profile()
        engine.all_branch_gradients()
        merged = engine.counters.merged()
        # one sweep toward the root, one the other way
        assert merged["newview"] == (n_taxa - 2) + (2 * n_taxa - 4)
        assert merged["edge_gradient"] == 2 * n_taxa - 3

    def test_unchanged_tree_recomputes_no_cla(self):
        n_taxa = 10
        engine = make_engine(7, n_taxa=n_taxa, n_sites=100)
        first = engine.all_branch_gradients()
        engine.reset_profile()
        assert engine.all_branch_gradients() == first
        merged = engine.counters.merged()
        assert merged["newview"] == 0
        assert merged["edge_gradient"] == 2 * n_taxa - 3


class TestRootOrder:
    """``combine`` and the sum buffer are element-wise products, so the
    order in which directed CLAs were built, and from which root, must
    not change a single bit of ``(d1, d2)``."""

    @pytest.mark.parametrize("flavour", ["gamma", "cat", "pinv"])
    def test_two_root_orders_bitwise_equal(self, flavour):
        patterns, tree = make_parts(17, n_taxa=9, n_sites=180)
        model = gtr(*MODEL_ARGS)
        kw = {"rates": GammaRates(0.8, 4)}
        if flavour == "cat":
            sc = np.arange(patterns.n_patterns) % 3
            kw = {"cat": CatRates(
                category_rates=np.array([0.4, 1.0, 1.6]), site_categories=sc
            )}
        elif flavour == "pinv":
            kw["p_inv"] = 0.15
        edges = sorted(tree.edge_ids)
        first = core_make_engine(patterns, tree.copy(), model, **kw)
        grads = first.all_branch_gradients(edges[0])
        second = core_make_engine(patterns, tree.copy(), model, **kw)
        for eid in reversed(edges):  # directions built from every root
            second.log_likelihood(eid)
        assert second.all_branch_gradients(edges[-1]) == grads


# ----------------------------------------------------------------------
# optimizers
# ----------------------------------------------------------------------
class TestGradientSmoother:
    @pytest.mark.parametrize(
        "seed,n_taxa,n_sites",
        [(11, 12, 400), (5, 8, 250), (23, 16, 600)],
    )
    def test_matches_newton_final_lnl(self, seed, n_taxa, n_sites):
        patterns, tree = make_parts(seed, n_taxa=n_taxa, n_sites=n_sites)
        model = gtr(*MODEL_ARGS)
        rates = GammaRates(0.8, 4)
        newton = LikelihoodEngine(
            patterns, tree.copy(), model, rates, backend="compiled"
        )
        lnl_newton = optimize_all_branches(
            newton, passes=16, improvement_epsilon=1e-8, method="newton"
        )
        grad = LikelihoodEngine(
            patterns, tree.copy(), model, rates, backend="compiled"
        )
        lnl_grad = optimize_all_branches(
            grad, passes=16, improvement_epsilon=1e-8, method="gradient"
        )
        assert abs(lnl_grad - lnl_newton) <= 1e-6

    def test_rejects_unknown_method(self):
        engine = make_engine(3)
        with pytest.raises(ValueError, match="method"):
            optimize_all_branches(engine, method="bogus")
        assert BRANCH_OPT_METHODS == ("newton", "gradient", "prox")

    def test_search_entry_point_delegates(self):
        engine = make_engine(3)
        assert all_branch_gradients(engine) == engine.all_branch_gradients()


class TestProximalGradient:
    def test_lam_zero_improves_lnl(self):
        engine = make_engine(9)
        lnl0 = engine.log_likelihood()
        result = proximal_smooth(engine, lam=0.0, max_sweeps=24)
        assert result.lnl >= lnl0
        assert result.objective == result.lnl  # no penalty term
        assert result.sweeps >= 1

    def test_l1_penalty_produces_exact_sparsity(self):
        from repro.phylo import random_topology
        from repro.phylo.simulate import simulate_alignment
        from repro.phylo.tree import MIN_BRANCH_LENGTH

        # a tree with two near-zero internal branches: branches the
        # data cannot resolve, the near-multifurcation detector's prey
        rng = np.random.default_rng(3)
        true_tree = random_topology([f"t{i}" for i in range(8)], rng)
        internal = [
            e for e in true_tree.edge_ids
            if not true_tree.is_leaf(true_tree.edge(e).u)
            and not true_tree.is_leaf(true_tree.edge(e).v)
        ]
        for e in internal[:2]:
            true_tree.edge(e).length = 0.0005
        model = gtr(*MODEL_ARGS)
        sim = simulate_alignment(
            true_tree.copy(), model, 200, rng, gamma=GammaRates(0.8, 4)
        )
        patterns = sim.alignment.compress()

        def run(lam: float):
            engine = LikelihoodEngine(
                patterns, true_tree.copy(), model, GammaRates(0.8, 4),
                backend="compiled",
            )
            result = proximal_smooth(engine, lam=lam, max_sweeps=48)
            total = sum(
                engine.tree.edge(i).length for i in engine.tree.edge_ids
            )
            pinned = sum(
                1 for i in engine.tree.edge_ids
                if engine.tree.edge(i).length <= MIN_BRANCH_LENGTH
            )
            return result, total, pinned

        free, len_free, _ = run(0.0)
        heavy, len_heavy, pinned = run(50.0)
        # the penalty pins unresolved branches *exactly* at the minimum
        # (reported as sparsity), shrinks the tree, and costs likelihood
        assert heavy.sparsity >= 1
        assert heavy.sparsity == pinned
        assert len_heavy < len_free
        assert heavy.lnl <= free.lnl + 1e-9
        assert heavy.lam == 50.0
        assert heavy.objective == pytest.approx(
            heavy.lnl - 50.0 * len_heavy
        )

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            proximal_smooth(make_engine(3), lam=-1.0)


# ----------------------------------------------------------------------
# plumbing: checkpoints and observability
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_checkpoint_round_trips_method(self, tmp_path):
        from repro.search.checkpoint import (
            load_checkpoint,
            save_checkpoint,
        )

        engine = make_engine(3)
        path = tmp_path / "ck.json"
        save_checkpoint(
            engine, path, stage="model_opt", step=4,
            branch_opt_method="gradient",
        )
        loaded = load_checkpoint(path)
        assert loaded.branch_opt_method == "gradient"

    def test_v1_checkpoint_defaults_to_newton(self, tmp_path):
        import json

        from repro.search.checkpoint import load_checkpoint, save_checkpoint

        engine = make_engine(3)
        path = tmp_path / "ck.json"
        save_checkpoint(engine, path, stage="spr", step=1)
        payload = json.loads(path.read_text())
        del payload["branch_opt_method"]
        payload["format_version"] = 1
        path.write_text(json.dumps(payload))
        assert load_checkpoint(path).branch_opt_method == "newton"

    def test_obs_spans_and_counters(self):
        from repro import obs

        obs.disable()
        obs.get_registry().clear()
        try:
            obs.enable("gradient-test")
            engine = make_engine(17)
            engine.all_branch_gradients()
            optimize_all_branches(engine, passes=1, method="gradient")
            proximal_smooth(engine, lam=1.0, max_sweeps=4)
            names = {s.name for s in obs.get_tracer().spans}
            assert "gradient.all_branches" in names
            assert "search.branch_smoothing" in names
            assert "search.proxgrad" in names
            snap = obs.get_registry().snapshot()
            assert snap["repro_gradient_sweeps_total"]["value"] >= 1
            assert (
                snap["repro_branch_opt_method_gradient_total"]["value"] == 1
            )
            assert snap["repro_proxgrad_sweeps_total"]["value"] >= 1
            assert "repro_proxgrad_sparsity" in snap
        finally:
            obs.disable()
            obs.get_registry().clear()
