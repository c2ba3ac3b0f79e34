"""Tests for real shared-memory parallel execution (worker pool + modes).

Covers the PR 5 acceptance criteria: bit-identical log-likelihoods and
branch derivatives across worker counts and execution substrates,
worker-death degradation with slice adoption (and the live ``/healthz``
turning 503 on a real ``processes`` worker death), observability aggregation
without double counting, measured barrier statistics feeding the cost
model, and shared-memory hygiene (no leaked segments after close).
"""

import gc
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.core.backends import get_backend, make_engine
from repro.obs import server as obs_server
from repro.parallel import (
    DistributedEngine,
    ForkJoinEngine,
    SumBufferHandle,
    WorkerFailure,
    WorkerPool,
    active_arena_segments,
    distribute_block,
)
from repro.parallel.forkjoin import (
    EXECUTION_MODES,
    default_execution,
    default_workers,
)
from repro.parallel.distribute import slice_patterns
from repro.parallel.pool import WorkerRestart
from repro.phylo import CatRates, GammaRates, gtr, simulate_dataset
from tolerances import LNL_RECOMPUTE_RTOL


@pytest.fixture(scope="module")
def problem():
    sim = simulate_dataset(n_taxa=8, n_sites=240, seed=44)
    pat = sim.alignment.compress()
    return sim, pat, gtr(), GammaRates(0.9, 4)


@pytest.fixture(scope="module")
def serial(problem):
    sim, pat, model, gamma = problem
    # Compared ``== 0.0`` against pools built with backend="reference":
    # pin the same backend here so like is compared with like.
    eng = LikelihoodEngine(
        pat, sim.tree.copy(), model, gamma, backend="reference"
    )
    edge = eng.default_edge()
    sb = eng.edge_sum_buffer(edge)
    return {
        "lnl": eng.log_likelihood(),
        "site": eng.site_log_likelihoods(),
        "deriv": eng.branch_derivatives(sb, 0.13),
        "edge": edge,
        "profile": eng.backend.profile,
    }


def pool_lnl(pool, tree, edge, weights):
    """Replay-until-stable evaluation against a raw pool."""
    for _ in range(pool.n_workers + 1):
        try:
            depth = pool.prepare(tree, edge)
            for k in range(depth):
                pool.run_wave(k)
            pool.root(edge)
            return float(np.dot(pool.lanes.site, weights))
        except WorkerRestart:
            continue
    raise AssertionError("pool never stabilised")


class TestPoolDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_lnl_bit_identical(self, problem, serial, workers):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=workers,
            backend="reference",
        ) as pool:
            lnl = pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
            assert lnl - serial["lnl"] == 0.0
            np.testing.assert_array_equal(pool.lanes.site, serial["site"])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_derivatives_bit_identical(self, problem, serial, workers):
        from repro.core.kernels import derivative_reduce

        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=workers,
            backend="reference",
        ) as pool:
            edge = serial["edge"]
            depth = pool.prepare(sim.tree, edge)
            for k in range(depth):
                pool.run_wave(k)
            handle = pool.sumbuf(edge)
            pool.deriv(handle, 0.13)
            l0, l1, l2 = pool.lanes.terms
            got = derivative_reduce(
                l0.copy(), l1.copy(), l2.copy(), pat.weights
            )
            for g, s in zip(got, serial["deriv"]):
                assert g - s == 0.0

    def test_compiled_backend_matches(self, problem, serial):
        sim, pat, model, gamma = problem
        serial_compiled = LikelihoodEngine(
            pat, sim.tree.copy(), model, gamma, backend="compiled"
        ).log_likelihood()
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=3,
            backend="compiled",
        ) as pool:
            lnl = pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
            assert lnl - serial_compiled == 0.0
            assert lnl == pytest.approx(serial["lnl"], rel=LNL_RECOMPUTE_RTOL)

    def test_cat_pool_matches_serial_cat(self, problem):
        sim, pat, model, _ = problem
        rng = np.random.default_rng(7)
        cat = CatRates.from_gamma(0.9, pat.n_patterns, 4, rng, weights=pat.weights)
        ref = make_engine(pat, sim.tree.copy(), model, cat=cat)
        expected = ref.log_likelihood()
        with WorkerPool(
            pat, sim.tree.copy(), model, None, n_workers=3, cat=cat
        ) as pool:
            edge = ref.default_edge()
            lnl = pool_lnl(pool, sim.tree, edge, pat.weights)
            assert lnl - expected == 0.0
            with pytest.raises(ValueError, match="CAT"):
                pool.set_alpha(0.7)


class TestPoolFailure:
    def test_chained_adoption_stays_exact(self, problem, serial):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=3,
            backend="reference",
        ) as pool:
            edge = serial["edge"]
            assert pool_lnl(pool, sim.tree, edge, pat.weights) - serial["lnl"] == 0.0
            pool.kill_worker(0)
            assert pool_lnl(pool, sim.tree, edge, pat.weights) - serial["lnl"] == 0.0
            adopter = pool.adoptions[0]
            pool.kill_worker(adopter)
            assert pool_lnl(pool, sim.tree, edge, pat.weights) - serial["lnl"] == 0.0
            assert pool.dead == {0, adopter}
            assert pool.worker_failures == 2
            # every dead worker's slice ends up at a live adopter
            for dead in pool.dead:
                assert pool.owner_of(dead) in pool.alive

    def test_abort_policy_raises(self, problem, serial):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=2,
            on_worker_failure="abort",
        ) as pool:
            pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
            pool.kill_worker(1)
            with pytest.raises(WorkerFailure):
                pool_lnl(pool, sim.tree, serial["edge"], pat.weights)

    def test_stale_sumbuf_epoch_rejected(self, problem, serial):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=2
        ) as pool:
            edge = serial["edge"]
            depth = pool.prepare(sim.tree, edge)
            for k in range(depth):
                pool.run_wave(k)
            old = pool.sumbuf(edge)
            assert isinstance(old, SumBufferHandle)
            pool.sumbuf(edge)  # newer epoch supersedes `old`
            with pytest.raises(ValueError, match="stale"):
                pool.deriv(old, 0.1)


class TestObservability:
    def test_merged_profile_no_double_count(self, problem):
        """Simulated fork-join shares ONE backend instance across worker
        engines; aggregation must count each dispatch exactly once."""
        sim, pat, model, gamma = problem
        fj = ForkJoinEngine(
            pat, sim.tree.copy(), model, gamma, n_threads=3,
            backend=get_backend("reference"),
        )
        fj.log_likelihood()
        merged = fj.profile
        shared = fj.slices[0].backend.profile
        assert merged.calls == shared.calls
        # the naive per-engine merge would have multiplied by n_threads
        naive = sum(
            sum(w.backend.profile.calls.values()) for w in fj.slices
        )
        assert naive == 3 * sum(merged.calls.values())
        # slices partition the patterns: site units match a serial run
        # of the same single evaluation on a fresh backend instance
        ref = LikelihoodEngine(
            pat, sim.tree.copy(), model, gamma,
            backend=get_backend("reference"),
        )
        ref.log_likelihood()
        assert dict(merged.site_units) == dict(ref.backend.profile.site_units)
        fj.close()

    def test_pool_reset_all_observability(self, problem, serial):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=2
        ) as pool:
            pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
            assert sum(pool.merged_profile().calls.values()) > 0
            assert pool.counters().total_calls() > 0
            assert pool.barrier_stats.regions > 0
            pool.reset_profiles()
            # barrier stats first: the merged_* queries below are
            # themselves pool regions and would re-increment the count
            assert pool.barrier_stats.regions == 0
            assert sum(pool.merged_profile().calls.values()) == 0
            assert pool.counters().total_calls() == 0

    def test_barrier_stats_feed_cost_model(self, problem, serial):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=2
        ) as pool:
            pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
            stats = pool.barrier_stats
            assert stats.regions > 0
            assert stats.region_seconds > 0.0
            assert stats.max_region_seconds <= stats.region_seconds
            assert 0.0 <= stats.overhead_seconds <= stats.region_seconds
            assert stats.mean_region_overhead_s == pytest.approx(
                stats.overhead_seconds / stats.regions
            )
            payload = stats.to_dict()
            assert payload["regions"] == stats.regions
            assert payload["mean_region_overhead_s"] == (
                stats.mean_region_overhead_s
            )


NEW_MODEL = gtr(
    np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]), np.array([0.3, 0.2, 0.2, 0.3])
)


def assert_equals_serial(engine, ref):
    """Every result, and the kernel counters, equal the serial ``ref``'s
    exactly — then again after a shape refit and after a model change."""
    def check():
        engine.reset_profile()
        ref.reset_profile()
        edge = ref.default_edge()
        assert engine.log_likelihood() - ref.log_likelihood() == 0.0
        np.testing.assert_array_equal(
            engine.site_log_likelihoods(), ref.site_log_likelihoods()
        )
        got = engine.branch_derivatives(engine.edge_sum_buffer(edge), 0.13)
        want = ref.branch_derivatives(ref.edge_sum_buffer(edge), 0.13)
        assert [g - w for g, w in zip(got, want)] == [0.0, 0.0, 0.0]
        assert engine.all_branch_gradients() == ref.all_branch_gradients()
        got_c, want_c = engine.counters, ref.counters
        assert got_c.calls == want_c.calls
        assert got_c.site_units == want_c.site_units
        assert got_c.reductions == want_c.reductions

    check()
    for e in (engine, ref):
        e.set_alpha(0.6)
    check()
    for e in (engine, ref):
        e.set_model(NEW_MODEL)
    check()


class TestForkJoinModes:
    """The policy x substrate x workers x rate-model equivalence matrix."""

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_gamma_bit_identical(self, problem, execution, threads):
        sim, pat, model, gamma = problem
        backend = "reference" if execution != "simulated" else None
        for cls, count in ((ForkJoinEngine, "n_threads"), (DistributedEngine, "n_ranks")):
            ref = LikelihoodEngine(
                pat, sim.tree.copy(), model, gamma, backend=backend
            )
            with cls(
                pat, sim.tree.copy(), model, gamma, execution=execution,
                backend=backend, **{count: threads},
            ) as engine:
                assert_equals_serial(engine, ref)
        assert active_arena_segments() == []

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_cat_bit_identical(self, problem, execution):
        sim, pat, model, _ = problem
        rng = np.random.default_rng(7)
        cat = CatRates.from_gamma(0.9, pat.n_patterns, 4, rng, weights=pat.weights)
        ref = make_engine(pat, sim.tree.copy(), model, cat=cat)
        backend = "reference" if execution != "simulated" else None
        with ForkJoinEngine(
            pat, sim.tree.copy(), model, None, n_threads=3,
            execution=execution, backend=backend, cat=cat,
        ) as fj:
            # the CAT alpha refit renormalises against FULL pattern weights
            assert_equals_serial(fj, ref)

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    @pytest.mark.parametrize("rate_model", ["gamma", "cat"])
    def test_max_resident_bit_identical(self, problem, execution, rate_model):
        """The bounded-store axis: slices recompute what the budget
        dropped and still equal the (equally bounded) serial engine."""
        sim, pat, model, gamma = problem
        rates = {"rates": gamma}
        if rate_model == "cat":
            rng = np.random.default_rng(7)
            rates = {"cat": CatRates.from_gamma(
                0.9, pat.n_patterns, 4, rng, weights=pat.weights
            )}
        backend = "reference" if execution != "simulated" else None
        ref = make_engine(
            pat, sim.tree.copy(), model, max_resident=4, backend=backend,
            **rates,
        )
        with make_engine(
            pat, sim.tree.copy(), model, max_resident=4, workers=3,
            execution=execution, backend=backend, **rates,
        ) as engine:
            assert_equals_serial(engine, ref)
        assert ref.store.recomputed > 0
        resident = make_engine(
            pat, sim.tree.copy(), NEW_MODEL, backend=backend, **rates
        )
        resident.set_alpha(0.6)
        assert ref.log_likelihood() - resident.log_likelihood() == 0.0
        assert active_arena_segments() == []

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_empty_block_slices_bit_identical(self, problem, execution):
        """11 patterns on 8 workers: ceil-sized blocks leave the last two
        slices empty, and every result still equals the serial engine's."""
        sim, pat, model, gamma = problem
        few = slice_patterns(pat, np.arange(11))
        backend = "reference" if execution != "simulated" else None
        ref = LikelihoodEngine(few, sim.tree.copy(), model, gamma, backend=backend)
        with ForkJoinEngine(
            few, sim.tree.copy(), model, gamma, n_threads=8,
            execution=execution, backend=backend,
        ) as fj:
            assert fj.distribution.per_worker_counts == [2] * 5 + [1, 0, 0]
            assert_equals_serial(fj, ref)
        assert active_arena_segments() == []

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_every_substrate_slices_by_block(self, problem, workers):
        sim, pat, model, gamma = problem
        want = distribute_block(pat.n_patterns, workers).assignment
        for execution in EXECUTION_MODES:
            with ForkJoinEngine(
                pat, sim.tree.copy(), model, gamma, n_threads=workers,
                execution=execution, backend="reference",
            ) as fj:
                assert fj.distribution.assignment == want, execution
        dist = DistributedEngine(pat, sim.tree.copy(), model, gamma, n_ranks=workers)
        assert dist.distribution.assignment == want

    def test_worker_death_during_engine_use(self, problem, serial):
        sim, pat, model, gamma = problem
        with ForkJoinEngine(
            pat, sim.tree.copy(), model, gamma, n_threads=3,
            execution="processes", backend="reference",
        ) as fj:
            assert fj.log_likelihood() - serial["lnl"] == 0.0
            fj.pool.kill_worker(1)
            assert fj.log_likelihood() - serial["lnl"] == 0.0
            assert fj.pool.adoptions[1] in fj.pool.alive
            # a death between derivativeSum and derivativeCore: the ghost
            # finds the live sum buffer in the arena
            sb = fj.edge_sum_buffer(serial["edge"])
            fj.pool.kill_worker(2)
            got = fj.branch_derivatives(sb, 0.13)
            assert [g - s for g, s in zip(got, serial["deriv"])] == [0.0] * 3
            assert fj.pool.dead == {1, 2}


def test_worker_death_degrades_healthz(problem, serial):
    """A real ``processes`` worker death, absorbed by adoption, flips the
    live ``/healthz`` to 503 and names the pool and the dead worker;
    the likelihood stays exact."""
    sim, pat, model, gamma = problem
    srv = obs_server.serve(port=0)
    try:
        with ForkJoinEngine(
            pat, sim.tree.copy(), model, gamma, n_threads=2,
            execution="processes", backend="reference",
        ) as engine:
            engine.pool.kill_worker(1)
            assert engine.log_likelihood() == serial["lnl"]
            try:
                with urllib.request.urlopen(srv.url + "/healthz", timeout=10):
                    raise AssertionError("/healthz answered 2xx after a death")
            except urllib.error.HTTPError as err:
                code, snap = err.code, json.loads(err.read())
        assert code == 503 and snap["status"] == "degraded"
        probe = [p for p in snap["worker_pools"] if p["dead"] == [1]]
        assert probe and probe[0]["workers"] == 2
        assert any(
            e["kind"] == "worker_death" for e in snap["degradation_events"]
        )
    finally:
        srv.stop()
        obs_server.health().reset()


class TestMakeEngineParallel:
    def test_make_engine_returns_forkjoin(self, problem, serial):
        sim, pat, model, gamma = problem
        eng = make_engine(
            pat, sim.tree.copy(), model, gamma, workers=3,
            execution="threads", backend="reference",
        )
        assert isinstance(eng, ForkJoinEngine)
        assert eng.log_likelihood() - serial["lnl"] == 0.0
        eng.close()

    def test_make_engine_rejects_bad_combos(self, problem):
        sim, pat, model, gamma = problem
        with pytest.raises(ValueError, match="workers"):
            make_engine(pat, sim.tree.copy(), model, gamma, workers=0)
        with pytest.raises(ValueError, match="scale counters"):
            make_engine(
                pat, sim.tree.copy(), model, gamma, workers=2, p_inv=0.1
            )
        with pytest.raises(ValueError, match="at least 3"):
            make_engine(
                pat, sim.tree.copy(), model, gamma, workers=2, max_resident=2
            )
        with pytest.raises(ValueError, match="backend"):
            make_engine(
                pat, sim.tree.copy(), model, gamma, workers=2,
                execution="threads", backend=object(),
            )
        with make_engine(
            pat, sim.tree.copy(), model, gamma, workers=2, max_resident=4
        ) as engine:
            assert all(s.store.max_resident == 4 for s in engine.slices)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert default_workers() == 1
        assert default_execution() == "simulated"
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_EXEC", "processes")
        assert default_workers() == 4
        assert default_execution() == "processes"
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()
        monkeypatch.setenv("REPRO_EXEC", "cuda")
        with pytest.raises(ValueError, match="REPRO_EXEC"):
            default_execution()


class TestArenaHygiene:
    @pytest.mark.parametrize("rate_model", ["gamma", "cat"])
    def test_arena_holds_only_cross_process_regions(self, problem, rate_model):
        """CLAs and scale counters stay in each worker's private store:
        the arena holds what the master hands out and reads back."""
        sim, pat, model, gamma = problem
        rates = {"rates": gamma}
        if rate_model == "cat":
            rng = np.random.default_rng(7)
            rates = {"rates": None, "cat": CatRates.from_gamma(
                0.9, pat.n_patterns, 4, rng, weights=pat.weights
            )}
        with WorkerPool(
            pat, sim.tree.copy(), model, n_workers=2, **rates
        ) as pool:
            names = {region[0] for region in pool.arena.layout.regions}
        assert names == {"tips", "weights", "site", "terms", "sumbuf", "partial"}

    def test_no_leaked_segments_after_close(self, problem, serial):
        sim, pat, model, gamma = problem
        pool = WorkerPool(pat, sim.tree.copy(), model, gamma, n_workers=2)
        assert active_arena_segments() != []
        pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
        pool.close()
        assert active_arena_segments() == []
        pool.close()  # idempotent

    def test_no_leak_after_worker_death(self, problem, serial):
        sim, pat, model, gamma = problem
        with WorkerPool(
            pat, sim.tree.copy(), model, gamma, n_workers=3
        ) as pool:
            pool.kill_worker(2)
            pool_lnl(pool, sim.tree, serial["edge"], pat.weights)
        assert active_arena_segments() == []

    def test_dropped_engine_tears_down_promptly(self, problem, serial):
        """No ``close()``: the finalizer must not wait out a join timeout."""
        sim, pat, model, gamma = problem
        engine = make_engine(
            pat, sim.tree.copy(), model, gamma, workers=2,
            execution="processes", backend="reference",
        )
        assert engine.log_likelihood() - serial["lnl"] == 0.0
        t0 = time.perf_counter()
        del engine
        gc.collect()
        assert time.perf_counter() - t0 <= 0.5
        assert active_arena_segments() == []
