"""Backend dispatch-seam tests.

Parity: every registered backend must agree with the reference NumPy
kernels to 1e-10 on randomized CLAs across tip/inner combinations,
Gamma and single-rate shapes, and rescaled inputs.

Shadow: the differential-testing backend must catch a deliberately
perturbed kernel and stay silent on honest ones.

Factory: ``make_engine`` composes backend x memsave x CAT x p_inv in one
place and rejects contradictory combinations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.backends import (
    BackendMismatchError,
    KernelProfile,
    ReferenceBackend,
    ShadowBackend,
    available_backends,
    get_backend,
    make_engine,
)
from repro.core.cat import CatModel
from repro.core.ckernels import CompiledBackend
from repro.core.engine import LikelihoodEngine
from repro.core.invariant import InvariantMixture
from repro.phylo import CatRates, GammaRates, gtr, simulate_dataset
from tolerances import KERNEL_PARITY_ATOL as ATOL

N_STATES = 4
N_CODES = 16

#: (label, zero-arg factory) for every backend whose outputs must match
#: the reference kernels.
PARITY_BACKENDS = [
    (info.name, info.factory)
    for info in available_backends()
    if info.name != "reference"
]
PARITY_IDS = [label for label, _ in PARITY_BACKENDS]
PARITY_FACTORIES = [factory for _, factory in PARITY_BACKENDS]


def _random_inputs(seed: int, p: int, c: int, rescaled: bool) -> dict:
    """Randomized kernel operands of one shape family."""
    rng = np.random.default_rng(seed)
    tiny = 1e-140 if rescaled else 1.0  # products cross SCALE_THRESHOLD
    return {
        "u_inv": rng.normal(size=(N_STATES, N_STATES)),
        "a1": rng.uniform(0.05, 1.0, size=(c, N_STATES, N_STATES)),
        "a2": rng.uniform(0.05, 1.0, size=(c, N_STATES, N_STATES)),
        "z1": rng.uniform(0.1, 1.0, size=(p, c, N_STATES)) * tiny,
        "z2": rng.uniform(0.1, 1.0, size=(p, c, N_STATES)) * tiny,
        "scale1": rng.integers(0, 3, size=p),
        "scale2": rng.integers(0, 3, size=p),
        "lookup1": rng.uniform(0.1, 1.0, size=(c, N_CODES, N_STATES)),
        "lookup2": rng.uniform(0.1, 1.0, size=(c, N_CODES, N_STATES)),
        "codes1": rng.integers(0, N_CODES, size=p),
        "codes2": rng.integers(0, N_CODES, size=p),
        "exps": rng.uniform(0.1, 1.0, size=(c, N_STATES)),
        "rate_weights": np.full(c, 1.0 / c),
        "pattern_weights": rng.integers(1, 5, size=p).astype(float),
        "eigenvalues": np.concatenate(
            [[0.0], -rng.uniform(0.1, 2.0, size=N_STATES - 1)]
        ),
        "rates": rng.uniform(0.2, 3.0, size=c),
    }


shape_strategy = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),  # rng seed
    st.integers(min_value=1, max_value=97),         # patterns
    st.sampled_from([1, 4]),                        # rate categories
    st.booleans(),                                  # rescaled CLAs
)


@pytest.mark.parametrize("factory", PARITY_FACTORIES, ids=PARITY_IDS)
class TestKernelParity:
    """All backends reproduce the reference kernels to 1e-10."""

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy)
    def test_newview_tip_tip(self, factory, shape):
        seed, p, c, _ = shape
        d = _random_inputs(seed, p, c, rescaled=False)
        z_ref, s_ref = kernels.newview_tip_tip(
            d["u_inv"], d["lookup1"], d["codes1"], d["lookup2"], d["codes2"]
        )
        z, s = factory().newview_tip_tip(
            d["u_inv"], d["lookup1"], d["codes1"], d["lookup2"], d["codes2"]
        )
        np.testing.assert_allclose(z, z_ref, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(s, s_ref)

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy)
    def test_newview_tip_inner(self, factory, shape):
        seed, p, c, rescaled = shape
        d = _random_inputs(seed, p, c, rescaled)
        z_ref, s_ref = kernels.newview_tip_inner(
            d["u_inv"], d["lookup1"], d["codes1"],
            d["a2"], d["z2"], d["scale2"],
        )
        z, s = factory().newview_tip_inner(
            d["u_inv"], d["lookup1"], d["codes1"],
            d["a2"], d["z2"], d["scale2"],
        )
        np.testing.assert_allclose(z, z_ref, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(s, s_ref)

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy)
    def test_newview_inner_inner(self, factory, shape):
        seed, p, c, rescaled = shape
        d = _random_inputs(seed, p, c, rescaled)
        z_ref, s_ref = kernels.newview_inner_inner(
            d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
            d["scale1"], d["scale2"],
        )
        z, s = factory().newview_inner_inner(
            d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
            d["scale1"], d["scale2"],
        )
        if rescaled:  # the tiny inputs must actually trip the rescaler
            assert np.any(s_ref > d["scale1"] + d["scale2"])
        np.testing.assert_allclose(z, z_ref, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(s, s_ref)

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy)
    def test_evaluate(self, factory, shape):
        seed, p, c, _ = shape
        d = _random_inputs(seed, p, c, rescaled=False)
        scale = d["scale1"] + d["scale2"]
        site_ref = kernels.site_log_likelihoods(
            d["z1"], d["z2"], d["exps"], d["rate_weights"], scale
        )
        lnl_ref = kernels.evaluate_edge(
            d["z1"], d["z2"], d["exps"], d["rate_weights"],
            d["pattern_weights"], scale,
        )
        backend = factory()
        site = backend.site_log_likelihoods(
            d["z1"], d["z2"], d["exps"], d["rate_weights"], scale
        )
        lnl = backend.evaluate_edge(
            d["z1"], d["z2"], d["exps"], d["rate_weights"],
            d["pattern_weights"], scale,
        )
        np.testing.assert_allclose(site, site_ref, rtol=0.0, atol=ATOL)
        assert lnl == pytest.approx(lnl_ref, rel=1e-12, abs=ATOL)

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy)
    def test_evaluate_tip_root_broadcast(self, factory, shape):
        """Root sides may be (p, 1, k) tip views against (c, k) exps."""
        seed, p, _, _ = shape
        d = _random_inputs(seed, p, 4, rescaled=False)
        z1 = d["z1"][:, :1, :]
        z2 = d["z2"][:, :1, :]
        scale = np.zeros(p, dtype=np.int64)
        lnl_ref = kernels.evaluate_edge(
            z1, z2, d["exps"], d["rate_weights"], d["pattern_weights"], scale
        )
        lnl = factory().evaluate_edge(
            z1, z2, d["exps"], d["rate_weights"], d["pattern_weights"], scale
        )
        assert lnl == pytest.approx(lnl_ref, rel=1e-12, abs=ATOL)

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy)
    def test_derivative_sum(self, factory, shape):
        seed, p, c, rescaled = shape
        d = _random_inputs(seed, p, c, rescaled)
        np.testing.assert_allclose(
            factory().derivative_sum(d["z1"], d["z2"]),
            kernels.derivative_sum(d["z1"], d["z2"]),
            rtol=0.0,
            atol=ATOL,
        )

    @settings(max_examples=20, deadline=None)
    @given(shape=shape_strategy, t=st.floats(min_value=1e-6, max_value=2.0))
    def test_derivative_core(self, factory, shape, t):
        seed, p, c, _ = shape
        d = _random_inputs(seed, p, c, rescaled=False)
        sumbuf = d["z1"] * d["z2"]
        ref = kernels.derivative_core(
            sumbuf, d["eigenvalues"], d["rates"], d["rate_weights"],
            t, d["pattern_weights"],
        )
        got = factory().derivative_core(
            sumbuf, d["eigenvalues"], d["rates"], d["rate_weights"],
            t, d["pattern_weights"],
        )
        for r, g in zip(ref, got):
            assert g == pytest.approx(r, rel=1e-10, abs=ATOL)


class TestEngineParity:
    """Whole-engine agreement across backends on a real dataset."""

    @pytest.fixture(scope="class")
    def sim(self):
        return simulate_dataset(n_taxa=10, n_sites=500, seed=77)

    def _engine(self, sim, backend):
        return make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.6), backend=backend,
        )

    def test_log_likelihood_all_backends(self, sim):
        ref = self._engine(sim, "reference").log_likelihood()
        for info in available_backends():
            lnl = self._engine(sim, info.name).log_likelihood()
            assert lnl == pytest.approx(ref, abs=1e-9), info.name

    def test_branch_derivatives_all_backends(self, sim):
        eng_ref = self._engine(sim, "reference")
        eid = eng_ref.tree.edges[0].id
        sb = eng_ref.edge_sum_buffer(eid)
        ref = eng_ref.branch_derivatives(sb, 0.07)
        for info in available_backends():
            eng = self._engine(sim, info.name)
            got = eng.branch_derivatives(eng.edge_sum_buffer(eid), 0.07)
            for r, g in zip(ref, got):
                assert g == pytest.approx(r, rel=1e-9), info.name

    def test_site_log_likelihoods_match(self, sim):
        ref = self._engine(sim, "reference").site_log_likelihoods()
        got = self._engine(sim, "compiled").site_log_likelihoods()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10)


class _PerturbedNewview(ReferenceBackend):
    """Reference kernels with a deliberately wrong inner-inner newview."""

    name = "perturbed"
    description = "reference with a 1e-6 error injected into newview"

    def newview_inner_inner(self, u_inv, a1, a2, z1, z2, scale1, scale2):
        z, s = super().newview_inner_inner(
            u_inv, a1, a2, z1, z2, scale1, scale2
        )
        return z + 1e-6, s


class _PerturbedDerivative(ReferenceBackend):
    name = "perturbed-deriv"
    description = "reference with a biased derivativeCore"

    def derivative_core(self, sumbuf, eigenvalues, rates, rate_weights, t,
                        pattern_weights):
        lnl, d1, d2 = super().derivative_core(
            sumbuf, eigenvalues, rates, rate_weights, t, pattern_weights
        )
        return lnl, d1 * (1.0 + 1e-4), d2


class TestShadowBackend:
    def test_silent_on_honest_backends(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=5)
        shadow = ShadowBackend()
        assert shadow.primary.name == "compiled"
        engine = self._run(sim, shadow)
        ref = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.9), backend="reference",
        ).log_likelihood()
        assert engine == pytest.approx(ref, abs=1e-9)
        assert shadow.checks > 0

    @staticmethod
    def _run(sim, backend):
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.9), backend=backend,
        )
        return engine.log_likelihood()

    def test_catches_perturbed_newview(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=5)
        shadow = ShadowBackend(primary=_PerturbedNewview())
        with pytest.raises(BackendMismatchError, match="newview"):
            self._run(sim, shadow)

    def test_catches_perturbed_derivative(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=5)
        shadow = ShadowBackend(primary=_PerturbedDerivative())
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.9), backend=shadow,
        )
        eid = engine.tree.edges[0].id
        sb = engine.edge_sum_buffer(eid)
        with pytest.raises(BackendMismatchError, match="derivative"):
            engine.branch_derivatives(sb, 0.1)

    def test_inner_profiles_count_true_kernel_kinds(self):
        """Both wrapped backends see every dispatch under its own kind."""
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=5)
        shadow = ShadowBackend()
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.9), backend=shadow,
        )
        engine.log_likelihood()
        engine.all_branch_gradients()
        eid = engine.tree.edges[0].id
        engine.branch_derivatives(engine.edge_sum_buffer(eid), 0.1)
        assert len(shadow.profile.calls) >= 6  # newview kinds, gradient...
        assert shadow.primary.profile.calls == shadow.profile.calls
        assert shadow.reference.profile.calls == shadow.profile.calls
        assert shadow.checks == sum(shadow.profile.calls.values())

    def test_kernel_level_mismatch(self):
        d = _random_inputs(0, 31, 4, rescaled=False)
        shadow = ShadowBackend(primary=_PerturbedNewview())
        with pytest.raises(BackendMismatchError):
            shadow.newview_inner_inner(
                d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
                d["scale1"], d["scale2"],
            )


class TestRegistryAndFactory:
    def test_registry_names(self):
        names = [info.name for info in available_backends()]
        assert names == ["reference", "shadow", "compiled"]
        assert all(info.description for info in available_backends())

    def test_get_backend_unknown(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("simd-but-not-really")

    def test_get_backend_fresh_instances(self):
        assert get_backend("compiled") is not get_backend("compiled")

    def test_get_backend_instance_passthrough(self):
        inst = CompiledBackend()
        assert get_backend(inst) is inst

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert isinstance(get_backend(None), ReferenceBackend)
        monkeypatch.delenv("REPRO_BACKEND")
        assert isinstance(get_backend(None), CompiledBackend)

    def test_default_without_toolchain_is_reference_arithmetic(
        self, monkeypatch
    ):
        """No compiler: the default still works, bitwise as the oracle."""
        from repro.core.ckernels import backend as ck_backend
        from repro.core.ckernels import build as ck_build

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("CC", "/nonexistent")
        monkeypatch.setattr(ck_build, "_spec_cache", None)
        monkeypatch.setattr(ck_backend, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="REPRO_BACKEND=reference"):
            default = get_backend(None)
        assert isinstance(default, CompiledBackend)
        assert "/nonexistent" in default.fallback_reason
        sim = simulate_dataset(n_taxa=6, n_sites=120, seed=11)
        patterns = sim.alignment.compress()

        def results(backend):
            engine = make_engine(
                patterns, sim.tree.copy(), gtr(), GammaRates(0.8),
                backend=backend,
            )
            return engine.log_likelihood(), engine.all_branch_gradients()

        assert results(default) == results("reference")

    def test_make_engine_flavours(self):
        """One engine class; the options pick its two collaborators."""
        sim = simulate_dataset(n_taxa=6, n_sites=120, seed=11)
        patterns = sim.alignment.compress()
        base = make_engine(patterns, sim.tree.copy(), gtr(), GammaRates(0.8))
        assert type(base) is LikelihoodEngine
        assert base.store.max_resident is None
        mem = make_engine(
            patterns, sim.tree.copy(), gtr(), GammaRates(0.8), max_resident=4
        )
        assert type(mem) is LikelihoodEngine
        assert mem.store.max_resident == 4
        inv = make_engine(
            patterns, sim.tree.copy(), gtr(), GammaRates(0.8), p_inv=0.1
        )
        assert isinstance(inv.rates, InvariantMixture)
        cat = CatRates.from_gamma(
            0.8, patterns.n_patterns, 4, np.random.default_rng(0),
            weights=patterns.weights,
        )
        cat_engine = make_engine(
            patterns, sim.tree.copy(), gtr(), cat=cat, backend="compiled"
        )
        assert isinstance(cat_engine.rates, CatModel)
        assert isinstance(cat_engine.backend, CompiledBackend)
        # CAT parity across backends, while we have the pieces in hand
        ref_cat = make_engine(patterns, sim.tree.copy(), gtr(), cat=cat)
        assert cat_engine.log_likelihood() == pytest.approx(
            ref_cat.log_likelihood(), abs=1e-9
        )

    @pytest.mark.parametrize(
        "flavour",
        ["gamma", "max_resident", "cat", "p_inv", "cat+p_inv+max_resident"],
    )
    def test_engines_are_freed_by_reference_count(self, flavour):
        """No engine is cyclic garbage: ``del`` frees it (CLAs included)
        at once, without waiting for a generational collection."""
        import gc
        import weakref

        sim = simulate_dataset(n_taxa=6, n_sites=120, seed=11)
        patterns = sim.alignment.compress()
        cat = CatRates.from_gamma(
            0.8, patterns.n_patterns, 4, np.random.default_rng(0),
            weights=patterns.weights,
        )
        options = {
            "gamma": {"rates": GammaRates(0.8)},
            "max_resident": {"rates": GammaRates(0.8), "max_resident": 4},
            "p_inv": {"rates": GammaRates(0.8), "p_inv": 0.1},
            "cat": {"cat": cat},
            "cat+p_inv+max_resident": {
                "cat": cat, "p_inv": 0.1, "max_resident": 4,
            },
        }[flavour]
        gc.collect()
        gc.disable()
        try:
            engine = make_engine(patterns, sim.tree.copy(), gtr(), **options)
            root = engine.default_edge()
            engine.log_likelihood(root)
            engine.branch_derivatives(engine.edge_sum_buffer(root), 0.1)
            engine.all_branch_gradients(root)
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_make_engine_invalid_combos(self):
        """What still raises — and that everything else constructs."""
        sim = simulate_dataset(n_taxa=6, n_sites=120, seed=11)
        patterns = sim.alignment.compress()
        cat = CatRates.from_gamma(
            0.8, patterns.n_patterns, 4, np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="rates"):
            make_engine(
                patterns, sim.tree.copy(), gtr(), GammaRates(0.8), cat=cat
            )
        with pytest.raises(ValueError, match="at least 3"):
            make_engine(
                patterns, sim.tree.copy(), gtr(), GammaRates(0.8),
                max_resident=2,
            )
        with pytest.raises(ValueError, match="workers"):
            make_engine(
                patterns, sim.tree.copy(), gtr(), GammaRates(0.8), workers=0
            )
        for rates in ({"rates": GammaRates(0.8)}, {"cat": cat}):
            for p_inv in (None, 0.1):
                for max_resident in (None, 4):
                    engine = make_engine(
                        patterns, sim.tree.copy(), gtr(), p_inv=p_inv,
                        max_resident=max_resident, **rates,
                    )
                    assert np.isfinite(engine.log_likelihood())

    def test_set_model_rejects_the_other_rates_type(self):
        """``set_model(model, rates)`` installs rates of the type the
        engine was built with and names a mismatch instead of dropping it."""
        sim = simulate_dataset(n_taxa=6, n_sites=120, seed=11)
        patterns = sim.alignment.compress()
        cat = CatRates.from_gamma(
            0.8, patterns.n_patterns, 4, np.random.default_rng(0),
            weights=patterns.weights,
        )
        engine = make_engine(patterns, sim.tree.copy(), gtr(), cat=cat)
        before = engine.log_likelihood()
        with pytest.raises(ValueError, match="CatRates.*GammaRates"):
            engine.set_model(gtr(), GammaRates(0.8))
        other = cat.with_alpha(3.0, patterns.weights)
        engine.set_model(gtr(), other)
        assert engine.cat is other
        assert engine.log_likelihood() != before
        gamma = make_engine(patterns, sim.tree.copy(), gtr(), GammaRates(0.8))
        with pytest.raises(ValueError, match="GammaRates.*CatRates"):
            gamma.set_model(gtr(), cat)


class TestProfiles:
    def test_profile_records_timed_kernels(self):
        sim = simulate_dataset(n_taxa=8, n_sites=250, seed=21)
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(0.8), backend="compiled",
        )
        engine.log_likelihood()
        eid = engine.tree.edges[0].id
        engine.branch_derivatives(engine.edge_sum_buffer(eid), 0.1)
        profile = engine.profile
        assert isinstance(profile, KernelProfile)
        merged = profile.merged()
        assert merged["newview"] > 0
        assert merged["evaluate"] == 1
        assert merged["derivative_sum"] == 1
        assert merged["derivative_core"] == 1
        seconds = profile.merged_seconds()
        assert all(seconds[k] > 0.0 for k in merged)

    def test_profile_feeds_trace_and_costmodel(self):
        from repro.perf import trace_from_profile
        from repro.perf.trace import KernelTrace

        sim = simulate_dataset(n_taxa=8, n_sites=250, seed=21)
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(0.8), backend="reference",
        )
        engine.log_likelihood()
        eid = engine.tree.edges[0].id
        engine.branch_derivatives(engine.edge_sum_buffer(eid), 0.1)
        trace = trace_from_profile(
            engine.profile, n_taxa=8,
            traced_sites=engine.patterns.n_patterns,
        )
        assert trace.calls == engine.profile.merged()
        assert trace.reductions == engine.profile.reductions
        assert trace.measured_seconds == engine.profile.merged_seconds()
        assert trace.measured_seconds["newview"] > 0.0
        roundtrip = KernelTrace.from_json(trace.to_json())
        assert roundtrip == trace

    def test_shared_backend_aggregates_profile(self):
        sim = simulate_dataset(n_taxa=6, n_sites=150, seed=33)
        shared = CompiledBackend()
        for seed in (1, 2):
            make_engine(
                sim.alignment.compress(), sim.tree.copy(), gtr(),
                GammaRates(0.8), backend=shared,
            ).log_likelihood()
        assert shared.profile.merged()["evaluate"] == 2
