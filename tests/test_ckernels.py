"""Compiled C backend tests.

Codegen: the source template validates its shape parameters and the
cache digest moves with everything that can change the object's bits.

Parity: the compiled backend must match the reference kernels to 1e-10
(scale counters exactly) on the kinds the shared registry parity suite
in ``test_backends.py`` does not already cover — the derivative and
gradient kinds — and whole engines (GTR+Gamma, CAT, +I, memsave) must agree on
real data.

Shadow: ``ShadowBackend(primary=CompiledBackend())`` stays silent on the
honest backend and catches a planted perturbation.

Workers: ``ml_search`` on ``compiled`` with ``workers=2`` is
bit-identical (delta == 0.0) to serial ``compiled``.

Fallback: with a broken ``$CC`` — or without ``Python.h`` — the backend
warns once and swaps its arithmetic hooks for the reference ones,
producing reference results bit for bit with no compiler at all.

Binding: a kernel call releases the GIL around its site loop, and the
object cache is keyed on the interpreter's ``EXT_SUFFIX``.

Warm start: the resolved toolchain is persisted beside the objects, so a
fresh process on a warm cache directory spawns no compiler at all; a
missing, corrupt or other-compiler spec file just probes again.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.backends import (
    BackendMismatchError,
    ReferenceBackend,
    ShadowBackend,
    get_backend,
    make_engine,
)
from repro.core.ckernels import (
    CompiledBackend,
    CompilerUnavailable,
    probe_status,
    render_source,
    source_digest,
)
from repro.core.ckernels import backend as ck_backend
from repro.core.ckernels import build as ck_build
from repro.core.traversal import KernelKind
from repro.phylo import CatRates, GammaRates, gtr, simulate_dataset

N_STATES = 4
N_CODES = 4
ATOL = 1e-10

#: The probe compiles ``#include <Python.h>``, so this is false on a host
#: without a compiler *or* without Python headers.
HAVE_CC = probe_status().available


def _random_inputs(seed: int, p: int, c: int, rescaled: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    tiny = 1e-140 if rescaled else 1.0
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
        "eigenvalues": np.concatenate(
            [[0.0], -rng.uniform(0.1, 2.0, size=N_STATES - 1)]
        ),
        "rates": rng.uniform(0.2, 3.0, size=c),
        "rate_weights": np.full(c, 1.0 / c),
        "pattern_weights": rng.integers(1, 5, size=p).astype(float),
    }


shape_strategy = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=97),
    st.sampled_from([1, 4]),
    st.booleans(),
)


class TestCodegen:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            render_source(1, 4)
        with pytest.raises(ValueError):
            render_source(4, 0)

    def test_source_parameterised_by_shape(self):
        s44 = render_source(4, 4)
        s41 = render_source(4, 1)
        s204 = render_source(20, 4)
        assert s44 != s41 != s204
        assert "#define NS 20" in s204

    def test_digest_covers_source_and_toolchain(self):
        src = render_source(4, 4)
        base = source_digest(src, "cc|-O3")
        assert base != source_digest(render_source(4, 1), "cc|-O3")
        assert base != source_digest(src, "cc|-O3|-march=native")
        assert base == source_digest(src, "cc|-O3")

    def test_object_path_keys_on_ext_suffix(self, monkeypatch, tmp_path):
        spec = ck_build.BuildSpec("cc", ("-O3",))
        paths = []
        for suffix in (".cpython-311-x86_64-linux-gnu.so", ".abi3.so"):
            monkeypatch.setattr(ck_build, "EXT_SUFFIX", suffix)
            paths.append(ck_build.object_path(4, 4, spec, tmp_path))
        assert paths[0] != paths[1]
        assert paths[0].name.split(".")[0] != paths[1].name.split(".")[0]
        assert [p.name.endswith(s) for p, s in zip(paths, (".cpython-311"
                "-x86_64-linux-gnu.so", ".abi3.so"))] == [True, True]


class TestPreorderAndGradientParity:
    """Kinds the shared registry parity suite does not cover."""

    @settings(max_examples=15, deadline=None)
    @given(shape=shape_strategy, t=st.floats(min_value=1e-6, max_value=2.0))
    def test_derivative_site_terms(self, shape, t):
        seed, p, c, _ = shape
        d = _random_inputs(seed, p, c)
        sumbuf = d["z1"] * d["z2"]
        ref = kernels.derivative_site_terms(
            sumbuf, d["eigenvalues"], d["rates"], d["rate_weights"], t
        )
        got = CompiledBackend().derivative_site_terms(
            sumbuf, d["eigenvalues"], d["rates"], d["rate_weights"], t
        )
        for r, g in zip(ref, got):
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=ATOL)

    @settings(max_examples=15, deadline=None)
    @given(shape=shape_strategy, t=st.floats(min_value=1e-6, max_value=2.0))
    def test_edge_gradient_fused(self, shape, t):
        seed, p, c, _ = shape
        d = _random_inputs(seed, p, c)
        args = (
            d["z1"], d["z2"], d["eigenvalues"], d["rates"],
            d["rate_weights"], t,
        )
        backend = CompiledBackend()
        terms_ref = kernels.edge_gradient_terms(*args)
        terms = backend.edge_gradient_terms(*args)
        for r, g in zip(terms_ref, terms):
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=ATOL)
        grad_ref = kernels.edge_gradient(*args, d["pattern_weights"])
        grad = backend.edge_gradient(*args, d["pattern_weights"])
        for r, g in zip(grad_ref, grad):
            assert g == pytest.approx(r, rel=1e-10, abs=ATOL)

    @settings(max_examples=10, deadline=None)
    @given(shape=shape_strategy)
    def test_gradient_broadcast_tip_views(self, shape):
        """Tip sides arrive as (p, 1, k) broadcast views in real engines."""
        seed, p, _, _ = shape
        d = _random_inputs(seed, p, 4)
        z_tip = np.ascontiguousarray(d["z1"][:, :1, :])
        args = (
            z_tip, d["z2"], d["eigenvalues"], d["rates"],
            d["rate_weights"], 0.3, d["pattern_weights"],
        )
        ref = kernels.edge_gradient(*args)
        got = CompiledBackend().edge_gradient(*args)
        for r, g in zip(ref, got):
            assert g == pytest.approx(r, rel=1e-10, abs=ATOL)


class TestTipCodeRange:
    """A tip code at or past the lookup table's code extent raises
    ``IndexError`` — the NumPy gather's answer — instead of reading past
    the table."""

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("kernel,operand", [
        ("newview_tip_tip", 1), ("newview_tip_tip", 2), ("newview_tip_inner", 1),
    ])
    def test_code_17_on_16_code_table(self, backend, kernel, operand):
        rng = np.random.default_rng(3)
        p, c = 9, 4
        tables = [rng.uniform(0.1, 1.0, size=(c, 16, N_STATES)) for _ in "ab"]
        codes = [rng.integers(0, 16, size=p).astype(np.uint32) for _ in "ab"]
        codes[operand - 1][p - 1] = 17
        u_inv = rng.normal(size=(N_STATES, N_STATES))
        if kernel == "newview_tip_tip":
            args = (u_inv, tables[0], codes[0], tables[1], codes[1])
        else:
            args = (
                u_inv, tables[0], codes[0],
                rng.uniform(0.05, 1.0, size=(c, N_STATES, N_STATES)),
                rng.uniform(0.1, 1.0, size=(p, c, N_STATES)),
                np.zeros(p, dtype=np.int64),
            )
        impl = get_backend(backend)
        with pytest.raises(IndexError):
            getattr(impl, kernel)(*args)
        # the same call with every code in range succeeds
        codes[operand - 1][p - 1] = 15
        z, _ = getattr(impl, kernel)(*args)
        assert z.shape == (p, c, N_STATES)


class TestEngineParity:
    @pytest.fixture(scope="class")
    def sim(self):
        return simulate_dataset(n_taxa=10, n_sites=400, seed=42)

    def _lnl(self, sim, backend, **kw):
        return make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            backend=backend, **kw,
        ).log_likelihood()

    def test_gamma(self, sim):
        ref = self._lnl(sim, "reference", rates=GammaRates(0.7))
        got = self._lnl(sim, "compiled", rates=GammaRates(0.7))
        assert got == pytest.approx(ref, abs=1e-9)

    def test_cat(self, sim):
        patterns = sim.alignment.compress()
        cat = CatRates.from_gamma(
            0.7, patterns.n_patterns, 4, np.random.default_rng(0),
            weights=patterns.weights,
        )
        ref = self._lnl(sim, "reference", cat=cat)
        got = self._lnl(sim, "compiled", cat=cat)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_invariant(self, sim):
        ref = self._lnl(sim, "reference", rates=GammaRates(0.7), p_inv=0.1)
        got = self._lnl(sim, "compiled", rates=GammaRates(0.7), p_inv=0.1)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_memsave(self, sim):
        ref = self._lnl(sim, "reference", rates=GammaRates(0.7))
        got = self._lnl(sim, "compiled", rates=GammaRates(0.7),
                        max_resident=4)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_gradients_all_branches(self, sim):
        def grads(backend):
            eng = make_engine(
                sim.alignment.compress(), sim.tree.copy(), gtr(),
                GammaRates(0.7), backend=backend,
            )
            return eng.all_branch_gradients()

        ref = grads("reference")
        got = grads("compiled")
        assert set(ref) == set(got)
        for eid in ref:
            np.testing.assert_allclose(
                np.array(got[eid]), np.array(ref[eid]),
                rtol=1e-9, atol=1e-9,
            )


class _PerturbedCompiled(CompiledBackend):
    name = "perturbed-compiled"
    description = "compiled with a 1e-6 error injected into newview"

    def newview_inner_inner(self, u_inv, a1, a2, z1, z2, scale1, scale2):
        z, s = super().newview_inner_inner(
            u_inv, a1, a2, z1, z2, scale1, scale2
        )
        return z + 1e-6, s


class TestShadowCompiled:
    def test_silent_on_honest_compiled(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=5)
        shadow = ShadowBackend(primary=CompiledBackend())
        lnl = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.9), backend=shadow,
        ).log_likelihood()
        ref = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(alpha=0.9), backend="reference",
        ).log_likelihood()
        assert lnl == pytest.approx(ref, abs=1e-9)
        assert shadow.checks > 0

    def test_catches_planted_perturbation(self):
        sim = simulate_dataset(n_taxa=8, n_sites=300, seed=5)
        shadow = ShadowBackend(primary=_PerturbedCompiled())
        with pytest.raises(BackendMismatchError, match="newview"):
            make_engine(
                sim.alignment.compress(), sim.tree.copy(), gtr(),
                GammaRates(alpha=0.9), backend=shadow,
            ).log_likelihood()


class TestWorkersBitParity:
    """compiled + workers=2 must equal serial compiled exactly."""

    def test_ml_search_workers_delta_zero(self):
        from repro.search import SearchConfig, ml_search

        sim = simulate_dataset(n_taxa=8, n_sites=250, seed=13)
        config = SearchConfig(radii=(3,), max_spr_rounds=1, seed=0)
        serial = ml_search(
            sim.alignment, config=config, backend="compiled"
        )
        parallel = ml_search(
            sim.alignment, config=config, backend="compiled",
            workers=2, execution="threads",
        )
        assert parallel.lnl - serial.lnl == 0.0
        assert parallel.tree.to_newick() == serial.tree.to_newick()


class TestFallback:
    @staticmethod
    def _lnl_and_gradients(backend):
        sim = simulate_dataset(n_taxa=6, n_sites=150, seed=3)
        engine = make_engine(
            sim.alignment.compress(), sim.tree.copy(), gtr(),
            GammaRates(0.8), backend=backend,
        )
        return engine.log_likelihood(), engine.all_branch_gradients()

    def test_broken_cc_falls_back_to_reference(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setattr(ck_build, "_spec_cache", None)
        monkeypatch.setattr(ck_backend, "_warned_fallback", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = CompiledBackend()
            CompiledBackend()  # a second instance must not warn again
        assert backend.fallback_reason is not None
        assert "/nonexistent-compiler" in backend.fallback_reason
        fallback_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back" in str(w.message)
        ]
        assert len(fallback_warnings) == 1
        # the arithmetic is the reference hooks themselves ...
        for hook in backend._HOOKS:
            assert getattr(backend, hook) is getattr(ReferenceBackend, hook)
        assert backend._tip_tip is kernels.newview_tip_tip
        # ... so results equal the reference backend's bit for bit
        assert self._lnl_and_gradients(backend) == self._lnl_and_gradients(
            "reference"
        )

    @pytest.mark.skipif(not HAVE_CC, reason="no C toolchain here")
    def test_compile_failure_at_first_use_falls_back(self, monkeypatch):
        """The probe passes but building the kernel object fails."""
        monkeypatch.setattr(ck_backend, "_warned_fallback", True)
        backend = CompiledBackend()
        assert backend.fallback_reason is None

        def broken(states, rates):
            raise CompilerUnavailable("object build failed")

        monkeypatch.setattr(ck_backend, "load_kernels", broken)
        d = _random_inputs(0, 31, 4)
        args = (d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
                d["scale1"], d["scale2"])
        z, s = backend.newview_inner_inner(*args)
        z_ref, s_ref = kernels.newview_inner_inner(*args)
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_array_equal(s, s_ref)
        assert backend.fallback_reason == "object build failed"
        assert backend.profile.calls[KernelKind.NEWVIEW_INNER_INNER] == 1

    @pytest.mark.skipif(not HAVE_CC, reason="no C toolchain here")
    def test_missing_python_headers_fall_back(self, monkeypatch, tmp_path):
        """A compiler but no ``Python.h``: refused at the probe, once."""
        monkeypatch.setenv(ck_build.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(
            ck_build, "PYTHON_INCLUDE_DIRS", (str(tmp_path / "missing"),)
        )
        monkeypatch.setattr(ck_build, "_spec_cache", None)
        monkeypatch.setattr(ck_backend, "_warned_fallback", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend = CompiledBackend()
            CompiledBackend()
        assert "Python.h" in backend.fallback_reason
        assert [issubclass(w.category, RuntimeWarning) for w in caught] == [
            True
        ]
        status = probe_status()
        assert status.available is False
        assert "Python.h" in status.reason
        assert not (tmp_path / "toolchain.json").exists()

    def test_find_compiler_error_mentions_cc(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        with pytest.raises(CompilerUnavailable, match="nonexistent-compiler"):
            ck_build.find_compiler()

    def test_probe_status_never_raises(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setattr(ck_build, "_spec_cache", None)
        status = probe_status()
        assert status.available is False
        assert status.reason and "nonexistent-compiler" in status.reason


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain in this environment")
class TestBuildCache:
    def test_object_reused_across_loads(self, tmp_path):
        ck_build.load_kernels(4, 2, cache_dir=tmp_path)
        objects = list(tmp_path.glob("plf_4s_2r_*.so"))
        assert len(objects) == 1
        mtime = objects[0].stat().st_mtime_ns
        ck_build.load_kernels(4, 2, cache_dir=tmp_path)
        assert objects[0].stat().st_mtime_ns == mtime  # cache hit, no rebuild
        assert not list(tmp_path.glob("*.tmp"))  # temp names cleaned up

    def test_cache_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ck_build.CACHE_ENV, str(tmp_path / "objcache"))
        assert ck_build.default_cache_dir() == tmp_path / "objcache"
        status = probe_status()
        assert status.cache_dir == str(tmp_path / "objcache")

    def test_compiled_not_falling_back_here(self):
        """With a toolchain present the backend must actually compile."""
        backend = CompiledBackend()
        assert backend.fallback_reason is None
        d = _random_inputs(0, 31, 4)
        z, s = backend.newview_inner_inner(
            d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
            d["scale1"], d["scale2"],
        )
        z_ref, s_ref = kernels.newview_inner_inner(
            d["u_inv"], d["a1"], d["a2"], d["z1"], d["z2"],
            d["scale1"], d["scale2"],
        )
        np.testing.assert_allclose(z, z_ref, rtol=0.0, atol=ATOL)
        np.testing.assert_array_equal(s, s_ref)


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain in this environment")
def test_kernel_call_releases_the_gil():
    """Another Python thread runs while a 1M-pattern newview is in C.

    With an effectively infinite switch interval the main thread hands
    the GIL over only when it releases it, so the spinner's counter can
    advance across the call only if the kernel runs without the GIL.
    """
    p = 1_000_000
    backend = CompiledBackend()
    args = (
        np.eye(N_STATES), np.full((1, N_STATES, N_STATES), 0.25),
        np.full((1, N_STATES, N_STATES), 0.25), np.full((p, 1, N_STATES), 0.5),
        np.full((p, 1, N_STATES), 0.5), np.zeros(p, dtype=np.int64),
        np.zeros(p, dtype=np.int64),
    )
    backend.newview_inner_inner(*args)  # load the module first
    count, stop = 0, False

    def spin():
        nonlocal count
        while not stop:
            count += 1
            time.sleep(0)  # hand the GIL back at once

    old = sys.getswitchinterval()
    sys.setswitchinterval(100.0)
    thread = threading.Thread(target=spin)
    try:
        thread.start()
        while count == 0:
            time.sleep(0.001)
        before = count
        backend.newview_inner_inner(*args)
        during = count - before
    finally:
        stop = True
        thread.join()
        sys.setswitchinterval(old)
    assert during > 0


#: A fresh interpreter: build the default-able backend, run one kernel.
#: With ``deny`` every way of spawning a process raises first.
_CHILD = """
import subprocess, sys
if sys.argv[1] == "deny":
    def deny(*args, **kwargs):
        raise AssertionError(f"spawned a subprocess: {args}")
    subprocess.run = subprocess.Popen = deny
import numpy as np
from repro.core.ckernels import CompiledBackend
backend = CompiledBackend()
out = backend.derivative_sum(np.full((5, 4, 4), 2.0), np.full((5, 4, 4), 3.0))
assert backend.fallback_reason is None, backend.fallback_reason
assert (out == 6.0).all()
"""


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain in this environment")
class TestWarmStart:
    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        """A private, empty cache directory and a forgetful process."""
        monkeypatch.setenv(ck_build.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(ck_build, "_spec_cache", None)
        compiles = []
        real = ck_build._try_compile

        def counting(*args):
            compiles.append(args)
            return real(*args)

        monkeypatch.setattr(ck_build, "_try_compile", counting)
        return tmp_path, compiles

    def _probe_again(self, monkeypatch, **kwargs):
        monkeypatch.setattr(ck_build, "_spec_cache", None)
        return ck_build.probe_toolchain(**kwargs)

    def test_fresh_process_on_a_warm_cache_spawns_no_compiler(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            **os.environ, "PYTHONPATH": str(src),
            ck_build.CACHE_ENV: str(tmp_path),
        }
        for mode in ("allow", "deny"):  # cold: probe + compile; then warm
            done = subprocess.run(
                [sys.executable, "-c", _CHILD, mode], env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert list(tmp_path.glob("plf_4s_4r_*.so"))
            assert (tmp_path / "toolchain.json").is_file()

    def test_spec_is_reused_until_it_is_deleted(self, cache, monkeypatch):
        tmp_path, compiles = cache
        spec = ck_build.probe_toolchain()
        assert len(compiles) == 2  # the base-flags and -march=native probes
        assert self._probe_again(monkeypatch) == spec
        assert len(compiles) == 2
        (tmp_path / "toolchain.json").unlink()
        assert self._probe_again(monkeypatch) == spec
        assert len(compiles) == 4
        assert self._probe_again(monkeypatch, refresh=True) == spec
        assert len(compiles) == 6

    def test_another_compiler_probes_again(self, cache, monkeypatch):
        tmp_path, compiles = cache
        first = ck_build.probe_toolchain()
        other = tmp_path / "other-cc"
        other.symlink_to(os.path.realpath(first.compiler))
        monkeypatch.setenv("CC", str(other))
        second = self._probe_again(monkeypatch)
        assert second.compiler == str(other)
        assert len(compiles) == 4

    @pytest.mark.parametrize(
        "garbage", ["", "{not json", "[1, 2]", '{"identity": 3}',
                    '{"identity": null, "flags": 7}']
    )
    def test_corrupt_spec_is_ignored_and_rewritten(
        self, cache, monkeypatch, garbage
    ):
        tmp_path, compiles = cache
        spec = ck_build.probe_toolchain()
        spec_file = tmp_path / "toolchain.json"
        good = spec_file.read_text()
        spec_file.write_text(garbage)
        assert self._probe_again(monkeypatch) == spec
        assert len(compiles) == 4
        assert json.loads(spec_file.read_text()) == json.loads(good)
