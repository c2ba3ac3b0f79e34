"""Result-level differential: whole searches, whole placements.

Per-kernel parity (``test_backends.py``, ``test_ckernels.py``) says the
backends agree call by call; this file says they agree on what a user
gets back.  One full ``ml_search`` on a fixed dataset, on every cell of
backend {reference, compiled} x workers {1, 2}, and one full
``place_queries`` per backend (placement has one engine, no workers):
same topology / same best edge and LWR order everywhere, searches
bitwise equal across worker counts, and both within the bounds of
``tolerances.py`` across backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import make_engine
from repro.core.traversal import KernelKind
from repro.phylo import GammaRates, gtr, simulate_dataset
from repro.search import SearchConfig, ml_search, place_queries
from tolerances import (
    LNL_RECOMPUTE_RTOL,
    PLACEMENT_LNL_BACKEND_RTOL,
    SEARCH_LNL_BACKEND_ATOL,
)

BACKENDS = ("reference", "compiled")
CELLS = [(backend, workers) for backend in BACKENDS for workers in (1, 2)]


@pytest.fixture(scope="module")
def sim():
    return simulate_dataset(n_taxa=8, n_sites=300, seed=17)


@pytest.fixture(scope="module")
def searches(sim):
    results = {
        (backend, workers): ml_search(
            sim.alignment, config=SearchConfig(seed=0), backend=backend,
            workers=workers, execution="threads",
        )
        for backend, workers in CELLS
    }
    yield results
    for result in results.values():
        if hasattr(result.engine, "close"):
            result.engine.close()


@pytest.fixture(scope="module")
def placements(sim):
    rng = np.random.default_rng(3)
    aln = sim.alignment
    queries = {}
    for taxon in aln.taxa[:3]:
        seq = list(aln.sequence(taxon))
        for site in rng.choice(len(seq), size=len(seq) // 20, replace=False):
            seq[site] = "ACGT"[rng.integers(4)]
        queries["q_" + taxon] = "".join(seq)
    return {
        backend: place_queries(
            aln, sim.tree, queries, gtr(), GammaRates(1.0, 4), backend=backend
        )
        for backend in BACKENDS
    }


class TestSearch:
    def test_same_topology_in_every_cell(self, sim, searches):
        for result in searches.values():
            assert result.tree.robinson_foulds(sim.tree) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_counts_agree_bitwise(self, searches, backend):
        one, two = searches[backend, 1], searches[backend, 2]
        assert two.lnl - one.lnl == 0.0
        assert two.newick == one.newick

    def test_backends_agree_within_the_table(self, searches):
        ref, comp = searches["reference", 1], searches["compiled", 1]
        assert comp.lnl == pytest.approx(ref.lnl, abs=SEARCH_LNL_BACKEND_ATOL)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reported_lnl_recomputes_on_the_oracle(self, sim, searches, backend):
        result = searches[backend, 1]
        fresh = make_engine(
            sim.alignment.compress(), result.tree.copy(), result.model,
            GammaRates(result.alpha, 4), backend="reference",
        )
        assert fresh.log_likelihood() == pytest.approx(
            result.lnl, rel=LNL_RECOMPUTE_RTOL
        )

    def test_newton_cost_is_backend_independent(self, searches):
        """The stop test resolves the same iterate on either backend's
        ulps: ``derivative_core`` counts within 2 % of each other."""
        ref, comp = (
            searches[backend, 1].counters.calls[KernelKind.DERIVATIVE_CORE]
            for backend in BACKENDS
        )
        assert abs(ref - comp) <= 0.02 * ref


class TestPlacement:
    def test_backends_agree_within_the_table(self, placements):
        for ref, comp in zip(placements["reference"], placements["compiled"]):
            assert ref.query == comp.query
            # same best edge, same LWR order down the kept list
            assert [p.edge_label for p in comp.placements] == [
                p.edge_label for p in ref.placements
            ]
            for p_ref, p_comp in zip(ref.placements, comp.placements):
                assert p_comp.log_likelihood == pytest.approx(
                    p_ref.log_likelihood, rel=PLACEMENT_LNL_BACKEND_RTOL
                )
