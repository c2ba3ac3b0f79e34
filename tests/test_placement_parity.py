"""Placement on one reference engine equals placement by surgery, bit for bit.

The oracle is EPA written naively from public APIs: per query, merge it
into the reference alignment and compress; per candidate branch, attach
the query at the midpoint of a fresh copy of the reference tree, build
a fresh engine over the merged patterns, polish the pendant from 0.1
with :func:`~repro.search.branch_opt.polish_branch` and evaluate.
:class:`~repro.search.epa.PlacementSession` gathers the reference
engine's directed CLAs to the query's patterns instead; every
:class:`~repro.search.epa.PlacementResult` must be ``==`` the oracle's
(frozen floats: bitwise) on both backends.

The second half pins the cost model: one engine per session, and a warm
session spends one junction ``newview`` per candidate branch on a query.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import make_engine
from repro.core.traversal import KernelKind
from repro.phylo import Alignment, GammaRates, Tree, gtr, poisson_protein
from repro.phylo.states import DNA, PROTEIN
from repro.phylo.tree import MIN_BRANCH_LENGTH, random_topology
from repro.search import epa
from repro.search.branch_opt import polish_branch
from repro.search.epa import Placement, PlacementResult, PlacementSession

BACKENDS = ("reference", "compiled")
ITERATIONS = 4

#: DNA codes drawn for reference and query rows: the four bases, two
#: two-base ambiguities (R, Y) and the gap / N code.
DNA_CODES = np.array([1, 2, 4, 8, 5, 10, 15], dtype=np.uint32)


def _label(tree: Tree, edge) -> tuple[str, ...]:
    sides = [
        sorted(tree.name(n) for n in tree.subtree_leaves(node, edge.id))
        for node in (edge.u, edge.v)
    ]
    return tuple(min(sides, key=lambda side: (len(side), side)))


def oracle(reference: Alignment, tree: Tree, queries, model, gamma, backend):
    """Full ranked placements by attach + fresh engine per branch."""
    results = []
    for name, seq in queries.items():
        merged = Alignment(
            [*reference.taxa, name],
            np.vstack([reference.data, reference.states.encode(seq)]),
            reference.states,
        ).compress()
        placements = []
        for edge in tree.edges:
            trial = tree.copy()
            _, _, pend = trial.attach_leaf(edge.id, name, pendant_length=0.1)
            engine = make_engine(merged, trial, model, gamma, backend=backend)
            sumbuf = engine.edge_sum_buffer(pend)
            t = polish_branch(engine, sumbuf, 0.1, ITERATIONS)
            trial.edge(pend).length = t
            placements.append(
                Placement(
                    edge_label=_label(tree, edge),
                    log_likelihood=engine.log_likelihood(pend),
                    pendant_length=t,
                    distal_length=0.5 * edge.length,
                )
            )
        placements.sort(key=lambda p: p.log_likelihood, reverse=True)
        lnls = np.array([p.log_likelihood for p in placements])
        weights = np.exp(lnls - lnls.max())
        weights /= weights.sum()
        results.append(
            PlacementResult(
                name,
                [
                    Placement(p.edge_label, p.log_likelihood, p.pendant_length,
                              float(w), p.distal_length)
                    for p, w in zip(placements, weights)
                ],
            )
        )
    return results


def session_rows(reference, tree, queries, model, gamma, backend, **kwargs):
    with PlacementSession(
        reference, tree, model, gamma, newton_iterations=ITERATIONS,
        backend=backend, **kwargs,
    ) as session:
        return session.place(queries, keep_best=len(tree.edges))


def assert_parity(reference, tree, queries, model, gamma, backend, **kwargs):
    got = session_rows(reference, tree, queries, model, gamma, backend, **kwargs)
    assert got == oracle(reference, tree, queries, model, gamma, backend)


def random_reference(rng, n_taxa: int, n_sites: int, codes=DNA_CODES):
    names = [f"r{i}" for i in range(n_taxa)]
    data = rng.choice(codes, size=(n_taxa, n_sites)).astype(np.uint32)
    return Alignment(names, data), random_topology(names, rng)


def random_query(rng, n_sites: int, codes=DNA_CODES, states=DNA) -> str:
    return states.decode(rng.choice(codes, size=n_sites))


@st.composite
def placement_cases(draw):
    """A small random reference (2..7 taxa, any branch possibly at
    ``MIN_BRANCH_LENGTH``) and two queries over ambiguity and gap codes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_taxa = draw(st.integers(2, 7))
    n_sites = draw(st.integers(10, 60))
    reference, tree = random_reference(rng, n_taxa, n_sites)
    for edge in tree.edges:
        if draw(st.booleans()) and draw(st.booleans()):
            edge.length = MIN_BRANCH_LENGTH
    queries = {f"q{i}": random_query(rng, n_sites) for i in range(2)}
    return reference, tree, queries, draw(st.sampled_from([1.0, 0.3]))


class TestParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=placement_cases())
    @settings(max_examples=12, deadline=None)
    def test_random_references(self, backend, case):
        reference, tree, queries, alpha = case
        assert_parity(
            reference, tree, queries, gtr(), GammaRates(alpha, 4), backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_splits_many_patterns(self, backend):
        rng = np.random.default_rng(5)
        # Few distinct reference columns, a query that splits them all.
        names = [f"r{i}" for i in range(6)]
        columns = rng.choice(np.array([1, 2, 4, 8], np.uint32), size=(6, 4))
        data = columns[:, rng.integers(0, 4, size=80)]
        reference = Alignment(names, data)
        query = random_query(rng, 80)
        merged = Alignment(
            [*names, "q"], np.vstack([data, DNA.encode(query)])
        ).compress()
        assert merged.n_patterns > 3 * reference.compress().n_patterns
        assert_parity(
            reference, random_topology(names, rng), {"q": query}, gtr(),
            GammaRates(1.0, 4), backend,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leaf_edges_both_kinds(self, backend):
        """A 2-taxon reference's one branch joins two tips (``tip x
        tip`` junction); a 3-taxon reference's are all leaf branches
        (``tip x inner``)."""
        rng = np.random.default_rng(11)
        for n_taxa in (2, 3):
            reference, tree = random_reference(rng, n_taxa, 40)
            queries = {"q": random_query(rng, 40)}
            assert_parity(
                reference, tree, queries, gtr(), GammaRates(0.7, 4), backend
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edge_at_min_branch_length(self, backend):
        rng = np.random.default_rng(12)
        reference, tree = random_reference(rng, 6, 50)
        for edge in tree.edges[::2]:
            edge.length = MIN_BRANCH_LENGTH
        assert_parity(
            reference, tree, {"q": random_query(rng, 50)}, gtr(),
            GammaRates(1.0, 4), backend,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_store_session(self, backend):
        rng = np.random.default_rng(13)
        reference, tree = random_reference(rng, 9, 60)
        queries = {f"q{i}": random_query(rng, 60) for i in range(2)}
        assert_parity(
            reference, tree, queries, gtr(), GammaRates(1.0, 4), backend,
            max_resident=3,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_protein_query_code_absent_from_reference(self, backend):
        # Reference over A, R, N, D and B (= N or D); the query adds
        # C and Q, codes the reference's tip table has no row for.
        rng = np.random.default_rng(14)
        ref_codes = np.array([PROTEIN.char_to_code[c] for c in "ARNDB"])
        reference, tree = random_reference(rng, 5, 30, ref_codes)
        reference = Alignment(reference.taxa, reference.data, PROTEIN)
        query = "CQ" + "".join(rng.choice(list("ARNDCQ"), size=28))
        assert_parity(
            reference, tree, {"q": query}, poisson_protein(),
            GammaRates(1.0, 4), backend,
        )


class TestOneEngine:
    @pytest.fixture()
    def case(self):
        rng = np.random.default_rng(21)
        reference, tree = random_reference(rng, 8, 60)
        queries = {f"q{i}": random_query(rng, 60) for i in range(3)}
        return reference, tree, queries

    def test_one_place_builds_one_engine(self, case, monkeypatch):
        reference, tree, queries = case
        built = []
        real = epa.make_engine

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(epa, "make_engine", counting)
        epa.place_queries(reference, tree, queries, gtr(), GammaRates(1.0, 4))
        assert len(built) == 1

    def test_warm_query_costs_one_newview_per_branch(self, case):
        reference, tree, queries = case
        name, seq = next(iter(queries.items()))
        edges = len(tree.edges)
        with PlacementSession(
            reference, tree, gtr(), GammaRates(1.0, 4)
        ) as session:
            first = session.place({name: seq})
            counters = session.warm().counters
            before = dict(counters.calls)
            second = session.place({name: seq})
            spent = {
                kind: n - before.get(kind, 0)
                for kind, n in counters.calls.items()
                if n != before.get(kind, 0)
            }
        assert second == first
        newview = {k: n for k, n in spent.items() if k.value.startswith("newview")}
        assert sum(newview.values()) == edges
        assert spent[KernelKind.DERIVATIVE_SUM] == edges
        assert spent[KernelKind.EVALUATE] == edges
        assert 0 < spent[KernelKind.DERIVATIVE_CORE] <= ITERATIONS * edges
        assert set(spent) <= {
            *newview, KernelKind.DERIVATIVE_SUM, KernelKind.EVALUATE,
            KernelKind.DERIVATIVE_CORE,
        }
