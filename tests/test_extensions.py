"""Tests for the paper's future-work extensions: CAT, protein data,
partitioned alignments, EPA placement."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.core import LikelihoodEngine, make_engine
from repro.core.partitioned import Partition, partition_workers
from repro.parallel import PartitionedEngine
from repro.phylo import (
    Alignment,
    CatRates,
    GammaRates,
    Tree,
    gtr,
    poisson_protein,
    simulate_alignment,
    simulate_dataset,
)
from repro.search import optimize_all_branches, optimize_branch
from repro.search.epa import place_queries
from tolerances import KERNEL_PARITY_ATOL, LNL_RECOMPUTE_RTOL


@pytest.fixture(scope="module")
def cat_setup():
    sim = simulate_dataset(n_taxa=6, n_sites=80, seed=9)
    pat = sim.alignment.compress()
    model = gtr(
        np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
        np.array([0.3, 0.2, 0.2, 0.3]),
    )
    rng = np.random.default_rng(1)
    cat = CatRates.from_gamma(0.7, pat.n_patterns, 4, rng, weights=pat.weights)
    engine = make_engine(pat, sim.tree.copy(), model, cat=cat)
    return sim, pat, model, cat, engine


class TestCatEngine:
    def test_matches_per_site_brute_force(self, cat_setup):
        sim, pat, model, cat, engine = cat_setup
        tree = engine.tree
        q = model.rate_matrix()
        pi = model.frequencies
        tt = pat.states.tip_table()

        def cond(node, up, r):
            if tree.is_leaf(node):
                return tt[pat.row(tree.name(node))]
            out = np.ones((pat.n_patterns, 4))
            for ch, eid in tree.children(node, up):
                p = expm(q * r * tree.edge(eid).length)
                out *= cond(ch, eid, r) @ p.T
            return out

        e0 = tree.edge_ids[0]
        edge = tree.edge(e0)
        total = np.zeros(pat.n_patterns)
        for c, r in enumerate(cat.category_rates):
            mask = cat.site_categories == c
            p = expm(q * r * edge.length)
            wl = cond(edge.u, e0, r)
            wr = cond(edge.v, e0, r)
            site = np.einsum("pi,i,ij,pj->p", wl, pi, p, wr)
            total[mask] = site[mask]
        brute = float(np.dot(np.log(total), pat.weights))
        assert engine.log_likelihood() == pytest.approx(brute, abs=1e-9)

    def test_pulley_principle(self, cat_setup):
        *_, engine = cat_setup
        vals = [engine.log_likelihood(e) for e in engine.tree.edge_ids]
        assert max(vals) - min(vals) < 1e-9

    def test_derivatives_match_finite_difference(self, cat_setup):
        *_, engine = cat_setup
        tree = engine.tree
        eid = tree.edge_ids[2]
        sumbuf = engine.edge_sum_buffer(eid)
        t0 = tree.edge(eid).length
        _, d1, _ = engine.branch_derivatives(sumbuf, t0)
        h = 1e-6

        def lnl_at(t):
            tree.edge(eid).length = t
            return engine.log_likelihood(eid)

        fd = (lnl_at(t0 + h) - lnl_at(t0 - h)) / (2 * h)
        tree.edge(eid).length = t0
        assert d1 == pytest.approx(fd, rel=1e-4, abs=1e-3)

    def test_branch_optimization_runs(self, cat_setup):
        sim, pat, model, cat, _ = cat_setup
        engine = make_engine(pat, sim.tree.copy(), model, cat=cat)
        before = engine.log_likelihood()
        after = optimize_all_branches(engine, passes=2)
        assert after >= before

    def test_set_alpha_rebuilds_rates(self, cat_setup):
        sim, pat, model, cat, _ = cat_setup
        engine = make_engine(pat, sim.tree.copy(), model, cat=cat)
        lnl1 = engine.log_likelihood()
        engine.set_alpha(5.0)
        lnl2 = engine.log_likelihood()
        assert engine.alpha == 5.0
        assert lnl1 != lnl2
        # normalisation maintained
        mean = np.average(engine.rates.site_rates, weights=pat.weights)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_assignment_size_validated(self, cat_setup):
        sim, pat, model, cat, _ = cat_setup
        bad = CatRates(cat.category_rates, cat.site_categories[:-1])
        with pytest.raises(ValueError, match="patterns"):
            make_engine(pat, sim.tree.copy(), model, cat=bad)

    def test_single_category_cat_equals_no_gamma(self):
        """CAT with one unit category == plain engine without Gamma."""
        sim = simulate_dataset(n_taxa=5, n_sites=50, seed=12, alpha=None)
        pat = sim.alignment.compress()
        model = gtr()
        cat = CatRates(np.array([1.0]), np.zeros(pat.n_patterns, dtype=int))
        cat_engine = make_engine(pat, sim.tree.copy(), model, cat=cat)
        plain = LikelihoodEngine(pat, sim.tree.copy(), model, GammaRates(1.0, 1))
        assert cat_engine.log_likelihood() == pytest.approx(
            plain.log_likelihood(), abs=1e-9
        )


class TestRateModelStoreMatrix:
    """Rate model {Gamma, CAT, Gamma+I, CAT+I} x store {resident, bounded}:
    one engine composed both ways.  The bounded cell recomputes what its
    budget dropped with the same ops on the same operands, so it equals
    the resident cell exactly."""

    @staticmethod
    def cell(rate_model: str, max_resident=None, p_inv=0.15):
        sim = simulate_dataset(n_taxa=9, n_sites=160, seed=27)
        pat = sim.alignment.compress()
        options = {"rates": GammaRates(0.7, 4)}
        if rate_model.startswith("cat"):
            options = {"cat": CatRates.from_gamma(
                0.7, pat.n_patterns, 4, np.random.default_rng(3),
                weights=pat.weights,
            )}
        if rate_model.endswith("+I"):
            options["p_inv"] = p_inv
        return make_engine(
            pat, sim.tree.copy(), gtr(), max_resident=max_resident, **options
        )

    @pytest.mark.parametrize("rate_model", ["gamma", "cat", "gamma+I", "cat+I"])
    def test_bounded_equals_resident(self, rate_model):
        resident = self.cell(rate_model)
        bounded = self.cell(rate_model, max_resident=4)
        for eid in resident.tree.edge_ids:
            assert bounded.log_likelihood(eid) - resident.log_likelihood(eid) == 0.0
            got = bounded.branch_derivatives(bounded.edge_sum_buffer(eid), 0.07)
            want = resident.branch_derivatives(resident.edge_sum_buffer(eid), 0.07)
            assert got == want
        assert bounded.all_branch_gradients() == resident.all_branch_gradients()
        assert (
            optimize_all_branches(bounded, passes=1)
            - optimize_all_branches(resident, passes=1)
            == 0.0
        )
        assert bounded.tree.to_newick() == resident.tree.to_newick()
        assert bounded.store.recomputed > 0
        assert len(bounded.store) <= 4

    def test_cat_invariant_mixture_vanishes_with_p_inv(self):
        """CAT+I exists, and at ``p_inv = 0`` it is CAT."""
        cat = self.cell("cat")
        mixed = self.cell("cat+I", p_inv=0.0)
        root = cat.default_edge()
        assert mixed.log_likelihood() == pytest.approx(
            cat.log_likelihood(), abs=1e-10
        )
        _, d1, d2 = mixed.branch_derivatives(mixed.edge_sum_buffer(root), 0.07)
        _, w1, w2 = cat.branch_derivatives(cat.edge_sum_buffer(root), 0.07)
        assert (d1, d2) == pytest.approx((w1, w2), rel=1e-12)
        assert self.cell("cat+I").log_likelihood() != cat.log_likelihood()


class TestProteinData:
    def test_protein_likelihood_runs(self):
        model = poisson_protein()
        tree = Tree.from_newick("((a:0.2,b:0.3):0.1,(c:0.2,d:0.4):0.1);")
        rng = np.random.default_rng(3)
        sim = simulate_alignment(tree, model, 120, rng, gamma=GammaRates(0.8, 4))
        pat = sim.alignment.compress()
        engine = LikelihoodEngine(pat, tree.copy(), model, GammaRates(0.8, 4))
        lnl = engine.log_likelihood()
        assert np.isfinite(lnl) and lnl < 0

    def test_protein_pulley(self):
        model = poisson_protein()
        tree = Tree.from_newick("((a:0.2,b:0.3):0.1,(c:0.2,d:0.4):0.1);")
        rng = np.random.default_rng(4)
        sim = simulate_alignment(tree, model, 60, rng)
        engine = LikelihoodEngine(sim.alignment.compress(), tree, model)
        vals = [engine.log_likelihood(e) for e in tree.edge_ids]
        assert max(vals) - min(vals) < 1e-8

    def test_protein_branch_opt(self):
        model = poisson_protein()
        tree = Tree.from_newick("((a:0.2,b:0.3):0.1,(c:0.2,d:0.4):0.1);")
        rng = np.random.default_rng(5)
        sim = simulate_alignment(tree, model, 200, rng)
        engine = LikelihoodEngine(sim.alignment.compress(), tree.copy(), model)
        eid = engine.tree.edge_ids[0]
        engine.tree.edge(eid).length = 3.0
        before = engine.log_likelihood()
        optimize_branch(engine, eid)
        assert engine.log_likelihood() > before


class TestPartitionedEngine:
    @pytest.fixture()
    def partitioned(self):
        sim1 = simulate_dataset(n_taxa=6, n_sites=100, seed=21)
        tree = sim1.tree
        # second partition: same tree, different model, different sites
        model2 = gtr(
            np.array([0.8, 5.0, 1.0, 1.0, 5.0, 1.0]),
            np.array([0.35, 0.15, 0.15, 0.35]),
        )
        rng = np.random.default_rng(22)
        sim2 = simulate_alignment(tree, model2, 150, rng, gamma=GammaRates(0.5, 4))
        parts = [
            Partition("gene1", sim1.alignment.compress(), gtr(), GammaRates(1.0, 4)),
            Partition("gene2", sim2.alignment.compress(), model2, GammaRates(0.5, 4)),
        ]
        return parts, tree

    def test_total_is_sum_of_partitions(self, partitioned):
        """Two partitions == the per-partition serial engines summed: one
        fixed-order dot over the concatenated lane against a sum of
        per-partition dots, so lnL and derivatives differ in order only."""
        parts, tree = partitioned
        eng = PartitionedEngine(parts, tree.copy())
        serial = [make_engine(p.patterns, tree.copy(), p.model, p.gamma) for p in parts]
        for eid in tree.edge_ids:
            want = sum(e.log_likelihood(eid) for e in serial)
            assert eng.log_likelihood(eid) == pytest.approx(
                want, rel=LNL_RECOMPUTE_RTOL
            )
            got = eng.branch_derivatives(eng.edge_sum_buffer(eid), 0.07)
            parts_d = [e.branch_derivatives(e.edge_sum_buffer(eid), 0.07) for e in serial]
            assert got == pytest.approx(
                np.sum(parts_d, axis=0), rel=0, abs=KERNEL_PARITY_ATOL
            )
        per_site = eng.per_site_log_likelihoods()
        for p, e in zip(parts, serial):
            assert np.array_equal(per_site[p.name], e.site_log_likelihoods())
        grads = eng.all_branch_gradients()
        summed = [e.all_branch_gradients() for e in serial]
        for eid, pair in grads.items():
            want = np.sum([g[eid] for g in summed], axis=0)
            assert pair == pytest.approx(want, rel=0, abs=KERNEL_PARITY_ATOL)

    def test_single_partition_is_the_serial_engine(self, partitioned):
        p = partitioned[0][0]
        tree = partitioned[1]
        eng = PartitionedEngine([p], tree.copy())
        serial = make_engine(p.patterns, tree.copy(), p.model, p.gamma)
        for eid in tree.edge_ids:
            assert eng.log_likelihood(eid) - serial.log_likelihood(eid) == 0.0
            assert np.array_equal(
                eng.site_log_likelihoods(eid), serial.site_log_likelihoods(eid)
            )
            got = eng.branch_derivatives(eng.edge_sum_buffer(eid), 0.07)
            assert got == serial.branch_derivatives(serial.edge_sum_buffer(eid), 0.07)
        assert eng.all_branch_gradients() == serial.all_branch_gradients()
        assert (
            optimize_all_branches(eng, passes=1)
            - optimize_all_branches(serial, passes=1)
            == 0.0
        )
        assert eng.tree.to_newick() == serial.tree.to_newick()

    def test_set_model_refused(self, partitioned):
        parts, tree = partitioned
        eng = PartitionedEngine(parts, tree.copy())
        with pytest.raises(ValueError, match="own models"):
            eng.set_model(gtr())

    def test_branch_optimization_improves(self, partitioned):
        parts, tree = partitioned
        eng = PartitionedEngine(parts, tree.copy())
        rng = np.random.default_rng(0)
        for e in eng.tree.edges:
            e.length = float(rng.uniform(0.01, 1.0))
        before = eng.log_likelihood()
        after = optimize_all_branches(eng, passes=2)
        assert after > before

    def test_counters_aggregate(self, partitioned):
        parts, tree = partitioned
        eng = PartitionedEngine(parts, tree.copy())
        eng.log_likelihood()
        # The sliced rule: calls are one slice's mix, site units summed.
        assert eng.counters.merged()["evaluate"] == 1
        assert eng.counters.merged_site_units()["evaluate"] == sum(
            p.patterns.n_patterns for p in parts
        )

    def test_taxon_set_mismatch_rejected(self, partitioned):
        parts, tree = partitioned
        other = simulate_dataset(n_taxa=5, n_sites=50, seed=30)
        bad = Partition(
            "bad", other.alignment.compress(), gtr(), GammaRates(1.0, 4)
        )
        with pytest.raises(ValueError, match="taxon set"):
            PartitionedEngine([parts[0], bad], tree.copy())


class TestPartitionLoadBalancing:
    def test_whole_scheme_keeps_partitions_intact(self):
        out = partition_workers([100, 50, 30, 20], 2, scheme="whole")
        # each partition appears exactly once
        seen = sorted(idx for worker in out for idx, _ in worker)
        assert seen == [0, 1, 2, 3]

    def test_cyclic_scheme_balances_better(self):
        sizes = [1000, 10, 10, 10]
        whole = partition_workers(sizes, 4, scheme="whole")
        cyclic = partition_workers(sizes, 4, scheme="cyclic")

        def max_load(assignment):
            return max(sum(s for _, s in w) for w in assignment)

        assert max_load(cyclic) < max_load(whole)
        # both conserve total sites
        assert sum(s for w in cyclic for _, s in w) == sum(sizes)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            partition_workers([10], 2, scheme="bogus")


class TestEpaPlacement:
    @pytest.fixture(scope="class")
    def epa_case(self):
        sim = simulate_dataset(n_taxa=8, n_sites=600, seed=77)
        aln = sim.alignment
        query = aln.taxa[3]
        ref_tree = sim.tree.copy()
        leaf = ref_tree.node_by_name(query)
        pend = ref_tree.incident_edges(leaf)[0]
        rec = ref_tree.prune_subtree(pend, subtree_root=leaf)
        ref_tree.remove_node(leaf)
        ref_aln = Alignment.from_sequences(
            {t: aln.sequence(t) for t in aln.taxa if t != query}
        )
        return ref_aln, ref_tree, query, aln.sequence(query), rec

    def test_recovers_true_attachment(self, epa_case):
        ref_aln, ref_tree, query, seq, rec = epa_case
        results = place_queries(
            ref_aln, ref_tree, {query: seq}, gtr(), GammaRates(1.0, 4)
        )
        best = results[0].best
        # the true attachment region involves the old neighbours
        neighbour_names = {
            ref_tree.name(n)
            for n in (rec.attach_x, rec.attach_y)
            if ref_tree.name(n) is not None
        }
        assert neighbour_names & set(best.edge_label)

    def test_weight_ratios_normalised(self, epa_case):
        ref_aln, ref_tree, query, seq, _ = epa_case
        # Over the FULL candidate set the softmax sums to exactly 1.
        results = place_queries(
            ref_aln, ref_tree, {query: seq}, gtr(), GammaRates(1.0, 4),
            keep_best=10_000,
        )
        total = sum(p.weight_ratio for p in results[0].placements)
        assert total == pytest.approx(1.0)
        # ranked descending
        lnls = [p.log_likelihood for p in results[0].placements]
        assert lnls == sorted(lnls, reverse=True)
        # LWRs are computed before keep_best truncation, so the kept
        # subset's ratios match the full run's head and sum to <= 1.
        kept = place_queries(
            ref_aln, ref_tree, {query: seq}, gtr(), GammaRates(1.0, 4),
            keep_best=3,
        )[0].placements
        assert len(kept) == 3
        assert sum(p.weight_ratio for p in kept) <= 1.0 + 1e-12
        for full_p, kept_p in zip(results[0].placements, kept):
            assert kept_p.weight_ratio == full_p.weight_ratio

    def test_reference_tree_not_modified(self, epa_case):
        ref_aln, ref_tree, query, seq, _ = epa_case
        before = ref_tree.to_newick()
        place_queries(ref_aln, ref_tree, {query: seq}, gtr(), GammaRates(1.0, 4))
        assert ref_tree.to_newick() == before

    def test_misaligned_query_rejected(self, epa_case):
        ref_aln, ref_tree, query, seq, _ = epa_case
        with pytest.raises(ValueError, match="aligned"):
            place_queries(ref_aln, ref_tree, {"q": "ACGT"}, gtr())

    def test_name_collision_rejected(self, epa_case):
        ref_aln, ref_tree, query, seq, _ = epa_case
        taken = ref_aln.taxa[0]
        with pytest.raises(ValueError, match="collides"):
            place_queries(ref_aln, ref_tree, {taken: seq}, gtr())

    def test_empty_queries_rejected(self, epa_case):
        ref_aln, ref_tree, *_ = epa_case
        with pytest.raises(ValueError, match="query"):
            place_queries(ref_aln, ref_tree, {}, gtr())
