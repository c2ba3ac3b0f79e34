"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LikelihoodEngine
from repro.core.kernels import branch_exponentials
from repro.core.layouts import InterleavedLayout
from repro.phylo import (
    Alignment,
    GammaRates,
    Tree,
    compress_patterns,
    discrete_gamma_rates,
    gtr,
    random_topology,
)
from repro.phylo.newick import format_newick, parse_newick
from repro.phylo.states import DNA

# -- strategies --------------------------------------------------------------

dna_sequences = st.text(alphabet="ACGT-NRY", min_size=1, max_size=30)


@st.composite
def alignments(draw, min_taxa=2, max_taxa=6):
    n_taxa = draw(st.integers(min_taxa, max_taxa))
    n_sites = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    data = rng.choice([1, 2, 4, 8, 15], size=(n_taxa, n_sites)).astype(np.uint32)
    return Alignment([f"t{i}" for i in range(n_taxa)], data)


@st.composite
def random_trees(draw, min_taxa=4, max_taxa=10):
    n = draw(st.integers(min_taxa, max_taxa))
    seed = draw(st.integers(0, 2**31))
    return random_topology(
        [f"t{i}" for i in range(n)], np.random.default_rng(seed)
    )


# -- alignment properties ----------------------------------------------------


class TestCompressionProperties:
    @given(alignments())
    @settings(max_examples=40, deadline=None)
    def test_weights_sum_to_sites(self, aln):
        pat = compress_patterns(aln)
        assert pat.weights.sum() == aln.n_sites
        assert pat.n_patterns <= aln.n_sites

    @given(alignments())
    @settings(max_examples=40, deadline=None)
    def test_expansion_reconstructs_columns(self, aln):
        pat = compress_patterns(aln)
        reconstructed = pat.data[:, pat.site_to_pattern]
        np.testing.assert_array_equal(reconstructed, aln.data)

    @given(alignments())
    @settings(max_examples=40, deadline=None)
    def test_patterns_are_distinct(self, aln):
        pat = compress_patterns(aln)
        cols = {tuple(pat.data[:, p]) for p in range(pat.n_patterns)}
        assert len(cols) == pat.n_patterns


# -- newick properties -------------------------------------------------------


class TestNewickProperties:
    @given(random_trees())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_preserves_topology(self, tree):
        again = Tree.from_newick(tree.to_newick())
        assert tree.robinson_foulds(again) == 0

    @given(random_trees())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_preserves_total_length(self, tree):
        again = Tree.from_newick(tree.to_newick(precision=12))
        assert again.total_branch_length() == pytest.approx(
            tree.total_branch_length(), rel=1e-6
        )

    @given(random_trees())
    @settings(max_examples=30, deadline=None)
    def test_parse_format_idempotent(self, tree):
        text = tree.to_newick()
        assert format_newick(parse_newick(text)) == text


# -- tree properties ---------------------------------------------------------


class TestTreeProperties:
    @given(random_trees())
    @settings(max_examples=30, deadline=None)
    def test_binary_invariants(self, tree):
        tree.check()
        assert len(tree.edges) == 2 * tree.n_leaves - 3

    @given(random_trees(min_taxa=5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_spr_undo_is_identity(self, tree, seed):
        rng = np.random.default_rng(seed)
        before = tree.to_state()
        leaf = tree.leaves()[int(rng.integers(tree.n_leaves))]
        pendant = tree.incident_edges(leaf)[0]
        targets = tree.spr_candidates(pendant, radius=6, subtree_root=leaf)
        if not targets:
            return
        target = targets[int(rng.integers(len(targets)))]
        _, undo = tree.spr(pendant, target, subtree_root=leaf)
        tree.check()
        undo()
        tree.check()
        assert tree.to_state() == before

    @given(random_trees(), random_trees())
    @settings(max_examples=30, deadline=None)
    def test_rf_is_metric_like(self, t1, t2):
        if set(t1.leaf_names()) != set(t2.leaf_names()):
            return
        d12 = t1.robinson_foulds(t2)
        assert d12 == t2.robinson_foulds(t1)  # symmetry
        assert d12 >= 0
        assert t1.robinson_foulds(t1) == 0  # identity


# -- model / rates properties ------------------------------------------------


class TestModelProperties:
    @given(
        st.lists(st.floats(0.05, 20.0), min_size=6, max_size=6),
        st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
        st.floats(0.001, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_transition_matrices_are_stochastic(self, ex, raw_pi, t):
        pi = np.asarray(raw_pi)
        pi = pi / pi.sum()
        model = gtr(np.asarray(ex), pi)
        p = model.eigen().transition_matrix(t)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(p >= -1e-10)

    @given(st.floats(0.05, 50.0), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_gamma_rates_mean_one(self, alpha, k):
        rates = discrete_gamma_rates(alpha, k)
        assert rates.mean() == pytest.approx(1.0, abs=1e-9)
        assert np.all(rates > 0)
        assert np.all(np.diff(rates) >= -1e-12)

    @given(st.floats(0.05, 20.0), st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_branch_exponentials_bounded(self, alpha, t):
        model = gtr()
        rates = GammaRates(alpha, 4)
        e = branch_exponentials(model.eigen(), rates.rates, t)
        # eigenvalues <= 0 for a proper rate matrix: exp in (0, 1]
        assert np.all(e <= 1.0 + 1e-12)
        assert np.all(e > 0.0)


# -- likelihood properties ---------------------------------------------------


class TestLikelihoodProperties:
    @given(st.integers(0, 2**31), st.integers(4, 7))
    @settings(max_examples=15, deadline=None)
    def test_pulley_principle_random_instances(self, seed, n_taxa):
        from repro.phylo import simulate_dataset

        sim = simulate_dataset(n_taxa=n_taxa, n_sites=30, seed=seed % 10_000)
        pat = sim.alignment.compress()
        engine = LikelihoodEngine(pat, sim.tree, gtr(), GammaRates(1.0, 4))
        vals = [engine.log_likelihood(e) for e in sim.tree.edge_ids]
        assert max(vals) - min(vals) < 1e-8

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_likelihood_is_log_probability(self, seed):
        from repro.phylo import simulate_dataset

        sim = simulate_dataset(n_taxa=5, n_sites=20, seed=seed % 10_000)
        pat = sim.alignment.compress()
        engine = LikelihoodEngine(pat, sim.tree, gtr(), GammaRates(1.0, 4))
        assert engine.log_likelihood() < 0.0  # probability < 1

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_longer_wrong_branches_hurt(self, seed):
        """Stretching every branch far beyond truth lowers lnL."""
        from repro.phylo import simulate_dataset

        sim = simulate_dataset(n_taxa=6, n_sites=100, seed=seed % 10_000)
        pat = sim.alignment.compress()
        engine = LikelihoodEngine(pat, sim.tree, gtr(), GammaRates(1.0, 4))
        base = engine.log_likelihood()
        for e in sim.tree.edges:
            e.length = 10.0
        stretched = engine.log_likelihood()
        assert stretched < base


# -- layout properties -------------------------------------------------------


class TestLayoutProperties:
    @given(
        st.integers(1, 40),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([4, 20]),
        st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_alignment(self, n_sites, n_rates, n_states, align):
        layout = InterleavedLayout(n_sites, n_rates, n_states, alignment=align)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(n_sites, n_rates, n_states))
        flat = layout.to_flat(z)
        np.testing.assert_array_equal(layout.from_flat(flat), z)
        for site in range(n_sites):
            assert layout.site_offset(site) % align == 0
        assert layout.padded_doubles >= layout.block_doubles


# -- tip encoding properties -------------------------------------------------


class TestStateProperties:
    @given(st.text(alphabet="ACGTUNRYSWKMBDHV-?.", min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_encode_gives_valid_codes(self, seq):
        codes = DNA.encode(seq)
        assert np.all(codes >= 1)
        assert np.all(codes <= 15)

    @given(st.lists(st.integers(1, 15), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_tip_rows_match_popcount(self, codes):
        rows = DNA.tip_rows(np.array(codes))
        for code, row in zip(codes, rows):
            assert row.sum() == bin(code).count("1")
