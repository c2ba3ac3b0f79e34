"""Tests for bootstrap, NNI search, checkpointing, and PAML matrices."""

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.phylo import GammaRates, Tree, gtr, poisson_protein, random_topology, simulate_dataset
from repro.phylo.protein_models import load_paml_matrix, save_paml_matrix
from repro.search.bootstrap import (
    bootstrap_analysis,
    bootstrap_weights,
    support_values,
)
from repro.search.checkpoint import (
    Checkpoint,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.search.nni import nni_round, nni_search


@pytest.fixture(scope="module")
def base_case():
    sim = simulate_dataset(n_taxa=8, n_sites=500, seed=61)
    pat = sim.alignment.compress()
    return sim, pat


class TestBootstrapWeights:
    def test_preserve_total_sites(self, base_case):
        _, pat = base_case
        rng = np.random.default_rng(0)
        w = bootstrap_weights(pat, rng)
        assert w.sum() == pat.weights.sum()
        assert np.all(w >= 0)

    def test_replicates_differ(self, base_case):
        _, pat = base_case
        rng = np.random.default_rng(0)
        w1 = bootstrap_weights(pat, rng)
        w2 = bootstrap_weights(pat, rng)
        assert not np.array_equal(w1, w2)

    def test_expectation_matches_original(self, base_case):
        _, pat = base_case
        rng = np.random.default_rng(1)
        mean = np.mean([bootstrap_weights(pat, rng) for _ in range(300)], axis=0)
        np.testing.assert_allclose(mean, pat.weights, rtol=0.3, atol=1.0)


class TestSupportValues:
    def test_identical_replicates_give_full_support(self, base_case):
        sim, _ = base_case
        support = support_values(sim.tree, [sim.tree.copy() for _ in range(5)])
        assert all(v == 1.0 for v in support.values())

    def test_random_replicates_give_low_support(self, base_case):
        sim, _ = base_case
        rng_trees = [
            random_topology(sorted(sim.tree.leaf_names()), np.random.default_rng(s))
            for s in range(10)
        ]
        support = support_values(sim.tree, rng_trees)
        assert min(support.values()) < 1.0

    def test_empty_replicates_rejected(self, base_case):
        sim, _ = base_case
        with pytest.raises(ValueError, match="replicate"):
            support_values(sim.tree, [])

    def test_replicate_taxon_set_must_match(self):
        reference = Tree.from_newick("((A,B),(C,D),(E,F));")
        replicate = Tree.from_newick("((A,B),(C,D),(E,G));")
        with pytest.raises(ValueError, match="taxon sets"):
            support_values(reference, [reference.copy(), replicate])


class TestBootstrapAnalysis:
    def test_strong_signal_gives_high_support(self, base_case):
        sim, pat = base_case
        result = bootstrap_analysis(
            pat, sim.tree, gtr(), GammaRates(1.0, 4),
            n_replicates=5, seed=3,
        )
        assert len(result.replicate_trees) == 5
        # 500 sites on 8 taxa is a strong signal; most splits well supported
        assert result.min_support() >= 0.6

    def test_replicate_count_validated(self, base_case):
        sim, pat = base_case
        with pytest.raises(ValueError, match="replicate"):
            bootstrap_analysis(pat, sim.tree, gtr(), n_replicates=0)

    def test_consensus_of_replicates(self, base_case):
        sim, pat = base_case
        result = bootstrap_analysis(
            pat, sim.tree, gtr(), GammaRates(1.0, 4),
            n_replicates=4, seed=11,
        )
        consensus, support = result.consensus()
        assert sorted(consensus.leaf_names()) == sorted(pat.taxa)
        # strong-signal data: the consensus should be well resolved and
        # close to the ML/true topology
        assert len(consensus.splits()) >= 3
        assert all(0.5 < v <= 1.0 for v in support.values())


class TestNni:
    def test_round_improves_bad_tree(self, base_case):
        sim, pat = base_case
        bad = random_topology(list(pat.taxa), np.random.default_rng(5))
        engine = LikelihoodEngine(pat, bad, gtr(), GammaRates(1.0, 4))
        from repro.search import optimize_all_branches

        optimize_all_branches(engine, passes=1)
        stats = nni_round(engine)
        assert stats.lnl_after >= stats.lnl_before
        assert stats.moves_tried > 0

    def test_search_reaches_local_optimum(self, base_case):
        sim, pat = base_case
        bad = random_topology(list(pat.taxa), np.random.default_rng(6))
        engine = LikelihoodEngine(pat, bad, gtr(), GammaRates(1.0, 4))
        from repro.search import optimize_all_branches

        optimize_all_branches(engine, passes=1)
        history = nni_search(engine, max_rounds=8)
        assert history[-1].moves_accepted == 0  # converged
        lnls = [h.lnl_after for h in history]
        assert all(b >= a - 1e-6 for a, b in zip(lnls, lnls[1:]))

    def test_true_tree_is_nni_optimal(self, base_case):
        sim, pat = base_case
        engine = LikelihoodEngine(pat, sim.tree.copy(), gtr(), GammaRates(1.0, 4))
        from repro.search import optimize_all_branches

        optimize_all_branches(engine, passes=2)
        stats = nni_round(engine, epsilon=0.1)
        assert stats.moves_accepted == 0

    def test_rejected_trials_leave_the_tree_exactly(self, base_case):
        sim, pat = base_case
        engine = LikelihoodEngine(pat, sim.tree.copy(), gtr(), GammaRates(1.0, 4))
        before = engine.tree.to_state()
        stats = nni_round(engine, epsilon=1e9)
        assert stats.moves_tried > 0 and stats.moves_accepted == 0
        assert engine.tree.to_state() == before


class TestCheckpoint:
    def test_roundtrip_restores_lnl(self, base_case, tmp_path):
        sim, pat = base_case
        engine = LikelihoodEngine(pat, sim.tree.copy(), gtr(), GammaRates(0.7, 4))
        from repro.search import optimize_all_branches

        lnl = optimize_all_branches(engine, passes=1)
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(engine, path, lnl=lnl, stage="branch_opt")
        ckpt = load_checkpoint(path)
        assert ckpt.stage == "branch_opt"
        resumed = resume_engine(pat, ckpt)
        assert resumed.log_likelihood() == pytest.approx(lnl, abs=1e-6)

    def test_taxon_mismatch_detected(self, base_case, tmp_path):
        sim, pat = base_case
        engine = LikelihoodEngine(pat, sim.tree.copy(), gtr(), GammaRates(0.7, 4))
        path = tmp_path / "x.json"
        ckpt = save_checkpoint(engine, path)
        other = simulate_dataset(n_taxa=5, n_sites=40, seed=1).alignment.compress()
        with pytest.raises(ValueError, match="taxa"):
            resume_engine(other, ckpt)

    def test_version_check(self):
        import json

        bad = json.dumps({"format_version": 99})
        with pytest.raises(ValueError, match="format"):
            Checkpoint.from_json(bad)


class TestPamlMatrices:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        model = poisson_protein().with_parameters(
            exchangeabilities=rng.uniform(0.1, 5.0, size=190),
            frequencies=rng.dirichlet(np.ones(20) * 10),
        )
        path = tmp_path / "custom.dat"
        save_paml_matrix(model, path)
        loaded = load_paml_matrix(path)
        np.testing.assert_allclose(
            loaded.exchangeabilities, model.exchangeabilities, rtol=1e-5
        )
        np.testing.assert_allclose(loaded.frequencies, model.frequencies, atol=1e-6)

    def test_loaded_model_usable_in_engine(self, tmp_path):
        from repro.phylo import simulate_alignment

        rng = np.random.default_rng(8)
        model = poisson_protein().with_parameters(
            exchangeabilities=rng.uniform(0.5, 2.0, size=190)
        )
        path = tmp_path / "m.dat"
        save_paml_matrix(model, path)
        loaded = load_paml_matrix(path, name="CUSTOM")
        assert loaded.name == "CUSTOM"
        tree = Tree.from_newick("((a:0.2,b:0.2):0.1,(c:0.2,d:0.2):0.1);")
        sim = simulate_alignment(tree, loaded, 50, rng)
        engine = LikelihoodEngine(sim.alignment.compress(), tree, loaded)
        assert np.isfinite(engine.log_likelihood())

    def test_comments_and_wrapping_tolerated(self, tmp_path):
        rng = np.random.default_rng(9)
        model = poisson_protein().with_parameters(
            exchangeabilities=rng.uniform(0.1, 3.0, size=190)
        )
        path = tmp_path / "wrapped.dat"
        save_paml_matrix(model, path)
        # re-wrap arbitrarily and add comments
        numbers = path.read_text().split()
        wrapped = "# synthetic matrix\n"
        for i in range(0, len(numbers), 7):
            wrapped += " ".join(numbers[i : i + 7]) + "\n"
        path.write_text(wrapped)
        loaded = load_paml_matrix(path)
        np.testing.assert_allclose(
            loaded.exchangeabilities, model.exchangeabilities, rtol=1e-5
        )

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.dat"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="190"):
            load_paml_matrix(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1.0 oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_paml_matrix(path)
