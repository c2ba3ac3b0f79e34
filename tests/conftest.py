"""Shared fixtures: small simulated datasets and engines."""

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import LikelihoodEngine
from repro.phylo import GammaRates, Tree, gtr, read_fasta, simulate_dataset


@pytest.fixture(scope="session")
def small_sim():
    """6-taxon, 200-site GTR+Gamma simulation (session-cached)."""
    return simulate_dataset(n_taxa=6, n_sites=200, seed=1234)


@pytest.fixture(scope="session")
def medium_sim():
    """10-taxon, 400-site GTR+Gamma simulation (session-cached)."""
    return simulate_dataset(n_taxa=10, n_sites=400, seed=99)


@pytest.fixture()
def small_engine(small_sim):
    patterns = small_sim.alignment.compress()
    model = gtr(
        np.array([1.2, 3.1, 0.9, 1.1, 3.4, 1.0]),
        np.array([0.3, 0.2, 0.2, 0.3]),
    )
    return LikelihoodEngine(
        patterns, small_sim.tree.copy(), model, GammaRates(0.8, 4)
    )


@pytest.fixture(scope="session")
def search_wide_rep63():
    """``(alignment, generating tree)`` of the e2e benchmark's
    ``search_wide`` dataset for seed 1, repetition 63 (8 taxa x 6 000
    sites): its lazily scored SPR moves all score below the tree the
    search stops at, although the generating topology is 5.7 lnL better."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "gen.py"
    spec = importlib.util.spec_from_file_location("e2e_gen", path)
    gen = sys.modules["e2e_gen"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = gen.search_dataset(8, 6000, 2300, (0.05, 0.4), 101, 1063)
    return read_fasta(io.StringIO(data.fasta)), Tree.from_newick(data.newick)
