"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.phylo import Alignment, Tree, simulate_dataset, write_fasta, write_phylip


@pytest.fixture(scope="module")
def io_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    sim = simulate_dataset(n_taxa=7, n_sites=300, seed=31)
    aln_path = tmp / "aln.phy"
    write_phylip(sim.alignment, aln_path)
    # reference / query split for placement
    q = sim.alignment.taxa[2]
    ref_tree = sim.tree.copy()
    leaf = ref_tree.node_by_name(q)
    pend = ref_tree.incident_edges(leaf)[0]
    ref_tree.prune_subtree(pend, subtree_root=leaf)
    ref_tree.remove_node(leaf)
    ref = Alignment.from_sequences(
        {t: sim.alignment.sequence(t) for t in sim.alignment.taxa if t != q}
    )
    ref_path = tmp / "ref.phy"
    write_phylip(ref, ref_path)
    tree_path = tmp / "ref.nwk"
    tree_path.write_text(ref_tree.to_newick())
    q_path = tmp / "q.fasta"
    write_fasta(Alignment.from_sequences({q: sim.alignment.sequence(q)}), q_path)
    return tmp, sim, aln_path, ref_path, tree_path, q_path, q


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_bench_subcommand_is_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_all_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("simulate", "search", "place", "kernels", "predict"):
            args = {
                "simulate": ["simulate", "--out", "x.phy"],
                "search": ["search", "x.phy"],
                "place": [
                    "place", "--reference", "r", "--tree", "t", "--queries", "q",
                ],
                "kernels": ["kernels"],
                "predict": ["predict", "--sites", "1000"],
            }[cmd]
            assert parser.parse_args(args).command == cmd


class TestSimulate(object):
    def test_writes_phylip_and_tree(self, tmp_path):
        out = tmp_path / "sim.phy"
        tree_out = tmp_path / "sim.nwk"
        rc = main([
            "simulate", "--taxa", "6", "--sites", "100", "--seed", "3",
            "--out", str(out), "--tree-out", str(tree_out),
        ])
        assert rc == 0
        from repro.phylo import read_phylip

        aln = read_phylip(out)
        assert aln.n_taxa == 6 and aln.n_sites == 100
        tree = Tree.from_newick(tree_out.read_text())
        assert tree.n_leaves == 6


class TestSearch:
    def test_search_writes_tree(self, io_case, tmp_path, capsys):
        _, sim, aln_path, *_ = io_case
        out = tmp_path / "ml.nwk"
        rc = main([
            "search", str(aln_path), "--out", str(out),
            "--radius", "4", "--no-rates",
        ])
        assert rc == 0
        tree = Tree.from_newick(out.read_text())
        assert sorted(tree.leaf_names()) == sorted(sim.alignment.taxa)
        captured = capsys.readouterr().out
        assert "final lnL" in captured


class TestPlace:
    def test_place_writes_jplace(self, io_case, tmp_path, capsys):
        _, sim, _, ref_path, tree_path, q_path, q = io_case
        out = tmp_path / "out.jplace"
        rc = main([
            "place", "--reference", str(ref_path), "--tree", str(tree_path),
            "--queries", str(q_path), "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == 3
        assert doc["placements"][0]["n"] == [q]
        assert len(doc["placements"][0]["p"]) >= 1
        # edge annotations present in the tree string
        assert "{0}" in doc["tree"]
        # weight ratios of reported placements sum to ~1
        total = sum(row[2] for row in doc["placements"][0]["p"])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_place_refuses_negative_branch_length(self, io_case, tmp_path):
        _, _, _, ref_path, tree_path, q_path, _ = io_case
        tree = Tree.from_newick(tree_path.read_text())
        tree.edges[0].length = -0.05
        bad = tmp_path / "neg.nwk"
        bad.write_text(tree.to_newick())
        out = tmp_path / "out.jplace"
        with pytest.raises(ValueError, match=r"branch length -0\.05"):
            main([
                "place", "--reference", str(ref_path), "--tree", str(bad),
                "--queries", str(q_path), "--out", str(out),
            ])
        assert not out.exists()


class TestStats:
    def test_stats_prints_summary(self, io_case, capsys):
        _, _, aln_path, *_ = io_case
        rc = main(["stats", str(aln_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "patterns" in out
        assert "composition" in out


class TestNjStart:
    def test_search_with_nj_start(self, io_case, tmp_path, capsys):
        _, sim, aln_path, *_ = io_case
        out = tmp_path / "nj_ml.nwk"
        rc = main([
            "search", str(aln_path), "--out", str(out),
            "--radius", "3", "--no-rates", "--start", "nj",
        ])
        assert rc == 0
        assert "neighbor joining" in capsys.readouterr().out
        tree = Tree.from_newick(out.read_text())
        assert sorted(tree.leaf_names()) == sorted(sim.alignment.taxa)


class TestPredict:
    @pytest.mark.parametrize("system", ["cpu2630", "cpu2680", "mic1", "mic2"])
    def test_predict_reports(self, system, capsys):
        rc = main(["predict", "--sites", "100000", "--system", system])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup vs 2S E5-2680" in out
        assert "energy" in out


class TestKernels:
    def test_kernels_prints_figure3(self, capsys):
        rc = main(["kernels"])
        assert rc == 0
        assert "derivative_sum" in capsys.readouterr().out


class TestCheckpointFlags:
    def test_crash_resume_roundtrip(self, io_case, tmp_path, capsys):
        """The acceptance path: search dies at an injected crash step,
        resumes from its checkpoint, and matches an uninterrupted run."""
        _, sim, aln_path, *_ = io_case
        ck = tmp_path / "ck.json"
        base_out = tmp_path / "base.nwk"
        rc = main([
            "search", str(aln_path), "--radius", "3", "--seed", "9",
            "--out", str(base_out),
        ])
        assert rc == 0
        base_lnl = [
            line for line in capsys.readouterr().out.splitlines()
            if "final lnL" in line
        ][0]

        rc = main([
            "search", str(aln_path), "--radius", "3", "--seed", "9",
            "--checkpoint", str(ck), "--checkpoint-every", "1",
            "--fault-plan", "crash-midsearch", "--fault-seed", "9",
        ])
        out = capsys.readouterr().out
        assert rc == 3  # the injected-crash exit code
        assert "search died" in out and "--resume" in out
        assert ck.exists()

        resumed_out = tmp_path / "resumed.nwk"
        rc = main([
            "search", str(aln_path), "--radius", "3", "--seed", "9",
            "--resume", str(ck), "--out", str(resumed_out),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resuming from" in out
        resumed_lnl = [
            line for line in out.splitlines() if "final lnL" in line
        ][0]
        assert resumed_lnl == base_lnl
        assert resumed_out.read_text() == base_out.read_text()


class TestFaultsCommand:
    def test_list_plans(self, capsys):
        rc = main(["faults", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash-midsearch" in out and "flaky-pcie" in out

    def test_requires_alignment(self, capsys):
        rc = main(["faults"])
        assert rc == 2
        assert "alignment" in capsys.readouterr().out

    def test_survival_run_with_verify(self, io_case, tmp_path, capsys):
        _, _, aln_path, *_ = io_case
        rc = main([
            "faults", str(aln_path), "--plan", "crash-midsearch",
            "--seed", "9", "--radius", "3",
            "--checkpoint", str(tmp_path / "ck.json"), "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "survived:      yes" in out
        assert "verify:        OK" in out
        assert "crash-at-step x1" in out


class TestParallelFlags:
    """PR 5: --workers/--exec on search and place, env-var defaults."""

    def test_parser_accepts_parallel_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["search", "x.phy", "--workers", "3", "--exec", "processes"]
        )
        assert args.workers == 3
        assert args.execution == "processes"
        args = parser.parse_args(
            ["place", "--reference", "r", "--tree", "t", "--queries", "q",
             "--workers", "2", "--exec", "threads"]
        )
        assert args.workers == 2
        assert args.execution == "threads"

    def test_parser_rejects_unknown_exec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "x.phy", "--exec", "cuda"])

    def test_env_vars_become_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setenv("REPRO_EXEC", "threads")
        args = build_parser().parse_args(["search", "x.phy"])
        assert args.workers == 5
        assert args.execution == "threads"

    def test_search_parallel_matches_serial(self, io_case, tmp_path, capsys):
        _, sim, aln_path, *_ = io_case
        out_a = tmp_path / "serial.nwk"
        out_b = tmp_path / "parallel.nwk"
        assert main([
            "search", str(aln_path), "--out", str(out_a),
            "--radius", "2", "--no-rates",
        ]) == 0
        lnl_a = next(
            line for line in capsys.readouterr().out.splitlines()
            if "final lnL" in line
        )
        assert main([
            "search", str(aln_path), "--out", str(out_b),
            "--radius", "2", "--no-rates",
            "--workers", "2", "--exec", "processes",
        ]) == 0
        captured = capsys.readouterr().out
        lnl_b = next(
            line for line in captured.splitlines() if "final lnL" in line
        )
        assert lnl_a == lnl_b  # printed likelihood identical digit-for-digit
        assert out_a.read_text() == out_b.read_text()
        assert "parallel: 2 workers" in captured
        assert "parallel regions:" in captured
        from repro.parallel import active_arena_segments

        assert active_arena_segments() == []

    def test_place_parallel_matches_serial(self, io_case, tmp_path, capsys):
        _, sim, _, ref_path, tree_path, q_path, q = io_case
        out_a = tmp_path / "a.jplace"
        out_b = tmp_path / "b.jplace"
        base = [
            "place", "--reference", str(ref_path), "--tree", str(tree_path),
            "--queries", str(q_path),
        ]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(
            base + ["--out", str(out_b), "--workers", "2", "--exec", "threads"]
        ) == 0
        assert (
            json.loads(out_a.read_text())["placements"]
            == json.loads(out_b.read_text())["placements"]
        )

    def test_backends_lists_parallel_defaults(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "parallel execution:" in out
        assert "simulated, threads, processes" in out
        assert "REPRO_WORKERS" in out
        assert "falls back to reference" in out  # compiled's description
        assert "autotune" not in out


class TestBackendSelection:
    def test_stale_env_backend_exits_2_with_one_line(
        self, io_case, monkeypatch, capsys
    ):
        _tmp, _sim, aln_path, *_ = io_case
        monkeypatch.setenv("REPRO_BACKEND", "blocked")
        assert main(["search", str(aln_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown backend 'blocked'" in err
        assert "reference, shadow, compiled" in err

    @pytest.mark.parametrize("name", ["blocked", "auto"])
    def test_removed_backend_names_are_invalid_choices(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["search", "x.phy", "--backend", name])
        assert exc.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
