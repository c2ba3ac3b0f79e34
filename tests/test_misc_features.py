"""Tests for ASCII drawing, the report command and the vector-width
sweep."""

from repro.harness.ablations import vector_width_sweep
from repro.phylo import Tree
from repro.phylo.draw import ascii_tree


class TestAsciiTree:
    def test_all_leaves_present(self):
        t = Tree.from_newick("((a:0.1,b:0.2):0.05,(c:0.1,d:0.1):0.05,e:0.3);")
        art = ascii_tree(t)
        for name in "abcde":
            assert name in art

    def test_lengths_shown_and_hidden(self):
        t = Tree.from_newick("(a:0.125,b:0.25,c:0.5);")
        assert "0.1250" in ascii_tree(t, show_lengths=True)
        assert "0.1250" not in ascii_tree(t, show_lengths=False)

    def test_support_annotation(self):
        t = Tree.from_newick("((a,b),(c,d));")
        support = {split: 0.87 for split in t.splits()}
        art = ascii_tree(t, support=support)
        assert "[87%]" in art

    def test_degenerate_trees(self):
        t2 = Tree.from_newick("(a:0.1,b:0.1);")
        art = ascii_tree(t2)
        assert "a" in art and "b" in art

    def test_one_line_per_leaf(self):
        t = Tree.from_newick("((a,b),(c,(d,e)),f);")
        art = ascii_tree(t, show_lengths=False)
        leaf_lines = [l for l in art.splitlines() if l.rstrip()[-1] in "abcdef"]
        assert len(leaf_lines) == 6


class TestVectorWidthSweep:
    def test_wider_vectors_fewer_issue_cycles(self):
        sweep = vector_width_sweep(n_sites=64)
        assert sweep["mic512"] < sweep["avx256"]


class TestReportAll:
    def test_report_builds_and_contains_everything(self, tmp_path):
        from repro.harness.report_all import build_report, main

        report = build_report()
        for marker in (
            "Table I:",
            "Table II:",
            "Figure 2:",
            "Figure 3:",
            "Table III",
            "Figure 4:",
            "Figure 5:",
            "Roofline",
            "Ablations",
        ):
            assert marker in report
        out = tmp_path / "report.txt"
        rc = main(["--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("Reproduction report")


class TestJsonExport:
    def test_export_complete_and_serialisable(self, tmp_path):
        import json

        from repro.harness.export import export_results, main

        data = export_results()
        for key in (
            "table1", "table2", "figure3", "table3", "figure4", "figure5",
            "roofline", "ablations",
        ):
            assert key in data, key
        # round-trips through JSON
        text = json.dumps(data)
        assert json.loads(text)["figure3"][0]["kernel"] == "newview"
        out = tmp_path / "results.json"
        assert main(["--out", str(out)]) == 0
        assert out.exists()
