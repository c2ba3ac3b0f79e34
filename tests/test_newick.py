"""Unit tests for Newick parsing and formatting."""

import pytest

from repro.phylo.newick import NewickError, format_newick, parse_newick
from repro.phylo.tree import MAX_BRANCH_LENGTH, Tree


class TestParse:
    def test_simple_triplet(self):
        root = parse_newick("(a,b,c);")
        assert [c.label for c in root.children] == ["a", "b", "c"]

    def test_branch_lengths(self):
        root = parse_newick("(a:0.1,b:0.25);")
        assert root.children[0].length == pytest.approx(0.1)
        assert root.children[1].length == pytest.approx(0.25)

    def test_nested(self):
        root = parse_newick("((a,b),(c,d));")
        assert len(root.children) == 2
        assert [l.label for l in root.leaves()] == ["a", "b", "c", "d"]

    def test_internal_labels(self):
        root = parse_newick("((a,b)ab:0.5,c);")
        assert root.children[0].label == "ab"
        assert root.children[0].length == pytest.approx(0.5)

    def test_quoted_labels(self):
        root = parse_newick("('taxon one',b);")
        assert root.children[0].label == "taxon one"

    def test_comments_ignored(self):
        root = parse_newick("(a[comment],b);")
        assert root.children[0].label == "a"

    def test_scientific_notation_lengths(self):
        root = parse_newick("(a:1e-3,b:2.5E2);")
        assert root.children[0].length == pytest.approx(1e-3)
        assert root.children[1].length == pytest.approx(250.0)

    def test_whitespace_tolerated(self):
        root = parse_newick(" ( a , b ) ;\n")
        assert [c.label for c in root.children] == ["a", "b"]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(a,b",
            "(a,b));",
            "(a:x,b);",
            "(a,'unterminated);",
            "(a[unclosed,b);",
        ],
    )
    def test_malformed_raises(self, text):
        with pytest.raises(NewickError):
            parse_newick(text)


class TestTreeFromNewickErrors:
    """Well-formed text no likelihood can be computed on is refused at
    parse time, naming the problem, instead of reaching the engine."""

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("((a:0.1,b:0.2):0.1,c:0.3,d:nan);", "branch length nan"),
            ("((a:0.1,b:0.2):0.1,c:0.3,d:inf);", "branch length inf"),
            ("((a:0.1,b:0.2):0.1,c:0.3,d:-inf);", "branch length -inf"),
            ("((a:0.1,b:0.2):0.1,c:0.3,d:1e300);", "exceeds"),
            ("((a:0.1,b:0.2):nan,c:0.3,d:0.4);", "not finite"),
            ("((a:0.1,a:0.1):0.1,c:0.3,d:0.4);", "'a' appears twice"),
            ("(a:0.1,a:0.1);", "'a' appears twice"),
            ("((a:0.1,:0.2):0.1,c:0.3,d:0.4);", "without a name"),
            ("(a:0.1,b:0.2,c:0.3,);", "without a name"),
        ],
    )
    def test_unusable_tree_raises(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            Tree.from_newick(text)

    def test_maximum_length_accepted(self):
        tree = Tree.from_newick(f"(a:{MAX_BRANCH_LENGTH},b:0.1,c:0.2);")
        assert max(e.length for e in tree.edges) == MAX_BRANCH_LENGTH

    def test_nan_branch_length_refused_by_the_kernels(self):
        """A NaN built in code (not parsed) is refused too."""
        from repro.core import make_engine
        from repro.phylo import gtr, simulate_dataset

        sim = simulate_dataset(n_taxa=4, n_sites=40, seed=1)
        engine = make_engine(sim.alignment.compress(), sim.tree.copy(), gtr())
        engine.tree.edges[0].length = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            engine.log_likelihood()


class TestRoundtrip:
    @pytest.mark.parametrize(
        "text",
        [
            "(a:0.100000,b:0.200000,c:0.300000);",
            "((a:0.100000,b:0.100000):0.050000,c:0.200000,d:0.300000);",
        ],
    )
    def test_roundtrip_exact(self, text):
        assert format_newick(parse_newick(text)) == text

    def test_quoting_applied_when_needed(self):
        root = parse_newick("('has space',b);")
        assert "'has space'" in format_newick(root)

    def test_leaves_order_preserved(self):
        text = "((d,c),(b,a));"
        root = parse_newick(text)
        assert [l.label for l in root.leaves()] == ["d", "c", "b", "a"]
