"""Unit tests for FASTA / PHYLIP I/O."""

import io

import pytest

from repro.phylo import (
    read_alignment,
    read_fasta,
    read_phylip,
    write_fasta,
    write_phylip,
)

FASTA = """\
>alpha some description
ACGTAC
>beta
ACG
TAC
"""

PHYLIP = """\
2 6
alpha  ACGTAC
beta   ACGTAC
"""

PHYLIP_INTERLEAVED = """\
2 8
alpha  ACGT
beta   TTTT
AAAA
CCCC
"""


class TestFasta:
    def test_parse_with_wrapping(self):
        aln = read_fasta(io.StringIO(FASTA))
        assert aln.n_taxa == 2
        assert aln.n_sites == 6
        assert aln.sequence("beta") == "ACGTAC"

    def test_name_stops_at_whitespace(self):
        aln = read_fasta(io.StringIO(FASTA))
        assert "alpha" in aln.taxa

    def test_duplicate_record_rejected(self):
        text = ">a\nAC\n>a\nGT\n"
        with pytest.raises(ValueError, match="duplicate"):
            read_fasta(io.StringIO(text))

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError, match="before first header"):
            read_fasta(io.StringIO("ACGT\n>a\nACGT\n"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no FASTA records"):
            read_fasta(io.StringIO("\n\n"))

    @pytest.mark.parametrize("text", [">a\n>b\n", ">a\n\n>b\n>c\n"])
    def test_records_without_sites_rejected(self, text):
        with pytest.raises(ValueError, match="alignment has no sites"):
            read_fasta(io.StringIO(text))

    def test_roundtrip_via_file(self, tmp_path):
        aln = read_fasta(io.StringIO(FASTA))
        path = tmp_path / "x.fasta"
        write_fasta(aln, path, width=4)
        aln2 = read_fasta(path)
        assert aln2.taxa == aln.taxa
        assert aln2.sequence("alpha") == aln.sequence("alpha")


class TestPhylip:
    def test_parse_sequential(self):
        aln = read_phylip(io.StringIO(PHYLIP))
        assert aln.n_taxa == 2
        assert aln.n_sites == 6

    def test_parse_interleaved(self):
        aln = read_phylip(io.StringIO(PHYLIP_INTERLEAVED))
        assert aln.sequence("alpha") == "ACGTAAAA"
        assert aln.sequence("beta") == "TTTTCCCC"

    def test_header_mismatch_detected(self):
        bad = "2 9\nalpha ACGTAC\nbeta ACGTAC\n"
        with pytest.raises(ValueError, match="promises"):
            read_phylip(io.StringIO(bad))

    @pytest.mark.parametrize(
        "header", ["-2 4", "0 4", "2 0", "2 -6", "x y", "2", "2 6.0"]
    )
    def test_bad_header_rejected(self, header):
        text = f"{header}\nalpha ACGTAC\nbeta ACGTAC\n"
        with pytest.raises(ValueError, match="bad PHYLIP header") as exc:
            read_phylip(io.StringIO(text))
        assert repr(header) in str(exc.value)

    def test_missing_taxon_detected(self):
        bad = "3 6\nalpha ACGTAC\nbeta ACGTAC\n"
        with pytest.raises(ValueError, match="taxa"):
            read_phylip(io.StringIO(bad))

    def test_roundtrip_via_file(self, tmp_path):
        aln = read_phylip(io.StringIO(PHYLIP))
        path = tmp_path / "x.phy"
        write_phylip(aln, path)
        aln2 = read_phylip(path)
        assert aln2.taxa == aln.taxa
        assert aln2.sequence("beta") == aln.sequence("beta")


class TestAutodetect:
    def test_detects_fasta(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text(FASTA)
        assert read_alignment(p).n_taxa == 2

    def test_detects_phylip(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text(PHYLIP)
        assert read_alignment(p).n_sites == 6
