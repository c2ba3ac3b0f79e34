"""Sequence file I/O: FASTA and relaxed (RAxML-style) PHYLIP.

RAxML-Light and ExaML consume relaxed PHYLIP: a header line with the
taxon and site counts, then one ``name  sequence`` record per line (names
up to whitespace, no 10-character truncation).  The INDELible simulator
the paper uses emits both formats; we support both so the example
workloads round-trip through files like the original pipeline.
"""

from __future__ import annotations

import io
from pathlib import Path

from .alignment import Alignment
from .states import DNA, StateSpace

__all__ = [
    "read_fasta",
    "write_fasta",
    "read_phylip",
    "write_phylip",
    "read_alignment",
]


def _as_text(source: str | Path | io.TextIOBase) -> str:
    if isinstance(source, io.TextIOBase):
        return source.read()
    path = Path(source)
    return path.read_text()


def read_fasta(source: str | Path | io.TextIOBase, states: StateSpace = DNA) -> Alignment:
    """Parse a FASTA file (or handle, or path) into an :class:`Alignment`.

    Sequence lines may be wrapped; blank lines are ignored; the record
    name is the header up to the first whitespace.
    """
    text = _as_text(source)
    sequences: dict[str, list[str]] = {}
    name: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            name = line[1:].split()[0] if len(line) > 1 else ""
            if not name:
                raise ValueError("FASTA record with empty name")
            if name in sequences:
                raise ValueError(f"duplicate FASTA record {name!r}")
            sequences[name] = []
        else:
            if name is None:
                raise ValueError("FASTA sequence data before first header")
            sequences[name].append(line)
    if not sequences:
        raise ValueError("no FASTA records found")
    return Alignment.from_sequences(
        {n: "".join(parts) for n, parts in sequences.items()}, states
    )


def write_fasta(alignment: Alignment, path: str | Path, width: int = 80) -> None:
    """Write an alignment as wrapped FASTA."""
    with open(path, "w") as fh:
        for i, taxon in enumerate(alignment.taxa):
            fh.write(f">{taxon}\n")
            seq = alignment.states.decode(alignment.data[i])
            for start in range(0, len(seq), width):
                fh.write(seq[start : start + width] + "\n")


def read_phylip(source: str | Path | io.TextIOBase, states: StateSpace = DNA) -> Alignment:
    """Parse relaxed sequential PHYLIP (RAxML's input format).

    Interleaved PHYLIP is also accepted: after the first block, continuation
    lines (no names) are appended in taxon order.
    """
    text = _as_text(source)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty PHYLIP input")
    header = lines[0].split()[:2]
    if len(header) < 2 or not all(f.isdecimal() and int(f) > 0 for f in header):
        raise ValueError(f"bad PHYLIP header: {lines[0]!r}")
    n_taxa, n_sites = map(int, header)
    names: list[str] = []
    parts: dict[str, list[str]] = {}
    cursor = 0
    for ln in lines[1:]:
        fields = ln.split()
        if len(names) < n_taxa:
            name, seq = fields[0], "".join(fields[1:])
            if name in parts:
                raise ValueError(f"duplicate PHYLIP taxon {name!r}")
            names.append(name)
            parts[name] = [seq]
        else:
            # interleaved continuation block, cycling through taxa
            parts[names[cursor]].append("".join(fields))
            cursor = (cursor + 1) % n_taxa
    if len(names) != n_taxa:
        raise ValueError(f"PHYLIP header promises {n_taxa} taxa, found {len(names)}")
    sequences = {n: "".join(p) for n, p in parts.items()}
    for n, seq in sequences.items():
        if len(seq) != n_sites:
            raise ValueError(
                f"taxon {n!r} has {len(seq)} sites, header promises {n_sites}"
            )
    return Alignment.from_sequences(sequences, states)


def write_phylip(alignment: Alignment, path: str | Path) -> None:
    """Write relaxed sequential PHYLIP."""
    pad = max(len(t) for t in alignment.taxa) + 2
    with open(path, "w") as fh:
        fh.write(f"{alignment.n_taxa} {alignment.n_sites}\n")
        for i, taxon in enumerate(alignment.taxa):
            fh.write(f"{taxon:<{pad}}{alignment.states.decode(alignment.data[i])}\n")


def read_alignment(path: str | Path, states: StateSpace = DNA) -> Alignment:
    """Auto-detect FASTA vs PHYLIP by the first non-blank character."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith(">"):
        return read_fasta(io.StringIO(text), states)
    return read_phylip(io.StringIO(text), states)
