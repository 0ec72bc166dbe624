"""Bit-exact text formats for decompositions and block decompositions.

Decomposition files (magic ``GPD 1``)::

    GPD 1
    n 6 r 4 pieces 6
    0 | 1 | 2 | 3,4,5
    ...

one piece per line, exactly r parts joined by `` | ``, vertices
comma-separated ascending, parts in canonical order, LF line endings,
trailing LF.  The parts of a piece are disjoint and inside 0..n-1, a rule
that :class:`Decomposition` itself enforces along with the part count.

Block files (magic ``GPB 1``)::

    GPB 1
    n 4 blocks 9
    a:0 b:1,2,3 ; a:0 b:1,2,3
    ...

the two sides of each bipartite factor holding distinct vertices of 0..n-1,
a rule that :class:`BlockDecomposition` itself enforces.  Both parsers report
a constructor's refusal as a ParseError.

In both formats every number, header values included, is spelled exactly as
``str(v)`` of its value v; any other spelling (``02``, ``+2``, ``-0``,
``1_0``, non-ASCII digits, a neighbouring space or CR) is a ParseError.

Serializing the same object twice is byte-identical, and parsing a generated
file then re-serializing reproduces it byte-for-byte.
"""

from __future__ import annotations

from typing import List, Tuple

from .blocks import BipartiteGraph, Block, BlockDecomposition
from .core import Decomposition, GroundSet, RPartiteGraph


class ParseError(ValueError):
    """Malformed decomposition or block file."""


class _Tokens(dict):
    """One file's table from a number token to its value.

    A token is accepted only when it is ``str(v)`` of its value v, so each
    number has exactly one spelling; ``int`` alone would also take ``02``,
    ``+2``, `` 2``, ``1_0`` and non-ASCII digits.  A lookup of an unseen
    token converts and caches it, so the table holds each distinct token of
    the text once, and a bad token raises ValueError.  Read a chunk with
    ``map(tokens.__getitem__, chunk.split(","))``.
    """

    def __missing__(self, token: str) -> int:
        value = int(token)
        if str(value) != token:
            raise ValueError(f"{token!r} is not spelled as str(v)")
        self[token] = value
        return value


def _read_header(text: str, magic: str, names: Tuple[str, ...],
                 tokens: _Tokens) -> Tuple[List[int], List[str]]:
    """The values of the ``name value`` header and the body lines, after
    checking the magic, the header, the body line count and the trailing LF."""
    lines = text.split("\n")
    if lines[0] != magic:
        raise ParseError(f"missing {magic} magic line")
    if len(lines) < 2:
        raise ParseError("missing header line")
    fields = lines[1].split(" ")
    if len(fields) != 2 * len(names) or tuple(fields[::2]) != names:
        raise ParseError(f"bad header {lines[1]!r}")
    try:
        values = list(map(tokens.__getitem__, fields[1::2]))
    except ValueError as exc:
        raise ParseError(f"bad header {lines[1]!r}") from exc
    body = lines[2:]
    if body[-1:] != [""] or len(body) != values[-1] + 1:  # names[-1]: "pieces" or "blocks"
        raise ParseError(f"expected {values[-1]} {names[-1][:-1]} lines and a trailing newline")
    return values, body[:-1]


def serialize_decomposition(d: Decomposition) -> str:
    lines = ["GPD 1", f"n {d.ground.n} r {d.ground.r} pieces {len(d.pieces)}"]
    for p in d.pieces:
        lines.append(" | ".join(",".join(map(str, part)) for part in p.parts))
    return "\n".join(lines) + "\n"


def _parse_parts(chunks: List[str], tokens: _Tokens) -> Tuple[Tuple[int, ...], ...]:
    """The comma-separated parts in ``chunks``."""
    parts = []
    value = tokens.__getitem__
    for chunk in chunks:
        try:
            parts.append(tuple(map(value, chunk.split(","))))
        except ValueError as exc:
            raise ParseError(f"bad part {chunk!r}") from exc
    return tuple(parts)


def parse_decomposition(text: str) -> Decomposition:
    tokens = _Tokens()
    (n, r, _), lines = _read_header(text, "GPD 1", ("n", "r", "pieces"), tokens)
    pieces: List[RPartiteGraph] = []
    for line in lines:
        parts = _parse_parts(line.split(" | "), tokens)
        # For disjoint parts, canonical iff sorting each, then all, changes
        # nothing; Decomposition rejects parts that are not disjoint.
        if parts != tuple(sorted(tuple(sorted(p)) for p in parts)):
            raise ParseError(f"piece line not in canonical form: {line!r}")
        pieces.append(RPartiteGraph(parts))
    try:
        return Decomposition(GroundSet(n, r), tuple(pieces))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _fmt_side(side: Tuple[int, ...]) -> str:
    return ",".join(map(str, side))


def serialize_blocks(bd: BlockDecomposition) -> str:
    lines = ["GPB 1", f"n {bd.n} blocks {len(bd.blocks)}"]
    for blk in bd.blocks:
        lines.append(
            f"a:{_fmt_side(blk.first.side_a)} b:{_fmt_side(blk.first.side_b)}"
            f" ; a:{_fmt_side(blk.second.side_a)} b:{_fmt_side(blk.second.side_b)}"
        )
    return "\n".join(lines) + "\n"


def _parse_bipartite(text: str, tokens: _Tokens) -> BipartiteGraph:
    chunks = text.split(" ")
    if len(chunks) != 2 or not chunks[0].startswith("a:") or not chunks[1].startswith("b:"):
        raise ParseError(f"bad bipartite factor {text!r}")
    return BipartiteGraph(*_parse_parts([chunks[0][2:], chunks[1][2:]], tokens))


def parse_blocks(text: str) -> BlockDecomposition:
    tokens = _Tokens()
    (n, _), lines = _read_header(text, "GPB 1", ("n", "blocks"), tokens)
    blocks: List[Block] = []
    for line in lines:
        halves = line.split(" ; ")
        if len(halves) != 2:
            raise ParseError(f"bad block line {line!r}")
        blocks.append(Block(_parse_bipartite(halves[0], tokens),
                            _parse_bipartite(halves[1], tokens)))
    try:
        return BlockDecomposition(n=n, blocks=tuple(blocks))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
