"""Bit-exact text formats for decompositions and block decompositions.

Decomposition files (magic ``GPD 1``)::

    GPD 1
    n 6 r 4 pieces 6
    0 | 1 | 2 | 3,4,5
    ...

one piece per line, exactly r parts joined by `` | ``, vertices
comma-separated ascending, parts in canonical order, LF line endings,
trailing LF.  The parts of a piece are disjoint and inside 0..n-1.
:func:`parse_decomposition` checks all of this in one pass, through a table
per file that converts and checks each distinct part string once, so a line
costs r lookups and a few integer tests; it reports the first faulty piece in
:class:`Decomposition`'s own words and builds the result without a second
check.  :func:`serialize_decomposition` likewise joins each distinct part once.

Block files (magic ``GPB 1``)::

    GPB 1
    n 4 blocks 9
    a:0 b:1,2,3 ; a:0 b:1,2,3
    ...

the two sides of each bipartite factor holding distinct vertices of 0..n-1,
a rule that :class:`BlockDecomposition` itself enforces; the block parser
reports its refusal as a ParseError.

In both formats every number, header values included, is spelled exactly as
``str(v)`` of its value v; any other spelling (``02``, ``+2``, ``-0``,
``1_0``, non-ASCII digits, a neighbouring space or CR) is a ParseError.

Serializing the same object twice is byte-identical, and parsing a generated
file then re-serializing reproduces it byte-for-byte.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import List, Tuple

from .blocks import BipartiteGraph, Block, BlockDecomposition
from .core import Decomposition, GroundSet, RPartiteGraph, piece_fault


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


class _Joined(dict):
    """One serialization's table from a part (or block side) to its text,
    so each distinct part is joined once however many lines share it."""

    def __missing__(self, part: Tuple[int, ...]) -> str:
        text = self[part] = ",".join(map(str, part))
        return text


def serialize_decomposition(d: Decomposition) -> str:
    lines = ["GPD 1", f"n {d.ground.n} r {d.ground.r} pieces {len(d.pieces)}"]
    text = _Joined().__getitem__
    lines += [" | ".join(map(text, p.parts)) for p in d.pieces]
    return "\n".join(lines) + "\n"


# A part mask has bit v % _MASK_BITS for each vertex v, so it stays small
# whatever n the header names; vertices of honest files (n far below this
# width) never share a bit.
_MASK_BITS = 1024
_BIT = (1).__lshift__
_WRAP = (_MASK_BITS - 1).__and__  # _WRAP(v) == v % _MASK_BITS for v >= 0


class _Parts(dict):
    """One GPD file's table from a part string (the text between `` | ``) to
    ``(vertices, mask)``, so each distinct part is converted and checked once
    however many lines repeat it.

    ``mask`` is positive, with bit ``v % 1024`` for each vertex v, when the
    vertices ascend strictly inside 0..n-1 and no two share a bit; 0 when
    they do not decrease but leave 0..n-1, repeat a vertex or share a bit;
    and -1 when they decrease somewhere, so the line is not canonical.  A
    lookup of a part with a bad token raises ParseError naming the part.
    """

    def __init__(self, n: int, tokens: _Tokens) -> None:
        super().__init__()
        self.n = n
        self.value = tokens.__getitem__

    def __missing__(self, chunk: str) -> Tuple[Tuple[int, ...], int]:
        try:
            part = tuple(map(self.value, chunk.split(",")))
        except ValueError as exc:
            raise ParseError(f"bad part {chunk!r}") from exc
        if sorted(part) != list(part):
            mask = -1
        elif part[0] < 0 or part[-1] >= self.n:
            mask = 0
        else:
            mask = sum(map(_BIT, map(_WRAP, part)))
            if mask.bit_count() < len(part):  # a carry: two vertices share a bit
                mask = 0
        entry = self[chunk] = part, mask
        return entry


def parse_decomposition(text: str) -> Decomposition:
    """The decomposition in a GPD file, in one pass over its lines.

    Faults are reported in a fixed order: the first line with a bad part
    (the first bad part within it) or not in canonical order; else a header
    that is no ground set; else the first piece without r parts passing the
    piece rule, in :class:`Decomposition`'s words.  Each line costs r table
    lookups, an order test on its parts and a disjointness test on their
    masks; only a piece the masks cannot vouch for (a faulty one, or, for
    n above 1024, one with vertices 1024 apart) is walked with
    :func:`~gpdecomp.core.piece_problem`.
    """
    tokens = _Tokens()
    (n, r, _), lines = _read_header(text, "GPD 1", ("n", "r", "pieces"), tokens)
    lookup = _Parts(n, tokens).__getitem__
    pieces: List[RPartiteGraph] = []
    fault = None  # the first faulty piece's message; line and ground-set faults win
    for i, line in enumerate(lines):
        parts, masks = zip(*map(lookup, line.split(" | ")))
        low = min(masks)
        # Canonical iff no part decreases and the parts ascend as tuples.
        if low < 0 or parts != tuple(sorted(parts)):
            raise ParseError(f"piece line not in canonical form: {line!r}")
        # Parts whose masks add up without a carry share no vertex; any other
        # piece (a fault, or vertices 1024 apart) is checked exactly.
        if fault is None and (low == 0 or len(parts) != r
                              or sum(masks) != reduce(or_, masks)):
            fault = piece_fault(i, parts, n, r)
        pieces.append(RPartiteGraph(parts))
    try:
        ground = GroundSet(n, r)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if fault is not None:
        raise ParseError(fault)
    return Decomposition._from_checked(ground, tuple(pieces))


def serialize_blocks(bd: BlockDecomposition) -> str:
    lines = ["GPB 1", f"n {bd.n} blocks {len(bd.blocks)}"]
    text = _Joined().__getitem__
    lines += [f"a:{text(blk.first.side_a)} b:{text(blk.first.side_b)}"
              f" ; a:{text(blk.second.side_a)} b:{text(blk.second.side_b)}" for blk in bd.blocks]
    return "\n".join(lines) + "\n"


def _parse_bipartite(text: str, tokens: _Tokens) -> BipartiteGraph:
    chunks = text.split(" ")
    if len(chunks) != 2 or not chunks[0].startswith("a:") or not chunks[1].startswith("b:"):
        raise ParseError(f"bad bipartite factor {text!r}")
    sides = []
    for chunk in (chunks[0][2:], chunks[1][2:]):
        try:
            sides.append(tuple(map(tokens.__getitem__, chunk.split(","))))
        except ValueError as exc:
            raise ParseError(f"bad part {chunk!r}") from exc
    return BipartiteGraph(*sides)


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
