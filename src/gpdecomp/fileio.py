"""Bit-exact text formats for decompositions and block decompositions.

Decomposition files (magic ``GPD 1``)::

    GPD 1
    n 6 r 4 pieces 6
    0 | 1 | 2 | 3,4,5
    ...

one piece per line, exactly r parts joined by `` | ``, vertices
comma-separated ascending, parts ordered by minimum, LF line endings,
trailing LF.  The parts of a piece are disjoint and inside 0..n-1.  A line
is a piece under the one piece rule of :mod:`gpdecomp.core`, canonical order
included, so every :class:`Decomposition` in memory serializes to a file
that parses back to it.  :func:`parse_decomposition` reads the syntax only,
converting each distinct part string once through a table per file, and
leaves the rule to the public :class:`Decomposition` constructor, whose
refusal (``piece i has ...``) it reports as a ParseError.
:func:`serialize_decomposition` likewise joins each distinct part once.

Block files (magic ``GPB 1``)::

    GPB 1
    n 4 blocks 9
    a:0 b:1,2,3 ; a:0 b:1,2,3
    ...

each half one bipartite factor, a two-part piece whose sides ``a`` and
``b`` follow the piece rule with r = 2: disjoint, vertices of 0..n-1
ascending, side ``a`` holding the smaller minimum.  That is the rule
:class:`BlockDecomposition` itself enforces; the block parser reports its
refusal, ``block i first factor has ...`` (or ``second``), as a ParseError.
:func:`parse_blocks` parses each distinct half-line once, through a table
per file, so equal factors are one object, checked once; a factor of other
than two sides has no spelling in the format.  :func:`serialize_blocks`
joins each distinct side once.

In both formats every number, header values included, is spelled exactly as
``str(v)`` of its value v; any other spelling (``02``, ``+2``, ``-0``,
``1_0``, non-ASCII digits, a neighbouring space or CR) is a ParseError.

Serializing the same object twice is byte-identical, and parsing a generated
file then re-serializing reproduces it byte-for-byte.
"""

from __future__ import annotations

from typing import List, Tuple

from .blocks import Block, BlockDecomposition
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


class _Parts(dict):
    """One file's table from a part string (the text between `` | ``, or a
    block side after ``a:`` or ``b:``) to its vertices, so each distinct
    part is converted once however many lines repeat it.  A lookup of a part
    with a bad token raises ParseError naming the part and caches nothing.
    """

    def __init__(self, tokens: _Tokens) -> None:
        super().__init__()
        self.value = tokens.__getitem__

    def __missing__(self, chunk: str) -> Tuple[int, ...]:
        try:
            part = self[chunk] = tuple(map(self.value, chunk.split(",")))
        except ValueError as exc:
            raise ParseError(f"bad part {chunk!r}") from exc
        return part


def parse_decomposition(text: str) -> Decomposition:
    """The decomposition in a GPD file, in one pass over its lines.

    Faults are reported in a fixed order: the first line with a bad part
    (the first bad part within it), named by its piece number; else a header
    that is no ground set; else the first piece failing the piece rule, in
    :class:`Decomposition`'s words.  Each line costs r table lookups; the
    rule is the constructor's, as for pieces built in memory.
    """
    tokens = _Tokens()
    (n, r, _), lines = _read_header(text, "GPD 1", ("n", "r", "pieces"), tokens)
    part = _Parts(tokens).__getitem__
    pieces: List[RPartiteGraph] = []
    try:
        for i, line in enumerate(lines):
            pieces.append(RPartiteGraph(tuple(map(part, line.split(" | ")))))
    except ParseError as exc:  # the table is per file and knows no line
        raise ParseError(f"piece {i} {exc}") from exc
    try:
        return Decomposition(GroundSet(n, r), tuple(pieces))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_blocks(bd: BlockDecomposition) -> str:
    lines = ["GPB 1", f"n {bd.n} blocks {len(bd.blocks)}"]
    text = _Joined().__getitem__
    lines += [f"a:{text(blk.first.parts[0])} b:{text(blk.first.parts[1])}"
              f" ; a:{text(blk.second.parts[0])} b:{text(blk.second.parts[1])}" for blk in bd.blocks]
    return "\n".join(lines) + "\n"


class _Factors(dict):
    """One GPB file's table from a half-line (the text on one side of
    `` ; ``) to its two-part :class:`RPartiteGraph`, its sides read through
    the file's part table, so each distinct factor is parsed and built once
    however many lines repeat it, and equal halves share one object.  A
    lookup of a bad half raises ParseError and caches nothing.
    """

    def __init__(self, tokens: _Tokens) -> None:
        super().__init__()
        self.part = _Parts(tokens).__getitem__

    def __missing__(self, text: str) -> RPartiteGraph:
        chunks = text.split(" ")
        if len(chunks) != 2 or not chunks[0].startswith("a:") or not chunks[1].startswith("b:"):
            raise ParseError(f"bad bipartite factor {text!r}")
        factor = self[text] = RPartiteGraph((self.part(chunks[0][2:]), self.part(chunks[1][2:])))
        return factor


def parse_blocks(text: str) -> BlockDecomposition:
    """The block decomposition in a GPB file, in one pass over its lines.

    Faults are reported in a fixed order: the first line that is not two
    halves joined by `` ; `` or has a bad half (its first half first), named
    by its block number; else the first factor breaking the piece rule for
    r = 2, canonical order included, in :class:`BlockDecomposition`'s words,
    which name its block and side.  Each half costs one table lookup.
    """
    tokens = _Tokens()
    (n, _), lines = _read_header(text, "GPB 1", ("n", "blocks"), tokens)
    factor = _Factors(tokens).__getitem__
    blocks: List[Block] = []
    for i, line in enumerate(lines):
        halves = line.split(" ; ")
        if len(halves) != 2:
            raise ParseError(f"block {i} bad block line {line!r}")
        try:
            blocks.append(Block(factor(halves[0]), factor(halves[1])))
        except ParseError as exc:  # the table is per file and knows no line
            raise ParseError(f"block {i} {exc}") from exc
    try:
        return BlockDecomposition(n=n, blocks=tuple(blocks))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
