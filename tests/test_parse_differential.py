"""Differential tests of the one-pass GPD parser and the GPB parser against
plain references.

The GPD reference below converts every part of every line afresh, naming
the line of a bad part, and applies the piece rule by walking each piece
with :func:`piece_problem` itself, so the library's path, a part table in
the parser and the masks of the checking :class:`Decomposition`
constructor, is compared with the plain walk.  The GPB reference is the
line-by-line block parser that the factor table replaced: it parses and
builds every half of every line afresh.  Both keep their own copy of the
number table and the header reader.  On valid texts and on mutants with
faults on one or several lines, the library must return the same
decomposition or raise ParseError with the same message, so which fault
wins is pinned too.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from gpdecomp import (
    Decomposition,
    GroundSet,
    ParseError,
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1,
    construct_trivial_blocks,
    parse_blocks,
    parse_decomposition,
    serialize_blocks,
    serialize_decomposition,
)
from gpdecomp.blocks import BlockDecomposition
from gpdecomp.cli import main
from gpdecomp.core import RPartiteGraph, piece_problem
from test_core import canonical


# -- reference parser ----------------------------------------------------------

class ReferenceTokens(dict):
    """A number token to its value, accepted only when spelled ``str(v)``."""

    def __missing__(self, token):
        value = int(token)
        if str(value) != token:
            raise ValueError(f"{token!r} is not spelled as str(v)")
        self[token] = value
        return value


def reference_header(text, tokens, magic="GPD 1",
                     names=("n", "r", "pieces")) -> Tuple[List[int], List[str]]:
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
    if body[-1:] != [""] or len(body) != values[-1] + 1:
        raise ParseError(f"expected {values[-1]} {names[-1][:-1]} lines and a trailing newline")
    return values, body[:-1]


def reference_parse(text: str) -> Decomposition:
    tokens = ReferenceTokens()
    (n, r, _), lines = reference_header(text, tokens)
    pieces = []
    for i, line in enumerate(lines):
        parts = []
        for chunk in line.split(" | "):
            try:
                parts.append(tuple(map(tokens.__getitem__, chunk.split(","))))
            except ValueError as exc:
                raise ParseError(f"piece {i} bad part {chunk!r}") from exc
        pieces.append(RPartiteGraph(tuple(parts)))
    try:
        ground = GroundSet(n, r)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    for i, piece in enumerate(pieces):
        problem = piece_problem(piece.parts, n, r)
        if problem is not None:
            raise ParseError(f"piece {i} has {problem}")
    return Decomposition(ground, tuple(pieces))


def reference_bipartite(text, tokens) -> RPartiteGraph:
    chunks = text.split(" ")
    if len(chunks) != 2 or not chunks[0].startswith("a:") or not chunks[1].startswith("b:"):
        raise ParseError(f"bad bipartite factor {text!r}")
    sides = []
    for chunk in (chunks[0][2:], chunks[1][2:]):
        try:
            sides.append(tuple(map(tokens.__getitem__, chunk.split(","))))
        except ValueError as exc:
            raise ParseError(f"bad part {chunk!r}") from exc
    return RPartiteGraph(tuple(sides))


def reference_parse_blocks(text: str) -> BlockDecomposition:
    """The GPB parser that the one-table version replaced: every half of
    every line parsed and built afresh."""
    tokens = ReferenceTokens()
    (n, _), lines = reference_header(text, tokens, "GPB 1", ("n", "blocks"))
    blocks = []
    for i, line in enumerate(lines):
        halves = line.split(" ; ")
        if len(halves) != 2:
            raise ParseError(f"block {i} bad block line {line!r}")
        try:
            blocks.append((reference_bipartite(halves[0], tokens),
                           reference_bipartite(halves[1], tokens)))
        except ParseError as exc:
            raise ParseError(f"block {i} {exc}") from exc
    try:
        return BlockDecomposition(n=n, blocks=tuple(blocks))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def outcome(parse, text):
    """The parsed decomposition, or ``("ParseError", message)``."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc))


# -- pinned cases --------------------------------------------------------------

PINNED = [
    # A bad part is named with its piece, and wins over the piece's order fault.
    ("GPD 1\nn 3 r 2 pieces 1\n1,0 | x\n", "piece 0 bad part 'x'"),
    ("GPD 1\nn 3 r 2 pieces 1\n2 | 0 | y,1\n", "piece 0 bad part 'y,1'"),
    # An order fault is a piece-rule fault like any other: the first faulty
    # piece is named, whatever its kind...
    ("GPD 1\nn 4 r 2 pieces 2\n0 | 0,1\n1 | 0\n", "piece 0 has overlapping parts at vertex 0"),
    # ...but a bad part on a later line wins over it.
    ("GPD 1\nn 4 r 2 pieces 2\n0 | 9\n0 | 1,z\n", "piece 1 bad part '1,z'"),
    # With r > n a piece-rule fault gives way to the ground set's error,
    # an order fault included.
    ("GPD 1\nn 2 r 3 pieces 1\n0 | 0 | 1\n", "need 1 <= r <= n, got n=2, r=3"),
    ("GPD 1\nn 2 r 3 pieces 2\n0 | 0 | 1\n1 | 0 | 2\n", "need 1 <= r <= n, got n=2, r=3"),
    # The first faulty piece is named, its part count checked before the rule.
    ("GPD 1\nn 4 r 2 pieces 3\n0 | 1\n0 | 0 | 1\n0 | 5\n", "piece 1 has 3 parts, expected 2"),
    ("GPD 1\nn 4 r 2 pieces 3\n0 | 1\n0 | 1,1\n0 | 5\n", "piece 1 has overlapping parts at vertex 1"),
    ("GPD 1\nn 4 r 2 pieces 2\n-1 | 1\n0 | 1,3\n", "piece 0 has out-of-range vertex -1"),
    ("GPD 1\nn 4 r 2 pieces 2\n0 | 1\n0,2 | 1,2,9\n", "piece 1 has overlapping parts at vertex 2"),
    ("GPD 1\nn 4 r 2 pieces 2\n0 | 1\n0,2 | 1,9,9\n", "piece 1 has out-of-range vertex 9"),
    # Equal parts are in canonical order; they overlap.  A part after an
    # equal-minimum one overlaps it before it is out of order.
    ("GPD 1\nn 4 r 2 pieces 1\n1,2 | 1,2\n", "piece 0 has overlapping parts at vertex 1"),
    ("GPD 1\nn 4 r 2 pieces 1\n1,3 | 1,2\n", "piece 0 has overlapping parts at vertex 1"),
    ("GPD 1\nn 4 r 2 pieces 1\n0 | 2,1\n", "piece 0 has vertex 1 out of canonical order"),
    ("GPD 1\nn 4 r 2 pieces 2\n0 | 1\n1 | 0\n", "piece 1 has vertex 0 out of canonical order"),
    # Vertices 1024 apart share a part-mask bit; only a real overlap is a fault.
    ("GPD 1\nn 3000 r 2 pieces 2\n0 | 1024\n1024 | 2048,2048\n",
     "piece 1 has overlapping parts at vertex 2048"),
    ("GPD 1\nn 3000 r 2 pieces 2\n0,2048 | 1024\n1,1025 | 1025\n",
     "piece 1 has overlapping parts at vertex 1025"),
]


@pytest.mark.parametrize("text,message", PINNED)
def test_pinned_fault_order(text, message, tmp_path, capsys):
    assert outcome(reference_parse, text) == ("ParseError", message)
    assert outcome(parse_decomposition, text) == ("ParseError", message)
    path = tmp_path / "pinned.gpd"
    path.write_bytes(text.encode())
    assert main(["verify", str(path), "--porcelain"]) == 2
    assert capsys.readouterr().err == f"error: parse error: {message}\n"


# -- mutated texts -------------------------------------------------------------

def spread(d: Decomposition, gap: int) -> Decomposition:
    """``d`` with vertex v renamed v * gap, over n * gap vertices: the pieces
    keep the piece rule, and with gap 512 many of their vertices lie a
    multiple of 1024 apart."""
    return Decomposition(GroundSet(d.ground.n * gap, d.ground.r), tuple(
        RPartiteGraph(tuple(tuple(v * gap for v in part) for part in p.parts))
        for p in d.pieces))


VALID_TEXTS = [serialize_decomposition(d) for d in (
    construct_baseline(5, 2),
    construct_baseline(7, 5),
    construct_baseline(6, 1),
    construct_even_from_odd(6, 4),
    construct_theorem1(3, 3, 5),
    spread(construct_baseline(7, 4), 512),
)]
BAD_TOKENS = ["x", "", "01", "+1", " 1", "-0", "1_0", "\u0663"]
# Format characters, a non-ASCII digit that int() accepts, and other noise.
NOISE = "0123456789-,| nr\n\r\u0663"
LINE_EDITS = ("swap-parts", "reverse-part", "vertex", "copy-vertex", "repeat-vertex",
              "drop-part", "add-part", "bad-token")


def _edit_line(draw, line: str, n: int) -> str:
    parts = [chunk.split(",") for chunk in line.split(" | ")]
    kind = draw(st.sampled_from(LINE_EDITS))
    a = draw(st.integers(0, len(parts) - 1))
    b = draw(st.integers(0, len(parts) - 1))
    if kind == "swap-parts":
        parts[a], parts[b] = parts[b], parts[a]
    elif kind == "reverse-part":
        parts[a].reverse()
    elif kind == "vertex":
        i = draw(st.integers(0, len(parts[a]) - 1))
        parts[a][i] = str(draw(st.integers(-2, n + 2)))
    elif kind == "copy-vertex":
        parts[a].insert(draw(st.integers(0, len(parts[a]))), draw(st.sampled_from(parts[b])))
    elif kind == "repeat-vertex":
        i = draw(st.integers(0, len(parts[a]) - 1))
        parts[a].insert(i, parts[a][i])
    elif kind == "drop-part":
        if len(parts) > 1:
            del parts[a]
    elif kind == "add-part":
        parts.insert(a, [str(draw(st.integers(-1, n + 1)))])
    else:
        i = draw(st.integers(0, len(parts[a]) - 1))
        parts[a][i] = draw(st.sampled_from(BAD_TOKENS))
    if draw(st.booleans()):
        parts = _sorted_parts(parts)
    return " | ".join(",".join(part) for part in parts)


def _sorted_parts(parts: List[List[str]]) -> List[List[str]]:
    """Each part sorted, then the parts, when every token is a number spelled
    ``str(v)``: the line is in canonical order, so the walk meets any other
    piece-rule fault the edit made rather than an order fault."""
    try:
        values = [[int(t) for t in part] for part in parts]
    except ValueError:
        return parts
    if [[str(v) for v in part] for part in values] != parts:
        return parts
    return [[str(v) for v in part] for part in sorted(sorted(part) for part in values)]


@st.composite
def mutated_gpd_texts(draw) -> str:
    """A valid GPD text with one to four body lines edited (the same line
    possibly more than once, at times put back in canonical order), at times
    a header value changed, and at times a short span replaced by noise."""
    lines = draw(st.sampled_from(VALID_TEXTS)).split("\n")
    header = lines[1].split(" ")
    n = int(header[1])
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(2, len(lines) - 2))
        lines[k] = _edit_line(draw, lines[k], n)
    if draw(st.booleans()):
        i = draw(st.sampled_from([1, 3]))  # n or r
        header[i] = str(draw(st.integers(0, n + 2)))
        lines[1] = " ".join(header)
    text = "\n".join(lines)
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 3, len(text))))
        text = text[:i] + draw(st.text(NOISE, max_size=3)) + text[j:]
    return text


@settings(max_examples=600, deadline=None)
@given(mutated_gpd_texts())
def test_parser_matches_reference_on_mutants(text):
    assert outcome(parse_decomposition, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", VALID_TEXTS, ids=range(len(VALID_TEXTS)))
def test_parser_matches_reference_on_valid_texts(text):
    d = parse_decomposition(text)
    assert d == reference_parse(text)
    assert serialize_decomposition(d) == text


# -- block files ---------------------------------------------------------------

def _relabelled(bd: BlockDecomposition, shift: int) -> BlockDecomposition:
    """``bd`` with each second factor's vertices shifted by ``shift`` mod n
    and put back in canonical order, so its first and second halves differ."""
    n = bd.n
    return BlockDecomposition(n, tuple(
        (f, canonical([(v + shift) % n for v in side] for side in s.parts))
        for f, s in bd.blocks))


VALID_GPB_TEXTS = [serialize_blocks(bd) for bd in (
    construct_trivial_blocks(2),
    construct_trivial_blocks(4),
    construct_trivial_blocks(6),
    _relabelled(construct_trivial_blocks(5), 2),
)]
GPB_NOISE = "0123456789-,:; ab\n\r\u0663"
GPB_LINE_EDITS = ("swap-halves", "swap-sides", "vertex", "copy-vertex", "repeat-vertex",
                  "bad-token", "drop-separator", "drop-prefix", "copy-half")


def _edit_block_line(draw, line: str, n: int) -> str:
    halves = line.split(" ; ")
    h = draw(st.integers(0, len(halves) - 1))
    sides = halves[h].split(" ")
    kind = draw(st.sampled_from(GPB_LINE_EDITS))
    s = draw(st.integers(0, len(sides) - 1))
    prefix, _, body = sides[s].partition(":")
    vertices = body.split(",")
    i = draw(st.integers(0, len(vertices) - 1))
    if kind == "swap-halves":
        halves.reverse()
    elif kind == "swap-sides":
        sides.reverse()
    elif kind == "vertex":
        vertices[i] = str(draw(st.integers(-2, n + 2)))
    elif kind == "copy-vertex":
        other = sides[-1 - s].partition(":")[2].split(",")
        vertices.insert(i, draw(st.sampled_from(other)))
    elif kind == "repeat-vertex":
        vertices.insert(i, vertices[i])
    elif kind == "bad-token":
        vertices[i] = draw(st.sampled_from(BAD_TOKENS))
    elif kind == "drop-separator":
        return line.replace(" ; ", draw(st.sampled_from([" ", ";", "  ; ", " ;"])), 1)
    elif kind == "drop-prefix":
        prefix = draw(st.sampled_from(["", "a", "b", "c"]))
    else:
        return " ; ".join([halves[h], halves[h]])
    if kind not in ("swap-halves", "swap-sides"):
        sides[s] = f"{prefix}:{','.join(vertices)}"
    halves[h] = " ".join(sides)
    return " ; ".join(halves)


@st.composite
def mutated_gpb_texts(draw) -> str:
    """A valid GPB text with one to four body lines edited, at times a
    header value changed, and at times a short span replaced by noise."""
    lines = draw(st.sampled_from(VALID_GPB_TEXTS)).split("\n")
    header = lines[1].split(" ")
    n = int(header[1])
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(2, len(lines) - 2))
        lines[k] = _edit_block_line(draw, lines[k], n)
    if draw(st.booleans()):
        header[1] = str(draw(st.integers(0, n + 2)))
        lines[1] = " ".join(header)
    text = "\n".join(lines)
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 3, len(text))))
        text = text[:i] + draw(st.text(GPB_NOISE, max_size=3)) + text[j:]
    return text


@settings(max_examples=600, deadline=None)
@given(mutated_gpb_texts())
def test_block_parser_matches_reference_on_mutants(text):
    assert outcome(parse_blocks, text) == outcome(reference_parse_blocks, text)


@pytest.mark.parametrize("text", VALID_GPB_TEXTS, ids=range(len(VALID_GPB_TEXTS)))
def test_block_parser_matches_reference_on_valid_texts(text):
    bd = parse_blocks(text)
    assert bd == reference_parse_blocks(text)
    assert serialize_blocks(bd) == text


def test_equal_halves_of_a_parsed_layer_are_one_object():
    bd = parse_blocks(serialize_blocks(construct_trivial_blocks(6)))
    factors = [g for blk in bd.blocks for g in blk]
    assert len(set(factors)) == 5
    assert len(set(map(id, factors))) == 5
