import hashlib
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gpdecomp import (
    BlockDecomposition,
    Decomposition,
    GroundSet,
    ParseError,
    RPartiteGraph,
    construct_baseline,
    construct_theorem1,
    construct_trivial_blocks,
    parse_blocks,
    parse_decomposition,
    serialize_blocks,
    serialize_decomposition,
    verify_blocks,
)
from gpdecomp.fileio import _Parts, _read_header, _Tokens


GENERATED = [
    construct_baseline(5, 2),
    construct_baseline(7, 5),
    construct_baseline(6, 1),
    construct_theorem1(3, 3, 5),
]


@pytest.mark.parametrize("dec", GENERATED, ids=lambda d: f"n{d.ground.n}r{d.ground.r}")
def test_decomposition_round_trip_byte_identical(dec):
    text = serialize_decomposition(dec)
    back = parse_decomposition(text)
    assert back == dec
    assert serialize_decomposition(back) == text


def test_serialization_is_canonical():
    a = serialize_decomposition(construct_baseline(6, 4))
    b = serialize_decomposition(construct_baseline(6, 4))
    assert a == b
    assert a.endswith("\n") and not a.endswith("\n\n")
    assert "\r" not in a
    for line in a.split("\n"):
        assert line == line.rstrip()


def test_format_shape():
    text = serialize_decomposition(construct_baseline(3, 2))
    lines = text.split("\n")
    assert lines[0] == "GPD 1"
    assert lines[1] == "n 3 r 2 pieces 2"
    assert lines[2] == "0 | 1"
    assert lines[3] == "0,1 | 2"
    assert lines[4] == ""


@pytest.mark.parametrize(
    "text",
    [
        "",
        "GPX 1\nn 3 r 2 pieces 0\n",
        "GPD 1\nn 3 r 2 pieces 5\n0 | 1,2\n1 | 2\n",  # count mismatch
        "GPD 1\nn 3 r 2 pieces 2\n0 | 1,2\n1 | 2",  # missing trailing LF
        "GPD 1\nn 3 r 2 pieces 2\n0 | 1,2\n1 | x\n",
        "GPD 1\nn 3 r 2 pieces 1\n1,2 | 0\n",  # non-canonical part order
        "GPD 1\nn 3 r 2 pieces 1\n0 | 1,5\n",  # out of range
        "GPD 1\nn 3 r 2 pieces 1\n0 | 2,1\n",  # part not ascending
        "GPD 1\nn 3 r 2 pieces 1\n0 | 1,1\n",  # repeat within a part
        "GPD 1\nn 3 r 2 pieces 1\n0 | 0,1\n",  # overlapping parts
        "GPD 1\nn 3 r 2 pieces 1\n0 | 1 | 2\n",  # r + 1 parts
        "GPD 1\nn three r 2 pieces 0\n",
        "GPD 1\nn 3 r 2 pieces\n",  # header without the piece count
        "GPD 1\nn 3 r 2 pieces -1",  # negative count, no body
        # A number is spelled only as str(v); int() alone accepts these.
        "GPD 1\nn 3 r 2 pieces 1\n0 | 02\n",
        "GPD 1\nn 3 r 2 pieces 1\n0 | +2\n",
        "GPD 1\nn 3 r 2 pieces 1\n0 |  2\n",
        "GPD 1\nn 3 r 2 pieces 1\n0 | 2 \n",
        "GPD 1\nn 3 r 2 pieces 1\n0 | 2\r\n",
        "GPD 1\nn 3 r 2 pieces 1\n0 | 1,\u0662\n",
        "GPD 1\nn 11 r 2 pieces 1\n0 | 1_0\n",
        "GPD 1\nn 3 r 2 pieces 1\n-0 | 1\n",
        "GPD 1\nn 03 r 2 pieces 1\n0 | 1\n",
        "GPD 1\nn 3 r +2 pieces 1\n0 | 1\n",
        "GPD 1\nn 3 r 2 pieces +1\n0 | 1\n",
        "GPD 1\nn 3 r 2 pieces 01\n0 | 1\n",
        "GPD 1\nn 3 r 2 pieces -0\n",
        "GPD 1\nn \u0663 r 2 pieces 1\n0 | 1\n",
        "GPD 1\nn 1_1 r 2 pieces 1\n0 | 1\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_decomposition(text)


def test_parse_memory_does_not_grow_with_the_header_n():
    # A part's mask has one bit per vertex modulo 1024, so vertices near a
    # huge n cost no more than small ones (a bit per vertex value would take
    # 12.5 MB per part here).
    text = "GPD 1\nn 100000000 r 2 pieces 2\n0 | 99999999\n1,99999998 | 2\n"
    tracemalloc.start()
    try:
        d = parse_decomposition(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.pieces[1].parts == ((1, 99999998), (2,))
    assert peak < 2**20


def traced_peak(call, arg):
    """``call(arg)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(arg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parse_keeping_lines(text):
    """:func:`parse_decomposition` holding every line until its last piece
    is built."""
    tokens = _Tokens()
    (n, r, _), lines = _read_header(text, "GPD 1", ("n", "r", "pieces"), tokens)
    part = _Parts(tokens).__getitem__
    pieces = [RPartiteGraph(tuple(map(part, line.split(" | ")))) for line in lines]
    return Decomposition(GroundSet(n, r), tuple(pieces))


def test_parse_frees_each_line_once_its_piece_is_built():
    # (7,3,7) has 1,536 lines, about 152 kB as strings.  Freed as parsed,
    # they never all sit beside the pieces.
    text = serialize_decomposition(construct_theorem1(7, 3, 7))
    line_bytes = sum(map(sys.getsizeof, text.split("\n")))
    d, peak = traced_peak(parse_decomposition, text)
    ref, ref_peak = traced_peak(parse_keeping_lines, text)
    assert d == ref
    assert peak <= ref_peak - line_bytes // 2


def test_serialize_holds_one_copy_of_the_text():
    # The line strings and the text joined from them, with no second copy of
    # the text made to add the trailing LF.
    text, peak = traced_peak(serialize_decomposition, construct_theorem1(7, 3, 7))
    line_bytes = sum(map(sys.getsizeof, text.split("\n")))
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert peak < line_bytes + 1.5 * len(text)


def test_block_round_trip():
    bd = construct_trivial_blocks(4)
    text = serialize_blocks(bd)
    back = parse_blocks(text)
    assert back == bd
    assert serialize_blocks(back) == text
    assert verify_blocks(back).valid
    lines = text.split("\n")
    assert lines[0] == "GPB 1"
    assert lines[1] == "n 4 blocks 9"
    assert lines[2] == "a:0 b:1,2,3 ; a:0 b:1,2,3"


# SHA-256 of the GPB text of the trivial blocks, which pins block order and
# every side's spelling.
TRIVIAL_BLOCKS_GOLDEN = {
    2: "5ffd6a4266421bf2f517b2a7c0cd3f33e9c9e821eb35669b266fba959d48c8bf",
    5: "b08a0f2edf3860ed014e50af70de67d9a09821b375df70cadc59c692c4c30839",
    9: "7a69a713a563b29cb414d150dfa3f046b169b36e31c0df23ccb4cfc9984f1959",
}


@pytest.mark.parametrize("n", sorted(TRIVIAL_BLOCKS_GOLDEN))
def test_trivial_blocks_round_trip_golden(n):
    bd = construct_trivial_blocks(n)
    text = serialize_blocks(bd)
    assert hashlib.sha256(text.encode()).hexdigest() == TRIVIAL_BLOCKS_GOLDEN[n]
    back = parse_blocks(text)
    assert back == bd
    assert serialize_blocks(back) == text


@pytest.mark.parametrize(
    "text",
    [
        "GPD 1\nn 4 blocks 0\n",
        "GPB 1\nn 4 blocks 1\na:0 b:1\n",  # missing second factor
        "GPB 1\nn 4 blocks 1\na:0 b:0 ; a:2 b:3\n",  # sides overlap
        "GPB 1\nn 3 blocks 1\na:0,0 b:-1 ; a:0 b:7\n",
        "GPB 1\nn 3 blocks 1\na:0,0 b:1 ; a:0 b:1\n",  # repeat within a side
        "GPB 1\nn 3 blocks 1\na:0 b:-1 ; a:0 b:1\n",  # negative vertex
        "GPB 1\nn 3 blocks 1\na:0 b:1 ; a:0 b:7\n",  # vertex >= n
        "GPB 1\nn 0 blocks 0\n",  # n < 1
        "GPB 1\nn 3 blocks -1",  # negative count, no body
        # A number is spelled only as str(v); int() alone accepts these.
        "GPB 1\nn 4 blocks 1\na:0 b:01 ; a:2 b:3\n",
        "GPB 1\nn 4 blocks 1\na:0 b:+1 ; a:2 b:3\n",
        "GPB 1\nn 4 blocks 1\na:0 b:1 ; a:-0 b:3\n",
        "GPB 1\nn 4 blocks 1\na:0 b:1 ; a:2 b:3\r\n",
        "GPB 1\nn 4 blocks 1\na:0 b:1,\u0662 ; a:2 b:3\n",
        "GPB 1\nn 11 blocks 1\na:0 b:1_0 ; a:2 b:3\n",
        "GPB 1\nn 04 blocks 1\na:0 b:1 ; a:2 b:3\n",
        "GPB 1\nn 4 blocks +1\na:0 b:1 ; a:2 b:3\n",
        "GPB 1\nn 4 blocks -0\n",
    ],
)
def test_parse_blocks_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_blocks(text)


@pytest.mark.parametrize("line, part", [
    ("a:x,1 b:01 ; a:2 b:3", "x,1"),  # the first bad side wins
    ("a:0 b:01 ; a:2 b:3", "01"),
    ("a:0 b:1 ; a:-0 b:3", "-0"),
    ("a: b:1 ; a:2 b:3", ""),
    ("a:0 b:1 ; a:2 b:3\r", "3\r"),
])
def test_parse_blocks_names_the_bad_part(line, part):
    with pytest.raises(ParseError) as info:
        parse_blocks(f"GPB 1\nn 4 blocks 1\n{line}\n")
    assert str(info.value) == f"block 0 bad part {part!r}"


@pytest.mark.parametrize("line, message", [
    ("a:0 b:1 c:2 ; a:0 b:1", "bad bipartite factor 'a:0 b:1 c:2'"),  # three sides
    ("a:0 b:1 ; a:0 c:1", "bad bipartite factor 'a:0 c:1'"),
    ("a:0 b:1 ; a:0 b:x", "bad part 'x'"),
    ("a:0 b:1 ; a:0 b:1 ; a:0 b:1", "bad block line 'a:0 b:1 ; a:0 b:1 ; a:0 b:1'"),
    ("a:0 b:1", "bad block line 'a:0 b:1'"),  # no ' ; '
    ("a:0 b:1;a:0 b:1", "bad block line 'a:0 b:1;a:0 b:1'"),
])
def test_parse_blocks_syntax_refusals_name_the_block(line, message):
    # The bad line is block 2, after two good ones.
    text = f"GPB 1\nn 4 blocks 3\na:0 b:1 ; a:0 b:1\na:0 b:1 ; a:0 b:2\n{line}\n"
    with pytest.raises(ParseError) as info:
        parse_blocks(text)
    assert str(info.value) == f"block 2 {message}"


def test_parse_blocks_reports_the_block_rule():
    # BlockDecomposition applies the piece rule for r = 2, canonical order
    # included; the parser passes on its words, which name the block.
    for line, message in [
        ("a:0 b:1 ; a:0 b:7", "block 0 second factor has out-of-range vertex 7"),
        ("a:1 b:0 ; a:0 b:1", "block 0 first factor has vertex 0 out of canonical order"),
        ("a:0 b:2,1 ; a:0 b:1", "block 0 first factor has vertex 1 out of canonical order"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_blocks(f"GPB 1\nn 3 blocks 1\n{line}\n")
        assert str(info.value) == message
    with pytest.raises(ParseError, match="^need n >= 1, got n=0$"):
        parse_blocks("GPB 1\nn 0 blocks 0\n")


# -- robustness: mutated valid texts --------------------------------------

VALID_TEXTS = [serialize_decomposition(d) for d in GENERATED] + [
    serialize_blocks(construct_trivial_blocks(n)) for n in (2, 4)
]
# Format characters, a non-ASCII digit that int() accepts, and other noise.
NOISE = "0123456789-,|:; abnrpiecslkGPDBX\n\r\t\u0663\xff"


@st.composite
def mutated_texts(draw):
    """A valid GPD or GPB text with a few short spans replaced by noise and
    possibly one line repeated or dropped."""
    text = draw(st.sampled_from(VALID_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 4, len(text))))
        text = text[:i] + draw(st.text(NOISE, max_size=4)) + text[j:]
    lines = text.split("\n")
    k = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(("keep", "repeat", "drop")))
    if edit == "repeat":
        lines.insert(k, lines[k])
    elif edit == "drop":
        del lines[k]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_decomposition, parse_blocks):
        try:
            parse(text)
        except ParseError:
            pass


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_parsers_accept_only_the_serialized_spelling(text):
    # Whatever a parser accepts, the serializer writes back byte for byte,
    # so every number, separator and line ending has one spelling.
    for parse, serialize in ((parse_decomposition, serialize_decomposition),
                             (parse_blocks, serialize_blocks)):
        try:
            back = parse(text)
        except ParseError:
            continue
        assert serialize(back) == text


# -- round trip of everything the constructors accept ---------------------

@st.composite
def drawn_parts(draw, n: int, r: int):
    """r parts of distinct vertices of -1..n, at times in canonical order and
    at times in the order drawn, so the rule refuses some and accepts some."""
    vertices = draw(st.lists(st.integers(-1, n), min_size=r, max_size=r + 3, unique=True))
    cuts = sorted(draw(st.permutations(range(1, len(vertices))))[:r - 1])
    parts = [tuple(vertices[i:j]) for i, j in zip([0] + cuts, cuts + [len(vertices)])]
    if draw(st.booleans()):
        parts = sorted(tuple(sorted(part)) for part in parts)
    return tuple(parts)


def drawn_size(draw, size: int):
    """``size`` as an int, a float or, for 0 and 1, a bool: each equal to it."""
    return draw(st.sampled_from((int, float, bool) if size in (0, 1) else (int, float)))(size)


def drawn_container(draw, items):
    """``items`` in a tuple or a list."""
    return draw(st.sampled_from((tuple, list)))(items)


@st.composite
def drawn_decompositions(draw):
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    pieces = draw(st.lists(drawn_parts(n, r).map(RPartiteGraph), max_size=6))
    return drawn_size(draw, n), drawn_size(draw, r), drawn_container(draw, pieces)


@st.composite
def drawn_block_layers(draw):
    """A layer whose blocks are drawn in every shape: a pair of factors, a
    list of two, or a tuple of one or three; only the pair is a block."""
    n = draw(st.integers(2, 6))
    factors = st.one_of(drawn_parts(n, 2), drawn_parts(n, 3)).map(RPartiteGraph)
    pairs = st.tuples(factors, factors)
    shapes = st.one_of(pairs, pairs.map(list), st.tuples(factors),
                       st.tuples(factors, factors, factors))
    blocks = draw(st.lists(shapes, max_size=6))
    return drawn_size(draw, n), drawn_container(draw, blocks)


@settings(max_examples=300, deadline=None)
@given(drawn_decompositions(), drawn_block_layers())
def test_accepted_objects_round_trip_byte_for_byte(dec_args, block_args):
    # The piece rule in memory and the file formats are one rule: whatever a
    # constructor accepts, its file parses back to it and re-serializes to
    # the same bytes.  Sizes are drawn as ints, floats or bools, pieces and
    # blocks in tuples or lists, and blocks in every shape, so a constructor
    # must refuse what its file could not hold: a block that is not a pair
    # of factors among them.
    for build, serialize, parse, args in (
            (lambda n, r, pieces: Decomposition(GroundSet(n, r), pieces),
             serialize_decomposition, parse_decomposition, dec_args),
            (BlockDecomposition, serialize_blocks, parse_blocks, block_args)):
        try:
            obj = build(*args)
        except ValueError:
            continue
        if build is BlockDecomposition:
            assert all(type(b) is tuple and len(b) == 2 for b in obj.blocks)
        text = serialize(obj)
        back = parse(text)
        assert back == obj
        assert serialize(back) == text
