import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gpdecomp import (
    ParseError,
    construct_baseline,
    construct_stars,
    construct_theorem1,
    construct_trivial_blocks,
    parse_blocks,
    parse_decomposition,
    serialize_blocks,
    serialize_decomposition,
    verify_blocks,
)


GENERATED = [
    construct_stars(5),
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
    text = serialize_decomposition(construct_stars(3))
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


def test_parse_blocks_reports_the_block_rule():
    # BlockDecomposition applies the piece rule; the parser passes on its reason.
    with pytest.raises(ParseError, match="^out-of-range vertex 7$"):
        parse_blocks("GPB 1\nn 3 blocks 1\na:0 b:1 ; a:0 b:7\n")
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
