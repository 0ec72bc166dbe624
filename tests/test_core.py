import itertools
import math
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

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
)
from gpdecomp.blocks import Block, BlockDecomposition, block_to_four_parts
from gpdecomp.core import (
    RPartiteGraph,
    edge_masks,
    edge_of_mask,
    first_miscovered,
    piece_problem,
    subset_masks,
)


# Canonical form: each part ascending, the parts ordered by minimum.  It is
# part of the piece rule, and the library sorts no piece it is given;
# ``canonical`` is the tests' own way to put drawn parts in that form, shared
# with the differential generators.  The edge set is unchanged.

def canonical(parts) -> RPartiteGraph:
    return RPartiteGraph(tuple(sorted(tuple(sorted(part)) for part in parts)))


def test_canonicalize_orders_by_minimum():
    assert canonical([{3}, {1, 0}]).parts == ((0, 1), (3,))
    assert piece_problem(((0, 1), (3,)), 4, 2) is None
    assert piece_problem(((3,), (0, 1)), 4, 2) == "vertex 0 out of canonical order"
    assert piece_problem(((1, 0), (3,)), 4, 2) == "vertex 0 out of canonical order"


def test_canonicalize_permutation_invariant_small():
    # Of the six orders of three one-vertex parts the rule accepts one, the
    # canonical one.
    base = [(0,), (1,), (2,)]
    outs = {canonical(perm) for perm in itertools.permutations(base)}
    assert outs == {RPartiteGraph(tuple(base))}
    accepted = [p for p in itertools.permutations(base) if piece_problem(p, 3, 3) is None]
    assert accepted == [tuple(base)]


@st.composite
def disjoint_families(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    verts = list(range(n))
    r = draw(st.integers(min_value=1, max_value=n))
    # random surjective-ish assignment of vertices to r parts
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=r - 1), min_size=n, max_size=n)
    )
    parts = [[] for _ in range(r)]
    for v, lab in zip(verts, labels):
        parts[lab].append(v)
    parts = [p for p in parts if p]
    return parts


@given(disjoint_families())
def test_canonicalize_idempotent(parts):
    once = canonical(parts)
    assert canonical(once.parts) == once
    assert piece_problem(once.parts, 12, len(parts)) is None


@given(disjoint_families(), st.randoms())
def test_canonicalize_permutation_invariant(parts, rng):
    shuffled = [p[::-1] for p in parts]
    rng.shuffle(shuffled)
    assert canonical(parts) == canonical(shuffled)
    # The rule accepts an arrangement exactly when it is the canonical one.
    accepted = piece_problem(shuffled, 12, len(parts)) is None
    assert accepted == (tuple(map(tuple, shuffled)) == canonical(parts).parts)


@given(disjoint_families())
def test_edge_masks_count_and_distinct(parts):
    piece = RPartiteGraph(tuple(sorted(map(tuple, parts))))
    masks = list(edge_masks(piece))
    assert len(masks) == math.prod(len(p) for p in piece.parts)
    assert len(set(masks)) == len(masks)


@given(disjoint_families())
def test_edge_masks_are_the_edges(parts):
    piece = RPartiteGraph(tuple(sorted(map(tuple, parts))))
    masks = list(edge_masks(piece))
    expected = sorted(tuple(sorted(c)) for c in itertools.product(*piece.parts))
    assert sorted(map(edge_of_mask, masks)) == expected
    assert all(m.bit_count() == len(parts) for m in masks)


@st.composite
def wide_pieces(draw):
    """Disjoint parts in any order over vertices up to 95, so masks take
    one to four 30-bit digits, with at most 36 edges."""
    verts = draw(st.lists(st.integers(0, 95), min_size=1, max_size=10, unique=True))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(verts), max_size=len(verts)))
    parts = [tuple(v for v, lab in zip(verts, labels) if lab == k) for k in range(4)]
    return RPartiteGraph(tuple(p for p in parts if p))


def product_sum_masks(piece):
    """The kernel's reference: one sum per edge, in ``product`` order."""
    return map(sum, itertools.product(*[[1 << v for v in part] for part in piece.parts]))


@given(st.one_of(wide_pieces(), disjoint_families().map(
    lambda parts: RPartiteGraph(tuple(map(tuple, parts))))))
def test_edge_masks_match_product_sum_in_order(piece):
    masks = edge_masks(piece)
    assert isinstance(masks, list)
    assert masks == list(product_sum_masks(piece))
    assert list(map(edge_of_mask, masks)) == [
        tuple(sorted(e)) for e in itertools.product(*piece.parts)]


def test_edge_masks_allocate_no_more_than_product_sum():
    # The masks of the 841 block pieces of n = 30 placed at (0, 30) are two
    # 30-bit digits each.  Summing them (or folding with +) keeps a spare
    # digit per mask, about 0.75 MB more here; the | fold must not.
    pieces = [RPartiteGraph(block_to_four_parts(b, 0, 30))
              for b in construct_trivial_blocks(30).blocks]

    def traced_peak(kernel):
        tracemalloc.start()
        try:
            masks = list(itertools.chain.from_iterable(map(kernel, pieces)))
            return len(masks), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    count, peak = traced_peak(edge_masks)
    ref_count, ref_peak = traced_peak(product_sum_masks)
    assert count == ref_count == comb(30, 2) ** 2
    assert peak <= ref_peak


def test_edge_masks_examples():
    def edges(parts):
        return sorted(map(edge_of_mask, edge_masks(RPartiteGraph(parts))))

    assert edges(((0,), (1, 2))) == [(0, 1), (0, 2)]
    assert len(edges(((0, 1), (2, 3)))) == 4
    assert edges(((0,), (1,), (2,))) == [(0, 1, 2)]


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(3, 4)
    with pytest.raises(ValueError):
        GroundSet(3, 0)
    with pytest.raises(ValueError):
        GroundSet(1, 2)  # the n-1 stars of K_n need n >= 2


@pytest.mark.parametrize(
    "parts, reason",
    [
        (((0,), (1, 2)), None),
        (((0,), ()), "an empty part"),
        (((0,), (1, 4)), "out-of-range vertex 4"),
        (((-1,), (1,)), "out-of-range vertex -1"),
        (((0, 1), (1, 2)), "overlapping parts at vertex 1"),
        (((0, 0), (1,)), "overlapping parts at vertex 0"),  # repeat within a part
        (((5,), ()), "out-of-range vertex 5"),  # first fault in part order
        (((0,), (1,), (2,)), "3 parts, expected 2"),
        (((1,), (0,)), "vertex 0 out of canonical order"),  # parts not by minimum
        (((0,), (3, 1)), "vertex 1 out of canonical order"),  # a part not ascending
        (((1,), (0, 5)), "vertex 0 out of canonical order"),  # the first fault in walk order...
        (((1,), (5, 0)), "out-of-range vertex 5"),  # ...whatever its kind
        (((2, 3), (0, 3)), "vertex 0 out of canonical order"),
        (((1, 2), (1, 3)), "overlapping parts at vertex 1"),  # equal minima overlap
    ],
)
def test_piece_problem_reasons(parts, reason):
    assert piece_problem(parts, 4, 2) == reason


@pytest.mark.parametrize(
    "parts",
    [((0,), ()), ((0,), (1, 4)), ((-1,), (1,)), ((0, 1), (1, 2)), ((2, 3), (0, 3)),
     ((1,), (0,)), ((0,), (1,), (2,))],
)
def test_decomposition_refuses_in_piece_problem_words(parts):
    with pytest.raises(ValueError) as refused:
        Decomposition(GroundSet(4, 2), (RPartiteGraph(parts),))
    assert str(refused.value) == f"piece 0 has {piece_problem(parts, 4, 2)}"


@pytest.mark.parametrize("n", range(0, 9))
def test_subset_masks_are_the_lexicographic_r_subsets(n):
    bits = [1 << v for v in range(n)]
    for r in range(n + 1):
        masks = list(subset_masks(n, r))
        assert masks == list(map(sum, itertools.combinations(bits, r)))
        assert [edge_of_mask(m) for m in masks] == list(itertools.combinations(range(n), r))


def test_first_miscovered():
    universe = list(subset_masks(4, 2))  # 0b11, 0b101, 0b1001, 0b110, 0b1010, 0b1100
    assert first_miscovered([universe[::-1]], universe, 6) is None
    assert first_miscovered([universe[:2], universe[2:]], universe, 6) is None
    # a missing mask is found with count 0, a repeated one with its count
    assert first_miscovered([universe[1:]], universe, 6) == (0b11, 0, {1: 5, 0: 1})
    assert first_miscovered([universe, [0b110]], universe, 6) == (0b110, 2, {1: 5, 2: 1})
    # the census matches but a mask repeats in place of another
    assert first_miscovered([universe[:-1], [0b101]], universe, 6) == (
        0b101, 2, {0: 1, 1: 4, 2: 1})
    # Only repeats: {0,3} = 0b1001 comes before {1,2} = 0b110 although its
    # mask is larger, and the universe is not read at all.
    assert first_miscovered([universe, [0b0110, 0b1001]], universe, 6) == (
        0b1001, 2, {1: 4, 2: 2})
    assert first_miscovered([universe, [0b0110, 0b1001], [0b0110]], iter(()), 6) == (
        0b1001, 2, {1: 4, 2: 1, 3: 1})
    # every mask covered twice, and none at all
    assert first_miscovered([universe, universe[::-1]], iter(()), 6) == (0b11, 2, {2: 6})
    assert first_miscovered([], universe, 6) == (0b11, 0, {0: 6})


@pytest.mark.parametrize("groups, witness", [
    # an over-cover lexicographically before the first missing mask: the
    # walk stops at the over-cover, not at the missing mask
    ([[0b11, 0b101, 0b1001, 0b110, 0b1010], [0b101]], 0b101),
    ([[0b11, 0b101, 0b110, 0b1010, 0b1100], [0b11]], 0b11),
    # the first missing mask before an over-cover
    ([[0b101, 0b1001, 0b110, 0b1010, 0b1100], [0b1100]], 0b11),
    # the witness at the universe's first mask and at its last
    ([[0b11], [0b11, 0b101, 0b1001, 0b110, 0b1010, 0b1100]], 0b11),
    ([[0b11, 0b101, 0b1001, 0b110, 0b1010, 0b1100], [0b1100]], 0b1100),
    ([[0b101, 0b1001, 0b110, 0b1010, 0b1100]], 0b11),
    ([[0b11, 0b101, 0b1001, 0b110, 0b1010]], 0b1100),
    # missing masks only, the last group empty
    ([[0b11, 0b101], [0b1010, 0b1100], []], 0b1001),
])
def test_first_miscovered_against_the_full_scan(groups, witness):
    universe = list(subset_masks(4, 2))
    masks = [m for g in groups for m in g]
    walk = iter(universe)
    found = first_miscovered(groups, walk, 6)
    assert found[:2] == scanned_verdict(masks, universe, 6)
    assert found[0] == witness
    assert found[2] == scanned_histogram(masks, universe)
    # The universe is read no further than the witness.
    assert len(universe) - len(list(walk)) <= universe.index(witness) + 1


def scanned_verdict(masks, universe, total):
    """The verdict as a full scan of the universe gives it."""
    if len(masks) == total and len(set(masks)) == total:
        return None
    counts = Counter(masks)
    return next(((m, counts[m]) for m in universe if counts[m] != 1), None)


def scanned_histogram(masks, universe):
    """Multiplicity -> number of universe masks, by a full scan."""
    return dict(Counter(map(Counter(masks).__getitem__, universe)))


@st.composite
def universe_multisets(draw):
    """The r-subsets of 0..n-1 each repeated 0-3 times, shuffled and cut into
    groups of distinct masks: some with missing masks only, some with
    repeats only, some with both."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    universe = list(subset_masks(n, r))
    low = draw(st.sampled_from([0, 1]))
    copies = draw(st.lists(st.integers(low, 3), min_size=len(universe), max_size=len(universe)))
    masks = [m for m, c in zip(universe, copies) for _ in range(c)]
    groups: list = [[] for _ in range(draw(st.integers(1, 4)))]
    for m in draw(st.permutations(masks)):
        g = groups[draw(st.integers(0, len(groups) - 1))]
        if m in g:
            groups.append([m])
        else:
            g.append(m)
    return groups, universe


@given(universe_multisets())
def test_first_miscovered_matches_the_full_scan(drawn):
    groups, universe = drawn
    masks = [m for g in groups for m in g]
    found = first_miscovered(groups, universe, len(universe))
    assert (found and found[:2]) == scanned_verdict(masks, universe, len(universe))
    if found:
        assert found[2] == scanned_histogram(masks, universe)


# One bad piece planted through every public way a piece can enter, each
# refusing it in the same words, except that the GPD parser's line check
# names a line out of canonical order first.  The constructions build their
# outputs with a private constructor that does not check again, so a
# provider's output must have been checked on its way in.  A bad block
# factor is refused alike, naming its block and side.
PLANTED = [
    # (parts of piece 1 over K_3^(3), the problem, the parser's words when its
    # line check refuses first, a bad bipartite factor over n = 3, its problem)
    (((0,), (0, 1), (2,)), "overlapping parts at vertex 0", None,
     ((0,), (0, 1)), "overlapping parts at vertex 0"),
    (((0,), (1, 1), (2,)), "overlapping parts at vertex 1", None,
     ((0,), (1, 1)), "overlapping parts at vertex 1"),
    (((0,), (1,), (3,)), "out-of-range vertex 3", None, ((0,), (3,)), "out-of-range vertex 3"),
    (((-1,), (0,), (1,)), "out-of-range vertex -1", None, ((-1,), (0,)), "out-of-range vertex -1"),
    (((0,), (1, 2)), "2 parts, expected 3", None, ((0,), (1,), (2,)), "3 parts, expected 2"),
    (((1,), (0,), (2,)), "vertex 0 out of canonical order",
     "piece line not in canonical form: '1 | 0 | 2'", ((0,), (2, 1)), "vertex 1 out of canonical order"),
]


@pytest.mark.parametrize("parts,problem,parsed,factor,factor_problem", PLANTED,
                         ids=["overlap", "repeat", "above-n", "negative", "part-count",
                              "not-canonical"])
def test_bad_piece_is_refused_through_every_path(parts, problem, parsed, factor, factor_problem):
    good = ((0,), (1,), (2,))
    message = f"piece 1 has {problem}"

    def planted(m=3, s=3):
        assert (m, s) == (3, 3)
        return Decomposition(GroundSet(3, 3), (RPartiteGraph(good), RPartiteGraph(parts)))

    text = "GPD 1\nn 3 r 3 pieces 2\n0 | 1 | 2\n" + " | ".join(
        ",".join(map(str, part)) for part in parts) + "\n"
    paths = [
        (ValueError, planted, message),
        (ParseError, lambda: parse_decomposition(text), parsed or message),
        # construct_theorem1(3, 3, 5) asks for K_3^(3) on each class...
        (ValueError, lambda: construct_theorem1(3, 3, 5, sub_provider=lambda m, s: (
            planted(m, s) if s == 3 else construct_baseline(m, s))), message),
        # ...and construct_even_from_odd(2, 2) derives K_2^(2) from K_3^(3).
        (ValueError, lambda: construct_even_from_odd(2, 2, odd_provider=planted), message),
    ]
    # The same factor as the first factor of block 4 after the four trivial
    # blocks of n = 3: in memory, through the block provider, and in a GPB
    # file, where a factor of other than two sides has no spelling.
    stray = Block(RPartiteGraph(factor), RPartiteGraph(((0,), (1,))))
    blocks = construct_trivial_blocks(3).blocks + (stray,)
    message = f"block 4 first factor has {factor_problem}"
    paths += [
        (ValueError, lambda: BlockDecomposition(3, blocks), message),
        (ValueError, lambda: construct_theorem1(3, 3, 5, block_provider=lambda m: (
            BlockDecomposition(m, blocks))), message),
    ]
    if len(factor) == 2:
        line = "a:{} b:{} ; a:0 b:1".format(*(",".join(map(str, side)) for side in factor))
        gpb = serialize_blocks(construct_trivial_blocks(3)).replace("blocks 4", "blocks 5") + line + "\n"
        paths.append((ParseError, lambda: parse_blocks(gpb), message))
    for error, call, words in paths:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == words
