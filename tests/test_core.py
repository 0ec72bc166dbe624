import itertools
import math

import pytest
from hypothesis import given, strategies as st

from gpdecomp import (
    Decomposition,
    GroundSet,
    InvalidPieceError,
    ParseError,
    binomial,
    canonicalize,
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1,
    construct_trivial_blocks,
    parse_decomposition,
)
from gpdecomp.blocks import BipartiteGraph, Block, BlockDecomposition
from gpdecomp.core import (
    RPartiteGraph,
    edge_masks,
    edge_of_mask,
    first_miscovered,
    piece_problem,
    subset_masks,
)


def test_canonicalize_orders_by_minimum():
    p = canonicalize([{3}, {0, 1}])
    assert p.parts == ((0, 1), (3,))


def test_canonicalize_permutation_invariant_small():
    import itertools

    base = [{0}, {1}, {2}]
    outs = {canonicalize(perm) for perm in itertools.permutations(base)}
    assert len(outs) == 1


def test_canonicalize_rejects_overlap():
    with pytest.raises(InvalidPieceError):
        canonicalize([{1, 2}, {1, 3}])


def test_canonicalize_rejects_empty_part():
    with pytest.raises(InvalidPieceError):
        canonicalize([{0}, set()])


def test_canonicalize_rejects_empty_family():
    with pytest.raises(InvalidPieceError):
        canonicalize([])


def test_canonicalize_rejects_out_of_range():
    with pytest.raises(InvalidPieceError):
        canonicalize([{0}, {5}], n=4)
    with pytest.raises(InvalidPieceError):
        canonicalize([{-1}, {2}])


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
    once = canonicalize(parts)
    again = canonicalize(once.parts)
    assert once == again


@given(disjoint_families(), st.randoms())
def test_canonicalize_permutation_invariant(parts, rng):
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert canonicalize(parts) == canonicalize(shuffled)


@given(disjoint_families())
def test_edge_masks_count_and_distinct(parts):
    piece = canonicalize(parts)
    masks = list(edge_masks(piece))
    assert len(masks) == math.prod(len(p) for p in piece.parts)
    assert len(set(masks)) == len(masks)


@given(disjoint_families())
def test_edge_masks_are_the_edges(parts):
    piece = canonicalize(parts)
    masks = list(edge_masks(piece))
    expected = sorted(tuple(sorted(c)) for c in itertools.product(*piece.parts))
    assert sorted(map(edge_of_mask, masks)) == expected
    assert all(m.bit_count() == piece.r for m in masks)


def test_edge_masks_examples():
    def edges(parts):
        return sorted(map(edge_of_mask, edge_masks(canonicalize(parts))))

    assert edges([{0}, {1, 2}]) == [(0, 1), (0, 2)]
    assert len(edges([{0, 1}, {2, 3}])) == 4
    assert edges([{0}, {1}, {2}]) == [(0, 1, 2)]


def test_binomial_values():
    assert binomial(9, 5) == 126
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(1000, 500) == math.comb(1000, 500)


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(3, 4)
    with pytest.raises(ValueError):
        GroundSet(3, 0)
    assert GroundSet(5, 2).edge_count == 10


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
    ],
)
def test_piece_problem_reasons(parts, reason):
    assert piece_problem(parts, 4) == reason


def test_piece_problem_without_n_checks_only_the_sign():
    assert piece_problem(((0,), (99,))) is None
    assert piece_problem(((0,), (-1,))) == "out-of-range vertex -1"


@pytest.mark.parametrize(
    "parts",
    [((0,), ()), ((0,), (1, 4)), ((-1,), (1,)), ((0, 1), (1, 2)), ((2, 3), (0, 3))],
)
def test_canonicalize_and_decomposition_give_the_same_reason(parts):
    with pytest.raises(InvalidPieceError) as info:
        canonicalize(parts, n=4)
    with pytest.raises(ValueError) as refused:
        Decomposition(GroundSet(4, 2), (RPartiteGraph(parts),))
    assert str(refused.value) == f"piece 0 has {info.value}"


@pytest.mark.parametrize("n", range(0, 9))
def test_subset_masks_are_the_lexicographic_r_subsets(n):
    bits = [1 << v for v in range(n)]
    for r in range(n + 1):
        masks = list(subset_masks(n, r))
        assert masks == list(map(sum, itertools.combinations(bits, r)))
        assert [edge_of_mask(m) for m in masks] == list(itertools.combinations(range(n), r))


def test_first_miscovered():
    universe = list(subset_masks(4, 2))  # 0b11, 0b101, 0b110, 0b1001, ...
    assert first_miscovered(universe[::-1], universe, 6) is None
    # a missing mask is found with count 0, a repeated one with its count
    assert first_miscovered(universe[1:], universe, 6) == (0b11, 0)
    assert first_miscovered(universe + [0b110], universe, 6) == (0b110, 2)
    # the census matches but a mask repeats in place of another
    assert first_miscovered(universe[:-1] + [0b101], universe, 6) == (0b101, 2)


# One bad piece planted through every public way a piece can enter, each
# refusing it in the same words.  The constructions build their outputs
# with a private constructor that does not check again, so a provider's
# output must have been checked on its way in.
PLANTED = [
    # (parts of piece 1 over K_3^(3), the problem, a bad bipartite factor or None)
    (((0,), (0, 1), (2,)), "overlapping parts at vertex 0", ((0,), (0, 1))),
    (((0,), (1, 1), (2,)), "overlapping parts at vertex 1", ((0,), (1, 1))),
    (((0,), (1,), (3,)), "out-of-range vertex 3", ((0,), (3,))),
    (((-1,), (0,), (1,)), "out-of-range vertex -1", ((-1,), (0,))),
    (((0,), (1, 2)), "2 parts, expected 3", None),
]


@pytest.mark.parametrize("parts,problem,factor", PLANTED,
                         ids=["overlap", "repeat", "above-n", "negative", "part-count"])
def test_bad_piece_is_refused_through_every_path(parts, problem, factor):
    good = ((0,), (1,), (2,))
    message = f"piece 1 has {problem}"

    def planted(m=3, s=3):
        assert (m, s) == (3, 3)
        return Decomposition(GroundSet(3, 3), (RPartiteGraph(good), RPartiteGraph(parts)))

    text = "GPD 1\nn 3 r 3 pieces 2\n0 | 1 | 2\n" + " | ".join(
        ",".join(map(str, part)) for part in parts) + "\n"
    paths = [
        (ValueError, planted),
        (ParseError, lambda: parse_decomposition(text)),
        # construct_theorem1(3, 3, 5) asks for K_3^(3) on each class...
        (ValueError, lambda: construct_theorem1(3, 3, 5, sub_provider=lambda m, s: (
            planted(m, s) if s == 3 else construct_baseline(m, s)))),
        # ...and construct_even_from_odd(2, 2) derives K_2^(2) from K_3^(3).
        (ValueError, lambda: construct_even_from_odd(2, 2, odd_provider=planted)),
    ]
    for error, call in paths:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    if factor is not None:
        stray = Block(BipartiteGraph(*factor), BipartiteGraph((0,), (1,)))
        with pytest.raises(ValueError) as info:
            construct_theorem1(3, 3, 5, block_provider=lambda m: BlockDecomposition(
                m, construct_trivial_blocks(m).blocks + (stray,)))
        assert str(info.value) == problem
