import itertools
import math

import pytest
from hypothesis import given, strategies as st

from gpdecomp import (
    Decomposition,
    GroundSet,
    InvalidPieceError,
    binomial,
    canonicalize,
)
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
