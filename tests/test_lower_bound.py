"""Tests of the certified lower bound ``bounds.lower_bound``.

The inertia term is a closed form in the Kneser eigenvalues; here it is
checked against an exact-rational elimination of the Kneser matrix itself,
and the identity behind it, that the pieces' matrices sum to the Kneser
matrix, is checked in integers on real decompositions.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest

from gpdecomp import (
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1,
    enumerate_candidate_pieces,
    lower_bound,
)
from gpdecomp.bounds import _kneser_inertia_bound, _max_piece_edges


def kneser_matrix(n, h):
    """Rows and columns are the h-subsets of 0..n-1; 1 where disjoint."""
    sets = [frozenset(s) for s in combinations(range(n), h)]
    return [[Fraction(int(not a & b)) for b in sets] for a in sets]


def exact_inertia(matrix):
    """(n_+, n_-) of a symmetric rational matrix by symmetric elimination.

    A nonzero diagonal entry is a 1x1 pivot.  When every remaining diagonal
    entry is zero, a nonzero off-diagonal entry b gives the 2x2 pivot
    [[0, b], [b, 0]], of inertia (1, 1).  By Sylvester's law the pivots'
    signs are the matrix's inertia."""
    a = [row[:] for row in matrix]
    live = list(range(len(a)))
    pos = neg = 0
    while live:
        k = next((i for i in live if a[i][i]), None)
        if k is not None:
            p = a[k][k]
            pos, neg = pos + (p > 0), neg + (p < 0)
            live.remove(k)
            for i in live:
                if a[i][k]:
                    f = a[i][k] / p
                    for j in live:
                        if a[k][j]:
                            a[i][j] -= f * a[k][j]
            continue
        pair = next(((i, j) for i in live for j in live if i < j and a[i][j]), None)
        if pair is None:
            break  # the rest is zero
        i, j = pair
        b = a[i][j]
        pos, neg = pos + 1, neg + 1
        live.remove(i)
        live.remove(j)
        # a[k][l] -= [a[k][i], a[k][j]] [[0, 1/b], [1/b, 0]] [a[i][l], a[j][l]]^T
        for k in live:
            ki, kj = a[k][i], a[k][j]
            if ki or kj:
                for l in live:
                    a[k][l] -= (ki * a[j][l] + kj * a[i][l]) / b
    return pos, neg


KNESER_CASES = [(n, h) for h in (1, 2, 3, 4) for n in range(2 * h, 10)]


@pytest.mark.parametrize("n,h", KNESER_CASES)
def test_inertia_closed_form_matches_elimination(n, h):
    pos, neg = exact_inertia(kneser_matrix(n, h))
    assert pos + neg == comb(n, h)  # nonsingular for n >= 2h
    assert _kneser_inertia_bound(n, h) == -(-2 * max(pos, neg) // comb(2 * h, h))


def piece_matrix(parts, h):
    """N_p = sum over h-sets S of parts of u_S u_{S^c}^T, as a Counter over
    (A, B) pairs of vertex h-sets; u_S marks the transversals of S."""
    out = Counter()
    for chosen in combinations(range(len(parts)), h):
        rest = [q for q in range(len(parts)) if q not in chosen]
        for a in product(*(parts[q] for q in chosen)):
            for b in product(*(parts[q] for q in rest)):
                out[frozenset(a), frozenset(b)] += 1
    return out


@pytest.mark.parametrize(
    "dec",
    [construct_baseline(7, 4), construct_baseline(8, 4), construct_even_from_odd(6, 4)],
    ids=["baseline-7-4", "baseline-8-4", "even-from-odd-6-4"],
)
def test_piece_matrices_sum_to_kneser(dec):
    n, h = dec.ground.n, dec.ground.r // 2
    total = Counter()
    for piece in dec.pieces:
        total.update(piece_matrix(piece.parts, h))
    sets = [frozenset(s) for s in combinations(range(n), h)]
    assert +total == Counter({(a, b): 1 for a in sets for b in sets if not a & b})


# The exact search prunes with _max_piece_edges as its max_cov at every n
# up to the soft cap, 9.
@pytest.mark.parametrize("n", range(1, 10))
def test_max_piece_edges_is_the_candidate_maximum(n):
    for r in range(1, n + 1):
        best = max(prod(map(len, c.parts)) for c in enumerate_candidate_pieces(n, r))
        assert _max_piece_edges(n, r) == best


@pytest.mark.parametrize("n", range(2, 30))
def test_graham_pollak_and_triple_systems(n):
    assert lower_bound(n, 2)[0] == n - 1
    if n >= 3:
        assert lower_bound(n, 3)[0] == n - 2


@pytest.mark.parametrize(
    "n,r,value,kind",
    [
        (8, 4, 7, "inertia"),
        (9, 4, 10, "inertia"),
        (10, 4, 12, "inertia"),
        (10, 5, 10, "link"),
        (8, 3, 6, "link"),
        (9, 7, 9, "trivial"),
        (7, 4, 5, "trivial"),
        (6, 4, 4, "trivial"),  # trivial and inertia tie at 4
        (5, 2, 4, "inertia"),
        (4, 4, 1, "trivial"),
    ],
)
def test_values_and_kinds(n, r, value, kind):
    assert lower_bound(n, r) == (value, kind)


def test_integer_only_and_refuses_bad_r():
    for n in range(1, 12):
        for r in range(1, n + 1):
            value, _ = lower_bound(n, r)
            assert type(value) is int
    for n, r in [(3, 4), (3, 0), (0, 0)]:
        with pytest.raises(ValueError):
            lower_bound(n, r)


# Known minima: f_4(6) = 6 and f_7(9) = 9 by branch-and-bound, f_4(7) = 9 by
# an earlier MILP proof, and f_2, f_3 by Graham-Pollak and Alon.
KNOWN_F = {(6, 4): 6, (7, 4): 9, (9, 7): 9, (5, 4): 3, (4, 4): 1}


def test_never_exceeds_known_minima():
    for (n, r), f in KNOWN_F.items():
        assert lower_bound(n, r)[0] <= f


def test_never_exceeds_a_construction():
    for n in range(1, 15):
        for r in range(1, n + 1):
            assert lower_bound(n, r)[0] <= construct_baseline(n, r).piece_count
    for n, r in [(6, 4), (8, 4), (10, 4), (8, 6), (10, 6)]:
        assert lower_bound(n, r)[0] <= construct_even_from_odd(n, r).piece_count
    for n, k, r in [(2, 3, 3), (3, 3, 5), (2, 4, 5), (3, 2, 5), (2, 5, 7), (3, 3, 7)]:
        dec = construct_theorem1(n, k, r)
        assert lower_bound(n * k, r)[0] <= dec.piece_count
