from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

import pytest

from gpdecomp import (
    alon_lower_coefficient,
    base_coefficient,
    construct_theorem1_detailed,
    corollary2_value,
    count_c_prime,
    predicted_family_tallies,
    theorem1_coefficient,
    threshold_d,
)
from gpdecomp.bounds import DEFAULT_PRECISION
from gpdecomp.constructions import ClassLayout, FamilyTally, theorem1_routes
from route_reference import per_profile_routes


def naive_partitions(total, max_part=None):
    """All partitions of ``total`` as non-increasing tuples (independent of
    the enumeration inside count_c_prime)."""
    if max_part is None:
        max_part = total
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in naive_partitions(total - first, first):
            out.append((first,) + rest)
    return out


def naive_c_prime(r, d):
    return sum(
        1
        for p in naive_partitions(r)
        if len(p) <= d - 1 and sum(1 for x in p if x % 2) == 1
    )


@lru_cache(maxsize=None)
def reference_partitions_at_most(n, k):
    """Partitions of n into at most k positive parts, by the recurrence
    p(n, k) = p(n, k-1) + p(n-k, k): fewer than k parts, or exactly k parts
    with one taken from each."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return reference_partitions_at_most(n, k - 1) + reference_partitions_at_most(n - k, k)


def reference_c_prime(r, d):
    """C' as a sum over the single odd part o: each o contributes the
    partitions of (r - o)/2 into at most d-2 parts, one bounded partition
    number per o, independent of count_c_prime's one table."""
    if d < 1:
        raise ValueError("need d >= 1")
    max_parts = d - 1
    if max_parts < 1:
        return 0
    total = 0
    for o in range(1, r + 1, 2):
        if (r - o) % 2 == 0:
            total += reference_partitions_at_most((r - o) // 2, max_parts - 1)
    return total


def table_c_prime(r, d):
    """C' as the sum of one table of partitions into at most d-2 parts,
    filled one part size at a time in O(r*d) additions: a third derivation,
    sharing neither the per-o sum nor count_c_prime's pentagonal
    recurrence."""
    half = (r - 1) // 2
    # table[j] = partitions of j into parts of size at most `part` so far,
    # which by conjugation is partitions of j into at most that many parts
    table = [1] + [0] * half
    for part in range(1, min(d - 2, half) + 1):
        for j in range(part, half + 1):
            table[j] += table[j - part]
    return sum(table)


def test_c_prime_examples():
    assert count_c_prime(5, 2) == 1
    assert count_c_prime(7, 3) == 4
    assert count_c_prime(3, 1) == 0
    assert count_c_prime(295, 147) == 312222444906


@pytest.mark.parametrize("d", range(1, 16))
def test_c_prime_agrees_with_naive_enumerator(d):
    r = 2 * d + 1
    assert count_c_prime(r, d) == naive_c_prime(r, d)


@pytest.mark.parametrize("d", range(-1, 71))
def test_c_prime_agrees_with_reference_sum(d):
    # Even r, r < 1 and d < 2 give 0 on both sides; d < 1 raises on both.
    for r in range(-3, 151):
        if d < 1:
            with pytest.raises(ValueError, match="^need d >= 1$"):
                reference_c_prime(r, d)
            with pytest.raises(ValueError, match="^need d >= 1$"):
                count_c_prime(r, d)
        else:
            assert count_c_prime(r, d) == reference_c_prime(r, d), (r, d)


def test_c_prime_agrees_with_reference_sum_at_r_2d_plus_1():
    for d in range(1, 201):
        assert count_c_prime(2 * d + 1, d) == reference_c_prime(2 * d + 1, d), d


def test_c_prime_agrees_with_the_table_at_r_2d_plus_1():
    for d in [*range(2, 201), *range(250, 1001, 50)]:
        assert count_c_prime(2 * d + 1, d) == table_c_prime(2 * d + 1, d), d


def test_coefficient_d2():
    rep = theorem1_coefficient(2, 10)
    assert rep.theorem1_coefficient == Fraction(44, 15)
    assert rep.c_prime == 1
    assert rep.epsilon_k == Fraction(1, 5)
    assert not rep.coefficient_below_one


def test_threshold():
    assert threshold_d() == 147
    assert base_coefficient(147) < 1
    assert 2 * threshold_d() + 1 == 295


def test_coefficient_at_least_one_below_the_threshold():
    # threshold_d decides in integers; the least d below 1 in exact
    # rationals is the same one.
    for d in range(1, 147):
        assert base_coefficient(d) >= 1, d


def test_coefficient_eventually_monotone_by_parity():
    # The coefficient is not monotone step by step: going from odd d to d+1
    # replaces d*q^m with q^(m+1) + (d+1)*q^m, a strict increase.  It does
    # decrease along each parity class, and stays below 1 from 147 onwards.
    for d in range(100, 199):
        assert base_coefficient(d + 2) < base_coefficient(d)
    for d in range(101, 103):
        assert base_coefficient(d + 1) > base_coefficient(d) or d % 2 == 0
    for d in range(147, 400):
        assert base_coefficient(d) < 1


def test_coefficient_exact_rational_path():
    # exact fractions all the way; spot-check a big exponent stays exact
    v = Fraction(14, 15) ** 400
    assert v.numerator == 14**400
    assert base_coefficient(5) == Fraction(14, 15) ** 2 + 5 * Fraction(14, 15) ** 2


def test_alon_lower_coefficient():
    assert alon_lower_coefficient(2) == 1
    assert alon_lower_coefficient(3) == 1
    assert alon_lower_coefficient(4) == Fraction(1, 3)
    assert alon_lower_coefficient(5) == Fraction(1, 3)


def corollary2_exact(r):
    """(r/2) * (14/15)**(r/4) as a Fraction, for r divisible by 4: the exact
    reference for the decimal ``corollary2_value``."""
    assert r % 4 == 0
    return Fraction(r, 2) * Fraction(14, 15) ** (r // 4)


def corollary2_below_one(r):
    """Exact test of (r/2)*(14/15)**(r/4) < 1, by fourth powers:
    r**4 * 14**r < 2**4 * 15**r.  It states the paper's Corollary 2 claim
    that the decay bound is below 1 from r = 295 on."""
    return r**4 * 14**r < 16 * 15**r


def corollary2_decreasing_at(r):
    """Exact test that the decay bound strictly decreases from r to r+1:
    ((r+1)/r)**4 * (14/15) < 1, that is 14*(r+1)**4 < 15*r**4."""
    return 14 * (r + 1) ** 4 < 15 * r**4


def test_corollary2_exact_multiples_of_four():
    assert corollary2_exact(4) == Fraction(28, 15)
    # Every r = 0 (mod 4) through the Corollary 2 threshold 295: the decimal
    # value agrees with the exact one to 35 significant digits.
    for r in range(4, 297, 4):
        exact = corollary2_exact(r)
        assert abs(Fraction(corollary2_value(r)) - exact) < exact / 10**35, r


def test_corollary2_at_295():
    assert corollary2_below_one(295)
    assert corollary2_value(295) < 1


def test_corollary2_decay():
    vals = [corollary2_value(r) for r in range(2, 200)]
    peak = vals.index(max(vals))
    for i in range(peak, len(vals) - 1):
        assert vals[i + 1] < vals[i]
    # exact rational decreasing test agrees with the decimal one
    for r in range(peak + 2, 200):
        assert corollary2_decreasing_at(r)


def test_corollary2_precision_is_stated():
    rep = theorem1_coefficient(3, 5)
    assert rep.precision_digits == DEFAULT_PRECISION == 40
    # 40 significant digits: 3.5 * (14/15)**1.75 = 3.0838...
    assert len(rep.corollary2_value.as_tuple().digits) == 40


@pytest.mark.parametrize(
    "n,k,d",
    [(2, 3, 2), (3, 3, 2), (4, 3, 2), (3, 2, 2), (4, 2, 2), (2, 4, 3), (3, 3, 3), (3, 4, 3)],
)
def test_predicted_matches_construction(n, k, d):
    r = 2 * d + 1
    if r > k * n:
        pytest.skip("r exceeds ground set")
    dec, tally = construct_theorem1_detailed(n, k, r)
    pred = predicted_family_tallies(n, k, d)
    assert pred["paired_two_classes"] == tally.paired_two_classes
    assert pred["two_plus_three"] == tally.two_plus_three
    assert pred["generic"] == tally.generic
    assert sum(pred.values()) == dec.piece_count


def test_predicted_worked_example():
    pred = predicted_family_tallies(3, 3, 2)
    assert pred == {"paired_two_classes": 12, "two_plus_three": 12, "generic": 3}
    assert sum(pred.values()) == 27


def route_census(routes):
    """How many routes have each family, pair count and single sizes."""
    return Counter((rt.family, len(rt.pairs), tuple(s for _, s in rt.singles)) for rt in routes)


def reference_family_tallies(census, n, block_count_fn=lambda m: (m - 1) ** 2):
    """The per-family tallies by walking the class-split construction's own
    routes, as counted by :func:`route_census`: block_count_fn(n) pieces per
    class pair times the baseline count C(n - ceil(s/2), floor(s/2)) per
    (class, size) factor, summed over the routes."""
    g = block_count_fn(n)
    tallies = asdict(FamilyTally())
    for (family, pairs, sizes), count in census.items():
        tallies[family] += count * g ** pairs * prod(comb(n - (s + 1) // 2, s // 2) for s in sizes)
    return tallies


BLOCK_COUNTS = (lambda m: (m - 1) ** 2, lambda m: (m - 1) ** 2 + 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_predicted_tallies_match_the_route_walk(n):
    # Every layout with k, d <= 8 for this n.  Its routes must be the ones
    # listed one profile at a time, and the route walk must give the closed
    # form's tallies with the trivial block count and one more, so that a
    # paired or a two-plus-three route counting its blocks wrongly shows.
    for k in range(1, 9):
        for d in range(1, 9):
            layout = ClassLayout(k=k, n=n)
            if 2 * d + 1 > k * n:
                with pytest.raises(ValueError, match="^r exceeds ground set size$"):
                    theorem1_routes(layout, 2 * d + 1)
                for count in BLOCK_COUNTS:
                    with pytest.raises(ValueError, match="^r exceeds ground set size$"):
                        predicted_family_tallies(n, k, d, count)
                continue
            routes = theorem1_routes(layout, 2 * d + 1)
            assert routes == per_profile_routes(layout, 2 * d + 1), (n, k, d)
            census = route_census(routes)
            for count in BLOCK_COUNTS:
                want = reference_family_tallies(census, n, count)
                assert predicted_family_tallies(n, k, d, count) == want, (n, k, d)


def test_predicted_tallies_refuse_what_the_construction_refuses():
    for d in (0, -1):
        with pytest.raises(ValueError, match="^need d >= 1$"):
            predicted_family_tallies(3, 3, d)
    for n, k in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="^need k >= 1 and n >= 1$"):
            predicted_family_tallies(n, k, 2)


def test_predicted_tallies_at_12_10_7():
    # r = 15 over 120 vertices: 1.31M routes, which theorem1_routes lists in
    # about 9 s and 400 MB on a 2-core host; walked, they give these same
    # three numbers.
    assert predicted_family_tallies(12, 10, 7) == {
        "paired_two_classes": 2_338_460_520,
        "two_plus_three": 14_881_112_400,
        "generic": 370_079_201_952,
    }


def test_predicted_tallies_at_the_papers_uniformity():
    # r = 295 over 300 classes of two, far beyond any route list.
    tallies = predicted_family_tallies(2, 300, 147)
    assert list(tallies) == ["paired_two_classes", "two_plus_three", "generic"]
    assert all(type(v) is int and v >= 0 for v in tallies.values()), tallies
