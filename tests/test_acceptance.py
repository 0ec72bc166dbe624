"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

from fractions import Fraction
from math import comb

import pytest

from gpdecomp import (
    Decomposition,
    RPartiteGraph,
    base_coefficient,
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1_detailed,
    construct_trivial_blocks,
    coverage_histogram,
    parse_decomposition,
    predicted_family_tallies,
    serialize_decomposition,
    solve_exact,
    threshold_d,
    verify_blocks,
    verify_decomposition,
)
from gpdecomp.bounds import corollary2_value
from test_bounds import corollary2_below_one, corollary2_decreasing_at


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_exact_small_values():
    for n in range(2, 7):
        res = solve_exact(n, 2)
        assert res.optimal and res.value == n - 1
        assert verify_decomposition(res.witness).valid
    for n in range(3, 7):
        res = solve_exact(n, 3)
        assert res.optimal and res.value == n - 2
        assert verify_decomposition(res.witness).valid
    report(1, "f_2(n)=n-1 for n=2..6 and f_3(n)=n-2 for n=3..6, witnesses verified")


def test_criterion_2_baseline_counts():
    pairs = 0
    for n in range(1, 13):
        for r in range(1, n + 1):
            dec = construct_baseline(n, r)
            assert dec.piece_count == comb(n - (r + 1) // 2, r // 2)
            assert verify_decomposition(dec).valid
            pairs += 1
    assert pairs == 78
    report(2, "baseline valid with exact piece count on all 78 (n, r) pairs, n <= 12")


# (n=2, k=2, r=5) and (n=2, k=3, r=7) are excluded: r > k*n violates the
# construction's precondition (no ground set of that uniformity exists).
GRID = [
    (n, k, 5) for k in (2, 3, 4) for n in (2, 3, 4) if 5 <= k * n
] + [
    (n, k, 7) for k in (3, 4) for n in (2, 3) if 7 <= k * n
]


def test_criterion_3_theorem1_grid():
    for n, k, r in GRID:
        d = (r - 1) // 2
        dec, tally = construct_theorem1_detailed(n, k, r)
        rep = verify_decomposition(dec)
        assert rep.valid, (n, k, r)
        pred = predicted_family_tallies(n, k, d)
        assert tally.paired_two_classes == pred["paired_two_classes"], (n, k, r)
        assert tally.two_plus_three == pred["two_plus_three"], (n, k, r)
        assert tally.generic == pred["generic"], (n, k, r)
        assert sum(pred.values()) == dec.piece_count, (n, k, r)
        if (n, k, r) == (3, 3, 5):
            assert dec.piece_count == 27
            assert rep.edge_count == 126
    report(3, f"class-split construction valid with exact predicted tallies on "
              f"{len(GRID)} grid points (r=5 and r=7)")


def test_criterion_4_block_layer():
    for n in range(2, 13):
        bd = construct_trivial_blocks(n)
        assert len(bd.blocks) == (n - 1) ** 2
        assert verify_blocks(bd).valid
    report(4, "trivial block decomposition has (n-1)^2 blocks and verifies, n=2..12")


def test_criterion_5_even_from_odd():
    for r in (2, 4):
        for n in range(r, 11):
            dec = construct_even_from_odd(n, r)
            assert verify_decomposition(dec).valid, (n, r)
            assert dec.piece_count <= construct_baseline(n + 1, r + 1).piece_count
    report(5, "even-from-odd reduction valid with piece count <= source, r in {2,4}, n <= 10")


def test_criterion_6_threshold():
    assert threshold_d() == 147
    assert base_coefficient(147) < 1
    assert base_coefficient(146) >= 1
    assert 2 * threshold_d() + 1 == 295
    assert isinstance(base_coefficient(147), Fraction)
    report(6, "threshold d=147 (r=295) by exact rational comparison")


def test_criterion_7_decay():
    for r in range(295, 2001):
        assert corollary2_below_one(r), r
    vals = [corollary2_value(r) for r in range(2, 120)]
    peak_r = 2 + vals.index(max(vals))
    for r in range(peak_r, 2001):
        assert corollary2_decreasing_at(r), r
    report(7, f"decay bound < 1 for r=295..2000 and strictly decreasing beyond "
              f"its maximum at r={peak_r} (formula-level evidence only)")


def _mutants(dec):
    pieces = dec.pieces
    yield Decomposition(dec.ground, pieces[1:])  # delete
    yield Decomposition(dec.ground, pieces + (pieces[0],))  # duplicate
    # perturb: drop the largest vertex of one part of one piece (structurally
    # valid and still canonical, coverage broken)
    target = next(p for p in pieces if any(len(part) > 1 for part in p.parts))
    parts = [list(part) for part in target.parts]
    big = next(p for p in parts if len(p) > 1)
    big.pop()
    perturbed = RPartiteGraph(tuple(map(tuple, parts)))
    yield Decomposition(dec.ground, tuple(p for p in pieces if p != target) + (perturbed,))


def test_criterion_8_oracle_consistency():
    cases = [
        construct_baseline(6, 2),
        construct_baseline(7, 5),
        construct_baseline(8, 4),
        construct_theorem1_detailed(3, 3, 5)[0],
        construct_even_from_odd(6, 4),
    ]
    for dec in cases:
        total = comb(dec.ground.n, dec.ground.r)
        assert coverage_histogram(dec) == {1: total}
        for mutant in _mutants(dec):
            rep = verify_decomposition(mutant)
            assert not rep.valid
            assert rep.witness is not None
            assert rep.witness_multiplicity != 1
            hist = coverage_histogram(mutant)
            assert hist.get(rep.witness_multiplicity, 0) >= 1
    report(8, "histogram {1: C(n,r)} on every construction; delete/duplicate/perturb "
              "mutants all rejected with witnesses")


def test_criterion_9_file_round_trip():
    generated = [
        construct_baseline(6, 2),
        construct_baseline(7, 5),
        construct_baseline(12, 6),
        construct_theorem1_detailed(3, 3, 5)[0],
        construct_even_from_odd(8, 4),
        solve_exact(5, 3).witness,
    ]
    for dec in generated:
        text = serialize_decomposition(dec)
        back = parse_decomposition(text)
        assert back == dec
        assert serialize_decomposition(back) == text
    report(9, f"{len(generated)} generated files re-parse identically and "
              f"re-serialize byte-for-byte")
