import math
import tracemalloc
from math import comb

import pytest

from gpdecomp import (
    Decomposition,
    GroundSet,
    RPartiteGraph,
    construct_baseline,
    coverage_histogram,
    verify_decomposition,
)


def test_valid_stars():
    report = verify_decomposition(construct_baseline(6, 2))
    assert report.valid
    assert report.piece_count == 5
    assert report.edge_count == 15


def test_valid_baseline_7_5():
    report = verify_decomposition(construct_baseline(7, 5))
    assert report.valid
    assert report.piece_count == 6
    assert report.edge_count == 21


def test_deleted_piece_reports_uncovered_witness():
    dec = construct_baseline(6, 4)
    broken = Decomposition(dec.ground, dec.pieces[1:])
    report = verify_decomposition(broken)
    assert not report.valid
    assert report.witness is not None
    assert report.witness_multiplicity == 0


def test_duplicated_piece_reports_double_cover():
    dec = construct_baseline(6, 4)
    broken = Decomposition(dec.ground, dec.pieces + (dec.pieces[0],))
    report = verify_decomposition(broken)
    assert not report.valid
    assert report.witness_multiplicity == 2
    assert len(report.witness_pieces) == 2


def test_structural_failures():
    # Decomposition carries the piece rule: the verifier never sees these.
    g = GroundSet(4, 2)
    with pytest.raises(ValueError, match=r"^piece 0 has 3 parts, expected 2$"):
        Decomposition(g, (RPartiteGraph(((0,), (1,), (2,))),))
    with pytest.raises(ValueError, match=r"^piece 0 has out-of-range vertex 5$"):
        Decomposition(g, (RPartiteGraph(((0,), (5,))),))


def test_report_carries_census():
    dec = construct_baseline(7, 4)
    assert verify_decomposition(dec).census == comb(7, 4)
    dropped = math.prod(map(len, dec.pieces[0].parts))
    broken = Decomposition(dec.ground, dec.pieces[1:])
    assert verify_decomposition(broken).census == comb(7, 4) - dropped


def test_census_alone_is_not_trusted():
    # 3 + 2 + 1 = 6 edges claimed on K_4, but (1,2) is covered twice and
    # (2,3) never: the census passes while coverage fails.
    g = GroundSet(4, 2)
    pieces = (
        RPartiteGraph(((0,), (1, 2, 3))),
        RPartiteGraph(((1,), (2, 3))),
        RPartiteGraph(((1,), (2,))),
    )
    dec = Decomposition(g, pieces)
    report = verify_decomposition(dec)
    assert not report.valid
    assert report.census == report.edge_count == 6
    hist = coverage_histogram(dec)
    assert hist == {0: 1, 1: 4, 2: 1}


def test_histogram_valid_case():
    from gpdecomp import construct_theorem1

    dec = construct_theorem1(3, 3, 5)
    assert coverage_histogram(dec) == {1: 126}


def test_histogram_empty_and_doubled():
    g = GroundSet(4, 2)
    assert coverage_histogram(Decomposition(g, ())) == {0: 6}
    dec = construct_baseline(4, 2)
    doubled = Decomposition(dec.ground, dec.pieces + dec.pieces)
    assert coverage_histogram(doubled) == {2: 6}


def test_decomposition_rejects_stray_pieces():
    # No edge outside the r-subsets of 0..n-1 ever reaches the histogram.
    g = GroundSet(4, 2)
    strays = [
        (RPartiteGraph(((0,), (5,))), "out-of-range vertex 5"),
        (RPartiteGraph(((0,), (1,), (2,))), "3 parts, expected 2"),
        (RPartiteGraph(((-1, 0), (1,))), "out-of-range vertex -1"),
        (RPartiteGraph(((0,), (0, 2))), "overlapping parts at vertex 0"),
    ]
    for stray, reason in strays:
        with pytest.raises(ValueError, match=f"^piece 3 has {reason}$"):
            Decomposition(g, construct_baseline(4, 2).pieces + (stray,))


def test_report_agrees_with_histogram():
    cases = [
        construct_baseline(5, 2),
        construct_baseline(6, 3),
        Decomposition(GroundSet(4, 2), construct_baseline(4, 2).pieces[1:]),
    ]
    for dec in cases:
        report = verify_decomposition(dec)
        hist = coverage_histogram(dec)
        assert report.valid == (hist == {1: comb(dec.ground.n, dec.ground.r)})


def _no_kernel(*args):
    raise AssertionError("edges counted again")


def test_a_reject_and_the_histogram_count_the_edges_once(monkeypatch):
    dec = construct_baseline(7, 4)
    e = math.prod(map(len, dec.pieces[0].parts))
    doubled = Decomposition(dec.ground, dec.pieces[:1] + dec.pieces)
    dropped = Decomposition(dec.ground, dec.pieces[1:])
    report = verify_decomposition(doubled)
    assert not report.valid
    dropped_hist = coverage_histogram(dropped)
    expected = verify_decomposition(Decomposition(dec.ground, dropped.pieces))
    monkeypatch.setattr("gpdecomp.verifier.first_miscovered", _no_kernel)
    # Each reads the report and histogram the other kept; a repeat call
    # does too.
    assert coverage_histogram(doubled) == {1: 35 - e, 2: e}
    assert verify_decomposition(doubled) == report
    assert verify_decomposition(dropped) == expected
    assert coverage_histogram(dropped) == dropped_hist == {0: e, 1: 35 - e}


def test_an_accept_keeps_nothing():
    d = construct_baseline(7, 4)
    before = dict(vars(d))
    assert verify_decomposition(d).valid
    assert vars(d) == before


def test_a_reject_keeps_only_its_report_and_histogram():
    d = construct_baseline(20, 8)
    doubled = Decomposition(d.ground, d.pieces[:1] + d.pieces)
    before = dict(vars(doubled))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        report = verify_decomposition(doubled)
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert not report.valid and report.witness_multiplicity == 2
    added = [v for k, v in vars(doubled).items() if k not in before]
    assert len(added) == 1
    kept_report, kept_hist = added[0]
    assert kept_report is report and kept_hist == coverage_histogram(doubled)
    assert len(kept_hist) <= 3
    # A Counter of the 125,971 masks would hold some 10 MiB.
    assert held < 64 * 1024, held
