import hashlib
from math import comb

import pytest

from gpdecomp import (
    Decomposition,
    SearchBudget,
    construct_baseline,
    enumerate_candidate_pieces,
    exact,
    solve_exact,
    verify_decomposition,
)
from gpdecomp.bounds import _max_piece_edges
from gpdecomp.exact import DEADLINE_TICK, CandidateCapError, _branch_and_bound
from gpdecomp.fileio import serialize_decomposition


def ordered_family_count(n, r):
    """Ordered r-tuples of disjoint nonempty subsets of an n-set, by
    inclusion-exclusion; divide by r! for unordered families."""
    total = 0
    for j in range(r + 1):
        total += (-1) ** j * comb(r, j) * (r - j + 1) ** n
    return total


def factorial(r):
    out = 1
    for i in range(2, r + 1):
        out *= i
    return out


@pytest.mark.parametrize("n,r", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
def test_candidate_enumeration_matches_formula(n, r):
    cands = enumerate_candidate_pieces(n, r)
    assert len(cands) == ordered_family_count(n, r) // factorial(r)
    assert len(set(cands)) == len(cands)


def test_candidate_examples():
    assert len(enumerate_candidate_pieces(3, 2)) == 6
    only = enumerate_candidate_pieces(3, 3)
    assert len(only) == 1
    assert only[0].parts == ((0,), (1,), (2,))
    assert len(enumerate_candidate_pieces(4, 2)) == 25


def test_candidate_soft_cap():
    with pytest.raises(CandidateCapError):
        enumerate_candidate_pieces(10, 2)
    # refused before the C(40, 20)-edge index is built
    with pytest.raises(CandidateCapError):
        solve_exact(40, 20)
    # override allowed
    enumerate_candidate_pieces(10, 9, allow_large=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_graham_pollak_values(n):
    res = solve_exact(n, 2)
    assert res.optimal
    assert res.value == n - 1
    assert verify_decomposition(res.witness).valid
    assert res.witness.piece_count == res.value


@pytest.mark.parametrize("n", range(3, 7))
def test_triple_system_values(n):
    res = solve_exact(n, 3)
    assert res.optimal
    assert res.value == n - 2
    assert verify_decomposition(res.witness).valid


def reference_search(n, r, budget=SearchBudget()):
    """The plain search, without the certified floor, from the baseline
    seed: (witness, nodes, stop), where stop is None when the tree was
    exhausted and "budget" when the budget ran out."""
    seed = construct_baseline(n, r)
    pieces, nodes, stop = _branch_and_bound(seed, budget, 0)
    return Decomposition(seed.ground, pieces), nodes, stop


def test_f4_values_frozen():
    # no published claim for these; values fixed by full branch-and-bound,
    # and the trivial floor now closes both at the root
    for n, value in [(5, 3), (4, 1)]:
        res = solve_exact(n, 4)
        assert res.optimal and res.value == value
        assert verify_decomposition(res.witness).valid
        witness, _, stop = reference_search(n, 4)
        assert stop is None and witness.piece_count == value


@pytest.mark.parametrize(
    "n,r,nodes,value", [(6, 3, 98, 4), (6, 4, 5874, 6), (7, 3, 11708, 5), (9, 7, 133, 9)]
)
def test_pinned_node_counts(n, r, nodes, value):
    witness, res_nodes, stop = reference_search(n, r)
    # an exhausted tree: the witness is optimal, proved by the search
    assert stop is None
    assert res_nodes == nodes
    assert witness.piece_count == value
    assert verify_decomposition(witness).valid


@pytest.mark.parametrize(
    "n,r,nodes,value,kind",
    [
        # the baseline meets the floor: proved at the root
        (6, 3, 0, 4, "link"),
        (7, 3, 0, 5, "link"),
        (8, 3, 0, 6, "link"),
        (5, 2, 0, 4, "inertia"),
        # the search stops at its first 9-piece incumbent (133 nodes without)
        (9, 7, 51, 9, "trivial"),
        # the floor, 4, is below f_4(6): the search proves the optimum
        (6, 4, 5874, 6, "bnb"),
    ],
)
def test_solve_exact_stops_at_certified_floor(n, r, nodes, value, kind):
    res = solve_exact(n, r)
    assert res.optimal
    assert (res.nodes, res.value, res.lower_bound, res.lower_kind) == (nodes, value, value, kind)
    assert res.witness.piece_count == value
    assert verify_decomposition(res.witness).valid


@pytest.mark.parametrize(
    "n,r,lower,value,kind",
    [(7, 4, 5, 10, "trivial"), (8, 4, 7, 15, "inertia")],
)
def test_capped_solve_reports_certified_lower_end(n, r, lower, value, kind):
    res = solve_exact(n, r, SearchBudget(max_nodes=100_000))
    assert not res.optimal
    assert res.nodes == 100_001
    assert (res.lower_bound, res.value, res.lower_kind) == (lower, value, kind)
    assert verify_decomposition(res.witness).valid


def test_capped_solve_at_the_soft_cap():
    # (9,4), n at the soft cap: most of this search's time goes to building
    # the lists of its 126 edges, so it pins their cost along with the
    # interval.
    res = solve_exact(9, 4, SearchBudget(max_nodes=300_000))
    assert not res.optimal
    assert (res.nodes, res.value, res.lower_bound, res.lower_kind) == (300_001, 21, 10, "inertia")
    assert verify_decomposition(res.witness).valid


def test_solve_builds_baseline_and_floor_once(monkeypatch):
    # (6,4) is searched: the floor, 4, is below the baseline's 6.  The soft
    # cap is checked once, before anything else; the seed handed to the
    # search is the baseline solve_exact built for its root check; the floor
    # is computed once; and the search's C(n, r) edge map comes last.
    calls = []

    def logged(name):
        wrapped = getattr(exact, name)

        def wrapper(*args):
            calls.append(name)
            return wrapped(*args)
        return wrapper

    for name in ["_check_size", "construct_baseline", "lower_bound", "_LowestEdgeLists"]:
        monkeypatch.setattr(exact, name, logged(name))
    res = solve_exact(6, 4)
    assert (res.optimal, res.value, res.nodes, res.lower_kind) == (True, 6, 5874, "bnb")
    assert calls == ["_check_size", "lower_bound", "construct_baseline", "_LowestEdgeLists"]


def test_floor_met_by_baseline_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("candidates enumerated")

    monkeypatch.setattr("gpdecomp.exact.enumerate_candidate_pieces", refuse)
    monkeypatch.setattr("gpdecomp.exact._lowest_edge_parts", refuse)
    monkeypatch.setattr("gpdecomp.exact._LowestEdgeLists", refuse)
    res = solve_exact(8, 3)
    assert (res.optimal, res.value, res.nodes) == (True, 6, 0)
    assert res.witness == construct_baseline(8, 3)


def test_lists_built_only_where_the_search_branches(monkeypatch):
    # (9,7) stops at its floor after 51 nodes that branch on 9 of its 36
    # edges; a list is built once, the first time its edge is branched on.
    built = []
    missing = exact._LowestEdgeLists.__missing__

    def logged(lists, i):
        built.append(i)
        return missing(lists, i)

    monkeypatch.setattr(exact._LowestEdgeLists, "__missing__", logged)
    res = solve_exact(9, 7)
    assert (res.optimal, res.value, res.nodes, res.lower_kind) == (True, 9, 51, "trivial")
    assert len(built) == len(set(built)) <= 9
    assert built[0] == 0


def test_capped_interval_contains_known_value():
    # f_4(7) = 9 is known from a MILP proof; this budget stops well short.
    res = solve_exact(7, 4, SearchBudget(max_nodes=2000))
    assert not res.optimal
    assert res.nodes == 2001
    assert res.lower_bound <= 9 <= res.value
    assert res.witness.piece_count == res.value
    assert verify_decomposition(res.witness).valid


@pytest.mark.parametrize(
    "n,r,lower,value,sha256",
    [
        (7, 4, 5, 10, "f8e7db658e698badcaee908fb6ec36eeee1d3a9f80c6cf045ec54efc47533a5b"),
        (8, 3, 4, 6, "a70196c6f1746634313aaa2b80c687f91a505baa77d8f4fde364ccb90d08d448"),
        (8, 4, 5, 15, "ad503b66d999532a1f1632b10c5a18f920234910b403e2e46cc6dadadb08722d"),
    ],
)
def test_pinned_capped_search_order(n, r, lower, value, sha256):
    # The benchmark's capped solves, pinned by nodes, interval and serialized
    # witness, through the plain search.  At this budget the (7,4) and (8,4)
    # witnesses are still the baseline seed; the (8,3) one is found by the
    # search.  The plain search's lower end is the trivial bound.
    witness, nodes, stop = reference_search(n, r, SearchBudget(max_nodes=100_000))
    assert stop == "budget"
    assert nodes == 100_001
    assert (-(-comb(n, r) // _max_piece_edges(n, r)), witness.piece_count) == (lower, value)
    text = serialize_decomposition(witness)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    assert verify_decomposition(witness).valid


def test_wall_clock_deadline_stops_search():
    # f_4(8) is far out of reach, so only the deadline or the node cap can
    # end this search, and the deadline is read on tick boundaries only.
    budget = SearchBudget(wall_clock_s=0.05)
    res = solve_exact(8, 4, budget)
    assert not res.optimal
    assert res.nodes < budget.max_nodes
    assert res.nodes % DEADLINE_TICK == 0
    assert res.lower_bound <= 14
    assert res.lower_bound <= res.value == res.witness.piece_count
    assert verify_decomposition(res.witness).valid


def test_solver_never_beats_valid_constructions():
    for n in range(2, 7):
        for r in (2, 3):
            if r > n:
                continue
            res = solve_exact(n, r)
            assert res.value <= construct_baseline(n, r).piece_count


def test_determinism():
    a = solve_exact(5, 2)
    b = solve_exact(5, 2)
    assert a.value == b.value
    assert a.nodes == b.nodes
    assert a.witness == b.witness


def test_budget_exhaustion():
    # (6,4): the certified floor, 4, is below the baseline's 6, so the
    # search runs and meets the budget.
    res = solve_exact(6, 4, SearchBudget(max_nodes=10))
    assert not res.optimal
    assert res.nodes == 11
    assert res.lower_bound <= res.value
    # incumbent is still a valid decomposition (the baseline seed or better)
    assert verify_decomposition(res.witness).valid


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=10, wall_clock_s=-1)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=10, wall_clock_s=float("nan"))
