"""Differential tests of the exact solver against plain references.

The first reference is the branch-and-bound that root-orbit symmetry
breaking replaced: it branches on every candidate covering the smallest
uncovered edge, at the root too, and prunes with the same bound.  It builds
its own edge index from tuples, so it shares only the baseline seed with
the library.  The library's search, run without the certified floor, must
find the same optimum, with a valid witness, in no more nodes;
``solve_exact``, floor included, must find the same optimum.

The second reference is ``reference_candidates``, the recursive generator
the library used to enumerate candidates, and the eager candidate index
built from it: every candidate, its mask through ``edge_masks``, listed
under its lowest edge.  The library builds each lowest-edge list from the
edge itself, the first time the search branches there, with each mask an
intersection of part unions; those lists, and the lists of every r-subset
merged and sorted, must equal the reference's, in the same order.

The third reference is the library's search written as one call per node,
over the reference index.  The library handles each child inside its
parent's loop instead; under every budget and floor the two must return the
same pieces, node count and stop reason.
"""

from itertools import chain, combinations, product
from math import comb

import pytest

from gpdecomp import (
    Decomposition,
    GroundSet,
    RPartiteGraph,
    SearchBudget,
    construct_baseline,
    lower_bound,
    solve_exact,
    verify_decomposition,
)
from gpdecomp import exact
from gpdecomp.core import edge_masks, subset_masks
from gpdecomp.exact import _branch_and_bound, _lowest_edge_parts, _LowestEdgeLists


def reference_candidates(n, r):
    """The canonical parts of every candidate of (n, r), sorted.

    Scans the vertices in order and assigns each to an existing part, a new
    part, or none; parts are opened in order of their minimum, so every
    unordered family appears exactly once, already canonical.
    """
    out = []

    def rec(v, parts):
        if v == n:
            if len(parts) == r:
                out.append(tuple(map(tuple, parts)))
            return
        if len(parts) + (n - v) < r:
            return  # not enough vertices left to open the remaining parts
        rec(v + 1, parts)  # skip vertex v
        for p in parts:
            p.append(v)
            rec(v + 1, parts)
            p.pop()
        if len(parts) < r:
            parts.append([v])
            rec(v + 1, parts)
            parts.pop()

    rec(0, [])
    return sorted(out)


def lowest_edge_candidates(n, r):
    """The canonical parts of every candidate of (n, r), sorted: the
    library's lowest-edge lists of every r-subset, merged.  Each candidate
    has one lowest edge, the set of its part minima, so each appears once."""
    lists = (_lowest_edge_parts(n, low) for low in combinations(range(n), r))
    return sorted(chain.from_iterable(lists))


@pytest.mark.parametrize("n", range(1, 10))
def test_candidates_match_reference_generator(n):
    for r in range(1, n + 1):
        assert lowest_edge_candidates(n, r) == reference_candidates(n, r)


def reference_solve(n, r):
    """(optimum, node count, witness) by plain branch-and-bound."""
    candidates = list(map(RPartiteGraph, reference_candidates(n, r)))
    index = {e: i for i, e in enumerate(combinations(range(n), r))}
    total = len(index)
    covers = [[index[tuple(sorted(e))] for e in product(*c.parts)] for c in candidates]
    masks = [sum(1 << e for e in cover) for cover in covers]
    max_cov = max(len(cover) for cover in covers)
    by_edge = [[] for _ in range(total)]
    for ci, cover in enumerate(covers):
        for e in cover:
            by_edge[e].append(ci)

    seed = construct_baseline(n, r)
    best = [seed.piece_count, seed.pieces]
    nodes = 0

    def dfs(covered, chosen):
        nonlocal nodes
        nodes += 1
        if covered == (1 << total) - 1:
            if len(chosen) < best[0]:
                best[:] = [len(chosen), tuple(candidates[i] for i in chosen)]
            return
        uncovered = total - bin(covered).count("1")
        if len(chosen) + -(-uncovered // max_cov) >= best[0]:
            return
        e = next(i for i in range(total) if not covered >> i & 1)
        for ci in by_edge[e]:
            if masks[ci] & covered == 0:
                chosen.append(ci)
                dfs(covered | masks[ci], chosen)
                chosen.pop()

    dfs(0, [])
    return best[0], nodes, Decomposition(GroundSet(n, r), best[1])


# Node counts of the plain search, as the library reported them before root
# orbits; they pin the reference to the search it stands for.
REFERENCE_NODES = {(6, 3): 1219, (6, 4): 32616, (7, 3): 353945, (9, 7): 193}

# (9, 7) is the small instance where a root that keeps too few candidates
# loses the optimum: the first root candidate alone, or one per largest
# part size, gives 10 pieces instead of 9.
INSTANCES = [(n, r) for n in range(1, 7) for r in range(1, n + 1)] + [(7, 3), (9, 7)]


@pytest.mark.parametrize("n,r", INSTANCES)
def test_root_orbits_match_plain_search(n, r):
    value, nodes, witness = reference_solve(n, r)
    assert verify_decomposition(witness).valid
    if (n, r) in REFERENCE_NODES:
        assert nodes == REFERENCE_NODES[(n, r)]
    seed = construct_baseline(n, r)
    pieces, lib_nodes, stop = _branch_and_bound(seed, SearchBudget(), 0)
    assert stop is None  # the tree was exhausted, so the pieces are optimal
    lib_witness = Decomposition(seed.ground, pieces)
    assert lib_witness.piece_count == value
    assert verify_decomposition(lib_witness).valid
    assert lib_nodes <= nodes
    res = solve_exact(n, r)
    assert res.optimal
    assert res.value == res.lower_bound == value
    assert verify_decomposition(res.witness).valid


def reference_index(n, r):
    """(candidates, masks, by_edge, max_cov): every candidate of (n, r), its
    edge mask (bit i for the i-th r-subset in lexicographic order), the
    masks listed in canonical order under each candidate's lowest edge, the
    root's list keeping the first candidate of each sorted part-size tuple,
    and the largest candidate edge count."""
    candidates = list(map(RPartiteGraph, reference_candidates(n, r)))
    edge_bit = {m: 1 << i for i, m in enumerate(subset_masks(n, r))}
    masks = [sum(map(edge_bit.__getitem__, edge_masks(c))) for c in candidates]
    by_edge = [[] for _ in range(len(edge_bit))]
    for mask in masks:
        by_edge[(mask & -mask).bit_length() - 1].append(mask)
    root = {}
    for c, mask in zip(candidates, masks):
        if mask & 1:
            root.setdefault(tuple(sorted(map(len, c.parts))), mask)
    by_edge[0] = list(root.values())
    return candidates, masks, by_edge, max(mask.bit_count() for mask in masks)


# The library intersects part unions; the reference lists each candidate's
# edges through edge_masks.  Every list of every (n, r) up to the soft cap.
@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 10) for r in range(1, n + 1)])
def test_lowest_edge_lists_match_reference_index(n, r):
    candidates, masks, by_edge, _ = reference_index(n, r)
    parts_of = {mask: c.parts for mask, c in zip(masks, candidates)}
    lists = _LowestEdgeLists(n, r)
    assert len(lists.edges) == len(by_edge) == comb(n, r)
    for i, expected in enumerate(by_edge):
        assert lists[i] == expected, i
        assert [lists.piece_of[m] for m in lists[i]] == [parts_of[m] for m in expected], i
    assert len(lists.piece_of) == sum(map(len, by_edge))


class _Stop(Exception):
    pass


def one_call_per_node(seed, max_nodes, floor, index):
    """(pieces, nodes, stop) of the search with one recursive call per node."""
    candidates, masks, by_edge, max_cov = index
    total = len(by_edge)
    full_mask = (1 << total) - 1
    best = [seed.piece_count, seed.pieces]
    nodes = 0

    def dfs(covered, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _Stop("budget")
        if covered == full_mask:
            if len(chosen) < best[0]:
                best[:] = [len(chosen), tuple(candidates[masks.index(m)] for m in chosen)]
                if best[0] <= floor:
                    raise _Stop("floor")
            return
        if total - covered.bit_count() > (best[0] - len(chosen) - 1) * max_cov:
            return
        e = (~covered & (covered + 1)).bit_length() - 1
        for mask in by_edge[e]:
            if mask & covered == 0:
                chosen.append(mask)
                dfs(covered | mask, chosen)
                chosen.pop()

    try:
        dfs(0, [])
    except _Stop as stop:
        return best[1], nodes, stop.args[0]
    return best[1], nodes, None


BUDGETS = list(range(1, 301)) + [1_000, 5_000, 100_000]


# (6,4) and (9,7) exhaust their trees (5,874 and 133 nodes) and (9,7) also
# stops at its floor (51 nodes); (7,4) and (8,4) run out of every budget.
# Every budget's search reads one set of lists, built in full up front: a
# list depends on its edge alone, so sharing them changes no result, and
# the lists are not rebuilt for each of the budgets.
@pytest.mark.parametrize("n,r", [(6, 4), (9, 7), (7, 4), (8, 4)])
@pytest.mark.parametrize("certified", [False, True], ids=["floor0", "certified"])
def test_inline_children_match_one_call_per_node(n, r, certified, monkeypatch):
    index = reference_index(n, r)
    lists = _LowestEdgeLists(n, r)
    assert [lists[i] for i in range(len(lists.edges))] == index[2]
    monkeypatch.setattr(exact, "_LowestEdgeLists", lambda *args: lists)
    seed = construct_baseline(n, r)
    floor = lower_bound(n, r)[0] if certified else 0
    for max_nodes in BUDGETS:
        expected = one_call_per_node(seed, max_nodes, floor, index)
        got = _branch_and_bound(seed, SearchBudget(max_nodes=max_nodes), floor)
        assert got == expected, max_nodes


def one_piece_per_edge(n, r):
    """The largest decomposition of (n, r): one single-edge piece per r-subset."""
    edges = combinations(range(n), r)
    return Decomposition(GroundSet(n, r), tuple(RPartiteGraph(tuple((v,) for v in e)) for e in edges))


# The lists hold canonical parts, and a piece is made of them only for the
# incumbent.  Every search here replaces its seed, so a parts tuple leaking
# into a witness would show: (9,7) from the baseline (10 pieces; it reaches
# the floor, 9, or exhausts its tree), the others from one piece per edge,
# exhausted or capped.
@pytest.mark.parametrize(
    "n,r,seed_kind,max_nodes",
    [(9, 7, "baseline", 10**6), (5, 2, "per-edge", 10**6), (6, 3, "per-edge", 20_000),
     (6, 4, "per-edge", 20_000), (8, 4, "per-edge", 5_000)],
)
def test_witness_pieces_are_pieces(n, r, seed_kind, max_nodes):
    index = reference_index(n, r)
    seed = construct_baseline(n, r) if seed_kind == "baseline" else one_piece_per_edge(n, r)
    budget = SearchBudget(max_nodes=max_nodes)
    for floor in (0, lower_bound(n, r)[0]):
        expected = one_call_per_node(seed, max_nodes, floor, index)
        pieces, nodes, stop = _branch_and_bound(seed, budget, floor)
        assert (pieces, nodes, stop) == expected
        assert pieces != seed.pieces
        assert all(type(p) is RPartiteGraph for p in pieces)
        assert verify_decomposition(Decomposition(seed.ground, pieces)).valid
    if seed_kind == "baseline":
        # solve_exact searches with the certified floor, the last one above.
        res = solve_exact(n, r, budget)
        assert res.witness.pieces == expected[0]
        assert all(type(p) is RPartiteGraph for p in res.witness.pieces)
