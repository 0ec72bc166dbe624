"""Differential tests of the exact solver against plain references.

The first reference is the branch-and-bound that root-orbit symmetry
breaking replaced: it branches on every candidate covering the smallest
uncovered edge, at the root too, and prunes with the same bound.  It builds
its own edge index from tuples, so it shares only the candidate list and
the baseline seed with the library.  The library's search, run without
the certified floor, must find the same optimum, with a valid witness, in
no more nodes; ``solve_exact``, floor included, must find the same optimum.

The second reference is the library's search written as one call per
node, on the library's own candidate index.  The library handles each
child inside its parent's loop instead; under every budget and floor the
two must return the same pieces, node count and stop reason.
"""

import functools
from itertools import combinations, product

import pytest

from gpdecomp import (
    Decomposition,
    GroundSet,
    SearchBudget,
    construct_baseline,
    enumerate_candidate_pieces,
    exact,
    lower_bound,
    solve_exact,
    verify_decomposition,
)
from gpdecomp.exact import _branch_and_bound


def reference_solve(n, r):
    """(optimum, node count, witness) by plain branch-and-bound."""
    candidates = enumerate_candidate_pieces(n, r)
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
    pieces, lib_nodes, stop = _branch_and_bound(seed, SearchBudget(), False, 0)
    assert stop is None  # the tree was exhausted, so the pieces are optimal
    lib_witness = Decomposition(seed.ground, pieces)
    assert lib_witness.piece_count == value
    assert verify_decomposition(lib_witness).valid
    assert lib_nodes <= nodes
    res = solve_exact(n, r)
    assert res.optimal
    assert res.value == res.lower_bound == value
    assert verify_decomposition(res.witness).valid


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
@pytest.mark.parametrize("n,r", [(6, 4), (9, 7), (7, 4), (8, 4)])
@pytest.mark.parametrize("certified", [False, True], ids=["floor0", "certified"])
def test_inline_children_match_one_call_per_node(monkeypatch, n, r, certified):
    # The index is built once and shared, so only the two searches differ.
    index_of = functools.lru_cache(maxsize=None)(exact._candidate_index)
    monkeypatch.setattr(exact, "_candidate_index", index_of)
    index = index_of(n, r, False)
    seed = construct_baseline(n, r)
    floor = lower_bound(n, r)[0] if certified else 0
    for max_nodes in BUDGETS:
        expected = one_call_per_node(seed, max_nodes, floor, index)
        got = _branch_and_bound(seed, SearchBudget(max_nodes=max_nodes), False, floor)
        assert got == expected, max_nodes
