"""Exact minimum decomposition sizes on tiny instances.

Branch-and-bound exact cover: the universe is all r-subsets of 0..n-1 and
the candidates are all complete r-partite pieces.  A node is one candidate
tried on a disjoint cover (the root, the empty cover, is node 1), counted
where it is tried.  A node that is neither pruned nor a full cover branches
on the lexicographically smallest uncovered edge e and tries, in canonical
order, the disjoint candidates whose lowest edge is e.  That is the column
rule of exact-cover search (Knuth's Algorithm X): every edge below e is
covered, so a candidate covering e and a lower edge always overlaps the
cover.  A candidate's lowest edge is the set of its part minima, so the
list under e is generated from e alone, the first time the search branches
on e; an edge it never branches on costs nothing.  Results and node counts
are reproducible.  The root keeps one candidate per orbit of the symmetries
fixing edge 0 = {0..r-1}, and the prune rule compares integers only.

Stop rule: ``bounds.lower_bound(n, r)`` is a certified floor on the optimum.
When the baseline seed meets it, the seed is optimal and nothing is
searched; otherwise the search stops at the first incumbent update that
reaches it.  Only the incumbent update tests the floor, so no node pays
for it.  ``solve_exact`` alone decides the proof; ``_branch_and_bound``
returns its pieces, its node count and why it stopped, and with ``floor=0``
it is the plain search, the reference for node counts.
"""

from __future__ import annotations

import time
from bisect import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .bounds import _max_piece_edges, lower_bound
from .constructions import construct_baseline
from .core import Decomposition, GroundSet, RPartiteGraph, edge_masks, edge_of_mask, subset_masks

SOFT_CAP_N = 9
# The wall-clock deadline is read once every DEADLINE_TICK nodes, not at
# every node, so it is overshot by at most that many nodes and the
# candidate lists first built among them.  With Python 3.11 on one core of
# a 2-core Linux host, the f_3(8) search costs about 0.45 us of CPU per
# node, so 0.46 ms per tick; one list at n = 9 takes up to about 30 ms.
DEADLINE_TICK = 1024


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 50_000_000
    wall_clock_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        # Written as "not > 0" so that nan is refused too.
        if self.wall_clock_s is not None and not self.wall_clock_s > 0:
            raise ValueError("wall_clock_s must be positive")


@dataclass(frozen=True)
class ExactResult:
    optimal: bool
    value: int  # best piece count found (exact minimum when optimal)
    lower_bound: int
    witness: Decomposition
    nodes: int
    # What proved lower_bound: "bnb" (the search exhausted its tree) or a
    # certificate kind of bounds.lower_bound ("trivial", "inertia", "link").
    lower_kind: str


class CandidateCapError(ValueError):
    """n exceeds the soft enumeration cap and no override was given."""


def _check_size(n: int, r: int, allow_large: bool) -> None:
    """Refuse n above the soft cap unless allow_large, then r outside 1..n."""
    if n > SOFT_CAP_N and not allow_large:
        raise CandidateCapError(f"n={n} exceeds soft cap {SOFT_CAP_N}")
    GroundSet(n, r)  # raises unless 1 <= r <= n


def enumerate_candidate_pieces(n: int, r: int, allow_large: bool = False) -> List[RPartiteGraph]:
    """All canonical families of r disjoint nonempty subsets of 0..n-1.

    Generated by scanning vertices in order and assigning each to an existing
    part, a new part, or none; parts are opened in order of their minimum, so
    every unordered family appears exactly once, already canonical.
    """
    _check_size(n, r, allow_large)
    out: List[Tuple[Tuple[int, ...], ...]] = []

    def rec(v: int, parts: List[List[int]]) -> None:
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
    out.sort()
    return list(map(RPartiteGraph, out))


class _Stop(Exception):
    """Ends the search early; its one argument says why: "floor" or "budget"."""


def solve_exact(n: int, r: int, budget: SearchBudget = SearchBudget(),
                allow_large: bool = False) -> ExactResult:
    """Exact minimum number of complete r-partite pieces partitioning all
    r-subsets of 0..n-1, with a witness decomposition.

    The certified floor ``bounds.lower_bound(n, r)`` comes first: when the
    baseline construction already meets it, the baseline is returned as
    optimal with ``nodes == 0`` and no candidate is enumerated.  Otherwise
    branch-and-bound searches, seeded with the baseline, and stops as soon
    as its incumbent meets the floor.  ``lower_kind`` names what proved the
    lower end: ``bnb`` when the search exhausted its tree, else the floor's
    kind (``trivial``, ``inertia`` or ``link``).  On budget exhaustion the
    incumbent and the floor are reported instead of an optimum.
    """
    _check_size(n, r, allow_large)
    floor, kind = lower_bound(n, r)
    seed = construct_baseline(n, r)
    if seed.piece_count == floor:
        return ExactResult(optimal=True, value=floor, lower_bound=floor,
                           witness=seed, nodes=0, lower_kind=kind)
    pieces, nodes, stop = _branch_and_bound(seed, budget, floor)
    value = len(pieces)
    return ExactResult(optimal=stop != "budget", value=value,
                       lower_bound=floor if stop else value,
                       witness=Decomposition(seed.ground, pieces), nodes=nodes,
                       lower_kind=kind if stop else "bnb")


def _lowest_edge_parts(n: int, low: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], ...]]:
    """The canonical parts of every candidate on 0..n-1 whose lowest edge is
    ``low``, in canonical order.

    A candidate's lowest edge is the set of its part minima: an edge of the
    piece takes one vertex per part, each at least that part's minimum.  So
    part j starts as ``(low[j],)``, and each vertex outside ``low`` joins no
    part or a part whose minimum is below it: the product of those choices,
    expanded one vertex at a time.
    """
    families = [tuple((m,) for m in low)]
    for v in range(n):
        if v not in low:
            below = range(bisect(low, v))
            families += [f[:j] + (f[j] + (v,),) + f[j + 1:] for f in families for j in below]
    families.sort()
    return families


class _LowestEdgeLists(dict):
    """Edge index i -> the edge masks of the candidates of ``(n, r)`` whose
    lowest edge is edge i, in canonical order; a list is built the first
    time it is looked up.

    Edge i is the i-th r-subset in lexicographic order; a candidate's mask
    has bit i set when it covers edge i.  ``piece_of`` maps each mask built
    so far back to its piece.  The root's list, under edge 0, keeps one
    candidate per orbit.
    """

    def __init__(self, n: int, r: int) -> None:
        super().__init__()
        self.n = n
        self.edges = list(subset_masks(n, r))
        self.edge_bit = {m: 1 << i for i, m in enumerate(self.edges)}
        self.piece_of: Dict[int, RPartiteGraph] = {}

    def __missing__(self, i: int) -> List[int]:
        listed = _lowest_edge_parts(self.n, edge_of_mask(self.edges[i]))
        if i == 0:
            # Only the root branches on edge 0 = {0..r-1}; every later node
            # has it covered.  Sym(0..r-1) x Sym(r..n-1) fixes that edge and
            # maps candidates to candidates, and its orbits on the candidates
            # covering edge 0 are keyed by sorted part sizes.  An optimum's
            # piece covering edge 0 can be mapped onto the first member of
            # its orbit, so the root keeps only those.
            root: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
            for parts in listed:
                root.setdefault(tuple(sorted(map(len, parts))), parts)
            listed = list(root.values())
        pieces = list(map(RPartiteGraph, listed))
        bit = self.edge_bit.__getitem__
        masks = self[i] = [sum(map(bit, edge_masks(piece))) for piece in pieces]
        self.piece_of.update(zip(masks, pieces))
        return masks


def _branch_and_bound(seed: Decomposition, budget: SearchBudget,
                      floor: int) -> Tuple[Tuple[RPartiteGraph, ...], int, Optional[str]]:
    """The search behind ``solve_exact``: the pieces of the best
    decomposition of ``seed.ground`` it finds, its node count, and why it
    stopped: ``None`` when it exhausted the tree (the pieces are optimal),
    ``"floor"`` when its incumbent reached ``floor``, or ``"budget"``.
    With ``floor=0`` it is the plain search, kept as the reference for node
    counts and witnesses.

    The search starts from ``seed`` as its incumbent, then looks for
    anything strictly smaller.  A node with ``used`` pieces chosen and
    ``uncovered`` edges left is pruned when
    ``uncovered > (incumbent - used - 1) * max_cov``, where ``max_cov`` is the
    largest candidate edge count, ``bounds._max_piece_edges(n, r)``: then
    even ``max_cov`` edges per further piece cannot beat the incumbent.

    Each candidate is listed once, under its lowest edge (the column rule),
    which is the set of its part minima.  A node branching on edge e scans
    only the candidates listed under e, and that list is built the first
    time the search branches on e.  Listing every candidate under every edge
    it covers would add only candidates that also cover an edge below e, and
    those overlap the cover and are never taken.  So the same candidates are
    tried in the same order and the node counts, optima and witnesses are
    those of the full listing.

    A node is counted, budget-checked and prune-tested in its parent's
    loop, where it is tried; only a node that survives and is not a full
    cover costs a call, to branch.
    """
    n, r = seed.ground.n, seed.ground.r
    by_edge = _LowestEdgeLists(n, r)
    piece_of = by_edge.piece_of
    total = len(by_edge.edges)
    max_cov = _max_piece_edges(n, r)
    full_mask = (1 << total) - 1
    best_count = seed.piece_count
    best_pieces = seed.pieces
    max_nodes = budget.max_nodes
    deadline = (
        time.monotonic() + budget.wall_clock_s if budget.wall_clock_s else None
    )
    # The root is node 1, pruned like any other node.
    nodes = 1
    if total > (best_count - 1) * max_cov:
        return best_pieces, nodes, None
    chosen: List[int] = []

    def branch(covered: int, depth: int) -> None:
        # Tries each candidate under the smallest uncovered edge that is
        # disjoint from covered.  The child at depth + 1 survives the prune
        # when it covers at least need = total - (best_count - depth - 2) *
        # max_cov edges; a full cover survives only when it beats the
        # incumbent.  need follows best_count, so it is recomputed after
        # every incumbent update and every return.
        nonlocal nodes, best_count, best_pieces
        need = total - (best_count - depth - 2) * max_cov
        # The lowest clear bit of covered: the smallest uncovered edge.
        e = (~covered & (covered + 1)).bit_length() - 1
        for mask in by_edge[e]:
            if mask & covered:
                continue
            nodes += 1
            if nodes > max_nodes or (deadline is not None and not nodes % DEADLINE_TICK
                                     and time.monotonic() > deadline):
                raise _Stop("budget")
            child = covered | mask
            if child.bit_count() < need:
                continue
            if child == full_mask:
                best_count = depth + 1
                best_pieces = tuple(piece_of[m] for m in chosen + [mask])
                if best_count <= floor:
                    raise _Stop("floor")
            else:
                chosen.append(mask)
                branch(child, depth + 1)
                chosen.pop()
            need = total - (best_count - depth - 2) * max_cov

    try:
        branch(0, 0)
    except _Stop as stop:
        return best_pieces, nodes, stop.args[0]
    return best_pieces, nodes, None
