"""Exact minimum decomposition sizes on tiny instances.

Branch-and-bound exact cover: the universe is all r-subsets of 0..n-1 and
the candidates are all complete r-partite pieces.  Branching always targets
the lexicographically smallest uncovered edge and tries its candidates in
canonical order, so results and node counts are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Tuple

from .constructions import construct_baseline
from .core import Decomposition, GroundSet, RPartiteGraph, edge_masks, subset_masks

SOFT_CAP_N = 9


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


class CandidateCapError(ValueError):
    """n exceeds the soft enumeration cap and no override was given."""


def enumerate_candidate_pieces(n: int, r: int, allow_large: bool = False) -> List[RPartiteGraph]:
    """All canonical families of r disjoint nonempty subsets of 0..n-1.

    Generated by scanning vertices in order and assigning each to an existing
    part, a new part, or none; parts are opened in order of their minimum, so
    every unordered family appears exactly once, already canonical.
    """
    if n > SOFT_CAP_N and not allow_large:
        raise CandidateCapError(f"n={n} exceeds soft cap {SOFT_CAP_N}")
    GroundSet(n, r)  # raises unless 1 <= r <= n
    out: List[RPartiteGraph] = []

    def rec(v: int, parts: List[List[int]]) -> None:
        if v == n:
            if len(parts) == r:
                out.append(RPartiteGraph(tuple(tuple(p) for p in parts)))
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
    out.sort(key=lambda p: p.parts)
    return out


class _BudgetExhausted(Exception):
    pass


def solve_exact(n: int, r: int, budget: SearchBudget = SearchBudget(),
                allow_large: bool = False) -> ExactResult:
    """Exact minimum number of complete r-partite pieces partitioning all
    r-subsets of 0..n-1, with a witness decomposition.

    The search is seeded with the baseline construction, then branch-and-bound
    looks for anything strictly smaller.  Prunes a node when
    used + ceil(uncovered / max-candidate-edge-count) is no better than the
    incumbent.  On budget exhaustion the incumbent and the trivial lower
    bound are reported instead of an optimum.
    """
    # The candidates come first: enumerating them enforces the soft cap
    # before the C(n, r) edge index is built.
    candidates = enumerate_candidate_pieces(n, r, allow_large=allow_large)
    # Edge i is the i-th r-subset in lexicographic order; a candidate's mask
    # has bit i set when it covers edge i.
    edge_index = {m: i for i, m in enumerate(subset_masks(n, r))}
    total = len(edge_index)
    full_mask = (1 << total) - 1
    covers = [[edge_index[m] for m in edge_masks(c)] for c in candidates]
    masks = [sum(1 << e for e in cover) for cover in covers]
    max_cov = max(c.edge_count for c in candidates)
    by_edge: List[List[int]] = [[] for _ in range(total)]
    for ci, cover in enumerate(covers):
        for e in cover:
            by_edge[e].append(ci)

    seed = construct_baseline(n, r)
    best_count = seed.piece_count
    best_pieces: Tuple[RPartiteGraph, ...] = seed.pieces
    nodes = 0
    deadline = (
        time.monotonic() + budget.wall_clock_s if budget.wall_clock_s else None
    )

    def dfs(covered: int, chosen: List[int]) -> None:
        nonlocal nodes, best_count, best_pieces
        nodes += 1
        if nodes > budget.max_nodes:
            raise _BudgetExhausted
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExhausted
        if covered == full_mask:
            if len(chosen) < best_count:
                best_count = len(chosen)
                best_pieces = tuple(candidates[i] for i in chosen)
            return
        uncovered = total - bin(covered).count("1")
        if len(chosen) + ceil(uncovered / max_cov) >= best_count:
            return
        free = ~covered & full_mask
        e = (free & -free).bit_length() - 1
        for ci in by_edge[e]:
            if masks[ci] & covered == 0:
                chosen.append(ci)
                dfs(covered | masks[ci], chosen)
                chosen.pop()

    exhausted = False
    try:
        dfs(0, [])
    except _BudgetExhausted:
        exhausted = True

    witness = Decomposition(GroundSet(n, r), best_pieces)
    lower = best_count if not exhausted else ceil(total / max_cov)
    return ExactResult(
        optimal=not exhausted,
        value=best_count,
        lower_bound=lower,
        witness=witness,
        nodes=nodes,
    )
