"""Ground-set and piece representations shared by every other module.

Vertices are 0-based integers.  A piece (complete r-partite r-graph) is an
unordered family of r pairwise-disjoint nonempty vertex sets; its edge set is
all r-sets taking exactly one vertex per part.  Pieces are stored in a
canonical form so that equality and serialization are deterministic.
:func:`piece_problem` is the one piece rule; :class:`Decomposition` applies
it to every piece when built, so no later check repeats it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, ...]


class InvalidPieceError(ValueError):
    """Raised when a family of parts cannot form a valid piece."""


@dataclass(frozen=True)
class GroundSet:
    """Complete r-uniform hypergraph on vertices 0..n-1."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if not (1 <= self.r <= self.n):
            raise ValueError(f"need 1 <= r <= n, got n={self.n}, r={self.r}")

    @property
    def edge_count(self) -> int:
        return binomial(self.n, self.r)


@dataclass(frozen=True)
class RPartiteGraph:
    """Complete r-partite r-graph in canonical form.

    Build it with :func:`canonicalize`, or from parts already checked to be
    canonical: each part ascending, parts ordered by minimum element.
    """

    parts: Tuple[Tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def edge_count(self) -> int:
        return math.prod(len(p) for p in self.parts)


@dataclass(frozen=True)
class Decomposition:
    """A list of pieces over a common ground set.

    Carries the piece rule: every piece has ``ground.r`` parts passing
    :func:`piece_problem` over 0..n-1, or ValueError names the first piece
    that does not.  Carries no partition claim; run the verifier for one.
    """

    ground: GroundSet
    pieces: Tuple[RPartiteGraph, ...]

    def __post_init__(self) -> None:
        n, r = self.ground.n, self.ground.r
        for i, p in enumerate(self.pieces):
            if len(p.parts) != r:
                raise ValueError(f"piece {i} has {len(p.parts)} parts, expected {r}")
            problem = piece_problem(p.parts, n)
            if problem is not None:
                raise ValueError(f"piece {i} has {problem}")

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


def piece_problem(parts: Sequence[Sequence[int]], n: int | None = None) -> Optional[str]:
    """The one piece rule: why ``parts`` are not pairwise-disjoint nonempty
    subsets of 0..n-1 (nonnegative integers if ``n`` is None), or None.  A
    vertex repeated within a part counts as overlapping."""
    seen: set = set()
    for part in parts:
        if not part:
            return "an empty part"
        for v in part:
            if v < 0 or (n is not None and v >= n):
                return f"out-of-range vertex {v}"
            if v in seen:
                return f"overlapping parts at vertex {v}"
            seen.add(v)
    return None


def canonicalize(parts: Iterable[Iterable[int]], n: int | None = None) -> RPartiteGraph:
    """Canonical form of an unordered family of disjoint vertex sets.

    Idempotent and invariant under permutation of the input family.  Repeats
    within a part are merged; then empty families and every family failing
    :func:`piece_problem` are rejected.
    """
    norm = [tuple(sorted(set(p))) for p in parts]
    if not norm:
        raise InvalidPieceError("piece needs at least one part")
    problem = piece_problem(norm, n)
    if problem is not None:
        raise InvalidPieceError(problem)
    norm.sort(key=lambda p: p[0])
    return RPartiteGraph(tuple(norm))


def edge_masks(piece: RPartiteGraph) -> Iterator[int]:
    """All edges of a piece as vertex bitmasks, bit v set for vertex v.

    This is the one coverage kernel: the verifier, the histogram, the block
    checker and the exact solver all count edges through it.  Vertices must
    be nonnegative.  Masks come in ``itertools.product`` order over the parts;
    with r disjoint parts each mask has exactly r bits set.
    """
    # A one-vertex part skips the inner comprehension: before Python 3.12 a
    # comprehension is a function call, which outweighs the few edges of the
    # small pieces that exact search and its witnesses' mutants check.
    bits = [(1 << part[0],) if len(part) == 1 else [1 << v for v in part] for part in piece.parts]
    return map(sum, product(*bits))


def edge_of_mask(mask: int) -> Edge:
    """The vertices of a bitmask, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def subset_masks(n: int, r: int) -> Iterator[int]:
    """The one edge universe: the r-subsets of 0..n-1 as masks, in lexicographic order."""
    return map(sum, combinations([1 << v for v in range(n)], r))


def first_miscovered(masks: List[int], universe: Iterable[int],
                     total: int) -> Optional[Tuple[int, int]]:
    """The one coverage verdict: the first ``universe`` mask not counted
    exactly once in ``masks`` (all inside that universe of ``total`` masks),
    with its count, or None.  The census alone is never trusted."""
    if len(masks) == total and len(set(masks)) == total:
        return None
    counts = Counter(masks)
    return next(((m, counts[m]) for m in universe if counts[m] != 1), None)


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient; 0 when b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)
