"""Ground-set and piece representations shared by every other module.

Vertices are 0-based integers.  A piece (complete r-partite r-graph) is an
unordered family of r pairwise-disjoint nonempty vertex sets; its edge set is
all r-sets taking exactly one vertex per part.  Pieces are stored in a
canonical form so that equality and serialization are deterministic.
:func:`piece_problem` is the one piece rule, checked once, where the data
enters: the public :class:`Decomposition` constructor applies it to every
piece, and ``parse_decomposition`` checks each line in its own pass.  Pieces
derived from checked ones (the class-split and even-from-odd constructions)
and parsed ones enter through one private constructor,
``Decomposition._from_checked``, which names its callers; no later check
repeats the rule.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, ...]


@dataclass(frozen=True)
class GroundSet:
    """Complete r-uniform hypergraph on vertices 0..n-1."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if not (1 <= self.r <= self.n):
            raise ValueError(f"need 1 <= r <= n, got n={self.n}, r={self.r}")


@dataclass(frozen=True)
class RPartiteGraph:
    """Complete r-partite r-graph in canonical form: each part ascending,
    parts ordered by minimum element.

    Holds no check of its own.  The piece rule comes with the
    :class:`Decomposition` it is put in; the constructions and the parser
    build the canonical parts directly.
    """

    parts: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Decomposition:
    """A list of pieces over a common ground set.

    Carries the piece rule: every piece has ``ground.r`` parts passing
    :func:`piece_problem` over 0..n-1, or ValueError names the first piece
    that does not (:func:`piece_fault`).  The constructor checks it; only
    :meth:`_from_checked` skips that, for pieces checked on the way in.
    Carries no partition claim; run the verifier for one.
    """

    ground: GroundSet
    pieces: Tuple[RPartiteGraph, ...]

    def __post_init__(self) -> None:
        n, r = self.ground.n, self.ground.r
        for i, p in enumerate(self.pieces):
            fault = piece_fault(i, p.parts, n, r)
            if fault is not None:
                raise ValueError(fault)

    @classmethod
    def _from_checked(cls, ground: GroundSet,
                      pieces: Tuple[RPartiteGraph, ...]) -> "Decomposition":
        """A Decomposition of pieces already known to pass the piece rule
        for ``ground``, built without walking them again.  Its callers, each
        with its reason:

        * :func:`gpdecomp.fileio.parse_decomposition`, after its own pass
          has checked every line;
        * :func:`gpdecomp.constructions.construct_theorem1_detailed`, whose
          factors are verified and placed on disjoint class ranges;
        * :func:`gpdecomp.constructions.construct_even_from_odd`, whose
          source pieces are checked for ``(n+1, r+1)``.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "ground", ground)
        object.__setattr__(d, "pieces", pieces)
        return d

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


def piece_fault(i: int, parts: Sequence[Sequence[int]], n: int, r: int) -> Optional[str]:
    """Why :class:`Decomposition` over ``GroundSet(n, r)`` refuses ``parts``
    as its piece ``i``: not r parts, or failing :func:`piece_problem` over
    0..n-1; or None."""
    if len(parts) != r:
        return f"piece {i} has {len(parts)} parts, expected {r}"
    problem = piece_problem(parts, n)
    return None if problem is None else f"piece {i} has {problem}"


def piece_problem(parts: Sequence[Sequence[int]], n: int) -> Optional[str]:
    """The one piece rule: why ``parts`` are not pairwise-disjoint nonempty
    subsets of 0..n-1, or None.  A vertex repeated within a part counts as
    overlapping."""
    seen: set = set()
    for part in parts:
        if not part:
            return "an empty part"
        for v in part:
            if not 0 <= v < n:
                return f"out-of-range vertex {v}"
            if v in seen:
                return f"overlapping parts at vertex {v}"
            seen.add(v)
    return None


def edge_masks(piece: RPartiteGraph) -> List[int]:
    """All edges of a piece as vertex bitmasks, bit v set for vertex v, in a
    new list.

    This is the one coverage kernel: the verifier, the histogram, the block
    checker and the exact solver all count edges through it.  Vertices must
    be nonnegative.  The list is in ``itertools.product`` order over the
    parts; with r disjoint parts each mask has exactly r bits set.

    Every one-vertex part is ORed into one base mask, and each larger part
    is folded in, in part order, by ORing each of its vertex bits onto every
    mask so far, so a mask is built by one operation per part of two or
    more vertices rather than by summing a tuple.  The parts are disjoint,
    so ``|`` equals ``+``; it is ``|`` because CPython's ``+`` on
    multi-digit ints allocates one spare digit, which every mask with a
    vertex above 29 (30-bit digits) would then keep.
    """
    base = 0
    folds = []
    for part in piece.parts:
        if len(part) == 1:
            base |= 1 << part[0]
        else:
            folds.append([1 << v for v in part])
    masks = [base]
    for bits in folds:
        masks = [m | b for m in masks for b in bits]
    return masks


def edge_of_mask(mask: int) -> Edge:
    """The vertices of a bitmask, ascending."""
    # One step per set bit, not per bit below the highest: this is the key
    # of the over-cover witness in first_miscovered.
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(vertices)


def subset_masks(n: int, r: int) -> Iterator[int]:
    """The one edge universe: the r-subsets of 0..n-1 as masks, in lexicographic order."""
    return map(sum, combinations([1 << v for v in range(n)], r))


def first_miscovered(counts: Counter, universe: Iterable[int],
                     total: int) -> Optional[Tuple[int, int]]:
    """The one coverage verdict: the first ``universe`` mask not counted
    exactly once in ``counts``, a Counter of masks all inside that universe
    of ``total`` masks, with its count, or None.  Every mask is counted, so
    the census alone is never trusted.

    ``universe`` must list its masks in the lexicographic order of their
    vertex tuples (:func:`edge_of_mask`), as :func:`subset_masks` does.  It
    is read only when some mask of it is missing from ``counts``: when every
    one is there, the first miscovered mask is the lexicographically
    smallest of those counted more than once.  A caller holding the masks
    as a list accepts first when the census and the distinct masks both
    equal ``total``, and builds the Counter only to reject."""
    if len(counts) == total:
        m = min((m for m, c in counts.items() if c != 1), key=edge_of_mask, default=None)
        return None if m is None else (m, counts[m])
    return next(((m, counts[m]) for m in universe if counts[m] != 1), None)


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient; 0 when b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)
