"""Ground-set and piece representations shared by every other module.

Vertices are 0-based integers.  A piece (complete r-partite r-graph) is a
family of r pairwise-disjoint nonempty vertex sets; its edge set is all
r-sets taking exactly one vertex per part.  A piece is held in canonical
form, a tuple of parts, each a tuple ascending, the parts ordered by minimum
(the order of a GPD line), so that equality and serialization are
deterministic and every piece in memory can be written to a file and read
back.

:func:`piece_problem` is the one piece rule, tuples, part count, nonempty
parts, int vertices, range, disjointness and canonical order, checked once,
where the data enters: the public :class:`Decomposition` constructor applies
it to every piece (``piece i has ...``), whether built in memory or read by
``parse_decomposition``, which reads only the syntax, and
:class:`~gpdecomp.blocks.BlockDecomposition` to every distinct block factor
with r = 2.  The constructor tests each distinct part once, by a bitmask,
and walks only a piece the masks cannot vouch for.  Pieces derived from
checked ones (the class-split and even-from-odd constructions) enter through
one private constructor, ``Decomposition._from_checked``, which names its
callers; no later check repeats the rule, and nothing downstream re-sorts a
piece.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, filterfalse
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

    Holds no check of its own.  The piece rule, canonical order included,
    comes with the :class:`Decomposition` or block layer it is put in; the
    constructions and the parsers build the canonical parts directly.  A
    block factor is a two-part one.
    """

    parts: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Decomposition:
    """A list of pieces over a common ground set.

    Carries the piece rule: every piece passes :func:`piece_problem` for
    ``ground``, or ValueError names the first piece that does not, as
    ``piece i has <problem>``.  The constructor checks it, testing each
    distinct part once through a :class:`_PartMasks` table and walking with
    :func:`piece_problem` only a piece the masks cannot vouch for; only
    :meth:`_from_checked` skips that, for pieces derived from checked ones.
    Carries no partition claim; run the verifier for one.
    """

    ground: GroundSet
    pieces: Tuple[RPartiteGraph, ...]

    def __post_init__(self) -> None:
        n, r = self.ground.n, self.ground.r
        mask = _PartMasks(n).__getitem__
        for i, p in enumerate(self.pieces):
            parts = p.parts
            try:
                masks = list(map(mask, parts))
            except TypeError:  # an unhashable part: a list, or a tuple holding one
                masks = ()
            # r sound parts share no vertex when their masks add up to one
            # bit per vertex; any other piece (a fault, or, for n above
            # 1024, vertices 1024 apart) is walked.
            if (len(masks) != r or min(masks) <= 0
                    or sum(masks).bit_count() != sum(map(len, parts))
                    or parts != tuple(sorted(parts))):
                problem = piece_problem(parts, n, r)
                if problem is not None:
                    raise ValueError(f"piece {i} has {problem}")

    @classmethod
    def _from_checked(cls, ground: GroundSet,
                      pieces: Tuple[RPartiteGraph, ...]) -> "Decomposition":
        """A Decomposition of pieces already known to pass the piece rule
        for ``ground``, built without checking them again.  Its two callers,
        each with its reason:

        * :func:`gpdecomp.constructions.construct_theorem1_detailed`, whose
          factors are verified, canonical on entry and placed by class
          offset on disjoint class ranges, so that merging a combination's
          parts by minimum gives a canonical piece;
        * :func:`gpdecomp.constructions.construct_even_from_odd`, whose
          source pieces are checked for ``(n+1, r+1)``, canonical order
          included, so dropping the part that holds vertex n leaves r
          canonical parts inside 0..n-1.
        """
        d = object.__new__(cls)
        object.__setattr__(d, "ground", ground)
        object.__setattr__(d, "pieces", pieces)
        return d

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


# A part mask has bit v % _MASK_BITS for each vertex v, so it stays small
# whatever n the ground set names; vertices of 0..n-1 share a bit only for n
# above this width.
_MASK_BITS = 1024
_BIT = (1).__lshift__
_WRAP = (_MASK_BITS - 1).__and__  # _WRAP(v) == v % _MASK_BITS for v >= 0
_INT_ONLY = {int}


class _PartMasks(dict):
    """One check's table from a part to its mask, so each distinct part is
    tested once and a repeated part costs one lookup.

    A part that is a nonempty tuple of ints (``type`` int, so no bool or
    float) ascending inside 0..n-1 gets the sum of ``1 << (v % 1024)`` over
    its vertices v, which has one bit per vertex exactly when no two
    vertices of the part are equal or 1024 apart; any other part gets 0.  A
    lookup raises TypeError for a part that is unhashable (a list, or a
    tuple holding one).

    The table is keyed by value, so the types are tested on the first part
    object of each value: a later part equal to it, such as ``(1.0,)`` after
    ``(1,)``, gets its mask untested.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, part: Tuple[int, ...]) -> int:
        mask = 0
        if (isinstance(part, tuple) and part and _INT_ONLY.issuperset(map(type, part))
                and 0 <= part[0] and part[-1] < self.n and sorted(part) == list(part)):
            mask = sum(map(_BIT, map(_WRAP, part)))
        self[part] = mask
        return mask


def piece_problem(parts: Sequence[Sequence[int]], n: int, r: int) -> Optional[str]:
    """The one piece rule: why ``parts`` are not a tuple of r pairwise-disjoint
    nonempty subsets of 0..n-1, each a tuple, in canonical order (each part
    ascending, the parts ordered by minimum), or None.

    A list (or any other type) for the tuple of parts comes first, then the
    part count; then one walk over the vertices, in part order, reports the
    first fault it meets, at each part a list for a tuple, then an empty
    part, and at each vertex its type first (an int, not a bool or a float
    that would compare equal to one), then the range, then an overlap, then
    the order.  A vertex repeated within a part counts as overlapping."""
    if not isinstance(parts, tuple):
        return f"a {type(parts).__name__} for the parts, not a tuple"
    if len(parts) != r:
        return f"{len(parts)} parts, expected {r}"
    seen: set = set()
    low = -1  # the previous part's minimum
    for part in parts:
        if not isinstance(part, tuple):
            return f"a {type(part).__name__} for a part, not a tuple"
        if not part:
            return "an empty part"
        prev = low  # the vertex each must exceed: the last minimum, then its predecessor
        for v in part:
            if type(v) is not int:
                return f"vertex {v!r} is not an int"
            if not 0 <= v < n:
                return f"out-of-range vertex {v}"
            if v in seen:
                return f"overlapping parts at vertex {v}"
            if v < prev:
                return f"vertex {v} out of canonical order"
            seen.add(v)
            prev = v
        low = part[0]
    return None


def edge_masks(piece: RPartiteGraph) -> List[int]:
    """All edges of a piece as vertex bitmasks, bit v set for vertex v, in a
    new list.

    This is the one coverage kernel: the verifier, the histogram and the
    block checker all count edges through it.  Vertices must
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


def first_miscovered(groups: Sequence[Sequence[int]], universe: Iterable[int],
                     total: int) -> Optional[Tuple[int, int, Dict[int, int]]]:
    """The one coverage verdict, decided on sets of edge masks; no Counter
    of all masks is built.

    ``groups`` holds the edge masks of each piece, distinct within a group
    and all inside ``universe``: ``total`` masks in the lexicographic order
    of their vertex tuples (:func:`edge_of_mask`), as :func:`subset_masks`
    lists them.  Returns None when every universe mask is covered exactly
    once.  Otherwise returns the first universe mask that is not, its
    multiplicity, and the histogram: multiplicity -> number of universe
    masks covered that many times.

    An accept is one C-level pass with no loop over the groups: the census
    and the number of distinct masks both equal ``total``.  A reject makes
    one pass over the groups that puts their masks in a set (after the
    accept test's set only when the census equals ``total``), where a group
    that adds fewer masks than it has repeats masks of earlier groups.
    Every over-covered mask lies in such a group, so counting only their
    masks, in the groups that hold any of them, gives the multiplicities.
    The universe is read only when some mask is missing, and only up to the
    first missing mask or the smallest over-covered one, whichever comes
    first."""
    census = sum(map(len, groups))
    if census == total and len(set(chain.from_iterable(groups))) == total:
        return None
    # One pass builds the set of masks group by group: a group that adds fewer
    # masks than it has repeats masks of the groups before it.
    seen: set = set()
    repeating = []  # indices of the groups that repeat earlier masks
    for i, g in enumerate(groups):
        before = len(seen)
        seen.update(g)
        if len(seen) - before < len(g):
            repeating.append(i)
    over: Dict[int, int] = {}  # over-covered mask -> its multiplicity
    if repeating:
        # Every over-covered mask is in a repeating group, and every group
        # covering it comes no later than the last of those.
        suspects = set(chain.from_iterable(map(groups.__getitem__, repeating)))
        touching = filterfalse(suspects.isdisjoint, groups[:repeating[-1] + 1])
        counts = Counter(filter(suspects.__contains__, chain.from_iterable(touching)))
        over = {m: c for m, c in counts.items() if c > 1}
    witness = min(over, key=edge_of_mask, default=None)
    covered = len(seen)
    missing = total - covered
    if missing:
        seen.discard(witness)  # the walk stops there if no mask is missing before it
        witness = next(filterfalse(seen.__contains__, universe))
    hist = dict(Counter(over.values()))
    if covered > len(over):
        hist[1] = covered - len(over)
    if missing:
        hist[0] = missing
    return witness, over.get(witness, 0), hist
