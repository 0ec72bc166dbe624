"""Ground-set and piece representations shared by every other module.

Vertices are 0-based integers.  A piece (complete r-partite r-graph) is a
family of r pairwise-disjoint nonempty vertex sets; its edge set is all
r-sets taking exactly one vertex per part.  A piece is held in canonical
form, each part ascending and the parts ordered by minimum (the order of a
GPD line), so that equality and serialization are deterministic and every
piece in memory can be written to a file and read back.

:func:`piece_problem` is the one piece rule, part count, nonempty parts,
range, disjointness and canonical order, checked once, where the data
enters: the public :class:`Decomposition` constructor applies it to every
piece (``piece i has ...``), :class:`~gpdecomp.blocks.BlockDecomposition`
to every distinct block factor with r = 2, and ``parse_decomposition``
checks each line in its own pass.  Pieces derived from checked ones (the
class-split and even-from-odd constructions) and parsed ones enter through
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
    ``piece i has <problem>``.  The constructor checks it; only
    :meth:`_from_checked` skips that, for pieces checked on the way in.
    Carries no partition claim; run the verifier for one.
    """

    ground: GroundSet
    pieces: Tuple[RPartiteGraph, ...]

    def __post_init__(self) -> None:
        n, r = self.ground.n, self.ground.r
        for i, p in enumerate(self.pieces):
            problem = piece_problem(p.parts, n, r)
            if problem is not None:
                raise ValueError(f"piece {i} has {problem}")

    @classmethod
    def _from_checked(cls, ground: GroundSet,
                      pieces: Tuple[RPartiteGraph, ...]) -> "Decomposition":
        """A Decomposition of pieces already known to pass the piece rule
        for ``ground``, built without walking them again.  Its callers, each
        with its reason:

        * :func:`gpdecomp.fileio.parse_decomposition`, after its own pass
          has checked every line, canonical order first;
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


def piece_problem(parts: Sequence[Sequence[int]], n: int, r: int) -> Optional[str]:
    """The one piece rule: why ``parts`` are not r pairwise-disjoint nonempty
    subsets of 0..n-1 in canonical order (each part ascending, the parts
    ordered by minimum), or None.

    The part count comes first; then one walk over the vertices, in part
    order, reports the first fault it meets, at each vertex the range first,
    then an overlap, then the order.  A vertex repeated within a part counts
    as overlapping."""
    if len(parts) != r:
        return f"{len(parts)} parts, expected {r}"
    seen: set = set()
    low = -1  # the previous part's minimum
    for part in parts:
        if not part:
            return "an empty part"
        prev = low  # the vertex each must exceed: the last minimum, then its predecessor
        for v in part:
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
