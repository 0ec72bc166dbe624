"""Ground-set and piece representations shared by every other module.

Vertices are 0-based integers.  A piece (complete r-partite r-graph) is a
family of r pairwise-disjoint nonempty vertex sets; its edge set is all
r-sets taking exactly one vertex per part.  A piece is held in canonical
form, a tuple of parts, each a tuple ascending, the parts ordered by minimum
(the order of a GPD line), so that equality and serialization are
deterministic and every piece in memory can be written to a file and read
back.  For the same reason a ground set's n and r are ints, and a
decomposition's pieces a tuple.

:func:`piece_problem` is the one piece rule, tuples, part count, nonempty
parts, int vertices, range, disjointness and canonical order, checked once,
where the data enters: the public :class:`Decomposition` constructor applies
it to every piece (``piece i has ...``), whether built in memory or read by
``parse_decomposition``, which reads only the syntax, and
:class:`~gpdecomp.blocks.BlockDecomposition` to every distinct block factor
with r = 2 (a block is the pair of its two factors, each a two-part piece).
The constructor tests each distinct part once, by a bitmask, and walks only
a piece the masks cannot vouch for.  Pieces derived from
checked ones (the class-split and even-from-odd constructions) enter through
one private constructor, ``Decomposition._from_checked``, which names its
callers; no later check repeats the rule, and nothing downstream re-sorts a
piece.

:func:`first_miscovered` is the one coverage kernel, under both verifiers.
It lists no edge.  It keys each edge by one rule: the edge less its lowest
end vertex lo, its highest end vertex hi, or both, whose value holds bit
``lo*w + hi`` for each covered pair of ends, with w = n when the highest
end is keyed and 1 otherwise, an end that is not keyed counting as vertex
0.  Both ends (the middle) are keyed when both ends of the pieces hold runs
of several vertices, as at odd r in the class-split construction; otherwise
one (the stub).  A piece adds its edges one segment, a run at each keyed
end, at a time, and the memory follows the keys, C(n-2, r-2) middles or
C(n-1, r-1) stubs at most, not the C(n, r) edges.  Pieces that end in one
vertex above all their others, as at even r in the baseline and
even-from-odd constructions, are checked one top vertex at a time by the
same kernel; :func:`first_miscovered` states that rule in full.  A
reject's histogram is in ascending multiplicity.  :func:`edge_masks` still
lists a piece's edges, for the first factors of a block layer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, filterfalse
from math import comb
from operator import countOf, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, ...]


@dataclass(frozen=True)
class GroundSet:
    """Complete r-uniform hypergraph on vertices 0..n-1; n and r are ints
    (``type`` int, as vertices are, so no bool or float)."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.r) is not int:
            raise ValueError(f"need int n and r, got n={self.n}, r={self.r}")
        if not (1 <= self.r <= self.n):
            raise ValueError(f"need 1 <= r <= n, got n={self.n}, r={self.r}")


@dataclass(frozen=True, slots=True)
class RPartiteGraph:
    """Complete r-partite r-graph in canonical form: each part ascending,
    parts ordered by minimum element.

    Holds no check of its own.  The piece rule, canonical order included,
    comes with the :class:`Decomposition` or block layer it is put in; the
    constructions and the parsers build the canonical parts directly.  A
    block is a pair of two-part ones.  Slotted: a piece has no instance dict,
    so on CPython 3.11 it costs 40 bytes in place of 80, which counts where
    a class-split output and its parsed copy hold tens of thousands of
    pieces each.
    """

    parts: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Decomposition:
    """A tuple of pieces over a common ground set.

    Refuses a ground that is no :class:`GroundSet` (``a tuple for the
    ground, not a GroundSet``) before it looks at the pieces.  Carries the
    piece rule: the pieces are a tuple, so they cannot change
    after the check, and every piece passes :func:`piece_problem` for
    ``ground``, or ValueError names the first piece that does not, as
    ``piece i has <problem>`` (``piece i is a tuple, not an RPartiteGraph``
    for a piece with no parts).  The constructor checks it, testing each
    distinct part once through a :class:`_PartMasks` table and walking with
    :func:`piece_problem` only a piece the masks cannot vouch for; only
    :meth:`_from_checked` skips that, for pieces derived from checked ones.
    Carries no partition claim; run the verifier for one.
    """

    ground: GroundSet
    pieces: Tuple[RPartiteGraph, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ground, GroundSet):
            raise ValueError(f"a {type(self.ground).__name__} for the ground, not a GroundSet")
        if not isinstance(self.pieces, tuple):
            raise ValueError(f"a {type(self.pieces).__name__} for the pieces, not a tuple")
        n, r = self.ground.n, self.ground.r
        mask = _PartMasks(n).__getitem__
        try:
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
        except AttributeError:  # from ``p.parts``: the loop stopped at piece i
            raise ValueError(f"piece {i} is a {type(p).__name__}, not an RPartiteGraph") from None

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
_FIRST = itemgetter(0)
_LAST = itemgetter(-1)
# The largest n whose edges the kernel keys by middle.  A middle's value has
# bit lo*n + hi, so up to n^2 bits: 128 KiB here.  Past it the stubs' n bits
# are kept, so that a few pieces naming a large n stay cheap: one piece at
# n = 20000 took 331 MiB and 20 s by middle, 26 MiB and 0.05 s by stub.
_MIDDLE_MAX_N = 1024
# The fewest edges, C(n, r), at which pieces that end in a top singleton
# are checked per top vertex (first_miscovered): below it the n calls cost
# more than their keys save.  Per-top time over whole-input time on even-r
# baselines (minima of repeated calls, Python 3.11 on a 2-core x86-64 host):
# 1.40 at (8,4), 70 edges; 1.08 at (12,6), 924; 1.01 at (16,4), 1,820;
# 0.96 at (14,6) and 1.05 at (14,8), 3,003; 0.98 at (15,8), 6,435; 1.04 at
# (16,10), 8,008; 0.92 at (17,10), 19,448; 0.63-0.79 on the verify-ladder's
# (20,8), (24,6) and (19,10).  Below it fall the exact-search witnesses and
# the construction providers' checks.
_PER_TOP_MIN_EDGES = 3000


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

    Vertices must be nonnegative.  The list is in ``itertools.product``
    order over the parts; with r disjoint parts each mask has exactly r bits
    set.  The coverage kernel, :func:`first_miscovered`, lists no edges; it
    builds the same products over r-1 parts (:func:`_product_masks`).
    """
    return _product_masks(piece.parts)


def _product_masks(parts: Sequence[Tuple[int, ...]]) -> List[int]:
    """The masks of the sets taking one vertex from each of ``parts``, in
    ``itertools.product`` order; ``[0]`` for no parts.

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
    for part in parts:
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
    # One step per set bit, not per bit below the highest.
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(vertices)


def subset_masks(n: int, r: int) -> Iterator[int]:
    """The one edge universe: the r-subsets of 0..n-1 as masks, in lexicographic order."""
    return map(sum, combinations([1 << v for v in range(n)], r))


def _runs(parts: Sequence[Tuple[int, ...]], low: bool,
          keyed: int) -> Iterator[Tuple[Tuple[int, ...], Sequence[Tuple[int, ...]]]]:
    """A piece's runs at its lowest (or highest) end, as pairs of the run
    and the other parts left when it is taken (a list the next step
    changes, so read it before asking for the next run).  An end that is
    not keyed is the one run ``(0,)``, with every part left.

    The holding part is the part with the extreme vertex; its vertices
    beyond every other part's extreme are a run, and its rest goes back
    among the parts.  Each edge of the piece is the run's vertex at its end
    and a set of one vertex from each other part, for exactly one run."""
    if not keyed:
        yield (0,), parts
        return
    # The parts still to walk, ordered so that the holding part is the first
    # (lowest end) or the last (highest end).
    ps = list(parts) if low else sorted(parts, key=_LAST)
    while True:
        if low:
            head = ps.pop(0)
            cut = bisect_left(head, ps[0][0]) if ps else len(head)
            run, rest = head[:cut], head[cut:]
        else:
            head = ps.pop()
            cut = bisect_right(head, ps[-1][-1]) if ps else 0
            run, rest = head[cut:], head[:cut]
        yield run, ps
        if not rest:
            return
        if low:
            insort(ps, rest)  # parts compare by their distinct minima
        else:
            insort(ps, rest, key=_LAST)


def first_miscovered(pieces: Sequence[RPartiteGraph], n: int,
                     r: int) -> Optional[Tuple[int, int, Dict[int, int]]]:
    """The one coverage verdict: None when ``pieces``, each passing the piece
    rule for (n, r), cover every r-subset of 0..n-1 exactly once; otherwise
    the mask of the first r-subset in lexicographic order (of its vertex
    tuple, :func:`edge_of_mask`) covered other than once, its multiplicity,
    and the histogram: multiplicity -> number of r-subsets covered that many
    times, in ascending multiplicity.  Only the first r parts of a piece are
    read, so a piece of more parts stands for the one of its first r, whose
    vertices must then be below n.

    No edge is listed.  Coverage is counted per key, the mask of an edge
    less its lowest end vertex lo, its highest end vertex hi, or both,
    mapped to an int with bit ``lo*w + hi`` for each pair of ends covered
    with it, where w is n when the highest end is keyed and 1 otherwise, and
    an end that is not keyed counts as vertex 0.  The ends are chosen per
    call, from the pieces' first and last parts:

    * both, the (r-2)-set middle, when r >= 3, n <= 1024 and the first
      parts and the last parts each average two vertices or more, as at odd
      r in the class-split construction;
    * otherwise one, the (r-1)-set stub: the end whose holding parts are
      larger in total, taking a piece's last part (the one with the largest
      minimum) for the part holding its highest vertex, which it is in
      nearly every piece the constructions build; r = 1 has the one empty
      stub, keyed at its highest end.

    A piece is walked in segments, a run at each keyed end
    (:func:`_runs`) and the other parts; most pieces are one segment.  A
    segment's edges are its bits on each key of the other parts, so it
    costs one lookup and one store per key, and a bit already set marks an
    over-covered edge, whose multiplicity is counted there and then.

    An accept is no overlap and a census of C(n, r).  A reject takes the
    lexicographically first of: the over-covered edges; each key's first
    missing edge, the lowest bit of the rectangle it expects (lo below its
    lowest vertex, hi above its highest) that it lacks, since for one key
    bit order is the lexicographic order of the edges; and the first edge of
    the first key in lexicographic order that has none, found by listing
    keys up to it.

    When every piece's last part is one vertex t above all its other
    vertices, as in the even-r baseline and even-from-odd constructions, a
    piece covers only edges whose highest vertex is t, so the input is exact
    iff, for each t, the pieces ending in {t}, read without that part,
    partition the (r-1)-subsets of 0..t-1.  Such an input is checked per
    top vertex (:func:`_per_top`): every t in r-1..n-1 by this function at
    (t, r-1), where its pieces hold runs at both ends and are keyed by
    middle.  A t with no piece takes the whole-input path there, which
    offers (0, ..., r-2) at multiplicity 0 and its C(t, r-1) edges
    uncovered.  The rule is taken when that can pay: at least one piece,
    r >= 4 and the first parts average two vertices or more, the middle
    rule's own terms (otherwise the per-t inputs are keyed by stub, as many
    keys as the whole input's, and the calls only add time: 1.28 times the
    whole-input time on baseline (17,12), whose first parts average 1.71),
    and C(n, r) is at least ``_PER_TOP_MIN_EDGES`` (3,000; below it the n
    calls cost more than they save).  A piece that does not end in a top
    singleton, such as one a move has left with two vertices in its top
    part, is split at its highest end by :func:`_runs`: for each run and
    each vertex w in it, the other parts left below the run, with {w}
    appended, whose edges are those of the piece with highest vertex w.
    Up to one piece in n is split, at most n pieces each, once every piece
    is known to qualify; with more the input takes the whole-input path.
    The witness is the lexicographically first of the per-t witnesses, with
    its multiplicity, and the histogram the per-t sum: the answer the whole
    input's keys give."""
    partss = [p.parts for p in pieces]
    heads = sum(map(len, map(_FIRST, partss)))
    rth = itemgetter(r - 1)
    tails = sum(map(len, map(rth, partss)))
    total = comb(n, r)
    # The last parts of two or more vertices are counted first, at C speed,
    # so that an input with many (odd r) is not walked piece by piece.  An
    # input of no piece, such as the group of a t with none, is not split
    # per top again: the whole-input path answers it at once.
    if (r > 3 and total >= _PER_TOP_MIN_EDGES and heads >= 2 * len(partss) > 0
            and len(partss) - countOf(map(len, map(rth, partss)), 1) <= len(partss) // n):
        tops: List[List[RPartiteGraph]] = [[] for _ in range(n)]
        split = []  # the first r parts of each piece to split, once every piece qualifies
        for p, parts in zip(pieces, partss):
            top = parts[r - 1]
            if len(top) == 1 and max(map(_LAST, parts[:r])) == top[0]:
                tops[top[0]].append(p)
            elif len(split) < len(partss) // n:
                split.append(parts[:r])
            else:
                break
        else:
            for parts in split:
                for run, others in _runs(parts, False, 1):
                    for w in run:
                        tops[w].append(RPartiteGraph((*sorted(others), (w,))))
            return _per_top(tops, n, r)
    both = r > 2 and n <= _MIDDLE_MAX_N and min(heads, tails) >= 2 * len(partss)
    low = int(both or r > 1 and heads >= tails)  # 1 when the lowest end is keyed
    high = int(both or not low)
    w = n if high else 1
    cov: Dict[int, int] = {}  # key -> the bits of the ends covered with it
    get = cov.get
    # An over-covered edge, as s | p << n for its key s and bit p, -> its
    # multiplicity; each is decoded once, as a witness candidate.
    over: Dict[int, int] = {}
    census = 0
    cut = r - high
    for parts in partss:
        # A piece is walked in segments: a run at each keyed end and the
        # other parts.  Most pieces are one segment: each keyed end part
        # lies wholly beyond the others.
        others = parts[low:cut]
        lows = parts[0] if low else (0,)  # an end not keyed is vertex 0
        highs = parts[cut] if high else (0,)
        if ((not low or lows[-1] < others[0][0])
                and (not high or not others or highs[0] > max(map(_LAST, others)))):
            segments = ((lows, highs, others),)
        else:
            segments = ((lows, highs, mids) for lows, rest in _runs(parts[:r], True, low)
                        for highs, mids in _runs(rest, False, high))
        for lows, highs, others in segments:
            ends = 0
            for v in highs:
                ends |= 1 << v
            bits = 0
            for v in lows:
                bits |= ends << v * w
            keys = _product_masks(others)
            census += len(keys) * bits.bit_count()
            for s in keys:
                c = get(s)
                if c is None:
                    cov[s] = bits  # the segment's one int, shared by its new keys
                    continue
                twice = c & bits
                while twice:
                    e = s | ((twice & -twice).bit_length() - 1) << n
                    over[e] = over.get(e, 1) + 1
                    twice &= twice - 1
                cov[s] = c | bits
    if census == total and not over:
        return None
    # An edge covered m times adds m to the census, so the edges covered
    # at all number the census less m - 1 for each over-covered one.
    covered = census - sum(over.values()) + len(over)
    missing = total - covered
    firsts = list(over)
    if missing:
        # The keys that expect some edge are the subsets of low..n-1-high;
        # the first absent one in lexicographic order lacks them all.
        span, width = range(low, n - high), r - low - high
        if len(cov) < comb(len(span), width):
            keys = map(sum, combinations([1 << v for v in span], width))
            cov[next(filterfalse(cov.__contains__, keys))] = 0
        rows: Dict[int, int] = {}  # a -> the bits lo*w for each lo below a
        for s, c in cov.items():
            # Key s expects the rectangle lo < a, b <= hi < w.  A key holding
            # all of it is complete; otherwise only the rows of lo up to the
            # one past c's highest are built: c lacks that row wholly, so the
            # first gap is the same, and the rectangle follows c's size.
            a = (s & -s).bit_length() - 1 if low else 1
            b = s.bit_length() if high else 0
            if c.bit_count() != a * (w - b):
                a = min(a, (c.bit_length() - 1) // w + 2)
                if a not in rows:
                    rows[a] = ((1 << a * w) - 1) // ((1 << w) - 1)
                gap = rows[a] * ((1 << w) - (1 << b)) ^ c
                firsts.append(s | ((gap & -gap).bit_length() - 1) << n)
    # Each candidate decoded to its edge, s | low << lo | high << hi.  Of two
    # r-sets the lexicographically first holds the lowest vertex in which
    # they differ (and any edge comes before none, 0).
    mask = (1 << n) - 1
    witness = 0
    for x in firsts:
        lo, hi = divmod(x >> n, w)
        e = x & mask | low << lo | high << hi
        d = witness ^ e
        if d & -d & e:
            witness, code = e, x
    hist = {0: missing} if missing else {}
    if covered > len(over):
        hist[1] = covered - len(over)
    if over:
        hist.update(sorted(Counter(over.values()).items()))
    return witness, over.get(code, 0), hist


def _per_top(tops: List[List[RPartiteGraph]], n: int,
             r: int) -> Optional[Tuple[int, int, Dict[int, int]]]:
    """:func:`first_miscovered` of pieces listed by top vertex t, t -> the
    pieces ending in {t}: each t in r-1..n-1 checked by it at (t, r-1), on
    the first r-1 parts of its pieces.  The witness is the
    lexicographically first of the per-t witnesses, with its multiplicity,
    and the histogram the per-t sum."""
    q = r - 1
    hist: Counter = Counter()
    witness = mult = 0
    for t in range(q, n):
        found = first_miscovered(tops[t], t, q)
        if found is None:
            hist[1] += comb(t, q)
            continue
        e = found[0] | 1 << t
        d = witness ^ e
        if d & -d & e:  # e is lexicographically first so far
            witness, mult = e, found[1]
        hist.update(found[2])
    if not witness:
        return None
    return witness, mult, dict(sorted(hist.items()))
