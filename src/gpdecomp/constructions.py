"""Decomposition constructions.

Three families of algorithms live here:

* the baseline construction fixing the even-position vertices of each sorted
  r-set (binomial(n - ceil(r/2), floor(r/2)) pieces);
* the class-split construction for odd r = 2d+1 over k classes of size n,
  which routes the all-2s and 2s-plus-3 intersection profiles through block
  decompositions and everything else through products of smaller
  decompositions;
* the even-from-odd reduction deleting one vertex from an (r+1)-uniform
  decomposition.

Sub-decompositions are pluggable: ``sub_provider(n, r)`` and
``odd_provider(n, r)`` must return a valid Decomposition of K_n^(r), and
``block_provider(n)`` a valid BlockDecomposition for n.  Each output is
verified when it is called (an ``odd_provider`` output through the
decomposition derived from it), and one that is not raises ValueError.
Defaults are the baseline and the trivial (n-1)^2 blocks.

Every construction builds its pieces in canonical form directly: provider
parts are sorted once, and verified factors sit on disjoint class ranges.
So the class-split and even-from-odd outputs, made only from checked pieces,
are built with ``Decomposition._from_checked`` and not checked again; the
baseline goes through the public, checking constructor.  The n-1 star pieces
of K_n are ``construct_baseline(n, 2)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, combinations, product
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .blocks import (
    Block, BlockDecomposition, block_to_four_parts, construct_trivial_blocks, verify_blocks,
)
from .core import Decomposition, GroundSet, RPartiteGraph
from .verifier import verify_decomposition

SubProvider = Callable[[int, int], Decomposition]
BlockProvider = Callable[[int], BlockDecomposition]


@dataclass(frozen=True)
class ClassLayout:
    """k contiguous classes of size n; class i occupies [i*n, (i+1)*n)."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")

    @property
    def total(self) -> int:
        return self.k * self.n


@dataclass(frozen=True)
class Signature:
    """Intersection sizes of an edge family with the classes of a layout.

    ``assignments`` maps class index to a positive intersection size; absent
    classes intersect in 0 vertices.
    """

    assignments: Tuple[Tuple[int, int], ...]  # sorted (class, size) pairs


@dataclass
class FamilyTally:
    """Per-family piece counts from the class-split construction."""

    paired_two_classes: int = 0  # all-2s profiles via blocks + complement part
    two_plus_three: int = 0  # 2+...+2+3 profiles
    generic: int = 0  # every other profile


def construct_baseline(n: int, r: int) -> Decomposition:
    """Partition K_n^(r) by fixing the even-position vertices of each edge.

    Each piece is indexed by fixed vertices a_1 < ... < a_m (m = floor(r/2))
    sitting at the even sorted positions; its parts are the singletons {a_i}
    together with the open intervals between consecutive fixed points (plus,
    for odd r, the interval above a_m).  Every interval is nonempty exactly
    when a_i = b_i + i for some 0 <= b_1 < ... < b_m < n - ceil(r/2), so the
    pieces are indexed by those b, binomial(n - ceil(r/2), floor(r/2)) of
    them.  The parts come out ascending and ordered by minimum, so
    canonical.
    """
    ground = GroundSet(n, r)
    pieces: List[RPartiteGraph] = []
    for b in combinations(range(n - (r + 1) // 2), r // 2):
        parts: List[Tuple[int, ...]] = []
        prev = -1
        for i, bi in enumerate(b):
            a = bi + i + 1
            parts.append(tuple(range(prev + 1, a)))
            parts.append((a,))
            prev = a
        if r % 2 == 1:
            parts.append(tuple(range(prev + 1, n)))
        pieces.append(RPartiteGraph(tuple(parts)))
    return Decomposition(ground, tuple(pieces))


def enumerate_signatures(layout: ClassLayout, r: int) -> List[Signature]:
    """Every assignment of positive sizes (each <= n) to classes summing to r.

    Deterministic: lexicographic in the full size vector (s_0, ..., s_{k-1}).
    The vectors are expanded one class at a time: each prefix with ``left``
    of r still to place, and ``room`` = n per class after this one, is
    extended by every size s_i from ``max(0, left - room)`` to
    ``min(n, left)``, so every prefix kept completes to at least one vector
    and nothing is built that is thrown away.  Each new list takes the
    prefixes in order and, within a prefix, s_i ascending, which is the
    lexicographic order again.
    """
    if r > layout.total:
        raise ValueError("r exceeds ground set size")
    k, n = layout.k, layout.n
    vectors = [((), r)]  # (sizes so far, left to place)
    for room in range((k - 1) * n, -1, -n):
        vectors = [(v + (s,), left - s) for v, left in vectors
                   for s in range(max(0, left - room), min(n, left) + 1)]
    return [Signature(tuple((c, s) for c, s in enumerate(v) if s)) for v, _ in vectors]


@dataclass(frozen=True, order=True)
class Route:
    """How the class-split construction covers one intersection profile.

    The pieces are the product of one factor list per entry of ``pairs`` (the
    block decomposition embedded on that class pair) and of ``singles``
    (``sub_provider(n, size)`` shifted onto that class), each combination
    extended by the ``complement`` part when it is nonempty.  ``family`` names
    the :class:`FamilyTally` field the pieces count towards.  The field order
    makes routes of one family sort by their classes.
    """

    family: str
    pairs: Tuple[Tuple[int, int], ...]
    singles: Tuple[Tuple[int, int], ...]
    complement: Tuple[int, ...] = ()


def route_signature(layout: ClassLayout, sig: Signature) -> Optional[Route]:
    """The route whose pieces partition the edges with the given profile.

    Dispatches on the profile shape:

    * all sizes 2, or sizes 1,2,...,2: the 2-classes are paired in ascending
      order through blocks and an odd leftover 2-class uses the star pieces.
      The complement of the 2-classes is one more part, which realizes every
      placement of the extra vertex at once, so every placement of the 1
      shares this route.  None (vacuous) when the complement is empty.
    * sizes 2,...,2,3: the same pairing times a 3-class decomposition.
    * anything else: plain product of per-class decompositions.
    """
    if not sig.assignments:
        raise ValueError("empty signature")
    if any(s > layout.n for _, s in sig.assignments):
        raise ValueError("intersection size exceeds class size")
    twos = [c for c, s in sig.assignments if s == 2]
    rest = tuple((c, s) for c, s in sig.assignments if s != 2)
    rest_sizes = [s for _, s in rest]
    pairs = tuple(zip(twos[::2], twos[1::2]))
    leftover = ((twos[-1], 2),) if len(twos) % 2 else ()
    if rest_sizes in ([], [1]):
        comp = tuple(v for v in range(layout.total) if v // layout.n not in twos)
        return Route("paired_two_classes", pairs, leftover, comp) if comp else None
    if rest_sizes == [3]:
        return Route("two_plus_three", pairs, leftover + rest)
    return Route("generic", (), sig.assignments)


def theorem1_routes(layout: ClassLayout, r: int) -> List[Route]:
    """Routes of the class-split construction for odd r, in output order: the
    paired routes sorted by their 2-classes, each once, then every other
    profile in :func:`enumerate_signatures` order."""
    routes = [
        rt for rt in (route_signature(layout, sig) for sig in enumerate_signatures(layout, r))
        if rt is not None
    ]
    paired = sorted({rt for rt in routes if rt.family == "paired_two_classes"})
    return paired + [rt for rt in routes if rt.family != "paired_two_classes"]


def _check_output(call: str, ground: Tuple[int, ...], want: Tuple[int, ...],
                  problem: Callable[[], str] = lambda: "") -> None:
    """Raise ValueError naming the provider call unless its output is for
    ``want`` (``(n,)`` or ``(n, r)``) and then ``problem()``, its verifier's
    witness in words, is empty.  The size is checked first, so an output of
    the wrong size is refused without being verified."""
    if ground != want:
        got = ", ".join(f"{name}={v}" for name, v in zip("nr", ground))
        raise ValueError(f"{call} returned an output for {got}")
    message = problem()
    if message:
        raise ValueError(f"{call} is invalid: {message}")


def _sorted_parts(parts: Iterable[Iterable[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Each part sorted, then the parts: for disjoint parts, the canonical order."""
    return tuple(sorted(tuple(sorted(part)) for part in parts))


def _route_pieces(
    layout: ClassLayout,
    routes: Sequence[Route],
    sub_provider: SubProvider,
    block_provider: BlockProvider,
) -> Iterator[List[RPartiteGraph]]:
    """The pieces of each route, in route order.

    ``block_provider`` is called at most once and ``sub_provider`` once per
    size, and each output is verified there; each factor list is built once
    per class pair or (class, size), each part sorted.  Verified factors sit
    on disjoint class ranges, so placing them by class offset drops nothing
    and overlaps nothing, and sorting a piece's disjoint ascending parts
    orders them by minimum: each piece is canonical as built."""
    n = layout.n
    blocks: Tuple[Block, ...] = ()
    if any(rt.pairs for rt in routes):
        bd = block_provider(n)
        _check_output(f"block_provider({n})", (bd.n,), (n,), lambda: verify_blocks(bd).message)
        blocks = bd.blocks
    subs = {s: sub_provider(n, s) for s in sorted({s for rt in routes for _, s in rt.singles})}
    for s, dec in subs.items():
        _check_output(f"sub_provider({n}, {s})", (dec.ground.n, dec.ground.r), (n, s),
                      lambda: verify_decomposition(dec).message)
    pair_factors = {
        (ci, cj): [_sorted_parts(block_to_four_parts(b, ci * n, cj * n)) for b in blocks]
        for ci, cj in {p for rt in routes for p in rt.pairs}
    }
    single_factors = {
        (c, s): [_sorted_parts([v + c * n for v in part] for part in p.parts) for p in subs[s].pieces]
        for c, s in {cs for rt in routes for cs in rt.singles}
    }
    for rt in routes:
        factors = [pair_factors[p] for p in rt.pairs] + [single_factors[cs] for cs in rt.singles]
        tail = (rt.complement,) if rt.complement else ()
        yield [RPartiteGraph(tuple(sorted(chain(*combo, tail)))) for combo in product(*factors)]


def construct_theorem1_detailed(
    n: int,
    k: int,
    r: int,
    sub_provider: SubProvider = construct_baseline,
    block_provider: BlockProvider = construct_trivial_blocks,
) -> Tuple[Decomposition, FamilyTally]:
    """Class-split construction for odd r = 2d+1 over k classes of size n,
    returning the decomposition together with per-family piece tallies."""
    if r % 2 == 0 or r < 3:
        raise ValueError("r must be odd and >= 3")
    if n < 2:
        raise ValueError("need n >= 2")
    layout = ClassLayout(k=k, n=n)
    routes = theorem1_routes(layout, r)
    counts = asdict(FamilyTally())
    pieces: List[RPartiteGraph] = []
    for rt, got in zip(routes, _route_pieces(layout, routes, sub_provider, block_provider)):
        counts[rt.family] += len(got)
        pieces.extend(got)
    dec = Decomposition._from_checked(GroundSet(layout.total, r), tuple(pieces))
    return dec, FamilyTally(**counts)


def construct_theorem1(
    n: int,
    k: int,
    r: int,
    sub_provider: SubProvider = construct_baseline,
    block_provider: BlockProvider = construct_trivial_blocks,
) -> Decomposition:
    dec, _ = construct_theorem1_detailed(n, k, r, sub_provider, block_provider)
    return dec


def construct_even_from_odd(
    n: int,
    r: int,
    odd_provider: SubProvider = construct_baseline,
) -> Decomposition:
    """Decompose K_n^(r) for even r by deleting the last vertex from a
    decomposition of K_{n+1}^(r+1).

    For each source piece containing vertex n, keep the r parts that do not
    contain it; drop pieces avoiding vertex n.  The piece count never exceeds
    the source's.  The derived K_n^(r) is verified, not the 4x larger
    source, and ValueError names the ``odd_provider`` call when it is
    invalid or the source is not for (n+1, r+1)."""
    if r % 2 != 0 or r < 2:
        raise ValueError("r must be even and >= 2")
    ground = GroundSet(n, r)
    call, want = f"odd_provider({n + 1}, {r + 1})", (n + 1, r + 1)
    odd = odd_provider(n + 1, r + 1)
    # Checked before deriving: the source carries the piece rule for its own
    # ground, so once that is (n+1, r+1) each derived piece has r disjoint
    # parts inside 0..n-1, and only the derived coverage is left to verify.
    _check_output(call, (odd.ground.n, odd.ground.r), want)
    v = n
    derived = Decomposition._from_checked(ground, tuple(
        RPartiteGraph(_sorted_parts(part for part in p.parts if v not in part))
        for p in odd.pieces if any(v in part for part in p.parts)
    ))
    _check_output(call, want, want, lambda: verify_decomposition(derived).message)
    return derived
