"""Decomposition constructions.

Three families of algorithms live here:

* the baseline construction fixing the even-position vertices of each sorted
  r-set (C(n - ceil(r/2), floor(r/2)) pieces);
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

Every construction builds its pieces in canonical form directly, sorting
nothing it was given: a provider's pieces and block factors are canonical on
entry (the piece rule includes the order), shifting a canonical piece by a
class offset, the one placement ``_placed``, keeps it canonical, a block,
the pair of its two factors, placed on classes ci < cj (the first factor on
ci, the second on cj) is canonical as placed, and dropping a part keeps
the rest in order.  Only the merge of one combination's factors, which sit
on disjoint class ranges, orders parts by minimum.  So the class-split and
even-from-odd outputs, made only from checked pieces, are built with
``Decomposition._from_checked`` and not checked again; the baseline goes
through the public, checking constructor.  The n-1 star pieces of K_n are
``construct_baseline(n, 2)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, combinations, product
from typing import Callable, Iterator, List, Sequence, Tuple

from .blocks import BlockDecomposition, construct_trivial_blocks, verify_blocks
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
        if type(self.k) is not int or type(self.n) is not int:
            raise ValueError(f"need int k and n, got k={self.k}, n={self.n}")
        if self.k < 1 or self.n < 1:
            raise ValueError("need k >= 1 and n >= 1")

    @property
    def total(self) -> int:
        return self.k * self.n


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
    pieces are indexed by those b, C(n - ceil(r/2), floor(r/2)) of
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


def _profiles(layout: ClassLayout, r: int) -> List[Tuple[Tuple[Tuple[int, int], ...], int]]:
    """Every profile of r over the layout, as ``(assignments, lone)``.

    A profile gives the size of an edge's intersection with each class,
    every size at most n and the sizes summing to r.  The tuple holds its
    sorted (class, size) pairs, with the classes met in 0 vertices left
    out, and its lone size other than 2, which is 0 when every size is 2 and
    -1 when more than one size is not 2.

    Deterministic: lexicographic in the full size vector (s_0, ..., s_{k-1}).
    The vectors are expanded one class at a time: each prefix with ``left``
    of r still to place, and ``room`` = n per class after this one, is
    extended by every size s_i from ``max(0, left - room)`` to
    ``min(n, left)``, so every prefix kept completes to at least one vector
    and nothing is built that is thrown away.  Each new list takes the
    prefixes in order and, within a prefix, s_i ascending, which is the
    lexicographic order again.  A class of size 0 adds no pair, and each
    (class, size) pair is one object shared by every profile holding it.
    """
    if r > layout.total:
        raise ValueError("r exceeds ground set size")
    k, n = layout.k, layout.n
    profiles = [((), r, 0)]  # (pairs so far, left to place, lone)
    for c, room in enumerate(range((k - 1) * n, -1, -n)):
        pair = [()] + [((c, s),) for s in range(1, n + 1)]
        profiles = [(a + pair[s], left - s, lone if s == 0 or s == 2 else s if lone == 0 else -1)
                    for a, left, lone in profiles
                    for s in range(max(0, left - room), min(n, left) + 1)]
    return [(a, lone) for a, _, lone in profiles]  # the last class leaves 0 to place


@dataclass(frozen=True, order=True, slots=True)
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


def _pair_up(twos: Sequence[int]) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
    """The 2-classes paired in ascending order, for blocks, and the odd
    leftover 2-class as a single, for the star pieces."""
    return tuple(zip(twos[::2], twos[1::2])), ((twos[-1], 2),) if len(twos) % 2 else ()


def theorem1_routes(layout: ClassLayout, r: int) -> List[Route]:
    """Routes of the class-split construction, in output order.

    Each profile's shape is read from its lone size other than 2:

    * all sizes 2, or sizes 1,2,...,2 (``paired_two_classes``): the
      2-classes are paired in ascending order through blocks and an odd
      leftover 2-class uses the star pieces.  The complement of the
      2-classes is one more part, which realizes every placement of the
      extra vertex at once, so every such profile on one set of 2-classes
      shares one route, built once for that set.  There is none when the
      complement is empty.
    * sizes 2,...,2,3 (``two_plus_three``): the same pairing times a
      3-class decomposition.
    * anything else (``generic``): plain product of per-class
      decompositions.

    The paired routes come first, one per set of r // 2 classes, in
    ascending order of the set, which is their sorted order; then every
    other profile's route in lexicographic size-vector order.
    """
    if type(r) is not int:
        raise ValueError(f"need int r, got r={r}")
    if r < 1:
        raise ValueError("need r >= 1")
    profiles = _profiles(layout, r)
    k, n = layout.k, layout.n
    # A paired profile puts 2s on t = r // 2 classes and, for odd r, the 1 on
    # another.  Every t-set has such profiles once a class holds a 2, and a
    # route once its complement is nonempty, t < k.
    t = r // 2
    sets = combinations(range(k), t) if t < k and (t == 0 or n >= 2) else ()
    paired = [Route("paired_two_classes", *_pair_up(twos),
                    tuple(v for v in range(layout.total) if v // n not in twos)) for twos in sets]
    rest: List[Route] = []
    for a, lone in profiles:
        if lone == 3:
            pairs, leftover = _pair_up([c for c, s in a if s == 2])
            rest.append(Route("two_plus_three", pairs, leftover + tuple(cs for cs in a if cs[1] == 3)))
        elif lone not in (0, 1):
            rest.append(Route("generic", (), a))
    return paired + rest


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


def _placed(parts: Tuple[Tuple[int, ...], ...], offset: int) -> Tuple[Tuple[int, ...], ...]:
    """The one placement: ``parts`` shifted up by a class offset."""
    return tuple(tuple(v + offset for v in part) for part in parts)


def _route_pieces(
    layout: ClassLayout,
    routes: Sequence[Route],
    sub_provider: SubProvider,
    block_provider: BlockProvider,
) -> Iterator[List[RPartiteGraph]]:
    """The pieces of each route, in route order.

    ``block_provider`` is called at most once and ``sub_provider`` once per
    size, and each output is verified there; each factor list is built once
    per class pair or (class, size).  The factors are canonical on entry and
    stay so when placed by class offset, a block's on classes ci < cj.
    Verified factors sit on disjoint class ranges, so placing them drops
    nothing and overlaps nothing, and sorting one combination's disjoint
    ascending parts orders them by minimum: each piece is canonical as
    built."""
    n = layout.n
    blocks: Tuple[Tuple[RPartiteGraph, RPartiteGraph], ...] = ()
    if any(rt.pairs for rt in routes):
        bd = block_provider(n)
        _check_output(f"block_provider({n})", (bd.n,), (n,), lambda: verify_blocks(bd).message)
        blocks = bd.blocks
    subs = {s: sub_provider(n, s) for s in sorted({s for rt in routes for _, s in rt.singles})}
    for s, dec in subs.items():
        _check_output(f"sub_provider({n}, {s})", (dec.ground.n, dec.ground.r), (n, s),
                      lambda: verify_decomposition(dec).message)
    pair_factors = {
        (ci, cj): [_placed(f.parts, ci * n) + _placed(s.parts, cj * n) for f, s in blocks]
        for ci, cj in {p for rt in routes for p in rt.pairs}
    }
    single_factors = {
        (c, s): [_placed(p.parts, c * n) for p in subs[s].pieces]
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
    if type(r) is not int:
        raise ValueError(f"need int r, got r={r}")
    if r % 2 == 0 or r < 3:
        raise ValueError("r must be odd and >= 3")
    layout = ClassLayout(k=k, n=n)
    if n < 2:
        raise ValueError("need n >= 2")
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
    contain it; drop pieces avoiding vertex n.  The source is canonical and
    n is its largest vertex, so a part holds n exactly when it ends in n,
    and the r parts kept are still in canonical order.  The piece count
    never exceeds the source's.  The derived K_n^(r) is verified, not the
    4x larger source, and ValueError names the ``odd_provider`` call when it
    is invalid or the source is not for (n+1, r+1)."""
    if r % 2 != 0 or r < 2:
        raise ValueError("r must be even and >= 2")
    ground = GroundSet(n, r)
    call, want = f"odd_provider({n + 1}, {r + 1})", (n + 1, r + 1)
    odd = odd_provider(n + 1, r + 1)
    # Checked before deriving: the source carries the piece rule for its own
    # ground, so once that is (n+1, r+1) each derived piece has r disjoint
    # canonical parts inside 0..n-1, and only the derived coverage is left
    # to verify.
    _check_output(call, (odd.ground.n, odd.ground.r), want)
    derived = Decomposition._from_checked(ground, tuple(
        RPartiteGraph(tuple(part for part in p.parts if part[-1] != n))
        for p in odd.pieces if any(part[-1] == n for part in p.parts)
    ))
    _check_output(call, want, want, lambda: verify_decomposition(derived).message)
    return derived
