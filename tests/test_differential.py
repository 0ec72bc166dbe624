"""Differential tests of the bitmask coverage kernel against a reference.

The reference functions below are the tuple-dict verifier, histogram and
block checker that the kernel replaced: every edge is a sorted vertex tuple
counted in a dict, and every edge of the universe is scanned in
lexicographic order.  They are slow and simple on purpose.  On random piece
sets and mutants of the constructions, ``Decomposition`` must refuse exactly
the piece lists the reference structural check refuses, with its message,
and the library must give identical reports on every list it accepts and on
random block sets, trivial or relabelled so that their groups differ.
"""

import random
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import gpdecomp.core
import gpdecomp.verifier
from gpdecomp import (
    Decomposition,
    GroundSet,
    VerificationReport,
    construct_baseline,
    construct_even_from_odd,
    construct_theorem1,
    construct_trivial_blocks,
    coverage_histogram,
    verify_blocks,
    verify_decomposition,
)
from gpdecomp.blocks import BlockDecomposition, BlockReport
from gpdecomp.core import RPartiteGraph
from test_blocks import star_partition
from test_core import canonical
from test_exact_differential import reference_candidates


# -- reference oracle ----------------------------------------------------------

def reference_edges(parts) -> List[tuple]:
    """The sorted vertex tuples taking one vertex from each part, sorted."""
    return sorted(tuple(sorted(c)) for c in product(*parts))


def reference_structural_problem(ground: GroundSet,
                                 pieces: Tuple[RPartiteGraph, ...]) -> Optional[str]:
    n, r = ground.n, ground.r
    for i, p in enumerate(pieces):
        if len(p.parts) != r:
            return f"piece {i} has {len(p.parts)} parts, expected {r}"
        seen: set = set()
        for j, part in enumerate(p.parts):
            if not part:
                return f"piece {i} has an empty part"
            for k, v in enumerate(part):
                if not (0 <= v < n):
                    return f"piece {i} has out-of-range vertex {v}"
                if v in seen:
                    return f"piece {i} has overlapping parts at vertex {v}"
                # Canonical order: each part ascending, parts by minimum.
                before = part[k - 1] if k else p.parts[j - 1][0] if j else -1
                if v < before:
                    return f"piece {i} has vertex {v} out of canonical order"
                seen.add(v)
    return None


def reference_verify(d: Decomposition) -> VerificationReport:
    n, r = d.ground.n, d.ground.r
    total = comb(n, r)
    census = sum(prod(map(len, p.parts)) for p in d.pieces)
    problem = reference_structural_problem(d.ground, d.pieces)
    if problem is not None:
        return VerificationReport(False, len(d.pieces), total, census, message=problem)
    coverage: Dict[tuple, List[int]] = {}
    for i, p in enumerate(d.pieces):
        for e in reference_edges(p.parts):
            coverage.setdefault(e, []).append(i)
    for e in combinations(range(n), r):
        hits = coverage.get(e, [])
        if len(hits) != 1:
            return VerificationReport(
                False,
                len(d.pieces),
                total,
                census,
                message=f"edge {e} covered {len(hits)} times",
                witness=e,
                witness_multiplicity=len(hits),
                witness_pieces=tuple(hits),
            )
    return VerificationReport(True, len(d.pieces), total, census)


def reference_histogram(d: Decomposition) -> Dict[int, int]:
    n, r = d.ground.n, d.ground.r
    counts: Dict[tuple, int] = {}
    for p in d.pieces:
        for e in reference_edges(p.parts):
            counts[e] = counts.get(e, 0) + 1
    hist: Dict[int, int] = {}
    for e in combinations(range(n), r):
        m = counts.get(e, 0)
        hist[m] = hist.get(m, 0) + 1
    return hist


def reference_verify_blocks(bd: BlockDecomposition) -> BlockReport:
    n = bd.n
    counts: Dict[tuple, int] = {}
    for first, second in bd.blocks:
        for e1 in reference_edges(first.parts):
            for e2 in reference_edges(second.parts):
                counts[(e1, e2)] = counts.get((e1, e2), 0) + 1
    total = comb(n, 2) ** 2
    for pair in product(combinations(range(n), 2), repeat=2):
        m = counts.get(pair, 0)
        if m != 1:
            return BlockReport(False, len(bd.blocks), total, pair, m)
    return BlockReport(True, len(bd.blocks), total)


# -- inputs --------------------------------------------------------------------

@lru_cache(maxsize=None)
def candidates(n, r):
    """Every candidate of (n, r) as a piece, in canonical order."""
    return list(map(RPartiteGraph, reference_candidates(n, r)))

CONSTRUCTIONS = [
    construct_baseline(5, 2),
    construct_baseline(6, 3),
    construct_baseline(7, 4),
    construct_baseline(7, 5),
    construct_even_from_odd(6, 4),
    construct_theorem1(2, 3, 3),
    construct_theorem1(3, 2, 5),
]


PieceList = Tuple[GroundSet, Tuple[RPartiteGraph, ...]]


@st.composite
def random_piece_sets(draw) -> PieceList:
    """Pieces drawn from all candidates of (n, r), n <= 7, with repeats, plus
    at times a stray piece with a vertex out of range or the wrong number of
    parts."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, n))
    pool = candidates(n, r)
    pieces = draw(st.lists(st.sampled_from(pool), max_size=12))
    stray_r = draw(st.sampled_from([s for s in (r - 1, r, r + 1) if 1 <= s <= n + 1]))
    pieces += draw(st.lists(st.sampled_from(candidates(n + 1, stray_r)), max_size=1))
    return GroundSet(n, r), tuple(draw(st.permutations(pieces)))


def _move(piece: RPartiteGraph, v: int, target: int) -> RPartiteGraph:
    """Move vertex v into part ``target``; a part left empty is dropped.
    Built unchecked, each part sorted and the parts ordered by minimum, so a
    piece an earlier relabel made malformed stays possible."""
    parts = [[u for u in part if u != v] for part in piece.parts]
    parts[target].append(v)
    kept = [tuple(sorted(p)) for p in parts if p]
    return RPartiteGraph(tuple(sorted(kept, key=lambda p: p[0])))


def _relabel(piece: RPartiteGraph, v: int, w: int) -> RPartiteGraph:
    """Replace vertex v by w, which may fall outside the ground set or inside
    another part; put back in canonical order, which leaves the edges as
    they are, and built unchecked so such pieces stay possible."""
    return canonical(tuple(w if u == v else u for u in part) for part in piece.parts)


@st.composite
def construction_mutants(draw) -> PieceList:
    """A construction with up to two edits: delete, duplicate, triplicate
    (two more copies, so edges are covered three times), move a vertex
    between parts of one piece, relabel a vertex, or reverse a piece's parts,
    which keeps its edges and breaks canonical order unless r = 1."""
    d = draw(st.sampled_from(CONSTRUCTIONS))
    n = d.ground.n
    pieces = list(d.pieces)
    for kind in draw(st.lists(st.sampled_from(["delete", "duplicate", "triplicate", "move",
                                               "relabel", "reverse"]), max_size=2)):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        p = pieces[i]
        if kind == "delete":
            del pieces[i]
        elif kind in ("duplicate", "triplicate"):
            for _ in range(1 if kind == "duplicate" else 2):
                pieces.insert(draw(st.integers(0, len(pieces))), p)
        elif kind == "reverse":
            pieces[i] = RPartiteGraph(p.parts[::-1])
        else:
            v = draw(st.sampled_from([u for part in p.parts for u in part]))
            if kind == "move":
                pieces[i] = _move(p, v, draw(st.integers(0, len(p.parts) - 1)))
            else:
                pieces[i] = _relabel(p, v, draw(st.integers(-1, n + 1)))
    return d.ground, tuple(pieces)


@st.composite
def bipartite_graphs(draw, n: int) -> RPartiteGraph:
    """Two disjoint sides of distinct vertices of 0..n-1, drawn in any order
    and put in canonical order: the factors BlockDecomposition accepts."""
    side_a = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n - 1), unique=True))
    side_b = draw(st.lists(st.integers(0, n - 1).filter(lambda v: v not in side_a),
                           min_size=1, max_size=3, unique=True))
    return canonical((side_a, side_b))


def relabelled_layer(n: int, perms) -> Tuple[Tuple[RPartiteGraph, RPartiteGraph], ...]:
    """The valid layer of blocks ``S_i x pi_i(S_j)`` over the stars S of
    K_n, with its own vertex relabelling ``pi_i`` for each first star: the
    blocks whose first factor holds an edge of S_i have second factors
    ``pi_i(S)``, so the groups of different first stars differ.  Each
    relabelled factor is put back in canonical order."""
    stars = star_partition(n)
    return tuple(
        (s, canonical([pi[v] for v in side] for side in t.parts))
        for s, pi in zip(stars, perms) for t in stars)


@st.composite
def block_sets(draw) -> BlockDecomposition:
    """The trivial blocks of n <= 5, or a relabelled layer whose groups
    differ, with some blocks deleted or duplicated, plus a few random
    blocks."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        blocks = list(construct_trivial_blocks(n).blocks)
    else:
        perms = draw(st.lists(st.permutations(range(n)), min_size=n - 1, max_size=n - 1))
        blocks = list(relabelled_layer(n, perms))
    for kind in draw(st.lists(st.sampled_from(["delete", "duplicate"]), max_size=2)):
        if blocks:
            i = draw(st.integers(0, len(blocks) - 1))
            if kind == "delete":
                del blocks[i]
            else:
                blocks.append(blocks[i])
    blocks += draw(st.lists(st.tuples(bipartite_graphs(n), bipartite_graphs(n)),
                            max_size=3))
    return BlockDecomposition(n, tuple(draw(st.permutations(blocks))))


# -- tests ---------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(random_piece_sets(), construction_mutants()))
def test_verifier_and_histogram_match_reference(drawn):
    problem = reference_structural_problem(*drawn)
    if problem is not None:
        with pytest.raises(ValueError) as info:
            Decomposition(*drawn)
        assert str(info.value) == problem
        return
    d = Decomposition(*drawn)
    assert verify_decomposition(d) == reference_verify(d)
    assert coverage_histogram(d) == reference_histogram(d)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_piece_sets(), construction_mutants()), st.booleans())
def test_counts_kept_between_calls_change_no_answer(drawn, histogram_first):
    # A reject, by a verify or a histogram, keeps its report and histogram
    # on the decomposition; every later answer must equal the reference's
    # and a fresh copy's.
    if reference_structural_problem(*drawn) is not None:
        return
    d = Decomposition(*drawn)
    fresh = verify_decomposition(Decomposition(*drawn))
    if histogram_first:
        assert coverage_histogram(d) == reference_histogram(d)
    assert verify_decomposition(d) == fresh
    assert coverage_histogram(d) == reference_histogram(d)
    assert verify_decomposition(d) == fresh


@settings(max_examples=300, deadline=None)
@given(block_sets())
def test_verify_blocks_matches_reference(bd):
    assert verify_blocks(bd) == reference_verify_blocks(bd)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relabelled_layers_are_partitions_with_distinct_groups(n):
    # The cyclic shifts pi_i(v) = v + i give every first star its own group,
    # and the layer is valid; dropping a block of the last first star puts
    # the reject in the last group the check reaches.
    perms = [[(v + i) % n for v in range(n)] for i in range(n - 1)]
    blocks = relabelled_layer(n, perms)
    assert len({second for _, second in blocks}) > n - 1
    bd = BlockDecomposition(n, blocks)
    assert verify_blocks(bd) == reference_verify_blocks(bd) == BlockReport(
        True, (n - 1) ** 2, comb(n, 2) ** 2)
    broken = BlockDecomposition(n, blocks[:-1])
    report = verify_blocks(broken)
    assert report == reference_verify_blocks(broken)
    assert report.witness[0] == (n - 2, n - 1) and report.witness_multiplicity == 0


def test_relabel_then_move_reaches_both_oracles():
    # Relabelling vertex 3 of the piece {0,1,2} x {3} to 1 makes its parts
    # overlap; moving vertex 2 afterwards must keep the piece malformed.
    d = construct_baseline(5, 2)
    p = _move(_relabel(d.pieces[2], 3, 1), 2, 1)
    assert p.parts == ((0, 1), (1, 2))
    pieces = d.pieces[:2] + (p,) + d.pieces[3:]
    problem = reference_structural_problem(d.ground, pieces)
    assert problem == "piece 2 has overlapping parts at vertex 1"
    with pytest.raises(ValueError, match=f"^{problem}$"):
        Decomposition(d.ground, pieces)


def test_reference_accepts_every_construction():
    for d in CONSTRUCTIONS:
        assert verify_decomposition(d) == reference_verify(d)
        assert verify_decomposition(d).valid
        assert coverage_histogram(d) == reference_histogram(d) == {1: comb(d.ground.n, d.ground.r)}


# -- the kernel: each keying, each source of a witness -----------------------
#
# The kernel keys each edge by its middle, the edge less its lowest and its
# highest vertex, when r >= 3 and the pieces' first and last parts each
# average two vertices or more; otherwise by its stub, the edge less its
# lowest or highest vertex, the end chosen by which of each piece's first
# and last parts are larger in total.  These cases pin inputs under each
# keying, and witnesses from each source: an over-covered edge, a key that
# lacks some of the edges it expects, and a key absent altogether.

def _holding(pieces):
    """The total sizes of the pieces' first and last parts."""
    return sum(len(p.parts[0]) for p in pieces), sum(len(p.parts[-1]) for p in pieces)


def _per_top(pieces, n, r):
    """Whether the kernel checks ``pieces`` per top vertex: r >= 4, at least
    the size constant's C(n, r), at least one piece, first parts of two
    vertices or more on average, and at most one piece in n whose last part
    is not one vertex above all its others (such a piece is split by its
    edges' top vertex)."""
    split = sum(1 for p in pieces
                if len(p.parts[-1]) > 1 or max(map(max, p.parts)) != p.parts[-1][0])
    return (r > 3 and comb(n, r) >= gpdecomp.core._PER_TOP_MIN_EDGES
            and _holding(pieces)[0] >= 2 * len(pieces) > 0 and split <= len(pieces) // n)


def _keying(pieces, n, r):
    """The keying the kernel selects for ``pieces``: "top" when it checks
    them per top vertex, else middle, or the stub's end, low or high (None
    for r = 1, which has the one empty stub)."""
    if _per_top(pieces, n, r):
        return "top"
    low, high = _holding(pieces)
    if r > 2 and min(low, high) >= 2 * len(pieces):
        return "middle"
    return None if r == 1 else "low" if low >= high else "high"


def _swap(pieces, i, parts):
    return pieces[:i] + (RPartiteGraph(parts),) + pieces[i + 1:]


def _split(pieces, i, *partss):
    return pieces[:i] + tuple(map(RPartiteGraph, partss)) + pieces[i + 1:]


def middle_partition(n, r):
    """The pieces ([0, min K), {k} for k in K, (max K, n)) over the
    (r-2)-subsets K of 1..n-2: each edge lies in the one piece of its
    middle, and every piece is one pair of a low run and a high run."""
    return tuple(RPartiteGraph((tuple(range(k[0])),) + tuple((v,) for v in k)
                               + (tuple(range(k[-1] + 1, n)),))
                 for k in combinations(range(1, n - 1), r - 2))


_PAIRS_LOW = construct_baseline(6, 2).pieces  # ([0, a), {a}) for a = 1..5
_PAIRS_HIGH = tuple(star_partition(6))  # ({i}, {i+1, ..., 5}) for i = 0..4
_ONES = tuple(RPartiteGraph(((v,),)) for v in range(5))
_M7 = middle_partition(7, 3)  # ([0, m), {m}, (m, 7)) for m = 1..5
_M8 = middle_partition(8, 4)
# A partition of K_7^(3) with pieces that are not whole: the first piece's
# first part is not wholly below its others, the fifth's last part not
# wholly above them.
_UNWHOLE = tuple(map(RPartiteGraph, [
    ((0, 2), (1,), (3, 4, 5, 6)), ((0,), (1,), (2,)), ((0,), (2,), (3, 4, 5, 6)), _M7[2].parts,
    ((0, 1, 2, 3), (4, 6), (5,)), ((0, 1, 2, 3), (4,), (6,)), ((4,), (5,), (6,))]))


def _completed(n, r, pieces):
    """``pieces`` and a one-edge piece for each r-subset of 0..n-1 they
    leave uncovered, in lexicographic order."""
    covered = {e for p in pieces for e in reference_edges(p)}
    return tuple(map(RPartiteGraph, pieces)) + tuple(
        RPartiteGraph(tuple((v,) for v in e))
        for e in combinations(range(n), r) if e not in covered)


def _less(pieces, edge):
    """``pieces`` without the one-edge piece of ``edge``."""
    return tuple(p for p in pieces if p.parts != tuple((v,) for v in edge))


# Partitions of K_6^(3) keyed by one end, with a piece not whole at it: the
# first part of ({0,2},{1},{3}) is not wholly below the others, and the
# last part of ({0},{1,4},{2,3}) not wholly above them.  Each short variant
# lacks an edge after the one a kernel taking the piece as whole would
# miss, (1,2,3) and (0,2,4).
_LOW_UNWHOLE = _completed(6, 3, [((0, 2), (1,), (3,))])
_HIGH_UNWHOLE = _completed(6, 3, [((0,), (1, 4), (2, 3))])

KERNEL_CASES = {
    # lowest end: the stub {3} absent, or lacking vertex 0
    "lowest-absent": (GroundSet(6, 2), _PAIRS_LOW[:2] + _PAIRS_LOW[3:], "low", ((0, 3), 0)),
    "lowest-partial": (GroundSet(6, 2), _swap(_PAIRS_LOW, 2, ((1, 2), (3,))), "low", ((0, 3), 0)),
    "lowest-over": (GroundSet(6, 2), _PAIRS_LOW + _PAIRS_LOW[3:4], "low", ((0, 4), 2)),
    # highest end: the stub {2} absent, or lacking vertex 3
    "highest-absent": (GroundSet(6, 2), _PAIRS_HIGH[:2] + _PAIRS_HIGH[3:], "high", ((2, 3), 0)),
    "highest-partial": (GroundSet(6, 2), _swap(_PAIRS_HIGH, 1, ((1,), (2, 4, 5))), "high",
                        ((1, 3), 0)),
    "highest-over": (GroundSet(6, 2), _PAIRS_HIGH + _PAIRS_HIGH[4:], "high", ((4, 5), 2)),
    # r = 1: one empty stub, absent when there are no pieces
    "r1-valid": (GroundSet(5, 1), _ONES, None, None),
    "r1-none": (GroundSet(5, 1), (), None, ((0,), 0)),
    "r1-missing": (GroundSet(5, 1), _ONES[:2] + _ONES[3:], None, ((2,), 0)),
    "r1-over": (GroundSet(5, 1), _ONES + _ONES[3:4] * 2, None, ((3,), 3)),
    # pieces not whole at the keyed end, valid and one edge short
    "lowest-unwhole-valid": (GroundSet(6, 3), _LOW_UNWHOLE, "low", None),
    "lowest-unwhole-partial": (GroundSet(6, 3), _less(_LOW_UNWHOLE, (1, 2, 4)), "low",
                               ((1, 2, 4), 0)),
    "highest-unwhole-valid": (GroundSet(6, 3), _HIGH_UNWHOLE, "high", None),
    "highest-unwhole-partial": (GroundSet(6, 3), _less(_HIGH_UNWHOLE, (0, 2, 5)), "high",
                                ((0, 2, 5), 0)),
    # multiplicities 2 and 3 together, an over-cover before a missing edge
    "triple-and-double": (GroundSet(7, 4), construct_baseline(7, 4).pieces[3:4] * 2
                          + construct_baseline(7, 4).pieces[1:] + construct_baseline(7, 4).pieces[5:6],
                          "low", ((0, 1, 2, 3), 0)),
    # middles, r = 3 (a middle is one vertex): the middle {3} absent, and
    # those at min k = 1 and at max k = n-2, absent or lacking one pair
    "middle-valid": (GroundSet(7, 3), _M7, "middle", None),
    "middle-absent": (GroundSet(7, 3), _M7[:2] + _M7[3:], "middle", ((0, 3, 4), 0)),
    "middle-absent-lowest": (GroundSet(7, 3), _M7[1:], "middle", ((0, 1, 2), 0)),
    "middle-partial": (GroundSet(7, 3), _split(_M7, 2, ((0, 1), (3,), (4, 5, 6)),
                                               ((2,), (3,), (4, 5))), "middle", ((2, 3, 6), 0)),
    "middle-partial-highest": (GroundSet(7, 3), _swap(_M7, 4, ((0, 1, 2, 4), (5,), (6,))),
                               "middle", ((3, 5, 6), 0)),
    # an over-covered pair before the pair its middle lacks
    "middle-over": (GroundSet(7, 3), _swap(_M7, 0, ((0,), (1,), (2, 3, 4, 5)))
                    + (RPartiteGraph(((0,), (1,), (5,))),), "middle", ((0, 1, 5), 2)),
    # pieces not whole at the lowest or the highest end: valid, one pair
    # short, and over-covered by a piece whole at neither end
    "middle-unwhole-valid": (GroundSet(7, 3), _UNWHOLE, "middle", None),
    "middle-unwhole-partial": (GroundSet(7, 3), _swap(_UNWHOLE, 4, ((0, 1, 2), (4, 6), (5,))),
                               "middle", ((3, 4, 5), 0)),
    "middle-unwhole-over": (GroundSet(7, 3), _UNWHOLE + (RPartiteGraph(((0, 2), (1, 6), (3,))),),
                            "middle", ((0, 1, 3), 2)),
    # middles of two vertices, r = 4: the middle {2, 4} absent, and the
    # middle {2, 5} lacking the pair (1, 7)
    "middle-r4-absent": (GroundSet(8, 4), _M8[:6] + _M8[7:], "middle", ((0, 2, 4, 5), 0)),
    "middle-r4-partial": (GroundSet(8, 4), _split(_M8, 7, ((0,), (2,), (5,), (6, 7)),
                                                  ((1,), (2,), (5,), (6,))),
                          "middle", ((1, 2, 5, 7), 0)),
}


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_kernel_cases_match_reference(name):
    ground, pieces, keying, witness = KERNEL_CASES[name]
    assert _keying(pieces, ground.n, ground.r) == keying
    d = Decomposition(ground, pieces)
    report = verify_decomposition(d)
    assert report == reference_verify(d)
    assert coverage_histogram(d) == reference_histogram(d)
    assert (report.witness, report.witness_multiplicity) == (witness or (None, None))


def test_a_reject_with_several_over_multiplicities_lists_no_edge(monkeypatch):
    # A reject's histogram is in ascending multiplicity, so it needs no
    # piece's edges, however many multiplicities it holds.
    ground, pieces, _, _ = KERNEL_CASES["triple-and-double"]
    listed = []
    monkeypatch.setattr(gpdecomp.core, "edge_masks", listed.append)
    hist = coverage_histogram(Decomposition(ground, pieces))
    assert list(hist) == [0, 1, 2, 3]
    assert listed == []


def _kernel_keys(monkeypatch, d: Decomposition) -> Tuple[int, VerificationReport]:
    """The number of keys the kernel lists on ``d`` (the total length of
    the products of other parts it builds), and the report."""
    real = gpdecomp.core._product_masks
    total = 0

    def counted(parts):
        nonlocal total
        masks = real(parts)
        total += len(masks)
        return masks

    with monkeypatch.context() as patch:
        patch.setattr(gpdecomp.core, "_product_masks", counted)
        report = verify_decomposition(d)
    return total, report


def test_the_keying_is_chosen_by_the_end_parts(monkeypatch):
    # At odd r, theorem1 pieces hold runs at both ends and are keyed by
    # middle (a one-end stub needs 60,153 entries at the lowest end).  At
    # even r the baseline's last parts are single vertices: (20,8) is checked
    # per top vertex t, its pieces less {t} keyed by middle (the whole
    # input's stubs are 50,388 entries), and (12,6), below the size
    # constant, keeps its stubs.
    keys, report = _kernel_keys(monkeypatch, construct_theorem1(10, 3, 5))
    assert report.valid and keys <= 14_202
    d = construct_baseline(20, 8)
    assert _keying(d.pieces, 20, 8) == "top"
    keys, report = _kernel_keys(monkeypatch, d)
    assert report.valid and keys == 18_600
    d = construct_baseline(12, 6)
    assert _keying(d.pieces, 12, 6) == "low"
    keys, report = _kernel_keys(monkeypatch, d)
    assert report.valid and keys == 462


@pytest.mark.parametrize("n, keys", [(1024, 1), (1025, 2)])
def test_past_n_1024_the_stubs_are_kept(monkeypatch, n, keys):
    # One piece with runs of two at both ends has one middle, and two stubs
    # at its lowest end; past n = 1024 a middle's value, up to n^2 bits, is
    # not built.
    piece = RPartiteGraph(((n - 10, n - 9), (n - 5,), (n - 2, n - 1)))
    found, report = _kernel_keys(monkeypatch, Decomposition(GroundSet(n, 3), (piece,)))
    assert found == keys
    assert (report.witness, report.witness_multiplicity, report.census) == ((0, 1, 2), 0, 4)


def _ladder_mutants(d: Decomposition, seed: int):
    """Three mutants of a large decomposition: a piece deleted; one piece
    duplicated and another triplicated; a vertex moved between two parts
    of a piece."""
    rng = random.Random(seed)
    pieces = list(d.pieces)
    i, j = rng.sample(range(len(pieces)), 2)
    yield pieces[:i] + pieces[i + 1:]
    yield pieces + [pieces[i]] + [pieces[j]] * 2
    k = rng.choice([k for k, p in enumerate(pieces) if any(len(part) > 1 for part in p.parts)])
    p = pieces[k]
    a = rng.choice([a for a, part in enumerate(p.parts) if len(part) > 1])
    b = rng.choice([b for b in range(len(p.parts)) if b != a])
    yield pieces[:k] + [_move(p, p.parts[a][-1], b)] + pieces[k + 1:]


@pytest.mark.parametrize("build, args, keying", [
    (construct_theorem1, (7, 3, 7), "middle"),
    (construct_theorem1, (10, 3, 5), "middle"),
    (construct_theorem1, (4, 4, 7), "high"),
    (construct_baseline, (20, 8), "top"),
    (construct_baseline, (24, 6), "top"),
    (construct_baseline, (28, 5), "middle"),
    (construct_even_from_odd, (22, 6), "top"),
], ids=["theorem1-7-3-7", "theorem1-10-3-5", "theorem1-4-4-7", "baseline-20-8", "baseline-24-6",
        "baseline-28-5", "even-from-odd-22-6"])
def test_ladder_scale_mutants_match_reference(build, args, keying):
    d = build(*args)
    assert _keying(d.pieces, d.ground.n, d.ground.r) == keying
    for pieces in _ladder_mutants(d, seed=sum(args)):
        bad = Decomposition(d.ground, tuple(pieces))
        assert verify_decomposition(bad) == reference_verify(bad)
        assert coverage_histogram(bad) == reference_histogram(bad)


# -- pieces that end in a top singleton ---------------------------------------
#
# Every piece of an even-r baseline or even-from-odd output ends in one
# vertex t above all its others.  At r >= 4 and C(n, r) at or above the size
# constant the kernel checks such an input per t, the pieces ending in {t},
# less that part, as a partition of K_t^(r-1).  These inputs are drawn on
# both sides of the constant, valid and with mutants; a move into the top
# part leaves a piece without a top singleton, which is split by the top
# vertex of its edges while such pieces are at most one in n.

def _cone_part(t, q, perm, dropped):
    """A partition of K_t^(q) with {t} appended to every piece: the baseline
    of (t, q) relabelled by ``perm``, less the pieces indexed in ``dropped``,
    ``_completed`` by one-edge pieces."""
    sub = [canonical([perm[v] for v in part] for part in p.parts).parts
           for p in construct_baseline(t, q).pieces]
    kept = [p for i, p in enumerate(sub) if i not in dropped]
    return [RPartiteGraph(p.parts + ((t,),)) for p in _completed(t, q, kept)]


# The largest n of a cone drawn at each r: at r >= 4, the first n at or above
# the size constant, 3,000 edges.
_CONE_MAX_N = {2: 9, 3: 10, 4: 18, 5: 15, 6: 14}
# Construction grounds below the size constant, then at or above it; r = 2
# stays on the whole-input path at any size.
_TOP_GROUNDS = [(6, 2), (8, 4), (10, 6), (12, 6), (80, 2), (18, 4), (14, 6), (14, 8)]


@st.composite
def cones(draw) -> PieceList:
    """Random cones: for each t, a _completed partition of K_t^(r-1) with
    {t} appended to each piece."""
    r = draw(st.sampled_from(sorted(_CONE_MAX_N)))
    n = draw(st.one_of(st.integers(r, r + 3), st.just(_CONE_MAX_N[r])))
    pieces = []
    for t in range(r - 1, n):
        perm = draw(st.permutations(range(t)))
        dropped = draw(st.sets(st.integers(0, comb(t - (r - 1 + 1) // 2, (r - 1) // 2) - 1),
                               max_size=1))
        pieces += _cone_part(t, r - 1, perm, dropped)
    return GroundSet(n, r), tuple(pieces)


@st.composite
def top_singleton_sets(draw) -> PieceList:
    """An even-r baseline, an even-from-odd output or a cone, with up to two
    edits: delete a piece, duplicate one, move a vertex between two parts
    below the top, move one into the top part, or drop every piece of one
    top vertex."""
    family = draw(st.sampled_from(["baseline", "even-from-odd", "cone"]))
    if family == "cone":
        ground, pieces = draw(cones())
    else:
        n, r = draw(st.sampled_from(_TOP_GROUNDS))
        build = construct_baseline if family == "baseline" else construct_even_from_odd
        d = build(n, r)
        ground, pieces = d.ground, d.pieces
    pieces = list(pieces)
    for kind in draw(st.lists(st.sampled_from(["delete", "duplicate", "move", "move-top",
                                               "empty-top"]), max_size=2)):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        p = pieces[i]
        if kind == "delete":
            del pieces[i]
        elif kind == "duplicate":
            pieces.insert(draw(st.integers(0, len(pieces))), p)
        elif kind == "empty-top":
            pieces = [q for q in pieces if q.parts[-1] != p.parts[-1]]
        else:
            a = draw(st.integers(0, len(p.parts) - 2))
            targets = [len(p.parts) - 1] if kind == "move-top" else [
                b for b in range(len(p.parts) - 1) if b != a]
            if len(p.parts[a]) > 1 and targets:
                pieces[i] = _move(p, draw(st.sampled_from(p.parts[a])), draw(st.sampled_from(targets)))
    return ground, tuple(pieces)


@settings(max_examples=150, deadline=None)
@given(top_singleton_sets())
def test_top_singleton_inputs_match_reference(drawn):
    d = Decomposition(*drawn)
    assert verify_decomposition(d) == reference_verify(d)
    hist = coverage_histogram(Decomposition(*drawn))
    assert hist == reference_histogram(d)
    assert list(hist) == sorted(hist)


def _tops_dropped(pieces, *tops):
    """``pieces`` without those that end in one of ``tops``."""
    return tuple(p for p in pieces if p.parts[-1][0] not in tops or len(p.parts[-1]) > 1)


def _baseline_4(n, a, t):
    """The piece ([0, a), {a}, (a, t), {t}) of construct_baseline(n, 4),
    whose smallest edge is (0, a, a + 1, t)."""
    return RPartiteGraph((tuple(range(a)), (a,), tuple(range(a + 1, t)), (t,)))


def _moved_into_top(pieces, count):
    """``pieces`` with the lowest vertex of the third part moved into the
    top part in the first ``count`` pieces whose third part has two or more."""
    movable = [p for p in pieces if len(p.parts[2]) > 1][:count]
    return tuple(_move(p, p.parts[2][0], len(p.parts) - 1) if p in movable else p for p in pieces)


_B18 = construct_baseline(18, 4).pieces
_B12 = construct_baseline(12, 6).pieces

TOP_CASES = {
    # no piece ends in {10}: its first edge (0, 1, 2, 10) is missing
    "empty-top": (GroundSet(18, 4), _tops_dropped(_B18, 10), "top", ((0, 1, 2, 10), 0)),
    # (0, 1, 2, 17), the first edge of the empty top 17, comes before
    # (0, 3, 4, 10), which a deleted piece leaves missing, though its mask
    # is the larger
    "empty-top-first": (GroundSet(18, 4), _tops_dropped(
        tuple(p for p in _B18 if p != _baseline_4(18, 3, 10)), 17), "top", ((0, 1, 2, 17), 0)),
    # the same two edges over-covered, by duplicated pieces at tops 10 and 17
    "over-at-two-tops": (GroundSet(18, 4), _B18 + (_baseline_4(18, 3, 10), _baseline_4(18, 1, 17)),
                         "top", ((0, 1, 2, 17), 2)),
    # first parts averaging 1.71 vertices, too few for per-t middles: the
    # whole-input path, here with the first piece, the edge 0..11, deleted
    "small-first-parts": (GroundSet(17, 12), construct_baseline(17, 12).pieces[1:], "low",
                          (tuple(range(12)), 0)),
    # below the size constant an empty top stays on the whole-input path
    "empty-top-small": (GroundSet(12, 6), _tops_dropped(_B12, 9), "low", ((0, 1, 2, 3, 4, 9), 0)),
    # vertex 9 moved into the top part of the piece ([0, 3), {3}, (3, 10),
    # {10}), which then covers (0, 3, 4, 9) a second time: that one piece
    # no longer ends in a top singleton and is split by its edges' top vertex
    "move-into-top": (GroundSet(18, 4), tuple(_move(p, 9, 3) if p == _baseline_4(18, 3, 10) else p
                                              for p in _B18), "top", ((0, 3, 4, 9), 2)),
    # vertex 2 moved into the top part of ((0, 1, 2), {3}, {4}, {5}) makes it
    # ((0, 1), (2, 5), {3}, {4}): its last part is one vertex, not the top
    "last-part-below-top": (GroundSet(18, 4), tuple(
        _move(p, 2, 3) if p.parts == ((0, 1, 2), (3,), (4,), (5,)) else p for p in _B18),
        "top", ((0, 2, 3, 4), 2)),
    # six of the 120 pieces moved into their top parts are split, seven are
    # more than one in 18 and leave the input on the whole-input path
    "six-split": (GroundSet(18, 4), _moved_into_top(_B18, 6), "top", ((0, 1, 2, 3), 7)),
    "seven-unsplit": (GroundSet(18, 4), _moved_into_top(_B18, 7), "low", ((0, 1, 2, 3), 8)),
    # one piece of baseline (20,8) moved into its top part, split
    "move-into-top-20-8": (GroundSet(20, 8), _moved_into_top(construct_baseline(20, 8).pieces, 1),
                           "top", ((0, 1, 2, 3, 4, 5, 6, 7), 2)),
    # baseline (20,8) without its 165 pieces ending in {15}: the empty top 15
    # is checked by the kernel at (15, 7) on no piece, on the whole-input path
    "empty-top-20-8": (GroundSet(20, 8), _tops_dropped(construct_baseline(20, 8).pieces, 15),
                       "top", ((0, 1, 2, 3, 4, 5, 6, 15), 0)),
}


def _kernel_calls(monkeypatch, d):
    """The verify report of ``d`` and the (n, r) of every kernel call it
    made, the verifier's own call first, then any the kernel made itself."""
    calls = []
    kernel = gpdecomp.core.first_miscovered

    def counted(pieces, n, r):
        calls.append((n, r))
        return kernel(pieces, n, r)

    with monkeypatch.context() as patch:
        patch.setattr(gpdecomp.core, "first_miscovered", counted)
        patch.setattr(gpdecomp.verifier, "first_miscovered", counted)
        report = verify_decomposition(d)
    return report, calls


@pytest.mark.parametrize("name", list(TOP_CASES))
def test_top_singleton_cases_match_reference(monkeypatch, name):
    ground, pieces, keying, witness = TOP_CASES[name]
    assert _keying(pieces, ground.n, ground.r) == keying
    d = Decomposition(ground, pieces)
    report, calls = _kernel_calls(monkeypatch, d)
    # the per-top path is the one that calls the kernel at (t, r - 1)
    assert any(r == ground.r - 1 for _, r in calls) == (keying == "top")
    assert report == reference_verify(d)
    assert coverage_histogram(d) == reference_histogram(d)
    assert (report.witness, report.witness_multiplicity) == witness


def test_an_empty_top_is_not_split_again(monkeypatch):
    """An empty top's group takes the whole-input path at (t, r - 1): 14
    kernel calls, the verifier's and one per t in 7..19, where splitting it
    per top again, at (15, 7), then at (14, 6), would take 32."""
    ground, pieces, _, _ = TOP_CASES["empty-top-20-8"]
    d = Decomposition(ground, pieces)
    _, calls = _kernel_calls(monkeypatch, d)
    assert calls == [(20, 8)] + [(t, 7) for t in range(7, 20)]
    assert coverage_histogram(d) == {0: 6435, 1: 119535}
