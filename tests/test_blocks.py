import re
from itertools import combinations, product
from math import comb

import pytest

import gpdecomp.blocks
from gpdecomp import construct_trivial_blocks, verify_blocks
from gpdecomp.blocks import BlockDecomposition
from gpdecomp.constructions import _placed
from gpdecomp.core import RPartiteGraph
from test_constructions import split_trivial_blocks


def bipartite_edges(g):
    """The 2-sets of a bipartite graph, each sorted, in lexicographic order."""
    side_a, side_b = g.parts
    return sorted(tuple(sorted((u, v))) for u in side_a for v in side_b)


def star_partition(n):
    """The star partition of E(K_n) the trivial layer is built from: its
    distinct first factors, in order."""
    return list(dict.fromkeys(first for first, _ in construct_trivial_blocks(n).blocks))


def placed_block(b, one, two):
    """A block's four sides, class one shifted up by ``one`` and class two
    by ``two``, as the class-split construction places it."""
    first, second = b
    return _placed(first.parts, one) + _placed(second.parts, two)


def test_star_bipartite_n4():
    stars = star_partition(4)
    assert [s.parts for s in stars] == [
        ((0,), (1, 2, 3)),
        ((1,), (2, 3)),
        ((2,), (3,)),
    ]
    assert sum(len(a) * len(b) for a, b in (s.parts for s in stars)) == 6


def test_star_bipartite_n2():
    stars = star_partition(2)
    assert len(stars) == 1
    assert stars[0] == RPartiteGraph(((0,), (1,)))


def test_star_bipartite_rejects_small_n():
    with pytest.raises(ValueError, match=re.escape("need n >= 2")):
        construct_trivial_blocks(1)


@pytest.mark.parametrize("n", range(2, 13))
def test_star_bipartite_partitions_edges(n):
    stars = star_partition(n)
    assert len(stars) == n - 1
    covered = [e for s in stars for e in bipartite_edges(s)]
    assert len(covered) == comb(n, 2)
    assert sorted(covered) == sorted(combinations(range(n), 2))


@pytest.mark.parametrize("n", range(2, 13))
def test_trivial_blocks_valid(n):
    bd = construct_trivial_blocks(n)
    assert len(bd.blocks) == (n - 1) ** 2
    assert all(type(b) is tuple and len(b) == 2 for b in bd.blocks)
    report = verify_blocks(bd)
    assert report.valid
    assert report.pair_count == comb(n, 2) ** 2


def test_trivial_blocks_n3_pair_census():
    bd = construct_trivial_blocks(3)
    assert len(bd.blocks) == 4
    pairs = [
        (e1, e2)
        for first, second in bd.blocks
        for e1 in bipartite_edges(first)
        for e2 in bipartite_edges(second)
    ]
    assert len(pairs) == 9
    assert set(pairs) == set(product(combinations(range(3), 2), repeat=2))


def test_verify_blocks_detects_deletion():
    bd = construct_trivial_blocks(4)
    broken = BlockDecomposition(4, bd.blocks[1:])
    report = verify_blocks(broken)
    assert not report.valid
    assert report.witness_multiplicity == 0


def test_verify_blocks_detects_duplication():
    bd = construct_trivial_blocks(4)
    broken = BlockDecomposition(4, bd.blocks + (bd.blocks[0],))
    report = verify_blocks(broken)
    assert not report.valid
    assert report.witness_multiplicity == 2


def test_verify_blocks_reports_the_first_pair_of_duplicated_blocks():
    # Block 2 is star 0 x star 2 and block 3 is star 1 x star 0.  The first
    # pair of block 2 comes first although block 3's has the smaller mask.
    bd = construct_trivial_blocks(4)
    assert verify_blocks(BlockDecomposition(4, bd.blocks + (bd.blocks[3],))).witness == (
        (1, 2), (0, 1))
    report = verify_blocks(BlockDecomposition(4, bd.blocks + (bd.blocks[3], bd.blocks[2])))
    assert (report.witness, report.witness_multiplicity) == (((0, 1), (2, 3)), 2)


def test_verify_blocks_counts_through_the_product_structure(monkeypatch):
    # Only the first factors' edges are listed, each distinct factor's once:
    # the 39 stars of n = 40 hold C(40,2) = 780 edges between them, where
    # placing every block as a four-part piece builds all C(40,2)^2 =
    # 608,400 pairs.  The second factors go to the coverage kernel, which
    # lists no edge.
    built = 0
    real = gpdecomp.blocks.edge_masks

    def counted(piece):
        nonlocal built
        masks = real(piece)
        built += len(masks)
        return masks

    monkeypatch.setattr(gpdecomp.blocks, "edge_masks", counted)
    report = verify_blocks(construct_trivial_blocks(40))
    assert report.valid and report.pair_count == 608_400
    assert 0 < built <= 780


def test_verify_blocks_walks_each_first_factor_once(monkeypatch):
    # The first factors holding each e1 are found in one pass over each
    # distinct first factor's edges: at most C(40,2) = 780 steps on the
    # trivial layer of n = 40, where a pass per block takes 39 * 780.  Its
    # 39 stars share one group, so the coverage kernel runs once.
    steps, calls = 0, 0

    class Counted(list):
        def __iter__(self):
            nonlocal steps
            for m in list.__iter__(self):
                steps += 1
                yield m

    real_masks = gpdecomp.blocks.edge_masks
    real_kernel = gpdecomp.blocks.first_miscovered

    def kernel(*args):
        nonlocal calls
        calls += 1
        return real_kernel(*args)

    monkeypatch.setattr(gpdecomp.blocks, "edge_masks", lambda g: Counted(real_masks(g)))
    monkeypatch.setattr(gpdecomp.blocks, "first_miscovered", kernel)
    assert verify_blocks(construct_trivial_blocks(40)).valid
    assert 0 < steps <= comb(40, 2)
    assert calls == 1


@pytest.mark.parametrize("copies", [1, 0, 2, 3])
def test_equal_factor_objects_verify_as_shared_ones(copies):
    # verify_blocks indexes factors by object identity: a layer whose equal
    # factors are distinct objects must get the report of one that shares
    # them, valid or with block 7 deleted, doubled or tripled.
    shared = list(construct_trivial_blocks(5).blocks)
    shared[7:8] = [shared[7]] * copies
    fresh = [(RPartiteGraph(f.parts), RPartiteGraph(s.parts)) for f, s in shared]
    assert fresh == shared and fresh[0][0] is not shared[0][0]
    assert len({id(f) for f, _ in fresh}) == len(fresh) > len({id(f) for f, _ in shared})
    report = verify_blocks(BlockDecomposition(5, tuple(shared)))
    assert verify_blocks(BlockDecomposition(5, tuple(fresh))) == report
    assert report.valid == (copies == 1)
    assert report.witness_multiplicity == (None if copies == 1 else copies)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_split_trivial_blocks_still_verify(n):
    # Cutting a first factor in two gives its edges groups of other shapes;
    # reversing the blocks reorders every group.
    bd = split_trivial_blocks(n)
    assert verify_blocks(bd).valid
    assert verify_blocks(BlockDecomposition(n, bd.blocks[::-1])).valid


STAR = RPartiteGraph(((0,), (1,)))


@pytest.mark.parametrize(
    "factor,reason",
    [
        (((0,), (3,)), "out-of-range vertex 3"),
        (((0,), (1, -1)), "out-of-range vertex -1"),
        (((0, 0), (1,)), "overlapping parts at vertex 0"),
        (((0, 1), (2, 1)), "overlapping parts at vertex 1"),
        (((0,), ()), "an empty part"),
        (((1,), (0, 2)), "vertex 0 out of canonical order"),
        (((0,), (2, 1)), "vertex 1 out of canonical order"),
        (((0,), (1,), (2,)), "3 parts, expected 2"),
    ],
    ids=["out-of-range", "negative", "repeat-within-side", "overlapping-sides", "empty-side",
         "sides-out-of-order", "descending-side", "three-sides"],
)
@pytest.mark.parametrize("second", [False, True], ids=["first", "second"])
def test_block_decomposition_rejects_bad_factor(factor, reason, second):
    g = RPartiteGraph(factor)
    bad = (STAR, g) if second else (g, STAR)
    side = "second" if second else "first"
    with pytest.raises(ValueError, match=rf"^block 4 {side} factor has {re.escape(reason)}$"):
        BlockDecomposition(3, construct_trivial_blocks(3).blocks + (bad,))


@pytest.mark.parametrize("n", [0, -1])
def test_block_decomposition_rejects_small_n(n):
    with pytest.raises(ValueError, match=f"^need n >= 1, got n={n}$"):
        BlockDecomposition(n, ())


@pytest.mark.parametrize("n", [3.0, True, 0.0], ids=["float", "bool", "float-zero"])
def test_block_decomposition_rejects_n_other_than_int(n):
    # serialize_blocks would write ``n 3.0``, which parse_blocks refuses.
    with pytest.raises(ValueError, match=f"^need int n, got n={n}$"):
        BlockDecomposition(n, construct_trivial_blocks(3).blocks)


def test_block_decomposition_rejects_blocks_in_a_list():
    blocks = construct_trivial_blocks(3).blocks
    with pytest.raises(ValueError, match="^a list for the blocks, not a tuple$"):
        BlockDecomposition(3, list(blocks))
    assert BlockDecomposition(3, blocks).blocks == blocks


@pytest.mark.parametrize("at", [0, 3], ids=["first", "after-good-blocks"])
def test_block_decomposition_rejects_a_block_or_factor_of_the_wrong_type(at):
    # A block is a tuple of two factors: a pair of stars is one, equal to the
    # trivial layer's block, while a list, or a tuple of one or three
    # factors, is refused in words, as is a bare tuple of sides for a factor.
    good = construct_trivial_blocks(3).blocks
    star = RPartiteGraph(((0,), (1, 2)))
    layer = BlockDecomposition(3, good[:at] + ((star, star),) + good[at:])
    assert layer.blocks[at] == good[0] == (star, star)
    for bad, words in [([STAR, STAR], "is a list, not a pair of factors"),
                       ((STAR,), "has 1 factors, expected 2"),
                       ((STAR, STAR, STAR), "has 3 factors, expected 2")]:
        with pytest.raises(ValueError, match=rf"^block {at} {re.escape(words)}$"):
            BlockDecomposition(3, good[:at] + (bad,) + good[at:])
    with pytest.raises(ValueError,
                       match=f"^block {at} second factor is a tuple, not an RPartiteGraph$"):
        BlockDecomposition(3, good[:at] + ((STAR, ((0,), (1,))),) + good[at:])


def test_block_decomposition_reports_first_bad_factor():
    bad = ((STAR, RPartiteGraph(((0,), (5,)))), (RPartiteGraph(((1,), (1,))), STAR))
    with pytest.raises(ValueError, match="^block 0 second factor has out-of-range vertex 5$"):
        BlockDecomposition(3, bad)


def test_block_decomposition_checks_each_factor_object_once(monkeypatch):
    # The trivial layer of n holds 2 (n-1)^2 factor slots but n-1 star
    # objects; the rule walks each object once.
    blocks = construct_trivial_blocks(6).blocks
    walked = []
    real = gpdecomp.blocks.piece_problem

    def counted(parts, n, r):
        walked.append(parts)
        return real(parts, n, r)

    monkeypatch.setattr(gpdecomp.blocks, "piece_problem", counted)
    BlockDecomposition(6, blocks)
    assert len(walked) == 5


def test_placed_block_relabels():
    blk = (RPartiteGraph(((0,), (1, 2))), RPartiteGraph(((0,), (1,))))
    assert placed_block(blk, 0, 3) == ((0,), (1, 2), (3,), (4,))


def test_placed_block_count_preserved():
    for blk in construct_trivial_blocks(4).blocks:
        parts = placed_block(blk, 0, 4)
        prod = 1
        for p in parts:
            prod *= len(p)
        (a1, b1), (a2, b2) = blk[0].parts, blk[1].parts
        assert prod == len(a1) * len(b1) * len(a2) * len(b2)


def test_embedded_trivial_blocks_cover_pairs_as_4sets():
    # every ordered pair of edges appears exactly once among the 4-partite
    # pieces obtained by placing the n=3 trivial blocks at offsets 0 and n
    n = 3
    seen = []
    for blk in construct_trivial_blocks(n).blocks:
        parts = placed_block(blk, 0, n)
        for combo in product(*parts):
            seen.append(tuple(sorted(combo)))
    expected = [
        tuple(sorted(e1 + tuple(v + n for v in e2)))
        for e1 in combinations(range(n), 2)
        for e2 in combinations(range(n), 2)
    ]
    assert sorted(seen) == sorted(expected)
    assert len(seen) == len(set(seen)) == 9
