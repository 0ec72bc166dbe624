from itertools import combinations, product

import pytest

import gpdecomp.blocks
from gpdecomp import (
    binomial,
    block_to_four_parts,
    construct_star_bipartite,
    construct_trivial_blocks,
    verify_blocks,
)
from gpdecomp.blocks import BipartiteGraph, Block, BlockDecomposition
from test_constructions import split_trivial_blocks


def bipartite_edges(g):
    """The 2-sets of a bipartite graph, each sorted, in lexicographic order."""
    return sorted(tuple(sorted((u, v))) for u in g.side_a for v in g.side_b)


def test_star_bipartite_n4():
    stars = construct_star_bipartite(4)
    assert [(s.side_a, s.side_b) for s in stars] == [
        ((0,), (1, 2, 3)),
        ((1,), (2, 3)),
        ((2,), (3,)),
    ]
    assert sum(len(s.side_a) * len(s.side_b) for s in stars) == 6


def test_star_bipartite_n2():
    stars = construct_star_bipartite(2)
    assert len(stars) == 1
    assert stars[0] == BipartiteGraph((0,), (1,))


def test_star_bipartite_rejects_small_n():
    with pytest.raises(ValueError):
        construct_star_bipartite(1)


@pytest.mark.parametrize("n", range(2, 13))
def test_star_bipartite_partitions_edges(n):
    stars = construct_star_bipartite(n)
    assert len(stars) == n - 1
    covered = [e for s in stars for e in bipartite_edges(s)]
    assert len(covered) == binomial(n, 2)
    assert sorted(covered) == sorted(combinations(range(n), 2))


@pytest.mark.parametrize("n", range(2, 13))
def test_trivial_blocks_valid(n):
    bd = construct_trivial_blocks(n)
    assert len(bd.blocks) == (n - 1) ** 2
    report = verify_blocks(bd)
    assert report.valid
    assert report.pair_count == binomial(n, 2) ** 2


def test_trivial_blocks_n3_pair_census():
    bd = construct_trivial_blocks(3)
    assert len(bd.blocks) == 4
    pairs = [
        (e1, e2)
        for blk in bd.blocks
        for e1 in bipartite_edges(blk.first)
        for e2 in bipartite_edges(blk.second)
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
    # The first factors' edges plus one C(n,2) check per distinct group:
    # at most 2 * 39 * 780 masks for n = 40, where placing every block as a
    # four-part piece builds all C(40,2)^2 = 608,400 pairs.
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
    assert 0 < built <= 2 * 39 * 780


@pytest.mark.parametrize("n", [3, 4, 6])
def test_split_trivial_blocks_still_verify(n):
    # Cutting a first factor in two gives its edges groups of other shapes;
    # reversing the blocks reorders every group.
    bd = split_trivial_blocks(n)
    assert verify_blocks(bd).valid
    assert verify_blocks(BlockDecomposition(n, bd.blocks[::-1])).valid


STAR = BipartiteGraph((0,), (1,))


@pytest.mark.parametrize(
    "factor,reason",
    [
        (BipartiteGraph((0,), (3,)), "out-of-range vertex 3"),
        (BipartiteGraph((0,), (1, -1)), "out-of-range vertex -1"),
        (BipartiteGraph((0, 0), (1,)), "overlapping parts at vertex 0"),
        (BipartiteGraph((0, 1), (2, 1)), "overlapping parts at vertex 1"),
        (BipartiteGraph((0,), ()), "an empty part"),
    ],
    ids=["out-of-range", "negative", "repeat-within-side", "overlapping-sides", "empty-side"],
)
@pytest.mark.parametrize("second", [False, True], ids=["first", "second"])
def test_block_decomposition_rejects_bad_factor(factor, reason, second):
    bad = Block(STAR, factor) if second else Block(factor, STAR)
    with pytest.raises(ValueError, match=f"^{reason}$"):
        BlockDecomposition(3, construct_trivial_blocks(3).blocks + (bad,))


@pytest.mark.parametrize("n", [0, -1])
def test_block_decomposition_rejects_small_n(n):
    with pytest.raises(ValueError, match=f"^need n >= 1, got n={n}$"):
        BlockDecomposition(n, ())


def test_block_decomposition_reports_first_bad_factor():
    bad = (Block(STAR, BipartiteGraph((0,), (5,))), Block(BipartiteGraph((1,), (1,)), STAR))
    with pytest.raises(ValueError, match="^out-of-range vertex 5$"):
        BlockDecomposition(3, bad)


def test_block_to_four_parts_relabels():
    blk = Block(
        BipartiteGraph((0,), (1, 2)),
        BipartiteGraph((0,), (1,)),
    )
    assert block_to_four_parts(blk, 0, 3) == ((0,), (1, 2), (3,), (4,))


def test_block_to_four_parts_count_preserved():
    for blk in construct_trivial_blocks(4).blocks:
        parts = block_to_four_parts(blk, 0, 4)
        prod = 1
        for p in parts:
            prod *= len(p)
        first, second = blk.first, blk.second
        assert prod == (len(first.side_a) * len(first.side_b)
                        * len(second.side_a) * len(second.side_b))


def test_embedded_trivial_blocks_cover_pairs_as_4sets():
    # every ordered pair of edges appears exactly once among the 4-partite
    # pieces obtained by placing the n=3 trivial blocks at offsets 0 and n
    n = 3
    seen = []
    for blk in construct_trivial_blocks(n).blocks:
        parts = block_to_four_parts(blk, 0, n)
        for combo in product(*parts):
            seen.append(tuple(sorted(combo)))
    expected = [
        tuple(sorted(e1 + tuple(v + n for v in e2)))
        for e1 in combinations(range(n), 2)
        for e2 in combinations(range(n), 2)
    ]
    assert sorted(seen) == sorted(expected)
    assert len(seen) == len(set(seen)) == 9
