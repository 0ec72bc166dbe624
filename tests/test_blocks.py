from itertools import combinations, product

import pytest

from gpdecomp import (
    binomial,
    block_to_four_parts,
    construct_star_bipartite,
    construct_trivial_blocks,
    verify_blocks,
)
from gpdecomp.blocks import BipartiteGraph, Block, BlockDecomposition


def test_star_bipartite_n4():
    stars = construct_star_bipartite(4)
    assert [(s.side_a, s.side_b) for s in stars] == [
        ((0,), (1, 2, 3)),
        ((1,), (2, 3)),
        ((2,), (3,)),
    ]
    assert sum(s.edge_count for s in stars) == 6


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
    covered = [e for s in stars for e in s.edges()]
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
        for e1 in blk.first.edges()
        for e2 in blk.second.edges()
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


def test_verify_blocks_reports_out_of_range_pair():
    bd = construct_trivial_blocks(3)
    stray = Block(BipartiteGraph((0,), (3,)), BipartiteGraph((0,), (1,)))
    report = verify_blocks(BlockDecomposition(3, bd.blocks + (stray,)))
    assert not report.valid
    assert report.witness == ((0, 3), (0, 1))
    assert report.witness_multiplicity == 1


def test_block_to_four_parts_relabels():
    blk = Block(
        BipartiteGraph((0,), (1, 2)),
        BipartiteGraph((0,), (1,)),
    )
    assert block_to_four_parts(blk, 3, 0, 3) == ((0,), (1, 2), (3,), (4,))


def test_block_to_four_parts_count_preserved():
    for blk in construct_trivial_blocks(4).blocks:
        parts = block_to_four_parts(blk, 4, 0, 4)
        prod = 1
        for p in parts:
            prod *= len(p)
        assert prod == blk.pair_count


def test_block_to_four_parts_keeps_only_in_range_vertices():
    blk = Block(BipartiteGraph((0, 5), (1, -1)), BipartiteGraph((2,), (0, 3)))
    assert block_to_four_parts(blk, 3, 6, 9) == ((6,), (7,), (11,), (9,))


def test_embedded_trivial_blocks_cover_pairs_as_4sets():
    # every ordered pair of edges appears exactly once among the 4-partite
    # pieces obtained by placing the n=3 trivial blocks at offsets 0 and n
    n = 3
    seen = []
    for blk in construct_trivial_blocks(n).blocks:
        parts = block_to_four_parts(blk, n, 0, n)
        for combo in product(*parts):
            seen.append(tuple(sorted(combo)))
    expected = [
        tuple(sorted(e1 + tuple(v + n for v in e2)))
        for e1 in combinations(range(n), 2)
        for e2 in combinations(range(n), 2)
    ]
    assert sorted(seen) == sorted(expected)
    assert len(seen) == len(set(seen)) == 9
