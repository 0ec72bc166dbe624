"""Block decompositions: partitions of E(K_n) x E(K_n) into products of
complete bipartite graphs.

A block is an ordered product of two complete bipartite graphs, the first
over class one and the second over class two (both classes of size n, with
class-local labels 0..n-1).  Embedding into a host ground set happens only at
:func:`block_to_four_parts`, so one block decomposition can be reused across
many class pairs.

Any function ``n -> BlockDecomposition`` whose output passes
:func:`verify_blocks` can serve as a block provider for the main
construction; :func:`construct_trivial_blocks` is the default with
(n-1)^2 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import List, Mapping, Optional, Tuple

from .core import RPartiteGraph, binomial, edge_masks, edge_of_mask, first_miscovered, subset_masks


@dataclass(frozen=True)
class BipartiteGraph:
    """Complete bipartite graph: all 2-sets with one vertex per side."""

    side_a: Tuple[int, ...]
    side_b: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.side_a or not self.side_b:
            raise ValueError("both sides must be nonempty")
        if set(self.side_a) & set(self.side_b):
            raise ValueError("sides must be disjoint")

    def edges(self) -> List[Tuple[int, int]]:
        return sorted(tuple(sorted((u, v))) for u in self.side_a for v in self.side_b)

    @property
    def edge_count(self) -> int:
        return len(self.side_a) * len(self.side_b)


@dataclass(frozen=True)
class Block:
    """Product of the edge sets of two complete bipartite graphs."""

    first: BipartiteGraph
    second: BipartiteGraph

    @property
    def pair_count(self) -> int:
        return self.first.edge_count * self.second.edge_count


@dataclass(frozen=True)
class BlockDecomposition:
    """Claimed partition of E(K_n) x E(K_n); check it with verify_blocks."""

    n: int
    blocks: Tuple[Block, ...]


@dataclass(frozen=True)
class BlockReport:
    valid: bool
    block_count: int
    pair_count: int
    witness: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None
    witness_multiplicity: Optional[int] = None


def construct_star_bipartite(n: int) -> List[BipartiteGraph]:
    """Star partition of E(K_n): n-1 bipartite graphs ({i}, {i+1..n-1})."""
    if n < 2:
        raise ValueError("need n >= 2")
    return [BipartiteGraph((i,), tuple(range(i + 1, n))) for i in range(n - 1)]


def construct_trivial_blocks(n: int) -> BlockDecomposition:
    """The (n-1)^2 blocks obtained as ordered products of the star partition
    with itself."""
    stars = construct_star_bipartite(n)
    blocks = tuple(Block(s1, s2) for s1, s2 in product(stars, stars))
    return BlockDecomposition(n=n, blocks=blocks)


def block_to_four_parts(
    b: Block,
    embed_one: Mapping[int, int],
    embed_two: Mapping[int, int],
) -> Tuple[Tuple[int, ...], ...]:
    """Embed a block into a host ground set as four disjoint parts.

    The 4-sets taking one vertex per returned part are exactly the pairs
    (e1, e2) of the block under the two embeddings.
    """
    img_one = {embed_one[v] for v in set(b.first.side_a) | set(b.first.side_b)}
    img_two = {embed_two[v] for v in set(b.second.side_a) | set(b.second.side_b)}
    if img_one & img_two:
        raise ValueError("embedding images overlap")
    return (
        tuple(sorted(embed_one[v] for v in b.first.side_a)),
        tuple(sorted(embed_one[v] for v in b.first.side_b)),
        tuple(sorted(embed_two[v] for v in b.second.side_a)),
        tuple(sorted(embed_two[v] for v in b.second.side_b)),
    )


def _as_piece(b: Block, n: int) -> RPartiteGraph:
    """The block as a four-part piece on 2n vertices, class two shifted up by
    n, keeping only vertices in 0..n-1: its edges are the in-universe pairs
    of the block, each the union of an edge of class one and one of class
    two.  The piece is not canonical; only the edge kernel reads it."""
    return RPartiteGraph((
        tuple(v for v in b.first.side_a if 0 <= v < n),
        tuple(v for v in b.first.side_b if 0 <= v < n),
        tuple(v + n for v in b.second.side_a if 0 <= v < n),
        tuple(v + n for v in b.second.side_b if 0 <= v < n),
    ))


def verify_blocks(bd: BlockDecomposition) -> BlockReport:
    """Exhaustively check that every ordered pair of 2-sets is covered once.

    On failure the witness is the first pair in lexicographic order covered
    other than once; when every pair is covered once, it is the smallest
    pair reaching outside 0..n-1."""
    n = bd.n
    total = binomial(n, 2) ** 2
    stray = [blk for blk in bd.blocks
             if not all(0 <= v < n for g in (blk.first, blk.second)
                        for v in g.side_a + g.side_b)]
    pieces = [_as_piece(blk, n) for blk in bd.blocks]
    masks = list(chain.from_iterable(map(edge_masks, pieces)))
    one = list(subset_masks(n, 2))
    found = first_miscovered(masks, map(sum, product(one, [m << n for m in one])), total)
    if found is None and not stray:
        return BlockReport(valid=True, block_count=len(bd.blocks), pair_count=total)
    if found is not None:
        e = edge_of_mask(found[0])
        witness = (e[:2], tuple(v - n for v in e[2:]))
        multiplicity = found[1]
    else:
        # Every in-universe pair is covered once, so the stray blocks must
        # add pairs outside the universe; such pairs have no mask.
        extra = [
            (e1, e2)
            for blk in stray
            for e1 in blk.first.edges()
            for e2 in blk.second.edges()
            if not all(0 <= v < n for v in e1 + e2)
        ]
        witness = min(extra)
        multiplicity = extra.count(witness)
    return BlockReport(
        valid=False,
        block_count=len(bd.blocks),
        pair_count=total,
        witness=witness,
        witness_multiplicity=multiplicity,
    )
