"""Block decompositions: partitions of E(K_n) x E(K_n) into products of
complete bipartite graphs.

A block is an ordered product of two complete bipartite graphs, the first
over class one and the second over class two (both classes of size n, with
class-local labels 0..n-1).  :func:`block_to_four_parts` is the one
placement: it shifts class one and class two up by two offsets, so one block
decomposition serves every class pair of the main construction, and
:func:`verify_blocks` checks a block as the piece placed at offsets 0 and n.

Any function ``n -> BlockDecomposition`` can serve as a block provider for
the main construction, which rejects with ``ValueError`` an output that is
not for n or fails :func:`verify_blocks`; :func:`construct_trivial_blocks`
is the default with (n-1)^2 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import List, Optional, Tuple

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

    @property
    def message(self) -> str:
        """The witness in words, like ``VerificationReport.message``; empty when valid."""
        if self.valid:
            return ""
        return f"pair {self.witness} covered {self.witness_multiplicity} times"


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


def block_to_four_parts(b: Block, n: int, one: int, two: int) -> Tuple[Tuple[int, ...], ...]:
    """The one placement of a block: four parts holding its side vertices
    inside 0..n-1, class one shifted up by ``one`` and class two by ``two``.

    When the shifted classes do not overlap, the 4-sets taking one vertex per
    part are exactly the in-universe pairs (e1, e2) of the block.
    """
    return (
        tuple(v + one for v in b.first.side_a if 0 <= v < n),
        tuple(v + one for v in b.first.side_b if 0 <= v < n),
        tuple(v + two for v in b.second.side_a if 0 <= v < n),
        tuple(v + two for v in b.second.side_b if 0 <= v < n),
    )


def verify_blocks(bd: BlockDecomposition) -> BlockReport:
    """Exhaustively check that every ordered pair of 2-sets is covered once.

    On failure the witness is the first pair in lexicographic order covered
    other than once; when every pair is covered once, it is the smallest
    pair reaching outside 0..n-1."""
    n = bd.n
    total = binomial(n, 2) ** 2
    count = len(bd.blocks)
    # Class two shifted up by n makes each block a four-part piece on 2n
    # vertices whose edges are its in-universe pairs.
    pieces = [RPartiteGraph(block_to_four_parts(blk, n, 0, n)) for blk in bd.blocks]
    masks = list(chain.from_iterable(map(edge_masks, pieces)))
    one = list(subset_masks(n, 2))
    found = first_miscovered(masks, map(sum, product(one, [m << n for m in one])), total)
    if found is not None:
        e = edge_of_mask(found[0])
        return BlockReport(False, count, total, (e[:2], tuple(v - n for v in e[2:])), found[1])
    # Every in-universe pair is covered once, so only blocks reaching outside
    # 0..n-1 can add pairs, and such pairs have no mask.
    extra = [
        (e1, e2)
        for blk in bd.blocks
        if not all(0 <= v < n for g in (blk.first, blk.second) for v in g.side_a + g.side_b)
        for e1 in blk.first.edges()
        for e2 in blk.second.edges()
        if not all(0 <= v < n for v in e1 + e2)
    ]
    if not extra:
        return BlockReport(True, count, total)
    witness = min(extra)
    return BlockReport(False, count, total, witness, extra.count(witness))
