"""Block decompositions: partitions of E(K_n) x E(K_n) into products of
complete bipartite graphs.

A block is an ordered product of two complete bipartite graphs, the first
over class one and the second over class two (both classes of size n, with
class-local labels 0..n-1).  :class:`BlockDecomposition` applies the piece
rule to every bipartite factor when it is built, so each side holds distinct
vertices of 0..n-1 and the two sides are disjoint.  :func:`block_to_four_parts`
is the one placement: it shifts class one and class two up by two offsets, so
one block decomposition serves every class pair of the main construction, and
:func:`verify_blocks` checks a block as the piece placed at offsets 0 and n.

Any function ``n -> BlockDecomposition`` can serve as a block provider for
the main construction, which rejects with ``ValueError`` an output that is
not for n or fails :func:`verify_blocks`; :func:`construct_trivial_blocks`
is the default with (n-1)^2 blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from typing import List, Optional, Tuple

from .core import (
    RPartiteGraph, binomial, edge_masks, edge_of_mask, first_miscovered, piece_problem, subset_masks,
)


@dataclass(frozen=True)
class BipartiteGraph:
    """Complete bipartite graph: all 2-sets with one vertex per side."""

    side_a: Tuple[int, ...]
    side_b: Tuple[int, ...]


@dataclass(frozen=True)
class Block:
    """Product of the edge sets of two complete bipartite graphs."""

    first: BipartiteGraph
    second: BipartiteGraph


@dataclass(frozen=True)
class BlockDecomposition:
    """Claimed partition of E(K_n) x E(K_n); check it with verify_blocks.

    Built only from bipartite factors passing the piece rule over 0..n-1;
    anything else raises ValueError with the first factor's problem."""

    n: int
    blocks: Tuple[Block, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        # Each distinct factor once: the trivial blocks reuse n-1 stars.
        for g in dict.fromkeys(chain.from_iterable((b.first, b.second) for b in self.blocks)):
            problem = piece_problem((g.side_a, g.side_b), self.n)
            if problem is not None:
                raise ValueError(problem)


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


def block_to_four_parts(b: Block, one: int, two: int) -> Tuple[Tuple[int, ...], ...]:
    """The one placement of a block: its four sides, class one shifted up by
    ``one`` and class two by ``two``.

    When the shifted classes do not overlap, the 4-sets taking one vertex per
    part are exactly the pairs (e1, e2) of the block.
    """
    return (
        tuple(v + one for v in b.first.side_a),
        tuple(v + one for v in b.first.side_b),
        tuple(v + two for v in b.second.side_a),
        tuple(v + two for v in b.second.side_b),
    )


def verify_blocks(bd: BlockDecomposition) -> BlockReport:
    """Exhaustively check that every ordered pair of 2-sets is covered once.

    On failure the witness is the first pair in lexicographic order covered
    other than once."""
    n = bd.n
    total = binomial(n, 2) ** 2
    count = len(bd.blocks)
    # Class two shifted up by n makes each block a four-part piece on 2n
    # vertices whose edges are its pairs, all inside the pair universe; the
    # pairs in lexicographic order are those 4-sets in lexicographic order.
    pieces = [RPartiteGraph(block_to_four_parts(blk, 0, n)) for blk in bd.blocks]
    masks = list(chain.from_iterable(map(edge_masks, pieces)))
    if len(masks) == total and len(set(masks)) == total:
        return BlockReport(True, count, total)
    one = list(subset_masks(n, 2))
    # Not accepted, so some pair is covered other than once.
    bad, times = first_miscovered(
        Counter(masks), map(sum, product(one, [m << n for m in one])), total)
    e = edge_of_mask(bad)
    return BlockReport(False, count, total, (e[:2], tuple(v - n for v in e[2:])), times)
