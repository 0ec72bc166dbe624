"""Block decompositions: partitions of E(K_n) x E(K_n) into products of
complete bipartite graphs.

A block is an ordered product of two complete bipartite graphs, the first
over class one and the second over class two (both classes of size n, with
class-local labels 0..n-1).  A bipartite factor is a two-part
:class:`~gpdecomp.core.RPartiteGraph`, and :class:`BlockDecomposition`
applies the one piece rule, :func:`~gpdecomp.core.piece_problem` with r = 2,
to every distinct factor when it is built: each factor has two disjoint
ascending sides of 0..n-1, the side with the smaller minimum first.  The
main construction places a block on its classes ci < cj, class one shifted
up by ci*n and class two by cj*n, so one block decomposition serves every
class pair, and the four parts so placed are canonical as they stand.

:func:`verify_blocks` counts through the product structure instead of placing
blocks: the layer is a partition exactly when, for every edge e1 of K_n, the
second factors of the blocks whose first factor holds e1 partition E(K_n).
It checks each distinct such group of second factors once, in the order of
e1, so its witness is still the lexicographically first bad pair; it costs
the first factors' edges plus C(n,2) per distinct group, and at worst (every
group distinct) the C(n,2)^2 pairs themselves.

Any function ``n -> BlockDecomposition`` can serve as a block provider for
the main construction, which rejects with ``ValueError`` an output that is
not for n or fails :func:`verify_blocks`; :func:`construct_trivial_blocks`
is the default with (n-1)^2 blocks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Dict, List, Optional, Tuple

from .core import (
    RPartiteGraph, edge_masks, edge_of_mask, first_miscovered, piece_problem, subset_masks,
)


@dataclass(frozen=True)
class Block:
    """Product of the edge sets of two complete bipartite graphs, each a
    two-part piece."""

    first: RPartiteGraph
    second: RPartiteGraph


@dataclass(frozen=True)
class BlockDecomposition:
    """Claimed partition of E(K_n) x E(K_n); check it with verify_blocks.

    Built only for an int n >= 1, from a tuple of blocks whose factors pass
    the piece rule for r = 2 over 0..n-1; anything else raises ValueError,
    for a factor naming the first bad one, as ``block i first factor has
    <problem>`` (or ``second``)."""

    n: int
    blocks: Tuple[Block, ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ValueError(f"need int n, got n={self.n}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if not isinstance(self.blocks, tuple):
            raise ValueError(f"a {type(self.blocks).__name__} for the blocks, not a tuple")
        # Each distinct factor object once, by identity: the trivial blocks
        # reuse n-1 stars, and a parsed layer shares its equal halves.
        checked = set()
        for i, blk in enumerate(self.blocks):
            for side, g in (("first", blk.first), ("second", blk.second)):
                if id(g) not in checked:
                    problem = piece_problem(g.parts, self.n, 2)
                    if problem is not None:
                        raise ValueError(f"block {i} {side} factor has {problem}")
                    checked.add(id(g))


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


def construct_trivial_blocks(n: int) -> BlockDecomposition:
    """The (n-1)^2 ordered products of the star partition of E(K_n) with
    itself: its n-1 bipartite graphs ({i}, {i+1..n-1}), each one object
    shared by the blocks that hold it."""
    if n < 2:
        raise ValueError("need n >= 2")
    stars = [RPartiteGraph(((i,), tuple(range(i + 1, n)))) for i in range(n - 1)]
    return BlockDecomposition(n=n, blocks=tuple(Block(s1, s2) for s1, s2 in product(stars, stars)))


def verify_blocks(bd: BlockDecomposition) -> BlockReport:
    """Exhaustively check that every ordered pair of 2-sets is covered once.

    On failure the witness is the first pair in lexicographic order covered
    other than once.

    A pair (e1, e2) is covered once by each block whose first factor holds
    e1 and whose second factor holds e2, so the blocks partition the pairs
    exactly when, for every e1, the second factors of the blocks whose first
    factor holds e1 (its group) partition E(K_n).  One walk over the blocks
    records each e1's group as indices of distinct factors; then each e1, in
    lexicographic order, has its group checked through the coverage kernel,
    with the verdict cached by the group's tuple of indices.  The first e1
    whose group fails, with the group's first e2 covered other than once, is
    the lexicographically first bad pair, as a scan of all pairs would find.

    Each distinct factor's edges are built once, so the cost is the sum of
    the first factors' sizes plus one C(n,2) check per distinct group; at
    worst, every group distinct, that is the C(n,2)^2 pair census itself.
    """
    n = bd.n
    edges = comb(n, 2)
    # Each distinct factor object to its index in masks; the layer holds its
    # factors, so their ids are stable for the call.
    index: Dict[int, int] = {}
    masks: List[List[int]] = []

    def edges_of(g: RPartiteGraph) -> int:
        i = index.get(id(g))
        if i is None:
            i = index[id(g)] = len(masks)
            masks.append(edge_masks(g))
        return i

    groups: Dict[int, List[int]] = defaultdict(list)
    for blk in bd.blocks:
        j = edges_of(blk.second)
        for e1 in masks[edges_of(blk.first)]:
            groups[e1].append(j)
    verdicts: Dict[Tuple[int, ...], Optional[Tuple[int, int, Dict[int, int]]]] = {}
    for e1 in subset_masks(n, 2):
        key = tuple(groups.get(e1, ()))
        if key not in verdicts:
            verdicts[key] = first_miscovered(
                list(map(masks.__getitem__, key)), subset_masks(n, 2), edges)
        bad = verdicts[key]
        if bad is not None:
            return BlockReport(False, len(bd.blocks), edges ** 2,
                               (edge_of_mask(e1), edge_of_mask(bad[0])), bad[1])
    return BlockReport(True, len(bd.blocks), edges ** 2)
