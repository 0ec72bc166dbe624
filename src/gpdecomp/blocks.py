"""Block decompositions: partitions of E(K_n) x E(K_n) into products of
complete bipartite graphs.

A block is an ordered product of two complete bipartite graphs, the first
over class one and the second over class two (both classes of size n, with
class-local labels 0..n-1), held as the plain tuple ``(first, second)`` of
its factors.  A bipartite factor is a two-part
:class:`~gpdecomp.core.RPartiteGraph`, and :class:`BlockDecomposition`
applies the one piece rule, :func:`~gpdecomp.core.piece_problem` with r = 2,
to every distinct factor when it is built: each factor has two disjoint
ascending sides of 0..n-1, the side with the smaller minimum first; it
walks each distinct factor object once, with no per-block loop.  The main
construction places a block on its classes ci < cj, class one shifted
up by ci*n and class two by cj*n, so one block decomposition serves every
class pair, and the four parts so placed are canonical as they stand.

:func:`verify_blocks` counts through the product structure instead of placing
blocks: the layer is a partition exactly when, for every edge e1 of K_n, the
second factors of the blocks whose first factor holds e1 partition E(K_n).
It checks each distinct such group of second factors once, in the order of
e1, through the coverage kernel :func:`~gpdecomp.core.first_miscovered`,
so its witness is still the lexicographically first bad pair.  It costs one
pass over the blocks, the edges of each distinct first factor once, and one
kernel call per distinct group: at worst (every group distinct) on the order
of the C(n,2)^2 pairs themselves.

Any function ``n -> BlockDecomposition`` can serve as a block provider for
the main construction, which rejects with ``ValueError`` an output that is
not for n or fails :func:`verify_blocks`; :func:`construct_trivial_blocks`
is the default with (n-1)^2 blocks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, product
from math import comb
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .core import (
    RPartiteGraph, edge_masks, edge_of_mask, first_miscovered, piece_problem, subset_masks,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """Claimed partition of E(K_n) x E(K_n); check it with verify_blocks.

    Built only for an int n >= 1, from a tuple of blocks, each a tuple of
    two factors, RPartiteGraphs passing the piece rule for r = 2 over
    0..n-1; anything else raises ValueError naming the first bad block, as
    ``block i is a list, not a pair of factors`` or ``block i has 3 factors,
    expected 2``, or the first bad factor, as ``block i first factor has
    <problem>`` (or ``second``, or ``is a tuple, not an RPartiteGraph``).

    The check has no per-block loop.  One C-level test, the set of the
    blocks' types and then of their lengths, finds every block a pair; one
    C-level pass lists the factors, and a dict keyed by ``id`` keeps the
    distinct ones, each walked once, in block order.  The trivial blocks reuse n-1 stars, and a parsed layer
    shares its equal halves.  Only a refusal looks for the first bad block,
    or for the first block and side holding the bad object, which, the
    objects being walked in order of first appearance, is the first bad
    factor slot."""

    n: int
    blocks: Tuple[Tuple[RPartiteGraph, RPartiteGraph], ...]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ValueError(f"need int n, got n={self.n}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if not isinstance(self.blocks, tuple):
            raise ValueError(f"a {type(self.blocks).__name__} for the blocks, not a tuple")
        if not ({*map(type, self.blocks)} <= {tuple} and {*map(len, self.blocks)} <= {2}):
            i, blk = next((i, b) for i, b in enumerate(self.blocks)
                          if type(b) is not tuple or len(b) != 2)
            raise ValueError(f"block {i} has {len(blk)} factors, expected 2" if type(blk) is tuple
                             else f"block {i} is a {type(blk).__name__}, not a pair of factors")
        # every factor slot: block 0's first and second, then block 1's, ...
        slots = list(chain.from_iterable(self.blocks))
        for g in dict(zip(map(id, slots), slots)).values():
            try:
                problem = piece_problem(g.parts, self.n, 2)
                fault = problem and f"has {problem}"
            except AttributeError:
                fault = f"is a {type(g).__name__}, not an RPartiteGraph"
            if fault:
                k = next(k for k, h in enumerate(slots) if h is g)
                raise ValueError(f"block {k // 2} {('first', 'second')[k % 2]} factor {fault}")


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
    if type(n) is not int:
        raise ValueError(f"need int n, got n={n}")
    if n < 2:
        raise ValueError("need n >= 2")
    stars = [RPartiteGraph(((i,), tuple(range(i + 1, n)))) for i in range(n - 1)]
    return BlockDecomposition(n=n, blocks=tuple(product(stars, stars)))


def verify_blocks(bd: BlockDecomposition) -> BlockReport:
    """Exhaustively check that every ordered pair of 2-sets is covered once.

    On failure the witness is the first pair in lexicographic order covered
    other than once.

    A pair (e1, e2) is covered once by each block whose first factor holds
    e1 and whose second factor holds e2, so the blocks partition the pairs
    exactly when, for every e1, the second factors of the blocks whose first
    factor holds e1 (its group) partition E(K_n).  One pass over the blocks
    lists, for each distinct first factor object, its blocks' second
    factors; one pass over each distinct first factor's edges records the
    first factors holding each e1.  Then each e1, in lexicographic order, has
    its group checked through the coverage kernel, with the verdict cached by
    the tuple of first factors holding e1 and then by the group's content,
    so the trivial layer, whose n-1 first stars share one group, is checked
    once.  The first e1 whose group fails, with the group's first e2 covered
    other than once, is the lexicographically first bad pair, as a scan of
    all pairs would find.

    Only the distinct first factors' edges are listed, each once; a group's
    second factors go to the kernel, which counts their edges per stub
    without listing them, so the cost is one pass over the blocks, the
    distinct first factors' edges, and one kernel call per distinct group
    (one stub entry per star of the trivial layer); at worst, every group
    distinct, that is on the order of the C(n,2)^2 pair census.
    """
    n = bd.n
    edges = comb(n, 2)
    # Factors are keyed by object identity; the layer holds them, so their
    # ids are stable for the call.
    firsts = list(map(itemgetter(0), bd.blocks))
    ids = list(map(id, firsts))
    # Each distinct first factor to its blocks' second factors, in block order.
    seconds: Dict[int, List[RPartiteGraph]] = defaultdict(list)
    for f, (_, s) in zip(ids, bd.blocks):
        seconds[f].append(s)
    holders: Dict[int, List[int]] = defaultdict(list)  # e1 -> the first factors holding it
    for f, g in dict(zip(ids, firsts)).items():
        for e1 in edge_masks(g):
            holders[e1].append(f)
    # first_miscovered's verdicts, by the first factors holding e1 and by
    # the ids of the group's second factors
    by_holders: Dict[Tuple[int, ...], Optional[tuple]] = {}
    by_group: Dict[Tuple[int, ...], Optional[tuple]] = {}
    for e1 in subset_masks(n, 2):
        key = tuple(holders.get(e1, ()))
        if key not in by_holders:
            group = list(chain.from_iterable(map(seconds.__getitem__, key)))
            content = tuple(map(id, group))
            if content not in by_group:
                by_group[content] = first_miscovered(group, n, 2)
            by_holders[key] = by_group[content]
        bad = by_holders[key]
        if bad is not None:
            return BlockReport(False, len(bd.blocks), edges ** 2,
                               (edge_of_mask(e1), edge_of_mask(bad[0])), bad[1])
    return BlockReport(True, len(bd.blocks), edges ** 2)
