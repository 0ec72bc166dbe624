"""Exhaustive verification that a decomposition partitions all r-subsets.

This is the oracle the whole toolkit leans on.  Once every piece has r parts
and passes :func:`gpdecomp.core.piece_problem`, each edge mask from
:func:`gpdecomp.core.edge_masks` is an r-subset of 0..n-1, so the coverage
verdict :func:`gpdecomp.core.first_miscovered` over those r-subsets decides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Tuple

from .core import (
    Decomposition,
    Edge,
    RPartiteGraph,
    binomial,
    edge_masks,
    edge_of_mask,
    first_miscovered,
    piece_problem,
    subset_masks,
)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    piece_count: int
    edge_count: int
    census: int  # sum of piece edge counts; equals edge_count when valid
    message: str = ""
    witness: Optional[Edge] = None
    witness_multiplicity: Optional[int] = None
    witness_pieces: Tuple[int, ...] = ()


def _structural_problem(d: Decomposition) -> Optional[str]:
    n, r = d.ground.n, d.ground.r
    for i, p in enumerate(d.pieces):
        if len(p.parts) != r:
            return f"piece {i} has {len(p.parts)} parts, expected {r}"
        problem = piece_problem(p.parts, n)
        if problem is not None:
            return f"piece {i} has {problem}"
    return None


def verify_decomposition(d: Decomposition) -> VerificationReport:
    """Check structure, the edge census, and exact single coverage of every
    r-subset.  On failure the report carries the first bad edge in
    lexicographic order, its multiplicity, and the covering piece indices."""
    n, r = d.ground.n, d.ground.r
    total = binomial(n, r)
    problem = _structural_problem(d)
    if problem is not None:
        census = sum(p.edge_count for p in d.pieces)
        return VerificationReport(False, len(d.pieces), total, census, message=problem)
    masks = list(chain.from_iterable(map(edge_masks, d.pieces)))
    census = len(masks)  # one mask per edge of each piece
    found = first_miscovered(masks, subset_masks(n, r), total)
    if found is None:
        return VerificationReport(True, len(d.pieces), total, census)
    e = edge_of_mask(found[0])
    # The r parts are disjoint and e has r vertices, so a piece covers e
    # exactly when every part meets it.
    meets = frozenset(e).isdisjoint
    hits = tuple(i for i, p in enumerate(d.pieces) if not any(map(meets, p.parts)))
    return VerificationReport(
        False,
        len(d.pieces),
        total,
        census,
        message=f"edge {e} covered {len(hits)} times",
        witness=e,
        witness_multiplicity=len(hits),
        witness_pieces=hits,
    )


def coverage_histogram(d: Decomposition) -> Dict[int, int]:
    """Map multiplicity -> number of edges covered that many times.

    Only r-subsets of 0..n-1 are counted, so pieces with the wrong number of
    parts, overlapping parts or out-of-range vertices add nothing for their
    stray edges.  A valid decomposition yields exactly {1: binomial(n, r)}."""
    n, r = d.ground.n, d.ground.r
    masks = chain.from_iterable(map(edge_masks, d.pieces))
    if _structural_problem(d) is not None:
        # Dropping out-of-range vertices leaves exactly the edges inside
        # 0..n-1.  With r parts, a vertex repeated across parts makes the
        # sum carry, so its masks have fewer than r bits.
        inside = [
            RPartiteGraph(tuple(tuple(v for v in part if 0 <= v < n) for part in p.parts))
            for p in d.pieces
            if len(p.parts) == r
        ]
        masks = (m for m in chain.from_iterable(map(edge_masks, inside)) if m.bit_count() == r)
    counts = Counter(Counter(masks).values())
    missing = binomial(n, r) - sum(counts.values())
    if missing:
        counts[0] = missing
    return dict(counts)
