"""Exhaustive verification that a decomposition partitions all r-subsets.

This is the oracle the whole toolkit leans on.  A :class:`Decomposition`
carries the piece rule, so each edge mask from :func:`gpdecomp.core.edge_masks`
is an r-subset of 0..n-1 and the coverage verdict
:func:`gpdecomp.core.first_miscovered` over those r-subsets decides.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Optional, Tuple

from .core import (
    Decomposition, Edge, binomial, edge_masks, edge_of_mask, first_miscovered, subset_masks,
)

# ``gpdecomp verify`` refuses, unless --allow-large, a file whose header
# asks for more: the verifier's memory is set by the header's n and r, not
# by the file's size (a 30-byte file naming n = 20000 peaked at 26 MiB,
# growing as n^2).  Baseline (40,7), 18.6M edges, is within the caps.
SOFT_CAP_N = 1024
SOFT_CAP_EDGES = 20_000_000


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


def verify_decomposition(d: Decomposition) -> VerificationReport:
    """Check the edge census and exact single coverage of every r-subset.
    On failure the report carries the first bad edge in lexicographic order,
    its multiplicity, and the covering piece indices."""
    n, r = d.ground.n, d.ground.r
    total = binomial(n, r)
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

    A valid decomposition yields exactly {1: binomial(n, r)}."""
    counts = Counter(Counter(chain.from_iterable(map(edge_masks, d.pieces))).values())
    missing = binomial(d.ground.n, d.ground.r) - sum(counts.values())
    if missing:
        counts[0] = missing
    return dict(counts)
