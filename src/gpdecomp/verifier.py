"""Exhaustive verification that a decomposition partitions all r-subsets.

This is the oracle the whole toolkit leans on.  A :class:`Decomposition`
carries the piece rule, so each piece's edges are r-subsets of 0..n-1.  The
coverage verdict :func:`gpdecomp.core.first_miscovered` counts them without
listing one: each edge is keyed by one rule, the edge less its lowest end
vertex, its highest, or both (the middle, when both ends of the pieces hold
runs of several vertices); a key's value holds one bit per end, or pair of
ends, covered, and a piece adds its edges a run at each keyed end at a
time.  Pieces that all end in one vertex t above their others, as at even
r in the baseline and even-from-odd constructions, are checked one t at a
time by the same kernel, under the rule its docstring states.  A
decomposition whose census is C(n, r) with no bit set twice is
accepted; any other is rejected with the first r-subset not covered exactly
once, found among the over-covered edges counted as the walk meets them,
each key's missing ends and, only when some key has none, the first such
key in lexicographic order, and with the coverage histogram, in ascending
multiplicity, from the census and the over-covered edges; the r-subsets
themselves are never walked.

A rejected decomposition's edges are counted once: a reject keeps its
report and its histogram, a few small objects, on the instance, and
:func:`verify_decomposition` and :func:`coverage_histogram` both read them
from there, so a histogram after a verify, or a verify after a histogram,
counts no edge again.  The instance is frozen and its constructor refuses
pieces in anything but a tuple, so they cannot go stale.  An accept keeps
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Optional, Tuple

from .core import Decomposition, Edge, edge_of_mask, first_miscovered

# ``gpdecomp verify`` refuses, unless --allow-large, a file whose header
# asks for more: the verifier's memory is set by the header's n and r, not
# by the file's size.  It follows the keys, not the edges: baseline (40,7),
# 18.6M edges, is within the caps and is keyed by its 0.5M middles; an
# accept and a reject with the last piece deleted peak at about 77 MiB
# (ru_maxrss; 0.3 s and 0.7 s, Python 3.11 on a 2-core x86-64 host), where
# its 3.3M stubs took about 390 MiB and a list of every edge 1.5 GiB.  A
# middle's value has up to n^2 bits, so past n = 1024 the stubs are kept.
# Baseline (34,8), 18.2M edges, is checked one top vertex at a time
# (first_miscovered): 0.9M middles over all t, peaking at about 51 MiB in an
# accept, a reject with the last piece deleted and one with a vertex moved
# into a top part (0.35 s, 0.4 s and 0.4 s CPU for the kernel), where its
# 4.3M whole-input stubs took about 400 MiB (2 s to accept, 4 s to reject).
# A reject that looks for an absent key lists the n vertex bits, growing
# as n^2: a 37-byte file naming n = 20000 with one edge peaked at 26 MiB.
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


# The instance __dict__ key of a reject's report and histogram.
_KEPT = "_coverage"


def _coverage(d: Decomposition) -> Tuple[VerificationReport, Dict[int, int]]:
    """The report and histogram of ``d``: kept on the instance for a
    reject, built fresh for an accept."""
    kept = d.__dict__.get(_KEPT)
    if kept is not None:
        return kept
    n, r = d.ground.n, d.ground.r
    total = comb(n, r)
    found = first_miscovered(d.pieces, n, r)
    if found is None:
        return VerificationReport(True, len(d.pieces), total, total), {1: total}
    e = edge_of_mask(found[0])
    # The r parts are disjoint and e has r vertices, so a piece covers e
    # exactly when every part meets it.
    meets = frozenset(e).isdisjoint
    hits = tuple(i for i, p in enumerate(d.pieces) if not any(map(meets, p.parts)))
    report = VerificationReport(
        False,
        len(d.pieces),
        total,
        sum(m * k for m, k in found[2].items()),  # each edge once per cover
        message=f"edge {e} covered {len(hits)} times",
        witness=e,
        witness_multiplicity=len(hits),
        witness_pieces=hits,
    )
    kept = d.__dict__[_KEPT] = (report, found[2])
    return kept


def verify_decomposition(d: Decomposition) -> VerificationReport:
    """Check the edge census and exact single coverage of every r-subset.
    On failure the report carries the first bad edge in lexicographic order,
    its multiplicity, and the covering piece indices."""
    return _coverage(d)[0]


def coverage_histogram(d: Decomposition) -> Dict[int, int]:
    """Map multiplicity -> number of edges covered that many times.

    A valid decomposition yields exactly {1: C(n, r)}."""
    return dict(_coverage(d)[1])
