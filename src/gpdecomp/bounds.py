"""Exact evaluation of the bound formulas.

Everything on the comparison path is a Fraction or a big integer; the only
non-rational quantity is (14/15)**(r/4) for r not divisible by 4, which is
evaluated with decimal arithmetic at a fixed precision of 40 significant
digits (``DEFAULT_PRECISION``, stated in every report).

The headline coefficient for odd uniformity r = 2d+1 is

    (14/15)**floor(d/2) + d * (14/15)**floor((d-1)/2)

and the k-dependent correction is epsilon_k = d! * C' / k, where C' counts
the partitions of r into at most d-1 positive parts with exactly one odd
part.  C' is the sum of one table of partitions into at most d-2 parts,
``C'(r, d) = sum_{j=0}^{(r-1)/2} p_{<=d-2}(j)``, so it costs O(r*d) and
reaches d in the thousands.  The least d with coefficient < 1 is 147
(uniformity 295).

``lower_bound(n, r)`` is a certified lower bound on f_r(n) at a given n, in
integers: the trivial edge count, Graham-Pollak's inertia argument on the
Kneser matrix for even r, and the link bound f_r(n) >= f_{r-1}(n-1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Dict, Tuple

from .constructions import ClassLayout, FamilyTally, theorem1_routes
from .core import GroundSet

DENSITY_RATIO = Fraction(14, 15)
DEFAULT_PRECISION = 40
# The largest d the CLI evaluates without --allow-large.  The report's cost
# grows about quadratically in d (C' alone is O(r*d) big-integer additions):
# on a 2-core host with Python 3.11 it took 0.04 / 0.16 / 0.4 / 0.7-0.8 s at
# d = 1000 / 2000 / 3000 / 4000, and 1.1 s at d = 5000, while a full scan
# 1..4000 took 0.35 s.  Refusing above the cap keeps a mistyped d from
# running for many minutes before it prints anything.
SOFT_CAP_D = 4000


@dataclass(frozen=True)
class BoundReport:
    d: int
    k: int
    r: int
    theorem1_coefficient: Fraction  # without the epsilon_k correction
    epsilon_k: Fraction
    c_prime: int
    alon_lower_coefficient: Fraction
    corollary2_value: Decimal
    precision_digits: int
    coefficient_below_one: bool


def count_c_prime(r: int, d: int) -> int:
    """Partitions of r into at most d-1 positive parts with exactly one odd
    part.

    With r odd such a partition splits uniquely into its single odd part o
    and a partition of j = (r - o)/2 into at most d-2 parts (the halved even
    parts), and j runs over 0..(r-1)/2 as o runs over the odd numbers up to
    r.  So ``C'(r, d) = sum_{j=0}^{(r-1)/2} p_{<=d-2}(j)``, read off one
    bounded-partition table in O(r*d) big-integer additions.  An even r, an
    r below 1 or a d below 2 gives 0."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d < 2 or r < 1 or r % 2 == 0:
        return 0
    half = (r - 1) // 2
    # table[j] = partitions of j into parts of size at most `part` so far,
    # which by conjugation is partitions of j into at most that many parts
    table = [1] + [0] * half
    for part in range(1, min(d - 2, half) + 1):
        for j in range(part, half + 1):
            table[j] += table[j - part]
    return sum(table)


def base_coefficient(d: int) -> Fraction:
    """(14/15)**floor(d/2) + d*(14/15)**floor((d-1)/2), exact."""
    return DENSITY_RATIO ** (d // 2) + d * DENSITY_RATIO ** ((d - 1) // 2)


def corollary2_value(r: int) -> Decimal:
    """(r/2) * (14/15)**(r/4) to DEFAULT_PRECISION significant digits."""
    if r < 2:
        raise ValueError("need r >= 2")
    with localcontext() as ctx:
        ctx.prec = DEFAULT_PRECISION
        q = Decimal(14) / Decimal(15)
        return Decimal(r) / 2 * (q.ln() * Decimal(r) / 4).exp()


def corollary2_below_one(r: int) -> bool:
    """Exact rational test of (r/2)*(14/15)**(r/4) < 1.

    Compares fourth powers: r**4 * 14**r < 2**4 * 15**r.  Nothing in the
    package calls it; it stays because it states the paper's Corollary 2
    claim that the decay bound is below 1 from r = 295 on, which the
    acceptance tests check exactly."""
    return r**4 * 14**r < 16 * 15**r


def corollary2_decreasing_at(r: int) -> bool:
    """Exact test that the bound strictly decreases from r to r+1.

    Nothing in the package calls it; it stays because it states the paper's
    Corollary 2 claim that the decay bound decreases, which the acceptance
    tests check exactly."""
    # ((r+1)/r)**4 * (14/15) < 1  <=>  14*(r+1)**4 < 15*r**4
    return 14 * (r + 1) ** 4 < 15 * r**4


def alon_lower_coefficient(r: int) -> Fraction:
    """2 / binomial(2*floor(r/2), floor(r/2)).

    Asymptotic coefficient only; carries no guarantee for any particular n.
    ``lower_bound(n, r)`` gives a certified lower bound at a given n."""
    if r < 2:
        raise ValueError("need r >= 2")
    h = r // 2
    return Fraction(2, comb(2 * h, h))


def _max_piece_edges(n: int, r: int) -> int:
    """The most r-subsets one complete r-partite piece on 0..n-1 covers: the
    product of r part sizes summing to n, as equal as they can be."""
    q, s = divmod(n, r)
    return (q + 1) ** s * q ** (r - s)


def _kneser_inertia_bound(n: int, h: int) -> int:
    """ceil(2*max(n_+, n_-) / C(2h, h)) for the Kneser matrix on the
    h-subsets of 0..n-1, n >= 2h.

    Its eigenvalues are (-1)^i C(n-h-i, h-i), i = 0..h, none zero when
    n >= 2h, with multiplicity C(n, i) - C(n, i-1).  A piece contributes a
    sum of C(2h, h)/2 matrices x y^T + y x^T, each of inertia (1, 1), and the
    pieces' contributions sum to the Kneser matrix."""
    signs = [0, 0]  # multiplicities of the positive and negative eigenvalues
    for i in range(h + 1):
        signs[i % 2] += comb(n, i) - (comb(n, i - 1) if i else 0)
    return -(-2 * max(signs) // comb(2 * h, h))


def lower_bound(n: int, r: int) -> Tuple[int, str]:
    """A certified lower bound on f_r(n), the fewest complete r-partite
    pieces partitioning the r-subsets of 0..n-1, and the kind of its proof.

    In integers only, the best of:

    - ``trivial``: ceil(C(n, r) / _max_piece_edges(n, r));
    - ``inertia``, for even r = 2h: Graham-Pollak's argument on the Kneser
      matrix (``2*max(n_+, n_-) / C(2h, h)``; n - 1 at r = 2);
    - ``link``: either of the two at (n-j, r-j) for j = 1..r-1, because the
      pieces holding one vertex, with its part deleted, partition
      K_{n-1}^(r-1), so f_r(n) >= f_{r-1}(n-1).

    On a tie the smallest j wins, and at equal j ``trivial`` beats
    ``inertia``.  At r = 3 the link to r = 2 gives n - 2, which the baseline
    construction meets."""
    GroundSet(n, r)  # raises unless 1 <= r <= n
    best, kind = 0, "trivial"
    for j in range(r):
        m, s = n - j, r - j
        terms = [("trivial", -(-comb(m, s) // _max_piece_edges(m, s)))]
        if s % 2 == 0:
            terms.append(("inertia", _kneser_inertia_bound(m, s // 2)))
        for name, value in terms:
            if value > best:
                best, kind = value, name if j == 0 else "link"
    return best, kind


def theorem1_coefficient(d: int, k: int) -> BoundReport:
    """Full bound report for uniformity r = 2d+1 split into k classes."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    r = 2 * d + 1
    cp = count_c_prime(r, d)
    coef = base_coefficient(d)
    return BoundReport(
        d=d,
        k=k,
        r=r,
        theorem1_coefficient=coef,
        epsilon_k=Fraction(factorial(d) * cp, k),
        c_prime=cp,
        alon_lower_coefficient=alon_lower_coefficient(r),
        corollary2_value=corollary2_value(r),
        precision_digits=DEFAULT_PRECISION,
        coefficient_below_one=coef < 1,
    )


def threshold_d() -> int:
    """Least d with base_coefficient(d) < 1, by exact rational comparison
    (147: the search ends there)."""
    d = 1
    while base_coefficient(d) >= 1:
        d += 1
    return d


def predicted_family_tallies(
    n: int,
    k: int,
    d: int,
    block_count_fn: Callable[[int], int] = lambda n: (n - 1) ** 2,
) -> Dict[str, int]:
    """Exact per-family piece counts the class-split construction produces
    with the baseline sub-decompositions and the given block provider size.

    Walks the construction's own routes and multiplies closed-form factor
    sizes: block_count_fn(n) per class pair and the baseline count
    C(n - ceil(s/2), floor(s/2)) per (class, size) factor."""
    g = block_count_fn(n)
    tallies = asdict(FamilyTally())
    for route in theorem1_routes(ClassLayout(k=k, n=n), 2 * d + 1):
        tallies[route.family] += g ** len(route.pairs) * prod(
            comb(n - (s + 1) // 2, s // 2) for _, s in route.singles
        )
    return tallies

