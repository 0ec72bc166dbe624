"""Exact evaluation of the bound formulas.

Everything on the comparison path is a Fraction or a big integer; the only
non-rational quantity is (14/15)**(r/4) for r not divisible by 4, which is
evaluated with decimal arithmetic at a fixed precision of 40 significant
digits (``DEFAULT_PRECISION``, stated in every report).

The headline coefficient for odd uniformity r = 2d+1 is

    (14/15)**floor(d/2) + d * (14/15)**floor((d-1)/2)

and the k-dependent correction is epsilon_k = d! * C' / k, where C' counts
the partitions of r into at most d-1 positive parts with exactly one odd
part.  C' is a sum of partition numbers into at most d-2 parts,
``C'(r, d) = sum_{j=0}^{(r-1)/2} p_{<=d-2}(j)``, read off the partition
numbers p(j) from Euler's pentagonal recurrence with the parts above d-2
divided out: O(d**1.5) big-integer additions at r = 2d+1.  The least d with
coefficient < 1 is 147 (uniformity 295), found in integers.

``predicted_family_tallies(n, k, d)`` counts the class-split construction's
pieces per family in closed form, without listing its routes: binomials and
powers of the block count for the two special profile shapes, and for the
rest the coefficient of z**r in F(z)**k, where F(z) = 1 + sum_s B(s) z**s
holds one class's baseline counts B(s) = C(n - ceil(s/2), floor(s/2)).

``lower_bound(n, r)`` is a certified lower bound on f_r(n) at a given n, in
integers: the trivial edge count, Graham-Pollak's inertia argument on the
Kneser matrix for even r, and the link bound f_r(n) >= f_{r-1}(n-1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Callable, Dict, List, Tuple

from .constructions import ClassLayout, FamilyTally
from .core import GroundSet

DENSITY_RATIO = Fraction(14, 15)
DEFAULT_PRECISION = 40
# The largest d the CLI evaluates without --allow-large.  The report's cost
# is mostly C', O(d**1.5) additions of numbers with O(sqrt(d)) digits: on a
# 2-core host with Python 3.11 theorem1_coefficient took 0.003 / 0.008 /
# 0.015 / 0.024 s at d = 1000 / 2000 / 3000 / 4000, and 0.1 / 0.35 / 1.1 s
# at d = 10,000 / 20,000 / 40,000, while a full scan 1..4000 took 0.29 s.
# Refusing above the cap keeps a mistyped d from running for many minutes
# before it prints anything.
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
    r.  So ``C'(r, d) = sum_{j=0}^{(r-1)/2} p_{<=d-2}(j)``.  By conjugation
    p_{<=d-2} counts partitions into parts of size at most d-2, whose series
    is ``P(x) * prod_{i >= d-1} (1 - x^i)`` with P the partition series.  So
    p(j) for j <= (r-1)/2 comes from Euler's pentagonal recurrence, and one
    pass per i = d-1..(r-1)/2 multiplies in (1 - x^i).  At r = 2d+1 that is
    O(d^1.5) big-integer additions.  An even r, an r below 1 or a d below 2
    gives 0."""
    if d < 1:
        raise ValueError("need d >= 1")
    if d < 2 or r < 1 or r % 2 == 0:
        return 0
    half = (r - 1) // 2
    # The generalized pentagonal numbers m(3m-1)/2 and m(3m+1)/2 up to half
    # (and a few past it), by the sign (-1)^(m+1) of p(j - them) in p(j).
    plus: List[int] = []
    minus: List[int] = []
    for m in range(1, isqrt(2 * half // 3) + 2):
        (plus if m % 2 else minus).extend((m * (3 * m - 1) // 2, m * (3 * m + 1) // 2))
    table = [1]  # table[j] = p(j)
    for j in range(1, half + 1):
        table.append(sum(table[j - g] for g in plus if g <= j)
                     - sum(table[j - g] for g in minus if g <= j))
    for part in range(d - 1, half + 1):  # times (1 - x^part): drop parts above d-2
        for j in range(half, part - 1, -1):
            table[j] -= table[j - part]
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
    """Least d with base_coefficient(d) < 1 (147: the search ends there).

    In integers: with a = floor(d/2) and b = floor((d-1)/2), multiplying
    base_coefficient(d) < 1 by 15**a gives
    ``14**a + d * 14**b * 15**(a-b) < 15**a``."""
    d = 1
    while True:
        a, b = d // 2, (d - 1) // 2
        if 14**a + d * 14**b * 15 ** (a - b) < 15**a:
            return d
        d += 1


def _times(a: List[int], b: List[int], degree: int) -> List[int]:
    """The product of two polynomials (coefficient lists, neither past
    z**degree) up to z**degree."""
    out = [0] * min(len(a) + len(b) - 1, degree + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:degree + 1 - i], i):
            out[j] += x * y
    return out


def _truncated_power(poly: List[int], k: int, degree: int) -> List[int]:
    """poly**k up to z**degree, by repeated squaring."""
    result = [1]
    while k:
        if k & 1:
            result = _times(result, poly, degree)
        k >>= 1
        if k:
            poly = _times(poly, poly, degree)
    return result


def predicted_family_tallies(
    n: int,
    k: int,
    d: int,
    block_count_fn: Callable[[int], int] = lambda n: (n - 1) ** 2,
) -> Dict[str, int]:
    """Exact per-family piece counts the class-split construction produces
    for r = 2d+1 over k classes of size n, with the baseline
    sub-decompositions and g = block_count_fn(n) blocks, counted in closed
    form without listing a route.

    Every class has the same providers, so a class meeting a profile in s
    vertices contributes B(s) = C(n - ceil(s/2), floor(s/2)) baseline
    pieces (0 for s > n), and with F(z) = 1 + sum_{s>=1} B(s) z**s:

    * paired = C(k, d) * g**floor(d/2) * B(2)**(d mod 2) when k > d: one
      route per choice of the d 2-classes, whose complement part takes the
      1 wherever it falls;
    * two_plus_three = k * C(k-1, d-1) * g**floor((d-1)/2) * B(2)**((d-1) mod 2) * B(3);
    * generic = [z**r] F(z)**k, the baseline product summed over every
      profile, less that product over the two shapes above, which the
      construction routes otherwise:
      C(k, d) * (k-d) * B(2)**d + k * C(k-1, d-1) * B(2)**(d-1) * B(3).

    The power is truncated at z**r and taken by squaring.  The count is
    independent of the construction's routes; the tests and the benchmark
    check it against the construction's own tallies."""
    if type(d) is not int:
        raise ValueError(f"need int d, got d={d}")
    if d < 1:
        raise ValueError("need d >= 1")
    ClassLayout(k=k, n=n)  # raises unless k and n are ints >= 1
    r = 2 * d + 1
    if r > k * n:
        raise ValueError("r exceeds ground set size")
    g = block_count_fn(n)

    def baseline(s: int) -> int:  # B(s); B(0) = 1
        return comb(n - (s + 1) // 2, s // 2) if s <= n else 0

    two, three = baseline(2), baseline(3)
    # No 2-class fits in a class of one vertex, whatever g is.
    paired = comb(k, d) * g ** (d // 2) * two ** (d % 2) if k > d and n >= 2 else 0
    two_plus_three = k * comb(k - 1, d - 1) * g ** ((d - 1) // 2) * two ** ((d - 1) % 2) * three
    # F has degree min(n, r) and k * n >= r, so the power reaches z**r.
    everything = _truncated_power([baseline(s) for s in range(min(n, r) + 1)], k, r)[r]
    return asdict(FamilyTally(
        paired_two_classes=paired,
        two_plus_three=two_plus_three,
        generic=everything - comb(k, d) * (k - d) * two**d
        - k * comb(k - 1, d - 1) * two ** (d - 1) * three,
    ))
