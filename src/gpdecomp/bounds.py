"""Exact evaluation of the bound formulas.

Everything on the comparison path is a Fraction or a big integer; the only
non-rational quantity is (14/15)**(r/4) for r not divisible by 4, which is
evaluated with decimal arithmetic at a stated precision (default 40
significant digits).

The headline coefficient for odd uniformity r = 2d+1 is

    (14/15)**floor(d/2) + d * (14/15)**floor((d-1)/2)

and the k-dependent correction is epsilon_k = d! * C' / k, where C' counts
the partitions of r into at most d-1 positive parts with exactly one odd
part.  C' is the sum of one table of partitions into at most d-2 parts,
``C'(r, d) = sum_{j=0}^{(r-1)/2} p_{<=d-2}(j)``, so it costs O(r*d) and
reaches d in the thousands.  The least d with coefficient < 1 is 147
(uniformity 295).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Dict, Optional, Tuple

from .constructions import ClassLayout, FamilyTally, theorem1_routes

DENSITY_RATIO = Fraction(14, 15)
DEFAULT_PRECISION = 40


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
    corollary2_exact: Optional[Fraction]  # set when r/4 is an integer
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


def corollary2_value(r: int, precision: int = DEFAULT_PRECISION) -> Decimal:
    """(r/2) * (14/15)**(r/4) at the given number of significant digits."""
    if r < 2:
        raise ValueError("need r >= 2")
    with localcontext() as ctx:
        ctx.prec = precision
        q = Decimal(14) / Decimal(15)
        return Decimal(r) / 2 * (q.ln() * Decimal(r) / 4).exp()


def corollary2_exact(r: int) -> Optional[Fraction]:
    """Exact value of (r/2)*(14/15)**(r/4) when r/4 is an integer."""
    if r % 4 == 0:
        return Fraction(r, 2) * DENSITY_RATIO ** (r // 4)
    return None


def corollary2_below_one(r: int) -> bool:
    """Exact rational test of (r/2)*(14/15)**(r/4) < 1.

    Compares fourth powers: r**4 * 14**r < 2**4 * 15**r."""
    return r**4 * 14**r < 16 * 15**r


def corollary2_decreasing_at(r: int) -> bool:
    """Exact test that the bound strictly decreases from r to r+1."""
    # ((r+1)/r)**4 * (14/15) < 1  <=>  14*(r+1)**4 < 15*r**4
    return 14 * (r + 1) ** 4 < 15 * r**4


def alon_lower_coefficient(r: int) -> Fraction:
    """2 / binomial(2*floor(r/2), floor(r/2)).

    Asymptotic coefficient only; carries no guarantee for any particular n."""
    if r < 2:
        raise ValueError("need r >= 2")
    h = r // 2
    return Fraction(2, comb(2 * h, h))


def theorem1_coefficient(d: int, k: int, precision: int = DEFAULT_PRECISION) -> BoundReport:
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
        corollary2_value=corollary2_value(r, precision),
        corollary2_exact=corollary2_exact(r),
        precision_digits=precision,
        coefficient_below_one=coef < 1,
    )


def threshold_d(limit: int = 1000) -> int:
    """Least d with base_coefficient(d) < 1, by exact rational comparison."""
    for d in range(1, limit + 1):
        if base_coefficient(d) < 1:
            return d
    raise RuntimeError(f"no threshold found up to d={limit}")


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


def predicted_theorem1_count(
    n: int,
    k: int,
    d: int,
    block_count_fn: Callable[[int], int] = lambda n: (n - 1) ** 2,
) -> Tuple[int, int]:
    """(exact construction piece count, looser case-split bookkeeping bound).

    The first number replicates the construction's own counting.  The second
    evaluates the coarse per-case bound with g = block_count_fn(n) and with
    the unnamed constant term replaced by the exact generic-family tally, so
    exact <= bookkeeping always holds."""
    r = 2 * d + 1
    tallies = predicted_family_tallies(n, k, d, block_count_fn)
    exact = sum(tallies.values())
    g = block_count_fn(n)
    cp = count_c_prime(r, d)
    if d % 2 == 0:
        main = comb(k, d) * g ** (d // 2)
        second = d * comb(k, d) * n**2 * g ** ((d - 2) // 2)
    else:
        main = comb(k, d) * n * g ** ((d - 1) // 2)
        second = d * comb(k, d) * n * g ** ((d - 1) // 2)
    bookkeeping = main + second + cp * k ** (d - 1) * n**d + tallies["generic"]
    return exact, bookkeeping
