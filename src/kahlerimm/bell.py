"""Exact Bell polynomials and the cigar-metric obstruction scan.

The partial Bell polynomials B_{n,k} are computed by the standard
convolution recurrence in one integer table per argument list: the
arguments are put over their common denominator D, and since B_{n,k} is
homogeneous of degree k the table holds the integers D^k B_{n,k}(x); one
``Fraction`` is built per returned value.  The complete polynomials
Y_n = sum_k B_{n,k} govern the Taylor coefficients of exp of a power
series, which is exactly how they enter the cigar analysis: the |z|^{2n}
coefficient of e^{c D} - 1 for the cigar diastasis equals
(-1)^n Y_n(a~)/n! with a~_j = -c j!/j^2.  The scan computes that
coefficient along both routes (Bell recurrence and direct series
exponentiation) and insists they agree.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .radial import RSeries
from .scalars import RationalLike, Record, as_fraction


def _bell_rows(n: int, xs: Sequence[Fraction], kmax: Optional[int] = None
               ) -> Tuple[int, List[List[int]]]:
    """Integer partial Bell table ``(D, rows)`` over one denominator.

    D is the lcm of the denominators of ``xs`` and X_i = D x_i; then
    ``rows[m][k] = B_{m,k}(X) = D^k B_{m,k}(x)`` for 0 <= k <= min(m, kmax).
    Recurrence: B_{m,k} = sum_{i=1}^{m-k+1} C(m-1, i-1) X_i B_{m-i,k-1},
    with B_{0,0} = 1 and B_{m,0} = 0 for m >= 1.  B_{m,k} reads
    X_1..X_{m-k+1} only; terms past the end of ``xs`` are left out, so
    ``rows[m][k]`` is exact whenever m - k < len(xs).
    """
    den = math.lcm(*(x.denominator for x in xs))
    big = [x.numerator * (den // x.denominator) for x in xs]
    top = n if kmax is None else kmax
    rows: List[List[int]] = [[1]]
    for m in range(1, n + 1):
        # the weights C(m-1, i-1) X_i, shared by every column k of row m
        weights = [math.comb(m - 1, i) * big[i]
                   for i in range(min(m, len(big)))]
        row = [0]
        for k in range(1, min(m, top) + 1):
            row.append(sum(w * rows[m - 1 - i][k - 1]
                           for i, w in enumerate(weights[:m - k + 1])))
        rows.append(row)
    return den, rows


def _complete_numerator(row: Sequence[int], den: int) -> int:
    """sum_{k>=1} row[k] D^(n-k) for a full row n: D^n Y_n(x) as an int."""
    total = 0
    for value in row[1:]:
        total = total * den + value
    return total


def bell_partial(n: int, k: int, x: Sequence[RationalLike]) -> Fraction:
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}), exact."""
    if k < 0 or n < 0:
        raise ValueError("need n, k >= 0")
    if k > n:
        return Fraction(0)
    xs = [as_fraction(v) for v in x]
    if k >= 1 and len(xs) < n - k + 1:
        raise ValueError(f"need at least {n - k + 1} arguments")
    den, rows = _bell_rows(n, xs, k)
    return Fraction(rows[n][k], den ** k)


def bell_complete(n: int, x: Sequence[RationalLike]) -> Fraction:
    """Complete Bell polynomial Y_n = sum_{k=1}^n B_{n,k}.

    Convention: Y_0 = 0 here.  (Much of the combinatorial literature sets
    Y_0 = 1; the obstruction computations below never evaluate at n = 0,
    and this library follows the zero convention throughout.)
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return Fraction(0)
    xs = [as_fraction(v) for v in x]
    if len(xs) < n:
        raise ValueError(f"need at least {n} arguments")
    den, rows = _bell_rows(n, xs)
    return Fraction(_complete_numerator(rows[n], den), den ** n)


# ---------------------------------------------------------------------------
# cigar obstruction
# ---------------------------------------------------------------------------

class CigarScan(Record,
                fields="first_negative_n y_value coefficient coefficients"):
    """first_negative_n (int or None); y_value (Fraction or None): Y_n(a~)
    at the first negative n; coefficient (Fraction or None): the series
    coefficient there; coefficients (tuple of Fraction): the |z|^{2n}
    coefficients, n = 1..n_max."""

    __slots__ = ()


def cigar_scan(c: RationalLike, n_max: int) -> CigarScan:
    """Scan e^{c D} - 1 for a negative coefficient, dual-path.

    Route 1: coefficient_n = (-1)^n Y_n(a~)/n! with a~_j = -c j!/j^2.
    Route 2: direct exp of the diagonal diastasis as a univariate series.
    The two must agree exactly at every n <= n_max (internal oracle);
    disagreement raises.  Returns the smallest n with a negative
    coefficient (for even n this is exactly Y_n(a~) < 0).
    """
    c = as_fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a_tilde = [Fraction(-c) * math.factorial(j) / (j * j)
               for j in range(1, n_max + 1)]
    # route 2: univariate x = |z|^2 picture of the diagonal diastasis
    diag = RSeries(1, n_max, {(j,): Fraction((-1) ** (j + 1), j * j) * c
                              for j in range(1, n_max + 1)})
    expd = diag.exp()
    # route 1: Y_1..Y_{n_max} from one integer table of partial Bell
    # polynomials, D^n Y_n(a~) = sum_k rows[n][k] D^(n-k)
    den, rows = _bell_rows(n_max, a_tilde)
    coefficients: List[Fraction] = []
    first_n = None
    first_y = None
    first_coeff = None
    for n in range(1, n_max + 1):
        y = Fraction(_complete_numerator(rows[n], den), den ** n)
        via_bell = Fraction((-1) ** n) * y / math.factorial(n)
        via_exp = expd.ucoeff(n)
        if via_bell != via_exp:  # internal oracle
            raise AssertionError(
                f"dual-path disagreement at n={n}: {via_bell} vs {via_exp}")
        coefficients.append(via_exp)
        if first_n is None and via_exp < 0:
            first_n, first_y, first_coeff = n, y, via_exp
    return CigarScan(first_n, first_y, first_coeff, tuple(coefficients))


class CigarLimit(Record, fields="partial_sum enclosure float_value"):
    """partial_sum (Fraction): exact, with a rational midpoint for pi^2/6;
    enclosure (pair of Fraction): a rational enclosure of pi^2/6;
    float_value (float): 1 - exp(-c pi^2/6), a labeled float report."""

    __slots__ = ()


def _pi2_over_6_enclosure(terms: int = 40) -> Tuple[Fraction, Fraction]:
    """Rational enclosure of pi^2/6 via 3 sum_{j>=1} 1/(j^2 C(2j,j)).

    The term ratio is below 1/4, so the tail after the last term t is
    bounded by t/3; the enclosure width shrinks like 4^{-terms}.
    """
    total = Fraction(0)
    last = Fraction(0)
    for j in range(1, terms + 1):
        last = Fraction(3, j * j * math.comb(2 * j, j))
        total += last
    return total, total + last / 3


def cigar_limit(c: RationalLike, terms: int) -> CigarLimit:
    """Partial sums of sum_k (-1)^{k+1} c^k (pi^2/6)^k / k! -> 1-e^{-c pi^2/6}.

    The exact partial sum uses the midpoint of a tight rational enclosure
    of pi^2/6; the float report evaluates the closed-form limit.
    """
    c = as_fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    lo, hi = _pi2_over_6_enclosure()
    q = (lo + hi) / 2
    total = Fraction(0)
    for k in range(1, terms + 1):
        total += Fraction((-1) ** (k + 1)) * (c ** k) * (q ** k) \
            / math.factorial(k)
    try:
        scale = float(c)
    except OverflowError:  # c past the float range
        scale = math.inf
    # e^(-c pi^2/6) underflows to 0.0 for large c, so the report is 1.0
    float_value = 1.0 - math.exp(-scale * (math.pi ** 2) / 6.0)
    return CigarLimit(total, (lo, hi), float_value)
