import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerimm.bell import (bell_complete, bell_partial, cigar_limit,
                            cigar_scan)
from kahlerimm.radial import RSeries

from oracles import cigar_exp


def bell_table_reference(n, xs):
    """The Fraction recurrence as a reference: rows[m][k] = B_{m,k}(xs),
    B_{m,k} = sum_{i=1}^{m-k+1} C(m-1, i-1) x_i B_{m-i,k-1}, with terms
    past the end of ``xs`` left out."""
    rows = [[Fraction(1)]]
    for m in range(1, n + 1):
        row = [Fraction(0)]
        for k in range(1, m + 1):
            row.append(sum((math.comb(m - 1, i - 1) * xs[i - 1]
                            * rows[m - i][k - 1]
                            for i in range(1, min(m - k + 1, len(xs)) + 1)),
                           Fraction(0)))
        rows.append(row)
    return rows


@st.composite
def small_rationals(draw):
    return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 60)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(small_rationals(), max_size=n + 1))))
def test_bell_matches_fraction_reference(case):
    # argument lists run from empty to one past n, so most are shorter
    # than n and exercise the truncation rule
    n, xs = case
    rows = bell_table_reference(n, xs)
    for k in range(n + 2):
        if k > n:
            assert bell_partial(n, k, xs) == 0
        elif k >= 1 and len(xs) < n - k + 1:
            with pytest.raises(ValueError):
                bell_partial(n, k, xs)
        else:
            assert bell_partial(n, k, xs) == rows[n][k]
    if len(xs) >= n:
        assert bell_complete(n, xs) == sum(rows[n][1:], Fraction(0))
    else:
        with pytest.raises(ValueError):
            bell_complete(n, xs)


def test_partial_examples():
    assert bell_partial(3, 2, [1, 1]) == 3
    assert bell_partial(0, 0, []) == 1
    assert bell_partial(3, 0, [1, 1, 1]) == 0
    assert bell_partial(2, 3, [1]) == 0
    x1, x2 = Fraction(2), Fraction(-1, 3)
    assert bell_complete(2, [x1, x2]) == x1 * x1 + x2


def test_complete_zero_convention():
    assert bell_complete(0, []) == 0


def test_known_quartic_value():
    assert bell_complete(
        4, [-1, Fraction(-1, 2), Fraction(-2, 3), Fraction(-3, 2)]) == \
        Fraction(-1, 12)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partial_against_partition_oracle(n):
    rng = random.Random(n)
    xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    totals = {}
    for part in _set_partitions(list(range(n))):
        k = len(part)
        prod = Fraction(1)
        for block in part:
            prod *= xs[len(block) - 1]
        totals[k] = totals.get(k, Fraction(0)) + prod
    for k in range(1, n + 1):
        assert bell_partial(n, k, xs) == totals.get(k, Fraction(0))


def test_scaling_identities():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
              for _ in range(n - k + 1)]
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = [a * b ** i * x for i, x in enumerate(xs, start=1)]
        assert bell_partial(n, k, scaled) == \
            a ** k * b ** n * bell_partial(n, k, xs)


def test_exponential_formula():
    # n-th coefficient of exp(sum a_j x^j) equals Y_n(1! a_1, ...)/n!
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randint(1, 7)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(d)]
        s = RSeries.univariate([Fraction(0)] + coeffs, d)
        e = s.exp()
        for n in range(1, d + 1):
            args = [math.factorial(j) * coeffs[j - 1]
                    for j in range(1, n + 1)]
            assert e.ucoeff(n) == bell_complete(n, args) / math.factorial(n)


def test_complete_bell_at_size_30():
    # independent O(n^2) recurrence Y_{m+1} = sum_k C(m, k) x_{k+1} Y_{m-k},
    # Y_0 = 1; the integers of the table run to hundreds of digits here
    xs = [Fraction((-1) ** j, j) for j in range(1, 31)]
    ys = [Fraction(1)]
    for m in range(30):
        ys.append(sum((math.comb(m, k) * xs[k] * ys[m - k]
                       for k in range(m + 1)), Fraction(0)))
    assert bell_complete(30, xs) == ys[30]
    assert bell_partial(30, 30, xs) == xs[0] ** 30
    assert bell_partial(30, 1, xs) == xs[29]


def test_bell_input_validation():
    with pytest.raises(ValueError):
        bell_partial(-1, 0, [])
    with pytest.raises(ValueError):
        bell_partial(4, 2, [1])
    with pytest.raises(ValueError):
        bell_complete(-1, [])


# ---------------------------------------------------------------------------
# cigar scan
# ---------------------------------------------------------------------------

def test_cigar_scan_unit_scale():
    scan = cigar_scan(1, 6)
    assert scan.first_negative_n == 4
    assert scan.y_value == Fraction(-1, 12)
    assert scan.coefficient == Fraction(-1, 288)
    assert scan.coefficients[0] == 1
    assert len(scan.coefficients) == 6


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2)])
def test_cigar_scan_at_size_24_matches_exp_recurrence(c):
    # n E_n = sum_k k a_k E_{n-k} for E = exp(c D), D = sum (-1)^{j+1} x^j/j^2
    a = [Fraction(0)] + [c * (-1) ** (j + 1) / (j * j) for j in range(1, 25)]
    e = [Fraction(1)]
    for n in range(1, 25):
        e.append(sum((k * a[k] * e[n - k] for k in range(1, n + 1)),
                     Fraction(0)) / n)
    first = next(n for n in range(1, 25) if e[n] < 0)
    scan = cigar_scan(c, 24)
    assert scan.coefficients == tuple(e[1:])
    # the series route: exp of the diagonal as a univariate RSeries
    expd = cigar_exp(c, 24)
    assert scan.coefficients == tuple(expd.ucoeff(n) for n in range(1, 25))
    assert scan.first_negative_n == first
    assert scan.coefficient == e[first]
    assert scan.y_value == (-1) ** first * math.factorial(first) * e[first]


def test_cigar_scan_small_scale_has_no_low_negative():
    # tiny c: the linear term dominates every early coefficient
    scan = cigar_scan(Fraction(1, 100), 4)
    assert scan.first_negative_n is None or scan.first_negative_n > 4 \
        or scan.coefficient < 0
    # and the verdict is consistent with the stored coefficients
    if scan.first_negative_n is not None:
        assert scan.coefficients[scan.first_negative_n - 1] < 0


def test_cigar_scan_validation():
    with pytest.raises(ValueError):
        cigar_scan(0, 4)
    with pytest.raises(ValueError):
        cigar_scan(1, 0)


def test_cigar_limit():
    lim = cigar_limit(1, 12)
    lo, hi = lim.enclosure
    assert lo < hi
    assert hi - lo < Fraction(1, 10 ** 20)
    # the exact partial sum approaches the closed-form float limit
    assert abs(float(lim.partial_sum) - lim.float_value) < 1e-6
    with pytest.raises(ValueError):
        cigar_limit(1, 0)
    with pytest.raises(ValueError):
        cigar_limit(-1000, 2)
    # float(10**400) overflows; e^(-c pi^2/6) has long underflowed to 0
    assert cigar_limit(10 ** 400, 2).float_value == 1.0
    assert cigar_limit(Fraction(1, 10 ** 400), 2).float_value == 0.0
