"""The integer form every series stores, against ``CScalar`` arithmetic.

A ``BiSeries``, and each holomorphic factor of an immersion ``Component``,
holds one positive denominator and a dict of Gaussian-integer numerators.
Each public operation must give the values that the term-by-term
``CScalar`` oracles of ``oracles.py`` give, its result must be canonical
(den the lcm of the reduced denominators, so gcd(den, every part) = 1, and
no (0, 0) entry), so that equal values compare and hash equal, and a value
read back in lowest terms prints as ``str(Fraction)`` prints it, at any
size.
"""
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kahlerimm.immersion import factor_immersion
from kahlerimm.resolvability import build_matrix, calabi_series, \
    psd_certify
from kahlerimm.scalars import CScalar, format_fraction, format_ratio
from kahlerimm.series import BiSeries, GradedOrder, as_scalars, \
    det_series, exp_series, log1p_series, pow1p_series
from oracles import binomial, component, cs_add, cs_det, cs_dumps, \
    cs_nonzero, cs_power_sum, cs_product, cs_scale, cs_truncate, \
    exp_coefficient, log1p_coefficient, values_of


def assert_canonical(s):
    """den > 0 is the lcm of the reduced denominators of the values, no
    entry is (0, 0), and gcd(den, every part) = 1."""
    assert s.den > 0
    assert all(re or im for re, im in s.nums.values())
    assert math.gcd(s.den, *itertools.chain(*s.nums.values())) == 1
    values = as_scalars(s.den, s.nums).values()
    assert s.den == math.lcm(*(c.re.denominator for c in values),
                             *(c.im.denominator for c in values))


part_st = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)),
    st.just(Fraction(0)))
scalar_st = st.builds(CScalar, part_st, part_st)


@st.composite
def coeff_dicts(draw, n, d, zero_constant=False):
    """A dict of coefficients at ordinal pairs of degree <= d, zeros
    included."""
    size = GradedOrder(n, d).size
    pairs = [(j, k) for j in range(size) for k in range(size)
             if not (zero_constant and j == k == 0)]
    if not pairs:
        return {}
    return draw(st.dictionaries(st.sampled_from(pairs), scalar_st,
                                max_size=6))


@st.composite
def series_case(draw, zero_constant=False):
    """(n, d, coefficient dict) with n <= 3 and d <= 3."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    return n, d, draw(coeff_dicts(n, d, zero_constant))


@st.composite
def series_pair(draw):
    """(n, a, b): two series of one arity and possibly different degrees,
    with their coefficient dicts."""
    n = draw(st.integers(1, 3))
    da, db = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a, b = draw(coeff_dicts(n, da)), draw(coeff_dicts(n, db))
    return n, (BiSeries(n, da, a), cs_nonzero(a)), \
        (BiSeries(n, db, b), cs_nonzero(b))


@settings(max_examples=100, deadline=None)
@given(series_case())
def test_construction_keeps_the_values(case):
    n, d, coeffs = case
    s = BiSeries(n, d, coeffs)
    assert s.coeffs == cs_nonzero(coeffs)
    assert_canonical(s)
    for (j, k), c in coeffs.items():
        assert s.get(j, k) == c
    hol = {j: c for (j, _), c in coeffs.items()}
    f = component(1, hol)
    assert values_of(f) == cs_nonzero(hol)
    assert_canonical(f)


@settings(max_examples=100, deadline=None)
@given(series_pair())
def test_add_and_sub_match_cscalar_sums(case):
    n, (a, ca), (b, cb) = case
    d = min(a.d, b.d)
    for got, sign in ((a + b, 1), (a - b, -1)):
        assert got.d == d
        assert got.coeffs == cs_add(n, d, ca, cb, sign)
        assert_canonical(got)
    assert (-a).coeffs == cs_scale(ca, -1)


@settings(max_examples=100, deadline=None)
@given(series_case(), st.one_of(scalar_st, part_st, st.integers(-3, 3)))
def test_scale_matches_cscalar_products(case, factor):
    n, d, coeffs = case
    got = BiSeries(n, d, coeffs).scale(factor)
    assert got.coeffs == cs_scale(cs_nonzero(coeffs), factor)
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(series_pair())
def test_product_matches_the_term_by_term_product(case):
    n, (a, ca), (b, cb) = case
    got = a * b
    assert got.coeffs == cs_product(n, min(a.d, b.d), ca, cb)
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(series_case(), st.integers(0, 3))
def test_truncate_keeps_the_values_below(case, d):
    n, top, coeffs = case
    s = BiSeries(n, top, coeffs)
    if d > top:
        with pytest.raises(ValueError):
            s.truncate(d)
        return
    got = s.truncate(d)
    assert got.coeffs == cs_truncate(n, d, cs_nonzero(coeffs))
    assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(series_case(zero_constant=True),
       st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
def test_compositions_match_cscalar_power_sums(case, e):
    n, d, coeffs = case
    a, ca = BiSeries(n, d, coeffs), cs_nonzero(coeffs)
    for got, coeff_at in ((exp_series(a), exp_coefficient),
                          (log1p_series(a), log1p_coefficient),
                          (pow1p_series(a, e), binomial(e))):
        assert got.coeffs == cs_power_sum(n, d, ca, coeff_at)
        assert_canonical(got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_det_series_matches_the_cscalar_permutation_sum(data):
    size = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 2))
    degrees = [[data.draw(st.integers(0, 2)) for _ in range(size)]
               for _ in range(size)]
    cells = [[data.draw(coeff_dicts(n, dij)) for dij in row]
             for row in degrees]
    d = min(map(min, degrees))
    got = det_series([[BiSeries(n, dij, c) for dij, c in zip(drow, crow)]
                      for drow, crow in zip(degrees, cells)])
    assert got.d == d
    assert got.coeffs == cs_det(n, d, [[cs_nonzero(c) for c in row]
                                       for row in cells])
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(series_case(), st.booleans())
def test_hermitian_check_matches_the_conjugate_test(case, symmetrize):
    n, d, coeffs = case
    if symmetrize:
        coeffs = dict(coeffs)
        coeffs.update({(k, j): c.conj() for (j, k), c in coeffs.items()})
    values = cs_nonzero(coeffs)
    want = all(values.get((k, j), CScalar(0)) == c.conj()
               for (j, k), c in values.items())
    assert BiSeries(n, d, coeffs).is_hermitian() == want


@settings(max_examples=100, deadline=None)
@given(series_case())
@example((1, 1, {(1, 1): CScalar(Fraction(-3, 4), Fraction(5, 6)),
                 (0, 1): CScalar(Fraction(2), 0)}))
def test_dumps_prints_lowest_terms_and_loads_back(case):
    n, d, coeffs = case
    s = BiSeries(n, d, coeffs)
    text = s.dumps()
    assert text == cs_dumps(n, cs_nonzero(coeffs))
    if s.nums:
        assert BiSeries.loads(text, degree=d) == s


@settings(max_examples=60, deadline=None)
@given(series_pair(), scalar_st.filter(lambda c: not c.is_zero()))
def test_equal_values_compare_and_hash_equal(case, factor):
    n, (a, _), (b, _) = case
    d = min(a.d, b.d)
    ways = [a.truncate(d), (a + b) - b, a.truncate(d) + BiSeries.zero(n, d),
            (a * BiSeries.one(n, d)),
            a.scale(factor).scale(CScalar(1) / factor).truncate(d)]
    for other in ways[1:]:
        assert other == ways[0]
        assert hash(other) == hash(ways[0])
        assert (other.den, other.nums) == (ways[0].den, ways[0].nums)


def test_a_value_written_two_ways_is_stored_once():
    # 2/4 and 1/2 are one value; so are 1 - 1/2 and 1/2
    n, d = 1, 1
    half = BiSeries(n, d, {(1, 1): Fraction(1, 2)})
    assert half == BiSeries(n, d, {(1, 1): "2/4"})
    other = BiSeries(n, d, {(1, 1): 1, (1, 0): 1}) \
        - BiSeries(n, d, {(1, 1): Fraction(1, 2), (1, 0): 1})
    assert (other.den, other.nums) == (2, {(1, 1): (1, 0)})
    assert other == half and hash(other) == hash(half)


def test_pivot_columns_become_canonical_components():
    # sum |f_i|^2 over two unit-triangular maps with denominators 3 and 4
    n, d = 1, 3
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    f1 = {1: CScalar(1), 2: CScalar(third, third), 3: CScalar(quarter)}
    f2 = {2: CScalar(1), 3: CScalar(0, third)}
    jet = {}
    for f in (f1, f2):
        for j, cj in f.items():
            for k, ck in f.items():
                jet[(j, k)] = jet.get((j, k), CScalar(0)) + cj * ck.conj()
    series = BiSeries(n, d, jet)
    imm = factor_immersion(series, 0, d)
    verdict = psd_certify(build_matrix(calabi_series(series, 0, d), d))
    assert len(imm.components) == len(verdict.pivots) == 2
    for comp, pivot in zip(imm.components, verdict.pivots):
        assert comp.radicand == pivot.value
        assert values_of(comp) == {p + 1: c
                                   for p, c in pivot.column.items()}
        assert_canonical(comp)


@settings(max_examples=200)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
def test_format_ratio_prints_as_str_of_fraction(num, den):
    assert format_ratio(num, den) == str(Fraction(num, den))
    assert format_fraction(Fraction(num, den)) == str(Fraction(num, den))


def test_format_ratio_past_the_digit_limit():
    # 5,001 digits over 3 * 10^10 with a common factor of 7: the rendering
    # must be exact, equal to str(Fraction) with the limit lifted, and
    # must leave the limit as it was
    value = Fraction(10 ** 5000 + 1, 3 * 10 ** 10)
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000
    sys.set_int_max_str_digits(0)
    try:
        want = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert format_ratio(7 * value.numerator, 7 * value.denominator) == want
    assert format_fraction(value) == want
    assert sys.get_int_max_str_digits() == limit
    # a series holding that value prints it in its file format
    s = BiSeries(1, 1, {(1, 1): value})
    assert s.dumps() == f"1 ; 1 ; {want} ; 0\n"
