import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerimm.radial import RSeries
from kahlerimm.series import graded_order
from oracles import binomial

frac_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)
# coefficients with denominators up to 5 or up to 60
wide_st = st.one_of(frac_st, st.fractions(min_value=-4, max_value=4,
                                          max_denominator=60))


def zero_constant_st(d=5):
    return st.lists(frac_st, min_size=0, max_size=d).map(
        lambda cs: RSeries.univariate([Fraction(0)] + cs, d))


def test_constructors_and_access():
    s = RSeries.univariate([1, "1/2", 0, -3])
    assert s.d == 3
    assert s.ucoeff(1) == Fraction(1, 2)
    assert s.ucoeff(2) == 0
    assert s.constant_term() == 1
    x = RSeries.var(2, 3, 1)
    assert x.get((0, 1)) == 1 and x.get((1, 0)) == 0


def test_truncation_rules():
    s = RSeries.univariate([0, 1, 1, 1])
    assert s.truncate(1).coeffs == {(1,): Fraction(1)}
    with pytest.raises(ValueError):
        s.truncate(9)
    with pytest.raises(ValueError):
        RSeries(1, 1, {(2,): Fraction(1)})


def test_geometric_series():
    x = RSeries.var(1, 5)
    inv = x.pow1p(-1)  # 1/(1+x)
    for j in range(6):
        assert inv.ucoeff(j) == Fraction((-1) ** j)
    assert inv * (RSeries.constant(1, 5, 1) + x) == RSeries.constant(1, 5, 1)


@settings(max_examples=30)
@given(zero_constant_st())
def test_exp_log_inverse(a):
    assert (a.exp() - RSeries.constant(1, a.d, 1)).log1p() == a


@settings(max_examples=30)
@given(zero_constant_st(), frac_st, frac_st)
def test_pow1p_additivity(a, e1, e2):
    assert a.pow1p(e1) * a.pow1p(e2) == a.pow1p(e1 + e2)


def test_derivative_integrate():
    s = RSeries.univariate([0, 0, 1, 2])  # x^2 + 2x^3
    d = s.derivative()
    assert d.ucoeff(1) == 2 and d.ucoeff(2) == 6
    assert d.integrate() == s
    # integrate drops the top-degree slice rather than extending
    top = RSeries.univariate([0, 0, 0, 1])
    assert top.integrate() == RSeries.zero(1, 3)


def test_shift_up():
    s = RSeries.univariate([1, 1], 3)
    t = s.shift_up()
    assert t.ucoeff(1) == 1 and t.ucoeff(2) == 1 and t.ucoeff(0) == 0


def test_pow_normalized():
    s = RSeries.univariate([4, 4, 1])  # (x+2)^2
    r = s.pow_normalized(2)
    assert r.ucoeff(0) == 16
    assert r.ucoeff(1) == 32
    assert r.ucoeff(2) == 24
    assert r.d == 2
    with pytest.raises(ValueError):
        s.pow_normalized(Fraction(1, 2))
    with pytest.raises(ValueError):
        RSeries.univariate([0, 1]).pow_normalized(2)


def test_pow_normalized_rational_exponent_at_unit_constant():
    s = RSeries.univariate([1, 1, 0, 0])  # 1 + x
    root = s.pow_normalized(Fraction(1, 2))
    assert root * root == s
    assert [root.ucoeff(j) for j in range(4)] == \
        [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]


def test_multivariate_product():
    x = RSeries.var(2, 2, 0)
    y = RSeries.var(2, 2, 1)
    p = (x + y) * (x - y)
    assert p.get((2, 0)) == 1 and p.get((0, 2)) == -1 and p.get((1, 1)) == 0


# ---------------------------------------------------------------------------
# the degree recurrence against the composition loop it replaced
# ---------------------------------------------------------------------------

def naive_product(a, b):
    """a * b term by term on ``Fraction`` arithmetic."""
    d = min(a.d, b.d)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= d:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return RSeries(a.nvars, d, out)


def power_sum(a, coeff_at):
    """sum_k coeff_at(k) a^k, truncated at a's degree, on ``Fraction``
    arithmetic throughout."""
    one = RSeries.constant(a.nvars, a.d, 1)
    out = one.scale(coeff_at(0))
    power = one
    for k in range(1, a.d + 1):
        power = naive_product(power, a)
        if not power.coeffs:
            break
        ck = coeff_at(k)
        if ck:
            out = out + power.scale(ck)
    return out


@st.composite
def rseries_st(draw, zero_constant=True):
    nvars = draw(st.integers(1, 2))
    d = draw(st.integers(0, 5))
    expos = [(i, j) if nvars == 2 else (i,)
             for i in range(d + 1) for j in range(d + 1 - i)
             if nvars == 2 or j == 0]
    if zero_constant:
        expos = [e for e in expos if sum(e)]
    if not expos:
        return RSeries.zero(nvars, d)
    return RSeries(nvars, d, draw(st.dictionaries(
        st.sampled_from(expos), wide_st, max_size=6)))


@settings(max_examples=40, deadline=None)
@given(rseries_st(), frac_st)
def test_recurrence_matches_power_sum(a, e):
    assert a.exp() == power_sum(a, lambda k: Fraction(1, math.factorial(k)))
    assert a.log1p() == power_sum(
        a, lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0))
    assert a.pow1p(e) == power_sum(a, binomial(e))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_matches_naive(data):
    a = data.draw(rseries_st(False))
    b = data.draw(rseries_st(False).filter(lambda s: s.nvars == a.nvars))
    assert a * b == naive_product(a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_jet_is_the_canonical_diagonal_of_the_coefficients(data):
    # x^e sits at the ordinal pair (j, j) of e, with a real coefficient, in
    # the canonical integer form; coeffs and get read the values back
    nvars = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(0, 5))
    order = graded_order(nvars, d)
    values = data.draw(st.dictionaries(st.sampled_from(order.basis), wide_st,
                                       max_size=8))
    s = RSeries(nvars, d, values)
    jet = s.jet
    assert (jet.n, jet.d) == (nvars, d) == (s.nvars, s.d)
    assert all(j == k and not im for (j, k), (_, im) in jet.nums.items())
    assert all(re for re, _ in jet.nums.values())
    assert math.gcd(jet.den, *itertools.chain(*jet.nums.values())) == 1
    nonzero = {e: c for e, c in values.items() if c}
    assert jet.den == math.lcm(*(c.denominator for c in nonzero.values()))
    assert {order.basis[j] for j, _ in jet.nums} == set(nonzero)
    assert s.coeffs == nonzero
    assert all(s.get(e) == values.get(e, 0) for e in order.basis)


@pytest.mark.parametrize("nvars,d,e", [(2, 3, (1,)), (1, 3, (1, 0)),
                                       (1, 3, (-1,)), (2, 3, (2, -1)),
                                       (1, 3, (4,)), (2, 3, (2, 2))])
def test_constructor_rejects_exponents_it_cannot_hold(nvars, d, e):
    # a wrong arity, a negative exponent or a degree over d
    with pytest.raises(ValueError):
        RSeries(nvars, d, {e: 1})
    if sum(e) > d:
        with pytest.raises(ValueError, match=f"exceeds degree {d}"):
            RSeries(nvars, d, {e: 1})


def test_recurrence_closes_a_slice_that_cancels_midway():
    # (1 + A)^(1/2) = (1 + x)(1 + x^3) for 1 + A = (1 + x)^2 (1 + x^3)^2:
    # in slice 2 the recurrence adds -x^2 and x^2, so that slice closes
    # empty and slices 3 and 4 build on it
    a = RSeries.univariate([0, 2, 1, 2, 4, 2, 1, 2, 1])
    assert a.pow1p(Fraction(1, 2)) == RSeries.univariate(
        [1, 1, 0, 1, 1, 0, 0, 0, 0])


def test_composition_rejects_constant_term():
    from kahlerimm.series import ConstantTermError
    a = RSeries.univariate([1, 1])
    for fn in (RSeries.exp, RSeries.log1p, lambda s: s.pow1p(2)):
        with pytest.raises(ConstantTermError):
            fn(a)
