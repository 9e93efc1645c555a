from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerimm.diastasis import b_transform, check_bochner_form, \
    normalize_to_diastasis
from kahlerimm.scalars import CScalar
from kahlerimm.series import BiSeries, GradedOrder, exp_series, \
    log1p_series


def test_normalize_drops_pure_rows():
    # (z + zbar)^2 = z^2 + 2|z|^2 + zbar^2 -> the canonical potential 2|z|^2
    phi = (BiSeries.term(1, 2, (2,), (0,))
           + BiSeries.term(1, 2, (1,), (1,), 2)
           + BiSeries.term(1, 2, (0,), (2,)))
    d = normalize_to_diastasis(phi)
    assert d == BiSeries.term(1, 2, (1,), (1,), 2)
    assert normalize_to_diastasis(d) == d  # idempotent


coeff_st = st.builds(
    CScalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=30)
@given(st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), coeff_st, max_size=4),
    st.dictionaries(st.integers(1, 5), coeff_st, max_size=3))
def test_gauge_invariance(coeffs, hol):
    """Adding h + conj(h) for holomorphic h never changes the result."""
    phi = BiSeries(2, 2, coeffs)
    gauge = BiSeries(2, 2, {(j, 0): c for j, c in hol.items()})
    gauge = gauge + BiSeries(2, 2, {(0, j): c.conj()
                                    for j, c in hol.items()})
    assert normalize_to_diastasis(phi + gauge) == normalize_to_diastasis(phi)


def test_bochner_check_accepts_space_forms():
    rho = BiSeries.zero(2, 3)
    for j in range(2):
        e = [0, 0]
        e[j] = 1
        rho = rho + BiSeries.term(2, 3, tuple(e), tuple(e))
    assert check_bochner_form(rho).is_bochner
    # log(1 + rho) normalized is also Bochner: corrections start at (2,2)
    d = normalize_to_diastasis(log1p_series(rho))
    assert check_bochner_form(d).is_bochner


def test_bochner_check_rejects_scaled_metric():
    half = BiSeries.term(1, 2, (1,), (1,), Fraction(1, 2))
    report = check_bochner_form(half)
    assert not report.is_bochner
    assert report.defect == ((1,), (1,), CScalar(Fraction(1, 2)))


def test_bochner_check_rejects_missing_diagonal():
    # identity on z_1 only: z_2 direction degenerate
    d = BiSeries.term(2, 2, (1, 0), (1, 0))
    report = check_bochner_form(d)
    assert not report.is_bochner
    mj, mk, c = report.defect
    assert mj == (0, 1) and mk == (0, 1) and c == CScalar(0)


def test_bochner_check_rejects_linear_cross_terms():
    d = BiSeries.term(1, 3, (1,), (1,)) + BiSeries.term(1, 3, (2,), (1,))
    assert not check_bochner_form(d).is_bochner


def test_b_transform_identity_at_zero():
    d = BiSeries.term(1, 3, (1,), (1,))
    assert b_transform(d, 0) is d


def test_b_transform_flat_source():
    # (e^rho - 1)/1 has diagonal 1/p! on |z|^{2p}
    rho = BiSeries.term(1, 4, (1,), (1,))
    t = b_transform(rho, 1)
    for p in range(1, 5):
        assert t.get_index((p,), (p,)) == \
            CScalar(Fraction(1, __import__("math").factorial(p)))
    assert t.get(0, 0) == CScalar(0)


@settings(max_examples=20)
@given(st.dictionaries(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), coeff_st, max_size=4),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]))
def test_b_transform_inverse(coeffs, b):
    d = BiSeries(2, 2, coeffs)
    t = b_transform(d, b)
    # inverse: log(1 + b t)/b
    back = log1p_series(t.scale(b)).scale(CScalar(1 / b))
    assert back == d


@st.composite
def fraction(draw, bound, max_den):
    q = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(-bound * q, bound * q)), q)


@st.composite
def complex_jet(draw):
    """A non-circular complex jet with zero constant term: any (j, k), with
    coefficient denominators up to 60."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    size = GradedOrder(n, d).size
    pairs = [(j, k) for j in range(size) for k in range(size) if j or k]
    coeff = st.builds(CScalar, fraction(5, 60), fraction(5, 60))
    if not pairs:
        return BiSeries.zero(n, d)
    return BiSeries(n, d, draw(st.dictionaries(
        st.sampled_from(pairs), coeff, max_size=6)))


@settings(max_examples=40, deadline=None)
@given(complex_jet(), fraction(3, 9).filter(bool))
def test_b_transform_matches_exp_reference(d, b):
    """The one-recurrence b-transform equals exp(b d), less its constant
    term, over b."""
    e = exp_series(d.scale(b))
    shifted = BiSeries(d.n, d.d, {jk: c for jk, c in e.coeffs.items()
                                  if jk != (0, 0)})
    assert b_transform(d, b) == shifted.scale(CScalar(1 / b))


def test_b_transform_requires_zero_constant():
    d = BiSeries(1, 2, {(0, 0): CScalar(1)})
    with pytest.raises(ValueError):
        b_transform(d, 1)
