import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from kahlerimm.scalars import MAX_EXPONENT, CScalar, as_fraction, \
    format_fraction, parse_fraction, parse_ratio

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


def test_as_fraction_coercions():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/7") == Fraction(2, 7)
    assert as_fraction(Fraction(-5, 3)) == Fraction(-5, 3)
    with pytest.raises(TypeError):
        as_fraction(1.5)


def test_basic_arithmetic():
    a = CScalar(1, 2)
    b = CScalar("1/2", "-1/3")
    assert a + b == CScalar(Fraction(3, 2), Fraction(5, 3))
    assert a * b == CScalar(Fraction(1, 2) + Fraction(2, 3),
                            Fraction(1) - Fraction(1, 3))
    assert (a / b) * b == a
    assert a.conj() == CScalar(1, -2)
    assert a.abs2() == 5


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CScalar(1) / CScalar(0)


@given(rationals, rationals, rationals, rationals)
def test_format_injective(a, b, c, d):
    x, y = CScalar(a, b), CScalar(c, d)
    assert (x.format() == y.format()) == (x == y)


@given(rationals, rationals, rationals, rationals)
def test_mul_conjugation_compatibility(a, b, c, d):
    x = CScalar(a, b)
    y = CScalar(c, d)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).abs2() == x.abs2() * y.abs2()


def test_format_fraction():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(-1, 8)) == "-1/8"


def test_format_fraction_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = format_fraction(Fraction(-10 ** 5000, 3))
    assert text == "-1" + "0" * 5000 + "/3"
    assert sys.get_int_max_str_digits() == limit


def test_as_fraction_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")


def outcome(parse, text):
    """(value, None) or (None, exception class and message) of parse(text)."""
    try:
        return parse(text), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, (type(exc), str(exc))


def exponent(text):
    """The integer that ends ``text`` after an ``e`` or ``E``, as the
    exponent of Fraction's grammar is written, or 0."""
    match = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    return int(match.group(1)) if match else 0


# tokens over the characters of Fraction's grammar and its neighbours:
# signs, '/', a decimal point, exponents, '_', spaces, non-ASCII digits
tokens = st.text(alphabet="0123456789-+/._eE \u0661\u00b2", max_size=8) | \
    st.builds(lambda p, q, slash: f"{p}/{q}" if slash else str(p),
              st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6),
              st.booleans())


@given(tokens)
@example("+3")
@example(" 3 ")
@example("0.5")
@example("1e3")
@example("1_0")
@example("\u0661")
@example("\u00b2")
@example("1/0")
@example("-5/0")
@example("1/-2")
@example("--1")
@example("-")
@example("")
@example("1/")
@example("/2")
@example("007/010")
@example("9" * 5000)
@example("0E600000")
@example("1e4300")
@example("1E-4301")
@example("1e4_301 ")
@example("1e-20000000")
@example("1e \u0665\u0660\u0660\u0660")
@example("1e\u0665\u0660\u0660\u0660")
def test_parse_fraction_is_fraction_of_str(text):
    if abs(exponent(text)) > MAX_EXPONENT:
        # Fraction would build ten to that power: not called
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            parse_ratio(text)
        return
    # the same value, or the same exception class and message
    assert outcome(parse_fraction, text) == outcome(Fraction, text)
    # the ratio it is read through has a positive denominator
    ratio, _ = outcome(parse_ratio, text)
    assert ratio is None or ratio[1] > 0
