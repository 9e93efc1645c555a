"""Exact Gaussian-rational scalars and the result records: the values a
caller passes in and reads out.

A series or a matrix stores its values as Gaussian integers over one
denominator (``series.integer_form``); a ``CScalar`` is the form a value
takes where it is parsed from a caller or printed back, with exact
``fractions.Fraction`` parts.  Nothing here ever rounds.  The package's
records (verdicts, witnesses, maps, catalog entries, commands) are
``Record`` subclasses.

Type aliases are quoted, here and in every module of the package: under
``from __future__ import annotations`` only annotations read them, and
those are never evaluated, while a subscripted ``typing`` alias would be
built by every CLI process at import.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import itemgetter
from typing import Dict, Tuple, TypeAlias

RationalLike: TypeAlias = "int | str | Fraction"


# the largest exponent magnitude ``parse_ratio`` reads: the digit limit that
# ``int()`` applies to a plain digit token (4300 by default)
MAX_EXPONENT = 4300


def parse_ratio(text: str) -> Tuple[int, int]:
    """(p, q) with q > 0 and p / q the value ``Fraction(text)`` reads, not
    always in lowest terms; or the exception ``Fraction(text)`` raises, or
    ``ValueError`` for an exponent past ``MAX_EXPONENT``.

    A token ``[-]digits[/digits]`` of ASCII digits, the form every rational
    kahlerimm prints takes, with a nonzero denominator, is read with
    ``int()``, which skips the regular expression ``Fraction`` matches a
    string with, and the gcd that puts it in lowest terms.  A token that
    ends in an exponent (``e`` or ``E``, then an integer that ``int()``
    reads, with no space before it) past ``MAX_EXPONENT`` in magnitude
    raises ``ValueError``: ``Fraction`` would build ten to that power, a
    number of as many digits.  Any other token (a '+' sign, spaces, a
    decimal point, a smaller exponent, '_' separators, non-ASCII digits,
    no digits, or a zero denominator) is handed to ``Fraction(text)``, so
    the accepted grammar and every other error are those of ``Fraction``.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if text.isascii() and digits.isdigit() and (den.isdigit() or not slash):
        q = int(den) if slash else 1
        if q:
            return int(num), q
    mark = max(text.rfind("e"), text.rfind("E"))
    if mark >= 0 and not text[mark + 1:mark + 2].isspace():
        try:
            exponent = int(text[mark + 1:])
        except ValueError:  # not an exponent: Fraction reports the token
            exponent = 0
        if abs(exponent) > MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} "
                             f"in magnitude")
    value = Fraction(text)
    return value.numerator, value.denominator


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``: the same value, or the same exception, save for
    an exponent past ``MAX_EXPONENT`` (``parse_ratio``)."""
    return Fraction(*parse_ratio(text))


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and ``p/q`` strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_fraction(q: Fraction) -> str:
    """Canonical ``p/q`` (or ``p`` when the denominator is 1), exact at any
    size: ``str(q)``, see ``format_ratio``."""
    return format_ratio(q.numerator, q.denominator)


def format_ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den`` without building
    the Fraction: num / den in lowest terms, ``p/q``, or ``p`` when the
    denominator is 1.  Exact at any size: past the interpreter's int-to-str
    digit limit (4300 by default) the limit is lifted for this one
    conversion."""
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(num) if den == 1 else f"{num}/{den}"
        finally:
            sys.set_int_max_str_digits(limit)


class Record(tuple):
    """An immutable record: a tuple whose fields are also attributes.

    A subclass names its fields in order, and the defaults of its last
    fields, in its class statement, and keeps ``__slots__ = ()``::

        class Target(Record, fields="kind b", defaults=(None,)):
            __slots__ = ()

    It is built from positional or keyword fields, compares and hashes as
    the plain tuple of its fields, and prints as ``Name(field=value, ...)``,
    as a ``collections.namedtuple`` does; but no ``__new__`` is compiled
    per class, a cost every CLI process would pay at import.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _field_defaults: Dict[str, object] = {}

    def __init_subclass__(cls, fields: str, defaults: tuple = ()):
        cls._fields = tuple(fields.split())
        cls._field_defaults = dict(zip(reversed(cls._fields),
                                       reversed(defaults)))
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} "
                                f"fields but {len(args)} were given")
            values = list(args)
            for name in fields[len(args):]:
                if name in kwargs:
                    values.append(kwargs.pop(name))
                elif name in cls._field_defaults:
                    values.append(cls._field_defaults[name])
                else:
                    raise TypeError(f"{cls.__name__}() missing field "
                                    f"{name!r}")
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected or "
                                f"repeated fields {sorted(kwargs)}")
            args = values
        return tuple.__new__(cls, args)

    def __getnewargs__(self):
        # copy and pickle rebuild a record from its fields
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class CScalar:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CScalar is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def of(cls, value: "CScalar | RationalLike") -> "CScalar":
        if isinstance(value, CScalar):
            return value
        return cls(value)

    @classmethod
    def of_integers(cls, re: int, im: int, den: int) -> "CScalar":
        """(re + i im) / den for a positive ``den``: the value of one entry
        of a table in integer form."""
        return cls(Fraction(re, den), Fraction(im, den))

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- field operations ---------------------------------------------
    def __add__(self, other: "CScalar") -> "CScalar":
        other = CScalar.of(other)
        return CScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CScalar") -> "CScalar":
        other = CScalar.of(other)
        return CScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CScalar":
        return CScalar(-self.re, -self.im)

    def __mul__(self, other: "CScalar | RationalLike") -> "CScalar":
        other = CScalar.of(other)
        return CScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other: "CScalar | RationalLike") -> "CScalar":
        other = CScalar.of(other)
        n = other.abs2()
        if not n:
            raise ZeroDivisionError("division by zero CScalar")
        return CScalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conj(self) -> "CScalar":
        return CScalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|q|^2 = re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing ----------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CScalar(other)
        if not isinstance(other, CScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"CScalar({self.re!s}, {self.im!s})"

    # -- text form ----------------------------------------------------
    def format(self) -> str:
        """Render as ``p/q``, ``p/q i`` or ``p/q+p/q i`` (canonical)."""
        if not self.im:
            return format_fraction(self.re)
        if not self.re:
            return f"{format_fraction(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_fraction(self.re)}{sign}{format_fraction(abs(self.im))}i"
