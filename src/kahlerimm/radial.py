"""Sparse real power series in radial variables, over exact rationals.

Used wherever a model is naturally a function of real quantities such as
x = |z|^2 or r = |z + conj(z)|: Hartogs profile functions F, the implicit
Taub-NUT inversion, and the tubular ODE solution.  Truncation is by total
degree.  Products and compositions run on integer numerators over one
common denominator, as in ``series``, and key a monomial by the Kronecker
code of its exponents (``series.GradedOrder``), so that the exponents of
a product are one integer addition.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

from .scalars import RationalLike, as_fraction
from .series import EXP_RULE, LOG1P_RULE, GradedOrder, Rule, \
    _degree_recurrence, _kronecker, graded_order, pow1p_rule

Expo = Tuple[int, ...]


class RSeries:
    """Truncated series sum c_e x^e over Fraction coefficients."""

    __slots__ = ("nvars", "d", "coeffs")

    def __init__(self, nvars: int, d: int,
                 coeffs: Dict[Expo, Fraction] | None = None):
        if nvars < 1 or d < 0:
            raise ValueError("need nvars >= 1, degree >= 0")
        clean: Dict[Expo, Fraction] = {}
        for e, c in (coeffs or {}).items():
            c = as_fraction(c)
            if not c:
                continue
            if sum(e) > d:
                raise ValueError(f"exponent {e} exceeds degree {d}")
            clean[tuple(e)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RSeries is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int, d: int) -> "RSeries":
        return cls(nvars, d, {})

    @classmethod
    def constant(cls, nvars: int, d: int, value: RationalLike) -> "RSeries":
        return cls(nvars, d, {(0,) * nvars: as_fraction(value)})

    @classmethod
    def var(cls, nvars: int, d: int, which: int = 0) -> "RSeries":
        e = [0] * nvars
        e[which] = 1
        return cls(nvars, d, {tuple(e): Fraction(1)})

    @classmethod
    def univariate(cls, coeffs: Sequence[RationalLike], d: int | None = None
                   ) -> "RSeries":
        """1-variable series from a coefficient list [c0, c1, ...]."""
        if d is None:
            d = len(coeffs) - 1
        return cls(1, d, {(j,): as_fraction(c)
                          for j, c in enumerate(coeffs) if j <= d})

    # -- access -------------------------------------------------------
    def get(self, e: Expo) -> Fraction:
        return self.coeffs.get(tuple(e), Fraction(0))

    def ucoeff(self, j: int) -> Fraction:
        """Univariate convenience: coefficient of x^j."""
        if self.nvars != 1:
            raise ValueError("ucoeff is univariate-only")
        return self.get((j,))

    def constant_term(self) -> Fraction:
        return self.get((0,) * self.nvars)

    # -- ring ---------------------------------------------------------
    def _check(self, other: "RSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars {self.nvars} != {other.nvars}")

    def __add__(self, other: "RSeries") -> "RSeries":
        self._check(other)
        d = min(self.d, other.d)
        out: Dict[Expo, Fraction] = {}
        for src in (self.coeffs, other.coeffs):
            for e, c in src.items():
                if sum(e) > d:
                    continue
                out[e] = out.get(e, Fraction(0)) + c
        return RSeries(self.nvars, d, out)

    def __neg__(self) -> "RSeries":
        return RSeries(self.nvars, self.d, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "RSeries") -> "RSeries":
        return self + (-other)

    def scale(self, factor: RationalLike) -> "RSeries":
        f = as_fraction(factor)
        return RSeries(self.nvars, self.d,
                       {e: c * f for e, c in self.coeffs.items()})

    def __mul__(self, other: "RSeries") -> "RSeries":
        self._check(other)
        d = min(self.d, other.d)
        acc: Dict[int, int] = {}
        (den_x, mine), (den_y, theirs) = self._slices(d), other._slices(d)
        for s1, x in mine.items():
            for s2, y in theirs.items():
                if s1 + s2 <= d:
                    _mul_add(acc, x, y, 1)
        return RSeries(self.nvars, d, _fractions(
            graded_order(self.nvars, d), den_x * den_y, acc))

    def _slices(self, d: int) -> Tuple[int, Dict[int, Dict[int, int]]]:
        """(D, the coefficients of degree <= d times D, grouped by total
        degree and keyed by the Kronecker codes of their exponents in base
        d + 1), for D the lcm of the coefficient denominators: integer
        slices, whose codes add as their exponents do while the total
        degree stays <= d."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        out: Dict[int, Dict[int, int]] = {}
        for e, c in self.coeffs.items():
            s = sum(e)
            if s <= d:
                out.setdefault(s, {})[_kronecker(e, d + 1)] = \
                    c.numerator * (den // c.denominator)
        return den, out

    def truncate(self, d: int) -> "RSeries":
        if d > self.d:
            raise ValueError("cannot extend truncation degree")
        return RSeries(self.nvars, d,
                       {e: c for e, c in self.coeffs.items() if sum(e) <= d})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RSeries):
            return NotImplemented
        return ((self.nvars, self.d) == (other.nvars, other.d)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.d, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"RSeries(nvars={self.nvars}, d={self.d}, {len(self.coeffs)} terms)"

    # -- calculus (univariate helpers used by the Hartogs criterion) ---
    def derivative(self, which: int = 0) -> "RSeries":
        return self._shift(which, -1, lambda p: p)

    def integrate(self, which: int = 0) -> "RSeries":
        """Antiderivative with zero constant; drops the top-degree slice."""
        return self._shift(which, 1, lambda p: Fraction(1, p + 1))

    def shift_up(self, which: int = 0) -> "RSeries":
        """Multiply by the variable ``which`` (drops the top slice)."""
        return self._shift(which, 1, lambda p: 1)

    def _shift(self, which: int, step: int,
               weight: Callable[[int], RationalLike]) -> "RSeries":
        """Each c x^e moved to the exponent e[which] + step, times
        weight(e[which]); terms leaving degrees 0..d are dropped."""
        out: Dict[Expo, Fraction] = {}
        for e, c in self.coeffs.items():
            p = e[which]
            if p + step < 0 or sum(e) + step > self.d:
                continue
            out[e[:which] + (p + step,) + e[which + 1:]] = c * weight(p)
        return RSeries(self.nvars, self.d, out)

    # -- transcendental ops (the degree recurrence of series.py) -------
    def exp(self) -> "RSeries":
        return self._compose(EXP_RULE)

    def log1p(self) -> "RSeries":
        return self._compose(LOG1P_RULE)

    def pow1p(self, e: RationalLike) -> "RSeries":
        """(1 + self)^e for a rational exponent."""
        return self._compose(pow1p_rule(as_fraction(e)))

    def _compose(self, rule: Rule) -> "RSeries":
        den_a, slices = self._slices(self.d)
        f = _degree_recurrence(slices, den_a, self.d, {0: 1}, rule,
                               _mul_add, _close)
        order = graded_order(self.nvars, self.d)
        coeffs: Dict[Expo, Fraction] = {}
        for den, part in f:
            coeffs.update(_fractions(order, den, part))
        return RSeries(self.nvars, self.d, coeffs)

    def pow_normalized(self, e: RationalLike) -> "RSeries":
        """self^e for a series with positive rational constant term c0;
        e must be an integer unless c0 = 1."""
        c0 = self.constant_term()
        if c0 <= 0:
            raise ValueError("pow_normalized needs a positive constant term")
        e = as_fraction(e)
        if e.denominator != 1 and c0 != 1:
            raise ValueError("non-integer exponent with non-unit constant term;"
                             " normalize the series first")
        body = (self.scale(Fraction(1) / c0)
                - RSeries.constant(self.nvars, self.d, 1))
        return body.pow1p(e).scale(c0 ** e.numerator)


def _mul_add(acc: Dict[int, int], x: Dict[int, int], y: Dict[int, int],
             w: int) -> None:
    """acc += w * x * y over integer slices keyed by Kronecker codes (no
    truncation: callers pass fitting slices, whose codes add without a
    carry)."""
    scaled = w != 1
    for e1, c1 in x.items():
        if scaled:
            c1 = c1 * w
        for e2, c2 in y.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def _close(acc: Dict[int, int], den: int) -> Tuple[int, Dict[int, int]]:
    """The slice acc / den in lowest terms, zeros dropped."""
    g = math.gcd(den, *acc.values())
    return den // g, {e: c // g for e, c in acc.items() if c}


def _fractions(order: GradedOrder, den: int, ints: Dict[int, int]
               ) -> Dict[Expo, Fraction]:
    """{exponents: c / den} of integer slices keyed by the codes of
    ``order``."""
    basis, rank = order.basis, order.rank
    return {basis[rank[e]]: Fraction(c, den) for e, c in ints.items()}
