"""Sparse real power series in radial variables, over exact rationals.

Used wherever a model is naturally a function of real quantities such as
x = |z|^2 or r = |z + conj(z)|: Hartogs profile functions F, the implicit
Taub-NUT inversion, and the tubular ODE solution.  Truncation is by total
degree.

An ``RSeries`` F(x_1, ..., x_n) is held as one ``BiSeries``, its diagonal
jet F(|z_1|^2, ..., |z_n|^2): the monomial x^e is the term at the ordinal
pair (j, j), j the ordinal of e in the graded order, with a real
coefficient.  The total degree of e is the bidegree of that term, so the
box truncation of the jet is the total-degree truncation of the series,
and products and compositions of diagonal jets stay diagonal.  Every
operation is one operation of the series core on the jet, in its integer
form; ``coeffs``, ``get`` and ``ucoeff`` read ``Fraction`` values back.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple, TypeAlias

from .scalars import RationalLike, as_fraction
from .series import BiSeries, OrdinalRangeError, exp_series, graded_order, \
    log1p_series, pow1p_series

Expo: TypeAlias = "Tuple[int, ...]"


class RSeries:
    """Truncated series sum c_e x^e over rational coefficients, held as
    its diagonal jet ``jet``."""

    __slots__ = ("jet",)

    def __init__(self, nvars: int, d: int,
                 coeffs: Dict[Expo, RationalLike] | None = None):
        if nvars < 1 or d < 0:
            raise ValueError("need nvars >= 1, degree >= 0")
        order = graded_order(nvars, d)
        diagonal = {}
        for e, c in (coeffs or {}).items():
            e = tuple(e)
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has arity {len(e)}, "
                                 f"not {nvars}")
            if min(e) < 0:
                raise ValueError(f"negative exponent in {e}")
            if sum(e) > d:
                raise ValueError(f"exponent {e} exceeds degree {d}")
            j = order.ordinal(e)
            diagonal[(j, j)] = as_fraction(c)
        object.__setattr__(self, "jet", BiSeries(nvars, d, diagonal))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RSeries is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def _of(cls, jet: BiSeries) -> "RSeries":
        """The series whose diagonal jet is ``jet``, not checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "jet", jet)
        return out

    @classmethod
    def zero(cls, nvars: int, d: int) -> "RSeries":
        return cls._of(BiSeries.zero(nvars, d))

    @classmethod
    def constant(cls, nvars: int, d: int, value: RationalLike) -> "RSeries":
        return cls(nvars, d, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars: int, d: int, which: int = 0) -> "RSeries":
        e = [0] * nvars
        e[which] = 1
        return cls(nvars, d, {tuple(e): 1})

    @classmethod
    def univariate(cls, coeffs: Sequence[RationalLike], d: int | None = None
                   ) -> "RSeries":
        """1-variable series from a coefficient list [c0, c1, ...]."""
        if d is None:
            d = len(coeffs) - 1
        return cls(1, d, {(j,): c for j, c in enumerate(coeffs) if j <= d})

    # -- access -------------------------------------------------------
    @property
    def nvars(self) -> int:
        return self.jet.n

    @property
    def d(self) -> int:
        return self.jet.d

    @property
    def coeffs(self) -> Dict[Expo, Fraction]:
        """The nonzero coefficients by exponent, built on each access: a
        read-back view, which no operation uses."""
        basis, den = graded_order(self.jet.n, self.jet.d).basis, self.jet.den
        return {basis[j]: Fraction(re, den)
                for (j, _), (re, _) in self.jet.nums.items()}

    def get(self, e: Expo) -> Fraction:
        """The coefficient of x^e; 0 for an exponent outside the
        truncation."""
        try:
            j = graded_order(self.jet.n, self.jet.d).ordinal(tuple(e))
        except OrdinalRangeError:
            return Fraction(0)
        return Fraction(self.jet.nums.get((j, j), (0, 0))[0], self.jet.den)

    def ucoeff(self, j: int) -> Fraction:
        """Univariate convenience: coefficient of x^j."""
        if self.nvars != 1:
            raise ValueError("ucoeff is univariate-only")
        return self.get((j,))

    def constant_term(self) -> Fraction:
        return Fraction(self.jet.nums.get((0, 0), (0, 0))[0], self.jet.den)

    # -- ring (a different nvars raises series.ArityMismatchError) -----
    def __add__(self, other: "RSeries") -> "RSeries":
        return RSeries._of(self.jet + other.jet)

    def __neg__(self) -> "RSeries":
        return RSeries._of(-self.jet)

    def __sub__(self, other: "RSeries") -> "RSeries":
        return RSeries._of(self.jet - other.jet)

    def scale(self, factor: RationalLike) -> "RSeries":
        return RSeries._of(self.jet.scale(as_fraction(factor)))

    def __mul__(self, other: "RSeries") -> "RSeries":
        return RSeries._of(self.jet * other.jet)

    def truncate(self, d: int) -> "RSeries":
        return RSeries._of(self.jet.truncate(d))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RSeries):
            return NotImplemented
        return self.jet == other.jet

    def __hash__(self):
        return hash(self.jet)

    def __repr__(self):
        return (f"RSeries(nvars={self.nvars}, d={self.d}, "
                f"{len(self.jet.nums)} terms)")

    # -- calculus (univariate helpers used by the Hartogs criterion) ---
    def derivative(self, which: int = 0) -> "RSeries":
        return self._shift(which, -1, lambda p: (p, 1))

    def integrate(self, which: int = 0) -> "RSeries":
        """Antiderivative with zero constant; drops the top-degree slice."""
        return self._shift(which, 1, lambda p: (1, p + 1))

    def shift_up(self, which: int = 0) -> "RSeries":
        """Multiply by the variable ``which`` (drops the top slice)."""
        return self._shift(which, 1, lambda p: (1, 1))

    def _shift(self, which: int, step: int,
               weight: Callable[[int], Tuple[int, int]]) -> "RSeries":
        """Each c x^e moved to the exponent e[which] + step, times
        u / v for (u, v) = weight(e[which]), v > 0; terms leaving degrees
        0..d are dropped.

        The exponent moves by step times the Kronecker code of x_which,
        and the numerators are put over den times the lcm of the v.
        """
        n, d, den = self.jet.n, self.jet.d, self.jet.den
        order = graded_order(n, d)
        unit = step * (d + 1) ** (n - 1 - which)
        moved = []
        for (j, _), (re, _) in self.jet.nums.items():
            p = order.basis[j][which]
            if p + step < 0 or order.degree[j] + step > d:
                continue
            u, v = weight(p)
            if u:
                moved.append((order.rank[order.code[j] + unit], re * u, v))
        lcm = math.lcm(*(v for _, _, v in moved))
        return RSeries._of(BiSeries._reduced(n, d, den * lcm, {
            (j, j): (c * (lcm // v), 0) for j, c, v in moved}))

    # -- transcendental ops (the degree recurrence of series.py) -------
    def exp(self) -> "RSeries":
        return RSeries._of(exp_series(self.jet))

    def log1p(self) -> "RSeries":
        return RSeries._of(log1p_series(self.jet))

    def pow1p(self, e: RationalLike) -> "RSeries":
        """(1 + self)^e for a rational exponent."""
        return RSeries._of(pow1p_series(self.jet, e))

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
