"""Wallach-set decisions for scaled Bergman metrics and the
Cartan-Hartogs reduction with its explicit immersion.

The Wallach set of a bounded symmetric domain is

    W = {0, a/2, 2(a/2), ..., (r-1) a/2}  union  ((r-1) a/2, infinity),

depending only on the rank r and the invariant a.  The scaled Bergman
metric c g_B is projectively induced iff c*genus lies in W \\ {0}; the
Cartan-Hartogs metric c g(mu) reduces to the base decisions at the
scalings (c+m) mu / genus for every integer m >= 0.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, List, Mapping, NamedTuple, Optional, Union

from .immersion import Component, ImmersionMap, Target
from .scalars import RationalLike, as_fraction
from .series import HolSeries, _ordinal_degree


class MissingBaseMapError(KeyError):
    """A base immersion at a required scaling was not supplied."""


class DomainInvariants(namedtuple("DomainInvariants", "rank a genus dim")):
    """(rank, invariant a, genus, dimension) of a bounded symmetric domain.

    The (r, a) values for specific classical domains are configuration
    data taken from the standard Jordan-triple tables (see
    ``classical_invariants``); for rank 1 the discrete Wallach part is {0}
    regardless of a.
    """

    __slots__ = ()

    def __new__(cls, rank: int, a: Fraction, genus: int, dim: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if a < 0:
            raise ValueError("invariant a must be nonnegative")
        if genus < 1 or dim < 1:
            raise ValueError("genus and dimension must be positive")
        return super().__new__(cls, rank, a, genus, dim)

    @property
    def threshold(self) -> Fraction:
        """Top of the discrete part, (r-1) a / 2."""
        return Fraction(self.rank - 1) * self.a / 2


def classical_invariants(kind: str, *sizes: int) -> DomainInvariants:
    """Reference (r, a, genus, dim) for the classical domains.

    Values for r and a come from the general bounded-symmetric-domain
    literature (configuration data, flagged as such); genus matches the
    determinant-kernel exponent used by the model catalog.
    """
    kind = kind.lower()
    if kind == "omega1":
        m, n = sizes
        if m > n:
            m, n = n, m
        return DomainInvariants(m, Fraction(2), n + m, m * n)
    if kind == "omega2":
        (n,) = sizes
        return DomainInvariants(n, Fraction(1), n + 1, n * (n + 1) // 2)
    if kind == "omega3":
        (n,) = sizes
        return DomainInvariants(n // 2, Fraction(4), n - 1, n * (n - 1) // 2)
    if kind == "omega4":
        (n,) = sizes
        if n == 2:
            raise ValueError("omega4 with n=2 is not irreducible")
        return DomainInvariants(2 if n > 1 else 1, Fraction(n - 2), n, n)
    raise ValueError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Wallach-set decisions
# ---------------------------------------------------------------------------

class Membership(NamedTuple):
    kind: str                 # "discrete" | "continuous" | "outside"
    k: Optional[int] = None   # lattice index for the discrete part


def wallach_membership(inv: DomainInvariants, eta: RationalLike) -> Membership:
    """Classify eta against W = {k a/2 : 0 <= k <= r-1} u ((r-1)a/2, inf)."""
    eta = as_fraction(eta)
    if eta > inv.threshold:
        return Membership("continuous")
    if eta < 0:
        return Membership("outside")
    if inv.a == 0:
        # rank-1 style degenerate lattice: only the origin is discrete
        return Membership("discrete", 0) if eta == 0 else Membership("outside")
    step = inv.a / 2
    q = eta / step
    if q.denominator == 1 and 0 <= q.numerator <= inv.rank - 1:
        return Membership("discrete", int(q))
    return Membership("outside")


def bergman_scaling_decision(inv: DomainInvariants, c: RationalLike) -> bool:
    """Is c * g_B projectively induced?  True iff c*genus in W \\ {0}."""
    c = as_fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    eta = c * inv.genus
    if eta == 0:
        return False
    return wallach_membership(inv, eta).kind != "outside"


def cartan_hartogs_failure(inv: DomainInvariants, mu: RationalLike,
                           c: RationalLike) -> Optional[int]:
    """The smallest failing m of the reduction, or None when all pass.

    c * g(mu) on the Cartan-Hartogs domain is projectively induced iff
    (c+m) mu is in W \\ {0} for every integer m >= 0, i.e. iff this is
    None; the loop is finite because everything above the threshold is
    continuous.
    """
    mu = as_fraction(mu)
    c = as_fraction(c)
    if mu <= 0 or c <= 0:
        raise ValueError("mu and c must be positive")
    m = 0
    while True:
        eta = (c + m) * mu
        if eta > inv.threshold:
            return None
        if wallach_membership(inv, eta).kind != "discrete" or eta == 0:
            return m
        m += 1


# ---------------------------------------------------------------------------
# Cartan-Hartogs immersion
# ---------------------------------------------------------------------------

def _pochhammer_over_fact(alpha: Fraction, m: int) -> Fraction:
    """alpha (alpha+1) ... (alpha+m-1) / m!, rational alpha."""
    num = Fraction(1)
    for i in range(m):
        num *= (alpha + i)
    return num / math.factorial(m)


BaseMaps = Union[Mapping[Fraction, ImmersionMap],
                 Callable[[Fraction], ImmersionMap]]


def ch_immersion(base_maps: BaseMaps, mu: RationalLike, gamma: int,
                 alpha: RationalLike, degree: int) -> ImmersionMap:
    """Assemble the Cartan-Hartogs projective immersion at scaling alpha.

    ``base_maps`` supplies, for each needed scaling k = mu (alpha+m)/gamma,
    a base map h_k whose squared norm is exp(k * gamma * (-log N)) - 1 —
    i.e. factor_immersion of k * (Bergman diastasis of the base) with b=1.
    Components:
      * w-only: sqrt(poch(alpha,m)/m!) w^m  for m >= 1;
      * z-only: the components of h_{mu alpha/gamma};
      * mixed:  sqrt(poch(alpha,m)/m!) * h_{mu(alpha+m)/gamma} * w^m.
    Any two components with different w-degree have disjoint support in w.
    """
    mu = as_fraction(mu)
    alpha = as_fraction(alpha)
    if mu <= 0 or alpha <= 0:
        raise ValueError("mu and alpha must be positive")

    def lookup(k: Fraction) -> ImmersionMap:
        if callable(base_maps):
            return base_maps(k)
        try:
            return base_maps[k]
        except KeyError as exc:
            raise MissingBaseMapError(
                f"no base map supplied for scaling {k}") from exc

    base0 = lookup(mu * alpha / gamma)
    nz = base0.arity
    n = nz + 1
    components: List[Component] = []
    # w-only tower
    for m in range(1, degree + 1):
        rad = _pochhammer_over_fact(alpha, m)
        wm = tuple([0] * nz + [m])
        components.append(Component(
            +1, rad, HolSeries.monomial(n, degree, wm)))
    # z-blocks tensored with w^m
    for m in range(0, degree):
        k = mu * (alpha + m) / gamma
        base = lookup(k)
        if base.arity != nz:
            raise ValueError("base maps must share one arity")
        factor = _pochhammer_over_fact(alpha, m) if m else Fraction(1)
        wm = tuple([0] * nz + [m])
        for comp in base.components:
            if comp.sign != +1:
                raise ValueError("base maps must be definite")
            series = comp.series.lift_arity(1)
            if series.d < degree:
                raise ValueError("base map truncated below the total degree")
            if series.d > degree:
                series = HolSeries(n, degree, {
                    j: c for j, c in series.coeffs.items()
                    if _ordinal_degree(n, j) <= degree})
            series = series.mul_monomial(wm)
            if not series.coeffs:
                continue
            components.append(Component(
                +1, comp.radicand * factor, series))
    return ImmersionMap(tuple(components), Target("curved", Fraction(1)),
                        degree, n)
