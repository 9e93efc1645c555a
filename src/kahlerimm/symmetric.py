"""Wallach-set decisions for scaled Bergman metrics and the
Cartan-Hartogs reduction.

The Wallach set of a bounded symmetric domain is

    W = {0, a/2, 2(a/2), ..., (r-1) a/2}  union  ((r-1) a/2, infinity),

depending only on the rank r and the invariant a.  The scaled Bergman
metric c g_B is projectively induced iff c*genus lies in W \\ {0}; the
Cartan-Hartogs metric c g(mu) reduces to the base decisions at the
scalings (c+m) mu / genus for every integer m >= 0.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .scalars import RationalLike, Record, as_fraction


class DomainInvariants(Record, fields="rank a genus dim"):
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


# the sizes each classical domain kind is given by
SIZE_NAMES = {"omega1": ("m", "n"), "omega2": ("n",), "omega3": ("n",),
              "omega4": ("n",)}


def classical_invariants(kind: str, *sizes: int) -> DomainInvariants:
    """Reference (r, a, genus, dim) for the classical domains.

    Values for r and a come from the general bounded-symmetric-domain
    literature (configuration data, flagged as such).  The genus p is the
    exponent of the generic norm h in the Bergman kernel h^-p, the unit the
    lattice a/2 is measured in.  It equals the determinant-kernel exponent
    of the model catalog except for omega3: there det(I - ZZ*) = h^2 for
    skew Z, so the catalog's exponent n-1 of the determinant is p = 2(n-1).
    ``models.minus_log_norm`` divides by this genus and refuses the sizes
    refused here.  A size the catalog rejects is rejected here with the
    catalog's message.
    """
    kind = kind.lower()
    names = SIZE_NAMES.get(kind)
    if names is not None and len(sizes) != len(names):
        raise ValueError(f"{kind} needs {len(names)} "
                         f"size{'s' * (len(names) > 1)} {','.join(names)}, "
                         f"got {len(sizes)}")
    if kind == "omega1":
        m, n = sizes
        if m < 1 or n < 1:
            raise ValueError("omega1 needs positive sizes")
        if m > n:
            m, n = n, m
        return DomainInvariants(m, Fraction(2), n + m, m * n)
    if kind == "omega2":
        (n,) = sizes
        if n < 1:
            raise ValueError("omega2 needs a positive size")
        return DomainInvariants(n, Fraction(1), n + 1, n * (n + 1) // 2)
    if kind == "omega3":
        (n,) = sizes
        if n < 2:
            raise ValueError("omega3 needs size >= 2")
        return DomainInvariants(n // 2, Fraction(4), 2 * (n - 1),
                                n * (n - 1) // 2)
    if kind == "omega4":
        (n,) = sizes
        if n < 1:
            raise ValueError("omega4 needs a positive size")
        if n == 1:
            raise ValueError("omega4 with n=1 is the disc; use omega1")
        if n == 2:
            raise ValueError("omega4 with n=2 is not irreducible")
        return DomainInvariants(2, Fraction(n - 2), n, n)
    raise ValueError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Wallach-set decisions
# ---------------------------------------------------------------------------

class Membership(Record, fields="kind k", defaults=(None,)):
    """kind (str): "discrete", "continuous" or "outside"; k (int or None):
    the lattice index for the discrete part."""

    __slots__ = ()


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
