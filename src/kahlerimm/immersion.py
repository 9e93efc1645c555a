"""Explicit truncated immersion maps from PSD certificates.

A map is stored as components (sign, radicand, holomorphic series): the
component function is sqrt(radicand) * series, but the square root is never
materialized — all verification happens on sign * radicand * |series|^2,
which stays inside Gaussian-rational arithmetic.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .diastasis import normalize_to_diastasis
from .resolvability import MatrixWitness, NotPsd, calabi_matrix, \
    calabi_series, psd_certify
from .scalars import CScalar, RationalLike, as_fraction
from .series import BiSeries, GradedOrder, HolSeries, MultiIndex, Rows, \
    gaussian_integers, index_of_ordinal, norm_rows


class NotResolvableError(ValueError):
    """Factorization refused: the coefficient matrix is not PSD."""

    def __init__(self, witness: MatrixWitness):
        super().__init__(
            f"matrix not positive semidefinite (witness value {witness.value})")
        self.witness = witness


class Target(NamedTuple):
    kind: str                      # "flat" | "curved" | "indefinite"
    b: Optional[Fraction] = None   # curvature parameter for "curved"


class Component(namedtuple("Component", "sign radicand series")):
    """sqrt(radicand) * series with a sign: +1, or -1 for an indefinite
    target only; the radicand is a positive rational."""

    __slots__ = ()

    def __new__(cls, sign: int, radicand: Fraction, series: HolSeries):
        if sign not in (1, -1) or not radicand > 0:
            raise ValueError(f"a component needs sign +1 or -1 and a positive"
                             f" radicand, got {sign} and {radicand}")
        return super().__new__(cls, sign, radicand, series)


class ImmersionMap(namedtuple("ImmersionMap",
                              "components target degree arity")):
    __slots__ = ()

    def __new__(cls, components: Tuple[Component, ...], target: Target,
                degree: int, arity: int):
        if target.kind != "indefinite" and any(c.sign < 0
                                               for c in components):
            raise ValueError(f"a sign -1 component needs an indefinite "
                             f"target, not {target.kind!r}")
        return super().__new__(cls, components, target, degree, arity)

    def pullback_norm(self) -> BiSeries:
        """sum sign * radicand * series * conj(series), exact."""
        d, lam, rows = self._pullback_rows()
        return BiSeries(self.arity, d, {
            (j, k): CScalar(Fraction(re, lam), Fraction(im, lam))
            for j, row in rows.items() for k, (re, im, _) in row.items()})

    def _pullback_rows(self) -> Tuple[int, int, Rows]:
        """(d, L, rows): the pullback norm through degree d, the least
        degree of the map and its components, is rows / L (``norm_rows``)."""
        d = min([self.degree] + [c.series.d for c in self.components])
        return (d, *norm_rows(self.arity, d, (
            (c.sign * c.radicand, c.series) for c in self.components)))


def target_for(b: Fraction) -> Target:
    """The space form of curvature 4b: flat for b = 0, else curved."""
    return Target("flat") if not b else Target("curved", b)


def factor_immersion(d: BiSeries, b: RationalLike, degree: int) -> ImmersionMap:
    """Turn the retained LDL* factorization into explicit components.

    Component h has radicand = pivot d_h and series = the h-th unit-diagonal
    column of L, so that sum_h d_h |f_h|^2 reproduces b_transform(d, b)
    through ``degree`` exactly.  Before it is returned, the map is verified
    against that series, the flat-target (b = 0) diastasis of the same map.
    """
    b = as_fraction(b)
    transformed, matrix = calabi_matrix(d, b, degree)
    verdict = psd_certify(matrix)
    if isinstance(verdict, NotPsd):
        raise NotResolvableError(
            MatrixWitness(matrix.basis, verdict.witness, verdict.value))
    n = d.n
    components: List[Component] = []
    for pivot in verdict.pivots:
        coeffs: Dict[int, CScalar] = {}
        for position, c in pivot.column.items():
            coeffs[position + 1] = c  # basis position -> graded ordinal
        components.append(Component(
            +1, pivot.value, HolSeries(n, degree, coeffs)))
    imm = ImmersionMap(tuple(components), target_for(b), degree, n)
    check = _pullback_residual(imm, transformed, degree)
    if not check.ok:  # pragma: no cover - internal soundness guard
        raise AssertionError(f"factored map failed verification: {check}")
    return imm


def indefinite_immersion(d: BiSeries, r: Sequence[RationalLike],
                         degree: int) -> ImmersionMap:
    """The indefinite-space factorization: pairs (f_j, f_{-j}) for any
    Hermitian diastasis, PSD or not.

    With a = (a_{jk}) and r^{m} = prod r_alpha^{m_alpha}:

        f_{+j} = (a_{jj} r^{m_j} + 1/r^{m_j})/2 * z^{m_j}
                 + sum_{k>j} a_{jk} r^{m_j} z^{m_k}
        f_{-j} = same with the minus sign inside the first parenthesis.

    The displayed per-pair identity only telescopes in aggregate; the
    construction is validated by sum_j (|f_j|^2 - |f_{-j}|^2) = d, which
    holds exactly at every truncation (tested, and checkable via
    ``verify_immersion`` with b = 0 on the indefinite map).
    """
    rs = [as_fraction(v) for v in r]
    if len(rs) != d.n:
        raise ValueError(f"r must have arity {d.n}")
    if any(v <= 0 for v in rs):
        raise ValueError("all r_alpha must be positive")
    dd = normalize_to_diastasis(d)
    order = GradedOrder(d.n, degree)
    components: List[Component] = []
    for j in range(1, order.size):
        m = order.basis[j]
        r_m = Fraction(1)
        for alpha, e in enumerate(m):
            r_m *= rs[alpha] ** e
        a_jj = dd.get(j, j)
        if a_jj.im:
            raise ValueError("non-Hermitian diagonal coefficient")
        tail: Dict[int, CScalar] = {}
        for k in range(j + 1, order.size):
            # the cross term lands at (j, k) via conjugation, so the
            # holomorphic tail carries a_{kj} = conj(a_{jk})
            a_kj = dd.get(k, j)
            if not a_kj.is_zero():
                tail[k] = a_kj * r_m
        plus = dict(tail)
        minus = dict(tail)
        plus[j] = CScalar((a_jj.re * r_m + 1 / r_m) / 2)
        minus[j] = CScalar((a_jj.re * r_m - 1 / r_m) / 2)
        components.append(Component(
            +1, Fraction(1), HolSeries(d.n, degree, plus)))
        components.append(Component(
            -1, Fraction(1), HolSeries(d.n, degree, minus)))
    return ImmersionMap(tuple(components), Target("indefinite"), degree, d.n)


# ---------------------------------------------------------------------------
# closed-form space-form classification and rank
# ---------------------------------------------------------------------------

def space_form_classification(b: Fraction, b_target: Fraction
                              ) -> Tuple[bool, Optional[int], str]:
    """(exists, k or None for infinite rank, reason) per the case split
    b <= b'; b <= 0 with infinite rank; b' = k b for a positive integer k."""
    if not b_target:
        if b > 0:
            return False, None, "positively curved source admits no flat target"
        if not b:
            return True, 1, "flat into flat: identity"
        return True, None, "nonpositive curvature into flat, infinite rank"
    if b > b_target:
        return False, None, "requires b <= b_target"
    if b:
        k = b_target / b
        if k.denominator == 1 and k > 0:
            return True, int(k), "b_target = k*b with k a positive integer"
    if b < 0 or (not b and b_target > 0):
        return True, None, "nonpositive source curvature, infinite rank"
    return False, None, "b_target not a positive integer multiple of b"


def space_form_rank(n: int, b: RationalLike, b_target: RationalLike
                    ) -> Optional[int]:
    """Global rank of the space-form immersion: finite C(n+k,k)-1 when
    b_target = k b, None for infinite rank; raises if no map exists."""
    b = as_fraction(b)
    b_target = as_fraction(b_target)
    exists, k, reason = space_form_classification(b, b_target)
    if not exists:
        raise ValueError(f"no immersion: {reason}")
    if k is None:
        return None
    return math.comb(n + k, k) - 1


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerifyResult(NamedTuple):
    ok: bool
    residual: Optional[Tuple[MultiIndex, MultiIndex, CScalar, CScalar]] = None


def verify_immersion(imm: ImmersionMap, d: BiSeries, b: RationalLike,
                     degree: int) -> VerifyResult:
    """Compare the pulled-back squared norm against b_transform(d, b).

    Reports the first differing coefficient in graded order (j, then k);
    the stated (got, want) pair makes the residual independently checkable.
    """
    if imm.arity != d.n:
        raise ValueError(f"arity mismatch: map {imm.arity} vs series {d.n}")
    return _pullback_residual(imm, calabi_series(d, b), degree)


def _pullback_residual(imm: ImmersionMap, want: BiSeries, degree: int
                       ) -> VerifyResult:
    """``verify_immersion`` against the already transformed ``want``.

    The pullback stays Gaussian integers over its denominator L and
    ``want`` is put over the lcm D of its own denominators, so the two are
    compared by cross-multiplication; a ``CScalar`` is built only for the
    residual reported.
    """
    n = imm.arity
    d, lam, rows = imm._pullback_rows()
    den, target = gaussian_integers(want.coeffs)
    size = GradedOrder(n, min(degree, d, want.d)).size
    key = _first_mismatch(size, lam, rows, den, target)
    if key is None:
        return VerifyResult(True)
    j, k = key
    re, im, _ = rows.get(j, {}).get(k, (0, 0, 1))
    return VerifyResult(False, (
        index_of_ordinal(n, j), index_of_ordinal(n, k),
        CScalar(Fraction(re, lam), Fraction(im, lam)), want.get(j, k)))


def _first_mismatch(size: int, lam: int, rows: Rows, den: int,
                    want: Dict[Tuple[int, int], Tuple[int, int]]
                    ) -> Optional[Tuple[int, int]]:
    """The least key (j, k) with both ordinals below ``size`` at which
    rows / lam and want / den differ, or None.

    ``rows`` (scale 1) and ``want`` hold Gaussian-integer numerators and
    no zero entries; a / lam = c / den is tested as a den = c lam.
    """
    bad = []
    for j, row in rows.items():
        if j >= size:
            continue
        for k, (re, im, _) in row.items():
            if k >= size:
                continue
            w = want.get((j, k))
            if w is None or re * den != w[0] * lam or im * den != w[1] * lam:
                bad.append((j, k))
    bad += [(j, k) for j, k in want
            if j < size and k < size and k not in rows.get(j, ())]
    return min(bad, default=None)
