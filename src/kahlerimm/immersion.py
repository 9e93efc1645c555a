"""Explicit truncated immersion maps from PSD certificates.

A map is stored as components (radicand, holomorphic series): the component
function is sqrt(radicand) * series, but the square root is never
materialized — all verification happens on radicand * |series|^2, which
stays inside Gaussian-rational arithmetic.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .resolvability import MatrixWitness, NotPsd, calabi_matrix, \
    calabi_series, psd_certify
from .scalars import CScalar, RationalLike, as_fraction
from .series import BiSeries, HolSeries, MultiIndex, Rows, _order_size, \
    gaussian_integers, graded_order, index_of_ordinal, norm_rows


class NotResolvableError(ValueError):
    """Factorization refused: the coefficient matrix is not PSD."""

    def __init__(self, witness: MatrixWitness):
        super().__init__(
            f"matrix not positive semidefinite (witness value {witness.value})")
        self.witness = witness


class Target(NamedTuple):
    kind: str                      # "flat" | "curved"
    b: Optional[Fraction] = None   # curvature parameter for "curved"


class Component(namedtuple("Component", "radicand series")):
    """sqrt(radicand) * series; the radicand is a positive rational."""

    __slots__ = ()

    def __new__(cls, radicand: Fraction, series: HolSeries):
        if not radicand > 0:
            raise ValueError(f"a component needs a positive radicand, "
                             f"got {radicand}")
        return super().__new__(cls, radicand, series)


class ImmersionMap(namedtuple("ImmersionMap",
                              "components target degree arity")):
    __slots__ = ()

    def pullback_norm(self) -> BiSeries:
        """sum radicand * series * conj(series), exact."""
        d, lam, rows = self._pullback_rows()
        return BiSeries(self.arity, d, {
            (j, k): CScalar(Fraction(re, lam), Fraction(im, lam))
            for j, row in rows.items() for k, (re, im, _) in row.items()})

    def _pullback_rows(self) -> Tuple[int, int, Rows]:
        """(d, L, rows): the pullback norm through degree d, the least
        degree of the map and its components, is rows / L (``norm_rows``,
        which reads each component as its (radicand, series) pair)."""
        d = min([self.degree] + [c.series.d for c in self.components])
        return (d, *norm_rows(self.arity, d, self.components))

    def is_pivoted_ldl(self) -> bool:
        """True when the components are, in order, the columns and pivots
        that ``psd_certify`` takes from this map's own pullback norm H.

        Component h must be 1 at the position p_h that the pivot rule picks
        from the Schur diagonal S_h(q) = sum_{i >= h} r_i |f_i(q)|^2 (the
        largest, ties to the lowest position, within the lowest degree
        first when every component is of one degree, as H is then
        block-diagonal by degree), and every later component must vanish
        at p_h.  Then the Schur complements of H are the tails of the sum,
        so the elimination of H returns exactly these components: with H
        verified, they are the one map ``factor_immersion`` prints, and
        -f_h, a unitary mix or a reordering of them is not of this form.
        """
        d = max([self.degree] + [c.series.d for c in self.components])
        degree = graded_order(self.arity, d).degree
        blocked = all(len({degree[j] for j in c.series.coeffs}) <= 1
                      for c in self.components)
        # S_h summed from the last component back: S_h(p_i) = 0 at the
        # pivots of i < h when component i passes, so they are not picked;
        # S_h(p_h) = r_h says that no later component meets p_h
        schur: Dict[int, Fraction] = {}
        for comp in reversed(self.components):
            rad = comp.radicand
            for j, c in comp.series.coeffs.items():
                schur[j] = schur.get(j, 0) + rad * c.abs2()
            p = max(schur, default=None, key=lambda q: (
                -degree[q] if blocked else 0, schur[q], -q))
            if comp.series.coeffs.get(p) != CScalar(1) or schur[p] != rad:
                return False
        return True


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
            pivot.value, HolSeries(n, degree, coeffs)))
    imm = ImmersionMap(tuple(components), target_for(b), degree, n)
    check = _pullback_residual(imm, transformed, degree)
    if not check.ok:  # pragma: no cover - internal soundness guard
        raise AssertionError(f"factored map failed verification: {check}")
    return imm


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
    size = _order_size(n, min(degree, d, want.d))
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
