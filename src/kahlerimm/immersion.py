"""Explicit truncated immersion maps from PSD certificates.

A map is stored as components (radicand, holomorphic series): the component
function is sqrt(radicand) * series, but the square root is never
materialized — all verification happens on radicand * |series|^2, which
stays inside Gaussian-integer arithmetic over one denominator.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .resolvability import MatrixWitness, NotPsd, calabi_matrix, \
    calabi_series, psd_certify
from .scalars import CScalar, RationalLike, as_fraction
from .series import ArityMismatchError, BiSeries, HolSeries, Nums, Rows, \
    _order_size, graded_order, hermitian_update, index_of_ordinal


class NotResolvableError(ValueError):
    """Factorization refused: the coefficient matrix is not PSD."""

    def __init__(self, witness: MatrixWitness):
        super().__init__(
            f"matrix not positive semidefinite (witness value {witness.value})")
        self.witness = witness


class Target(namedtuple("Target", "kind b", defaults=(None,))):
    """kind (str): "flat" or "curved"; b (Fraction or None): the curvature
    parameter of a "curved" target."""

    __slots__ = ()


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
        d, lam, rows, _ = _pullback_pass(self)
        return BiSeries._reduced(self.arity, d, lam, {
            (j, k): (re, im)
            for j, row in rows.items() for k, (re, im, _) in row.items()})

    def is_pivoted_ldl(self) -> bool:
        """True when the components are, in order, the columns and pivots
        that ``psd_certify`` takes from this map's own pullback norm H
        (the shape test of ``_pullback_pass``).

        Then the Schur complements of H are the tails of the sum, so the
        elimination of H returns exactly these components: with H
        verified, they are the one map ``factor_immersion`` prints, and
        -f_h, a unitary mix or a reordering of them is not of this form.
        """
        return _pullback_pass(self)[3]


def _pullback_pass(imm: ImmersionMap) -> Tuple[int, int, Rows, bool]:
    """(d, L, rows, pivoted): sum_h r_h f_h conj(f_h) through d, the least
    degree of the map and its components, is rows / L (Gaussian integers
    at scale 1, no zero entry), and ``pivoted`` is the pivoted-LDL* shape
    test, taken in the same pass.

    Each f_h is Gaussian integers over its denominator D_h, with weight
    r_h / D_h^2 in lowest terms; the weights are put over their common
    denominator L, and one integer ``hermitian_update`` per component,
    from the last back to the first, accumulates L times the sum into rows.

    After component h is added, the diagonal at q is L S_h(q), for the
    Schur diagonal S_h = sum_{i >= h} r_i |f_i|^2.  Component h must be 1
    at the position p_h the ``psd_certify`` pivot rule picks from S_h (the
    largest, ties to the lowest position, within the lowest degree first
    when every component is of one degree, as H is then block-diagonal by
    degree), and S_h(p_h) = r_h must hold: no later component meets p_h,
    and S_h vanishes at the pivots of earlier components that pass, so
    they are not picked.  S_h exceeds S_{h+1} on the support of f_h only,
    so the pick is the running best or a position of that support: the
    test costs O(support) per component, comparing integers.
    """
    n = imm.arity
    d = min([imm.degree] + [c.series.d for c in imm.components])
    size = _order_size(n, d)
    comps = []
    for rad, f in imm.components:
        if f.n != n:
            raise ArityMismatchError(f"arity {f.n} != {n}")
        den = f.den
        x = f.nums if f.d <= d else {j: v for j, v in f.nums.items()
                                     if j < size}
        g = math.gcd(rad.numerator, den * den)
        comps.append((rad, den, x, rad.numerator // g,
                      rad.denominator * (den * den // g)))
    lam = math.lcm(*(wden for *_, wden in comps))
    degree = graded_order(n, d).degree
    blocked = all(len({degree[j] for j in x}) <= 1 for _, _, x, _, _ in comps)
    rows: Rows = {}
    pivoted, top, best = True, None, None
    for rad, den, x, num, wden in reversed(comps):
        hermitian_update(rows, num * (lam // wden), x)
        if not pivoted:
            continue
        for q in x:  # S_h grows on the support of f_h only
            key = (-degree[q] if blocked else 0, rows[q][q][0], -q)
            if top is None or key > top:
                top, best = key, q
        pivoted = x.get(best) == (den, 0) and \
            rows[best][best][0] * rad.denominator == lam * rad.numerator
    return d, lam, rows, pivoted


def target_for(b: Fraction) -> Target:
    """The space form of curvature 4b: flat for b = 0, else curved."""
    return Target("flat") if not b else Target("curved", b)


def factor_immersion(d: BiSeries, b: RationalLike, degree: int) -> ImmersionMap:
    """Turn the retained LDL* factorization into explicit components.

    Component h has radicand = pivot d_h and series = the h-th unit-diagonal
    column of L, so that sum_h d_h |f_h|^2 reproduces b_transform(d, b)
    through ``degree`` exactly.  Before it is returned, the map is verified
    against that series, the flat-target (b = 0) diastasis of the same map,
    and put to the pivoted-LDL* shape test that ``check-certificate``
    applies, in the same pass.
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
        # the column l = (B_pp at p, x below) / B_pp; basis position ->
        # graded ordinal
        nums: Nums = {pivot.ordinal + 1: (pivot.bareiss, 0)}
        for position, v in pivot.x.items():
            nums[position + 1] = v
        components.append(Component(
            pivot.value, HolSeries._reduced(n, degree, pivot.bareiss, nums)))
    imm = ImmersionMap(tuple(components), target_for(b), degree, n)
    check = _pullback_residual(imm, transformed, degree)
    if not (check.ok and check.pivoted):  # pragma: no cover - soundness
        raise AssertionError(f"factored map failed verification: {check}")
    return imm


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class VerifyResult(namedtuple("VerifyResult", "ok residual pivoted",
                              defaults=(None, False))):
    """``ok`` (bool): the pullback norm equals the series; ``residual``
    (None, or (m_j, m_k, got, want) with ``CScalar`` values): else the
    first difference; ``pivoted`` (bool): the map passes the shape test of
    ``ImmersionMap.is_pivoted_ldl``, taken in the same pass."""

    __slots__ = ()


def verify_immersion(imm: ImmersionMap, d: BiSeries, b: RationalLike,
                     degree: int) -> VerifyResult:
    """Compare the pulled-back squared norm against b_transform(d, b).

    Reports the first differing coefficient in graded order (j, then k);
    the stated (got, want) pair makes the residual independently checkable.
    The one pass that computes the pullback also gives ``pivoted``.
    """
    if imm.arity != d.n:
        raise ValueError(f"arity mismatch: map {imm.arity} vs series {d.n}")
    return _pullback_residual(imm, calabi_series(d, b, degree), degree)


def _pullback_residual(imm: ImmersionMap, want: BiSeries, degree: int
                       ) -> VerifyResult:
    """``verify_immersion`` against the already transformed ``want``.

    The pullback stays Gaussian integers over its denominator L and
    ``want`` is Gaussian integers over its own denominator D, so the two
    are compared by cross-multiplication; a ``CScalar`` is built only for
    the residual reported.
    """
    n = imm.arity
    d, lam, rows, pivoted = _pullback_pass(imm)
    size = _order_size(n, min(degree, d, want.d))
    key = _first_mismatch(size, lam, rows, want.den, want.nums)
    if key is None:
        return VerifyResult(True, None, pivoted)
    j, k = key
    re, im, _ = rows.get(j, {}).get(k, (0, 0, 1))
    return VerifyResult(False, (
        index_of_ordinal(n, j), index_of_ordinal(n, k),
        CScalar.of_integers(re, im, lam), want.get(j, k)), pivoted)


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
