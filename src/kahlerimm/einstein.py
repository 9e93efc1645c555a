"""Einstein-constant estimation from the Monge-Ampere relation.

In Bochner-normalized coordinates the Einstein condition reads
det(d^2 D / dz dzbar) = e^{-lambda D / 2}, so lambda can be read off the
(1,1) coefficient of log det and then verified as an identity of jets.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .diastasis import check_bochner_form
from .scalars import CScalar, RationalLike, as_fraction
from .series import BiSeries, MultiIndex, _ordinal_degree, det_series, \
    index_of_ordinal, log1p_series, ordinal_of_index


class GaugeError(ValueError):
    """Input is not in Bochner form; normalize coordinates first."""


def _mixed_second_derivative(d: BiSeries, alpha: int, beta: int) -> BiSeries:
    """d^2 d / dz_alpha dzbar_beta as a BiSeries of degree d.d - 1."""
    n = d.n
    deg = d.d - 1
    out: Dict[Tuple[int, int], CScalar] = {}
    for (j, k), c in d.coeffs.items():
        mj = index_of_ordinal(n, j)
        mk = index_of_ordinal(n, k)
        if mj[alpha] == 0 or mk[beta] == 0:
            continue
        mj2 = list(mj)
        mj2[alpha] -= 1
        mk2 = list(mk)
        mk2[beta] -= 1
        if sum(mj2) > deg or sum(mk2) > deg:
            continue
        key = (ordinal_of_index(tuple(mj2)), ordinal_of_index(tuple(mk2)))
        out[key] = out.get(key, CScalar(0)) + c * (mj[alpha] * mk[beta])
    return BiSeries(n, deg, out)


def hessian_det(d: BiSeries, degree: int) -> BiSeries:
    """det of the mixed Hessian, truncated at ``degree`` - 1.

    The constant term equals the determinant of the (1,1) block of d.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > d.d:
        raise ValueError("degree exceeds the series truncation")
    d = d if d.d == degree else d.truncate(degree)
    n = d.n
    matrix = [[_mixed_second_derivative(d, a, b) for b in range(n)]
              for a in range(n)]
    return det_series(matrix)


class EinsteinResult(NamedTuple):
    lam: Fraction
    flat: bool = False


class NotEinstein(NamedTuple):
    location: Tuple[MultiIndex, MultiIndex]
    got: CScalar
    want: CScalar


def einstein_estimate(d: BiSeries, degree: int):
    """Einstein constant lambda with log det H + (lambda/2) d = 0, or the
    first mismatching coefficient.

    Requires Bochner form (identity metric at the origin) so that the
    holomorphic gauge term vanishes; lambda is read from the (1,1)
    coefficient and the full jet identity is then checked through
    ``degree`` - 1 — a single matching coefficient is never enough.
    """
    report = check_bochner_form(d)
    if not report.is_bochner:
        raise GaugeError(
            f"not in Bochner form (defect at {report.defect!r}); "
            "renormalize coordinates first")
    h = hessian_det(d, degree)
    logdet = log1p_series(h - BiSeries.one(h.n, h.d))
    if not logdet.coeffs:
        return EinsteinResult(Fraction(0), flat=True)
    n = d.n
    e1 = ordinal_of_index((1,) + (0,) * (n - 1))
    l11 = logdet.get(e1, e1)
    if not l11.is_real():
        raise ValueError("non-real (1,1) coefficient")
    lam = -2 * l11.re
    residual = logdet + d.truncate(logdet.d).scale(CScalar(lam / 2))
    if not residual.coeffs:
        return EinsteinResult(lam)
    j, k = min(residual.coeffs, key=lambda jk: (jk[0], jk[1]))
    return NotEinstein(
        (index_of_ordinal(n, j), index_of_ordinal(n, k)),
        logdet.get(j, k),
        -(d.get(j, k) * CScalar(lam / 2)))


def rescale_bochner(d: BiSeries, c: RationalLike) -> BiSeries:
    """c * d followed by z -> z/sqrt(c), expressed on coefficients.

    Sends a_{jk} to a_{jk} * c^{1 - (|m_j|+|m_k|)/2}; requires every
    nonzero coefficient to sit at even total bidegree (circular metrics
    qualify), so the exponent stays integral and the arithmetic rational.
    """
    c = as_fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    out: Dict[Tuple[int, int], CScalar] = {}
    n = d.n
    for (j, k), coeff in d.coeffs.items():
        total = _ordinal_degree(n, j) + _ordinal_degree(n, k)
        if total % 2:
            raise ValueError("odd total bidegree: sqrt(c) rescale is not "
                             "rational for this series")
        out[(j, k)] = coeff * CScalar(c ** (1 - total // 2))
    return BiSeries(n, d.d, out)
