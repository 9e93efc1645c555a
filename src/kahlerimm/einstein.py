"""Einstein-constant estimation from the Monge-Ampere relation.

In Bochner-normalized coordinates the Einstein condition reads
det(d^2 D / dz dzbar) = e^{-lambda D / 2}, so lambda can be read off the
(1,1) coefficient of log det and then verified as an identity of jets.
"""
from __future__ import annotations

from fractions import Fraction

from .diastasis import check_bochner_form
from .scalars import CScalar, Record
from .series import BiSeries, Nums, det_series, graded_order, \
    index_of_ordinal, log1p_series, ordinal_of_index


class GaugeError(ValueError):
    """Input is not in Bochner form; normalize coordinates first."""


def _mixed_second_derivative(d: BiSeries, alpha: int, beta: int) -> BiSeries:
    """d^2 d / dz_alpha dzbar_beta as a BiSeries of degree d.d - 1."""
    n = d.n
    deg = d.d - 1
    order = graded_order(n, d.d)
    out: Nums = {}
    for (j, k), (re, im) in d.nums.items():
        mj = order.basis[j]
        mk = order.basis[k]
        if mj[alpha] == 0 or mk[beta] == 0:
            continue
        mj2 = list(mj)
        mj2[alpha] -= 1
        mk2 = list(mk)
        mk2[beta] -= 1
        if sum(mj2) > deg or sum(mk2) > deg:
            continue
        # (mj, mk) -> (mj2, mk2) is one to one: no two terms meet
        w = mj[alpha] * mk[beta]
        out[(order.ordinal(tuple(mj2)), order.ordinal(tuple(mk2)))] = \
            (re * w, im * w)
    return BiSeries._reduced(n, deg, d.den, out)


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


class EinsteinResult(Record, fields="lam flat", defaults=(False,)):
    """lam (Fraction): the Einstein constant; flat (bool): log det H
    vanishes through the degree."""

    __slots__ = ()


class NotEinstein(Record, fields="location got want"):
    """location ((m_j, m_k)) and got, want (``CScalar``): the first
    coefficient at which log det H + (lambda/2) d is not 0."""

    __slots__ = ()


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
    if not logdet.nums:
        return EinsteinResult(Fraction(0), flat=True)
    n = d.n
    e1 = ordinal_of_index((1,) + (0,) * (n - 1))
    re, im = logdet.nums.get((e1, e1), (0, 0))
    if im:
        raise ValueError("non-real (1,1) coefficient")
    lam = Fraction(-2 * re, logdet.den)
    gauge = d.truncate(logdet.d).scale(lam / 2)
    residual = logdet + gauge
    if not residual.nums:
        return EinsteinResult(lam)
    j, k = min(residual.nums)
    g_re, g_im = gauge.nums.get((j, k), (0, 0))
    return NotEinstein(
        (index_of_ordinal(n, j), index_of_ordinal(n, k)),
        logdet.get(j, k), CScalar.of_integers(-g_re, -g_im, gauge.den))
