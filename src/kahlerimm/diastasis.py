"""Diastasis normalization, Bochner-form checking and the b-transform."""
from __future__ import annotations

from .scalars import RationalLike, Record, as_fraction
from .series import BiSeries, _compose, expm1_rule, index_of_ordinal


def normalize_to_diastasis(phi: BiSeries) -> BiSeries:
    """Zero the pure-holomorphic and pure-antiholomorphic rows of a potential.

    This is the canonical-potential construction: the output is the unique
    potential of the same metric with a_{j0} = a_{0k} = 0 for every j, k
    (constant term included).  Idempotent; preserves Hermitian symmetry.
    """
    out = {jk: v for jk, v in phi.nums.items() if jk[0] != 0 and jk[1] != 0}
    if len(out) == len(phi.nums):
        return phi
    return BiSeries._reduced(phi.n, phi.d, phi.den, out)


class BochnerReport(Record, fields="is_bochner defect", defaults=(None,)):
    """is_bochner (bool) and defect (None, or (m_j, m_k, coefficient) with
    a ``CScalar`` coefficient): the first offending coefficient."""

    __slots__ = ()


def check_bochner_form(d: BiSeries) -> BochnerReport:
    """Is ``d`` of the form sum |z_a|^2 + (terms of bidegree >= (2,2))?

    Requires the (1,1) block to be the identity and forbids any other
    nonzero coefficient with a degree-1 index on either side.  The first
    offending coefficient (graded order on (j, k)) is reported as defect.
    """
    n = d.n
    # expected identity entries on the (1,1) block; ordinal 0 is the
    # constant and ordinals 1..n are the monomials of degree 1.  A stored
    # coefficient is nonzero, and it is 1 when it is (den, 0) over den.
    one = (d.den, 0)
    defects = []
    seen_linear = set()
    for (j, k), v in d.nums.items():
        linear_j = j <= n
        linear_k = k <= n
        if j == 0 or k == 0:
            defects.append((j, k))
        elif linear_j and linear_k:
            seen_linear.add((j, k))
            if j != k or v != one:
                defects.append((j, k))
        elif linear_j or linear_k:
            defects.append((j, k))
    if d.d >= 1:
        for j in range(1, n + 1):
            if (j, j) not in seen_linear:
                defects.append((j, j))
    if not defects:
        return BochnerReport(True)
    j, k = min(defects)
    return BochnerReport(
        False, (index_of_ordinal(n, j), index_of_ordinal(n, k), d.get(j, k)))


def b_transform(d: BiSeries, b: RationalLike) -> BiSeries:
    """The series map d -> (exp(b d) - 1)/b; identity at b = 0.

    Realizes the generalized stereographic projection linking the flat
    criterion to the curvature-4b one; degree is preserved and zero pure
    rows are preserved.  One degree recurrence (``expm1_rule``); ``d``
    needs a zero constant term.
    """
    b = as_fraction(b)
    if not b:
        return d
    return _compose(d, expm1_rule(b))
