"""Diastasis normalization, Bochner-form checking and the b-transform."""
from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .scalars import CScalar, RationalLike, as_fraction
from .series import BiSeries, MultiIndex, _ordinal_degree, exp_series, \
    index_of_ordinal


def normalize_to_diastasis(phi: BiSeries) -> BiSeries:
    """Zero the pure-holomorphic and pure-antiholomorphic rows of a potential.

    This is the canonical-potential construction: the output is the unique
    potential of the same metric with a_{j0} = a_{0k} = 0 for every j, k
    (constant term included).  Idempotent; preserves Hermitian symmetry.
    """
    out = {jk: c for jk, c in phi.coeffs.items() if jk[0] != 0 and jk[1] != 0}
    return BiSeries(phi.n, phi.d, out)


class BochnerReport(NamedTuple):
    is_bochner: bool
    defect: Optional[Tuple[MultiIndex, MultiIndex, CScalar]] = None


def check_bochner_form(d: BiSeries) -> BochnerReport:
    """Is ``d`` of the form sum |z_a|^2 + (terms of bidegree >= (2,2))?

    Requires the (1,1) block to be the identity and forbids any other
    nonzero coefficient with a degree-1 index on either side.  The first
    offending coefficient (graded order on (j, k)) is reported as defect.
    """
    n = d.n
    # expected identity entries on the (1,1) block
    defects = []
    seen_linear = set()
    for (j, k), c in d.coeffs.items():
        dj = _ordinal_degree(n, j)
        dk = _ordinal_degree(n, k)
        if dj == 0 or dk == 0:
            defects.append((j, k, c))
        elif dj == 1 and dk == 1:
            seen_linear.add((j, k))
            want = CScalar(1) if j == k else CScalar(0)
            if c != want:
                defects.append((j, k, c))
        elif dj == 1 or dk == 1:
            defects.append((j, k, c))
    if d.d >= 1:
        for j in range(1, n + 1):
            if (j, j) not in seen_linear:
                defects.append((j, j, CScalar(0)))
    if not defects:
        return BochnerReport(True)
    j, k, c = min(defects, key=lambda t: (t[0], t[1]))
    return BochnerReport(
        False, (index_of_ordinal(n, j), index_of_ordinal(n, k), c))


def b_transform(d: BiSeries, b: RationalLike) -> BiSeries:
    """The series map d -> (exp(b d) - 1)/b; identity at b = 0.

    Realizes the generalized stereographic projection linking the flat
    criterion to the curvature-4b one; degree is preserved and zero pure
    rows are preserved.
    """
    b = as_fraction(b)
    if not b:
        return d
    if not d.get(0, 0).is_zero():
        raise ValueError("b_transform needs a zero constant term")
    e = exp_series(d.scale(b))
    shifted = BiSeries(
        e.n, e.d, {jk: c for jk, c in e.coeffs.items() if jk != (0, 0)})
    return shifted.scale(CScalar(1 / b))
