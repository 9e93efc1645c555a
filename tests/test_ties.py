"""The closed-form deciders tied to the matrix engine.

The cigar scan and the Hartogs sign scan are Calabi's matrix criterion
specialized to a diagonal coefficient matrix: each |z|^{2n} coefficient
(cigar) or each |z_0|^{2j} |w|^{2k} term (Hartogs) is one diagonal entry,
so the matrix is PSD exactly when every entry the scan reads is >= 0, and
its rank counts the positive ones.  These tests compare the two on the
catalog models, through ``resolvability`` at the projective target.
"""
import math
from fractions import Fraction

import pytest

from kahlerimm.bell import cigar_scan
from kahlerimm.models import MODELS, build_model, hartogs_profile
from kahlerimm.resolvability import CertifiedNotResolvable, ResolvableUpTo, \
    hartogs_criterion, resolvability


@pytest.mark.parametrize("c", [Fraction(1, 5), Fraction(1, 2), Fraction(1),
                               Fraction(3, 2), Fraction(2), Fraction(3),
                               Fraction(5)], ids=str)
def test_cigar_least_failing_degree_is_the_scans_first_negative(c):
    # the least D <= 10 at which the matrix has a witness is the first n
    # with a negative coefficient, and the witness value is that
    # coefficient (c = 5 has none up to 10)
    scan = cigar_scan(c, 10)
    for degree in range(1, 11):
        verdict = resolvability(build_model("cigar", {"scale": c}, degree),
                                1, degree)
        if isinstance(verdict, CertifiedNotResolvable):
            break
    else:
        degree = None
    assert degree == scan.first_negative_n
    if degree is not None:
        assert verdict.witness.value == scan.coefficient


HARTOGS_MODELS = sorted(name for name, entry in MODELS.items()
                        if entry.profile is not None)
HARTOGS_CASES = [(name, n, c, degree)
                 for name in HARTOGS_MODELS
                 for n in (2, 3)
                 for c in (Fraction(1, 3), Fraction(1), Fraction(7, 2))
                 for degree in range(2, 5 if n == 2 else 4)]


def hartogs_terms(F, c, degree):
    """{(j, k): [x^j] G^-(c+k)} for j + k <= degree, (j, k) != (0, 0), with
    G = F/F(0), each power composed on its own."""
    G = F.scale(1 / F.constant_term())
    terms = {}
    for k in range(degree + 1):
        h = G.pow_normalized(-(c + k))
        for j in range(degree - k + 1):
            if j or k:
                terms[(j, k)] = h.ucoeff(j)
    return terms


@pytest.mark.parametrize("name,n,c,degree", HARTOGS_CASES, ids=str)
def test_hartogs_matrix_verdict_is_the_sign_scan(name, n, c, degree):
    # the staircase j + k <= D is the union of the rectangles j <= D - k,
    # k' <= k that hartogs_criterion scans; a positive term at (j, k) is
    # one pivot per monomial |w|^{2k} in n - 1 variables
    F = hartogs_profile(name, {"n": n}, degree)
    verdict = resolvability(build_model(name, {"n": n}, degree).scale(c), 1,
                            degree)
    scans = [hartogs_criterion(F, c, degree - k, k) for k in range(degree)]
    psd = all(isinstance(scan, ResolvableUpTo) for scan in scans)
    assert isinstance(verdict, ResolvableUpTo) == psd
    terms = hartogs_terms(F, c, degree)
    assert psd == all(value >= 0 for value in terms.values())
    if psd:
        assert verdict.rank == sum(math.comb(n - 2 + k, k)
                                   for (j, k), value in terms.items()
                                   if value > 0)
