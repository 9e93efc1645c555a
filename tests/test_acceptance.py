"""End-to-end acceptance checks, one reported line per criterion.

Every check is exact unless explicitly labeled as a float comparison; the
golden values below were derived once with independent arithmetic (series
oracles, partition-counting, high-precision ODE integration) and frozen.
"""
import functools
import math
import random
from fractions import Fraction

import pytest

from kahlerimm.bell import bell_complete, bell_partial, cigar_limit, \
    cigar_scan
from kahlerimm.diastasis import b_transform, normalize_to_diastasis
from kahlerimm.einstein import EinsteinResult, NotEinstein, einstein_estimate
from kahlerimm.immersion import factor_immersion, verify_immersion
from kahlerimm.models import (build_model, calabi_tube,
                              profile_inv_one_plus_x_pow,
                              profile_one_minus_x_pow, profile_rhp_cubic,
                              space_form_diastasis, taubnut_potential)
from kahlerimm.radial import RSeries
from kahlerimm.resolvability import (CertifiedNotResolvable, ResolvableUpTo,
                                     build_matrix, hartogs_criterion,
                                     resolvability)
from kahlerimm.scalars import CScalar
from kahlerimm.series import GradedOrder, index_of_ordinal
from kahlerimm.symmetric import DomainInvariants, bergman_scaling_decision, \
    cartan_hartogs_failure, wallach_membership
from oracles import calabi_tube_residual

_NEGATIVE_CERTIFICATES = []   # (series, b, degree, verdict) for criterion 11
_IMMERSIONS = []              # (immersion, series, b, degree)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")
            return result
        return wrapper
    return deco


def _record_negative(series, b, degree):
    verdict = resolvability(series, b, degree)
    assert isinstance(verdict, CertifiedNotResolvable)
    _NEGATIVE_CERTIFICATES.append((series, b, degree, verdict))
    return verdict


def _record_immersion(imm, series, b, degree):
    _IMMERSIONS.append((imm, series, b, degree))
    return imm


@criterion(1, "space-form classification")
def test_criterion_1():
    expected = {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 2, (2, 2): 5}
    for (n, k), rank in expected.items():
        d = space_form_diastasis(n, 1, 2 * k).scale(k)
        verdict = resolvability(d, 1, 2 * k)
        assert verdict == ResolvableUpTo(2 * k, rank)
        assert rank == math.comb(n + k, k) - 1
    for c in (Fraction(1, 2), Fraction(3, 2)):
        d = space_form_diastasis(1, 1, 4).scale(c)
        verdict = _record_negative(d, 1, 4)
        if c == Fraction(1, 2):
            assert verdict.witness.value == Fraction(-1, 8)


@criterion(2, "hyperbolic and flat embedding radicands")
def test_criterion_2():
    def mfact(m):
        out = 1
        for e in m:
            out *= math.factorial(e)
        return out

    cases = [
        (-1, 0, lambda m: Fraction(math.factorial(sum(m) - 1), mfact(m))),
        (-1, 1, lambda m: Fraction(math.factorial(sum(m)), mfact(m))),
        (0, 1, lambda m: Fraction(1, mfact(m))),
    ]
    for n, degree in [(1, 5), (2, 4)]:
        for b_src, b_tgt, radicand in cases:
            d = space_form_diastasis(n, b_src, degree)
            imm = factor_immersion(d, b_tgt, degree)
            _record_immersion(imm, d, b_tgt, degree)
            seen = {}
            for comp in imm.components:
                (j,) = comp.nums
                assert (comp.den, comp.nums[j]) == (1, (1, 0))
                seen[index_of_ordinal(n, j)] = comp.radicand
            for m in GradedOrder(n, degree).basis[1:]:
                assert seen[m] == radicand(m), (n, b_src, b_tgt, m)
            assert verify_immersion(imm, d, b_tgt, degree)


@criterion(3, "Lie-ball degree-2 obstruction")
def test_criterion_3():
    d = build_model("omega4", {"n": "3"}, 2)
    verdict = _record_negative(d, 0, 2)
    mat = build_matrix(normalize_to_diastasis(d), 2)
    squares = {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    vec = [CScalar(1) if m in squares else CScalar(0) for m in mat.basis]
    assert mat.quadratic_form(vec) == Fraction(-9)
    # the emitted witness is an equally valid certificate
    assert mat.quadratic_form(verdict.witness.components) == \
        verdict.witness.value < 0


@criterion(4, "circular-domain potential obstruction")
def test_criterion_4():
    d = build_model("phiB", {}, 3)
    verdict = _record_negative(d, 0, 3)
    # golden: already refuted at degree 2 with witness value -3
    v2 = _record_negative(build_model("phiB", {}, 2), 0, 2)
    assert v2.witness.value == Fraction(-3)
    mat = build_matrix(normalize_to_diastasis(d), 3)
    assert mat.quadratic_form(verdict.witness.components) == \
        verdict.witness.value < 0


@criterion(5, "Hartogs profile suite")
def test_criterion_5():
    for p in (Fraction(1, 2), 1, 3):
        F = profile_one_minus_x_pow(p, 8)
        for c in (Fraction(1, 3), 1, Fraction(5, 2)):
            assert isinstance(hartogs_criterion(F, c, 8, 8), ResolvableUpTo)

    F = profile_inv_one_plus_x_pow(1, 8)
    for c in (1, 2, 3):
        assert isinstance(hartogs_criterion(F, c, 8, 8), ResolvableUpTo)
    for c in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        v = hartogs_criterion(F, c, 8, 8)
        assert isinstance(v, CertifiedNotResolvable)
    w = hartogs_criterion(F, Fraction(3, 2), 8, 8).witness
    assert (w.j, w.k) == (3, 0)

    F = profile_rhp_cubic(25)
    golden = {Fraction(1, 2): Fraction(-120379, 574992),
              Fraction(1): Fraction(-14255, 35937),
              Fraction(2): Fraction(-25340, 35937),
              Fraction(5): Fraction(-39565, 35937)}
    for c, coeff in golden.items():
        v = hartogs_criterion(F, c, 25, 8)
        assert isinstance(v, CertifiedNotResolvable)
        assert (v.witness.j, v.witness.k) == (3, 0)
        assert v.witness.coefficient == coeff

    for b in (0, 1, -1):
        for c in (1, 2):
            d = build_model("hartogs_inv_sqrt", {"n": "2", "scale": str(c)},
                            4)
            _record_negative(d, b, 4)


@criterion(6, "cigar obstruction and Bell identities")
def test_criterion_6():
    scan = cigar_scan(1, 8)
    assert scan.first_negative_n == 4
    assert scan.y_value == Fraction(-1, 12)
    assert scan.coefficient == Fraction(-1, 288)

    import mpmath as mp
    limit = cigar_limit(1, 12)
    with mp.workdps(30):
        closed_form = 1 - mp.e ** (-(mp.pi ** 2) / 6)
    assert abs(limit.float_value - float(closed_form)) < 1e-9

    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
              for _ in range(n)]
        a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        scaled = [a * b ** i * x for i, x in enumerate(xs, start=1)]
        assert bell_partial(n, k, scaled) == \
            a ** k * b ** n * bell_partial(n, k, xs)
        assert bell_complete(n, scaled[:n]) == sum(
            a ** kk * b ** n * bell_partial(n, kk, xs)
            for kk in range(1, n + 1))
        # exp link at this n
        s = RSeries.univariate(
            [Fraction(0)] + [x / math.factorial(i)
                             for i, x in enumerate(xs, start=1)], n)
        assert s.exp().ucoeff(n) == \
            bell_complete(n, xs) / math.factorial(n)


@criterion(7, "Taub-NUT projective-inducedness threshold")
def test_criterion_7():
    rng = random.Random(13)
    for _ in range(20):
        alpha = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        m = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        phi = taubnut_potential(m, "slice", 2)
        coeff = b_transform(phi, alpha).scale(alpha).get_index((2,), (2,))
        assert coeff == CScalar(alpha * (alpha - 2 * m) / 2)
        if m > alpha / 2:
            _record_negative(phi, alpha, 2)
    # pinned instance of the threshold: m = 1, alpha = 1
    _record_negative(taubnut_potential(1, "slice", 2), 1, 2)


@criterion(8, "Einstein constants of space forms")
def test_criterion_8():
    for n in (1, 2, 3):
        for b in (1, -1, 2, -3):
            d = space_form_diastasis(n, b, 4)
            result = einstein_estimate(d, 4)
            assert result == EinsteinResult(Fraction(2 * b * (n + 1)),
                                            flat=False)
    cigar = einstein_estimate(build_model("cigar", {}, 4), 4)
    assert isinstance(cigar, NotEinstein)


@criterion(9, "Wallach-set decisions")
def test_criterion_9():
    rank_one = DomainInvariants(1, Fraction(2), 2, 1)
    for c in (Fraction(1, 100), Fraction(1, 7), 1, 5):
        assert bergman_scaling_decision(rank_one, c)

    synthetic = DomainInvariants(2, Fraction(2), 4, 2)  # threshold 1
    grid = {Fraction(1, 8): False,   # eta = 1/2, off-lattice
            Fraction(1, 4): True,    # eta = 1, top lattice point
            Fraction(3, 8): True,    # eta = 3/2, continuous
            Fraction(1, 16): False}  # eta = 1/4, below and off-lattice
    for c, expected in grid.items():
        assert bergman_scaling_decision(synthetic, c) == expected
    assert wallach_membership(synthetic, 0).kind == "discrete"  # cγ=0 case
    assert not bergman_scaling_decision(synthetic, Fraction(1, 10 ** 9)) \
        or synthetic.threshold == 0

    rng = random.Random(29)
    for _ in range(50):
        inv = DomainInvariants(rng.randint(1, 4),
                               Fraction(rng.randint(0, 4), rng.randint(1, 2)),
                               rng.randint(1, 6), rng.randint(1, 3))
        mu = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        conj = True
        m = 0
        while (c + m) * mu <= inv.threshold:
            eta = (c + m) * mu
            member = wallach_membership(inv, eta)
            if member.kind != "discrete" or eta == 0:
                conj = False
                break
            m += 1
        assert (cartan_hartogs_failure(inv, mu, c) is None) == conj


@criterion(10, "tubular ODE metric jet")
def test_criterion_10():
    y, _ = calabi_tube(2, 3)
    assert y.ucoeff(2) == Fraction(1, 2)
    assert y.ucoeff(4) == Fraction(1, 32)
    assert calabi_tube_residual(2, y) == RSeries.zero(1, max(y.d - 2, 0))

    # independent high-precision ODE integration; Richardson extraction
    import mpmath as mp
    with mp.workdps(25):
        r0 = mp.mpf("1e-6")
        f = mp.odefun(lambda r, v: [v[1], mp.e ** v[0] * (r / v[1])],
                      r0, [r0 ** 2 / 2, r0])

        def richardson(samples):
            vals = list(samples)
            for level in range(1, len(vals)):
                vals = [(mp.mpf(4) ** level * vals[i + 1] - vals[i])
                        / (mp.mpf(4) ** level - 1)
                        for i in range(len(vals) - 1)]
            return vals[0]

        rs = [mp.mpf("0.1") / 2 ** i for i in range(4)]
        c2 = richardson([f(r)[0] / r ** 2 for r in rs])
        c4 = richardson([(f(r)[0] - r ** 2 / 2) / r ** 4 for r in rs])
        assert abs(c2 - mp.mpf(1) / 2) < mp.mpf("1e-10")
        assert abs(c4 - mp.mpf(1) / 32) < mp.mpf("1e-10")


@criterion(11, "certificate soundness sweep")
def test_criterion_11():
    assert _NEGATIVE_CERTIFICATES, "negative verdicts must run first"
    for series, b, degree, verdict in _NEGATIVE_CERTIFICATES:
        transformed = b_transform(normalize_to_diastasis(series),
                                  Fraction(b))
        mat = build_matrix(transformed, degree)
        w = verdict.witness
        assert mat.quadratic_form(w.components) == w.value < 0
    assert _IMMERSIONS
    for imm, series, b, degree in _IMMERSIONS:
        assert verify_immersion(imm, series, b, degree)
