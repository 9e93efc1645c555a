"""The matrix engine against the Hua-Schmid closed form.

The scaled Bergman model c g_B of a classical domain at b = 1 has the
b-transformed diastasis h^-eta - 1, eta = c * genus, whose coefficient
matrix has the inertia ``oracles.hua_schmid_prediction`` computes from the
K-types of the domain.  So ``resolvability`` must print PSD exactly when
no (eta)_m of degree <= d is negative, with the rank the count of the
positive ones, and otherwise a witness in the least degree of a negative
one; and ``bergman_scaling_decision``, the Wallach-set test, must say yes
exactly when the prediction is PSD at every degree, which is already
decided at degree r.
"""
from fractions import Fraction
from math import comb

import pytest

from kahlerimm.models import build_model
from kahlerimm.resolvability import CertifiedNotResolvable, ResolvableUpTo, \
    resolvability
from kahlerimm.symmetric import bergman_scaling_decision, classical_invariants
from oracles import hua_schmid_prediction, schmid_dimension, signatures

# (kind, sizes, degrees of the matrix run)
DOMAINS = [
    ("omega1", (2, 2), (2, 3, 4)), ("omega1", (2, 3), (2, 3)),
    ("omega1", (3, 3), (3,)),
    ("omega2", (2,), (2, 3)), ("omega2", (3,), (2, 3)),
    ("omega3", (4,), (2, 3)), ("omega3", (5,), (2, 3)),
    ("omega3", (6,), (2,)),
    ("omega4", (3,), (2, 3)), ("omega4", (4,), (2, 3)),
    ("omega4", (5,), (2, 3)),
]


def etas(kind, sizes):
    """eta at each lattice point k a/2 (0 < k < r), halfway below each
    lattice point and at the first point past it, and in the continuous
    part."""
    inv = classical_invariants(kind, *sizes)
    step = inv.a / 2
    return sorted({step * k for k in range(1, inv.rank)}
                  | {step * (2 * k - 1) / 2 for k in range(1, inv.rank + 1)}
                  | {inv.threshold + step / 2})


def parameters(kind, sizes):
    if kind == "omega1":
        return {"m": sizes[0], "n": sizes[1]}
    return {"n": sizes[0]}


CASES = [(kind, sizes, degree, eta)
         for kind, sizes, degrees in DOMAINS
         for degree in degrees for eta in etas(kind, sizes)]


@pytest.mark.parametrize("kind,sizes,degree,eta", CASES,
                         ids=lambda v: str(v).replace(" ", ""))
def test_matrix_verdict_matches_the_hua_schmid_inertia(kind, sizes, degree,
                                                       eta):
    inv = classical_invariants(kind, *sizes)
    jet = build_model(kind, {**parameters(kind, sizes),
                             "scale": eta / inv.genus}, degree)
    verdict = resolvability(jet, 1, degree)
    want = hua_schmid_prediction(kind, sizes, eta, degree)
    if want.psd:
        assert verdict == ResolvableUpTo(degree, want.rank)
        return
    assert isinstance(verdict, CertifiedNotResolvable)
    w = verdict.witness
    support = {sum(m) for m, x in zip(w.basis, w.components)
               if not x.is_zero()}
    assert support == {want.witness_degree}


@pytest.mark.parametrize("kind,sizes", [(k, s) for k, s, _ in DOMAINS])
def test_wallach_decision_matches_the_hua_schmid_inertia(kind, sizes):
    inv = classical_invariants(kind, *sizes)
    points = etas(kind, sizes) + [Fraction(1, 7), inv.threshold * 3]
    for eta in points:
        # a failure shows by degree k + 1 <= r for eta below k a/2
        want = hua_schmid_prediction(kind, sizes, eta, inv.rank)
        assert bergman_scaling_decision(inv, eta / inv.genus) == want.psd


def test_k_types_split_each_degree():
    # the dimension count the prediction asserts, on sizes past the matrix
    # runs: sum of dim P_m over |m| = t is C(N + t - 1, t)
    for kind, sizes in [("omega1", (3, 4)), ("omega2", (4,)),
                        ("omega3", (7,)), ("omega4", (6,))]:
        inv = classical_invariants(kind, *sizes)
        for t in range(1, 6):
            total = sum(schmid_dimension(kind, sizes, m)
                        for m in signatures(inv.rank, t))
            assert total == comb(inv.dim + t - 1, t)
