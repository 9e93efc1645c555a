import random
from fractions import Fraction

import pytest

from kahlerimm.immersion import factor_immersion, verify_immersion
from kahlerimm.models import (build_model, cartan_hartogs_diastasis,
                              minus_log_norm, space_form_diastasis)
from kahlerimm.symmetric import (DomainInvariants, MissingBaseMapError,
                                 bergman_scaling_decision,
                                 cartan_hartogs_failure, ch_immersion,
                                 classical_invariants, wallach_membership)


def test_classical_invariants():
    inv = classical_invariants("omega1", 2, 3)
    assert (inv.rank, inv.a, inv.genus, inv.dim) == (2, 2, 5, 6)
    assert classical_invariants("omega1", 3, 2).rank == 2  # symmetrized
    inv2 = classical_invariants("omega2", 3)
    assert (inv2.rank, inv2.a, inv2.genus, inv2.dim) == (3, 1, 4, 6)
    inv3 = classical_invariants("omega3", 4)
    assert (inv3.rank, inv3.a, inv3.genus, inv3.dim) == (2, 4, 3, 6)
    inv4 = classical_invariants("omega4", 5)
    assert (inv4.rank, inv4.a, inv4.genus, inv4.dim) == (2, 3, 5, 5)
    with pytest.raises(ValueError):
        classical_invariants("omega4", 2)
    with pytest.raises(ValueError):
        classical_invariants("omega9", 1)


@pytest.mark.parametrize("kind,sizes,needs", [
    ("omega1", (), "2 sizes m,n, got 0"),
    ("omega1", (2,), "2 sizes m,n, got 1"),
    ("omega2", (1, 2), "1 size n, got 2"),
    ("omega3", (), "1 size n, got 0"),
    ("omega4", (1, 2), "1 size n, got 2"),
])
def test_classical_invariants_size_count(kind, sizes, needs):
    with pytest.raises(ValueError, match=rf"^{kind} needs {needs}$"):
        classical_invariants(kind, *sizes)


def test_threshold():
    assert DomainInvariants(2, Fraction(2), 4, 1).threshold == 1
    assert DomainInvariants(1, Fraction(2), 2, 1).threshold == 0


def test_wallach_membership_grid():
    inv = DomainInvariants(3, Fraction(2), 6, 3)  # lattice {0, 1, 2}
    assert wallach_membership(inv, 0).kind == "discrete"
    assert wallach_membership(inv, 1) .k == 1
    assert wallach_membership(inv, 2).kind == "discrete"
    assert wallach_membership(inv, Fraction(3, 2)).kind == "outside"
    assert wallach_membership(inv, Fraction(5, 2)).kind == "continuous"
    assert wallach_membership(inv, -1).kind == "outside"


def test_wallach_rank_one_accepts_everything_positive():
    inv = DomainInvariants(1, Fraction(2), 2, 1)
    for c in (Fraction(1, 100), Fraction(1), Fraction(7, 3)):
        assert bergman_scaling_decision(inv, c)
    with pytest.raises(ValueError):
        bergman_scaling_decision(inv, 0)


def test_bergman_scaling_boundary():
    inv = DomainInvariants(2, Fraction(2), 5, 6)  # threshold 1
    assert bergman_scaling_decision(inv, Fraction(1, 5))      # eta = 1
    assert not bergman_scaling_decision(inv, Fraction(1, 10))  # eta = 1/2
    assert bergman_scaling_decision(inv, Fraction(2, 5))      # eta = 2 > 1


def test_degenerate_lattice():
    inv = DomainInvariants(3, Fraction(0), 2, 1)  # a = 0: threshold 0
    assert wallach_membership(inv, 0).kind == "discrete"
    assert wallach_membership(inv, Fraction(1, 2)).kind == "continuous"


def test_cartan_hartogs_failure_values():
    inv = DomainInvariants(2, Fraction(2), 5, 6)  # threshold 1, lattice {0,1}
    # mu = 1, c = 2: eta = 2 > 1 immediately -> all pass
    assert cartan_hartogs_failure(inv, 1, 2) is None
    # mu = 1/2, c = 1: eta = 1/2 not in lattice -> m = 0 fails
    assert cartan_hartogs_failure(inv, Fraction(1, 2), 1) == 0
    # mu = 1, c = 1: eta = 1 discrete, then m = 1 -> eta = 2 continuous
    assert cartan_hartogs_failure(inv, 1, 1) is None
    with pytest.raises(ValueError):
        cartan_hartogs_failure(inv, 0, 1)


def test_cartan_hartogs_equals_naive_conjunction():
    rng = random.Random(5)
    for _ in range(50):
        rank = rng.randint(1, 4)
        a = Fraction(rng.randint(0, 4), rng.randint(1, 2))
        inv = DomainInvariants(rank, a, rng.randint(1, 6), rng.randint(1, 4))
        mu = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        # naive: every m >= 0 with (c+m)mu <= threshold must land on a
        # nonzero discrete point; beyond the threshold everything passes
        ok = True
        m = 0
        while (c + m) * mu <= inv.threshold:
            eta = (c + m) * mu
            member = wallach_membership(inv, eta)
            if member.kind != "discrete" or eta == 0:
                ok = False
                break
            m += 1
        assert (cartan_hartogs_failure(inv, mu, c) is None) == ok


# ---------------------------------------------------------------------------
# explicit Cartan-Hartogs immersion
# ---------------------------------------------------------------------------

def _disc_base_map(degree):
    # the disc's Bergman diastasis is genus * (-log N) = 2 * (-log(1-|z|^2))
    def base(k):
        d = space_form_diastasis(1, -1, degree).scale(2 * k)
        return factor_immersion(d, 1, degree)
    return base


def test_ch_immersion_round_trip():
    # base = unit disc (genus 2), mu = 2, alpha = 1:
    # the assembled map must pull back to b_transform of the CH diastasis
    degree = 4
    base = minus_log_norm("omega1", (1, 1), degree)
    d = cartan_hartogs_diastasis(base, 2, degree)
    imm = ch_immersion(_disc_base_map(degree), mu=2, gamma=2, alpha=1,
                       degree=degree)
    assert verify_immersion(imm, d, 1, degree).ok


def test_ch_immersion_fractional_alpha():
    degree = 3
    base = minus_log_norm("omega1", (1, 1), degree)
    d = cartan_hartogs_diastasis(base, 2, degree).scale(Fraction(3, 2))
    imm = ch_immersion(_disc_base_map(degree), mu=2, gamma=2,
                       alpha=Fraction(3, 2), degree=degree)
    assert verify_immersion(imm, d, 1, degree).ok


def test_ch_immersion_w_support_disjoint():
    from kahlerimm.series import index_of_ordinal
    degree = 3
    imm = ch_immersion(_disc_base_map(degree), mu=2, gamma=2, alpha=1,
                       degree=degree)
    for comp in imm.components:
        wdegs = {index_of_ordinal(imm.arity, j)[-1]
                 for j in comp.series.coeffs}
        assert len(wdegs) == 1  # each component lives at one w-power


def test_ch_immersion_missing_base_map():
    with pytest.raises(MissingBaseMapError):
        ch_immersion({}, mu=1, gamma=2, alpha=1, degree=2)


def test_ch_immersion_rejects_nonpositive():
    with pytest.raises(ValueError):
        ch_immersion(_disc_base_map(2), mu=0, gamma=2, alpha=1, degree=2)
