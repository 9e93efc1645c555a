from fractions import Fraction

import pytest

from kahlerimm import models
from kahlerimm.diastasis import normalize_to_diastasis
from kahlerimm.models import (MODELS, build_model, calabi_tube,
                              cartan_bergman_diastasis,
                              cartan_hartogs_diastasis, cigar_diastasis,
                              fbh_diastasis, hartogs_diastasis,
                              minus_log_norm, phi_b_potential,
                              space_form_diastasis, taubnut_potential)
from kahlerimm.radial import RSeries
from kahlerimm.resolvability import ResolvableUpTo, build_matrix, resolvability
from kahlerimm.scalars import CScalar
from kahlerimm.series import BiSeries, solve_graded_fixed_point
from oracles import calabi_tube_residual, is_circular


def test_space_form_diastasis_jets():
    flat = space_form_diastasis(2, 0, 3)
    assert flat.get_index((1, 0), (1, 0)) == CScalar(1)
    assert len(flat.coeffs) == 2
    cp = space_form_diastasis(1, 1, 3)
    assert cp.get_index((2,), (2,)) == CScalar(Fraction(-1, 2))
    assert cp.get_index((3,), (3,)) == CScalar(Fraction(1, 3))
    ch = space_form_diastasis(1, -1, 3)
    assert ch.get_index((2,), (2,)) == CScalar(Fraction(1, 2))


def test_hartogs_diastasis_reduces_to_hyperbolic():
    # F = 1 - x gives the ball: -log(1 - x0 - rho) = hyperbolic diastasis
    F = RSeries.univariate([1, -1], 4)
    d = hartogs_diastasis(F, 2, 4)
    assert d == normalize_to_diastasis(space_form_diastasis(2, -1, 4))


def test_hartogs_diastasis_input_checks():
    with pytest.raises(ValueError):
        hartogs_diastasis(RSeries.univariate([0, 1], 3), 2, 3)
    with pytest.raises(ValueError):
        hartogs_diastasis(RSeries.zero(2, 3), 2, 3)
    with pytest.raises(ValueError):
        hartogs_diastasis(RSeries.univariate([1, -1], 3), 0, 3)


# ---------------------------------------------------------------------------
# bounded symmetric domains
# ---------------------------------------------------------------------------

def test_omega1_unit_disc():
    d, genus = cartan_bergman_diastasis("omega1", (1, 1), 3)
    assert genus == 2
    expected = normalize_to_diastasis(space_form_diastasis(1, -1, 3)).scale(2)
    assert d == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega1_row_vector_is_scaled_ball(n):
    d, genus = cartan_bergman_diastasis("omega1", (1, n), 3)
    assert genus == n + 1
    expected = normalize_to_diastasis(
        space_form_diastasis(n, -1, 3)).scale(n + 1)
    assert d == expected


def test_omega2_size_one_is_weighted_disc():
    d, genus = cartan_bergman_diastasis("omega2", (1,), 3)
    assert genus == 2
    assert d == normalize_to_diastasis(
        space_form_diastasis(1, -1, 3)).scale(2)


def test_omega4_size_one_matches_disc_square():
    d, genus = cartan_bergman_diastasis("omega4", (1,), 3)
    assert genus == 1
    # 1 + |z^2|^2 - 2|z|^2 = (1 - |z|^2)^2
    expected = normalize_to_diastasis(space_form_diastasis(1, -1, 3)).scale(2)
    assert d == expected


def test_omega4_rejects_size_two():
    with pytest.raises(ValueError):
        cartan_bergman_diastasis("omega4", (2,), 2)


def test_omega3_antisymmetric_arity():
    d, genus = cartan_bergman_diastasis("omega3", (3,), 2)
    assert genus == 2
    assert d.n == 3  # three independent entries above the diagonal
    # each entry appears twice in Z, so trace(ZZ*) counts it twice;
    # with genus 2 the linear diagonal coefficient is 4
    assert d.get_index((1, 0, 0), (1, 0, 0)) == CScalar(4)


def test_domain_jets_are_circular_and_bochner_scalable():
    for name, params in [("omega1", {"m": "2", "n": "2"}),
                         ("omega2", {"n": "2"}),
                         ("omega3", {"n": "4"}),
                         ("omega4", {"n": "3"})]:
        d = build_model(name, params, 2)
        assert is_circular(build_matrix(d, 2)), name
        assert d.is_hermitian(), name


def test_minus_log_norm_scaling():
    d, genus = cartan_bergman_diastasis("omega1", (1, 2), 2)
    assert minus_log_norm("omega1", (1, 2), 2) == d.scale(Fraction(1, genus))


# ---------------------------------------------------------------------------
# Cartan-Hartogs / FBH
# ---------------------------------------------------------------------------

def test_cartan_hartogs_over_disc():
    # base disc, mu = 1: -log(N - |w|^2) with N = 1 - |z|^2 is the
    # two-variable hyperbolic diastasis
    base = minus_log_norm("omega1", (1, 1), 3)
    d = cartan_hartogs_diastasis(base, 1, 3)
    assert d == normalize_to_diastasis(space_form_diastasis(2, -1, 3))


def test_cartan_hartogs_parameter_checks():
    base = minus_log_norm("omega1", (1, 1), 3)
    with pytest.raises(ValueError):
        cartan_hartogs_diastasis(base, 0, 3)
    with pytest.raises(ValueError):
        cartan_hartogs_diastasis(base, 1, 9)


def test_fbh_diastasis_jet():
    # nu mu |z|^2 - log(e^{-mu |z|^2} - |w|^2): linear block
    d = fbh_diastasis(1, 1, 1, 1, 3)
    assert d.get_index((1, 0), (1, 0)) == CScalar(2)  # (nu + 1) mu
    assert d.get_index((0, 1), (0, 1)) == CScalar(1)
    assert d.is_hermitian()


# ---------------------------------------------------------------------------
# cigar / Taub-NUT / tube
# ---------------------------------------------------------------------------

def test_cigar_diastasis():
    d = cigar_diastasis(4)
    assert d.get_index((1,), (1,)) == CScalar(1)
    assert d.get_index((2,), (2,)) == CScalar(Fraction(-1, 4))
    assert d.get_index((3,), (3,)) == CScalar(Fraction(1, 9))
    assert d.get_index((4,), (4,)) == CScalar(Fraction(-1, 16))


def test_taubnut_slice_jet():
    d = taubnut_potential(1, "slice", 4)
    diag = {p: d.get_index((p,), (p,)) for p in range(1, 5)}
    assert diag == {1: CScalar(1), 2: CScalar(-1), 3: CScalar(2),
                    4: CScalar(Fraction(-16, 3))}


def test_taubnut_zero_mass_is_flat():
    d = taubnut_potential(0, "full", 3)
    assert d == space_form_diastasis(2, 0, 3)


def test_taubnut_full_swap_symmetry():
    from kahlerimm.series import index_of_ordinal, ordinal_of_index
    d = taubnut_potential(Fraction(1, 2), "full", 3)
    for (j, k), c in d.coeffs.items():
        mj = index_of_ordinal(2, j)[::-1]
        mk = index_of_ordinal(2, k)[::-1]
        assert d.get(ordinal_of_index(mj), ordinal_of_index(mk)) == c


def test_taubnut_rejects_bad_input():
    with pytest.raises(ValueError):
        taubnut_potential(-1, "slice", 2)
    with pytest.raises(ValueError):
        taubnut_potential(1, "sideways", 2)


def test_calabi_tube_jet_and_residual():
    y, d0 = calabi_tube(2, 3)
    assert y.ucoeff(2) == Fraction(1, 2)
    assert y.ucoeff(4) == Fraction(1, 32)
    assert all(c == 0 for (j,), c in y.coeffs.items() if j % 2)
    assert calabi_tube_residual(2, y) == RSeries.zero(1, max(y.d - 2, 0))
    # the diastasis jet starts with the identity (2,2)-block structure
    assert d0.get_index((1, 0), (1, 0)) == CScalar(1)


@pytest.mark.parametrize("n", [1, 3])
def test_calabi_tube_other_dimensions(n):
    y, _ = calabi_tube(n, 2)
    assert y.ucoeff(2) == Fraction(1, 2)
    assert calabi_tube_residual(n, y) == RSeries.zero(1, max(y.d - 2, 0))


@pytest.mark.parametrize("build", [
    lambda: taubnut_potential(1, "slice", 9),
    lambda: taubnut_potential(Fraction(1, 3), "full", 6),
    lambda: calabi_tube(2, 4), lambda: calabi_tube(3, 3)],
    ids=["taubnut_slice", "taubnut_full", "calabi_tube_2", "calabi_tube_3"])
def test_degree_stepped_fixed_point_builds_the_same_series(monkeypatch,
                                                            build):
    stepped = build()
    monkeypatch.setattr(
        models, "solve_graded_fixed_point",
        lambda step, seed, max_steps, *stepping:
            solve_graded_fixed_point(step, seed, max_steps))
    assert build() == stepped


# ---------------------------------------------------------------------------
# fixed potentials and the registry
# ---------------------------------------------------------------------------

def test_phi_b_jet():
    d = phi_b_potential(2)
    assert d.get_index((1, 0, 0), (1, 0, 0)) == CScalar(3)
    assert d.get_index((0, 1, 0), (0, 1, 0)) == CScalar(6)
    assert d.get_index((0, 0, 1), (0, 0, 1)) == CScalar(3)
    assert d.is_hermitian()
    assert is_circular(build_matrix(d, 2))


def test_springer_profile_resolvable_at_low_degree():
    d = build_model("springer", {"n": "2"}, 3)
    assert isinstance(resolvability(d, 1, 3), ResolvableUpTo)


def test_registry_all_models_build():
    for name, entry in MODELS.items():
        d = build_model(name, {}, 2)
        assert isinstance(d, BiSeries), name
        assert d.is_hermitian(), name


def test_registry_scale_parameter():
    d1 = build_model("cp", {"n": "1"}, 3)
    d2 = build_model("cp", {"n": "1", "scale": "1/2"}, 3)
    assert d2 == d1.scale(Fraction(1, 2))


def test_registry_unknown_model():
    with pytest.raises(KeyError):
        build_model("nope", {}, 2)
