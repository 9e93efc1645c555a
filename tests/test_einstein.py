from fractions import Fraction

import pytest

from kahlerimm.einstein import (EinsteinResult, GaugeError, NotEinstein,
                                einstein_estimate, hessian_det)
from kahlerimm.models import build_model, space_form_diastasis
from kahlerimm.scalars import CScalar
from kahlerimm.series import BiSeries


def test_hessian_det_projective_line():
    # D = log(1+|z|^2): mixed Hessian 1/(1+|z|^2)^2 = 1 - 2x + 3x^2 - ...
    d = space_form_diastasis(1, 1, 4)
    h = hessian_det(d, 4)
    assert h.get_index((0,), (0,)) == CScalar(1)
    assert h.get_index((1,), (1,)) == CScalar(-2)
    assert h.get_index((2,), (2,)) == CScalar(3)


def test_hessian_det_flat():
    d = space_form_diastasis(2, 0, 3)
    h = hessian_det(d, 3)
    assert h == BiSeries(2, 2, {(0, 0): CScalar(1)})


def test_hessian_det_degree_validation():
    d = space_form_diastasis(1, 1, 3)
    with pytest.raises(ValueError):
        hessian_det(d, 0)
    with pytest.raises(ValueError):
        hessian_det(d, 9)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("b", [1, -1, Fraction(1, 2), 3])
def test_space_forms_einstein_constant(n, b):
    # b = 1/c is c * FS with z rescaled by 1/sqrt(c): lambda = 4/c at n = 1
    d = space_form_diastasis(n, b, 4)
    result = einstein_estimate(d, 4)
    assert result == EinsteinResult(Fraction(2 * b * (n + 1)), flat=False)


def test_flat_metric_flagged():
    result = einstein_estimate(space_form_diastasis(2, 0, 3), 3)
    assert result.flat and result.lam == 0


def test_cigar_is_not_einstein():
    result = einstein_estimate(build_model("cigar", {}, 4), 4)
    assert isinstance(result, NotEinstein)
    assert result.location == ((2,), (2,))
    assert result.got == CScalar(Fraction(1, 2))
    assert result.want == CScalar(Fraction(1, 4))


def test_requires_bochner_gauge():
    half = space_form_diastasis(1, 1, 4).scale(Fraction(1, 2))
    with pytest.raises(GaugeError):
        einstein_estimate(half, 4)


def test_a_mismatch_is_reported_without_scalar_arithmetic(monkeypatch):
    # got and want are read from the integer numerators of the series
    def refuse(*_args):
        raise AssertionError("CScalar arithmetic in the package")
    for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "conj", "abs2"):
        monkeypatch.setattr(CScalar, name, refuse)
    result = einstein_estimate(build_model("cigar", {}, 4), 4)
    assert result == NotEinstein(((2,), (2,)), CScalar(Fraction(1, 2)),
                                 CScalar(Fraction(1, 4)))
