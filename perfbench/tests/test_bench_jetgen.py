from fractions import Fraction

import pytest
import sympy

import jetgen


def parse(text):
    """{(m_j, m_k): re + i im} from the series text format."""
    out = {}
    for line in text.splitlines():
        mj, mk, re, im = (p.strip() for p in line.split(";"))
        key = (tuple(map(int, mj.split(","))), tuple(map(int, mk.split(","))))
        out[key] = (Fraction(re), Fraction(im))
    return out


def matrix(coeffs, n, d):
    basis = jetgen.monomials(n, d)

    def entry(j, k):
        re, im = coeffs.get((basis[j], basis[k]), (Fraction(0), Fraction(0)))
        return (sympy.Rational(re.numerator, re.denominator)
                + sympy.I * sympy.Rational(im.numerator, im.denominator))
    return sympy.Matrix(len(basis), len(basis), entry)


def test_same_seed_gives_identical_bytes():
    assert jetgen.psd_jet(7, 2, 4, 5) == jetgen.psd_jet(7, 2, 4, 5)
    assert jetgen.indefinite_jet(7, 2, 4, 5) == jetgen.indefinite_jet(7, 2, 4, 5)
    assert jetgen.psd_jet(7, 2, 4, 5) != jetgen.psd_jet(8, 2, 4, 5)


@pytest.mark.parametrize("seed,n,d,r", [(0, 2, 3, 4), (3, 3, 2, 6), (5, 1, 6, 6)])
def test_psd_jet_is_hermitian_psd_of_rank_r(seed, n, d, r):
    coeffs = parse(jetgen.psd_jet(seed, n, d, r))
    for (mj, mk), (re, im) in coeffs.items():
        assert coeffs[(mk, mj)] == (re, -im)
    a = matrix(coeffs, n, d)
    assert a.rank() == r
    # A Hermitian matrix has real eigenvalues, so it is PSD exactly when the
    # coefficients of its characteristic polynomial alternate in sign.
    t = sympy.Symbol("t")
    for k, c in enumerate(a.charpoly(t).all_coeffs()):
        c = sympy.nsimplify(sympy.expand(c))
        assert sympy.im(c) == 0 and (-1) ** k * sympy.re(c) >= 0


def test_indefinite_jet_has_a_negative_diagonal():
    n, d, r = 2, 3, 4
    coeffs = parse(jetgen.indefinite_jet(1, n, d, r))
    negative = [(m, c) for (m, k), c in coeffs.items() if m == k and c[0] < 0]
    assert len(negative) == 1
    m, (re, im) = negative[0]
    off = sum(a * a + b * b for (j, k), (a, b) in coeffs.items()
              if j == m and k != m)
    assert im == 0 and re < -off


def test_rank_above_basis_size_is_refused():
    with pytest.raises(ValueError):
        jetgen.psd_jet(0, 1, 2, 3)
