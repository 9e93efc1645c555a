"""Seeded Hermitian jets in kahlerimm's series text format.

Built with ``random`` and ``Fraction`` only, so each jet's verdict is known
from its construction and never from the library under test:

* ``psd_jet`` is sum_i |f_i|^2 over r holomorphic polynomials f_i that are
  unit-triangular: f_i has coefficient 1 on its leading monomial z^{m_{p_i}},
  random coefficients on later monomials and none before.  The leading
  positions p_i are distinct, so the f_i are independent and the coefficient
  matrix has rank exactly r.
* ``indefinite_jet`` is a PSD jet with one diagonal coefficient set below
  minus the sum of |c|^2 over its row, so its matrix has a negative diagonal
  entry and is certainly not PSD.

The seed draws the coefficients only.  The leading positions are spread
evenly over the basis and the negative diagonal sits in its middle, so the
shape of the jet, and with it the work of deciding it, is the same for
every seed.

Text lines are ``m_j ; m_k ; re ; im`` in a fixed order, so one seed gives
byte-identical files.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Tuple

Monomial = Tuple[int, ...]
Coeff = Tuple[Fraction, Fraction]


def monomials(n: int, d: int) -> List[Monomial]:
    """Exponent tuples of degree 1..d, degree by degree, in a fixed order."""
    out: List[Monomial] = []
    for deg in range(1, d + 1):
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for var in combo:
                e[var] += 1
            out.append(tuple(e))
    return out


def _random_coeff(rng: random.Random) -> Coeff:
    den = rng.choice((1, 2, 3, 4))
    return (Fraction(rng.randint(-3, 3), den), Fraction(rng.randint(-3, 3), den))


def _factors(rng: random.Random, size: int, r: int) -> List[Dict[int, Coeff]]:
    if not 1 <= r <= size:
        raise ValueError(f"rank {r} needs 1 <= r <= {size} monomials")
    leads = [i * size // r for i in range(r)]
    factors = []
    for p in leads:
        f = {p: (Fraction(1), Fraction(0))}
        for q in range(p + 1, size):
            c = _random_coeff(rng)
            if c[0] or c[1]:
                f[q] = c
        factors.append(f)
    return factors


def _gram(factors: List[Dict[int, Coeff]]) -> Dict[Tuple[int, int], Coeff]:
    """a_{jk} = sum_i f_i[j] conj(f_i[k])."""
    out: Dict[Tuple[int, int], Coeff] = {}
    for f in factors:
        for j, (ar, ai) in f.items():
            for k, (br, bi) in f.items():
                re, im = out.get((j, k), (Fraction(0), Fraction(0)))
                out[(j, k)] = (re + ar * br + ai * bi, im + ai * br - ar * bi)
    return {jk: c for jk, c in out.items() if c[0] or c[1]}


def _dumps(n: int, d: int, coeffs: Dict[Tuple[int, int], Coeff]) -> str:
    basis = monomials(n, d)
    lines = []
    for (j, k) in sorted(coeffs):
        re, im = coeffs[(j, k)]
        mj = ",".join(map(str, basis[j]))
        mk = ",".join(map(str, basis[k]))
        lines.append(f"{mj} ; {mk} ; {re} ; {im}")
    return "\n".join(lines) + "\n"


def psd_jet(seed: int, n: int, d: int, r: int) -> str:
    """A PSD jet of rank exactly ``r`` in ``n`` variables through degree ``d``."""
    rng = random.Random(f"psd/{seed}/{n}/{d}/{r}")
    size = len(monomials(n, d))
    return _dumps(n, d, _gram(_factors(rng, size, r)))


def indefinite_jet(seed: int, n: int, d: int, r: int) -> str:
    """A Hermitian jet whose coefficient matrix has a negative diagonal."""
    rng = random.Random(f"indefinite/{seed}/{n}/{d}/{r}")
    size = len(monomials(n, d))
    coeffs = _gram(_factors(rng, size, r))
    p = size // 2
    row = sum((re * re + im * im for (j, _), (re, im) in coeffs.items()
               if j == p), Fraction(0))
    coeffs[(p, p)] = (-row - 1, Fraction(0))
    return _dumps(n, d, coeffs)
