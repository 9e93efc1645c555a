"""Exact constructions the tests compare the package against.

None of these is reached from the command line, so none is package code:

* ``space_form_classification`` and ``space_form_rank``: Calabi's closed
  form for which space forms immerse into which, and with what rank;
* ``cs_add``, ``cs_scale``, ``cs_product``, ``cs_power_sum``, ``cs_det``
  and ``cs_dumps``: the series operations term by term in ``CScalar``
  arithmetic, on dicts of coefficients, the oracles of the integer form
  that ``BiSeries`` stores;
* ``ch_immersion``: the Cartan-Hartogs immersion assembled from base maps
  (Loi & Zedda, Math. Ann. 350, 2011), an oracle for ``factor_immersion``;
* ``mul_conj``: f conj(g) term by term, the oracle of the pullback norm,
  on holomorphic values kept as plain {ordinal: value} dicts
  (``component`` builds a ``Component`` from one, ``values_of`` reads one
  back);
* ``is_pivoted_ldl``: the pivoted-LDL* shape test of a map by Schur
  diagonals in ``Fraction``, the oracle of the shape test in the backward
  pass that ``verify_immersion`` runs;
* ``is_circular``: no entry of a coefficient matrix couples two degrees,
  the case in which ``principal_blocks`` splits it by degree;
* ``calabi_tube_residual``: the ODE residual of the tubular metric jet;
* ``hartogs_scan``: the Hartogs sign scan with one ``pow_normalized`` per
  k, the oracle of the product chain in ``hartogs_criterion``;
* ``hua_schmid_prediction``: the inertia of the coefficient matrix of
  h^-eta on a classical domain, from the Hua-Schmid decomposition, an
  oracle for ``resolvability`` on the scaled Bergman models.
"""
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from kahlerimm.immersion import Component, ImmersionMap, Target
from kahlerimm.radial import RSeries
from kahlerimm.resolvability import CertifiedNotResolvable, HartogsWitness, \
    ResolvableUpTo
from kahlerimm.scalars import CScalar, as_fraction
from kahlerimm.series import BiSeries, as_scalars, graded_order, \
    index_of_ordinal, integer_form, ordinal_of_index, reduced
from kahlerimm.symmetric import classical_invariants


# ---------------------------------------------------------------------------
# space forms
# ---------------------------------------------------------------------------

def space_form_classification(b, b_target):
    """(exists, k or None for infinite rank, reason) per the case split
    b <= b'; b <= 0 with infinite rank; b' = k b for a positive integer k."""
    if not b_target:
        if b > 0:
            return False, None, "positively curved source admits no flat target"
        if not b:
            return True, 1, "flat into flat: identity"
        return True, None, "nonpositive curvature into flat, infinite rank"
    if b > b_target:
        return False, None, "requires b <= b_target"
    if b:
        k = b_target / b
        if k.denominator == 1 and k > 0:
            return True, int(k), "b_target = k*b with k a positive integer"
    if b < 0 or (not b and b_target > 0):
        return True, None, "nonpositive source curvature, infinite rank"
    return False, None, "b_target not a positive integer multiple of b"


def space_form_rank(n, b, b_target):
    """Global rank of the space-form immersion: finite C(n+k,k)-1 when
    b_target = k b, None for infinite rank; raises if no map exists."""
    exists, k, reason = space_form_classification(as_fraction(b),
                                                  as_fraction(b_target))
    if not exists:
        raise ValueError(f"no immersion: {reason}")
    if k is None:
        return None
    return math.comb(n + k, k) - 1


# ---------------------------------------------------------------------------
# series values in CScalar arithmetic
# ---------------------------------------------------------------------------

def exp_coefficient(k):
    return Fraction(1, math.factorial(k))


def log1p_coefficient(k):
    return Fraction((-1) ** (k + 1), k) if k else Fraction(0)


def binomial(e):
    def coefficient(k):
        num = Fraction(1)
        for i in range(k):
            num *= e - i
        return num / math.factorial(k)
    return coefficient


def cs_nonzero(coeffs):
    return {key: c for key, c in coeffs.items() if not c.is_zero()}


def cs_truncate(n, d, a):
    """The coefficients of ``a`` at both ordinals of degree <= d."""
    size = math.comb(n + d, n)
    return {(j, k): c for (j, k), c in a.items() if j < size and k < size}


def cs_add(n, d, a, b, sign=1):
    """a + sign * b truncated at degree d."""
    out = {}
    for src, w in ((a, 1), (b, sign)):
        for jk, c in cs_truncate(n, d, src).items():
            out[jk] = out.get(jk, CScalar(0)) + c * w
    return cs_nonzero(out)


def cs_scale(a, factor):
    return cs_nonzero({jk: c * CScalar.of(factor) for jk, c in a.items()})


def cs_product(n, d, a, b):
    """a * b term by term, truncated at degree d on each side."""
    out = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            mj = tuple(map(sum, zip(index_of_ordinal(n, j1),
                                    index_of_ordinal(n, j2))))
            mk = tuple(map(sum, zip(index_of_ordinal(n, k1),
                                    index_of_ordinal(n, k2))))
            if sum(mj) > d or sum(mk) > d:
                continue
            key = (ordinal_of_index(mj), ordinal_of_index(mk))
            out[key] = out.get(key, CScalar(0)) + c1 * c2
    return cs_nonzero(out)


def cs_power_sum(n, d, a, coeff_at):
    """sum_k coeff_at(k) a^k truncated at degree d, for ``a`` with no
    constant term: a^k vanishes once k > 2d."""
    out = cs_scale({(0, 0): CScalar(1)}, coeff_at(0))
    power = {(0, 0): CScalar(1)}
    for k in range(1, 2 * d + 1):
        power = cs_product(n, d, power, a)
        out = cs_add(n, d, out, cs_scale(power, coeff_at(k)))
    return out


def cs_det(n, d, matrix):
    """The Leibniz permutation sum of a square matrix of coefficient
    dicts."""
    size = len(matrix)
    out = {}
    for perm in itertools.permutations(range(size)):
        inversions = sum(1 for i in range(size) for j in range(i + 1, size)
                         if perm[i] > perm[j])
        prod = {(0, 0): CScalar(1)}
        for row, col in enumerate(perm):
            prod = cs_product(n, d, prod, matrix[row][col])
        out = cs_add(n, d, out, prod, (-1) ** inversions)
    return out


def cs_dumps(n, a):
    """The series text of the coefficients ``a``: one line
    ``m_j ; m_k ; re ; im`` per coefficient in graded order, each part as
    ``str(Fraction)`` prints it."""
    def text(o):
        return ",".join(map(str, index_of_ordinal(n, o)))
    return "".join(f"{text(j)} ; {text(k)} ; {c.re} ; {c.im}\n"
                   for (j, k), c in sorted(a.items()))


# ---------------------------------------------------------------------------
# holomorphic series
# ---------------------------------------------------------------------------

def degree_of(n, ordinal):
    return sum(index_of_ordinal(n, ordinal))


def monomial(m, coeff=1):
    """coeff * z^m as {ordinal: value}."""
    return {ordinal_of_index(tuple(m)): CScalar.of(coeff)}


def mul_monomial(f, n, d, m):
    """f * z^m for f of arity n, dropping terms beyond degree d."""
    out = {}
    for j, c in f.items():
        e = tuple(a + b for a, b in zip(index_of_ordinal(n, j), m))
        if sum(e) <= d:
            out[ordinal_of_index(e)] = c
    return out


def lift_arity(f, n, extra):
    """f of arity n in n + extra variables, the new ones appended and
    unused."""
    zeros = (0,) * extra
    return {ordinal_of_index(index_of_ordinal(n, j) + zeros): c
            for j, c in f.items()}


def mul_conj(f, g, n, d):
    """f * conj(g), both of arity n, as a BiSeries truncated at degree d."""
    out = {}
    for j, cj in f.items():
        if degree_of(n, j) > d:
            continue
        for k, ck in g.items():
            if degree_of(n, k) > d:
                continue
            out[(j, k)] = out.get((j, k), CScalar(0)) + cj * ck.conj()
    return BiSeries(n, d, out)


def component(radicand, values):
    """The ``Component`` sqrt(radicand) * f of f = {ordinal: value}."""
    return Component(Fraction(radicand), *integer_form(values))


def values_of(comp):
    """The holomorphic factor of a ``Component`` as {ordinal: CScalar}."""
    return as_scalars(comp.den, comp.nums)


def is_pivoted_ldl(imm):
    """True when the components of ``imm`` are, in order, the columns and
    pivots that ``psd_certify`` takes from the map's own pullback norm.

    Summing S_h = sum_{i >= h} r_i |f_i|^2 from the last component back,
    component h must be 1 at the position the pivot rule picks from S_h
    (the largest, ties to the lowest position, within the lowest degree
    first when every component is of one degree), and S_h there must equal
    r_h.  Every position of S_h is scanned for every component.
    """
    degree = graded_order(imm.arity, imm.degree).degree
    comps = [(comp.radicand, values_of(comp)) for comp in imm.components]
    blocked = all(len({degree[j] for j in f}) <= 1 for _, f in comps)
    schur = {}
    for rad, f in reversed(comps):
        for j, c in f.items():
            schur[j] = schur.get(j, 0) + rad * c.abs2()
        p = max(schur, default=None, key=lambda q: (
            -degree[q] if blocked else 0, schur[q], -q))
        if f.get(p) != CScalar(1) or schur[p] != rad:
            return False
    return True


def is_circular(matrix):
    """True when no entry of the ``HermMatrix`` couples two degrees of
    its basis, so that it is block-diagonal by degree."""
    degree = [sum(m) for m in matrix.basis]
    return all(degree[r] == degree[c] for r, c in matrix.nums)


# ---------------------------------------------------------------------------
# Cartan-Hartogs immersion
# ---------------------------------------------------------------------------

class MissingBaseMapError(KeyError):
    """A base immersion at a required scaling was not supplied."""


def pochhammer_over_fact(alpha, m):
    """alpha (alpha+1) ... (alpha+m-1) / m!, rational alpha."""
    num = Fraction(1)
    for i in range(m):
        num *= alpha + i
    return num / math.factorial(m)


def ch_immersion(base_maps, mu, gamma, alpha, degree):
    """Assemble the Cartan-Hartogs projective immersion at scaling alpha.

    ``base_maps`` (a mapping or a callable) supplies, for each needed
    scaling k = mu (alpha+m)/gamma, a base map h_k whose squared norm is
    exp(k * gamma * (-log N)) - 1 — i.e. factor_immersion of
    k * (Bergman diastasis of the base) with b=1.  Components:
      * w-only: sqrt(poch(alpha,m)/m!) w^m  for m >= 1;
      * z-only: the components of h_{mu alpha/gamma};
      * mixed:  sqrt(poch(alpha,m)/m!) * h_{mu(alpha+m)/gamma} * w^m.
    Any two components with different w-degree have disjoint support in w.
    """
    mu = as_fraction(mu)
    alpha = as_fraction(alpha)
    if mu <= 0 or alpha <= 0:
        raise ValueError("mu and alpha must be positive")

    def lookup(k):
        if callable(base_maps):
            return base_maps(k)
        try:
            return base_maps[k]
        except KeyError as exc:
            raise MissingBaseMapError(
                f"no base map supplied for scaling {k}") from exc

    nz = lookup(mu * alpha / gamma).arity
    n = nz + 1
    components = []
    # w-only tower
    for m in range(1, degree + 1):
        components.append(component(pochhammer_over_fact(alpha, m),
                                    monomial((0,) * nz + (m,))))
    # z-blocks tensored with w^m
    for m in range(0, degree):
        base = lookup(mu * (alpha + m) / gamma)
        if base.arity != nz:
            raise ValueError("base maps must share one arity")
        if base.degree < degree:
            raise ValueError("base map truncated below the total degree")
        factor = pochhammer_over_fact(alpha, m)
        for comp in base.components:
            # the numerators move to the ordinals of z^m' w^m, over den
            nums = mul_monomial(lift_arity(comp.nums, nz, 1), n, degree,
                                (0,) * nz + (m,))
            if nums:
                components.append(Component(comp.radicand * factor,
                                            *reduced(comp.den, nums)))
    return ImmersionMap(tuple(components), Target("curved", Fraction(1)),
                        degree, n)


# ---------------------------------------------------------------------------
# criterion 10: the tubular ODE
# ---------------------------------------------------------------------------

def calabi_tube_residual(n, y):
    """(y'/r)^{n-1} y'' - e^y; zero through y's degree minus 2."""
    yp = y.derivative()
    yp_over_r = RSeries(1, y.d, {(max(j - 1, 0),): c
                                 for (j,), c in yp.coeffs.items() if j >= 1})
    ypp = yp.derivative()
    if n == 1:
        lhs = ypp
    else:
        lhs = yp_over_r.pow_normalized(n - 1) * ypp
    return (lhs - y.exp()).truncate(max(y.d - 2, 0))


# ---------------------------------------------------------------------------
# the Hartogs criterion
# ---------------------------------------------------------------------------

def hartogs_scan(F, c, jmax, kmax):
    """The verdict of the sign scan of (F/F(0))^(-(c+k)), k = 0..kmax
    outer and j = 1..jmax inner, each power composed on its own."""
    G = F.scale(1 / F.constant_term())
    for k in range(kmax + 1):
        h = G.pow_normalized(-(as_fraction(c) + k))
        for j in range(1, jmax + 1):
            if h.ucoeff(j) < 0:
                return CertifiedNotResolvable(
                    jmax, HartogsWitness(j, k, h.ucoeff(j)))
    return ResolvableUpTo(jmax)


# ---------------------------------------------------------------------------
# Hua-Schmid: the Wallach set from the K-types of a classical domain
# ---------------------------------------------------------------------------

def gl_dimension(weight):
    """dim of the GL(len(weight)) module of highest weight ``weight``, a
    non-increasing tuple of ints (Weyl's dimension formula)."""
    out = Fraction(1)
    for i, j in itertools.combinations(range(len(weight)), 2):
        out *= Fraction(weight[i] - weight[j] + j - i, j - i)
    assert out.denominator == 1
    return int(out)


def schmid_dimension(kind, sizes, m):
    """dim P_m, the Schmid K-type of the signature m (r parts, m_1 >= ...
    >= m_r >= 0) in the polynomials on the domain (Schmid, Invent. Math. 9,
    1969); its polynomials have degree |m|."""
    if kind == "omega1":
        p, q = sizes
        return gl_dimension(m + (0,) * (p - len(m))) \
            * gl_dimension(m + (0,) * (q - len(m)))
    (n,) = sizes
    if kind == "omega2":
        return gl_dimension(tuple(2 * e for e in m) + (0,) * (n - len(m)))
    if kind == "omega3":
        doubled = tuple(e for e in m for _ in range(2))
        return gl_dimension(doubled + (0,) * (n - len(doubled)))
    if kind == "omega4":
        # P_m = q^{m_2} H_j: the harmonic polynomials of degree j = m_1 - m_2
        j = m[0] - m[1]
        return math.comb(n + j - 1, j) - (math.comb(n + j - 3, j - 2)
                                          if j >= 2 else 0)
    raise ValueError(kind)


def signatures(rank, t):
    """The partitions of t into at most ``rank`` parts, as non-increasing
    tuples of length ``rank``."""
    def parts(left, slots, top):
        if slots == 0:
            if left == 0:
                yield ()
            return
        for first in range(min(left, top), -1, -1):
            for rest in parts(left - first, slots - 1, first):
                yield (first,) + rest
    return list(parts(t, rank, t))


def generalized_pochhammer(eta, m, a):
    """(eta)_m = prod_j (eta - (j - 1) a / 2)_{m_j} (Faraut & Koranyi,
    J. Funct. Anal. 88, 1990)."""
    out = Fraction(1)
    for j, mj in enumerate(m):
        for i in range(mj):
            out *= eta - Fraction(j * a, 2) + i
    return out


class HuaSchmid(NamedTuple):
    psd: bool
    rank: int                      # the number of positive eigenvalues
    witness_degree: Optional[int]  # the least degree of a negative one


def hua_schmid_prediction(kind, sizes, eta, degree):
    """The inertia of the coefficient matrix of h^-eta - 1 through
    ``degree`` on the classical domain ``kind``, h its generic norm.

    h^-eta = sum_m (eta)_m K_m, and K_m, the reproducing kernel of P_m,
    has a PSD coefficient matrix of rank dim P_m.  The P_m of one degree
    t split the polynomials of degree t, so the degree-t block is
    congruent to the diagonal of the (eta)_m, each dim P_m times.
    """
    inv = classical_invariants(kind, *sizes)
    eta = Fraction(eta)
    rank, witness = 0, None
    for t in range(1, degree + 1):
        block = 0
        for m in signatures(inv.rank, t):
            dim = schmid_dimension(kind, sizes, m)
            block += dim
            value = generalized_pochhammer(eta, m, inv.a)
            if value > 0:
                rank += dim
            elif value < 0 and witness is None:
                witness = t
        # the K-types of degree t span the polynomials of degree t
        assert block == math.comb(inv.dim + t - 1, t), (kind, sizes, t)
    return HuaSchmid(witness is None, rank, witness)
