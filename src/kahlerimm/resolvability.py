"""Graded coefficient matrices and exact positive-semidefiniteness verdicts.

The central object is the Hermitian matrix (a_{jk}) of a diastasis over the
graded monomial basis (constant excluded).  ``psd_certify`` runs an exact
pivoted LDL* elimination and returns either a factorization over Gaussian
rationals (retained for building immersion maps) or a rational witness
vector w with w*Aw < 0 — a machine-checkable non-immersibility certificate.
The elimination itself is fraction-free: Bareiss's integer-preserving
steps over Gaussian integers, each division checked to be exact, with one
``Fraction`` built per pivot and per column entry returned; the lift of a
witness back through the pivots runs on Gaussian integers too.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, \
    Union

from .diastasis import b_transform, normalize_to_diastasis
from .radial import RSeries
from .scalars import CScalar, RationalLike, as_fraction
from .series import BiSeries, MultiIndex, Rows, exact_div, \
    gaussian_integers, graded_order, hermitian_defect, hermitian_update


class NotADiastasisError(ValueError):
    """A nonzero pure row/column was found where a diastasis was required."""


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

class HermMatrix(NamedTuple):
    """Hermitian coefficient matrix over the graded basis (ordinals 1..M)."""

    dimension: int
    entries: Dict[Tuple[int, int], CScalar]
    basis: Tuple[MultiIndex, ...]
    circular_flag: bool

    def get(self, row: int, col: int) -> CScalar:
        return self.entries.get((row, col), CScalar(0))

    def quadratic_form(self, v: Sequence[CScalar]) -> Fraction:
        return _qform(self.entries, v)


def build_matrix(d: BiSeries, degree: int) -> HermMatrix:
    """Coefficient matrix of ``d`` over monomials of degree 1..``degree``."""
    if degree > d.d:
        raise ValueError(f"requested degree {degree} exceeds truncation {d.d}")
    order = graded_order(d.n, degree)
    size, deg = order.size, order.degree
    entries: Dict[Tuple[int, int], CScalar] = {}
    circular = True
    for (j, k), c in d.coeffs.items():
        if j == 0 or k == 0:  # ordinal 0 is the constant
            raise NotADiastasisError(
                f"nonzero pure coefficient at ordinals ({j},{k}); "
                "normalize_to_diastasis first")
        if j >= size or k >= size:
            continue
        entries[(j - 1, k - 1)] = c
        if deg[j] != deg[k]:
            circular = False
    # ordinal 0 (constant) excluded
    return HermMatrix(size - 1, entries, order.basis[1:], circular)


# ---------------------------------------------------------------------------
# exact PSD certification
# ---------------------------------------------------------------------------

class Pivot(NamedTuple):
    """One retained LDL* step: A accumulates pivot * column * column^*."""

    ordinal: int                 # position in the basis (0-based)
    value: Fraction              # positive pivot
    column: Dict[int, CScalar]   # unit-diagonal column of L (position -> coeff)


class Psd(NamedTuple):
    rank: int
    pivots: Tuple[Pivot, ...]


class NotPsd(NamedTuple):
    witness: Tuple[CScalar, ...]  # over the full basis, first nonzero = 1
    value: Fraction               # w* A w < 0, exact


PsdVerdict = Union[Psd, NotPsd]


# (p, B_pp, x) of a pivot step of ``_eliminate``: l_q = x_q / B_pp
Step = Tuple[int, int, Dict[int, Tuple[int, int]]]


def _eliminate(mat: Dict[Tuple[int, int], CScalar],
               positions: List[int]) -> PsdVerdict:
    """Pivoted LDL* on the Hermitian dict ``mat`` over ``positions``.

    Pivot rule: largest positive diagonal entry, ties broken by lowest
    position.  When no positive diagonal remains: a negative diagonal gives
    a basis-vector witness; a zero diagonal with a nonzero off-diagonal
    gives a 2x2 principal-block witness; otherwise the remainder is zero
    and the matrix is PSD.

    The elimination is Bareiss's fraction-free one over Gaussian integers.
    Only the upper triangle of ``mat`` is read, scaled by den, the lcm of
    its denominators, into a ``series.Rows`` store.  After k pivots
    p_1..p_k, let D_k be the integer of the k-th pivot (D_0 = 1): entry
    (q, r) is then the minor of rows p_1..p_k, q and columns p_1..p_k, r of
    the scaled matrix, den D_k times the Schur complement entry.  A pivot
    step is ``hermitian_update`` with w = -1, x the pivot column, scale =
    the new pivot's integer and prev = D_k.  It visits only the pairs
    q <= r in the support of the pivot row; the entries it leaves keep the
    D they were written at and are rescaled by D_now / D_then when read.
    Every Schur diagonal is its integer over den D_k > 0, so the integers
    pick the same pivot.  The pivot is B_pp / (den D_k) and l_q =
    conj(B_pq) / B_pp, one ``Fraction`` per entry returned.  A witness is
    found on the remainder's integers and lifted through the steps.
    """
    rows: Rows = {p: {} for p in positions}
    den, upper = gaussian_integers({
        (r, c): a for (r, c), a in mat.items()
        if r <= c and r in rows and c in rows})
    for (r, c), (re, im) in upper.items():
        if re or im:
            rows[r][c] = (re, im, 1)
            if r != c:
                rows[c][r] = (re, -im, 1)
    active = sorted(positions)
    pivots: List[Pivot] = []
    steps: List[Step] = []
    prev = 1

    while True:
        best, bval = None, 0
        for p in active:
            dv = rows[p].get(p)
            if dv is None:
                continue
            re, im, scale = dv
            if im:
                raise ValueError("non-Hermitian diagonal")
            if scale != prev:
                re = exact_div(re * prev, scale)
            if re > bval:
                best, bval = p, re
        if best is None:
            witness_small = _small_witness(rows, active, den)
            if witness_small is None:
                return Psd(len(pivots), tuple(pivots))
            return _lift_witness(mat, positions, steps, witness_small)

        row = rows.pop(best)
        active.remove(best)
        del row[best]
        for q in row:
            del rows[q][best]
        x = {}  # the pivot column B_qp = conj(B_pq), at D_k
        for q, (re, im, scale) in sorted(row.items()):
            if scale != prev:
                re = exact_div(re * prev, scale)
                im = exact_div(im * prev, scale)
            x[q] = (re, -im)
        below = {q: CScalar(Fraction(re, bval), Fraction(im, bval))
                 for q, (re, im) in x.items()}
        pivots.append(Pivot(best, Fraction(bval, den * prev),
                            {best: CScalar(1), **below}))
        steps.append((best, bval, x))
        hermitian_update(rows, -1, x, bval, prev)
        prev = bval


def _small_witness(rows: Rows, active: List[int], den: int
                   ) -> Optional[Dict[int, Tuple[int, int]]]:
    """A witness on the remainder, which has no positive diagonal, as
    Gaussian integers up to a positive factor, or None when the remainder
    is zero; an entry (re, im, s) is the Schur value (re + i im) / (den s).
    """
    for p in active:
        if rows[p].get(p, (0, 0, 1))[0] < 0:
            return {p: (1, 0)}
    for p in active:
        off = [q for q in rows[p] if q != p]
        if off:
            # every diagonal of the remainder is 0 here.  The block
            # [[0, a], [conj(a), 0]]: (-a / |a|^2, 1) gives value -2 < 0;
            # with a = A / (den s), that vector times |A|^2 is
            # (-den s A, |A|^2).
            q = min(off)
            ar, ai, s = rows[p][q]
            t = den * s
            return {p: (-t * ar, -t * ai), q: (ar * ar + ai * ai, 0)}
    return None


def _lift_witness(mat: Dict[Tuple[int, int], CScalar], positions: List[int],
                  steps: List[Step], y: Dict[int, Tuple[int, int]]) -> NotPsd:
    """Lift a witness y of the remainder back through the eliminations:
    y_p = -sum_q conj(l_q) y_q over the column l of each pivot p, last
    pivot first.

    The solve runs on Gaussian integers: y is kept up to one positive
    factor, which the final scaling cancels.  With l_q = x_q / B_pp and
    s = sum_q conj(x_q) y_q, g the gcd of B_pp and the parts of s,
    y_p = -s / g and every earlier entry is multiplied by B_pp / g.  The
    first nonzero component f is scaled to 1, y_q conj(y_f) / |y_f|^2,
    one ``Fraction`` per part.
    """
    for p, pivot, x in reversed(steps):
        re = im = 0
        for q, (yr, yi) in y.items():
            xr, xi = x.get(q, (0, 0))
            # (xr - i xi)(yr + i yi)
            re += xr * yr + xi * yi
            im += xr * yi - xi * yr
        g = math.gcd(pivot, re, im)
        if g != pivot:
            scale = pivot // g
            y = {q: (yr * scale, yi * scale) for q, (yr, yi) in y.items()}
        y[p] = (-(re // g), -(im // g))
    fr, fi = y[min(q for q, (yr, yi) in y.items() if yr or yi)]
    norm = fr * fr + fi * fi
    size = (max(positions) + 1) if positions else 0
    vec = [CScalar(0)] * size
    for q, (yr, yi) in y.items():
        vec[q] = CScalar(Fraction(yr * fr + yi * fi, norm),
                         Fraction(yi * fr - yr * fi, norm))
    value = _qform(mat, vec)
    if value >= 0:  # pragma: no cover - internal soundness guard
        raise AssertionError("witness failed to certify")
    return NotPsd(tuple(vec), value)


def _qform(entries: Dict[Tuple[int, int], CScalar],
           v: Sequence[CScalar]) -> Fraction:
    """v* A v for the matrix dict A, exact; real for Hermitian A.

    A and v are put over the lcm of their denominators, Gaussian integers
    (a_re, a_im) over den_a and (x_re, x_im) over den_v; the sum
    s_r = sum_c a_rc x_c, then sum_r conj(x_r) s_r, is taken in ints, and
    one ``Fraction`` is built over den_a den_v^2.
    """
    den_a, a = gaussian_integers(entries)
    den_v, x = gaussian_integers(dict(enumerate(v)))
    s: Dict[int, Tuple[int, int]] = {}
    for (r, c), (ar, ai) in a.items():
        xr, xi = x[c]
        if xr or xi:
            sr, si = s.get(r, (0, 0))
            s[r] = (sr + ar * xr - ai * xi, si + ar * xi + ai * xr)
    re = im = 0
    for r, (sr, si) in s.items():
        xr, xi = x[r]
        re += xr * sr + xi * si
        im += xr * si - xi * sr
    if im:
        raise ValueError("quadratic form of a non-Hermitian matrix")
    return Fraction(re, den_a * den_v * den_v)


def psd_certify(matrix: HermMatrix) -> PsdVerdict:
    """Exact PSD certification with a retained factorization or a witness.

    A matrix whose entries are not Hermitian raises ValueError (checked once,
    before elimination, since ``_eliminate`` reads one triangle only).

    With ``circular_flag`` the matrix splits into independent per-degree
    principal blocks, which are factored separately (same verdict as the
    monolithic elimination; pivot sets identical up to ordering by degree).
    """
    bad = hermitian_defect(matrix.entries)
    if bad is not None:
        r, c = bad
        raise ValueError(f"the matrix is not Hermitian: entry ({r},{c}) "
                         f"is not the conjugate of entry ({c},{r})")
    positions = list(range(matrix.dimension))
    if not matrix.circular_flag:
        return _eliminate(matrix.entries, positions)
    by_degree: Dict[int, List[int]] = {}
    for p in positions:
        by_degree.setdefault(sum(matrix.basis[p]), []).append(p)
    all_pivots: List[Pivot] = []
    for deg in sorted(by_degree):
        block_pos = by_degree[deg]
        block = {(r, c): v for (r, c), v in matrix.entries.items()
                 if r in block_pos and c in block_pos}
        verdict = _eliminate(block, block_pos)
        if isinstance(verdict, NotPsd):
            vec = list(verdict.witness)
            vec += [CScalar(0)] * (matrix.dimension - len(vec))
            return NotPsd(tuple(vec), verdict.value)
        all_pivots.extend(verdict.pivots)
    return Psd(len(all_pivots), tuple(all_pivots))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class MatrixWitness(NamedTuple):
    basis: Tuple[MultiIndex, ...]
    components: Tuple[CScalar, ...]
    value: Fraction


class HartogsWitness(NamedTuple):
    j: int
    k: int
    coefficient: Fraction


class ResolvableUpTo(NamedTuple):
    degree: int
    rank: Optional[int] = None


class CertifiedNotResolvable(NamedTuple):
    degree: int
    witness: Union[MatrixWitness, HartogsWitness]


Verdict = Union[ResolvableUpTo, CertifiedNotResolvable]


def calabi_series(d: BiSeries, b: RationalLike, degree: int) -> BiSeries:
    """The series half of the Calabi pipeline: the b-transformed diastasis
    through ``degree``.

    ``d`` is normalized to a diastasis, which must be Hermitian as a whole,
    cut to ``degree`` (the cut commutes with the transform, as exponents
    only add), then mapped by ``b_transform`` for the curvature-4b target.
    """
    d = normalize_to_diastasis(d)
    if not d.is_hermitian():
        raise ValueError("the jet is not Hermitian: some a_jk differs from "
                         "conj(a_kj)")
    d = d.truncate(min(d.d, degree))
    b = as_fraction(b)
    return b_transform(d, b) if b else d  # b = 0: the identity


def calabi_matrix(d: BiSeries, b: RationalLike, degree: int
                  ) -> Tuple[BiSeries, HermMatrix]:
    """The Calabi pipeline: the b-transformed diastasis and its matrix.

    The series is ``calabi_series(d, b, degree)``; the matrix is its
    coefficient matrix through ``degree``.  Every decision of the matrix
    criterion starts here; ``verify_immersion`` needs the series only.
    """
    transformed = calabi_series(d, b, degree)
    return transformed, build_matrix(transformed, degree)


def resolvability(d: BiSeries, b: RationalLike, degree: int) -> Verdict:
    """Calabi's criterion up to ``degree`` for the curvature-4b target.

    ``ResolvableUpTo`` is a necessary-condition pass only;
    ``CertifiedNotResolvable`` is final at every degree >= its own
    (principal submatrices of a PSD matrix are PSD).
    """
    _, matrix = calabi_matrix(d, b, degree)
    verdict = psd_certify(matrix)
    if isinstance(verdict, Psd):
        return ResolvableUpTo(degree, verdict.rank)
    return CertifiedNotResolvable(
        degree, MatrixWitness(matrix.basis, verdict.witness, verdict.value))


# ---------------------------------------------------------------------------
# rotation-invariant Hartogs criterion
# ---------------------------------------------------------------------------

def hartogs_criterion(F: RSeries, c: RationalLike, jmax: int, kmax: int
                      ) -> Verdict:
    """Sign scan of the x^j coefficients of (F(x)/F(0))^(-(c+k)), F(0) > 0.

    This decides projective inducedness of the rotation-invariant Hartogs
    metric with profile F, up to (jmax, kmax).  The positive prefactor
    F(0)^(-(c+k)) is dropped — it cannot change any sign, and dropping it
    keeps all arithmetic rational.  First negative coefficient wins,
    scanning k = 0..kmax outer and j = 1..jmax inner.
    """
    if jmax < 1 or kmax < 0:
        raise ValueError(f"need jmax >= 1 and kmax >= 0, got {jmax}, {kmax}")
    if F.d < jmax:
        raise ValueError(f"F truncated below jmax={jmax}")
    if F.nvars != 1:
        raise ValueError("F must be univariate")
    f0 = F.constant_term()
    if f0 <= 0:
        raise ValueError("F(0) must be positive")
    c = as_fraction(c)
    G = F.scale(Fraction(1) / f0)
    for k in range(kmax + 1):
        h = G.pow_normalized(-(c + k))
        for j in range(1, jmax + 1):
            coeff = h.ucoeff(j)
            if coeff < 0:
                return CertifiedNotResolvable(jmax, HartogsWitness(j, k, coeff))
    return ResolvableUpTo(jmax)
