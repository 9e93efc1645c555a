"""Graded coefficient matrices and exact positive-semidefiniteness verdicts.

The central object is the Hermitian matrix (a_{jk}) of a diastasis over the
graded monomial basis (constant excluded), held as its series is: Gaussian
integers over one denominator.  ``psd_certify`` runs an exact pivoted LDL*
elimination and returns either the factorization (retained for building
immersion maps) or a rational witness vector w with w*Aw < 0 — a
machine-checkable non-immersibility certificate.  The elimination is
fraction-free: Bareiss's integer-preserving steps over Gaussian integers,
each division checked to be exact.  A pivot keeps its Bareiss step, from
which its value and its column of L are read on demand; the lift of a
witness back through the pivots runs on Gaussian integers too, and only
the witness and its value are built as exact rationals, to be printed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, TypeAlias

from .diastasis import b_transform, normalize_to_diastasis
from .radial import RSeries
from .scalars import CScalar, RationalLike, Record, as_fraction
from .series import BiSeries, Nums, Rows, as_scalars, graded_order, \
    hermitian_defect, hermitian_update, inexact, integer_form, reduced


class NotADiastasisError(ValueError):
    """A nonzero pure row/column was found where a diastasis was required."""


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

class HermMatrix(Record, fields="dimension den nums basis"):
    """Hermitian coefficient matrix over the graded basis (ordinals 1..M).

    dimension (int): M; den (int) and nums (dict (row, col) -> (re, im)):
    entry (row, col) is (re + i im) / den, in the canonical integer form
    of a ``BiSeries``; basis (tuple of multi-indices): the monomial of
    each position, whose degree ``principal_blocks`` splits by.
    """

    __slots__ = ()

    @property
    def entries(self) -> Dict[Tuple[int, int], CScalar]:
        """The nonzero entries as ``CScalar`` values, built on access."""
        return as_scalars(self.den, self.nums)

    def get(self, row: int, col: int) -> CScalar:
        re, im = self.nums.get((row, col), (0, 0))
        return CScalar.of_integers(re, im, self.den)

    def quadratic_form(self, v: Sequence[CScalar]) -> Fraction:
        """v* A v, exact, for a vector of exact values."""
        den_v, x = integer_form(dict(enumerate(v)))
        return Fraction(_qform(self.nums, x), self.den * den_v * den_v)


def build_matrix(d: BiSeries, degree: int) -> HermMatrix:
    """Coefficient matrix of ``d`` over monomials of degree 1..``degree``."""
    if degree > d.d:
        raise ValueError(f"requested degree {degree} exceeds truncation {d.d}")
    order = graded_order(d.n, degree)
    size = order.size
    nums: Nums = {}
    for (j, k), v in d.nums.items():
        if j == 0 or k == 0:  # ordinal 0 is the constant
            raise NotADiastasisError(
                f"nonzero pure coefficient at ordinals ({j},{k}); "
                "normalize_to_diastasis first")
        if j >= size or k >= size:
            continue
        nums[(j - 1, k - 1)] = v
    # ordinal 0 (constant) excluded; a cut may leave a common factor
    den_nums = reduced(d.den, nums) if len(nums) < len(d.nums) \
        else (d.den, nums)
    return HermMatrix(size - 1, *den_nums, order.basis[1:])


def principal_blocks(den: int, nums: Nums, degree: Sequence[int]
                     ) -> List[Tuple[int, Nums]]:
    """The independent principal blocks of the Hermitian matrix nums / den,
    whose rows and columns are graded by ``degree``.

    When no entry couples two degrees (a circular potential), one block per
    degree, lowest first, each over the least denominator of its own
    entries (``series.reduced``); else the whole matrix, unchanged.
    """
    blocks: Dict[int, Nums] = {}
    for (j, k), v in nums.items():
        if degree[j] != degree[k]:
            return [(den, nums)]
        blocks.setdefault(degree[j], {})[(j, k)] = v
    return [reduced(den, blocks[g]) for g in sorted(blocks)]


# ---------------------------------------------------------------------------
# exact PSD certification
# ---------------------------------------------------------------------------

class Pivot(Record, fields="ordinal bareiss x den"):
    """One retained LDL* step, A accumulating value * column * column^*,
    kept as the Bareiss step that found it.

    ordinal (int): the pivot's position p in the basis (0-based);
    bareiss (int): its Bareiss integer B_pp; x (dict position -> (re, im)):
    the Gaussian integers of the unit-diagonal column of L below the
    pivot, l_q = x_q / B_pp; den (int): value = B_pp / den > 0.
    """

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        """The positive pivot, built on access."""
        return Fraction(self.bareiss, self.den)

    @property
    def column(self) -> Dict[int, CScalar]:
        """The column of L (position -> coefficient), built on access."""
        out = {self.ordinal: CScalar(1)}
        for q, (re, im) in self.x.items():
            out[q] = CScalar.of_integers(re, im, self.bareiss)
        return out


class Psd(Record, fields="rank pivots"):
    """rank (int) and pivots (tuple of ``Pivot``), in elimination order."""

    __slots__ = ()


class NotPsd(Record, fields="witness value"):
    """witness (tuple of ``CScalar``): over the full basis, first nonzero
    = 1; value (Fraction): w* A w < 0, exact."""

    __slots__ = ()


PsdVerdict: TypeAlias = "Psd | NotPsd"


def _eliminate(den: int, nums: Nums, positions: List[int]) -> PsdVerdict:
    """Pivoted LDL* on the Hermitian matrix nums / den over ``positions``.

    Pivot rule: largest positive diagonal entry, ties broken by lowest
    position.  When no positive diagonal remains: a negative diagonal gives
    a basis-vector witness; a zero diagonal with a nonzero off-diagonal
    gives a 2x2 principal-block witness; otherwise the remainder is zero
    and the matrix is PSD.

    The elimination is Bareiss's fraction-free one over Gaussian integers.
    Only the upper triangle of ``nums`` is read, into a ``series.Rows``
    store.  After k pivots p_1..p_k, let D_k be the integer of the k-th
    pivot (D_0 = 1): entry (q, r) is then the minor of rows p_1..p_k, q
    and columns p_1..p_k, r of ``nums``, den D_k times the Schur
    complement entry.  A pivot step is ``hermitian_update`` with w = -1, x
    the pivot column, scale = the new pivot's integer and prev = D_k.  It
    visits only the pairs q <= r in the support of the pivot row; the
    entries it leaves keep the D they were written at and are rescaled by
    D_now / D_then when read.  Every Schur diagonal is its integer over
    den D_k > 0, so the integers pick the same pivot.  The pivot is
    B_pp / (den D_k) and l_q = conj(B_pq) / B_pp: the ``Pivot`` keeps
    (p, B_pp, x, den D_k).  A witness is found on the remainder's integers
    and lifted through the steps.
    """
    rows: Rows = {p: {} for p in positions}
    for (r, c), (re, im) in nums.items():
        if r <= c and r in rows and c in rows:
            rows[r][c] = (re, im, 1)
            if r != c:
                rows[c][r] = (re, -im, 1)
    active = sorted(positions)
    pivots: List[Pivot] = []
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
                re, rem = divmod(re * prev, scale)
                if rem:
                    raise inexact(scale, dv[0] * prev)
            if re > bval:
                best, bval = p, re
        if best is None:
            witness_small = _small_witness(rows, active, den)
            if witness_small is None:
                return Psd(len(pivots), tuple(pivots))
            return _lift_witness(den, nums, positions, pivots, witness_small)

        row = rows.pop(best)
        active.remove(best)
        del row[best]
        for q in row:
            del rows[q][best]
        x = {}  # the pivot column B_qp = conj(B_pq), at D_k
        for q, (re, im, scale) in sorted(row.items()):
            if scale != prev:
                re, im = re * prev, im * prev
                qr, mr = divmod(re, scale)
                qi, mi = divmod(im, scale)
                if mr or mi:
                    raise inexact(scale, re if mr else im)
                re, im = qr, qi
            x[q] = (re, -im)
        pivots.append(Pivot(best, bval, x, den * prev))
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


def _lift_witness(den: int, nums: Nums, positions: List[int],
                  pivots: List[Pivot], y: Dict[int, Tuple[int, int]]
                  ) -> NotPsd:
    """Lift a witness y of the remainder back through the eliminations:
    y_p = -sum_q conj(l_q) y_q over the column l of each pivot p, last
    pivot first.

    The solve runs on Gaussian integers: y is kept up to one positive
    factor, which the final scaling cancels.  With l_q = x_q / B_pp and
    s = sum_q conj(x_q) y_q, g the gcd of B_pp and the parts of s,
    y_p = -s / g and every earlier entry is multiplied by B_pp / g.  The
    first nonzero component f is scaled to 1, w = y conj(y_f) / |y_f|^2,
    so w* A w = y* A y / |y_f|^2, taken in integers; the witness and its
    value are the one place exact rationals are built, to be printed.
    """
    for p, pivot, x, _ in reversed(pivots):
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
    value = Fraction(_qform(nums, y), den * norm)
    if value >= 0:  # pragma: no cover - internal soundness guard
        raise AssertionError("witness failed to certify")
    size = (max(positions) + 1) if positions else 0
    vec = [CScalar(0)] * size
    for q, (yr, yi) in y.items():
        vec[q] = CScalar.of_integers(yr * fr + yi * fi, yi * fr - yr * fi,
                                     norm)
    return NotPsd(tuple(vec), value)


def _qform(nums: Nums, x: Dict[int, Tuple[int, int]]) -> int:
    """x* A x for the Gaussian integers A = ``nums`` and x (a missing
    position being 0): s_r = sum_c a_rc x_c, then sum_r conj(x_r) s_r, in
    ints; real for Hermitian A, and a non-real result raises ValueError.
    """
    s: Dict[int, Tuple[int, int]] = {}
    for (r, c), (ar, ai) in nums.items():
        xc = x.get(c)
        if xc is None:
            continue
        xr, xi = xc
        if xr or xi:
            sr, si = s.get(r, (0, 0))
            s[r] = (sr + ar * xr - ai * xi, si + ar * xi + ai * xr)
    re = im = 0
    for r, (sr, si) in s.items():
        xr, xi = x.get(r, (0, 0))
        re += xr * sr + xi * si
        im += xr * si - xi * sr
    if im:
        raise ValueError("quadratic form of a non-Hermitian matrix")
    return re


def psd_certify(matrix: HermMatrix) -> PsdVerdict:
    """Exact PSD certification with a retained factorization or a witness.

    A matrix whose entries are not Hermitian raises ValueError (checked once,
    before elimination, since ``_eliminate`` reads one triangle only).

    Each of the ``principal_blocks`` of the matrix, by the degrees of its
    basis, is factored on its own, over its own rows: a matrix with an
    entry between two degrees is one block, and a circular one has one
    block per degree, whose pivots come by degree (the verdict and rank of
    one elimination of the whole matrix; the pivot set is the same).  The
    first block that is not PSD gives the witness, zero off its rows.
    """
    bad = hermitian_defect(matrix.nums)
    if bad is not None:
        r, c = bad
        raise ValueError(f"the matrix is not Hermitian: entry ({r},{c}) "
                         f"is not the conjugate of entry ({c},{r})")
    degree = [sum(m) for m in matrix.basis]
    pivots: List[Pivot] = []
    for den, nums in principal_blocks(matrix.den, matrix.nums, degree):
        verdict = _eliminate(den, nums, sorted({r for r, _ in nums}))
        if isinstance(verdict, NotPsd):
            vec = list(verdict.witness)
            vec += [CScalar(0)] * (matrix.dimension - len(vec))
            return NotPsd(tuple(vec), verdict.value)
        pivots.extend(verdict.pivots)
    return Psd(len(pivots), tuple(pivots))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class MatrixWitness(Record, fields="basis components value"):
    """basis (tuple of multi-indices), components (tuple of ``CScalar``,
    one per basis element) and value (Fraction): w* A w < 0."""

    __slots__ = ()


class HartogsWitness(Record, fields="j k coefficient"):
    """j, k (int) and coefficient (Fraction): the negative x^j coefficient
    of (F/F(0))^(-(c+k))."""

    __slots__ = ()


class ResolvableUpTo(Record, fields="degree rank", defaults=(None,)):
    """degree (int) and rank (int, or None when no matrix was factored)."""

    __slots__ = ()


class CertifiedNotResolvable(Record, fields="degree witness"):
    """degree (int) and witness (``MatrixWitness`` or ``HartogsWitness``)."""

    __slots__ = ()


Verdict: TypeAlias = "ResolvableUpTo | CertifiedNotResolvable"


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

    With G = F/F(0) cut at jmax, h_0 = G^(-c) and h_(k+1) = h_k G^(-1): one
    composition and one product per k after the first.  Each sign is that
    of an integer numerator over the positive denominator of h_k.
    """
    if jmax < 1 or kmax < 0:
        raise ValueError(f"need jmax >= 1 and kmax >= 0, got {jmax}, {kmax}")
    if F.d < jmax:
        raise ValueError(f"F truncated below jmax={jmax}")
    if F.nvars != 1:
        raise ValueError("F must be univariate")
    nums = F.truncate(jmax).jet.nums
    f0 = nums.get((0, 0), (0, 0))[0]  # the numerator of F(0)
    if f0 <= 0:
        raise ValueError("F(0) must be positive")
    c = as_fraction(c)
    # G - 1 = F/F(0) - 1: F's numerators over f0, the constant cancelling
    body = RSeries._of(BiSeries._reduced(1, jmax, f0, {
        jk: v for jk, v in nums.items() if jk != (0, 0)}))
    h = body.pow1p(-c)  # G^(-c)
    for k in range(kmax + 1):
        if k == 1:
            inverse = body.pow1p(-1)  # G^(-1)
        if k:
            h = h * inverse
        h_nums = h.jet.nums
        for j in range(1, jmax + 1):
            re = h_nums.get((j, j), (0, 0))[0]
            if re < 0:
                return CertifiedNotResolvable(jmax, HartogsWitness(
                    j, k, Fraction(re, h.jet.den)))
    return ResolvableUpTo(jmax)
