import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerimm.immersion import factor_immersion, verify_immersion
from kahlerimm.models import (build_model, profile_inv_sqrt,
                              profile_one_minus_x_pow, profile_springer)
from kahlerimm.resolvability import (CertifiedNotResolvable, HermMatrix,
                                     NotADiastasisError, NotPsd, Pivot, Psd,
                                     ResolvableUpTo, _eliminate, _qform,
                                     build_matrix, hartogs_criterion,
                                     hartogs_metric_check, psd_certify,
                                     resolvability)
from kahlerimm.scalars import CScalar
from kahlerimm.series import BiSeries, GradedOrder


def diag_series(values):
    """Univariate diastasis sum values[p-1] |z|^{2p}."""
    d = len(values)
    return BiSeries(1, d, {(p, p): CScalar(v)
                           for p, v in enumerate(values, start=1)})


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

def test_build_matrix_diagonal():
    mat = build_matrix(diag_series([1, Fraction(1, 2), Fraction(1, 3)]), 3)
    assert mat.dimension == 3
    assert mat.basis == ((1,), (2,), (3,))
    assert mat.get(0, 0) == CScalar(1)
    assert mat.get(1, 1) == CScalar(Fraction(1, 2))
    assert mat.get(2, 2) == CScalar(Fraction(1, 3))
    assert mat.get(0, 1) == CScalar(0)
    assert mat.circular_flag


def test_build_matrix_rejects_pure_rows():
    phi = BiSeries.term(1, 2, (1,), (0,))
    with pytest.raises(NotADiastasisError):
        build_matrix(phi, 2)


def test_build_matrix_truncates():
    d = diag_series([1, 1, 1, 1])
    assert build_matrix(d, 2).dimension == 2
    with pytest.raises(ValueError):
        build_matrix(d, 9)


def test_circular_flag_cleared_by_mixed_degrees():
    d = BiSeries.term(1, 2, (1,), (1,)) + BiSeries.term(1, 2, (2,), (1,)) \
        + BiSeries.term(1, 2, (1,), (2,))
    assert not build_matrix(d, 2).circular_flag


# ---------------------------------------------------------------------------
# PSD certification
# ---------------------------------------------------------------------------

def _herm_from_rows(rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not CScalar.of(v).is_zero():
                entries[(r, c)] = CScalar.of(v)
    basis = tuple((j + 1,) for j in range(len(rows)))
    return HermMatrix(len(rows), entries, basis, False)


def test_psd_identity():
    verdict = psd_certify(_herm_from_rows([[1, 0], [0, 1]]))
    assert isinstance(verdict, Psd)
    assert verdict.rank == 2


def test_negative_diagonal_witness():
    mat = _herm_from_rows([[1, 0], [0, -2]])
    verdict = psd_certify(mat)
    assert isinstance(verdict, NotPsd)
    assert mat.quadratic_form(verdict.witness) == verdict.value < 0


def test_zero_diagonal_off_diagonal_witness():
    a = CScalar(0, 3)
    mat = _herm_from_rows([[0, a], [a.conj(), 5]])
    verdict = psd_certify(mat)
    assert isinstance(verdict, NotPsd)
    assert mat.quadratic_form(verdict.witness) == verdict.value < 0
    # canonical scaling: first nonzero component is 1
    first = next(c for c in verdict.witness if not c.is_zero())
    assert first == CScalar(1)


def test_rank_one_psd():
    # outer product of (1, 2i): PSD of rank 1
    v = [CScalar(1), CScalar(0, 2)]
    rows = [[v[r] * v[c].conj() for c in range(2)] for r in range(2)]
    verdict = psd_certify(_herm_from_rows(rows))
    assert isinstance(verdict, Psd)
    assert verdict.rank == 1


def _random_cscalar(rng, span=3, den=4):
    return CScalar(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                   Fraction(rng.randint(-span, span), rng.randint(1, den)))


def _column_rank(bmat):
    """Exact column rank by Gaussian elimination (independent oracle)."""
    rows = [list(r) for r in bmat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows))
                      if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r == rank or rows[r][col].is_zero():
                continue
            f = rows[r][col] / pr[col]
            rows[r] = [x - f * y for x, y in zip(rows[r], pr)]
        rank += 1
    return rank


def test_gram_matrices_certify_with_matching_rank():
    rng = random.Random(7)
    for _ in range(15):
        rows_b = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        B = [[_random_cscalar(rng) for _ in range(cols)]
             for _ in range(rows_b)]
        gram = [[sum((B[r][i].conj() * B[r][j] for r in range(rows_b)),
                     CScalar(0)) for j in range(cols)] for i in range(cols)]
        verdict = psd_certify(_herm_from_rows(gram))
        assert isinstance(verdict, Psd)
        assert verdict.rank == _column_rank(B)


def test_random_hermitian_soundness():
    rng = random.Random(11)
    for _ in range(25):
        size = rng.randint(1, 5)
        rows = [[CScalar(0)] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = CScalar(Fraction(rng.randint(-4, 4),
                                          rng.randint(1, 3)))
            for j in range(i + 1, size):
                v = _random_cscalar(rng, span=2)
                rows[i][j] = v
                rows[j][i] = v.conj()
        mat = _herm_from_rows(rows)
        verdict = psd_certify(mat)
        if isinstance(verdict, NotPsd):
            assert mat.quadratic_form(verdict.witness) == verdict.value < 0
        else:
            # reconstruct A = sum d_l col_l col_l^*
            recon = [[CScalar(0)] * size for _ in range(size)]
            for piv in verdict.pivots:
                for r, cr in piv.column.items():
                    for c, cc in piv.column.items():
                        recon[r][c] = recon[r][c] + \
                            cr * cc.conj() * CScalar(piv.value)
            assert recon == rows


def test_circular_block_path_matches_monolithic():
    for name, params, b in [("cp", {"n": "1", "scale": "1/2"}, 1),
                            ("omega4", {"n": "3"}, 0),
                            ("ch", {"n": "2"}, -1)]:
        d = build_model(name, params, 3)
        from kahlerimm.diastasis import b_transform, normalize_to_diastasis
        t = b_transform(normalize_to_diastasis(d), Fraction(b))
        mat = build_matrix(t, 3)
        assert mat.circular_flag
        flat = HermMatrix(mat.dimension, mat.entries, mat.basis, False)
        v1 = psd_certify(mat)
        v2 = psd_certify(flat)
        assert type(v1) is type(v2)
        if isinstance(v1, Psd):
            assert v1.rank == v2.rank
        else:
            assert mat.quadratic_form(v1.witness) == v1.value < 0
            assert mat.quadratic_form(v2.witness) == v2.value < 0


fraction60 = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
cscalar60 = st.builds(CScalar, fraction60, fraction60)


@st.composite
def matrix_and_vector(draw):
    """A sparse matrix dict of size 1-12 and a complex vector of that size,
    denominators up to 60; the matrix is Hermitian unless drawn otherwise,
    and the vector has some zero entries."""
    size = draw(st.integers(1, 12))
    hermitian = draw(st.booleans())
    entries = {}
    for r in range(size):
        for c in range(r if hermitian else 0, size):
            if not draw(st.booleans()):
                continue
            a = CScalar(draw(fraction60)) if hermitian and r == c \
                else draw(cscalar60)
            entries[(r, c)] = a
            if hermitian:
                entries[(c, r)] = a.conj()
    v = draw(st.lists(st.one_of(st.just(CScalar(0)), cscalar60),
                      min_size=size, max_size=size))
    return entries, v


@settings(max_examples=100, deadline=None)
@given(matrix_and_vector())
def test_qform_matches_cscalar_sum(case):
    entries, v = case
    want = CScalar(0)
    for (r, c), a in entries.items():
        want = want + v[r].conj() * a * v[c]
    if want.im:
        with pytest.raises(ValueError, match="non-Hermitian"):
            _qform(entries, v)
        return
    assert _qform(entries, v) == want.re
    basis = tuple((j + 1,) for j in range(len(v)))
    assert HermMatrix(len(v), entries, basis, False).quadratic_form(v) \
        == want.re


def test_qform_of_a_non_hermitian_matrix_raises():
    # [[0, i], [0, 0]] at v = (1, 1) has v*Av = i
    with pytest.raises(ValueError, match="non-Hermitian"):
        _qform({(0, 1): CScalar(0, 1)}, [CScalar(1), CScalar(1)])


def test_non_hermitian_matrix_rejected():
    for rows in ([[1, 2], [3, 1]],
                 [[1, CScalar(1, 1)], [CScalar(1, 1), 1]],
                 [[1, 2], [0, 1]],
                 [[CScalar(1, 1), 0], [0, 1]]):
        with pytest.raises(ValueError, match="not Hermitian"):
            psd_certify(_herm_from_rows(rows))


# ---------------------------------------------------------------------------
# the sparse elimination against the dense loop it replaced
# ---------------------------------------------------------------------------

def dense_eliminate(mat, positions):
    """The dense CScalar LDL* loop that ``_eliminate`` replaced: both
    halves of every pair of active positions at every pivot step.

    One token differs from that loop: its 2x2 witness took t = -s conj(a)
    where its comment (and this copy) has t = -s a.  The two agree for a
    real a; for a non-real a the loop's vector fails to certify whenever
    Re(a^2) <= 0 (see test_zero_diagonal_complex_off_diagonal_witness)."""
    work = dict(mat)
    active = sorted(positions)
    pivots = []
    steps = []

    def entry(r, c):
        return work.get((r, c), CScalar(0))

    while True:
        best = None
        for p in active:
            dv = entry(p, p)
            if dv.im:
                raise ValueError("non-Hermitian diagonal")
            if dv.re > 0 and (best is None or dv.re > entry(best, best).re):
                best = p
        if best is None:
            witness_small = None
            for p in active:
                if entry(p, p).re < 0:
                    witness_small = {p: CScalar(1)}
                    break
            if witness_small is None:
                for p in active:
                    for q in active:
                        if q == p:
                            continue
                        a = entry(p, q)
                        if not a.is_zero() and entry(p, p).re == 0:
                            c = entry(q, q).re
                            s = (c + 2) / (2 * a.abs2())
                            witness_small = {p: CScalar(0) - a * s,
                                             q: CScalar(1)}
                            break
                    if witness_small is not None:
                        break
            if witness_small is None:
                return Psd(len(pivots), tuple(pivots))
            y = dict(witness_small)
            for p, dval, row in reversed(steps):
                acc = CScalar(0)
                for q, coeff in y.items():
                    acc = acc + row.get(q, CScalar(0)) * coeff
                y[p] = CScalar(0) - acc / CScalar(dval)
            size = (max(positions) + 1) if positions else 0
            vec = [CScalar(0)] * size
            for p, coeff in y.items():
                vec[p] = coeff
            first = next(c for c in vec if not c.is_zero())
            vec = [c / first for c in vec]
            value = _qform(mat, vec)
            if value >= 0:
                raise AssertionError("witness failed to certify")
            return NotPsd(tuple(vec), value)

        dval = entry(best, best).re
        col = {best: CScalar(1)}
        for q in active:
            if q == best:
                continue
            a = entry(q, best)
            if not a.is_zero():
                col[q] = a / CScalar(dval)
        steps.append((best, dval, {q: entry(best, q) for q in active}))
        pivots.append(Pivot(best, dval, col))
        active.remove(best)
        for q in active:
            cq = col.get(q)
            if cq is None:
                continue
            for r in active:
                cr = col.get(r)
                if cr is None:
                    continue
                delta = cq * cr.conj() * dval
                cur = work.get((q, r), CScalar(0)) - delta
                if cur.is_zero():
                    work.pop((q, r), None)
                else:
                    work[(q, r)] = cur


def dense_psd_certify(matrix):
    """``psd_certify`` with ``dense_eliminate``, circular blocks included."""
    positions = list(range(matrix.dimension))
    if not matrix.circular_flag:
        return dense_eliminate(matrix.entries, positions)
    by_degree = {}
    for p in positions:
        by_degree.setdefault(sum(matrix.basis[p]), []).append(p)
    all_pivots = []
    for deg in sorted(by_degree):
        block_pos = by_degree[deg]
        block = {(r, c): v for (r, c), v in matrix.entries.items()
                 if r in block_pos and c in block_pos}
        verdict = dense_eliminate(block, block_pos)
        if isinstance(verdict, NotPsd):
            vec = list(verdict.witness)
            vec += [CScalar(0)] * (matrix.dimension - len(vec))
            return NotPsd(tuple(vec), verdict.value)
        all_pivots.extend(verdict.pivots)
    return Psd(len(all_pivots), tuple(all_pivots))


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12))


@st.composite
def hermitian_rows(draw):
    """Hermitian rows of size 1-12 with denominators up to 12: random, Gram
    (often rank-deficient), Gram with a negative diagonal, Gram plus an
    uncoupled zero-diagonal block, or block-sparse; real or complex
    entries, sparse or dense.

    A block-sparse matrix is sum_p d_p l_p l_p* over unit columns l_p of
    at most 3 entries, one for each position p outside a set Z, plus a
    block on Z with zero diagonal.  Its pivot rows have small support, so
    most entries go stale over several pivots, and when the pivots are
    the positions outside Z the remainder is the block on Z, which ends in
    the 2x2 zero-diagonal witness."""
    size = draw(st.integers(1, 12))
    complex_entries = draw(st.booleans())
    sparse = draw(st.booleans())

    def scalar():
        if sparse and draw(st.booleans()):
            return CScalar(0)
        im = draw(small_fraction) if complex_entries else 0
        return CScalar(draw(small_fraction), im)

    kind = draw(st.sampled_from(["random", "gram", "negative", "zero_block",
                                 "block_sparse"]))
    rows = [[CScalar(0)] * size for _ in range(size)]
    if kind == "random":
        for i in range(size):
            rows[i][i] = CScalar(draw(small_fraction))
            for j in range(i + 1, size):
                rows[i][j] = scalar()
                rows[j][i] = rows[i][j].conj()
        return rows
    zero = set()
    if kind in ("zero_block", "block_sparse") and size >= 2:
        zero = set(draw(st.lists(st.integers(0, size - 1), min_size=2,
                                 max_size=size, unique=True)))
    rest = [i for i in range(size) if i not in zero]
    if kind == "block_sparse":
        for p in rest:
            col = {p: CScalar(1)}
            if p + 1 < size:
                for q in draw(st.lists(st.integers(p + 1, size - 1),
                                       max_size=2, unique=True)):
                    col[q] = scalar()
            weight = Fraction(draw(st.integers(1, 3)),
                              draw(st.integers(1, 12)))
            for i, ci in col.items():
                for j, cj in col.items():
                    rows[i][j] = rows[i][j] + ci * cj.conj() * weight
    else:
        factors = [[scalar() for _ in rest]
                   for _ in range(draw(st.integers(1, size)))]
        for a, i in enumerate(rest):
            for b, j in enumerate(rest):
                rows[i][j] = sum((f[a].conj() * f[b] for f in factors),
                                 CScalar(0))
    if kind == "negative":
        p = draw(st.integers(0, size - 1))
        rows[p][p] = CScalar(-draw(st.integers(1, 3)))
    ordered = sorted(zero)
    for a, i in enumerate(ordered):
        for j in ordered[a + 1:]:
            v = scalar()
            if j == ordered[a + 1] and v.is_zero():
                v = CScalar(1)
            rows[i][j] = rows[i][j] + v
            rows[j][i] = rows[i][j].conj()
    return rows


@settings(max_examples=200, deadline=None)
@given(hermitian_rows())
def test_eliminate_matches_dense_loop(rows):
    mat = _herm_from_rows(rows)
    positions = list(range(mat.dimension))
    want = dense_eliminate(mat.entries, positions)
    assert _eliminate(mat.entries, positions) == want
    assert psd_certify(mat) == want


@settings(max_examples=100, deadline=None)
@given(hermitian_rows())
def test_circular_blocks_match_dense_loop(rows):
    # positions take the degrees of the graded basis in two variables;
    # a circular matrix has no entry between different degrees
    basis = GradedOrder(2, 4).basis[1:len(rows) + 1]
    entries = {(r, c): v for (r, c), v in _herm_from_rows(rows).entries.items()
               if sum(basis[r]) == sum(basis[c])}
    mat = HermMatrix(len(rows), entries, basis, True)
    assert psd_certify(mat) == dense_psd_certify(mat)


def test_zero_block_witness_after_two_pivots():
    # 9 l0 l0* + 5 l1 l1* plus the block [[0, a], [conj(a), 0]] on
    # positions 2 and 3: positions 0 and 1 are pivoted first, and the
    # remainder is that block, coupled to both pivots.  The witness must
    # see its Schur values, not the Bareiss integers, and it is lifted
    # through both pivots.
    third = Fraction(1, 3)
    l0 = [CScalar(1), CScalar(third), CScalar(third, third), CScalar(third)]
    l1 = [CScalar(0), CScalar(1), CScalar(Fraction(1, 2)),
          CScalar(0, Fraction(1, 5))]
    rows = [[l0[i] * l0[j].conj() * 9 + l1[i] * l1[j].conj() * 5
             for j in range(4)] for i in range(4)]
    rows[2][3] = rows[2][3] + CScalar(2, Fraction(-3, 7))
    rows[3][2] = rows[2][3].conj()
    mat = _herm_from_rows(rows)
    verdict = psd_certify(mat)
    assert isinstance(verdict, NotPsd)
    assert all(not c.is_zero() for c in verdict.witness)
    assert mat.quadratic_form(verdict.witness) == verdict.value < 0
    assert verdict == dense_eliminate(mat.entries, list(range(4)))


def gram_jet(seed, negative=False):
    """sum_i |f_i|^2 over 20 unit-triangular f_i on the 34 monomials of
    degree 1..4 in 3 variables, the leading monomials spread evenly; with
    ``negative``, one diagonal set below minus its row's sum of |c|^2."""
    rng = random.Random(seed)
    size, rank = 34, 20
    coeffs = {}
    for i in range(rank):
        lead = i * size // rank
        f = {lead: CScalar(1)}
        for q in range(lead + 1, size):
            den = rng.choice((1, 2, 3, 4))
            f[q] = CScalar(Fraction(rng.randint(-3, 3), den),
                           Fraction(rng.randint(-3, 3), den))
        for j, cj in f.items():
            for k, ck in f.items():
                key = (j + 1, k + 1)  # basis position -> graded ordinal
                coeffs[key] = coeffs.get(key, CScalar(0)) + cj * ck.conj()
    if negative:
        p = size // 2 + 1
        row = sum((c.abs2() for (j, _), c in coeffs.items() if j == p),
                  Fraction(0))
        coeffs[(p, p)] = CScalar(-row - 1)
    return BiSeries(3, 4, coeffs)


def test_jets_size_gram_matches_dense_loop():
    jet = gram_jet(9)
    mat = build_matrix(jet, 4)
    assert mat.dimension == 34
    verdict = psd_certify(mat)
    assert isinstance(verdict, Psd) and verdict.rank == 20
    assert verdict == dense_psd_certify(mat)
    assert max(max(p.value.numerator.bit_length(),
                   p.value.denominator.bit_length())
               for p in verdict.pivots) > 64
    imm = factor_immersion(jet, 0, 4)
    assert len(imm.components) == 20
    assert verify_immersion(imm, jet, 0, 4).ok

    mat = build_matrix(gram_jet(9, negative=True), 4)
    verdict = psd_certify(mat)
    assert isinstance(verdict, NotPsd)
    assert verdict == dense_psd_certify(mat)


def test_zero_diagonal_complex_off_diagonal_witness():
    # no positive or negative diagonal: the 2x2 block witness.  With
    # t = -s conj(a) in place of -s a, a = i and 2 - 3i gave a positive
    # value and raised "witness failed to certify".
    for a in (CScalar(0, 1), CScalar(2, -3), CScalar(-1, 0)):
        mat = _herm_from_rows([[0, a, 0], [a.conj(), 0, 0], [0, 0, 0]])
        verdict = psd_certify(mat)
        assert isinstance(verdict, NotPsd)
        assert verdict.witness[0] == CScalar(1) and verdict.witness[2] == 0
        assert mat.quadratic_form(verdict.witness) == verdict.value < 0


# ---------------------------------------------------------------------------
# resolvability verdicts
# ---------------------------------------------------------------------------

def test_resolvable_flat_into_flat():
    d = build_model("flat", {"n": "2"}, 3)
    v = resolvability(d, 0, 3)
    assert v == ResolvableUpTo(3, rank=2)


def test_negative_verdict_is_final_as_degree_grows():
    for degree in (2, 3, 4):
        d = build_model("cp", {"n": "1", "scale": "1/2"}, degree)
        v = resolvability(d, 1, degree)
        assert isinstance(v, CertifiedNotResolvable)
        assert v.witness.value == Fraction(-1, 8)


def test_resolvability_normalizes_input():
    # a potential with pure rows is accepted and normalized internally
    phi = BiSeries.term(1, 2, (1,), (1,)) + BiSeries.term(1, 2, (1,), (0,))
    assert isinstance(resolvability(phi, 0, 2), ResolvableUpTo)


# ---------------------------------------------------------------------------
# Hartogs criterion
# ---------------------------------------------------------------------------

def test_hartogs_criterion_power_profile_passes():
    F = profile_one_minus_x_pow(1, 8)
    v = hartogs_criterion(F, Fraction(1, 3), 8, 8)
    assert isinstance(v, ResolvableUpTo)


def test_hartogs_criterion_inv_sqrt_fails():
    F = profile_inv_sqrt(6)
    v = hartogs_criterion(F, 1, 6, 3)
    assert isinstance(v, CertifiedNotResolvable)
    w = v.witness
    assert (w.j, w.k) == (2, 0)
    assert w.coefficient == Fraction(-1, 8)
    # witness is independently recomputable
    g = F.scale(Fraction(1) / F.constant_term()) \
        - __import__("kahlerimm.radial", fromlist=["RSeries"]) \
        .RSeries.constant(1, 6, 1)
    assert g.pow1p(-(Fraction(1) + w.k)).ucoeff(w.j) == w.coefficient


def test_hartogs_criterion_requires_enough_terms():
    with pytest.raises(ValueError):
        hartogs_criterion(profile_springer(3), 1, 8, 2)


@pytest.mark.parametrize("jmax,kmax", [(0, 3), (6, -1)])
def test_hartogs_criterion_rejects_empty_scan(jmax, kmax):
    # an empty scan finds no negative coefficient; it must not pass
    with pytest.raises(ValueError, match="jmax >= 1 and kmax >= 0"):
        hartogs_criterion(profile_inv_sqrt(6), 1, jmax, kmax)


def test_hartogs_metric_check():
    assert hartogs_metric_check(profile_inv_sqrt(4), 4)
    assert hartogs_metric_check(profile_springer(4), 4)
    # F = 1 + x has increasing density: -(xF'/F)' starts negative
    from kahlerimm.radial import RSeries
    growing = RSeries.univariate([1, 1], 4)
    assert not hartogs_metric_check(growing, 4)
