import itertools
import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from kahlerimm.immersion import ImmersionMap, Target
from kahlerimm.scalars import CScalar
from kahlerimm.series import (
    ArityMismatchError, BiSeries, ConstantTermError, GradedOrder,
    OrdinalRangeError, det_series, exp_series, graded_order, hermitian_update,
    index_of_ordinal, log1p_series, ordinal_of_index, pow1p_series,
    solve_graded_fixed_point,
)
from oracles import binomial, component, exp_coefficient, lift_arity, \
    log1p_coefficient, monomial, mul_conj, mul_monomial, values_of


# ---------------------------------------------------------------------------
# graded order
# ---------------------------------------------------------------------------

def test_graded_order_two_variables():
    order = GradedOrder(2, 2)
    assert order.basis == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert order.size == 6
    for j, m in enumerate(order.basis):
        assert order.ordinal(m) == j
        assert order.basis[j] == m


def test_graded_order_bounds():
    order = GradedOrder(2, 1)
    with pytest.raises(OrdinalRangeError):
        order.ordinal((1, 1))
    with pytest.raises(ArityMismatchError):
        order.ordinal((1, 0, 0))


@given(st.integers(1, 4), st.integers(0, 200))
def test_ordinal_round_trip(n, ordinal):
    m = index_of_ordinal(n, ordinal)
    assert len(m) == n
    assert ordinal_of_index(m) == ordinal


def test_ordinals_stable_across_truncation():
    # the same multi-index has the same ordinal regardless of degree bound
    assert GradedOrder(3, 2).ordinal((1, 1, 0)) == \
        GradedOrder(3, 7).ordinal((1, 1, 0))


@st.composite
def order_pairs(draw):
    """(n, d, m1, m2): two multi-indices of arity n <= 6 whose degrees add
    up to at most d <= 8."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, 8))
    total = draw(st.integers(0, d))
    parts = [draw(st.integers(0, total)) for _ in range(2 * n - 1)]
    cuts = sorted(parts)
    exps = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    return n, d, tuple(exps[:n]), tuple(exps[n:])


@given(order_pairs())
@settings(max_examples=150)
def test_graded_table_matches_the_combinatorial_rank(case):
    n, d, m1, m2 = case
    order = graded_order(n, d)
    assert order.size == math.comb(n + d, n)
    o1 = ordinal_of_index(m1)
    assert order.basis[o1] == m1 == index_of_ordinal(n, o1)
    assert order.degree[o1] == sum(m1)
    assert order.rank[order.code[o1]] == o1 == order.ordinal(m1)
    # |m1| + |m2| <= d: the codes add without a carry
    code1, code2 = order.code[o1], order.code[ordinal_of_index(m2)]
    assert order.rank[code1 + code2] == ordinal_of_index(
        tuple(map(add, m1, m2)))


@pytest.mark.parametrize("n,d", [(1, 0), (1, 5), (2, 3), (3, 4), (6, 2)])
def test_graded_table_lists_the_order(n, d):
    order = graded_order(n, d)
    assert order is graded_order(n, d)  # one table per (n, d)
    assert order.basis == tuple(index_of_ordinal(n, o)
                                for o in range(order.size))
    assert sorted(order.rank.values()) == list(range(order.size))
    # the packed pair of every two ordinals unpacks to them
    for j, k in [(0, 0), (order.size - 1, 0), (1 % order.size, order.size - 1)]:
        assert divmod(order.code[j] * order.shift + order.code[k],
                      order.shift) == (order.code[j], order.code[k])


# ---------------------------------------------------------------------------
# BiSeries ring
# ---------------------------------------------------------------------------

@st.composite
def fractions(draw, low, high, max_den):
    """A fraction in [low, high] with denominator at most max_den: the
    support of ``st.fractions``, drawn as q in 1..max_den, then p."""
    q = draw(st.integers(1, max_den))
    p = draw(st.integers(math.ceil(low * q), math.floor(high * q)))
    return Fraction(p, q)


coeff_st = st.builds(CScalar, fractions(-5, 5, 6), fractions(-5, 5, 6))
# complex coefficients with denominators up to 6 or up to 60
wide_st = fractions(-5, 5, 60)
wide_coeff_st = st.one_of(coeff_st, st.builds(CScalar, wide_st, wide_st))


def biseries_st(n=2, d=3, min_bidegree=0):
    order = GradedOrder(n, d)
    pairs = [(j, k) for j in range(order.size) for k in range(order.size)
             if sum(order.basis[j]) >= min_bidegree or
             sum(order.basis[k]) >= min_bidegree]
    if min_bidegree:
        pairs = [(j, k) for (j, k) in pairs if (j, k) != (0, 0)]
    return st.dictionaries(st.sampled_from(pairs), coeff_st, max_size=5) \
        .map(lambda c: BiSeries(n, d, c))


@settings(max_examples=40)
@given(biseries_st(), biseries_st(), biseries_st())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == BiSeries.zero(a.n, a.d)


def test_mul_truncates_each_side_independently():
    # z * zbar at degree 1: both sides stay within degree, so the
    # product survives even though the total bidegree is 2
    z = BiSeries.term(1, 1, (1,), (0,))
    zbar = BiSeries.term(1, 1, (0,), (1,))
    assert (z * zbar).get_index((1,), (1,)) == CScalar(1)
    # z * z at degree 1 overflows the holomorphic side and is dropped
    assert z * z == BiSeries.zero(1, 1)


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        BiSeries.zero(1, 2) + BiSeries.zero(2, 2)


@settings(max_examples=25)
@given(biseries_st(min_bidegree=1))
def test_exp_log_inverse(a):
    one = BiSeries(a.n, a.d, {(0, 0): CScalar(1)})
    assert log1p_series(exp_series(a) - one) == a


@settings(max_examples=25)
@given(biseries_st(min_bidegree=1),
       fractions(-3, 3, 4), fractions(-3, 3, 4))
def test_pow1p_additive_in_exponent(a, e1, e2):
    assert pow1p_series(a, e1) * pow1p_series(a, e2) == \
        pow1p_series(a, e1 + e2)


def test_transcendental_rejects_constant_term():
    a = BiSeries(1, 2, {(0, 0): CScalar(1)})
    for fn in (exp_series, log1p_series, lambda s: pow1p_series(s, 2)):
        with pytest.raises(ConstantTermError):
            fn(a)


@settings(max_examples=25)
@given(biseries_st(), biseries_st())
def test_hermitian_closed_under_product(a, b):
    def hermitize(s):
        sym = {}
        for (j, k), c in s.coeffs.items():
            sym[(j, k)] = sym.get((j, k), CScalar(0)) + c
            sym[(k, j)] = sym.get((k, j), CScalar(0)) + c.conj()
        return BiSeries(s.n, s.d, sym)

    ha, hb = hermitize(a), hermitize(b)
    assert ha.is_hermitian() and hb.is_hermitian()
    assert (ha * hb + hb * ha).is_hermitian()
    assert (ha + hb).is_hermitian()


# ---------------------------------------------------------------------------
# the degree recurrence and the bucketed product against reference loops
# ---------------------------------------------------------------------------

def power_sum(a, one, coeff_at):
    """sum_k coeff_at(k) a^k: the composition loop the recurrence replaced,
    on ``CScalar`` arithmetic throughout."""
    out = one.scale(coeff_at(0))
    power = one
    for k in range(1, 2 * a.d + 1):
        power = naive_product(power, a)
        if not power.coeffs:
            break
        ck = coeff_at(k)
        if ck:
            out = out + power.scale(ck)
    return out


@st.composite
def complex_jet(draw, n, d, zero_constant=True):
    """A non-circular complex BiSeries: any (j, k), not just |m_j| = |m_k|,
    with coefficient denominators up to 60."""
    size = GradedOrder(n, d).size
    pairs = [(j, k) for j in range(size) for k in range(size)
             if not (zero_constant and j == k == 0)]
    if not pairs:
        return BiSeries.zero(n, d)
    return BiSeries(n, d, draw(st.dictionaries(
        st.sampled_from(pairs), wide_coeff_st, max_size=6)))


@st.composite
def jet_with_shape(draw, zero_constant=True):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    return draw(complex_jet(n, d, zero_constant))


exponent_st = fractions(-3, 3, 4)


@settings(max_examples=40, deadline=None)
@given(jet_with_shape(), exponent_st)
def test_recurrence_matches_power_sum(a, e):
    one = BiSeries.one(a.n, a.d)
    assert exp_series(a) == power_sum(a, one, exp_coefficient)
    assert log1p_series(a) == power_sum(a, one, log1p_coefficient)
    assert pow1p_series(a, e) == power_sum(a, one, binomial(e))


def test_recurrence_closes_a_slice_that_cancels_midway():
    # (1 + A)^(1/2) = (1 + w)(1 + w^3) for 1 + A = (1 + w)^2 (1 + w^3)^2
    # and w = z + conj(z): in slice 2 the recurrence adds -w^2 and w^2,
    # so that slice closes empty and slices 3 and 4 build on it
    n, d = 1, 3
    w = BiSeries.term(n, d, (1,), (0,)) + BiSeries.term(n, d, (0,), (1,))
    one = BiSeries.one(n, d)
    root = naive_product(one + w, one + naive_product(w, naive_product(w, w)))
    a = naive_product(root, root) - one
    got = pow1p_series(a, Fraction(1, 2))
    assert got == root

    def degrees(s):
        return {sum(index_of_ordinal(n, j) + index_of_ordinal(n, k))
                for j, k in s.coeffs}
    assert 2 not in degrees(got) and {3, 4} <= degrees(got)


def naive_product(a, b):
    """a * b term by term on ``CScalar`` arithmetic."""
    n, d = a.n, min(a.d, b.d)
    out = {}
    for (j1, k1), c1 in a.coeffs.items():
        for (j2, k2), c2 in b.coeffs.items():
            mj = tuple(map(add, index_of_ordinal(n, j1),
                           index_of_ordinal(n, j2)))
            mk = tuple(map(add, index_of_ordinal(n, k1),
                           index_of_ordinal(n, k2)))
            if sum(mj) > d or sum(mk) > d:
                continue
            key = (ordinal_of_index(mj), ordinal_of_index(mk))
            out[key] = out.get(key, CScalar(0)) + c1 * c2
    return BiSeries(n, d, out)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bucketed_product_matches_naive(data):
    n = data.draw(st.integers(1, 3))
    a = data.draw(complex_jet(n, data.draw(st.integers(0, 4)), False))
    b = data.draw(complex_jet(n, data.draw(st.integers(0, 4)), False))
    assert a * b == naive_product(a, b)


@st.composite
def immersion_map(draw):
    """Up to 4 components, each with coefficient denominators up to 6 or up
    to 60 and possibly an empty series."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    size = GradedOrder(n, d).size
    components = draw(st.lists(st.builds(
        component, fractions(Fraction(1, 5), 5, 6),
        st.dictionaries(st.integers(0, size - 1), wide_coeff_st,
                        max_size=5)), max_size=4))
    return ImmersionMap(tuple(components), Target("flat"), d, n)


@settings(max_examples=40, deadline=None)
@given(immersion_map())
@example(ImmersionMap((
    component(Fraction(2, 3), {}),
    component(Fraction(5, 4), {
        1: CScalar(Fraction(1, 60), Fraction(-7, 59)),
        4: CScalar(Fraction(-3, 44))}),
    component(Fraction(1, 6), {})),
    Target("flat"), 2, 2))
def test_pullback_norm_matches_component_sum(imm):
    want = BiSeries.zero(imm.arity, imm.degree)
    for comp in imm.components:
        f = values_of(comp)
        want = want + mul_conj(f, f, imm.arity, imm.degree).scale(
            comp.radicand)
    assert imm.pullback_norm() == want


def test_hermitian_update_raises_on_inexact_division():
    # a Bareiss step (2 * 3 - 1 * 1) / 2 that is not an integer
    rows = {0: {0: (3, 0, 2)}}
    with pytest.raises(ArithmeticError, match="does not divide"):
        hermitian_update(rows, -1, {0: (1, 0)}, 2, 2)
    # an entry stored at scale 3 read at scale 2: 1 * 2 / 3
    rows = {0: {0: (1, 0, 3)}}
    with pytest.raises(ArithmeticError, match="does not divide"):
        hermitian_update(rows, -1, {0: (1, 0)}, 4, 2)
    # the exact case: (2 * 3 - 1 * 1 - 1 * 1) / 2 = 2, stored at scale 2
    rows = {0: {0: (3, 0, 2)}}
    hermitian_update(rows, -1, {0: (1, 1)}, 2, 2)
    assert rows == {0: {0: (2, 0, 2)}}


def test_det_series_2x2():
    one = BiSeries(1, 2, {(0, 0): CScalar(1)})
    x = BiSeries.term(1, 2, (1,), (1,))
    m = [[one + x, x], [x, one - x]]
    # (1+x)(1-x) - x^2 = 1 - 2x^2 with x = |z|^2
    d = det_series(m)
    assert d.get_index((0,), (0,)) == CScalar(1)
    assert d.get_index((1,), (1,)) == CScalar(0)
    assert d.get_index((2,), (2,)) == CScalar(-2)


def test_det_series_antisymmetry():
    a = BiSeries.term(2, 2, (1, 0), (0, 1))
    b = BiSeries.term(2, 2, (0, 1), (1, 0))
    zero = BiSeries.zero(2, 2)
    assert det_series([[a, b], [a, b]]) == zero
    assert det_series([[a, b], [b, a]]) == a * a - b * b


def leibniz_det(matrix):
    """The permutation sum that the memoized cofactor expansion replaced,
    on ``CScalar`` arithmetic throughout."""
    size = len(matrix)
    first = matrix[0][0]
    acc = BiSeries.zero(first.n, min(e.d for row in matrix for e in row))
    for perm in itertools.permutations(range(size)):
        inv = sum(1 for i in range(size) for j in range(i + 1, size)
                  if perm[i] > perm[j])
        prod = matrix[0][perm[0]]
        for row in range(1, size):
            prod = naive_product(prod, matrix[row][perm[row]])
        acc = acc + (prod if inv % 2 == 0 else -prod)
    return acc


@st.composite
def jet_matrix(draw):
    """A square matrix of complex jets of mixed degree, with or without a
    constant term; sometimes a repeated row makes it singular."""
    size = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2))
    rows = [[draw(complex_jet(n, draw(st.integers(0, 3)), draw(st.booleans())))
             for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=60, deadline=None)
@given(jet_matrix())
def test_det_series_matches_leibniz(matrix):
    assert det_series(matrix) == leibniz_det(matrix)


def test_det_series_rejects_bad_shapes():
    one = BiSeries.one(1, 2)
    with pytest.raises(ValueError, match="square"):
        det_series([[one, one]])
    with pytest.raises(ValueError, match="empty"):
        det_series([])
    with pytest.raises(ArityMismatchError):
        det_series([[one, one], [one, BiSeries.one(2, 2)]])


def test_fixed_point_lagrange_inversion():
    # invert x = t e^{2t}: t = sum_n (-2n)^{n-1} x^n / n!
    from kahlerimm.radial import RSeries
    x = RSeries.var(1, 4)

    def step(t):
        return x * t.scale(-2).exp()

    t = solve_graded_fixed_point(step, RSeries.zero(1, 4), 6)
    assert t.ucoeff(1) == 1
    assert t.ucoeff(2) == -2
    assert t.ucoeff(3) == 6
    assert t.ucoeff(4) == Fraction(-64, 3)


def test_fixed_point_divergence():
    from kahlerimm.series import FixedPointDivergenceError
    from kahlerimm.radial import RSeries
    one = RSeries.constant(1, 2, 1)
    with pytest.raises(FixedPointDivergenceError):
        solve_graded_fixed_point(lambda t: t + one, RSeries.zero(1, 2), 5)


def padded(t, k):
    from kahlerimm.radial import RSeries
    return RSeries(t.nvars, k, {e: c for e, c in t.coeffs.items()
                                if sum(e) <= k})


def test_degree_stepped_fixed_point():
    # nine full-degree steps, or eight at degrees 0..7, one full step that
    # fixes degree 8 and one that confirms, to the same fixed point
    from kahlerimm.radial import RSeries
    x = RSeries.var(1, 8)
    degrees = []

    def step(t):
        degrees.append(t.d)
        return x * t.scale(-2).exp()

    full = solve_graded_fixed_point(step, RSeries.zero(1, 8), 10)
    assert degrees == [8] * 9
    degrees.clear()
    stepped = solve_graded_fixed_point(step, RSeries.zero(1, 8), 10,
                                       padded, 8)
    assert stepped == full and stepped.d == 8
    assert degrees == list(range(8)) + [8, 8]


def test_degree_stepped_fixed_point_divergence():
    from kahlerimm.series import FixedPointDivergenceError
    from kahlerimm.radial import RSeries
    one = RSeries.constant(1, 2, 1)
    with pytest.raises(FixedPointDivergenceError):
        solve_graded_fixed_point(lambda t: t + one, RSeries.zero(1, 2), 5,
                                 padded, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@settings(max_examples=25)
@given(biseries_st())
def test_dumps_loads_round_trip(a):
    if not a.coeffs:
        return
    again = BiSeries.loads(a.dumps(), degree=a.d)
    assert again == a


def test_loads_infers_degree_and_skips_comments():
    text = "# header\n1,0 ; 1,0 ; 1 ; 0\n\n2,1 ; 0,0 ; 1/2 ; -1/3\n"
    s = BiSeries.loads(text)
    assert s.n == 2 and s.d == 3
    assert s.get_index((2, 1), (0, 0)) == CScalar(Fraction(1, 2),
                                                  Fraction(-1, 3))


def test_loads_rejects_garbage():
    for text, message in [
            ("1,0 ; 1,0 ; 1\n", "line 1: expected 'm_j ; m_k ; re ; im'"),
            ("", "empty series file"),
            ("1,0 ; 1 ; 1 ; 0\n", "line 1: inconsistent arity"),
            ("1 ; 1 ; 1/0 ; 0", "line 1: Fraction(1, 0)")]:
        with pytest.raises(ValueError) as info:
            BiSeries.loads(text)
        assert str(info.value) == message


def test_loads_rejects_a_negative_exponent():
    # (2, -1) has degree 1 and once read silently as the ordinal of (0, 2)
    text = "1,0 ; 1,0 ; 1 ; 0\n2,-1 ; 1,0 ; 1 ; 0\n3,0 ; 0,3 ; 1 ; 0\n"
    with pytest.raises(ValueError) as info:
        BiSeries.loads(text)
    assert str(info.value) == "line 2: negative exponent in '2,-1'"


def reference_loads(text, degree=None):
    """The series file reader on ``Fraction(str)``, one token at a time and
    with no memo: the oracle of ``BiSeries.loads``."""
    entries = []
    arity = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'm_j ; m_k ; re ; im'")
        try:
            indices = []
            for part in parts[:2]:
                m = tuple(int(t) for t in part.split(","))
                if min(m) < 0:
                    raise ValueError(f"negative exponent in {part!r}")
                indices.append(m)
            c = CScalar(Fraction(parts[2]), Fraction(parts[3]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        mj, mk = indices
        if arity is None:
            arity = len(mj)
        if len(mj) != arity or len(mk) != arity:
            raise ValueError(f"line {lineno}: inconsistent arity")
        entries.append((mj, mk, c))
    if arity is None:
        raise ValueError("empty series file")
    d = max(max(sum(mj), sum(mk)) for mj, mk, _ in entries) \
        if degree is None else degree
    coeffs = {}
    for mj, mk, c in entries:
        if sum(mj) <= d and sum(mk) <= d:
            coeffs[(ordinal_of_index(mj), ordinal_of_index(mk))] = c
    return BiSeries(arity, d, coeffs)


# series-file lines: mostly well formed, with comments, blank lines,
# repeated keys, zero coefficients, every scalar spelling Fraction(str)
# reads, and now and then a wrong field count, arity or token
_exponents = st.integers(0, 3) | st.just(-1)
_index = st.lists(_exponents, min_size=2, max_size=2).map(
    lambda m: ",".join(map(str, m))) | st.sampled_from(["0", "1,0,0", "1,x",
                                                        "", " 1 , 0"])
_scalar = st.sampled_from(["0", "1", "-1", "2/3", "-5/4", "0/7", "+3",
                           " 4 ", "0.5", "1e1", "1_0", "\u0661"]) | \
    st.sampled_from(["x", "", "1/0", "1/-2", "--1"])
_line = st.one_of(
    st.builds(lambda mj, mk, re, im, sep: sep.join([mj, mk, re, im]),
              _index, _index, _scalar, _scalar,
              st.sampled_from([" ; ", ";", "; ", " ;"])),
    st.sampled_from(["", "   ", "\t", "# comment", "  # 1 ; 1 ; 1 ; 1",
                     "1,0 ; 1,0 ; 1", "1,0 ; 1,0 ; 1 ; 0 ; 0"]))


@settings(max_examples=300)
@given(st.lists(_line, max_size=12), st.none() | st.integers(0, 4))
@example(["1,0 ; 1,0 ; 1 ; 0", "1,0 ; 1,0 ; 0 ; 0"], None)
@example(["# only a comment", ""], None)
def test_loads_matches_the_fraction_reader(lines, degree):
    # the same series, or the same exception class and message
    text = "\n".join(lines)
    try:
        want = reference_loads(text, degree)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            BiSeries.loads(text, degree)
        assert str(info.value) == str(exc)
        return
    got = BiSeries.loads(text, degree)
    assert (got.n, got.d, got.coeffs) == (want.n, want.d, want.coeffs)


@given(biseries_st(), st.one_of(
    wide_coeff_st, wide_st, st.integers(-3, 3),
    st.sampled_from([1, CScalar(1), Fraction(1), CScalar(0, 1)])))
def test_scale_matches_the_cscalar_product(a, factor):
    out = a.scale(factor)
    assert (out.n, out.d) == (a.n, a.d)
    assert set(out.coeffs) <= set(a.coeffs)
    for jk, c in a.coeffs.items():
        assert out.get(*jk) == c * CScalar.of(factor), jk
    if CScalar.of(factor) == 1:
        assert out is a


# ---------------------------------------------------------------------------
# holomorphic values, as {ordinal: value}
# ---------------------------------------------------------------------------

def test_holomorphic_mul_conj():
    f = {ordinal_of_index((1, 0)): CScalar(1),
         ordinal_of_index((0, 1)): CScalar(0, 1)}
    sq = mul_conj(f, f, 2, 2)
    assert sq.get_index((1, 0), (1, 0)) == CScalar(1)
    assert sq.get_index((0, 1), (0, 1)) == CScalar(1)
    assert sq.get_index((1, 0), (0, 1)) == CScalar(0, -1)
    assert sq.is_hermitian()


def test_holomorphic_lift_and_shift():
    f = monomial((2,), CScalar(Fraction(1, 2)))
    g = lift_arity(f, 1, 1)
    assert g == {ordinal_of_index((2, 0)): CScalar(Fraction(1, 2))}
    h = mul_monomial(g, 2, 3, (0, 1))
    assert h == {ordinal_of_index((2, 1)): CScalar(Fraction(1, 2))}
    # overflow past the truncation is dropped
    assert mul_monomial(g, 2, 3, (0, 2)) == {}
