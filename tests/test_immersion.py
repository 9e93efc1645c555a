import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerimm.cli import _immersion_from_json
from kahlerimm.immersion import (Component, ImmersionMap,
                                 NotResolvableError, _backward_pass,
                                 _rebuilds, factor_immersion, target_for,
                                 verify_immersion)
from kahlerimm.models import build_model, space_form_diastasis
from kahlerimm.resolvability import calabi_matrix, calabi_series
from kahlerimm.scalars import CScalar
from kahlerimm.series import BiSeries, GradedOrder, index_of_ordinal
from oracles import component, is_circular, is_pivoted_ldl, \
    space_form_classification, space_form_rank, values_of


def _mfact(m):
    out = 1
    for e in m:
        out *= math.factorial(e)
    return out


def _radicands_by_monomial(imm):
    out = {}
    for comp in imm.components:
        assert len(comp.nums) == 1, "expected a monomial component"
        ((j, c),) = values_of(comp).items()
        assert c == CScalar(1)
        out[index_of_ordinal(imm.arity, j)] = comp.radicand
    return out


@pytest.mark.parametrize("n,degree", [(1, 5), (2, 4)])
def test_hyperbolic_into_flat_radicands(n, degree):
    """-log(1 - rho) factors with radicands (|m|-1)!/m!."""
    d = space_form_diastasis(n, -1, degree)
    imm = factor_immersion(d, 0, degree)
    rads = _radicands_by_monomial(imm)
    order = GradedOrder(n, degree)
    for m in order.basis[1:]:
        assert rads[m] == Fraction(math.factorial(sum(m) - 1), _mfact(m))
    assert verify_immersion(imm, d, 0, degree)


@pytest.mark.parametrize("n,degree", [(1, 5), (2, 4)])
def test_hyperbolic_into_projective_radicands(n, degree):
    """b = 1 target: radicands |m|!/m!."""
    d = space_form_diastasis(n, -1, degree)
    imm = factor_immersion(d, 1, degree)
    rads = _radicands_by_monomial(imm)
    for m in GradedOrder(n, degree).basis[1:]:
        assert rads[m] == Fraction(math.factorial(sum(m)), _mfact(m))
    assert verify_immersion(imm, d, 1, degree)


@pytest.mark.parametrize("n,degree", [(1, 5), (2, 4)])
def test_flat_into_projective_radicands(n, degree):
    """Flat source, b = 1: radicands 1/m!."""
    d = space_form_diastasis(n, 0, degree)
    imm = factor_immersion(d, 1, degree)
    rads = _radicands_by_monomial(imm)
    for m in GradedOrder(n, degree).basis[1:]:
        assert rads[m] == Fraction(1, _mfact(m))
    assert verify_immersion(imm, d, 1, degree)


def test_factor_immersion_refuses_not_psd():
    d = build_model("cp", {"n": "1", "scale": "1/2"}, 4)
    with pytest.raises(NotResolvableError) as err:
        factor_immersion(d, 1, 4)
    w = err.value.witness
    assert w.value < 0


def test_factor_immersion_deterministic():
    d = build_model("cartan_hartogs",
                    {"base": "omega1", "m": "1", "n": "1", "mu": "2"}, 3)
    a = factor_immersion(d, 1, 3)
    b = factor_immersion(d, 1, 3)
    assert a.components == b.components


def test_factor_off_diagonal_example():
    # phi with coupling: |z1|^2 + |z2|^2 + (z1 zbar2 + z2 zbar1)/2 is PSD
    d = BiSeries(2, 1, {(1, 1): CScalar(1), (2, 2): CScalar(1),
                        (1, 2): CScalar(Fraction(1, 2)),
                        (2, 1): CScalar(Fraction(1, 2))})
    imm = factor_immersion(d, 0, 1)
    assert verify_immersion(imm, d, 0, 1)
    assert imm.pullback_norm() == d


# ---------------------------------------------------------------------------
# space-form maps
# ---------------------------------------------------------------------------

def closed_form_diagonal(m, b, b_target):
    """prod_{l=1}^{p-1} (b' - l b) / m! for |m| = p: the coefficient of
    |z^m|^2 in (e^{b' D_b} - 1)/b', and in D_b itself at b' = 0."""
    s = Fraction(1)
    for l in range(1, sum(m)):
        s *= b_target - l * b
    return s / _mfact(m)


def closed_form_map(n, b, b_target, degree):
    """The monomial radicands of the space-form map, or None and the first
    negative (m, s) in graded order."""
    rads = {}
    for m in GradedOrder(n, degree).basis[1:]:
        s = closed_form_diagonal(m, b, b_target)
        if s < 0:
            return None, (m, s)
        if s:
            rads[m] = s
    return rads, None


def _witness_diagonal(witness):
    """(m, value) of a witness that is one basis vector."""
    (i,) = [i for i, c in enumerate(witness.components) if not c.is_zero()]
    return witness.basis[i], witness.value


CURVATURES = [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]
TARGETS = [-1, 0, 1, 2, 3, Fraction(1, 3), Fraction(3, 2)]


@pytest.mark.parametrize("b_target", TARGETS, ids=str)
@pytest.mark.parametrize("b", CURVATURES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_space_form_maps_match_closed_form(n, b, b_target):
    """factor_immersion on a space-form diastasis builds the closed-form
    monomial map, and refuses exactly where Calabi's classification says
    no map exists, with the first negative diagonal as its witness."""
    degree = 4
    d = space_form_diastasis(n, b, degree)
    rads, first_negative = closed_form_map(n, b, b_target, degree)
    exists = space_form_classification(Fraction(b), Fraction(b_target))[0]
    assert (rads is not None) == exists
    if rads is None:
        with pytest.raises(NotResolvableError) as err:
            factor_immersion(d, b_target, degree)
        assert _witness_diagonal(err.value.witness) == first_negative
        return
    imm = factor_immersion(d, b_target, degree)
    assert _radicands_by_monomial(imm) == rads
    assert imm.target == target_for(Fraction(b_target))
    # Calabi's rank: C(n+k, k) - 1 components for b_target = k b once the
    # degree reaches k; infinite rank takes every monomial of degree <= 4
    k = space_form_classification(Fraction(b), Fraction(b_target))[1]
    rank = space_form_rank(n, b, b_target)
    if k is None:
        assert rank is None
        assert len(imm.components) == math.comb(n + degree, degree) - 1
    elif k <= degree:
        assert len(imm.components) == rank == math.comb(n + k, k) - 1


def test_projective_degree_doubling():
    # CP^1 with b = 1 into b = 2: radicands 1 and 1/2 (Veronese-type)
    d = space_form_diastasis(1, 1, 3)
    imm = factor_immersion(d, 2, 3)
    rads = _radicands_by_monomial(imm)
    assert rads == {(1,): Fraction(1), (2,): Fraction(1, 2)}
    assert verify_immersion(imm, d, 2, 3)


def test_projective_needs_integer_ratio():
    d = space_form_diastasis(1, 1, 3)
    with pytest.raises(NotResolvableError) as err:
        factor_immersion(d, Fraction(1, 2), 3)
    assert _witness_diagonal(err.value.witness) == ((2,), Fraction(-1, 4))


def test_positive_into_flat_impossible():
    with pytest.raises(NotResolvableError):
        factor_immersion(space_form_diastasis(2, 1, 2), 0, 2)


def test_flat_and_hyperbolic_targets():
    for n, b, bt in [(1, 0, 0), (2, -1, 0), (1, -1, 1), (2, 0, 1),
                     (1, Fraction(-1, 2), Fraction(3, 2))]:
        d = space_form_diastasis(n, b, 3)
        imm = factor_immersion(d, bt, 3)
        assert verify_immersion(imm, d, bt, 3), (n, b, bt)


def test_classification_cases():
    assert space_form_classification(Fraction(0), Fraction(0))[:2] == (True, 1)
    assert space_form_classification(Fraction(1), Fraction(3))[:2] == (True, 3)
    assert space_form_classification(Fraction(2), Fraction(1))[0] is False
    assert space_form_classification(Fraction(-1), Fraction(1))[:2] == \
        (True, None)
    assert space_form_classification(Fraction(1), Fraction(0))[0] is False


def test_space_form_rank():
    assert space_form_rank(1, 1, 1) == 1
    assert space_form_rank(1, 1, 2) == 2
    assert space_form_rank(2, 1, 2) == 5
    assert space_form_rank(2, -1, 1) is None
    with pytest.raises(ValueError):
        space_form_rank(1, 1, Fraction(1, 2))


def first_difference(got, want):
    """(m_j, m_k, got, want) at the least key (j, k), in graded order, at
    which the series ``got`` and ``want`` differ."""
    j, k = min((got - want).coeffs)
    n = got.n
    return (index_of_ordinal(n, j), index_of_ordinal(n, k), got.get(j, k),
            want.get(j, k))


def test_verify_reports_first_difference():
    # a map verified against another series is rejected; its pullback
    # tells where the two differ
    d = space_form_diastasis(1, 0, 3)
    imm = factor_immersion(d, 0, 3)
    wrong = space_form_diastasis(1, -1, 3)
    assert verify_immersion(imm, d, 0, 3)
    assert not verify_immersion(imm, wrong, 0, 3)
    mj, mk, got, want = first_difference(imm.pullback_norm(),
                                         calabi_series(wrong, 0, 3))
    assert (mj, mk) == ((2,), (2,))
    assert got == CScalar(0) and want == CScalar(Fraction(1, 2))


def perturbed(imm, h, position=None, radicand=1):
    """``imm`` with component h's coefficient at ``position`` moved by
    1/3 + i, or its radicand multiplied by ``radicand``."""
    comp = imm.components[h]
    coeffs = values_of(comp)
    if position is not None:
        coeffs[position] = coeffs.get(position, CScalar(0)) \
            + CScalar(Fraction(1, 3), 1)
    comps = list(imm.components)
    comps[h] = component(comp.radicand * radicand, coeffs)
    return ImmersionMap(tuple(comps), imm.target, imm.degree, imm.arity)


@pytest.mark.parametrize("h,position,radicand,residual", [
    (0, 4, 1, ((0, 1), (1, 1), CScalar(Fraction(1, 3), -1), CScalar(0))),
    (2, 7, 1, ((1, 1), (1, 2), CScalar(Fraction(1, 6), Fraction(-1, 2)),
               CScalar(0))),
    (4, 9, 1, ((2, 0), (3, 0), CScalar(Fraction(1, 12), Fraction(-1, 4)),
               CScalar(0))),
    (0, None, 2, ((0, 1), (0, 1), CScalar(2), CScalar(1))),
    (3, None, 2, ((0, 2), (0, 2), CScalar(Fraction(1, 2)),
                  CScalar(Fraction(1, 4)))),
])
def test_verify_residual_of_a_perturbed_component(h, position, radicand,
                                                   residual):
    # (m_j, m_k, got, want) of the first coefficient at which the
    # perturbed map's pullback differs from the series, pinned
    d = space_form_diastasis(2, Fraction(-1, 2), 3)
    imm = factor_immersion(d, 0, 3)
    assert verify_immersion(imm, d, 0, 3)
    other = perturbed(imm, h, position, radicand)
    assert not verify_immersion(other, d, 0, 3)
    assert first_difference(other.pullback_norm(),
                            calabi_series(d, 0, 3)) == residual


@pytest.mark.parametrize("sign,radicand", [
    (7, 1), (0, 1), (1, 0), (1, Fraction(-1, 2)), (-1, -1)])
def test_component_needs_unit_sign_and_positive_radicand(sign, radicand):
    # an immersion document stores each component as (sign, radicand,
    # series); its sign field must be 1 and its radicand positive
    with pytest.raises(ValueError, match="sign|positive radicand"):
        _immersion_from_json({
            "degree": 2, "arity": 1, "target": {"kind": "flat"},
            "components": [{"sign": sign, "radicand": str(radicand),
                            "series": [{"m": [1], "re": "1", "im": "0"}]}]})
    if radicand <= 0:
        with pytest.raises(ValueError, match="positive radicand"):
            Component(Fraction(radicand), 1, {1: (1, 0)})


# ---------------------------------------------------------------------------
# the printed map is the only pivoted LDL* of its pullback
# ---------------------------------------------------------------------------

PARTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                         Fraction(1, 2), Fraction(2), Fraction(-1, 3)])


@st.composite
def gram_jets(draw):
    """(n, degree, jet): the Hermitian jet sum_i g_i conj(g_i) of one to
    three holomorphic g_i without constant term, of arity 1 or 2 and
    degree 2 or 3; with ``homogeneous`` each g_i is of one degree, so the
    jet is block-diagonal by degree."""
    n, degree = draw(st.sampled_from([1, 2])), draw(st.sampled_from([2, 3]))
    order = GradedOrder(n, degree)
    homogeneous = draw(st.booleans())
    coeffs = {}
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(1, degree))
        g = {j: CScalar(draw(PARTS), draw(PARTS))
             for j in range(1, order.size)
             if order.degree[j] == top or not homogeneous}
        for j, a in g.items():
            for k, c in g.items():
                coeffs[(j, k)] = coeffs.get((j, k), CScalar(0)) + a * c.conj()
    return n, degree, BiSeries(n, degree, coeffs)


def remade(imm, comps):
    return ImmersionMap(tuple(comps), imm.target, imm.degree, imm.arity)


def scaled(comp, unit):
    return component(comp.radicand,
                     {j: c * unit for j, c in values_of(comp).items()})


@settings(max_examples=80, deadline=None)
@given(jet=gram_jets(), data=st.data())
def test_only_the_factored_map_is_a_pivoted_ldl(jet, data):
    # -f_h, i f_h and two components swapped pull back the same norm;
    # only the printed shape tells them apart, and verification rejects
    # them
    n, degree, d = jet
    imm = factor_immersion(d, 0, degree)
    want = calabi_series(d, 0, degree)
    assert verify_immersion(imm, d, 0, degree) and is_pivoted_ldl(imm)
    comps = list(imm.components)
    if not comps:  # the zero jet
        return
    h = data.draw(st.integers(0, len(comps) - 1))
    others = [remade(imm, comps[:h] + [scaled(comps[h], unit)]
                     + comps[h + 1:])
              for unit in (CScalar(-1), CScalar(0, 1))]
    if h + 1 < len(comps):
        others.append(remade(imm, comps[:h] + [comps[h + 1], comps[h]]
                             + comps[h + 2:]))
    for other in others:
        assert other.pullback_norm() == want
        assert not is_pivoted_ldl(other)
        assert not verify_immersion(other, d, 0, degree)


def test_a_later_component_at_an_earlier_pivot_is_not_the_factored_map():
    # z and z + z^2 pull back |z|^2 + |z + z^2|^2; its elimination pivots
    # on z with radicand 2, so z + z^2 may not reach that pivot
    imm = ImmersionMap((component(1, {1: 1}), component(1, {1: 1, 2: 1})),
                       target_for(0), 2, 1)
    d = imm.pullback_norm()
    assert imm.pullback_norm() == calabi_series(d, 0, 2)
    assert not is_pivoted_ldl(imm)
    assert not verify_immersion(imm, d, 0, 2)
    factored = factor_immersion(d, 0, 2)
    assert is_pivoted_ldl(factored) and factored != imm
    assert verify_immersion(factored, d, 0, 2)
    assert [c.radicand for c in factored.components] == [2, Fraction(1, 2)]


def unitary_mix(imm, a, b):
    """``imm`` with its first two components f1, f2, of equal radicand,
    replaced by (a f1 + b f2, -b f1 + a f2) for real a^2 + b^2 = 1."""
    first, second, *rest = imm.components
    r1, f1, f2 = first.radicand, values_of(first), values_of(second)
    assert r1 == second.radicand and a * a + b * b == 1

    def mix(x, y):
        zero = CScalar(0)
        return component(r1, {
            j: CScalar(x) * f1.get(j, zero) + CScalar(y) * f2.get(j, zero)
            for j in f1.keys() | f2.keys()})
    return remade(imm, [mix(a, b), mix(-b, a), *rest])


@pytest.mark.parametrize("degree", [1, 3])
def test_a_rational_unitary_mix_is_not_the_factored_map(degree):
    # (3/5 f1 + 4/5 f2, -4/5 f1 + 3/5 f2) pulls back the same norm as the
    # flat map z -> (z2, z1, ...); -f, i f and a swap are not the only
    # other forms of it
    d = space_form_diastasis(2, 0, degree)
    imm = factor_immersion(d, 0, degree)
    other = unitary_mix(imm, Fraction(3, 5), Fraction(4, 5))
    assert other.pullback_norm() == imm.pullback_norm() \
        == calabi_series(d, 0, degree)
    assert verify_immersion(imm, d, 0, degree)
    assert not verify_immersion(other, d, 0, degree)
    assert not is_pivoted_ldl(other)


@settings(max_examples=80, deadline=None)
@given(jet=gram_jets(), data=st.data())
def test_the_integer_shape_test_matches_the_fraction_oracle(jet, data):
    # the backward pass keeps a running best over each component's
    # support; the oracle rescans every Schur diagonal in Fraction per
    # component.  Against the map's own pullback, the backward pass is the
    # shape test alone
    n, degree, d = jet
    imm = factor_immersion(d, 0, degree)
    comps = list(imm.components)
    maps = [imm]
    if comps:
        h = data.draw(st.integers(0, len(comps) - 1))
        comp = comps[h]
        maps += [remade(imm, comps[:h] + [other] + comps[h + 1:])
                 for other in (scaled(comp, CScalar(-1)),
                               scaled(comp, CScalar(0, 1)),
                               Component(2 * comp.radicand, comp.den,
                                         comp.nums))]
    if len(comps) > 1:
        h = data.draw(st.integers(0, len(comps) - 2))
        maps.append(remade(imm, comps[:h] + [comps[h + 1], comps[h]]
                           + comps[h + 2:]))
        # a later component given a term on an earlier one's support
        later = data.draw(st.integers(h + 1, len(comps) - 1))
        q = data.draw(st.sampled_from(sorted(comps[h].nums)))
        coeffs = values_of(comps[later])
        coeffs[q] = coeffs.get(q, CScalar(0)) + CScalar(1)
        maps.append(remade(imm, comps[:later] + [component(
            comps[later].radicand, coeffs)] + comps[later + 1:]))
    for other in maps:
        assert _rebuilds(other, other.pullback_norm()) \
            == is_pivoted_ldl(other)
    assert is_pivoted_ldl(imm)


# ---------------------------------------------------------------------------
# the backward Bareiss pass against the forward sum
# ---------------------------------------------------------------------------

# ``verify_immersion`` decides a map by the backward pass alone; it must
# accept exactly the maps whose forward sum (``pullback_norm``) is the
# series and which the Fraction oracle finds to be the pivoted LDL* of it

def dense_gram(seed, n, degree, rank):
    """The jet sum_i |g_i|^2 of ``rank`` seeded holomorphic g_i, each with
    a Gaussian-rational coefficient at every monomial of degree 1 ..
    ``degree``: a dense coefficient matrix of that rank."""
    rng = random.Random(seed)
    size = GradedOrder(n, degree).size
    coeffs = {}
    for _ in range(rank):
        g = {j: CScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for j in range(1, size)}
        for j, a in g.items():
            for k, c in g.items():
                coeffs[(j, k)] = coeffs.get((j, k), CScalar(0)) + a * c.conj()
    return n, degree, BiSeries(n, degree, coeffs)


DENSE = [dense_gram(seed, 2, 4, 12) for seed in (1, 2)]


def edited_maps(imm, draw):
    """Maps that ``imm`` (factored, with at least one component) turns
    into under one edit each: -f_h, i f_h, a doubled radicand, a radicand
    times 8/7, f_h moved by 1/3 at one of its terms, a swapped pair, and a
    later component given a term on an earlier one's pivot."""
    comps = list(imm.components)
    h = draw(st.integers(0, len(comps) - 1))
    comp = comps[h]
    moved = values_of(comp)
    q = draw(st.sampled_from(sorted(moved)))
    moved[q] += CScalar(Fraction(1, 3))
    maps = [remade(imm, comps[:h] + [other] + comps[h + 1:])
            for other in (scaled(comp, CScalar(-1)),
                          scaled(comp, CScalar(0, 1)),
                          Component(2 * comp.radicand, comp.den, comp.nums),
                          Component(comp.radicand * Fraction(8, 7),
                                    comp.den, comp.nums),
                          component(comp.radicand, moved))]
    if len(comps) > 1:
        h = draw(st.integers(0, len(comps) - 2))
        maps.append(remade(imm, comps[:h] + [comps[h + 1], comps[h]]
                           + comps[h + 2:]))
        later = draw(st.integers(h + 1, len(comps) - 1))
        pivot = [j for j, c in values_of(comps[h]).items()
                 if c == CScalar(1)][0]
        coeffs = values_of(comps[later])
        coeffs[pivot] = coeffs.get(pivot, CScalar(0)) + CScalar(1)
        maps.append(remade(imm, comps[:later] + [component(
            comps[later].radicand, coeffs)] + comps[later + 1:]))
    return maps


def assert_backward_pass_rebuilds(d, degree):
    imm = factor_immersion(d, 0, degree)
    transformed, matrix = calabi_matrix(d, 0, degree)
    assert _rebuilds(imm, transformed)
    if not is_circular(matrix):
        # one block: the rows are the matrix's own numerators, over its den
        assert _backward_pass(matrix.den, matrix.nums, [
            (rad, den, {j - 1: v for j, v in nums.items()})
            for rad, den, nums in imm.components])
    return imm, transformed, matrix


def assert_agrees_with_the_forward_sum(imm, d, want, degree):
    pivoted = is_pivoted_ldl(imm)
    assert verify_immersion(imm, d, 0, degree) == \
        (imm.pullback_norm() == want and pivoted)
    # against the map's own pullback, the backward pass is the shape test
    assert _rebuilds(imm, imm.pullback_norm()) == pivoted


@settings(max_examples=80, deadline=None)
@given(jet=gram_jets(), data=st.data())
def test_the_backward_pass_agrees_with_the_forward_sum(jet, data):
    n, degree, d = jet
    imm, want, _ = assert_backward_pass_rebuilds(d, degree)
    assert verify_immersion(imm, d, 0, degree) is True
    assert imm.pullback_norm() == want
    # against other jets: |z^m|^2 added at the last monomial, which the
    # map may or may not touch, and an imaginary coupling of ordinals 1, 2
    m = GradedOrder(n, degree).basis[-1]
    for other in (d + BiSeries.term(n, degree, m, m),
                  d + BiSeries(n, degree, {(1, 2): CScalar(0, 1),
                                           (2, 1): CScalar(0, -1)})):
        assert verify_immersion(imm, other, 0, degree) is False
        assert imm.pullback_norm() != calabi_series(other, 0, degree)
    if imm.components:
        for other in edited_maps(imm, data.draw):
            assert_agrees_with_the_forward_sum(other, d, want, degree)


@pytest.mark.parametrize("jet", DENSE, ids=["seed1", "seed2"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_backward_pass_on_a_dense_rank_12_matrix(jet, data):
    n, degree, d = jet
    imm, want, matrix = assert_backward_pass_rebuilds(d, degree)
    assert len(imm.components) == 12 and not is_circular(matrix)
    for other in edited_maps(imm, data.draw):
        assert_agrees_with_the_forward_sum(other, d, want, degree)
        assert not verify_immersion(other, d, 0, degree)



def test_the_backward_pass_takes_the_blocks_of_a_circular_jet_in_order():
    # degree 1 couples its two monomials and degree 2 is diagonal: the
    # matrix has two blocks, and the runs of components, one per block,
    # must come lowest degree first.  Swapped, the map pulls back the
    # same series and is rejected.
    d = space_form_diastasis(2, -1, 2) + BiSeries(2, 2, {
        (1, 2): CScalar(0, Fraction(1, 4)),
        (2, 1): CScalar(0, Fraction(-1, 4))})
    imm = factor_immersion(d, 0, 2)
    want, matrix = calabi_matrix(d, 0, 2)
    assert is_circular(matrix)
    degree = GradedOrder(2, 2).degree
    runs = [[c for c in imm.components
             if {degree[j] for j in c.nums} == {g}] for g in (1, 2)]
    assert [len(run) for run in runs] == [2, 3]
    assert list(imm.components) == runs[0] + runs[1]
    assert _rebuilds(imm, want) and verify_immersion(imm, d, 0, 2)
    swapped = remade(imm, runs[1] + runs[0])
    assert swapped.pullback_norm() == want
    assert not _rebuilds(swapped, want)
    assert not verify_immersion(swapped, d, 0, 2)
