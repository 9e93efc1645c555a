"""Explicit truncated immersion maps from PSD certificates.

A map is stored as components (radicand, den, nums): the component function
is sqrt(radicand) * f, with f = nums / den a holomorphic polynomial in the
integer form of a ``BiSeries``, keyed by the ordinals of the map's own
``graded_order(arity, degree)``.  The square root is never materialized:
all verification happens on radicand * |f|^2, in Gaussian-integer
arithmetic.  A map is verified by running the Bareiss steps of the exact
LDL* backwards (``_backward_pass``): from the zero remainder, each
component is added back as the integer step that removed it, so the
check computes on the Bareiss integers of the matrix, and it passes only
the map ``psd_certify`` factors, in its order: one run of components per
block of ``resolvability.principal_blocks``, the same split the
elimination takes, each run checked on its block.  That is the
one decision: a local immersion is unique up to a rigid motion (Calabi),
so the printed map is the one certificate, and a map that pulls back the
same norm in another form (-f_h, a unitary mix, a reordering) is not it.
``ImmersionMap.pullback_norm`` sums any map over one common denominator
(``_pullback_pass``), to compare its pullback with a series.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .resolvability import MatrixWitness, NotPsd, calabi_matrix, \
    calabi_series, principal_blocks, psd_certify
from .scalars import RationalLike, Record, as_fraction
from .series import BiSeries, Nums, Rows, _order_size, graded_order, \
    hermitian_update, reduced


class NotResolvableError(ValueError):
    """Factorization refused: the coefficient matrix is not PSD."""

    def __init__(self, witness: MatrixWitness):
        super().__init__(
            f"matrix not positive semidefinite (witness value {witness.value})")
        self.witness = witness


class Target(Record, fields="kind b", defaults=(None,)):
    """kind (str): "flat" or "curved"; b (Fraction or None): the curvature
    parameter of a "curved" target."""

    __slots__ = ()


class Component(Record, fields="radicand den nums"):
    """sqrt(radicand) * nums / den.  radicand (Fraction): positive; den
    (int) and nums (Nums): the Gaussian-integer numerators of the
    holomorphic factor over one positive denominator, in canonical form
    (``series.reduced``), keyed by ordinals of the map's graded order."""

    __slots__ = ()

    def __new__(cls, radicand: Fraction, den: int, nums: Nums):
        if not radicand > 0:
            raise ValueError(f"a component needs a positive radicand, "
                             f"got {radicand}")
        return super().__new__(cls, radicand, den, nums)


class ImmersionMap(Record, fields="components target degree arity"):
    """components (tuple of Component): in pivot order, each keyed by
    ordinals of ``graded_order(arity, degree)`` only (else ValueError);
    target (Target): the space form; degree (int): the truncation degree;
    arity (int): the number of variables."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        imm = super().__new__(cls, *args, **kwargs)
        size = _order_size(imm.arity, imm.degree)  # builds no table
        for h, comp in enumerate(imm.components):
            for j in comp.nums:
                if not 0 <= j < size:
                    raise ValueError(f"component {h} holds ordinal {j}; "
                                     f"arity {imm.arity} and degree "
                                     f"{imm.degree} have ordinals "
                                     f"0..{size - 1}")
        return imm

    def pullback_norm(self) -> BiSeries:
        """sum radicand * f * conj(f), exact, through the map's degree."""
        lam, rows = _pullback_pass(self)
        return BiSeries._reduced(self.arity, self.degree, lam, {
            (j, k): (re, im)
            for j, row in rows.items() for k, (re, im, _) in row.items()})


def _pullback_pass(imm: ImmersionMap) -> Tuple[int, Rows]:
    """(L, rows): sum_h r_h f_h conj(f_h) is rows / L (Gaussian integers
    at scale 1, no zero entry).

    Each f_h is Gaussian integers over its denominator D_h, with weight
    r_h / D_h^2 in lowest terms; the weights are put over their common
    denominator L, and one integer ``hermitian_update`` per component
    accumulates L times the sum into rows.
    """
    comps = []
    for rad, den, x in imm.components:
        g = math.gcd(rad.numerator, den * den)
        comps.append((x, rad.numerator // g,
                      rad.denominator * (den * den // g)))
    lam = math.lcm(*(wden for *_, wden in comps))
    rows: Rows = {}
    for x, num, wden in comps:
        hermitian_update(rows, num * (lam // wden), x)
    return lam, rows


def _rebuilds(imm: ImmersionMap, want: BiSeries) -> bool:
    """True when the components of ``imm`` are, in order, the pivots and
    columns of the pivoted LDL* that ``psd_certify`` takes from the
    coefficient matrix of ``want``, and so rebuild that matrix exactly.

    The map must be of want's arity and degree.  The matrix splits as
    ``psd_certify`` splits it, by ``principal_blocks``: the components
    come in one run per block, in block order, each inside its block's
    rows, and each run goes through ``_backward_pass`` over its block; a
    component left after the last block rejects the map.
    """
    n, d = want.n, want.d
    if imm.arity != n or imm.degree != d:
        return False
    comps = imm.components
    start = 0
    for den, nums in principal_blocks(want.den, want.nums,
                                      graded_order(n, d).degree):
        rows = {j for j, _ in nums}
        end = start
        while end < len(comps) and comps[end].nums.keys() <= rows:
            end += 1
        if not _backward_pass(den, nums, comps[start:end]):
            return False
        start = end
    return start == len(comps)


def _backward_pass(den: int, nums: Nums,
                   comps: Sequence[Tuple[Fraction, int, Nums]]) -> bool:
    """True when the components (r_h, D_h, x_h), each f_h = x_h / D_h, are
    in order the pivots and columns of the pivoted LDL* of the Hermitian
    matrix nums / den, f_h being 1 at its pivot p_h.

    Bareiss's step run backwards (Bareiss, Math. Comp. 22, 1968).  With
    B_0 = 1, B_h = r_h den B_{h-1} and y_h = B_h f_h, the step of
    ``resolvability._eliminate`` that removed pivot h, M_h = (B_h M_{h-1}
    - y y*) / B_{h-1} off p_h, is undone by M_{h-1} = (B_{h-1} M_h + y_h
    y_h*) / B_h, which also restores row and column p_h: one
    ``hermitian_update(rows, 1, y_h, B_{h-1}, B_h)``, for h = r ... 1 from
    the zero remainder M_r.  For the LDL* of nums / den the B_h are its
    Bareiss integers and the M_h its Bareiss minors, so every B_h, every
    y_h and every division is integral, no integer is larger than a minor
    of nums, and M_0 = nums; a map for which one of them is not is
    rejected.

    Shape test: once component h is added back, the diagonal M_{h-1}(q, q)
    is den B_{h-1} times the Schur diagonal S_{h-1}(q) = sum_{i >= h} r_i
    |f_i(q)|^2.  p_h must be the pick of the pivot rule, the largest, ties
    to the lowest position, with y_h(p_h) = M_{h-1}(p_h, p_h) = B_h.  S
    grows on the support of f_h only, so the pick is the running best or a
    position of that support, O(support) per component; an entry keeps
    the scale it was written at (``series.Rows``), so the running best is
    compared by cross-multiplication.
    """
    bs = [1]
    for rad, fden, _ in comps:
        b, rem = divmod(rad.numerator * den * bs[-1], rad.denominator)
        if rem or b % fden:
            return False
        bs.append(b)
    rows: Rows = {}
    best, top, scale = None, 0, 1  # the pick, its diagonal and its scale
    for h in range(len(comps), 0, -1):
        b, prev = bs[h], bs[h - 1]
        _, fden, x = comps[h - 1]
        t = b // fden
        y = {q: (re * t, im * t) for q, (re, im) in x.items()}
        try:
            hermitian_update(rows, 1, y, prev, b)
        except ArithmeticError:
            return False
        for q in y:
            v = rows[q][q][0]
            c = v * scale - top * prev
            if c > 0 or not c and q < best:
                best, top, scale = q, v, prev
        if y.get(best) != (b, 0) or top != b:
            return False
    count = 0  # M_0 = nums: an entry at scale s is s times its numerator
    for j, row in rows.items():
        for k, (re, im, s) in row.items():
            wr, wi = nums.get((j, k), (0, 0))
            if re != wr * s or im != wi * s:
                return False
        count += len(row)
    return count == len(nums)


def target_for(b: Fraction) -> Target:
    """The space form of curvature 4b: flat for b = 0, else curved."""
    return Target("flat") if not b else Target("curved", b)


def factor_immersion(d: BiSeries, b: RationalLike, degree: int) -> ImmersionMap:
    """Turn the retained LDL* factorization into explicit components.

    Component h has radicand = pivot d_h and f_h = the h-th unit-diagonal
    column of L, over its own denominator, so that sum_h d_h |f_h|^2
    reproduces b_transform(d, b) through ``degree`` exactly.  The
    components come in pivot order, each 1 at its pivot: this map, and no
    other form of it, is what ``verify_immersion(imm, d, b, degree)``
    accepts.  Before it is
    returned, the map is verified as ``check-certificate`` verifies it:
    the backward pass ``_rebuilds`` must rebuild the matrix it was
    factored from.
    """
    b = as_fraction(b)
    transformed, matrix = calabi_matrix(d, b, degree)
    verdict = psd_certify(matrix)
    if isinstance(verdict, NotPsd):
        raise NotResolvableError(
            MatrixWitness(matrix.basis, verdict.witness, verdict.value))
    components: List[Component] = []
    for pivot in verdict.pivots:
        # the column l = (B_pp at p, x below) / B_pp; basis position ->
        # graded ordinal
        nums: Nums = {pivot.ordinal + 1: (pivot.bareiss, 0)}
        for position, v in pivot.x.items():
            nums[position + 1] = v
        components.append(Component(pivot.value,
                                    *reduced(pivot.bareiss, nums)))
    imm = ImmersionMap(tuple(components), target_for(b), degree, d.n)
    if not _rebuilds(imm, transformed):  # pragma: no cover - soundness
        raise AssertionError("the factored map does not rebuild its matrix")
    return imm


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_immersion(imm: ImmersionMap, d: BiSeries, b: RationalLike,
                     degree: int) -> bool:
    """True exactly when ``imm`` is the map ``factor_immersion(d, b,
    degree)`` prints: the backward pass ``_rebuilds`` rebuilds the matrix
    of b_transform(d, b) through ``degree`` from its components.

    By Calabi's rigidity a local immersion is unique up to a rigid motion,
    so that pivoted LDL* map is the one certificate: -f_h, a unitary mix
    or a reordering of its components pulls back the same norm and is
    still rejected.  To compare any other map's pullback with the series,
    use ``imm.pullback_norm() == calabi_series(d, b, degree)``.
    """
    if imm.arity != d.n:
        raise ValueError(f"arity mismatch: map {imm.arity} vs series {d.n}")
    return _rebuilds(imm, calabi_series(d, b, degree))
