"""Truncated bi-graded power series over exact Gaussian rationals.

A ``BiSeries`` stores a Hermitian-symmetric jet

    sum_{j,k} a_{jk} z^{m_j} conj(z)^{m_k},   |m_j| <= d, |m_k| <= d,

sparsely, keyed by ordinal pairs of the graded-lexicographic multi-index
order (degree-major, lexicographically ascending within each degree;
ordinal 0 is the constant term).  A purely holomorphic series, such as a
component of an immersion map, is kept as a bare (den, nums) pair of the
same integer form, keyed by single ordinals.

Coefficients are stored in integer form, as FLINT's ``fmpq_poly`` stores
an integer polynomial over one denominator: one positive integer ``den``
and a dict ``nums`` of Gaussian-integer numerators (re, im), each
coefficient (re + i im) / den.  The form is canonical: ``den`` is the lcm
of the reduced denominators, so gcd(den, every part) = 1, and no entry is
(0, 0); equal series have equal ``den`` and ``nums``, and compare and hash
as integers.  Every operation reads and returns this form, so the stages
of a request pass integers to each other.  ``CScalar``/``Fraction`` values
enter only where a caller builds a series from them (the constructors,
``loads``) and leave only where one is read back (``coeffs``, ``get``,
``dumps``).

Every operation documents its output truncation degree; results never
silently lose degree information.

exp, log(1 + a) and (1 + a)^e run one recurrence over total-degree slices
(``_degree_recurrence``), which costs about one product instead of a sum of
powers.  ``radial.RSeries`` holds a series F(x) as its diagonal jet
F(|z_1|^2, ...), so it composes through the same recurrence.  Products
bucket their terms by bidegree and visit only bucket pairs that stay
inside the truncation.

Monomials are packed (Monagan & Pearce, CASC 2007): ``graded_order(n, d)``
tabulates the order once per (arity, degree) with the Kronecker code of
each multi-index in base d + 1, and a product term's key is the sum of its
factors' packed keys, one integer addition, since no exponent of a product
inside the truncation reaches d + 1.  The codes are unpacked to ordinals
once per result coefficient.  There are no per-ordinal caches: every CLI
request is a fresh process, so a cache that is filled one ordinal at a
time is paid in full by every request; one table per (n, d) costs
O(C(n + d, d) n) once, about what the matrix basis costs anyway.

The series core is fraction-free: a sum, a product, a scaling, a
determinant or a composition puts its operands over a common denominator,
runs its inner loops on Gaussian integers, and divides the result by one
gcd to put it back in canonical form.  The recurrence keeps each slice
over one integer denominator of its own.  So is the check path:
``hermitian_update`` is the Bareiss step of the exact LDL*, and
``immersion`` runs it backwards to rebuild a matrix from a map.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple, TypeAlias, TypeVar

from .scalars import CScalar, RationalLike, as_fraction, format_ratio, \
    parse_ratio

MultiIndex: TypeAlias = "Tuple[int, ...]"
T = TypeVar("T")


class ArityMismatchError(ValueError):
    """Two series of different arity were combined."""


class ConstantTermError(ValueError):
    """A transcendental operation needs a zero constant term."""


class OrdinalRangeError(IndexError):
    """Multi-index outside the truncation range of a graded order."""


class FixedPointDivergenceError(RuntimeError):
    """A graded fixed-point iteration failed to stabilize."""


# ---------------------------------------------------------------------------
# graded-lex enumeration (degree-major, lex ascending inside a degree)
# ---------------------------------------------------------------------------

def _block_size(n: int, deg: int) -> int:
    """The number of n-tuples of nonnegative ints with sum ``deg``."""
    return math.comb(deg + n - 1, n - 1)


def _order_size(n: int, d: int) -> int:
    """The number of n-tuples of degree <= d: ordinals 0 .. size - 1."""
    return math.comb(n + d, n)


def ordinal_of_index(m: MultiIndex) -> int:
    """Position of ``m`` in the graded-lex order for its arity."""
    n = len(m)
    deg = sum(m)
    # lexicographic rank of m among compositions of deg into n parts,
    # after the n-tuples of lower degree
    rank = _order_size(n, deg - 1)
    remaining = deg
    for pos in range(n - 1):
        for smaller in range(m[pos]):
            rank += _block_size(n - pos - 1, remaining - smaller)
        remaining -= m[pos]
    return rank


def index_of_ordinal(n: int, ordinal: int) -> MultiIndex:
    """The multi-index at position ``ordinal`` of the graded-lex order, the
    inverse of ``ordinal_of_index``; computed without a table."""
    if ordinal < 0:
        raise OrdinalRangeError("negative ordinal")
    deg = 0
    while _order_size(n, deg) <= ordinal:
        deg += 1
    rank = ordinal - _order_size(n, deg - 1)
    out: List[int] = []
    remaining = deg
    for pos in range(n - 1):
        first = 0
        while rank >= _block_size(n - pos - 1, remaining - first):
            rank -= _block_size(n - pos - 1, remaining - first)
            first += 1
        out.append(first)
        remaining -= first
    out.append(remaining)
    return tuple(out)


def _kronecker(m: MultiIndex, base: int) -> int:
    """The Kronecker code m_1 base^(n-1) + ... + m_n of ``m``."""
    code = 0
    for e in m:
        code = code * base + e
    return code


class GradedOrder:
    """The graded-lex order of arity ``n`` through degree ``d``, tabulated.

    For each ordinal o, ``basis[o]`` is its multi-index m, ``degree[o]``
    is |m| and ``code[o]`` the Kronecker code of m in base d + 1; ``rank``
    maps a code back to its ordinal.  An exponent of the order is at most
    d, so the digits of a code are the exponents, and

        code(m1) + code(m2) = code(m1 + m2)    whenever |m1| + |m2| <= d:

    no digit carries, and a product of two monomials is one integer
    addition (Kronecker substitution; Monagan & Pearce, CASC 2007).  A
    pair of ordinals (j, k) packs into the one int code[j] * shift +
    code[k], shift = (d + 1)^n, which adds the same way.  Built in
    O(C(n + d, d) n); ``graded_order`` keeps one table per (n, d).
    """

    __slots__ = ("n", "d", "basis", "degree", "code", "rank", "shift")

    def __init__(self, n: int, d: int):
        if n < 1 or d < 0:
            raise ValueError("need arity >= 1, degree >= 0")
        base = d + 1
        # blocks[t]: the tuples of sum t, lex ascending, for arity 1 .. n
        blocks = [[(t,)] for t in range(base)]
        for _ in range(n - 1):
            blocks = [[(first,) + rest for first in range(t + 1)
                       for rest in blocks[t - first]] for t in range(base)]
        self.n = n
        self.d = d
        self.basis: Tuple[MultiIndex, ...] = tuple(
            itertools.chain.from_iterable(blocks))
        self.degree: Tuple[int, ...] = tuple(
            t for t, block in enumerate(blocks) for _ in block)
        self.code: Tuple[int, ...] = tuple(_kronecker(m, base)
                                           for m in self.basis)
        self.rank: Dict[int, int] = {c: o for o, c in enumerate(self.code)}
        self.shift = base ** n

    @property
    def size(self) -> int:
        return len(self.basis)

    def ordinal(self, m: MultiIndex) -> int:
        if len(m) != self.n:
            raise ArityMismatchError(f"index arity {len(m)} != {self.n}")
        if sum(m) > self.d or min(m) < 0:
            raise OrdinalRangeError(f"{m} is outside truncation degree "
                                    f"{self.d}")
        return self.rank[_kronecker(m, self.d + 1)]


@lru_cache(maxsize=None)
def graded_order(n: int, d: int) -> GradedOrder:
    """The one table of the graded order per (arity, degree)."""
    return GradedOrder(n, d)


# ---------------------------------------------------------------------------
# the integer form of a table of exact values
# ---------------------------------------------------------------------------

# Gaussian-integer numerators (re, im) by key, over a denominator kept
# beside them
Nums: TypeAlias = "Dict[T, Tuple[int, int]]"


def integer_form(values: Mapping[T, "CScalar | RationalLike"]
                 ) -> Tuple[int, Nums]:
    """The canonical (den, nums) of exact ``values``: den the lcm of their
    reduced denominators and nums[key] = (den re, den im), zeros dropped.
    The constructors put caller values in the stored form with it."""
    ratios = {}
    for key, value in values.items():
        c = CScalar.of(value)
        if c.re or c.im:
            ratios[key] = ((c.re.numerator, c.re.denominator),
                           (c.im.numerator, c.im.denominator))
    return _ratio_form(ratios)


Ratio: TypeAlias = "Tuple[int, int]"  # (p, q): p / q, q > 0


def _ratio_form(ratios: Mapping[T, Tuple[Ratio, Ratio]]
                ) -> Tuple[int, Nums]:
    """The canonical (den, nums) of nonzero values (re, im), each part a
    ratio (p, q) in any terms."""
    den = math.lcm(*(q for (_, q), _ in ratios.values()),
                   *(q for _, (_, q) in ratios.values()))
    return reduced(den, {key: (rp * (den // rq), ip * (den // iq))
                         for key, ((rp, rq), (ip, iq)) in ratios.items()})


def reduced(den: int, nums: Nums) -> Tuple[int, Nums]:
    """(den, nums) divided by g = gcd(den, every part): the canonical form
    of a table that holds no (0, 0) entry."""
    if den == 1:
        return den, nums
    g = math.gcd(den, *itertools.chain.from_iterable(nums.values()))
    if g == 1:
        return den, nums
    return den // g, {key: (re // g, im // g)
                      for key, (re, im) in nums.items()}


def _factor_form(factor: "CScalar | RationalLike") -> Tuple[int, int, int]:
    """(p, q, F) with factor = (p + i q) / F, F > 0."""
    if isinstance(factor, int):
        return factor, 0, 1
    if not isinstance(factor, CScalar):
        factor = as_fraction(factor)
        return factor.numerator, 0, factor.denominator
    re, im = factor.re, factor.im
    f = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (f // re.denominator),
            im.numerator * (f // im.denominator), f)


def as_scalars(den: int, nums: Mapping[T, Tuple[int, int]]
               ) -> Dict[T, CScalar]:
    """{key: (re + i im) / den}: a table in integer form read back as
    ``CScalar`` values."""
    return {key: CScalar.of_integers(re, im, den)
            for key, (re, im) in nums.items()}


# ---------------------------------------------------------------------------
# BiSeries
# ---------------------------------------------------------------------------

Coeffs: TypeAlias = "Dict[Tuple[int, int], CScalar]"


class BiSeries:
    """Truncated jet sum a_{jk} z^{m_j} conj(z)^{m_k}; immutable value.

    ``den`` and ``nums`` are the canonical integer form of the
    coefficients: a_jk = (re + i im) / den for nums[(j, k)] = (re, im).
    """

    __slots__ = ("n", "d", "den", "nums")

    def __init__(self, n: int, d: int,
                 coeffs: "Mapping[Tuple[int, int], CScalar | RationalLike]"
                 " | None" = None):
        if n < 1 or d < 0:
            raise ValueError("need arity >= 1, degree >= 0")
        den, nums = integer_form(coeffs or {})
        size = _order_size(n, d)
        for j, k in nums:
            if not (0 <= j < size and 0 <= k < size):
                raise OrdinalRangeError(
                    f"coefficient at ordinals ({j},{k}) exceeds degree {d}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BiSeries is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def _of(cls, n: int, d: int, den: int, nums: Nums) -> "BiSeries":
        """The series of a canonical (den, nums) at ordinals of degree
        <= d, which is not checked again."""
        if n < 1 or d < 0:
            raise ValueError("need arity >= 1, degree >= 0")
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "d", d)
        object.__setattr__(out, "den", den)
        object.__setattr__(out, "nums", nums)
        return out

    @classmethod
    def _reduced(cls, n: int, d: int, den: int, nums: Nums) -> "BiSeries":
        """``_of`` of nums / den with no (0, 0) entry, put in lowest
        terms."""
        return cls._of(n, d, *reduced(den, nums))

    @classmethod
    def zero(cls, n: int, d: int) -> "BiSeries":
        return cls._of(n, d, 1, {})

    @classmethod
    def one(cls, n: int, d: int) -> "BiSeries":
        return cls._of(n, d, 1, {(0, 0): (1, 0)})

    @classmethod
    def term(cls, n: int, d: int, m_hol: MultiIndex, m_anti: MultiIndex,
             coeff: "CScalar | RationalLike" = 1) -> "BiSeries":
        j = ordinal_of_index(tuple(m_hol))
        k = ordinal_of_index(tuple(m_anti))
        return cls(n, d, {(j, k): coeff})

    # -- access -------------------------------------------------------
    @property
    def coeffs(self) -> Coeffs:
        """The nonzero coefficients as ``CScalar`` values, built on each
        access: a read-back view, which no operation uses."""
        return as_scalars(self.den, self.nums)

    def get(self, j: int, k: int) -> CScalar:
        re, im = self.nums.get((j, k), (0, 0))
        return CScalar.of_integers(re, im, self.den)

    def get_index(self, m_hol: MultiIndex, m_anti: MultiIndex) -> CScalar:
        return self.get(ordinal_of_index(tuple(m_hol)),
                        ordinal_of_index(tuple(m_anti)))

    def is_hermitian(self) -> bool:
        return hermitian_defect(self.nums) is None

    # -- ring operations ----------------------------------------------
    def _check(self, other: "BiSeries") -> None:
        if self.n != other.n:
            raise ArityMismatchError(f"arity {self.n} != {other.n}")

    def _combine(self, other: "BiSeries", sign: int) -> "BiSeries":
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        d = min(self.d, other.d)
        size = _order_size(self.n, d)
        den = math.lcm(self.den, other.den)
        out: Nums = {}
        for src, w in ((self, den // self.den),
                       (other, sign * (den // other.den))):
            cut = src.d > d
            for jk, (re, im) in src.nums.items():
                if cut and (jk[0] >= size or jk[1] >= size):
                    continue
                cur = out.get(jk)
                if cur is None:
                    out[jk] = (re * w, im * w)
                else:
                    out[jk] = (cur[0] + re * w, cur[1] + im * w)
        return BiSeries._reduced(self.n, d, den, {
            jk: v for jk, v in out.items() if v[0] or v[1]})

    def __add__(self, other: "BiSeries") -> "BiSeries":
        return self._combine(other, 1)

    def __neg__(self) -> "BiSeries":
        return BiSeries._of(self.n, self.d, self.den, {
            jk: (-re, -im) for jk, (re, im) in self.nums.items()})

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self._combine(other, -1)

    def scale(self, factor: "CScalar | RationalLike") -> "BiSeries":
        """factor * self; a factor of 1 returns ``self``.

        With factor = (p + i q) / F, each coefficient is one Gaussian
        integer product over den F.
        """
        p, q, f = _factor_form(factor)
        if p == f and not q:
            return self
        if not p and not q:
            return BiSeries.zero(self.n, self.d)
        if q:
            x = {jk: (re * p - im * q, re * q + im * p)
                 for jk, (re, im) in self.nums.items()}
        else:
            x = {jk: (re * p, im * p) for jk, (re, im) in self.nums.items()}
        return BiSeries._reduced(self.n, self.d, self.den * f, x)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        n = self.n
        d = min(self.d, other.d)
        order = graded_order(n, d)
        acc: Acc = {}
        _mul_add(d, acc, _buckets(order, _packed(order, self.nums.items())),
                 _buckets(order, _packed(order, other.nums.items())), 1)
        return BiSeries._reduced(n, d, self.den * other.den, dict(_unpacked(
            order, ((key, tuple(v)) for key, v in acc.items() if any(v)))))

    def truncate(self, d: int) -> "BiSeries":
        if d >= self.d:
            if d == self.d:
                return self
            raise ValueError("cannot extend truncation degree")
        size = _order_size(self.n, d)
        out = {jk: v for jk, v in self.nums.items()
               if jk[0] < size and jk[1] < size}
        return BiSeries._reduced(self.n, d, self.den, out)

    # -- comparisons --------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.n, self.d, self.den) == (other.n, other.d, other.den) \
            and self.nums == other.nums

    def __hash__(self):
        return hash((self.n, self.d, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        terms = len(self.nums)
        return f"BiSeries(n={self.n}, d={self.d}, {terms} terms)"

    # -- serialization ------------------------------------------------
    def dumps(self) -> str:
        """One line per coefficient: ``m_j ; m_k ; re ; im``, graded order,
        each part in lowest terms as ``format_fraction`` prints it."""
        n, den = self.n, self.den
        text: Dict[int, str] = {}  # ordinal -> "e_1,...,e_n"
        lines = []
        for (j, k), (re, im) in sorted(self.nums.items()):
            for o in (j, k):
                if o not in text:
                    text[o] = ",".join(map(str, index_of_ordinal(n, o)))
            lines.append(f"{text[j]} ; {text[k]} ; {format_ratio(re, den)} ; "
                         f"{format_ratio(im, den)}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def loads(cls, text: str, degree: int | None = None) -> "BiSeries":
        """Parse the text format; ``degree`` defaults to the max degree seen.

        A line is ``m_j ; m_k ; re ; im``: two comma-separated multi-indices
        of non-negative ints and two scalars; blank lines and lines that
        start with '#' are skipped, and a later line for the same (m_j, m_k)
        replaces an earlier one.  A scalar is read as ``Fraction(str)``
        reads it (``parse_ratio``), so a file accepts exactly the grammar
        of ``Fraction(str)``, and a line it rejects raises ``ValueError``
        with the line number and ``Fraction``'s message.  Each distinct
        multi-index and scalar token is parsed once, to integers, and the
        coefficients are put in canonical form once, at the end.
        """
        indices: Dict[str, Tuple[int, int, int]] = {}
        scalars: Dict[str, Ratio] = {}

        def index(token: str) -> Tuple[int, int, int]:
            out = indices.get(token)
            if out is None:
                out = indices[token] = _index_token(token)
            return out

        def scalar(token: str) -> Ratio:
            out = scalars.get(token)
            if out is None:
                out = scalars[token] = parse_ratio(token.strip())
            return out

        ratios: Dict[Tuple[int, int], Tuple[Ratio, Ratio]] = {}
        arity = None
        top = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) != 4:
                raise ValueError(
                    f"line {lineno}: expected 'm_j ; m_k ; re ; im'")
            try:
                dj, nj, j = index(parts[0])
                dk, nk, k = index(parts[1])
                re = scalar(parts[2])
                im = scalar(parts[3])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if arity is None:
                arity = nj
            if nj != arity or nk != arity:
                raise ValueError(f"line {lineno}: inconsistent arity")
            top = max(top, dj, dk)
            if degree is not None and (dj > degree or dk > degree):
                continue
            if re[0] or im[0]:
                ratios[(j, k)] = (re, im)
            else:
                ratios.pop((j, k), None)
        if arity is None:
            raise ValueError("empty series file")
        return cls._of(arity, top if degree is None else degree,
                       *_ratio_form(ratios))


def _index_token(token: str) -> Tuple[int, int, int]:
    """(|m|, arity, ordinal) of the multi-index ``token``, ``e_1,...,e_n``;
    a negative exponent is a ValueError."""
    m = tuple(int(t) for t in token.strip().split(","))
    if min(m) < 0:
        raise ValueError(f"negative exponent in {token.strip()!r}")
    return sum(m), len(m), ordinal_of_index(m)


# ---------------------------------------------------------------------------
# Hermitian matrices: the predicate and the rank-one update
# ---------------------------------------------------------------------------

def hermitian_defect(nums: Nums) -> Optional[Tuple[int, int]]:
    """The first key (j, k) with a_jk != conj(a_kj), a missing key being 0,
    or None when the table is Hermitian: ``nums`` holds the numerators of
    a_jk over one common denominator, and no (0, 0) entry."""
    return next(((j, k) for (j, k), (re, im) in nums.items()
                 if nums.get((k, j)) != (re, -im)), None)


# A Hermitian matrix of Gaussian integers as one dict per row of its
# nonzero entries (re, im, scale), a positive int scale: the entry stands
# for (re + i im) / scale over a denominator the caller keeps, and its
# conjugate entry has the same scale.  The exact LDL* and its backward run
# store each entry as a Bareiss minor, its scale the pivot integer D of the
# step that wrote it; the general pullback norm keeps scale 1.
Rows: TypeAlias = "Dict[int, Dict[int, Tuple[int, int, int]]]"


def inexact(b: int, a: int) -> ArithmeticError:
    """The error of a division a / b that must be exact and is not: the
    integer kernels divide with ``divmod`` inline and raise this."""
    return ArithmeticError(f"{b} does not divide {a}")


def hermitian_update(rows: Rows, w: int, x: Mapping[int, Tuple[int, int]],
                     scale: int = 1, prev: int = 1) -> None:
    """rows <- (scale rows + w x x*) / prev over the support of x, in place.

    Every entry (q, r) with q <= r in the sorted keys of x is first read
    at scale ``prev`` (an entry stored at another scale s becomes
    re prev / s), then replaced by (scale a_qr + w x_q conj(x_r)) / prev
    at scale ``scale``, and its conjugate is written at (r, q); k (k + 1)
    / 2 products for k keys, and entries that cancel are deleted.  Entries
    outside the support are not touched: they keep the scale they were
    written at.  Every division must be exact, and an inexact one raises
    ArithmeticError.

    The Bareiss step of the exact LDL* is w = -1, x the pivot column,
    ``scale`` the pivot and ``prev`` the pivot before it; run backwards,
    it is w = 1, x the pivot column with the pivot at its own position,
    ``scale`` the pivot before and ``prev`` the pivot.  The general
    pullback norm is w = d_h and x = f_h over one common denominator, with
    scale = prev = 1.
    """
    xs = [(q, rows.setdefault(q, {}), re, im)
          for q, (re, im) in sorted(x.items())]
    for i, (q, rq, xr, xi) in enumerate(xs):
        ar = w * xr
        ai = w * xi
        for r, rr, br, bi in xs[i:]:
            # (ar + i ai)(br - i bi), real on the diagonal q = r
            if bi:
                re = ar * br + ai * bi
                im = 0 if r == q else ai * br - ar * bi
            else:
                re = ar * br
                im = ai * br
            cur = rq.get(r)
            if cur is not None:
                cr, ci, cs = cur
                if cs != prev:
                    cr, ci = cr * prev, ci * prev
                    qr, mr = divmod(cr, cs)
                    qi, mi = divmod(ci, cs)
                    if mr or mi:
                        raise inexact(cs, cr if mr else ci)
                    cr, ci = qr, qi
                if scale != 1:
                    cr *= scale
                    ci *= scale
                re += cr
                im += ci
            if prev != 1:
                qr, mr = divmod(re, prev)
                qi, mi = divmod(im, prev)
                if mr or mi:
                    raise inexact(prev, re if mr else im)
                re, im = qr, qi
            if re or im:
                rq[r] = (re, im, scale)
                rr[q] = (re, -im, scale)  # the same entry when q = r
            elif cur is not None:
                del rq[r]
                rr.pop(q, None)


# ---------------------------------------------------------------------------
# bucketed products over the integers
# ---------------------------------------------------------------------------

# A term (key, re, im) of a bucket map, keyed by its bidegree
# (|m_j|, |m_k|): the packed ordinal pair key = code_j * shift + code_k of
# a ``GradedOrder`` and the Gaussian-integer numerator of a coefficient
# over a denominator the caller keeps.  ``im`` is 0 for a real
# coefficient, so that real products skip the imaginary arithmetic.
Term: TypeAlias = "Tuple[int, int, int]"
Buckets: TypeAlias = "Dict[Tuple[int, int], List[Term]]"
# an accumulator: packed key -> [re, im]
Acc: TypeAlias = "Dict[int, list]"


def _packed(order: GradedOrder, items: Iterable) -> Iterable:
    """``(key, value)`` of ``((j, k), value)`` items, packed in ``order``;
    items at an ordinal outside ``order`` are dropped."""
    code, shift, size = order.code, order.shift, order.size
    return ((code[j] * shift + code[k], v) for (j, k), v in items
            if j < size and k < size)


def _unpacked(order: GradedOrder, items: Iterable) -> Iterable:
    """``((j, k), value)`` of packed ``(key, value)`` items."""
    rank, shift = order.rank, order.shift
    for key, v in items:
        cj, ck = divmod(key, shift)
        yield (rank[cj], rank[ck]), v


def _buckets(order: GradedOrder, items: Iterable) -> Buckets:
    """Bucket packed ``(key, (re, im))`` items by bidegree, dropping
    zeros."""
    rank, degree, shift = order.rank, order.degree, order.shift
    out: Buckets = {}
    for key, (re, im) in items:
        if not re and not im:
            continue
        cj, ck = divmod(key, shift)
        out.setdefault((degree[rank[cj]], degree[rank[ck]]), []).append(
            (key, re, im))
    return out


def _bucket_items(part: Buckets) -> Iterable:
    """The packed ``(key, (re, im))`` items of a bucket map."""
    return ((key, (re, im)) for terms in part.values()
            for key, re, im in terms)


def _mul_add(d: int, acc: Acc, x: Buckets, y: Buckets, w: int) -> None:
    """acc += w * x * y, truncated at |m_j|, |m_k| <= d.

    Only bucket pairs whose bidegrees add up inside the box are visited,
    so |m_j1| + |m_j2| <= d and |m_k1| + |m_k2| <= d for every product,
    and the key of a product is the sum of the packed keys: no digit of a
    code carries in base d + 1 (``GradedOrder``).
    """
    scaled = w != 1
    for (dj1, dk1), xs in x.items():
        fits = [ys for (dj2, dk2), ys in y.items()
                if dj1 + dj2 <= d and dk1 + dk2 <= d]
        if not fits:
            continue
        for key1, ar, ai in xs:
            if scaled:
                ar = ar * w
                ai = ai * w if ai else 0
            for ys in fits:
                for key2, br, bi in ys:
                    if bi:
                        if ai:
                            re = ar * br - ai * bi
                            im = ar * bi + ai * br
                        else:
                            re = ar * br
                            im = ar * bi
                    else:
                        re = ar * br
                        im = ai * br if ai else 0
                    key = key1 + key2
                    cur = acc.get(key)
                    if cur is None:
                        acc[key] = [re, im]
                    else:
                        cur[0] += re
                        if im:
                            cur[1] += im


# the bucket map of the series 1
_UNIT: Buckets = {(0, 0): [(0, 1, 0)]}


# ---------------------------------------------------------------------------
# exp, log1p and (1 + a)^e by the degree recurrence
# ---------------------------------------------------------------------------

# (F_0, alpha, beta, gamma) of the recurrence of _degree_recurrence
Rule: TypeAlias = "Tuple[int, int, Fraction | int, int]"
EXP_RULE: Rule = (1, 0, 1, 0)
LOG1P_RULE: Rule = (0, 1, 0, -1)


def pow1p_rule(e: Fraction) -> Rule:
    """The rule of (1 + a)^e."""
    return (1, 0, e, -1)


def expm1_rule(b: Fraction) -> Rule:
    """The rule of (exp(b a) - 1)/b, for b != 0."""
    return (0, 1, b, 0)


def _degree_recurrence(order: GradedOrder, a: Dict[int, Buckets], den_a: int,
                       rule: Rule) -> List[Tuple[int, Buckets]]:
    """Slices F_0..F_2d of F = f(A), by total degree, over the integers.

    A slice of total degree t = |m_j| + |m_k| is a bucket map of integer
    numerators in ``order``, of degree d.  ``a`` maps a degree t >= 1 to
    the slice den_a A_t, for den_a a common denominator of A (A_0 must be
    empty).  The result holds the invariant of every slice: the t-th item
    is (den_t, G_t) with F_t = G_t / den_t, den_t > 0 and G_t integer, and
    den_t is the least such denominator (an empty G_t has den_t = 1).

    With (F_0, alpha, beta, gamma) = ``rule``:

        t F_t = alpha t A_t + sum_{s=1..t} (beta s + gamma (t - s)) A_s F_{t-s}

    which is exp (1, 0, 1, 0), log(1 + A) (0, 1, 0, -1), (1 + A)^e
    (1, 0, e, -1) and (exp(bA) - 1)/b (0, 1, b, 0): apply the Euler
    operator t (degree) to F' = A' F, (1 + A) F' = A', (1 + A) F' = e A' F
    and F' = A' exp(bA) = A' (1 + b F) (J.C.P. Miller's recurrence; Knuth,
    TAOCP vol. 2, 4.7; Brent & Kung, J. ACM 1978).  The truncations used
    here keep the monomials of an ideal's complement, on which the Euler
    operator acts degree by degree, so the truncated recurrence is exact.
    It costs about one product A * F.

    In integers, for beta = p / q and L the lcm of den_{t-s} over the
    terms that contribute, the slice q den_a L t F_t is

        alpha q L t den_a A_t
            + sum_s (p s + q gamma (t - s)) (L / den_{t-s}) den_a A_s G_{t-s}

    and closes over the denominator q den_a L t.  The sum runs over the
    degrees s that A has, and a slice no term reaches is empty, closed
    without arithmetic: F_t = 0 unless t is a multiple of the gcd of A's
    degrees (a diagonal jet has only even degrees).
    """
    if a.get(0):
        raise ConstantTermError("composition needs a zero constant term")
    d = order.d
    f0, alpha, beta, gamma = rule
    p, q = beta.numerator, beta.denominator
    degrees = sorted(a)
    step = math.gcd(*degrees) or 1  # F_t = 0 unless step divides t
    f: List[Tuple[int, Buckets]] = [(1, _UNIT if f0 else {})]
    for t in range(1, 2 * d + 1):
        if t % step:
            f.append((1, {}))
            continue
        terms = []
        for s in degrees:
            if s > t:
                break
            w = p * s + q * gamma * (t - s)
            den, part = f[t - s]
            if w and part:
                terms.append((a[s], part, w, den))
        own = alpha and t in a
        if not terms and not own:
            f.append((1, {}))
            continue
        lcm = math.lcm(*(den for _, _, _, den in terms))
        acc: Acc = {}
        if own:
            _mul_add(d, acc, a[t], _UNIT, alpha * q * lcm * t)
        for x, part, w, den in terms:
            _mul_add(d, acc, x, part, w * (lcm // den))
        den = q * den_a * lcm * t
        g = math.gcd(den, *itertools.chain.from_iterable(acc.values()))
        f.append((den // g, _buckets(order, (
            (key, (re // g, im // g)) for key, (re, im) in acc.items()))))
    return f


def _compose(a: BiSeries, rule: Rule) -> BiSeries:
    """f(a) for the recurrence ``rule``, truncated at a's degree.

    Slice degree is |m_j| + |m_k| <= 2d; a slice is a bucket map.
    """
    n, d = a.n, a.d
    order = graded_order(n, d)
    slices: Dict[int, Buckets] = {}
    for key, terms in _buckets(order, _packed(order, a.nums.items())).items():
        slices.setdefault(sum(key), {})[key] = terms
    f = _degree_recurrence(order, slices, a.den, rule)
    # each slice is in lowest terms, so over the lcm of the slice
    # denominators the whole is too; a bucket map holds no zero
    den = math.lcm(*(den_t for den_t, _ in f))
    nums: Nums = {}
    for den_t, part in f:
        w = den // den_t
        items = _unpacked(order, _bucket_items(part))
        nums.update(items if w == 1 else
                    ((jk, (re * w, im * w)) for jk, (re, im) in items))
    return BiSeries._of(n, d, den, nums)


def exp_series(a: BiSeries) -> BiSeries:
    """exp(a) truncated at a's degree (constant term 1)."""
    return _compose(a, EXP_RULE)


def log1p_series(a: BiSeries) -> BiSeries:
    """log(1+a) truncated at a's degree (zero constant term)."""
    return _compose(a, LOG1P_RULE)


def pow1p_series(a: BiSeries, e: RationalLike) -> BiSeries:
    """(1+a)^e for a rational exponent, truncated at a's degree."""
    return _compose(a, pow1p_rule(as_fraction(e)))


def det_series(matrix: Sequence[Sequence[BiSeries]]) -> BiSeries:
    """Exact determinant of a square matrix of BiSeries, truncated at the
    lowest degree of its entries.

    Cofactor expansion along the rows, bottom up: the minor on rows r.. and
    sorted columns S is sum_i (-1)^i a_{r,S_i} minor(r + 1, S - {S_i}), and
    each S is expanded once: size * 2^(size-1) products, not size! terms.
    Row r is put over the lcm D_r of its entries' denominators, so the
    expansion runs in ints and the determinant is over the product of the
    D_r, reduced once at the end.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    if size == 0:
        raise ValueError("empty matrix")
    n = matrix[0][0].n
    if any(e.n != n for row in matrix for e in row):
        raise ArityMismatchError("matrix entries differ in arity")
    d = min(e.d for row in matrix for e in row)
    order = graded_order(n, d)
    rows: List[List[Buckets]] = []
    den = 1
    for row in matrix:
        row_den = math.lcm(*(e.den for e in row))
        den *= row_den
        rows.append([_buckets(order, _packed(order, (
            e.nums.items() if e.den == row_den else
            ((jk, (re * (row_den // e.den), im * (row_den // e.den)))
             for jk, (re, im) in e.nums.items())))) for e in row])
    minors: Dict[Tuple[int, ...], Buckets] = {(): _UNIT}  # by column set
    for r in range(size - 1, -1, -1):
        upper: Dict[Tuple[int, ...], Buckets] = {}
        for cols in itertools.combinations(range(size), size - r):
            acc: Acc = {}
            for i, c in enumerate(cols):
                rest = minors[cols[:i] + cols[i + 1:]]
                _mul_add(d, acc, rows[r][c], rest, (-1) ** i)
            upper[cols] = _buckets(order, acc.items())
        minors = upper
    (det,) = minors.values()
    return BiSeries._reduced(n, d, den, dict(_unpacked(
        order, _bucket_items(det))))  # a bucket map holds no zero


def solve_graded_fixed_point(step: Callable[[T], T], seed: T,
                             max_steps: int,
                             at_degree: Optional[Callable[[T, int], T]] = None,
                             degree: int = 0) -> T:
    """Iterate ``x <- step(x)`` until it stabilizes (graded contraction).

    The caller asserts each application determines at least one more degree,
    so stabilization must occur within ``max_steps`` iterations; otherwise a
    :class:`FixedPointDivergenceError` is raised.

    With ``at_degree`` (x cut or zero-padded to truncation degree k, at
    which ``step`` then computes), iterations k = 0, ..., degree - 1 run at
    truncation degree k: the k-th fixes degree k and reads nothing above
    it, so the iterate reaches the full ``degree`` correct through
    degree - 1, one full step fixes the last degree and one more confirms.
    The result is still a fixed point of the full-degree step.
    """
    current = seed
    if at_degree is not None:
        for k in range(degree):
            current = step(at_degree(current, k))
        current = at_degree(current, degree)
    for _ in range(max_steps):
        nxt = step(current)
        if nxt == current:
            return current
        current = nxt
    if step(current) == current:
        return current
    raise FixedPointDivergenceError(
        f"no fixed point within {max_steps} iterations")
