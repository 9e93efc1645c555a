"""Catalog of concrete potentials and diastases as truncated series.

Everything here returns exact ``BiSeries`` jets: space forms, Hartogs-type
domains over a radial profile F, the classical bounded symmetric domains
via determinant kernels, Cartan-Hartogs and Fock-Bargmann-Hartogs domains,
the cigar metric, the implicit Taub-NUT potential and the tubular ODE
metric.  ``MODELS`` is the one registry of them; ``build_model`` builds an
entry by name.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, \
    Sequence, Tuple

from .diastasis import normalize_to_diastasis
from .radial import RSeries
from .scalars import CScalar, RationalLike, as_fraction
from .series import BiSeries, MultiIndex, det_series, exp_series, \
    log1p_series, ordinal_of_index, solve_graded_fixed_point


def _unit(n: int, which: int, power: int = 1) -> MultiIndex:
    """The exponents of z_which^power."""
    return tuple(power if i == which else 0 for i in range(n))


def _polynomial(n: int, d: int,
                terms: Sequence[Tuple[MultiIndex, MultiIndex, RationalLike]]
                ) -> BiSeries:
    """sum c z^m_hol conj(z)^m_anti over distinct monomials, dropping those
    outside the truncation box (so a degree-1 jet of a quadratic builds)."""
    return BiSeries(n, d, {
        (ordinal_of_index(mh), ordinal_of_index(mk)): CScalar.of(c)
        for mh, mk, c in terms if sum(mh) <= d and sum(mk) <= d})


def _rho(n: int, d: int, first: int = 0, last: int | None = None) -> BiSeries:
    """sum_{j=first}^{last-1} |z_j|^2."""
    units = [_unit(n, j) for j in range(first, n if last is None else last)]
    return _polynomial(n, d, [(e, e, 1) for e in units])


# ---------------------------------------------------------------------------
# space forms
# ---------------------------------------------------------------------------

def space_form_diastasis(n: int, b: RationalLike, degree: int) -> BiSeries:
    """Flat: sum |z_j|^2; curved: (1/b) log(1 + b sum |z_j|^2)."""
    b = as_fraction(b)
    rho = _rho(n, degree)
    if not b:
        return rho
    return log1p_series(rho.scale(b)).scale(CScalar(1 / b))


# ---------------------------------------------------------------------------
# Hartogs-type domains over a radial profile F
# ---------------------------------------------------------------------------

def hartogs_diastasis(F: RSeries, n: int, degree: int) -> BiSeries:
    """-log(F(|z_0|^2) - sum_{j>=1}|z_j|^2), centered as a diastasis.

    F is a univariate series with F(0) > 0; the additive constant
    -log F(0) and any pure rows are removed by normalization.
    """
    if F.nvars != 1:
        raise ValueError("F must be univariate")
    f0 = F.constant_term()
    if f0 <= 0:
        raise ValueError("F(0) must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    one = BiSeries.one(n, degree)
    # F(|z_0|^2) = sum_k F_k |z_0|^{2k} is diagonal
    diagonal = (ordinal_of_index((k,) + (0,) * (n - 1))
                for k in range(degree + 1))
    f_of_x0 = BiSeries(n, degree, {(j, j): F.ucoeff(k)
                                   for k, j in enumerate(diagonal)})
    rho = _rho(n, degree, first=1)
    inner = (f_of_x0 - rho).scale(CScalar(1 / f0)) - one
    return normalize_to_diastasis(-log1p_series(inner))


# ---------------------------------------------------------------------------
# classical bounded symmetric domains
# ---------------------------------------------------------------------------

def _one_minus_zzstar(z: Sequence[Sequence[Optional[Tuple[int, int]]]],
                      n_vars: int, degree: int) -> List[List[BiSeries]]:
    """The matrix I - Z Z*, one coefficient dict per entry.  An entry of Z
    is (variable, sign) for sign * z_variable, or None for 0."""
    unit = [ordinal_of_index(_unit(n_vars, v)) for v in range(n_vars)]
    mat: List[List[BiSeries]] = []
    for i, zi in enumerate(z):
        row: List[BiSeries] = []
        for k, zk in enumerate(z):
            coeffs = {(0, 0): CScalar(1)} if i == k else {}
            for a, b in zip(zi, zk):
                if a is not None and b is not None:
                    key = (unit[a[0]], unit[b[0]])
                    coeffs[key] = coeffs.get(key, CScalar(0)) - a[1] * b[1]
            row.append(BiSeries(n_vars, degree, coeffs))
        mat.append(row)
    return mat


def cartan_bergman_diastasis(kind: str, sizes: Sequence[int], degree: int
                             ) -> Tuple[BiSeries, int]:
    """Diastasis -genus * log(generic norm) of a classical domain.

    kind: "omega1" (sizes m, n), "omega2"/"omega3"/"omega4" (size n).
    Returns (series, genus) where genus is the determinant-kernel exponent:
    omega1: n+m, omega2: n+1, omega3: n-1, omega4: n.  Types I-III are
    -genus * log det(I - Z Z*) over the matrix Z of the domain's variables.
    """
    kind = kind.lower()
    if kind == "omega1":
        m, n = sizes
        if m < 1 or n < 1:
            raise ValueError("omega1 needs positive sizes")
        n_vars = m * n
        genus = n + m
        z = [[(i * n + j, 1) for j in range(n)] for i in range(m)]
    elif kind in ("omega2", "omega3"):
        (n,) = tuple(sizes)
        skew = kind == "omega3"  # antisymmetric Z, else symmetric
        if n < 1 + skew:
            raise ValueError("omega3 needs size >= 2" if skew
                             else "omega2 needs a positive size")
        pairs = [(i, j) for i in range(n) for j in range(i + skew, n)]
        var = {p: v for v, p in enumerate(pairs)}
        n_vars = len(pairs)
        genus = n - 1 if skew else n + 1
        z = [[None if skew and i == j
              else (var[min(i, j), max(i, j)], -1 if skew and i > j else 1)
              for j in range(n)] for i in range(n)]
    elif kind == "omega4":
        (n,) = tuple(sizes)
        if n < 1:
            raise ValueError("omega4 needs a positive size")
        if n == 2:
            raise ValueError("omega4 with n=2 is not irreducible; rejected")
        zero = (0,) * n
        squares = [(_unit(n, j, 2), zero, 1) for j in range(n)]
        sigma = _polynomial(n, degree, squares)
        sigma_bar = _polynomial(n, degree, [(k, j, c) for j, k, c in squares])
        inner = sigma * sigma_bar - _rho(n, degree).scale(2)
        series = (-log1p_series(inner)).scale(n)
        return normalize_to_diastasis(series), n
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    det = det_series(_one_minus_zzstar(z, n_vars, degree))
    series = (-log1p_series(det - BiSeries.one(det.n, det.d))).scale(genus)
    return normalize_to_diastasis(series), genus


def minus_log_norm(kind: str, sizes: Sequence[int], degree: int) -> BiSeries:
    """-log N for a classical domain (the diastasis divided by its genus)."""
    series, genus = cartan_bergman_diastasis(kind, sizes, degree)
    return series.scale(Fraction(1, genus))


# ---------------------------------------------------------------------------
# Cartan-Hartogs and Fock-Bargmann-Hartogs
# ---------------------------------------------------------------------------

def cartan_hartogs_diastasis(minus_log_n: BiSeries, mu: RationalLike,
                             degree: int) -> BiSeries:
    """-log(N^mu - |w|^2) over a base with generic norm N = exp(-base).

    ``minus_log_n`` is -log N in the base variables; the fiber variable w
    is appended as the last coordinate.
    """
    mu = as_fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    base = minus_log_n
    if base.d < degree:
        raise ValueError("base series truncated below the requested degree")
    n = base.n + 1
    lifted: Dict[Tuple[int, int], CScalar] = {}
    for (j, k), c in base.coeffs.items():
        mj = _lift_index(base.n, j)
        mk = _lift_index(base.n, k)
        if sum(mj) > degree or sum(mk) > degree:
            continue
        lifted[(ordinal_of_index(mj), ordinal_of_index(mk))] = c
    base_l = BiSeries(n, degree, lifted)
    n_mu = exp_series(base_l.scale(CScalar(-mu)))
    w2 = _rho(n, degree, n - 1)
    inner = n_mu - BiSeries.one(n, degree) - w2
    return normalize_to_diastasis(-log1p_series(inner))


def _lift_index(n: int, ordinal: int) -> MultiIndex:
    from .series import index_of_ordinal
    return index_of_ordinal(n, ordinal) + (0,)


def fbh_diastasis(n: int, m: int, mu: RationalLike, nu: RationalLike,
                  degree: int) -> BiSeries:
    """nu mu ||z||^2 - log(e^{-mu ||z||^2} - ||w||^2), z in C^n, w in C^m."""
    if n < 1 or m < 1:
        raise ValueError("fbh needs n >= 1 and m >= 1")
    mu = as_fraction(mu)
    nu = as_fraction(nu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    if nu <= -1:
        raise ValueError("nu must exceed -1")
    total = n + m
    z2 = _rho(total, degree, 0, n)
    w2 = _rho(total, degree, n, total)
    inner = exp_series(z2.scale(CScalar(-mu))) - BiSeries.one(total, degree) \
        - w2
    phi = z2.scale(CScalar(nu * mu)) - log1p_series(inner)
    return normalize_to_diastasis(phi)


# ---------------------------------------------------------------------------
# cigar, Taub-NUT, tubular ODE metric
# ---------------------------------------------------------------------------

def cigar_diastasis(degree: int) -> BiSeries:
    """n=1 diagonal diastasis with entries (-1)^{j+1}/j^2 on |z|^{2j}."""
    coeffs = {(j, j): CScalar(Fraction((-1) ** (j + 1), j * j))
              for j in range(1, degree + 1)}
    return BiSeries(1, degree, coeffs)


def _diag_to_biseries(series: RSeries, degree: int) -> BiSeries:
    """Map a radial series in (x_1..x_n) = (|z_1|^2..) to a diagonal jet."""
    n = series.nvars
    coeffs: Dict[Tuple[int, int], CScalar] = {}
    for e, c in series.coeffs.items():
        if sum(e) == 0 or sum(e) > degree:
            continue
        j = ordinal_of_index(tuple(e))
        coeffs[(j, j)] = CScalar(c)
    return BiSeries(n, degree, coeffs)


def taubnut_potential(m: RationalLike, mode: str, degree: int) -> BiSeries:
    """Implicit Taub-NUT potential jet as a diagonal BiSeries.

    slice mode (second coordinate frozen at 0): invert x = t e^{2mt} for
    t(x) by a graded fixed point and return t + m t^2 in x = |z|^2.
    full mode: invert the coupled pair t = x1 e^{-2m(t-s)},
    s = x2 e^{-2m(s-t)} and return t + s + m(t^2 + s^2).
    """
    m = as_fraction(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if mode == "slice":
        x = RSeries.var(1, degree)

        def step(t: RSeries) -> RSeries:
            return x * t.scale(-2 * m).exp()

        t = solve_graded_fixed_point(step, RSeries.zero(1, degree), degree + 2)
        phi = t + (t * t).scale(m)
        return _diag_to_biseries(phi, degree)
    if mode == "full":
        x1 = RSeries.var(2, degree, 0)
        x2 = RSeries.var(2, degree, 1)

        def step2(ts: Tuple[RSeries, RSeries]) -> Tuple[RSeries, RSeries]:
            t, s = ts
            diff = t - s
            return (x1 * diff.scale(-2 * m).exp(),
                    x2 * diff.scale(2 * m).exp())

        seed = (RSeries.zero(2, degree), RSeries.zero(2, degree))
        t, s = solve_graded_fixed_point(step2, seed, degree + 2)
        phi = t + s + (t * t + s * s).scale(m)
        return _diag_to_biseries(phi, degree)
    raise ValueError(f"unknown mode {mode!r}; use 'slice' or 'full'")


def calabi_tube(n: int, degree: int) -> Tuple[RSeries, BiSeries]:
    """The tubular ODE metric: solve (y'/r)^{n-1} y'' = e^y, y(0)=0,
    y''(0)=1 as an even series in r, then assemble the diastasis jet.

    y is solved from the equivalent integral fixed point
        y'(r) = r * (n * int_0^1 s^{n-1} e^{y(rs)} ds)^{1/n},
    which determines one more degree per iteration.  The returned y is
    truncated at r-degree 2*degree (enough for the bidegree-(degree,degree)
    jet of the diastasis); d0 is the normalization of
    sum_k y^{(2k)}(0)/(2k)! * (sum_j (z_j + conj z_j)^2)^k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rdeg = 2 * degree

    def step(y: RSeries) -> RSeries:
        e = y.exp()
        averaged = RSeries(1, rdeg, {
            (j,): c * Fraction(n, j + n) for (j,), c in e.coeffs.items()})
        root = averaged.pow_normalized(Fraction(1, n))
        return root.shift_up().integrate()

    y = solve_graded_fixed_point(step, RSeries.zero(1, rdeg), rdeg + 2)

    # (sum_j (z_j + conj z_j)^2) as a BiSeries, then sum_k c_{2k} P^k
    zero = (0,) * n
    p2 = _polynomial(n, degree, [
        term for j in range(n) for term in ((_unit(n, j, 2), zero, 1),
                                            (_unit(n, j), _unit(n, j), 2),
                                            (zero, _unit(n, j, 2), 1))])
    one = BiSeries.one(n, degree)
    acc = BiSeries.zero(n, degree)
    for k in range(degree, -1, -1):  # Horner's rule
        acc = acc * p2 + one.scale(y.ucoeff(2 * k))
    return y, normalize_to_diastasis(acc)


def calabi_tube_residual(n: int, y: RSeries) -> RSeries:
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
# fixed exercise potentials and profile functions
# ---------------------------------------------------------------------------

def phi_b_potential(degree: int) -> BiSeries:
    """The circular-domain exercise potential
    -3 log(1 - |z1|^2 - 2|z2|^2 - |z3|^2 + |z1|^2|z3|^2 + |z2|^4
           - z1 z3 conj(z2)^2 - z2^2 conj(z1) conj(z3))."""
    inner = _polynomial(3, degree, [
        ((1, 0, 0), (1, 0, 0), -1),
        ((0, 1, 0), (0, 1, 0), -2),
        ((0, 0, 1), (0, 0, 1), -1),
        ((1, 0, 1), (1, 0, 1), 1),
        ((0, 2, 0), (0, 2, 0), 1),
        ((1, 0, 1), (0, 2, 0), -1),
        ((0, 2, 0), (1, 0, 1), -1),
    ])
    return normalize_to_diastasis((-log1p_series(inner)).scale(3))


def profile_one_minus_x_pow(p: RationalLike, degree: int) -> RSeries:
    """F(x) = (1 - x)^p."""
    p = as_fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    x = RSeries.var(1, degree)
    return (-x).pow1p(p)


def profile_inv_one_plus_x_pow(p: RationalLike, degree: int) -> RSeries:
    """F(x) = (x + 1)^(-p)."""
    p = as_fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    x = RSeries.var(1, degree)
    return x.pow1p(-p)


def profile_alpha(alpha: RationalLike, degree: int) -> RSeries:
    """F(x) = alpha/(x + alpha) = (1 + x/alpha)^(-1)."""
    alpha = as_fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = RSeries.var(1, degree)
    return x.scale(Fraction(1) / alpha).pow1p(-1)


def profile_inv_sqrt(degree: int) -> RSeries:
    """F(x) = 1/sqrt(x + 1)."""
    return RSeries.var(1, degree).pow1p(Fraction(-1, 2))


def profile_springer(degree: int) -> RSeries:
    """F(x) = e^{-x}."""
    return (-RSeries.var(1, degree)).exp()


def profile_rhp_cubic(degree: int) -> RSeries:
    """F(x) = (x - 1)(x - 11/4)(x + 3/4), positive at 0."""
    x = RSeries.var(1, degree)
    one = RSeries.constant(1, degree, 1)
    f = (x - one) * (x - one.scale(Fraction(11, 4))) \
        * (x + one.scale(Fraction(3, 4)))
    return f


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class ModelEntry(NamedTuple):
    """A catalog model.  A Hartogs-family entry also names its radial
    profile F and F's parameters; other entries hold None and ()."""

    build: Callable[..., BiSeries]
    schema: Mapping[str, str]
    doc: str
    profile: Optional[Callable[..., RSeries]]
    profile_params: Tuple[str, ...]


def _hartogs_parameters(entry: ModelEntry,
                        parameters: Mapping[str, RationalLike], degree: int
                        ) -> Tuple[RSeries, int]:
    """(F, n) of a Hartogs-family model: the family's one parameter rule.
    n defaults to 2; each profile parameter defaults to 1."""
    n = int(parameters.get("n", 2))
    if n < 1:
        raise ValueError("n must be >= 1")
    args = [as_fraction(parameters.get(p, 1)) for p in entry.profile_params]
    return entry.profile(*args, degree), n


def _hartogs_entry(profile: Callable[..., RSeries], params: Tuple[str, ...],
                   doc: str) -> ModelEntry:
    """The Hartogs domain over F = profile(*params, degree)."""
    def build(degree: int, **parameters: RationalLike) -> BiSeries:
        F, n = _hartogs_parameters(entry, parameters, degree)
        return hartogs_diastasis(F, n, degree)

    schema = {"n": "arity"}
    schema.update((p, "rational > 0") for p in params)
    entry = ModelEntry(build, schema, doc, profile, params)
    return entry


# every model also takes "scale", which build_model applies
MODELS: Dict[str, ModelEntry] = {
    "flat": ModelEntry(
        lambda degree, n=1: space_form_diastasis(int(n), 0, degree),
        {"n": "arity"},
        "flat diastasis sum |z_j|^2", None, ()),
    "cp": ModelEntry(
        lambda degree, n=1: space_form_diastasis(int(n), 1, degree),
        {"n": "arity"},
        "projective (Fubini-Study) diastasis log(1 + sum |z_j|^2)", None, ()),
    "ch": ModelEntry(
        lambda degree, n=1: space_form_diastasis(int(n), -1, degree),
        {"n": "arity"},
        "hyperbolic diastasis -log(1 - sum |z_j|^2)", None, ()),
    "spaceform": ModelEntry(
        lambda degree, n=1, b=0: space_form_diastasis(int(n), b, degree),
        {"n": "arity", "b": "curvature/4 rational"},
        "space form of holomorphic sectional curvature 4b", None, ()),
    "springer": _hartogs_entry(
        profile_springer, (), "Hartogs domain with profile F = e^{-x}"),
    "hartogs_one_minus_xp": _hartogs_entry(
        profile_one_minus_x_pow, ("p",), "Hartogs domain with F = (1-x)^p"),
    "hartogs_inv_one_plus_xp": _hartogs_entry(
        profile_inv_one_plus_x_pow, ("p",),
        "Hartogs domain with F = (x+1)^{-p}"),
    "hartogs_alpha": _hartogs_entry(
        profile_alpha, ("alpha",), "Hartogs domain with F = alpha/(x+alpha)"),
    "hartogs_inv_sqrt": _hartogs_entry(
        profile_inv_sqrt, (), "Hartogs domain with F = 1/sqrt(x+1)"),
    "rhp_cubic": _hartogs_entry(
        profile_rhp_cubic, (),
        "Hartogs domain with the cubic profile (x-1)(x-11/4)(x+3/4)"),
    "phiB": ModelEntry(
        phi_b_potential, {},
        "circular-domain exercise potential (3 variables)", None, ()),
    "cigar": ModelEntry(
        cigar_diastasis, {},
        "cigar soliton diastasis, diagonal (-1)^{j+1}/j^2", None, ()),
    "taubnut_slice": ModelEntry(
        lambda degree, m=0: taubnut_potential(m, "slice", degree),
        {"m": "rational >= 0"},
        "Taub-NUT potential restricted to the first coordinate", None, ()),
    "taubnut_full": ModelEntry(
        lambda degree, m=0: taubnut_potential(m, "full", degree),
        {"m": "rational >= 0"},
        "full two-variable Taub-NUT potential", None, ()),
    "calabi_tube": ModelEntry(
        lambda degree, n=2: calabi_tube(int(n), degree)[1],
        {"n": "arity"},
        "tubular ODE metric diastasis", None, ()),
    "omega1": ModelEntry(
        lambda degree, m=1, n=1: cartan_bergman_diastasis(
            "omega1", (int(m), int(n)), degree)[0],
        {"m": "rows", "n": "cols"},
        "type-I domain Bergman diastasis (matrices m x n)", None, ()),
    "omega2": ModelEntry(
        lambda degree, n=2: cartan_bergman_diastasis(
            "omega2", (int(n),), degree)[0],
        {"n": "size"},
        "type-II (symmetric matrices) Bergman diastasis", None, ()),
    "omega3": ModelEntry(
        lambda degree, n=2: cartan_bergman_diastasis(
            "omega3", (int(n),), degree)[0],
        {"n": "size"},
        "type-III (antisymmetric matrices) Bergman diastasis", None, ()),
    "omega4": ModelEntry(
        lambda degree, n=3: cartan_bergman_diastasis(
            "omega4", (int(n),), degree)[0],
        {"n": "size != 2"},
        "type-IV (Lie ball) Bergman diastasis", None, ()),
    "cartan_hartogs": ModelEntry(
        lambda degree, base="omega1", m=1, n=1, mu=1:
            cartan_hartogs_diastasis(
                minus_log_norm(str(base),
                               (int(m), int(n)) if str(base) == "omega1"
                               else (int(n),), degree),
                mu, degree),
        {"base": "omega1..omega4", "m": "rows (omega1)", "n": "size",
         "mu": "rational > 0"},
        "Cartan-Hartogs diastasis -log(N^mu - |w|^2)", None, ()),
    "fbh": ModelEntry(
        lambda degree, n=1, m=1, mu=1, nu=0: fbh_diastasis(
            int(n), int(m), mu, nu, degree),
        {"n": "z-arity", "m": "w-arity", "mu": "rational > 0",
         "nu": "rational > -1"},
        "Fock-Bargmann-Hartogs diastasis", None, ()),
}


def _parameters(entry: ModelEntry, parameters: Mapping[str, RationalLike]
                ) -> Tuple[Fraction, Dict[str, RationalLike]]:
    """(scale, the other parameters) of a model.

    Every name must be in the entry's schema or be ``scale``, which
    defaults to 1 and must be > 0.
    """
    accepted = sorted(set(entry.schema) | {"scale"})
    unknown = sorted(set(parameters) - set(accepted))
    if unknown:
        raise ValueError(f"unknown parameter{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))}; "
                         f"accepted: {', '.join(accepted)}")
    rest = dict(parameters)
    scale = as_fraction(rest.pop("scale", 1))
    if scale <= 0:
        raise ValueError(f"scale must be a positive rational, got {scale}")
    return scale, rest


def build_model(name: str, parameters: Mapping[str, RationalLike],
                degree: int) -> BiSeries:
    """Construct a catalog model by name with validated parameters."""
    if name not in MODELS:
        raise KeyError(f"unknown model {name!r}; see the 'models' listing")
    entry = MODELS[name]
    scale, rest = _parameters(entry, parameters)
    return entry.build(degree, **rest).scale(CScalar(scale))


def hartogs_profile(name: str, parameters: Mapping[str, RationalLike],
                    degree: int) -> RSeries:
    """The univariate profile F behind a Hartogs-family model.

    Reads and checks every parameter the model's build reads.
    """
    entry = MODELS.get(name)
    if entry is None or entry.profile is None:
        raise KeyError(f"model {name!r} has no radial profile")
    return _hartogs_parameters(entry, _parameters(entry, parameters)[1],
                               degree)[0]
