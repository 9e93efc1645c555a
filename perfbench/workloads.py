"""The benchmark's workloads: CLI requests and the answer each must give.

A row is one ``kahlerimm`` CLI request.  Its expected exit code and verdict
come from theory or from how its input was built, never from a run of the
library:

* ``cp`` with scale k: induced iff k is a positive integer (Calabi), then of
  rank C(n+k, k) - 1;
* ``omega*`` Bergman metrics scaled by c: induced iff c * genus lies in the
  Wallach set (Faraut-Koranyi tables), the same rule the ``wallach`` rows
  must reproduce;
* ``einstein`` on cp with curvature b: lambda = 2 b (n + 1);
* ``cigar``, ``bell`` and the Hartogs scans: exact recurrences below;
* seeded jets: rank and sign fixed by ``jetgen``.

Every witness and every immersion is fed back through ``check-certificate``
and must come back ``valid: true``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import jetgen

# exit code and parsed stdout -> None when correct, else the reason
Expect = Callable[[int, dict], Optional[str]]

KINDS = ("analyze", "emit", "check", "closed_form")


@dataclass(frozen=True)
class Row:
    """One CLI request; stdout is saved as ``<work dir>/<name>.json``.

    An argument ``@file`` names a file in the work directory: a generated
    input, or the saved stdout of an earlier row.
    """

    name: str
    kind: str
    argv: Tuple[str, ...]
    expect: Expect


def gate(row: Row, code: int, stdout: str, stderr: str) -> Optional[str]:
    """Why the request failed, or None when its answer is right."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code == 2:
        return f"input error: {stderr.strip()[-200:]}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    return row.expect(code, doc)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def fields(code: int, **want) -> Expect:
    """Exit code ``code`` and ``doc[key] == value``; Fractions compare by value."""
    def check(got_code: int, doc: dict) -> Optional[str]:
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        for key, value in want.items():
            got = doc.get(key)
            if isinstance(value, Fraction):
                try:
                    same = got is not None and Fraction(str(got)) == value
                except (ValueError, ZeroDivisionError):
                    same = False
            else:
                same = got == value
            if not same:
                return f"{key} = {got!r}, expected {value!r}"
        return None
    return check


def resolvable(rank: Optional[int] = None) -> Expect:
    want = {"verdict": "resolvable-up-to"}
    if rank is not None:
        want["rank"] = rank
    return fields(0, **want)


def not_resolvable(**witness) -> Expect:
    base = fields(1, verdict="certified-not-resolvable")

    def check(code: int, doc: dict) -> Optional[str]:
        reason = base(code, doc)
        if reason is None and witness:
            reason = fields(1, **witness)(code, doc.get("witness") or {})
        return reason
    return check


def immersion(components: int) -> Expect:
    base = fields(0, kind="immersion", verified=True)

    def check(code: int, doc: dict) -> Optional[str]:
        reason = base(code, doc)
        if reason is None and len(doc.get("components", ())) != components:
            reason = (f"{len(doc.get('components', ()))} components, "
                      f"expected {components}")
        return reason
    return check


VALID = fields(0, kind="check", valid=True)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def calabi_rank(n: int, k: int) -> int:
    """Rank of k * Fubini-Study on CP^n: C(n+k, k) - 1."""
    return math.comb(n + k, k) - 1


def wallach_decision(kind: str, sizes: Sequence[int], c: Fraction) -> bool:
    """Is c * (Bergman metric) projectively induced: c * genus in W minus 0.

    W = {k a / 2 : 0 <= k <= r - 1} u ((r - 1) a / 2, oo).  The genus is the
    exponent of the determinant kernel, as in the model catalog.
    """
    if kind == "omega1":
        m, n = sizes
        r, a, genus = min(m, n), Fraction(2), m + n
    elif kind == "omega3":
        (n,) = sizes
        r, a, genus = n // 2, Fraction(4), n - 1
    elif kind == "omega4":
        (n,) = sizes
        r, a, genus = 2, Fraction(n - 2), n
    else:
        raise ValueError(kind)
    eta = c * genus
    if eta <= 0:
        return False
    if eta > (r - 1) * a / 2:
        return True
    q = eta / (a / 2)
    return q.denominator == 1 and q.numerator <= r - 1


def complete_bell(xs: Sequence[Fraction]) -> Fraction:
    """Y_n(x_1..x_n) by Y_{m+1} = sum_k C(m, k) x_{k+1} Y_{m-k}, Y_0 = 1."""
    ys = [Fraction(1)]
    for m in range(len(xs)):
        ys.append(sum((math.comb(m, k) * xs[k] * ys[m - k]
                       for k in range(m + 1)), Fraction(0)))
    return ys[-1]


def cigar_first_negative(c: Fraction, nmax: int) -> Tuple[int, Fraction]:
    """First negative x^n coefficient of exp(c D) - 1, D = sum (-1)^{j+1} x^j / j^2.

    Uses n E_n = sum_k k a_k E_{n-k}, the recurrence of an exponential.
    """
    a = [Fraction(0)] + [c * (-1) ** (j + 1) / (j * j) for j in range(1, nmax + 1)]
    e = [Fraction(1)]
    for n in range(1, nmax + 1):
        e.append(sum((k * a[k] * e[n - k] for k in range(1, n + 1)),
                     Fraction(0)) / n)
        if e[n] < 0:
            return n, e[n]
    raise ValueError("no negative coefficient up to nmax")


def binomial_scan(exponent: Callable[[int], Fraction], jmax: int, kmax: int
                  ) -> Optional[Tuple[int, int, Fraction]]:
    """First negative x^j coefficient of (1 + x)^{exponent(k)}, k outer."""
    for k in range(kmax + 1):
        e, coeff = exponent(k), Fraction(1)
        for j in range(1, jmax + 1):
            coeff = coeff * (e - j + 1) / j
            if coeff < 0:
                return j, k, coeff
    return None


# ---------------------------------------------------------------------------
# row builders
# ---------------------------------------------------------------------------

def _check(row: Row) -> Row:
    return Row(f"{row.name}.check", "check",
               ("check-certificate", f"@{row.name}.json"), VALID)


def analyze(name: str, argv: Sequence[str], expect: Expect, *,
            certificate: bool) -> List[Row]:
    row = Row(name, "analyze", ("analyze",) + tuple(argv), expect)
    return [row, _check(row)] if certificate else [row]


def emit(name: str, argv: Sequence[str], components: int) -> List[Row]:
    row = Row(name, "emit", ("emit-immersion",) + tuple(argv),
              immersion(components))
    return [row, _check(row)]


def closed_form(name: str, argv: Sequence[str], expect: Expect) -> List[Row]:
    return [Row(name, "closed_form", tuple(argv), expect)]


def bergman(name: str, kind: str, sizes: Sequence[int], scale: str,
            degree: int) -> List[Row]:
    """Matrix criterion on a scaled Bergman metric against b = 1."""
    size_args = (["--param", f"m={sizes[0]}", "--param", f"n={sizes[1]}"]
                 if kind == "omega1" else ["--n", str(sizes[0])])
    argv = ["--model", kind, *size_args, "--scale", scale, "--b", "1",
            "--degree", str(degree)]
    if wallach_decision(kind, sizes, Fraction(scale)):
        return analyze(name, argv, resolvable(), certificate=False)
    return analyze(name, argv, not_resolvable(), certificate=True)


def wallach(name: str, kind: str, sizes: Sequence[int], c: str) -> List[Row]:
    decision = wallach_decision(kind, sizes, Fraction(c))
    return closed_form(
        name, ["wallach", "--domain", kind,
               "--sizes", ",".join(map(str, sizes)), "--c", c],
        fields(0 if decision else 1, decision=decision))


def cigar(name: str, c: str, nmax: int) -> List[Row]:
    n, coeff = cigar_first_negative(Fraction(c), nmax)
    return closed_form(name, ["cigar", "--c", c, "--nmax", str(nmax)],
                       fields(1, first_negative_n=n, coefficient=coeff))


def bell(name: str, n: int) -> List[Row]:
    xs = [Fraction((-1) ** j, j) for j in range(1, n + 1)]
    return closed_form(
        name, ["bell", "--n", str(n), "--x=" + ",".join(map(str, xs))],
        fields(0, value=complete_bell(xs)))


def einstein_cp(name: str, n: int, degree: int) -> List[Row]:
    return closed_form(
        name, ["einstein", "--model", "cp", "--n", str(n), "--b", "1",
               "--degree", str(degree)],
        fields(0, **{"lambda": Fraction(2 * (n + 1))}))


def hartogs_inv_sqrt(name: str, degree: int, kmax: int) -> List[Row]:
    """F = (1 + x)^(-1/2) at c = 1: scan (1 + x)^((1 + k)/2)."""
    j, k, coeff = binomial_scan(lambda k: Fraction(1 + k, 2), degree, kmax)
    return analyze(
        name, ["--model", "hartogs_inv_sqrt", "--c", "1", "--degree",
               str(degree), "--jmax", str(degree), "--kmax", str(kmax)],
        not_resolvable(type="hartogs", j=j, k=k, coefficient=coeff),
        certificate=True)


# Every workload ends with these small requests, so that every command kind
# and every traced layer has a non-zero time on every workload.  They are
# mostly interpreter start-up: about 0.8 s of a pass.
def probes() -> List[Row]:
    return (einstein_cp("probe.einstein", 1, 4)
            + bell("probe.bell", 6)
            + cigar("probe.cigar", "1", 6)
            + wallach("probe.wallach", "omega4", (3,), "1/3")
            + hartogs_inv_sqrt("probe.hartogs", 4, 2)
            + emit("probe.emit", ["--model", "cp", "--n", "1", "--b", "1",
                                  "--degree", "3"], components=1))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def catalog(seed: int, workdir: Path) -> List[Row]:
    """Closed-form catalog models against curved targets (b != 0).

    Composition (exp/log1p in model builds and in the b-transform) and
    det_series do most of the work.  The seed does not change these rows.
    """
    return (
        analyze("cp3", ["--model", "cp", "--n", "3", "--b", "1",
                        "--degree", "8"],
                resolvable(calabi_rank(3, 1)), certificate=False)
        + analyze("cp2_third", ["--model", "cp", "--n", "2", "--scale", "1/3",
                                "--b", "1", "--degree", "8"],
                  not_resolvable(type="matrix"), certificate=True)
        + bergman("omega1", "omega1", (2, 2), "1/2", 6)
        + bergman("omega4", "omega4", (4,), "1", 4)
        + bergman("omega3", "omega3", (5,), "1", 2)
        # F = e^{-x}: (F/F(0))^{-(c+k)} = e^{(c+k)x} has no negative
        # coefficient, so every scale of the metric is induced.
        + analyze("springer", ["--model", "springer", "--n", "3", "--b", "1",
                               "--degree", "8"],
                  resolvable(), certificate=False)
        + analyze("taubnut", ["--model", "taubnut_full", "--param", "m=1",
                              "--degree", "9"],
                  not_resolvable(type="matrix"), certificate=True)
        + emit("emit_omega1", ["--model", "omega1", "--param", "m=2",
                               "--param", "n=2", "--scale", "1/2", "--b", "1",
                               "--degree", "5"],
               # c * genus = 2 lies in the continuous Wallach part, where
               # every graded block is positive definite: full rank, one
               # component per monomial of degree 1..5 in 4 variables
               components=math.comb(4 + 5, 5) - 1)
        # b = -1 on the hyperbolic diastasis gives back sum |z_j|^2
        + emit("emit_ch", ["--model", "ch", "--n", "3", "--b", "-1",
                           "--degree", "7"], components=3)
        + einstein_cp("einstein", 2, 6)
        + wallach("wallach", "omega1", (2, 2), "1/2")
    )


JETS = {"psd_a": (2, 5, 12), "psd_b": (3, 4, 20)}
INDEFINITE = (3, 3, 12)


def jets(seed: int, workdir: Path) -> List[Row]:
    """Seeded dense Hermitian jets against the flat target (b = 0).

    The b-transform returns at once, so elimination, factoring, pullback
    verification and JSON I/O of large certificates do the work.
    """
    rows: List[Row] = []
    for name, (n, d, r) in JETS.items():
        (workdir / f"{name}.txt").write_text(jetgen.psd_jet(seed, n, d, r))
        source = ["--series", f"@{name}.txt", "--degree", str(d)]
        rows += analyze(name, source, resolvable(r), certificate=False)
        rows += emit(f"{name}.emit", source, components=r)
    n, d, r = INDEFINITE
    (workdir / "indefinite.txt").write_text(jetgen.indefinite_jet(seed, n, d, r))
    rows += analyze("indefinite",
                    ["--series", "@indefinite.txt", "--degree", str(d)],
                    not_resolvable(type="matrix"), certificate=True)
    return rows


def radial(seed: int, workdir: Path) -> List[Row]:
    """Rotation-invariant Hartogs scans and Bell/cigar scans.

    Univariate ``RSeries``/``Fraction`` work with no elimination: the bypass
    workload for matrix-side changes.  ``analyze --c`` on springer also
    builds a full ``BiSeries`` it never reads.
    """
    return (
        analyze("springer_c1", ["--model", "springer", "--c", "1",
                                "--degree", "24", "--jmax", "24",
                                "--kmax", "24"],
                fields(0, verdict="resolvable-up-to", degree=24),
                certificate=False)
        + hartogs_inv_sqrt("inv_sqrt", 24, 24)
        + cigar("cigar_1", "1", 24)
        + cigar("cigar_half", "1/2", 24)
        + bell("bell", 30)
        + wallach("wallach", "omega1", (2, 3), "1/5")
    )


WORKLOADS: Dict[str, Callable[[int, Path], List[Row]]] = {
    "catalog": catalog,
    "jets": jets,
    "radial": radial,
}


def build(name: str, seed: int, workdir: Path) -> List[Row]:
    """Write the workload's inputs into ``workdir`` and return its rows."""
    return WORKLOADS[name](seed, workdir) + probes()
