"""Command-line front end: JSON certificates for every decision path.

All mathematically load-bearing parameters are exact rationals given as
``p/q`` strings; floats appear only in clearly labeled report fields.
Exit codes: 0 = pass/resolvable-up-to, 1 = certified negative verdict,
2 = input error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from . import bell as bellmod
from .einstein import EinsteinResult, GaugeError, NotEinstein, einstein_estimate
from .immersion import ImmersionMap, NotResolvableError, factor_immersion, \
    verify_immersion
from .models import MODELS, build_model, hartogs_profile
from .resolvability import CertifiedNotResolvable, HartogsWitness, \
    MatrixWitness, ResolvableUpTo, calabi_matrix, hartogs_criterion, \
    hartogs_series, resolvability
from .scalars import CScalar, as_fraction, format_fraction
from .series import BiSeries, index_of_ordinal
from .symmetric import DomainInvariants, bergman_scaling_decision, \
    cartan_hartogs_failure, classical_invariants, wallach_membership

SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


def _emit(obj: Dict[str, Any]) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--param needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _model_of(args) -> Optional[Tuple[str, Dict[str, str], int]]:
    """(name, parameters, degree) named by --model or --spec.

    Checks that exactly one source is given; None means --series.
    """
    chosen = [x for x in ("model", "spec", "series")
              if getattr(args, x, None) is not None]
    if len(chosen) != 1:
        raise InputError("exactly one of --model, --spec, --series required")
    if args.model is not None:
        params = _parse_params(getattr(args, "param", None))
        if getattr(args, "n", None) is not None:
            params["n"] = str(args.n)
        if getattr(args, "scale", None) is not None:
            params["scale"] = args.scale
        return args.model, params, args.degree
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        _object(spec, "a spec file")
        parameters = _object(spec.get("parameters", {}), "spec parameters")
        params = {k: str(v) for k, v in parameters.items()}
        return (spec.get("name"), params,
                _integer(spec.get("degree", args.degree), "spec degree"))
    return None


def _integer(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer, else an input error."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _object(value: Any, what: str) -> Dict[str, Any]:
    """``value`` if it is a JSON object, else an input error."""
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    return value


def _rational(value: Any, what: str) -> Fraction:
    """``value`` as an exact rational if it is a JSON string or integer."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"{what} must be a rational, got {value!r}")
    return as_fraction(value)


def _check_degree(degree: int) -> None:
    if degree < 1:
        raise InputError(f"--degree must be >= 1, got {degree}")


def _from_model(make: Callable[[str, Mapping[str, Any], int], Any],
                name: str, params: Mapping[str, Any], degree: int) -> Any:
    """``make(name, params, degree)`` for ``build_model`` or
    ``hartogs_profile``, with parameter errors reported as input errors.

    Every model is built at degree >= 1."""
    _check_degree(degree)
    try:
        return make(name, params, degree)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad parameters for {name}: {exc}") from exc


def _model_source(name: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    return {"kind": "model", "model": name,
            "parameters": dict(sorted(params.items()))}


def _load_source(args) -> Tuple[Dict[str, Any], BiSeries]:
    """Resolve --model/--spec/--series into (source descriptor, series);
    every source is decided at --degree >= 1."""
    _check_degree(args.degree)
    model = _model_of(args)
    if model is not None:
        name, params, degree = model
        return (_model_source(name, params),
                _from_model(build_model, name, params, degree))
    try:
        with open(args.series, "r", encoding="utf-8") as fh:
            text = fh.read()
        series = BiSeries.loads(text, degree=None)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read series file: {exc}") from exc
    if series.d < args.degree:
        raise InputError(
            f"series file holds degree {series.d} < requested {args.degree}")
    return {"kind": "series", "series": series.dumps()}, series


# ---------------------------------------------------------------------------
# JSON renderings
# ---------------------------------------------------------------------------

def _witness_json(witness) -> Dict[str, Any]:
    if isinstance(witness, MatrixWitness):
        return {
            "type": "matrix",
            "basis": [list(m) for m in witness.basis],
            "components": [c.format() for c in witness.components],
            "value": format_fraction(witness.value),
        }
    if isinstance(witness, HartogsWitness):
        return {
            "type": "hartogs",
            "j": witness.j,
            "k": witness.k,
            "coefficient": format_fraction(witness.coefficient),
        }
    raise TypeError(f"unknown witness {witness!r}")


def _verdict_json(verdict) -> Dict[str, Any]:
    if isinstance(verdict, ResolvableUpTo):
        return {"verdict": "resolvable-up-to", "degree": verdict.degree,
                "rank": verdict.rank, "witness": None}
    return {"verdict": "certified-not-resolvable", "degree": verdict.degree,
            "rank": None, "witness": _witness_json(verdict.witness)}


def _immersion_json(imm: ImmersionMap) -> Dict[str, Any]:
    comps = []
    for comp in imm.components:
        series = []
        for j in sorted(comp.series.coeffs):
            c = comp.series.coeffs[j]
            series.append({
                "m": list(index_of_ordinal(comp.series.n, j)),
                "re": format_fraction(c.re),
                "im": format_fraction(c.im),
            })
        comps.append({
            "sign": comp.sign,
            "radicand": format_fraction(comp.radicand),
            "series": series,
        })
    target: Dict[str, Any] = {"kind": imm.target.kind}
    if imm.target.b is not None:
        target["b"] = format_fraction(imm.target.b)
    return {"target": target, "degree": imm.degree, "arity": imm.arity,
            "components": comps}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    b = as_fraction(args.b)
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "certificate",
        "b": format_fraction(b),
        "degree": args.degree,
    }
    if args.jmax is None and args.kmax is None and args.c is None:
        doc["source"], series = _load_source(args)
        verdict = resolvability(series, b, args.degree)
        doc["criterion"] = "matrix"
    else:
        # the profile criterion reads F alone; the jet is never built
        model = _model_of(args)
        entry = MODELS.get(args.model)
        if entry is None or entry.profile is None:
            raise InputError(
                "--c/--jmax/--kmax apply only to --model with a radial "
                "Hartogs profile: " + ", ".join(
                    sorted(k for k, e in MODELS.items()
                           if e.profile is not None)))
        if args.c is None:
            raise InputError("the profile criterion needs --c")
        name, params, degree = model
        _check_degree(degree)  # F itself is built at max(jmax, 1)
        jmax = args.jmax if args.jmax is not None else degree
        kmax = args.kmax if args.kmax is not None else degree
        F = _from_model(hartogs_profile, name, params, max(jmax, 1))
        verdict = hartogs_criterion(F, as_fraction(args.c), jmax, kmax)
        doc["source"] = _model_source(name, params)
        doc["criterion"] = "hartogs"
        doc["c"] = format_fraction(as_fraction(args.c))
        doc["jmax"] = jmax
        doc["kmax"] = kmax
    doc.update(_verdict_json(verdict))
    _emit(doc)
    return 1 if isinstance(verdict, CertifiedNotResolvable) else 0


def _cmd_emit_immersion(args) -> int:
    source, series = _load_source(args)
    b = as_fraction(args.b)
    doc = {"schema_version": SCHEMA_VERSION, "source": source,
           "b": format_fraction(b), "degree": args.degree}
    try:
        imm = factor_immersion(series, b, args.degree)
    except NotResolvableError as exc:
        doc.update(kind="certificate", criterion="matrix", **_verdict_json(
            CertifiedNotResolvable(args.degree, exc.witness)))
        _emit(doc)
        return 1
    doc.update(kind="immersion", verified=True, **_immersion_json(imm))
    _emit(doc)
    return 0


def _cmd_wallach(args) -> int:
    if args.domain is not None:
        sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes \
            else ()
        inv = classical_invariants(args.domain, *sizes)
    else:
        if args.r is None or args.a is None or args.gamma is None:
            raise InputError("need --domain or all of --r/--a/--gamma")
        inv = DomainInvariants(args.r, as_fraction(args.a), args.gamma,
                               args.dim)
    c = as_fraction(args.c)
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "wallach",
        "invariants": {"r": inv.rank, "a": format_fraction(inv.a),
                       "gamma": inv.genus, "dim": inv.dim},
        "c": format_fraction(c),
    }
    if args.mu is not None:
        mu = as_fraction(args.mu)
        failing = cartan_hartogs_failure(inv, mu, c)
        doc["mu"] = format_fraction(mu)
        doc["decision"] = failing is None
        doc["failing_m"] = failing
    else:
        membership = wallach_membership(inv, c * inv.genus)
        doc["decision"] = bergman_scaling_decision(inv, c)
        doc["membership"] = {"class": membership.kind, "k": membership.k}
    _emit(doc)
    return 0 if doc["decision"] else 1


def _cmd_cigar(args) -> int:
    c = as_fraction(args.c)
    scan = bellmod.cigar_scan(c, args.nmax)
    limit = bellmod.cigar_limit(c, args.terms)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cigar",
        "c": format_fraction(c),
        "n_max": args.nmax,
        "first_negative_n": scan.first_negative_n,
        "y_value": None if scan.y_value is None
        else format_fraction(scan.y_value),
        "coefficient": None if scan.coefficient is None
        else format_fraction(scan.coefficient),
        "limit": {
            "partial_sum": format_fraction(limit.partial_sum),
            "pi2_over_6_enclosure": [format_fraction(limit.enclosure[0]),
                                     format_fraction(limit.enclosure[1])],
            "float_value": limit.float_value,
        },
    }
    _emit(doc)
    return 1 if scan.first_negative_n is not None else 0


def _cmd_bell(args) -> int:
    xs = [as_fraction(t) for t in args.x.split(",")] if args.x else []
    if args.k is not None:
        value = bellmod.bell_partial(args.n, args.k, xs)
        which = f"B({args.n},{args.k})"
    else:
        value = bellmod.bell_complete(args.n, xs)
        which = f"Y({args.n})"
    _emit({"schema_version": SCHEMA_VERSION, "kind": "bell",
           "polynomial": which, "value": format_fraction(value)})
    return 0


def _cmd_einstein(args) -> int:
    params = _parse_params(args.param)
    model = args.model
    if args.b is not None:
        if model in ("flat", "cp", "ch", "spaceform"):
            model = "spaceform"
            params["b"] = args.b
        else:
            raise InputError("--b selects a space-form curvature only")
    if args.n is not None:
        params["n"] = str(args.n)
    series = _from_model(build_model, model, params, args.degree)
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "einstein",
        "model": model,
        "parameters": dict(sorted(params.items())),
        "degree": args.degree,
    }
    try:
        result = einstein_estimate(series, args.degree)
    except GaugeError as exc:
        raise InputError(str(exc)) from exc
    if isinstance(result, EinsteinResult):
        doc["lambda"] = format_fraction(result.lam)
        doc["flat"] = result.flat
        _emit(doc)
        return 0
    assert isinstance(result, NotEinstein)
    doc["not_einstein_at"] = {
        "m_j": list(result.location[0]),
        "m_k": list(result.location[1]),
        "got": result.got.format(),
        "want": result.want.format(),
    }
    _emit(doc)
    return 1


def _cmd_models(_args) -> int:
    listing = {}
    for name in sorted(MODELS):
        entry = MODELS[name]
        listing[name] = {"doc": entry.doc,
                         "parameters": dict(entry.schema,
                                            scale="rational > 0")}
    _emit({"schema_version": SCHEMA_VERSION, "kind": "models",
           "models": listing})
    return 0


def _rebuild_from_source(source: Any, degree: int) -> BiSeries:
    _check_degree(degree)
    source = _object(source, "the certificate source")
    if source.get("kind") == "model":
        return _from_model(build_model, source["model"],
                           source.get("parameters", {}), degree)
    text = source.get("series")
    if source.get("kind") == "series" and isinstance(text, str):
        return BiSeries.loads(text, degree=None)
    raise InputError(f"unusable certificate source {source.get('kind')!r}")


def _cmd_check_certificate(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate: {exc}") from exc
    _object(doc, "a certificate")
    kind = doc.get("kind")
    degree = _integer(doc.get("degree"), "the certificate degree")
    b = _rational(doc.get("b", "0"), "the certificate b")
    if kind == "immersion":
        series = _rebuild_from_source(doc["source"], degree)
        ok = verify_immersion(_immersion_from_json(doc), series, b,
                              degree).ok
    elif kind != "certificate":
        raise InputError(f"unknown file kind {kind!r}")
    elif doc.get("verdict") == "resolvable-up-to":
        ok = _redecides_positive(doc, degree, b)
    elif doc.get("verdict") == "certified-not-resolvable":
        ok = _witness_certifies(doc, degree, b)
    else:
        raise InputError(f"unknown verdict {doc.get('verdict')!r}")
    _emit({"schema_version": SCHEMA_VERSION, "kind": "check",
           "file_kind": kind, "valid": bool(ok)})
    return 0 if ok else 1


def _hartogs_of(doc: Mapping[str, Any]) -> Tuple[Any, Fraction, int]:
    """(F, c, jmax) of a Hartogs certificate, F built from its source."""
    source = _object(doc["source"], "the certificate source")
    jmax = _integer(doc.get("jmax"), "the certificate jmax")
    F = _from_model(hartogs_profile, source["model"],
                    source.get("parameters", {}), max(jmax, 1))
    return F, _rational(doc.get("c"), "the certificate c"), jmax


def _redecides_positive(doc: Mapping[str, Any], degree: int, b: Fraction
                        ) -> bool:
    """Decide a positive certificate's source again, at the cost of
    ``analyze``: it holds when the verdict is again ``ResolvableUpTo``
    with the document's degree and rank."""
    if doc.get("criterion") == "hartogs":
        F, c, jmax = _hartogs_of(doc)
        kmax = _integer(doc.get("kmax"), "the certificate kmax")
        verdict = hartogs_criterion(F, c, jmax, kmax)
    elif doc.get("criterion") == "matrix":
        _integer(doc.get("rank"), "the certificate rank")
        series = _rebuild_from_source(doc["source"], degree)
        verdict = resolvability(series, b, degree)
    else:
        raise InputError(f"unknown criterion {doc.get('criterion')!r}")
    return verdict == ResolvableUpTo(degree, doc.get("rank"))


def _witness_certifies(doc: Mapping[str, Any], degree: int, b: Fraction
                       ) -> bool:
    """Evaluate a negative certificate's witness against its source."""
    witness = _object(doc["witness"], "the witness")
    if witness.get("type") == "matrix":
        series = _rebuild_from_source(doc["source"], degree)
        _, matrix = calabi_matrix(series, b, degree)
        comps = witness.get("components")
        if not (isinstance(comps, list) and len(comps) == matrix.dimension
                and all(isinstance(t, str) for t in comps)):
            raise InputError(f"a matrix witness needs {matrix.dimension} "
                             "components, one string each")
        value = matrix.quadratic_form([CScalar.parse(t) for t in comps])
        return value < 0 and format_fraction(value) == witness["value"]
    if witness.get("type") == "hartogs":
        F, c, _ = _hartogs_of(doc)
        try:
            j, k = int(witness["j"]), int(witness["k"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"a hartogs witness needs integers j and k: "
                             f"{exc}") from exc
        coeff = hartogs_series(F, c, k).ucoeff(j)
        return coeff < 0 and format_fraction(coeff) == witness["coefficient"]
    raise InputError(f"unknown witness type {witness.get('type')!r}")


def _immersion_from_json(doc: Mapping[str, Any]) -> ImmersionMap:
    from .immersion import Component, Target
    from .series import GradedOrder, HolSeries
    degree = _integer(doc.get("degree"), "the immersion degree")
    arity = _integer(doc.get("arity"), "the immersion arity")
    order = GradedOrder(arity, degree)
    try:
        target = _object(doc["target"], "the immersion target")
        target = Target(target["kind"], as_fraction(target["b"])
                        if "b" in target else None)
        comps = []
        for comp in doc["components"]:
            coeffs = {}
            for term in comp["series"]:
                m = tuple(term["m"])
                if not all(isinstance(e, int) and e >= 0 for e in m):
                    raise InputError(f"bad multi-index {list(m)}")
                coeffs[order.ordinal(m)] = CScalar(term["re"], term["im"])
            comps.append(Component(int(comp["sign"]),
                                   as_fraction(comp["radicand"]),
                                   HolSeries(arity, degree, coeffs)))
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise InputError(f"malformed immersion document: "
                         f"{type(exc).__name__}: {exc}") from exc
    return ImmersionMap(tuple(comps), target, degree, arity)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="catalog model name (see 'models')")
    p.add_argument("--spec", help="JSON model spec file")
    p.add_argument("--series", help="series text file (m_j ; m_k ; re ; im)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="model parameter (repeatable)")
    p.add_argument("--n", type=int, help="arity shortcut")
    p.add_argument("--scale", help="rational metric scale c")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlerimm",
        description="Exact truncated-series decisions for local Kahler "
                    "immersions into complex space forms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="resolvability verdict + certificate")
    _add_source_args(p)
    p.add_argument("--b", default="0", help="target curvature parameter p/q")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--c", help="profile-criterion exponent (Hartogs models)")
    p.add_argument("--jmax", type=int, help="Hartogs criterion j bound")
    p.add_argument("--kmax", type=int, help="Hartogs criterion k bound")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("emit-immersion", help="explicit verified map")
    _add_source_args(p)
    p.add_argument("--b", default="0")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_emit_immersion)

    p = sub.add_parser("wallach", help="scaled-Bergman / Cartan-Hartogs "
                                       "projective-inducedness decision")
    p.add_argument("--r", type=int, help="domain rank")
    p.add_argument("--a", help="domain invariant a (rational)")
    p.add_argument("--gamma", type=int, help="genus")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--domain", help="named domain kind omega1..omega4")
    p.add_argument("--sizes", help="comma-separated sizes for --domain")
    p.add_argument("--c", required=True, help="metric scale (rational)")
    p.add_argument("--mu", help="Cartan-Hartogs exponent (rational)")
    p.set_defaults(func=_cmd_wallach)

    p = sub.add_parser("cigar", help="cigar obstruction scan")
    p.add_argument("--c", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--terms", type=int, default=12)
    p.set_defaults(func=_cmd_cigar)

    p = sub.add_parser("bell", help="Bell polynomial values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--x", help="comma-separated rational arguments")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("einstein", help="Einstein-constant estimate")
    p.add_argument("--model", default="spaceform")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--n", type=int)
    p.add_argument("--b", help="space-form curvature parameter")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_einstein)

    p = sub.add_parser("models", help="list the model catalog")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("check-certificate",
                       help="re-validate an emitted certificate/immersion")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_certificate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
