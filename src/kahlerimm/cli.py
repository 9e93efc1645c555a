"""Command-line front end: JSON certificates for every decision path.

All mathematically load-bearing parameters are exact rationals given as
``p/q`` strings; floats appear only in clearly labeled report fields.
Exit codes: 0 = pass/resolvable-up-to, 1 = certified negative verdict,
2 = input error.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, \
    Optional, Tuple

from . import bell as bellmod
from .einstein import EinsteinResult, GaugeError, NotEinstein, einstein_estimate
from .immersion import Component, ImmersionMap, NotResolvableError, Target, \
    factor_immersion, target_for, verify_immersion
from .models import MODELS, build_model, hartogs_profile
from .resolvability import CertifiedNotResolvable, HartogsWitness, \
    MatrixWitness, ResolvableUpTo, hartogs_criterion, resolvability
from .scalars import CScalar, as_fraction, format_fraction
from .series import BiSeries, GradedOrder, HolSeries, index_of_ordinal
from .symmetric import DomainInvariants, bergman_scaling_decision, \
    cartan_hartogs_failure, classical_invariants, wallach_membership

SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


def _emit(obj: Dict[str, Any]) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_params(pairs: Optional[List[str]], **shortcuts: Any
                  ) -> Dict[str, str]:
    """The ``--param key=value`` pairs and each shortcut option given (such
    as ``--n``); a parameter given twice is an input error."""
    items = []
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"--param needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        items.append((key.strip(), value.strip()))
    items += [(key, str(value)) for key, value in shortcuts.items()
              if value is not None]
    out: Dict[str, str] = {}
    for key, value in items:
        if key in out:
            raise InputError(f"parameter {key!r} given twice")
        out[key] = value
    return out


def _model_of(args) -> Optional[Tuple[str, Dict[str, Any], int]]:
    """(name, parameters, degree) named by --model or --spec.

    Checks that exactly one source is given; None means --series.
    """
    chosen = [x for x in ("model", "spec", "series")
              if getattr(args, x, None) is not None]
    if len(chosen) != 1:
        raise InputError("exactly one of --model, --spec, --series required")
    if args.model is not None:
        params = _parse_params(args.param, n=args.n, scale=args.scale)
        return args.model, params, args.degree
    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read spec file: {exc}") from exc
        _object(spec, "a spec file")
        params = _object(spec.get("parameters", {}), "spec parameters")
        return (spec.get("name"), params,
                _integer(spec.get("degree", args.degree), "spec degree"))
    return None


def _integer(value: Any, what: str, least: int = 0) -> int:
    """``value`` if it is a JSON integer >= ``least``, else an input error."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise InputError(f"{what} must be an integer >= {least}, "
                         f"got {value!r}")
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


def _model_source(name: Any, params: Any) -> Dict[str, Any]:
    params = _object(params, "the model parameters")
    return {"kind": "model", "model": name,
            "parameters": {k: str(params[k]) for k in sorted(params)}}


def _load_source(args) -> Tuple[Dict[str, Any], BiSeries]:
    """Resolve --model/--spec/--series into (source descriptor, series);
    every source is decided at --degree >= 1."""
    _integer(args.degree, "degree", 1)
    model = _model_of(args)
    if model is not None:
        name, params, degree = model
        return _rebuild_from_source(_model_source(name, params), degree)
    try:
        with open(args.series, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read series file: {exc}") from exc
    return _rebuild_from_source({"kind": "series", "series": text},
                                args.degree)


# ---------------------------------------------------------------------------
# JSON renderings
# ---------------------------------------------------------------------------

def _header(source: Dict[str, Any], b: Fraction, degree: int
            ) -> Dict[str, Any]:
    """The fields every certificate and immersion document starts with."""
    return {"schema_version": SCHEMA_VERSION, "source": source,
            "b": format_fraction(b), "degree": degree}


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
        return {"verdict": "resolvable-up-to", "rank": verdict.rank,
                "witness": None}
    return {"verdict": "certified-not-resolvable", "rank": None,
            "witness": _witness_json(verdict.witness)}


def _immersion_json(imm: ImmersionMap, source: Dict[str, Any], b: Fraction
                    ) -> Dict[str, Any]:
    """The document ``emit-immersion`` prints for the verified map ``imm``
    of ``source`` into the space form of curvature 4b."""
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
    return {**_header(source, b, imm.degree), "kind": "immersion",
            "verified": True, "target": target, "arity": imm.arity,
            "components": comps}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    request: Dict[str, Any] = {"b": args.b, "degree": args.degree}
    loaded = None
    if args.jmax is None and args.kmax is None and args.c is None:
        loaded = _load_source(args)
        request.update(source=loaded[0], criterion="matrix")
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
        name, params, _ = model
        request.update(
            source=_model_source(name, params), criterion="hartogs",
            c=args.c, jmax=args.degree if args.jmax is None else args.jmax,
            kmax=args.degree if args.kmax is None else args.kmax)
    doc = _certificate(request, loaded)
    _emit(doc)
    return 1 if doc["verdict"] == "certified-not-resolvable" else 0


def _request(fields: Mapping[str, Any]) -> Dict[str, Any]:
    """The request in ``fields``: source (checked where it is built), b,
    degree >= 1, criterion, and for the profile criterion c, jmax >= 1 and
    kmax >= 0."""
    request = {"source": fields.get("source"),
               "b": _rational(fields.get("b"), "b"),
               "degree": _integer(fields.get("degree"), "degree", 1),
               "criterion": fields.get("criterion")}
    if request["criterion"] == "hartogs":
        request.update(c=_rational(fields.get("c"), "c"),
                       jmax=_integer(fields.get("jmax"), "jmax", 1),
                       kmax=_integer(fields.get("kmax"), "kmax", 0))
    elif request["criterion"] != "matrix":
        raise InputError(f"unknown criterion {request['criterion']!r}")
    return request


def _certificate(fields: Mapping[str, Any],
                 loaded: Optional[Tuple[Dict[str, Any], BiSeries]] = None
                 ) -> Dict[str, Any]:
    """The certificate ``analyze`` prints for the request ``fields`` name
    (see ``_request``); ``loaded`` is the (source, jet) pair of a matrix
    request that the caller has read already."""
    request = _request(fields)
    body = {"kind": "certificate", "criterion": request["criterion"]}
    if request["criterion"] == "matrix":
        source, series = loaded or _rebuild_from_source(
            request["source"], request["degree"])
        verdict = resolvability(series, request["b"], request["degree"])
    else:
        source, F = _rebuild_from_source(
            request["source"], request["jmax"], profile=True)
        verdict = hartogs_criterion(F, request["c"], request["jmax"],
                                    request["kmax"])
        body.update(c=format_fraction(request["c"]), jmax=request["jmax"],
                    kmax=request["kmax"])
    return {**_header(source, request["b"], verdict.degree), **body,
            **_verdict_json(verdict)}


def _cmd_emit_immersion(args) -> int:
    source, series = _load_source(args)
    b = as_fraction(args.b)
    try:
        imm = factor_immersion(series, b, args.degree)
    except NotResolvableError as exc:
        _emit({**_header(source, b, args.degree), "kind": "certificate",
               "criterion": "matrix", **_verdict_json(
                   CertifiedNotResolvable(args.degree, exc.witness))})
        return 1
    _emit(_immersion_json(imm, source, b))
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
    params = _parse_params(args.param, n=args.n, b=args.b)
    model = args.model
    if args.b is not None:
        if model not in ("flat", "cp", "ch", "spaceform"):
            raise InputError("--b selects a space-form curvature only")
        model = "spaceform"
    _, series = _rebuild_from_source(_model_source(model, params),
                                     args.degree)
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


def _rebuild_from_source(source: Any, degree: int, profile: bool = False
                         ) -> Tuple[Dict[str, Any], Any]:
    """(source as certificates print it, its jet at ``degree`` >= 1), or
    with ``profile`` the radial profile F of a Hartogs model for the jet."""
    _integer(degree, "degree", 1)
    source = _object(source, "the source")
    if source.get("kind") == "model":
        source = _model_source(source.get("model"),
                               source.get("parameters", {}))
        make = hartogs_profile if profile else build_model
        try:
            return source, make(source["model"], source["parameters"], degree)
        except KeyError as exc:  # its message, not the repr str() gives
            raise InputError(*exc.args) from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad parameters for {source['model']}: {exc}"
                             ) from exc
    text = source.get("series")
    if source.get("kind") != "series" or not isinstance(text, str) or profile:
        raise InputError(f"unusable source {source.get('kind')!r}")
    series = BiSeries.loads(text, degree=None)
    if series.d < degree:
        raise InputError(f"the series holds degree {series.d} < {degree}")
    return {"kind": "series", "series": series.dumps()}, series


def _cmd_check_certificate(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate: {exc}") from exc
    _object(doc, "a certificate")
    kind = doc.get("kind")
    if kind == "immersion":
        degree = _integer(doc.get("degree"), "degree", 1)
        b = _rational(doc.get("b"), "b")
        source, series = _rebuild_from_source(doc.get("source"), degree)
        imm = _immersion_from_json(doc)
        if imm.target != target_for(b):
            raise InputError(f"an immersion for b = {b} maps into "
                             f"{target_for(b)}, not {imm.target}")
        printed = _immersion_json(imm, source, b) \
            if verify_immersion(imm, series, b, degree).ok else None
    elif kind == "certificate":
        _check_verdict_form(doc, _request(doc)["criterion"])
        printed = _certificate(doc)
    else:
        raise InputError(f"unknown file kind {kind!r}")
    # valid only as the very document kahlerimm prints for its request
    ok = json.dumps(printed, sort_keys=True) == json.dumps(doc, sort_keys=True)
    _emit({"schema_version": SCHEMA_VERSION, "kind": "check",
           "file_kind": kind, "valid": ok})
    return 0 if ok else 1


def _check_verdict_form(doc: Mapping[str, Any], want: str) -> None:
    """Reject, as input errors, verdict fields no certificate could hold:
    an unknown verdict, a non-integer rank, or a witness that is not a
    ``want`` witness of the printed shape."""
    verdict = doc.get("verdict")
    if verdict == "resolvable-up-to":
        if doc.get("rank") is not None:
            _integer(doc["rank"], "the certificate rank")
        return
    if verdict != "certified-not-resolvable":
        raise InputError(f"unknown verdict {verdict!r}")
    witness = _object(doc.get("witness"), "the witness")
    if witness.get("type") != want:
        raise InputError(f"unknown witness type {witness.get('type')!r}")
    if want == "hartogs":
        _integer(witness.get("j"), "the witness j", 1)
        _integer(witness.get("k"), "the witness k")
        return
    basis, comps = witness.get("basis"), witness.get("components")
    if not (isinstance(basis, list) and isinstance(comps, list)
            and len(comps) == len(basis)
            and all(isinstance(t, str) for t in comps)):
        raise InputError("a matrix witness needs components, one string "
                         "per basis element")


def _immersion_from_json(doc: Mapping[str, Any]) -> ImmersionMap:
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
            comps.append(Component(_integer(comp["sign"], "a sign", -1),
                                   as_fraction(comp["radicand"]),
                                   HolSeries(arity, degree, coeffs)))
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise InputError(f"malformed immersion document: "
                         f"{type(exc).__name__}: {exc}") from exc
    return ImmersionMap(tuple(comps), target, degree, arity)


# ---------------------------------------------------------------------------
# argument parsing: one command table, one pass over argv
# ---------------------------------------------------------------------------

HELP = ("-h", "--help")
REQUIRED = object()  # the default of an option every request must give


class Option(NamedTuple):
    """A ``--name`` option: ``kind`` is ``str``, ``int`` or ``list`` (a
    repeatable string option whose values are kept in order), and
    ``default`` is the value when absent, or ``REQUIRED``."""
    kind: type
    default: Any
    help: str


class Command(NamedTuple):
    """A command: its handler, help line, options by name, and the names of
    its positional arguments."""
    func: Callable[[SimpleNamespace], int]
    help: str
    options: Dict[str, Option]
    positional: Tuple[str, ...] = ()


def build_parser() -> Dict[str, Command]:
    """The command table ``main`` parses argv with, by command name."""
    degree = Option(int, REQUIRED, "truncation degree >= 1")
    b = Option(str, "0", "target curvature parameter p/q")
    source = {
        "--model": Option(str, None, "catalog model name (see 'models')"),
        "--spec": Option(str, None, "JSON model spec file"),
        "--series": Option(str, None,
                           "series text file (m_j ; m_k ; re ; im)"),
        "--param": Option(list, None, "model parameter KEY=VALUE"),
        "--n": Option(int, None, "arity shortcut"),
        "--scale": Option(str, None, "rational metric scale c"),
    }
    return {
        "analyze": Command(
            _cmd_analyze, "resolvability verdict + certificate", {
                **source, "--b": b, "--degree": degree,
                "--c": Option(str, None, "profile-criterion exponent "
                                         "(Hartogs models)"),
                "--jmax": Option(int, None, "Hartogs criterion j bound"),
                "--kmax": Option(int, None, "Hartogs criterion k bound")}),
        "emit-immersion": Command(
            _cmd_emit_immersion, "explicit verified map",
            {**source, "--b": b, "--degree": degree}),
        "wallach": Command(
            _cmd_wallach, "scaled-Bergman / Cartan-Hartogs "
                          "projective-inducedness decision", {
                "--r": Option(int, None, "domain rank"),
                "--a": Option(str, None, "domain invariant a (rational)"),
                "--gamma": Option(int, None, "genus"),
                "--dim": Option(int, 1, "domain dimension"),
                "--domain": Option(str, None,
                                   "named domain kind omega1..omega4"),
                "--sizes": Option(str, None,
                                  "comma-separated sizes for --domain"),
                "--c": Option(str, REQUIRED, "metric scale (rational)"),
                "--mu": Option(str, None,
                               "Cartan-Hartogs exponent (rational)")}),
        "cigar": Command(_cmd_cigar, "cigar obstruction scan", {
            "--c": Option(str, REQUIRED, "metric scale (rational)"),
            "--nmax": Option(int, REQUIRED, "last coefficient scanned"),
            "--terms": Option(int, 12, "terms of the limit partial sum")}),
        "bell": Command(_cmd_bell, "Bell polynomial values", {
            "--n": Option(int, REQUIRED, "polynomial degree"),
            "--k": Option(int, None, "partial polynomial B(n,k)"),
            "--x": Option(str, None, "comma-separated rational arguments")}),
        "einstein": Command(_cmd_einstein, "Einstein-constant estimate", {
            "--model": Option(str, "spaceform", "catalog model name"),
            "--param": source["--param"], "--n": source["--n"],
            "--b": Option(str, None, "space-form curvature parameter"),
            "--degree": degree}),
        "models": Command(_cmd_models, "list the model catalog", {}),
        "check-certificate": Command(
            _cmd_check_certificate,
            "re-validate an emitted certificate/immersion", {}, ("file",)),
    }


def _usage(table: Mapping[str, Command], name: Optional[str] = None) -> str:
    """The help text of the whole table, or of the command ``name``."""
    if name is None:
        return "\n".join([
            "usage: kahlerimm COMMAND [OPTIONS]", "",
            "Exact truncated-series decisions for local Kahler immersions "
            "into complex space forms", "",
            "commands:", *(f"  {key:<18} {c.help}" for key, c in table.items()),
            "", "kahlerimm COMMAND --help lists the options of COMMAND."])
    command = table[name]
    lines = [" ".join(["usage: kahlerimm", name,
                       *(p.upper() for p in command.positional),
                       "[OPTIONS]" if command.options else ""]).rstrip(),
             "", command.help]
    if command.options:
        lines += ["", "options:"]
    for key, option in command.options.items():
        metavar = "N" if option.kind is int else "VALUE"
        note = ("required" if option.default is REQUIRED
                else "repeatable" if option.kind is list
                else "" if option.default is None
                else f"default {option.default}")
        lines.append(f"  {key + ' ' + metavar:<16} {option.help}"
                     + (f" ({note})" if note else ""))
    return "\n".join(lines)


def _print_usage(args: SimpleNamespace) -> int:
    print(args.usage)
    return 0


def _parse_argv(table: Mapping[str, Command], argv: List[str]
                ) -> SimpleNamespace:
    """The handler and argument values ``argv`` gives, read in one pass.

    ``--opt value`` and ``--opt=value`` both work, and the token after an
    option is its value even if it starts with '-'.  Only exact option
    names are known, and only a ``list`` option may be given twice.
    """
    if not argv:
        raise InputError("a command is required: " + ", ".join(table))
    if argv[0] in HELP:
        return SimpleNamespace(func=_print_usage, usage=_usage(table))
    name, tokens = argv[0], iter(argv[1:])
    command = table.get(name)
    if command is None:
        raise InputError(f"unknown command {name!r}; one of "
                         + ", ".join(table))
    given: Dict[str, Any] = {}
    positional = []
    for token in tokens:
        if token in HELP:
            return SimpleNamespace(func=_print_usage,
                                   usage=_usage(table, name))
        if not token.startswith("-"):
            positional.append(token)
            continue
        key, eq, value = token.partition("=")
        option = command.options.get(key)
        if option is None:
            raise InputError(f"unknown option {key!r} for {name}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise InputError(f"{key} needs a value")
        if option.kind is list:
            given.setdefault(key, []).append(value)
            continue
        if key in given:
            raise InputError(f"{key} given twice")
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"{key} needs an integer, got {value!r}"
                                 ) from None
        given[key] = value
    if len(positional) > len(command.positional):
        raise InputError(f"unexpected argument "
                         f"{positional[len(command.positional)]!r}")
    if len(positional) < len(command.positional):
        raise InputError(f"{name} needs "
                         f"{command.positional[len(positional)].upper()}")
    args = SimpleNamespace(func=command.func,
                           **dict(zip(command.positional, positional)))
    for key, option in command.options.items():
        value = given.get(key, option.default)
        if value is REQUIRED:
            raise InputError(f"{name} needs {key}")
        setattr(args, key[2:], value)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    table = build_parser()
    try:
        args = _parse_argv(table, sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args \
            else exc
        print(json.dumps({"error": f"{type(exc).__name__}: {detail}"}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
