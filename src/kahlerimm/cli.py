"""Command-line front end: JSON certificates for every decision path.

All mathematically load-bearing parameters are exact rationals given as
``p/q`` strings; floats appear only in clearly labeled report fields.
Exit codes: 0 = pass/resolvable-up-to, 1 = certified negative verdict,
2 = input error.  Documents and error lines are written here, and a
document is read here with the C scanner of ``_json``, so no request that
reads a valid document imports the ``json`` package; a file that is not
one JSON document goes to ``json.loads``, for json's error.
"""
from __future__ import annotations

import atexit
import gc
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, NoReturn, Optional, \
    Tuple

from . import bell as bellmod
from .einstein import EinsteinResult, GaugeError, NotEinstein, einstein_estimate
from .immersion import Component, ImmersionMap, NotResolvableError, Target, \
    factor_immersion, target_for, verify_immersion
from .models import MODELS, build_model, hartogs_profile
from .resolvability import CertifiedNotResolvable, HartogsWitness, \
    MatrixWitness, ResolvableUpTo, hartogs_criterion, resolvability
from .scalars import Record, as_fraction, format_fraction, format_ratio, \
    parse_ratio
from .series import BiSeries, _ratio_form, graded_order, ordinal_of_index
from .symmetric import DomainInvariants, bergman_scaling_decision, \
    cartan_hartogs_failure, classical_invariants, wallach_membership

SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


_INFINITY = float("inf")


def _string(s: str) -> str:
    """``s`` as a JSON string, escaped to ASCII as ``json`` escapes it.

    Printable ASCII other than ``"`` and ``\\`` is written as it is, and a
    newline, the one other character of a series source, as ``\\n``.  Any
    other string goes through the C escaper that ``json.encoder`` binds,
    imported from ``_json`` alone: the ``json`` package would compile six
    regexes first."""
    if s.isascii() and '"' not in s and "\\" not in s:
        if s.isprintable():
            return '"' + s + '"'
        lines = s.replace("\n", "\\n")
        if lines.isprintable():
            return '"' + lines + '"'
    from _json import encode_basestring_ascii
    return encode_basestring_ascii(s)


def _emit(obj: Dict[str, Any]) -> None:
    """Print the document ``obj`` as ``json.dumps(obj, indent=2,
    sort_keys=True)`` prints it, byte for byte.

    With ``indent`` set, ``json`` encodes through its pure-Python encoder,
    a generator per container and a call per chunk; ``_write`` takes the
    same steps in one recursion over a list of chunks."""
    out: List[str] = []
    _write(obj, "\n", out)
    print("".join(out))


def _write(obj: Any, newline: str, out: List[str]) -> None:
    """Append the chunks of the JSON value ``obj`` to ``out``, its lines
    indented as ``newline`` (a newline and the indent of ``obj``'s line)
    says.  As in ``json``: a dict's keys are sorted, a tuple is a list, a
    string is escaped to ASCII, an int is its ``int.__repr__``, None and
    the bools are ``null``, ``true`` and ``false``, and a float is its
    ``float.__repr__`` or ``NaN``, ``Infinity`` or ``-Infinity``.  Keys are
    strings, as in every document."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out += (sep, _string(key), ": ")
            _write(value, inner, out)
            sep = "," + inner
        out += (newline, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out += (newline, "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append("NaN" if obj != obj else "Infinity" if obj == _INFINITY
                   else "-Infinity" if obj == -_INFINITY
                   else float.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        f"is not JSON serializable")


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
    return Fraction(*_ratio(value, what))


def _ratio(value: Any, what: str) -> Tuple[int, int]:
    """(p, q), q > 0, not always in lowest terms: the rational ``value``
    names if it is a JSON string or integer, read as ``as_fraction``
    reads it."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"{what} must be a rational, got {value!r}")
    if isinstance(value, int):
        return value, 1
    try:
        return parse_ratio(value.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _list_option(text: Optional[str], option: str,
                 parse: Callable[[str], Any]) -> List[Any]:
    """The comma-separated elements of ``option``'s value ``text``, each
    read by ``parse``; a bad element is an input error that names the
    option and the element."""
    out = []
    for item in text.split(",") if text else ():
        try:
            out.append(parse(item))
        except ValueError as exc:
            raise InputError(f"{option} element {item!r}: {exc}") from None
    return out


# the context json.JSONDecoder() builds its scanner over
_DECODER = SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None,
    parse_float=float, parse_int=int, parse_constant={
        "NaN": float("nan"), "Infinity": _INFINITY,
        "-Infinity": -_INFINITY}.__getitem__)
_SPACE = " \t\n\r"  # the whitespace json skips around a document


def _read_document(path: str, what: str) -> Any:
    """The JSON document in the file ``path``, the ``what`` a request
    names, read as ``json.load`` reads it.

    ``_json``'s C scanner, the one ``json.load`` runs, scans the text
    between json's leading and trailing whitespace; the ``json`` package
    would compile six regexes first.  Text that is not one document, a
    BOM or extra data included, goes to ``json.loads``, which raises
    json's error for it (the scanner's own can be a ``SystemError``: it
    builds json's errors only once ``json.decoder`` is imported).  A
    document nested past the recursion limit is an input error too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    from _json import make_scanner
    try:
        doc, end = make_scanner(_DECODER)(
            text, len(text) - len(text.lstrip(_SPACE)))
        if not text[end:].strip(_SPACE):
            return doc
    except (StopIteration, ValueError, SystemError, RecursionError):
        pass  # no value, json's error or its stand-in, or too deep
    import json
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def _model_source(name: Any, params: Any) -> Dict[str, Any]:
    params = _object(params, "the model parameters")
    return {"kind": "model", "model": name,
            "parameters": {k: str(params[k]) for k in sorted(params)}}


def _load_source(args) -> Dict[str, Any]:
    """The source descriptor that exactly one of --model, --spec and
    --series names, checking --degree >= 1.  A spec names a model; its
    "degree", the truncation it holds, must reach --degree."""
    _integer(args.degree, "degree", 1)
    chosen = [x for x in ("model", "spec", "series")
              if getattr(args, x, None) is not None]
    if len(chosen) != 1:
        raise InputError("exactly one of --model, --spec, --series required")
    if args.model is not None:
        params = _parse_params(args.param, n=args.n, scale=args.scale)
        return _model_source(args.model, params)
    if args.series is not None:
        try:
            with open(args.series, "r", encoding="utf-8") as fh:
                return {"kind": "series", "series": fh.read()}
        except OSError as exc:
            raise InputError(f"cannot read series file: {exc}") from exc
    spec = _read_document(args.spec, "spec file")
    _object(spec, "a spec file")
    params = _object(spec.get("parameters", {}), "spec parameters")
    degree = _integer(spec.get("degree", args.degree), "spec degree")
    if degree < args.degree:  # the text build_matrix gives for a short jet
        raise ValueError(f"requested degree {args.degree} exceeds "
                         f"truncation {degree}")
    return _model_source(spec.get("name"), params)


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
    basis = graded_order(imm.arity, imm.degree).basis
    for comp in imm.components:
        series = []
        for j, (re, im) in sorted(comp.nums.items()):
            series.append({
                "m": list(basis[j]),
                "re": format_ratio(re, comp.den),
                "im": format_ratio(im, comp.den),
            })
        comps.append({
            "sign": 1,
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
    source = _load_source(args)
    request: Dict[str, Any] = {"source": source, "b": args.b,
                               "degree": args.degree, "criterion": "matrix"}
    if not (args.jmax is None and args.kmax is None and args.c is None):
        # the profile criterion reads F alone; the jet is never built.  A
        # --model or a --spec names the model; a --series names none
        name = source.get("model")
        entry = MODELS.get(name) if isinstance(name, str) else None
        if entry is None or entry.profile is None:
            raise InputError(
                "--c/--jmax/--kmax apply only to --model with a radial "
                "Hartogs profile: " + ", ".join(
                    sorted(k for k, e in MODELS.items()
                           if e.profile is not None)))
        request.update(
            criterion="hartogs", c=args.c,
            jmax=args.degree if args.jmax is None else args.jmax,
            kmax=args.degree if args.kmax is None else args.kmax)
    doc = _certificate(request)
    _emit(doc)
    return 1 if doc["verdict"] == "certified-not-resolvable" else 0


def _request(fields: Mapping[str, Any]) -> Dict[str, Any]:
    """The request in ``fields``: source (checked where it is built), b,
    degree >= 1, criterion, and for the profile criterion c > 0, jmax >= 1
    and kmax >= 0."""
    request = {"source": fields.get("source"),
               "b": _rational(fields.get("b"), "b"),
               "degree": _integer(fields.get("degree"), "degree", 1),
               "criterion": fields.get("criterion")}
    if request["criterion"] == "hartogs":
        c = _rational(fields.get("c"), "c")
        if c <= 0:
            raise InputError(f"c must be a positive rational, got "
                             f"{format_fraction(c)}")
        request.update(c=c, jmax=_integer(fields.get("jmax"), "jmax", 1),
                       kmax=_integer(fields.get("kmax"), "kmax", 0))
    elif request["criterion"] != "matrix":
        raise InputError(f"unknown criterion {request['criterion']!r}")
    return request


def _certificate(fields: Mapping[str, Any]) -> Dict[str, Any]:
    """The certificate ``analyze`` prints for the request ``fields`` name
    (see ``_request``); a matrix request builds its jet at its degree."""
    request = _request(fields)
    body = {"kind": "certificate", "criterion": request["criterion"]}
    if request["criterion"] == "matrix":
        source, series = _rebuild_from_source(request["source"],
                                              request["degree"])
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
    source, series = _rebuild_from_source(_load_source(args), args.degree)
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
        inv = classical_invariants(args.domain,
                                   *_list_option(args.sizes, "--sizes", int))
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
    xs = _list_option(args.x, "--x", as_fraction)
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
    doc = _object(_read_document(args.file, "certificate"), "a certificate")
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
            if verify_immersion(imm, series, b, degree) else None
    elif kind == "certificate":
        _check_verdict_form(doc, _request(doc)["criterion"])
        printed = _certificate(doc)
    else:
        raise InputError(f"unknown file kind {kind!r}")
    # valid only as the very document kahlerimm prints for its request
    ok = _same(printed, doc)
    _emit({"schema_version": SCHEMA_VERSION, "kind": "check",
           "file_kind": kind, "valid": ok})
    return 0 if ok else 1


_SEQUENCES = (list, tuple)


def _same(printed: Any, doc: Any) -> bool:
    """Whether ``json.dumps`` gives the JSON values ``printed`` and ``doc``
    the same text with ``sort_keys``, decided without encoding either.

    A bool, an int and a float are never the same, floats are the same
    when their ``float.__repr__`` is (so -0.0 is not 0.0, and NaN is NaN),
    a tuple is a list, and dicts need the same keys.  Keys are strings, as
    in every document, and strings compare as ``str``: json would also
    write a surrogate pair the way it writes the character the pair
    encodes, but no document read from UTF-8 holds one.  The recursion
    stops where the two differ in type, so it goes no deeper than
    ``printed``."""
    kind = type(printed)
    if kind is not type(doc):
        if kind not in _SEQUENCES or type(doc) not in _SEQUENCES:
            return False
        kind = list
    if kind is dict:
        return printed.keys() == doc.keys() and all(
            _same(value, doc[key]) for key, value in printed.items())
    if kind in _SEQUENCES:
        return len(printed) == len(doc) and all(map(_same, printed, doc))
    if kind is float:
        return float.__repr__(printed) == float.__repr__(doc)
    return printed == doc


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
    arity = _integer(doc.get("arity"), "the immersion arity", 1)
    try:
        target = _object(doc["target"], "the immersion target")
        target = Target(target["kind"], _rational(target["b"], "the target b")
                        if "b" in target else None)
        comps = []
        ordinals: Dict[Tuple[int, ...], int] = {}
        for comp in doc["components"]:
            # the format keeps a sign field; every component has sign 1
            sign = comp["sign"]
            if type(sign) is not int or sign != 1:
                raise InputError(f"a component sign must be 1, got {sign!r}")
            ratios = {}
            for term in comp["series"]:
                m = tuple(_integer(e, "an exponent") for e in term["m"])
                j = ordinals.get(m)
                if j is None:
                    if len(m) != arity or sum(m) > degree:
                        raise InputError(
                            f"the multi-index {list(m)} is not of arity "
                            f"{arity} and degree <= {degree}")
                    j = ordinals[m] = ordinal_of_index(m)
                ratios[j] = (_ratio(term["re"], "a real part"),
                             _ratio(term["im"], "an imaginary part"))
            # a later term for the same monomial replaces an earlier one
            comps.append(Component(
                _rational(comp["radicand"], "a radicand"), *_ratio_form({
                    j: v for j, v in ratios.items() if v[0][0] or v[1][0]})))
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise InputError(f"malformed immersion document: "
                         f"{type(exc).__name__}: {exc}") from exc
    return ImmersionMap(tuple(comps), target, degree, arity)


# ---------------------------------------------------------------------------
# argument parsing: one command table, one pass over argv
# ---------------------------------------------------------------------------

HELP = ("-h", "--help")
REQUIRED = object()  # the default of an option every request must give


class Option(Record, fields="kind default help"):
    """A ``--name`` option: ``kind`` is ``str``, ``int`` or ``list`` (a
    repeatable string option whose values are kept in order), ``default``
    is the value when absent, or ``REQUIRED``, and ``help`` its help
    line."""

    __slots__ = ()


class Command(Record, fields="func help options positional", defaults=((),)):
    """A command: its handler (callable SimpleNamespace -> exit code), help
    line, options (dict name -> ``Option``), and the names of its
    positional arguments (tuple of str)."""

    __slots__ = ()


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
    """Run the request ``argv`` and return its exit code.

    ``argv=None`` is a process entry (``run``): the request is
    ``sys.argv[1:]``, and every object alive before it, the modules that
    the interpreter, ``site`` and this package loaded, is moved by
    ``gc.freeze()`` into the collector's permanent generation, so the
    collections during the request, and those of an interpreter exit
    (when ``run`` ends through ``sys.exit``), skip them; and stdout is
    flushed before ``main`` returns, so a closed pipe is reported as a
    failed write is, whether or not the document fit in the buffer, and
    stdout then points at the null device, so no later flush reports it
    again.  A caller that passes a list, such as a test or an embedding
    program, keeps its collector and its stdout as they are.  Either way
    ``main`` returns, and leaves the process to its caller."""
    entry = argv is None
    if entry:
        gc.freeze()
        argv = sys.argv[1:]
    table = build_parser()
    try:
        args = _parse_argv(table, argv)
        code = args.func(args)
        if entry and sys.stdout is not None:
            sys.stdout.flush()
        return code
    except InputError as exc:
        message = str(exc)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args \
            else exc
        message = f"{type(exc).__name__}: {detail}"
        if entry and isinstance(exc, BrokenPipeError):
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
    # the line json.dumps({"error": message}) prints
    print('{"error": ' + _string(message) + "}", file=sys.stderr)
    return 2


def run() -> NoReturn:
    """The process entry, ``python -m kahlerimm.cli`` or the ``kahlerimm``
    console script: run ``main()`` and end the process with its code.

    The process ends at ``os._exit`` once the atexit handlers have run
    (CPython clears them, so none runs again) and ``sys.stdout`` and
    ``sys.stderr`` are flushed: module finalization and the interpreter's
    closing collections, which would only free memory the OS takes back,
    are skipped.  Under a profiler or a tracer (cProfile, trace, coverage),
    or when a flush fails, ``sys.exit`` ends it as the interpreter always
    does, so the tool writes its report and a failed flush is reported as
    it is at any exit."""
    code = main()
    if sys.getprofile() is None and sys.gettrace() is None:
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
