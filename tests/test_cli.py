import contextlib
import functools
import gc
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kahlerimm.cli import InputError, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


def test_analyze_deterministic(capsys):
    args = ("analyze", "--model", "cp", "--n", "1", "--scale", "1/2",
            "--b", "1", "--degree", "4")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert code1 == 1
    doc = json.loads(out1)
    assert doc["verdict"] == "certified-not-resolvable"
    assert doc["witness"]["value"] == "-1/8"
    assert doc["schema_version"] == 1


def test_analyze_positive_exit_zero(capsys):
    code, doc = run_json(capsys, "analyze", "--model", "flat", "--n", "2",
                         "--b", "0", "--degree", "3")
    assert code == 0
    assert doc["verdict"] == "resolvable-up-to"
    assert doc["rank"] == 2


# a quote, a backslash, a control character and a non-ASCII letter
MESSY = 'é"\\\x01'


def test_analyze_bad_model_exit_two(capsys):
    # the error line is the one json.dumps prints, byte for byte
    for name in ("nope", MESSY):
        code, out, err = run(capsys, "analyze", "--model", name,
                             "--degree", "2")
        assert code == 2 and out == ""
        assert err == json.dumps({"error": f"unknown model {name!r}; "
                                           f"see the 'models' listing"}) + "\n"


@pytest.mark.parametrize("error,message", [
    (InputError, MESSY),
    (ValueError, "ValueError: " + MESSY),
    (KeyError, "KeyError: " + MESSY),
])
def test_an_error_line_is_what_json_dumps_prints(capsys, monkeypatch, error,
                                                 message):
    # a message the CLI builds holds the repr of what it quotes, so a raw
    # control character reaches the error line only from a raised message
    import kahlerimm.cli as cli

    def fail(_args):
        raise error(MESSY)
    monkeypatch.setattr(cli, "_cmd_models", fail)
    code, out, err = run(capsys, "models")
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": message}) + "\n"


def test_hartogs_certificate_of_a_model_without_profile(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--model", "hartogs_inv_sqrt",
                       "--c", "1", "--degree", "3")
    assert code in (0, 1)
    doc = json.loads(out)
    doc["source"] = {"kind": "model", "model": "cp", "parameters": {}}
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-certificate", str(cert))
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": "model 'cp' has no radial profile"}


def test_analyze_requires_one_source(capsys):
    code, out, err = run(capsys, "analyze", "--degree", "2")
    assert code == 2


def test_analyze_series_file(capsys, tmp_path):
    f = tmp_path / "series.txt"
    f.write_text("1 ; 1 ; 1 ; 0\n2 ; 2 ; -1 ; 0\n")
    code, doc = run_json(capsys, "analyze", "--series", str(f),
                         "--b", "0", "--degree", "2")
    assert code == 1
    assert doc["source"]["kind"] == "series"


def test_certificate_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--model", "omega4", "--n", "3",
                       "--b", "0", "--degree", "2")
    assert code == 1
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, doc = run_json(capsys, "check-certificate", str(cert))
    assert code == 0 and doc["valid"] is True


def test_tampered_certificate_rejected(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--model", "cp", "--n", "1",
                       "--scale", "1/2", "--b", "1", "--degree", "4")
    doc = json.loads(out)
    doc["witness"]["components"] = ["1", "0", "0", "0"]  # not a violation
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, checked = run_json(capsys, "check-certificate", str(cert))
    assert code == 1 and checked["valid"] is False


def test_immersion_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "emit-immersion", "--model", "ch",
                       "--n", "2", "--b", "-1", "--degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "immersion" and doc["verified"] is True
    f = tmp_path / "imm.json"
    f.write_text(out)
    code, checked = run_json(capsys, "check-certificate", str(f))
    assert code == 0 and checked["valid"] is True


def _jetgen():
    path = SRC.parent / "perfbench" / "jetgen.py"
    spec = importlib.util.spec_from_file_location("perfbench_jetgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def integer_components(imm):
    """Each component as (radicand numerator, radicand denominator, den,
    sorted (ordinal, re, im) numerators)."""
    return [(c.radicand.numerator, c.radicand.denominator, c.den,
             sorted((j, re, im) for j, (re, im) in c.nums.items()))
            for c in imm.components]


@pytest.mark.parametrize("request_", [
    ("--model", "cp", "--n", "2", "--b", "1", "--degree", "4"),
    ("--model", "ch", "--n", "2", "--b", "-1", "--degree", "3"),
    ("--model", "fbh", "--b", "0", "--degree", "3"),
    ("--model", "omega1", "--param", "m=2", "--param", "n=2", "--scale",
     "1/2", "--b", "1", "--degree", "4"),
    ("--model", "cartan_hartogs", "--param", "base=omega1", "--param", "m=1",
     "--param", "n=2", "--b", "1", "--degree", "3"),
    (("psd_jet", 0, 2, 4, 6), "--b", "0", "--degree", "4"),
    (("psd_jet", 1, 3, 3, 8), "--b", "0", "--degree", "3"),
], ids=lambda r: "-".join(map(str, r[0] if isinstance(r[0], tuple)
                              else r[1:2])))
def test_a_read_map_has_the_factored_components(capsys, tmp_path, request_):
    # the document emit-immersion prints reads back into the very integer
    # components factor_immersion built
    from kahlerimm.cli import _immersion_from_json, _rebuild_from_source
    from kahlerimm.immersion import factor_immersion
    if isinstance(request_[0], tuple):
        kind, *args = request_[0]
        jet = tmp_path / "jet.txt"
        jet.write_text(getattr(_jetgen(), kind)(*args))
        request_ = ("--series", str(jet), *request_[1:])
    code, doc = run_json(capsys, "emit-immersion", *request_)
    assert code == 0
    degree = doc["degree"]
    _, series = _rebuild_from_source(doc["source"], degree)
    factored = factor_immersion(series, Fraction(doc["b"]), degree)
    read = _immersion_from_json(doc)
    assert integer_components(read) == integer_components(factored)
    assert len(read.components) == len(doc["components"]) > 0
    assert read == factored


def test_emit_immersion_refusal_prints_certificate(capsys, tmp_path):
    code, out, _ = run(capsys, "emit-immersion", "--model", "cp",
                       "--n", "1", "--scale", "1/2", "--b", "1",
                       "--degree", "4")
    assert code == 1
    assert json.loads(out)["verdict"] == "certified-not-resolvable"
    f = tmp_path / "refusal.json"
    f.write_text(out)
    code, checked = run_json(capsys, "check-certificate", str(f))
    assert code == 0 and checked["valid"] is True


def test_hartogs_certificate_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--model", "hartogs_inv_sqrt",
                       "--c", "1", "--degree", "6", "--jmax", "6",
                       "--kmax", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["criterion"] == "hartogs"
    assert doc["witness"] == {"type": "hartogs", "j": 2, "k": 0,
                              "coefficient": "-1/8"}
    f = tmp_path / "cert.json"
    f.write_text(out)
    code, checked = run_json(capsys, "check-certificate", str(f))
    assert code == 0 and checked["valid"] is True


def test_hartogs_flags_rejected_for_matrix_models(capsys):
    code, _, err = run(capsys, "analyze", "--model", "cp", "--c", "1",
                       "--degree", "3")
    assert code == 2


def test_spec_file_source(capsys, tmp_path):
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(
        {"name": "cp", "parameters": {"n": 1, "scale": "1/2"}, "degree": 4}))
    code, doc = run_json(capsys, "analyze", "--spec", str(spec),
                         "--b", "1", "--degree", "4")
    assert code == 1
    assert doc["source"]["parameters"]["scale"] == "1/2"


PROFILE_ONLY = ("--c/--jmax/--kmax apply only to --model with a radial "
                "Hartogs profile: hartogs_alpha, hartogs_inv_one_plus_xp, "
                "hartogs_inv_sqrt, hartogs_one_minus_xp, rhp_cubic, springer")


def test_spec_source_decides_the_profile_criterion(capsys, tmp_path):
    # a spec that names a Hartogs model is the request of that --model
    spec = tmp_path / "springer.json"
    spec.write_text(json.dumps(
        {"name": "springer", "parameters": {}, "degree": 3}))
    want = run(capsys, "analyze", "--model", "springer", "--c", "1",
               "--degree", "3")
    got = run(capsys, "analyze", "--spec", str(spec), "--c", "1",
              "--degree", "3")
    assert got == want and want[0] == 0
    cert = tmp_path / "cert.json"
    cert.write_text(got[1])
    code, doc = run_json(capsys, "check-certificate", str(cert))
    assert code == 0 and doc["valid"] is True


@pytest.mark.parametrize("name", ["cp", "nope", ["springer"]])
def test_spec_source_without_a_profile_rejects_c(capsys, tmp_path, name):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": name, "parameters": {},
                                "degree": 3}))
    code, out, err = run(capsys, "analyze", "--spec", str(spec), "--c", "1",
                         "--degree", "3")
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": PROFILE_ONLY}


def test_series_source_rejects_c(capsys, tmp_path):
    series = tmp_path / "series.txt"
    series.write_text("1 ; 1 ; 1 ; 0\n")
    code, out, err = run(capsys, "analyze", "--series", str(series), "--c",
                         "1", "--degree", "1")
    assert code == 2 and out == ""
    assert one_json_line(err) == {"error": PROFILE_ONLY}


def test_wallach_command(capsys):
    code, doc = run_json(capsys, "wallach", "--domain", "omega1",
                         "--sizes", "2,3", "--c", "1/5")
    assert code == 0
    assert doc["decision"] is True
    assert doc["membership"] == {"class": "discrete", "k": 1}
    code, doc = run_json(capsys, "wallach", "--r", "2", "--a", "2",
                         "--gamma", "5", "--c", "1/10")
    assert code == 1 and doc["decision"] is False


# omega3 n=5 has rank 2, a = 4 and genus 2(n - 1) = 8, the exponent of the
# generic norm h: det(I - ZZ*) = h^2 for skew Z.  So c * g_B is induced iff
# 8c lies in {0, 2} u (2, oo), and the matrix engine agrees at degree 2: 60
# = 10 + 50 is the dimension of the Schmid K-types with one part
@pytest.mark.parametrize("c,membership,rank", [
    ("1/8", "outside", None), ("1/4", "discrete", 60),
    ("3/8", "continuous", 65), ("1/2", "continuous", 65)])
def test_wallach_decision_matches_the_matrix_verdict_on_omega3(
        capsys, c, membership, rank):
    code, doc = run_json(capsys, "wallach", "--domain", "omega3",
                         "--sizes", "5", "--c", c)
    assert doc["invariants"]["gamma"] == 8
    assert doc["membership"]["class"] == membership
    matrix_code, verdict = run_json(
        capsys, "analyze", "--model", "omega3", "--n", "5", "--scale", c,
        "--b", "1", "--degree", "2")
    assert code == matrix_code == (0 if rank else 1)
    assert verdict["rank"] == rank


# the Cartan-Hartogs fiber is |w|^2 < h^mu for the generic norm h, the unit
# of the Wallach set: at n = 4 the two paths agree on every (mu, c), and
# with N = det(I - ZZ*) = h^2 they differed at (1, 1) and (2, 1/2)
@pytest.mark.parametrize("mu", ["1/2", "1", "2"])
@pytest.mark.parametrize("c", ["1/2", "1"])
def test_wallach_decision_matches_the_matrix_verdict_on_omega3_cartan_hartogs(
        capsys, mu, c):
    code, doc = run_json(capsys, "wallach", "--domain", "omega3",
                         "--sizes", "4", "--mu", mu, "--c", c)
    matrix_code, verdict = run_json(
        capsys, "analyze", "--model", "cartan_hartogs", "--param",
        "base=omega3", "--n", "4", "--param", f"mu={mu}", "--scale", c,
        "--b", "1", "--degree", "3")
    assert doc["decision"] == (matrix_code == 0)
    assert code == matrix_code
    assert verdict["verdict"] == ("resolvable-up-to" if doc["decision"]
                                  else "certified-not-resolvable")


# omega4 at n = 1 has the kernel (1 - |z|^2)^2 of the disc at genus 2, so
# -log of its norm would be 2|z|^2 + |z|^4 + ..., twice the disc's unit;
# the base is refused as at n = 2, and the wallach path refuses it too.
# The default n of cartan_hartogs is 1.
@pytest.mark.parametrize("size", [[], ["--param", "n=1"], ["--param", "n=2"]],
                         ids=["default", "n1", "n2"])
def test_cartan_hartogs_refuses_omega4_bases_below_three(capsys, size):
    code, out, err = run(capsys, "analyze", "--model", "cartan_hartogs",
                         "--param", "base=omega4", *size, "--b", "1",
                         "--degree", "2")
    assert code == 2 and out == ""
    assert "omega4 with n=" in one_json_line(err)["error"]
    if size != ["--param", "n=2"]:
        code, out, err = run(capsys, "wallach", "--domain", "omega4",
                             "--sizes", "1", "--c", "1", "--mu", "1")
        assert code == 2 and out == "" and one_json_line(err)


# the domain table rejects a size with the model catalog's message
@pytest.mark.parametrize("argv,message", [
    (("--domain", "omega2", "--sizes", "0"), "omega2 needs a positive size"),
    (("--domain", "omega2", "--sizes", "-3"), "omega2 needs a positive size"),
    (("--domain", "omega3", "--sizes", "1"), "omega3 needs size >= 2"),
    (("--domain", "omega3", "--sizes", "0"), "omega3 needs size >= 2"),
    (("--domain", "omega4", "--sizes", "0"), "omega4 needs a positive size"),
    (("--domain", "omega4", "--sizes", "1"),
     "omega4 with n=1 is the disc; use omega1"),
    (("--domain", "omega4", "--sizes", "1", "--mu", "1"),
     "omega4 with n=1 is the disc; use omega1"),
    (("--domain", "omega4", "--sizes", "2"),
     "omega4 with n=2 is not irreducible"),
    (("--domain", "omega1", "--sizes", "-1,2"),
     "omega1 needs positive sizes"),
])
def test_wallach_rejects_a_domain_size_with_the_catalog_message(
        capsys, argv, message):
    code, out, err = run(capsys, "wallach", *argv, "--c", "1")
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "ValueError: " + message}) + "\n"


def test_a_cartan_hartogs_base_size_is_rejected_with_the_catalog_message(
        capsys):
    # minus_log_norm reads the base's sizes through the domain table
    code, out, err = run(capsys, "analyze", "--model", "cartan_hartogs",
                         "--param", "base=omega1", "--param", "m=0",
                         "--b", "1", "--degree", "2")
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "bad parameters for cartan_hartogs: "
                                       "omega1 needs positive sizes"}) + "\n"


@pytest.mark.parametrize("c", ["1e-20000000", "1E4301", "1e4_301"])
def test_an_exponent_past_the_bound_is_an_input_error(capsys, c):
    # read as it is written, the value would be ten to that power
    code, out, err = run(capsys, "wallach", "--domain", "omega1", "--sizes",
                         "2,2", "--c", c)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": f"ValueError: exponent of {c!r} "
                                       f"exceeds 4300 in magnitude"}) + "\n"


def test_wallach_cartan_hartogs_mode(capsys):
    code, doc = run_json(capsys, "wallach", "--r", "2", "--a", "2",
                         "--gamma", "5", "--c", "1", "--mu", "1/2")
    assert code == 1
    assert doc["failing_m"] == 0


def test_cigar_command(capsys):
    code, doc = run_json(capsys, "cigar", "--c", "1", "--nmax", "6")
    assert code == 1
    assert doc["first_negative_n"] == 4
    assert doc["coefficient"] == "-1/288"
    assert abs(doc["limit"]["float_value"] - 0.8069747108) < 1e-9


def test_cigar_command_past_the_float_range(capsys):
    # c = 10^400 is past the float range and the exact partial sum has
    # more digits than the interpreter prints by default
    code, out, err = run(capsys, "cigar", "--c", "1e400", "--nmax", "2")
    assert err == ""
    doc = json.loads(out)
    assert code == 0 and doc["first_negative_n"] is None
    assert doc["c"] == "1" + "0" * 400
    assert doc["limit"]["float_value"] == 1.0
    assert "Infinity" not in out and "NaN" not in out


def test_bell_command(capsys):
    code, doc = run_json(capsys, "bell", "--n", "4",
                         "--x=-1,-1/2,-2/3,-3/2")
    assert code == 0
    assert doc["value"] == "-1/12"
    code, doc = run_json(capsys, "bell", "--n", "3", "--k", "2", "--x=1,1")
    assert doc["value"] == "3"


def test_einstein_command(capsys):
    code, doc = run_json(capsys, "einstein", "--model", "cp", "--n", "2",
                         "--b", "1", "--degree", "4")
    assert code == 0
    assert doc["lambda"] == "6"
    code, doc = run_json(capsys, "einstein", "--model", "cigar",
                         "--degree", "4")
    assert code == 1
    assert doc["not_einstein_at"]["m_j"] == [2]


def test_models_listing(capsys):
    code, doc = run_json(capsys, "models")
    assert code == 0
    assert "cp" in doc["models"]
    assert "omega4" in doc["models"]
    assert doc["models"]["cigar"]["parameters"]


def test_series_degree_too_low(capsys, tmp_path):
    f = tmp_path / "series.txt"
    f.write_text("1 ; 1 ; 1 ; 0\n")
    code, _, err = run(capsys, "analyze", "--series", str(f),
                       "--degree", "5")
    assert code == 2


def one_json_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def test_hartogs_alpha_defaults_alpha_to_one(capsys):
    base = ("analyze", "--model", "hartogs_alpha", "--c", "1", "--degree", "5")
    code, default = run_json(capsys, *base)
    code1, explicit = run_json(capsys, *base, "--param", "alpha=1")
    assert code == code1 == 0
    for key in ("verdict", "degree", "rank", "witness"):
        assert default[key] == explicit[key], key


def test_non_hermitian_series_rejected(capsys, tmp_path):
    f = tmp_path / "series.txt"
    # a_{12} = 5 but no a_{21}; then a_{31} but no a_{13}, above --degree 2
    for text in ("1 ; 2 ; 5 ; 0\n", "1 ; 1 ; 1 ; 0\n3 ; 1 ; 1/7 ; 1/2\n"):
        f.write_text(text)
        for command in ("analyze", "emit-immersion"):
            code, out, err = run(capsys, command, "--series", str(f),
                                 "--degree", "2")
            assert code == 2 and out == "", text
            assert "Hermitian" in one_json_line(err)["error"], text


@pytest.mark.parametrize("text,message", [
    ("1 ; 1 ; 1 ; 0\n2 ; 2 ; 1/0 ; 0\n",
     "ValueError: line 2: Fraction(1, 0)"),
    ("1,0 ; 1,0 ; 1 ; 0\n2,-1 ; 1,0 ; 1 ; 0\n3,0 ; 0,3 ; 1 ; 0\n",
     "ValueError: line 2: negative exponent in '2,-1'"),
    (f"1 ; 1 ; {MESSY} ; 0\n",
     f"ValueError: line 1: Invalid literal for Fraction: {MESSY!r}"),
    # no file: {path} is the repr of its name
    (None, "cannot read series file: [Errno 2] No such file or directory: "
           "{path}"),
])
def test_malformed_series_file_exit_two(capsys, tmp_path, text, message):
    f = tmp_path / "series.txt"
    if text is not None:
        f.write_text(text, encoding="utf-8")
    message = message.replace("{path}", repr(str(f)))
    for command in ("analyze", "emit-immersion"):
        code, out, err = run(capsys, command, "--series", str(f),
                             "--degree", "1")
        assert code == 2 and out == ""
        assert err == json.dumps({"error": message}) + "\n"


def test_hartogs_arity_zero_rejected(capsys):
    for extra in ((), ("--c", "1")):
        code, out, err = run(capsys, "analyze", "--model", "springer",
                             "--n", "0", "--degree", "3", *extra)
        assert code == 2 and out == ""
        assert "error" in one_json_line(err)


def _witness_cert(capsys, tmp_path, mutate):
    code, out, _ = run(capsys, "analyze", "--model", "cp", "--n", "1",
                       "--scale", "1/2", "--b", "1", "--degree", "4")
    assert code == 1
    doc = json.loads(out)
    mutate(doc)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    return run(capsys, "check-certificate", str(cert))


def test_matrix_witness_with_too_few_components(capsys, tmp_path):
    def drop(doc):
        doc["witness"]["components"] = doc["witness"]["components"][:2]
    code, out, err = _witness_cert(capsys, tmp_path, drop)
    assert code == 2 and out == ""
    assert "components" in one_json_line(err)["error"]


def test_witness_given_as_list(capsys, tmp_path):
    def listify(doc):
        doc["witness"] = list(doc["witness"].values())
    code, out, err = _witness_cert(capsys, tmp_path, listify)
    assert code == 2 and out == ""
    assert "witness" in one_json_line(err)["error"]


# requests that emit a matrix certificate, a Hartogs certificate and an
# immersion, with their exit codes
MATRIX = (1, "analyze", "--model", "cp", "--n", "1", "--scale", "1/2",
          "--b", "1", "--degree", "4")
HARTOGS = (1, "analyze", "--model", "hartogs_inv_sqrt", "--c", "1",
           "--degree", "6", "--jmax", "6", "--kmax", "3")
IMMERSION = (0, "emit-immersion", "--model", "ch", "--n", "2", "--b", "-1",
             "--degree", "3")
POSITIVE = (0, "analyze", "--model", "flat", "--n", "2", "--b", "0",
            "--degree", "3")
POSITIVE_HARTOGS = (0, "analyze", "--model", "hartogs_alpha", "--c", "1",
                    "--degree", "5")
# the emit-immersion refusal: the MATRIX request has no map
REFUSAL = (1, "emit-immersion", *MATRIX[2:])
# ch n=1 into flat space: components with radicands 1 and 1/2
IMMERSION_FLAT = (0, "emit-immersion", "--model", "ch", "--n", "1",
                  "--b", "0", "--degree", "2")
# the flat-target jet of cp n=1 through degree 2 is |z|^2 - |z|^4/2: no
# holomorphic map into C^N has it (the witness value is -1/2)
CP_FLAT = (1, "analyze", "--model", "cp", "--n", "1", "--b", "0",
           "--degree", "2")


def emitted_by(request, mutate):
    """``mutate``, applied to the document that ``request`` emits."""
    mutate.request = request
    return mutate


def forged_immersion(sign, radicand):
    """An immersion document for the CP_FLAT source: components (+1, 1, z)
    and (sign, radicand, z^2), whose pulled-back norm is |z|^2 - |z|^4/2
    when sign * radicand = -1/2."""
    def forge(doc):
        comps = [{"sign": s, "radicand": r,
                  "series": [{"m": [m], "re": "1", "im": "0"}]}
                 for s, r, m in ((1, "1", 1), (sign, radicand, 2))]
        return {"schema_version": 1, "kind": "immersion", "verified": True,
                "source": doc["source"], "b": "0", "degree": 2, "arity": 1,
                "target": {"kind": "flat"}, "components": comps}
    return emitted_by(CP_FLAT, forge)


def each_term(doc, change):
    """``doc`` with ``change`` applied to every term of every component."""
    return dict(doc, components=[
        dict(comp, series=[change(t) for t in comp["series"]])
        for comp in doc["components"]])


@pytest.mark.parametrize("mutate", [
    lambda doc: [doc],                        # top level is a list
    lambda doc: dict(doc, degree=None),
    lambda doc: dict(doc, degree="four"),
    lambda doc: dict(doc, degree=2.5),
    lambda doc: dict(doc, b=None),
    emitted_by(HARTOGS, lambda doc: dict(doc, source=["hartogs_inv_sqrt"])),
    emitted_by(HARTOGS, lambda doc: dict(doc, source="hartogs_inv_sqrt")),
    emitted_by(HARTOGS, lambda doc: dict(doc, jmax=None)),
    emitted_by(HARTOGS, lambda doc: dict(doc, c=None)),
    emitted_by(IMMERSION, lambda doc: dict(
        doc, source=list(doc["source"].values()))),
    emitted_by(IMMERSION, lambda doc: dict(doc, components=None)),
    emitted_by(IMMERSION, lambda doc: dict(doc, components=[
        dict(doc["components"][0], series=None)])),
    emitted_by(IMMERSION, lambda doc: dict(doc, target="curved")),
    emitted_by(IMMERSION, lambda doc: dict(doc, arity=None)),
    emitted_by(IMMERSION, lambda doc: each_term(
        doc, lambda t: dict(t, m=t["m"] + [0]))),
    emitted_by(IMMERSION, lambda doc: each_term(
        doc, lambda t: dict(t, m=t["m"][:1]))),
    emitted_by(IMMERSION, lambda doc: each_term(
        doc, lambda t: dict(t, re="1/0"))),
    lambda doc: dict(doc, verdict="maybe"),
    lambda doc: dict(doc, verdict="resolvable-up-to", criterion=None),
    lambda doc: dict(doc, verdict="resolvable-up-to", rank=True),
    forged_immersion(1, "-1/2"),
    forged_immersion(-1, "1/2"),
    forged_immersion(7, "-1/2"),
    emitted_by(IMMERSION, lambda doc: dict(doc, target={"kind": "flat"})),
    emitted_by(IMMERSION, lambda doc: dict(doc, components=[
        dict(doc["components"][0], sign=1.0)] + doc["components"][1:])),
    emitted_by(POSITIVE_HARTOGS, lambda doc: dict(doc, jmax=0, degree=0)),
    emitted_by(HARTOGS, lambda doc: dict(doc, witness=dict(doc["witness"],
                                                           j="2"))),
    # JSON true is not the integer 1: exponents, radicands and parts
    emitted_by(IMMERSION_FLAT, lambda doc: each_term(
        doc, lambda t: dict(t, m=[True if e == 1 else e for e in t["m"]]))),
    emitted_by(IMMERSION_FLAT, lambda doc: dict(doc, components=[
        dict(doc["components"][0], radicand=True)] + doc["components"][1:])),
    emitted_by(IMMERSION_FLAT, lambda doc: each_term(
        doc, lambda t: dict(t, re=True))),
    # every component's sign is the JSON integer 1
    forged_immersion(0, "1/2"),
    forged_immersion(7, "1/2"),
    forged_immersion(True, "1/2"),
    forged_immersion("1", "1/2"),
    # the profile criterion decides only c > 0
    emitted_by(HARTOGS, lambda doc: dict(doc, c="0")),
    emitted_by(POSITIVE_HARTOGS, lambda doc: dict(doc, c="-1/2")),
])
def test_malformed_certificate_exit_two(capsys, tmp_path, mutate):
    expected, *request = getattr(mutate, "request", MATRIX)
    code, out, _ = run(capsys, *request)
    assert code == expected
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(mutate(json.loads(out))))
    code, out, err = run(capsys, "check-certificate", str(cert))
    assert code == 2 and out == ""
    assert "error" in one_json_line(err)


@pytest.mark.parametrize("spec,message", [
    pytest.param([{"name": "cp", "parameters": {"n": 1}, "degree": 4}],
                 "a spec file must be a JSON object", id="spec0"),
    pytest.param({"name": "cp", "parameters": ["n", 1], "degree": 4},
                 "spec parameters must be a JSON object", id="spec1"),
    pytest.param({"name": "cp", "parameters": {"n": 1}, "degree": None},
                 "spec degree must be an integer >= 0, got None", id="spec2"),
    # text is written as it is; no file: {path} is the repr of its name
    pytest.param('{"name": "cp",', "cannot read spec file: Expecting "
                 "property name enclosed in double quotes: line 1 column 15 "
                 "(char 14)", id="not-json"),
    pytest.param(None, "cannot read spec file: [Errno 2] No such file or "
                 "directory: {path}", id="no-file"),
])
def test_malformed_spec_exit_two(capsys, tmp_path, spec, message):
    f = tmp_path / "spec.json"
    if spec is not None:
        f.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    code, out, err = run(capsys, "analyze", "--spec", str(f), "--b", "1",
                         "--degree", "4")
    assert code == 2 and out == ""
    assert one_json_line(err) == {
        "error": message.replace("{path}", repr(str(f)))}


# ---------------------------------------------------------------------------
# one request pipeline: every source is built and transformed only through
# --degree
# ---------------------------------------------------------------------------

# an arity-2 jet through degree 2, and its terms of degree 3 and 4
JET_LOW = ("1,0 ; 1,0 ; 1 ; 0\n0,1 ; 0,1 ; 1 ; 0\n"
           "1,0 ; 0,1 ; 1/3 ; 1/4\n0,1 ; 1,0 ; 1/3 ; -1/4\n"
           "1,1 ; 1,1 ; 1/2 ; 0\n2,0 ; 2,0 ; 1/5 ; 0\n")
JET_HIGH = ("2,1 ; 1,2 ; 1/7 ; 1/2\n1,2 ; 2,1 ; 1/7 ; -1/2\n"
            "4,0 ; 4,0 ; -9 ; 0\n")


def test_a_series_is_transformed_only_through_degree(capsys, tmp_path,
                                                     monkeypatch):
    # the package re-exports the function ``resolvability`` under the name
    resolvability = importlib.import_module("kahlerimm.resolvability")
    seen = []
    transform = resolvability.b_transform

    def recorded(d, b):
        seen.append(d.d)
        return transform(d, b)

    monkeypatch.setattr(resolvability, "b_transform", recorded)
    f = tmp_path / "jet.txt"
    f.write_text(JET_LOW + JET_HIGH)
    code, _ = run_json(capsys, "analyze", "--series", str(f), "--b", "1",
                       "--degree", "2")
    assert code == 0 and seen == [2]


@pytest.mark.parametrize("b,expected", [("1", 0), ("-1", 1)])
def test_terms_above_degree_change_nothing(capsys, tmp_path, b, expected):
    full, cut = tmp_path / "full.txt", tmp_path / "cut.txt"
    full.write_text(JET_LOW + JET_HIGH)
    cut.write_text(JET_LOW)
    for command in ("analyze", "emit-immersion"):
        docs = []
        for f in (full, cut):
            code, out, _ = run(capsys, command, "--series", str(f),
                               "--b", b, "--degree", "2")
            assert code == expected, (command, f.name)
            docs.append(json.loads(out))
            (tmp_path / "doc.json").write_text(out)
            code, checked = run_json(capsys, "check-certificate",
                                     str(tmp_path / "doc.json"))
            assert code == 0 and checked["valid"] is True, (command, f.name)
        assert docs[0].pop("source") != docs[1].pop("source")
        assert docs[0] == docs[1], command


@pytest.mark.parametrize("model", [
    {"name": "cp", "parameters": {"n": 1, "scale": "1/2"}, "b": "1"},
    {"name": "ch", "parameters": {"n": 2}, "b": "-1"},
])
def test_a_spec_degree_is_a_truncation_not_a_build_degree(capsys, tmp_path,
                                                          model):
    outputs = {}
    for degree in (5, 3, 2):
        f = tmp_path / f"spec{degree}.json"
        f.write_text(json.dumps({"name": model["name"], "degree": degree,
                                 "parameters": model["parameters"]}))
        for command in ("analyze", "emit-immersion"):
            outputs[degree, command] = run(capsys, command, "--spec", str(f),
                                           "--b", model["b"], "--degree", "3")
    for command in ("analyze", "emit-immersion"):
        assert outputs[5, command] == outputs[3, command]
        assert outputs[3, command][0] in (0, 1) and outputs[3, command][1]
        code, out, err = outputs[2, command]
        assert code == 2 and out == ""
        assert one_json_line(err) == {
            "error": "ValueError: requested degree 3 exceeds truncation 2"}


@pytest.mark.parametrize("c", ["0", "-1", "-1/2"])
def test_analyze_c_must_be_positive(capsys, c):
    code, out, err = run(capsys, "analyze", "--model", "springer", "--c", c,
                         "--degree", "3")
    assert code == 2 and out == ""
    assert one_json_line(err) == {
        "error": f"c must be a positive rational, got {c}"}


def test_degree_zero_rejected_for_every_model(capsys):
    from kahlerimm.models import MODELS
    for name in sorted(MODELS):
        code, out, err = run(capsys, "analyze", "--model", name,
                             "--degree", "0")
        assert code == 2 and out == "", name
        assert "degree" in one_json_line(err)["error"], name


def test_every_model_builds_at_degree_one(capsys):
    from kahlerimm.models import MODELS
    for name in sorted(MODELS):
        code, out, err = run(capsys, "analyze", "--model", name,
                             "--degree", "1")
        assert code in (0, 1), (name, err)
        assert json.loads(out)["degree"] == 1, name


@pytest.mark.parametrize("scale", ["0", "-1", "-1/2"])
def test_nonpositive_scale_rejected_for_every_model(capsys, scale):
    from kahlerimm.models import MODELS
    for name in sorted(MODELS):
        paths = [()] + ([("--c", "1")] if MODELS[name].profile else [])
        for extra in paths:
            code, out, err = run(capsys, "analyze", "--model", name,
                                 f"--scale={scale}", "--degree", "2", *extra)
            assert code == 2 and out == "", (name, extra)
            assert "scale" in one_json_line(err)["error"], (name, extra)


@pytest.mark.parametrize("argv", [
    ("analyze", "--model", "cp", "--b", "1/0", "--degree", "2"),
    ("analyze", "--model", "springer", "--c", "1/0", "--degree", "2"),
    ("analyze", "--model", "cp", "--scale", "1/0", "--degree", "2"),
    ("analyze", "--model", "hartogs_alpha", "--param", "alpha=1/0",
     "--degree", "2"),
    ("wallach", "--domain", "omega1", "--sizes", "2,2", "--c", "1/0"),
    ("cigar", "--c", "1/0", "--nmax", "3"),
    ("bell", "--n", "2", "--x=1/0,1"),
])
def test_zero_denominator_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "zero denominator" in one_json_line(err)["error"]


@pytest.mark.parametrize("argv", [
    ("--model", "springer", "--degree", "2"),
    ("--model", "springer", "--c", "1", "--degree", "2"),
    ("--model", "cp", "--degree", "2"),
])
def test_unknown_parameter_exit_two(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv, "--param", "foo=1")
    assert code == 2 and out == ""
    assert one_json_line(err)["error"] == (
        "bad parameters for " + argv[1] + ": unknown parameter 'foo'; "
        "accepted: n, scale")


def test_unknown_parameter_same_message_for_every_model(capsys):
    from kahlerimm.models import MODELS
    for name in sorted(MODELS):
        accepted = ", ".join(sorted(set(MODELS[name].schema) | {"scale"}))
        paths = [()] + ([("--c", "1")] if MODELS[name].profile else [])
        for extra in paths:
            code, out, err = run(capsys, "analyze", "--model", name,
                                 "--param", "foo=1", "--degree", "2", *extra)
            assert code == 2 and out == "", (name, extra)
            assert one_json_line(err)["error"] == (
                f"bad parameters for {name}: unknown parameter 'foo'; "
                f"accepted: {accepted}"), (name, extra)


def test_zero_diagonal_complex_jet_certified(capsys, tmp_path):
    # a_12 = i, a_21 = -i and no diagonal: the 2x2 block witness
    f = tmp_path / "series.txt"
    f.write_text("1 ; 2 ; 0 ; 1\n2 ; 1 ; 0 ; -1\n")
    code, out, err = run(capsys, "analyze", "--series", str(f),
                         "--degree", "2")
    assert code == 1, err
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, doc = run_json(capsys, "check-certificate", str(cert))
    assert code == 0 and doc["valid"] is True


def check_edited(capsys, tmp_path, request, edit):
    """check-certificate on the document that ``request`` emits, after
    ``edit``: (exit code, stdout document)."""
    expected, *argv = request
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(edit(json.loads(out))))
    return run_json(capsys, "check-certificate", str(cert))


@pytest.mark.parametrize("request_", [MATRIX, HARTOGS])
def test_flipped_verdict_rejected(capsys, tmp_path, request_):
    code, doc = check_edited(capsys, tmp_path, request_, lambda doc: dict(
        doc, verdict="resolvable-up-to", rank=999))
    assert code == 1 and doc["valid"] is False
    code, doc = check_edited(capsys, tmp_path, request_, lambda doc: dict(
        doc, verdict="resolvable-up-to", witness=None,
        rank=None if doc["criterion"] == "hartogs" else 0))
    assert code == 1 and doc["valid"] is False


@pytest.mark.parametrize("request_", [POSITIVE, POSITIVE_HARTOGS])
def test_edited_rank_rejected(capsys, tmp_path, request_):
    code, doc = check_edited(capsys, tmp_path, request_, lambda doc: doc)
    assert code == 0 and doc["valid"] is True
    code, doc = check_edited(capsys, tmp_path, request_, lambda doc: dict(
        doc, rank=(doc["rank"] or 0) + 1))
    assert code == 1 and doc["valid"] is False


def test_degree_zero_rejected_for_series(capsys, tmp_path):
    f = tmp_path / "series.txt"
    f.write_text("1 ; 1 ; 1 ; 0\n")
    for command in ("analyze", "emit-immersion"):
        code, out, err = run(capsys, command, "--series", str(f),
                             "--degree", "0")
        assert code == 2 and out == "", command
        assert "degree" in one_json_line(err)["error"], command
    code, out, _ = run(capsys, "analyze", "--series", str(f), "--degree", "1")
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(dict(json.loads(out), degree=0, rank=0)))
    code, out, err = run(capsys, "check-certificate", str(cert))
    assert code == 2 and out == ""
    assert "degree" in one_json_line(err)["error"]


@pytest.mark.parametrize("request_", [POSITIVE, POSITIVE_HARTOGS])
@pytest.mark.parametrize("edit", [
    lambda doc: dict(doc, schema_version=2),
    lambda doc: dict(doc, note="added"),
    lambda doc: dict(doc, witness={"type": doc["criterion"]}),
    lambda doc: dict(doc, b="0/1"),
    # an added key on the matrix document, a rewritten one on the Hartogs
    lambda doc: dict(doc, c="2/2"),
])
def test_positive_certificate_valid_only_as_printed(capsys, tmp_path,
                                                    request_, edit):
    code, doc = check_edited(capsys, tmp_path, request_, edit)
    assert code == 1 and doc["valid"] is False


@pytest.mark.parametrize("bounds", [("--jmax", "0", "--kmax", "3"),
                                    ("--jmax", "6", "--kmax", "-1")])
def test_empty_hartogs_scan_exit_two(capsys, bounds):
    code, out, err = run(capsys, "analyze", "--model", "hartogs_inv_sqrt",
                         "--c", "1", "--degree", "6", *bounds)
    assert code == 2 and out == ""
    assert "max must be an integer >= " in one_json_line(err)["error"]


def test_every_model_certificate_round_trips(capsys, tmp_path):
    from kahlerimm.models import MODELS
    cert = tmp_path / "cert.json"
    for name in sorted(MODELS):
        paths = [("analyze",), ("emit-immersion",)] + (
            [("analyze", "--c", "1")] if MODELS[name].profile else [])
        for command, *extra in paths:
            code, out, err = run(capsys, command, "--model", name,
                                 "--degree", "2", *extra)
            assert code in (0, 1), (name, command, extra, err)
            cert.write_text(out)
            code, doc = run_json(capsys, "check-certificate", str(cert))
            assert code == 0 and doc["valid"] is True, (name, extra)


def with_radicand(old, new):
    return lambda doc: dict(doc, components=[
        dict(comp, radicand=new if comp["radicand"] == old
             else comp["radicand"]) for comp in doc["components"]])


@pytest.mark.parametrize("request_, edit", [
    (MATRIX, lambda doc: dict(doc, rank=999, schema_version=2, note="added")),
    (MATRIX, lambda doc: dict(doc, witness=dict(doc["witness"],
                                                basis=[[9]] * 4))),
    (IMMERSION, lambda doc: dict(doc, verified=False, schema_version=7,
                                 note="added")),
    (HARTOGS, lambda doc: dict(doc, note="added")),
    (IMMERSION_FLAT, with_radicand("1/2", "2/4")),
], ids=["matrix-rank-schema-key", "matrix-basis",
        "immersion-verified-schema-key", "hartogs-key", "immersion-radicand"])
def test_document_valid_only_as_printed(capsys, tmp_path, request_, edit):
    code, doc = check_edited(capsys, tmp_path, request_, edit)
    assert code == 1 and doc["valid"] is False


@pytest.mark.parametrize("argv", [
    ("analyze", "--model", "cp", "--param", "n=1", "--param", "n=2",
     "--degree", "2"),
    ("analyze", "--model", "cp", "--n", "1", "--param", "n=2",
     "--degree", "2"),
    ("analyze", "--model", "cp", "--scale", "1/2", "--param", "scale=1/3",
     "--degree", "2"),
    ("analyze", "--model", "springer", "--n", "1", "--param", "n=1",
     "--c", "1", "--degree", "2"),
    ("emit-immersion", "--model", "ch", "--n", "1", "--param", "n=1",
     "--degree", "2"),
    ("einstein", "--model", "cp", "--n", "2", "--param", "n=2",
     "--degree", "2"),
    ("einstein", "--model", "spaceform", "--b", "1", "--param", "b=1",
     "--degree", "2"),
])
def test_parameter_given_twice_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "given twice" in one_json_line(err)["error"]


@pytest.mark.parametrize("arity", ["n=0", "m=0"])
def test_fbh_zero_arity_exit_two(capsys, arity):
    code, out, err = run(capsys, "analyze", "--model", "fbh", "--param",
                         arity, "--degree", "2")
    assert code == 2 and out == ""
    assert "fbh needs" in one_json_line(err)["error"]


# ---------------------------------------------------------------------------
# edit fuzz: one random edit of an emitted document never validates unless
# it is the document kahlerimm prints for the request it names
# ---------------------------------------------------------------------------

FUZZED = {"matrix-": MATRIX, "matrix+": POSITIVE, "hartogs-": HARTOGS,
          "hartogs+": POSITIVE_HARTOGS, "immersion": IMMERSION,
          "refusal": REFUSAL}
# replacement leaves: JSON values of every type, rationals spelled two ways
LEAVES = [None, True, False, 0, 1, 2, -1, "", "0", "1", "2", "-1", "1/2",
          "2/4", "x", [], {}]


def call(*argv):
    """main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def emitted(kind):
    expected, *argv = FUZZED[kind]
    code, out, err = call(*argv)
    assert code == expected, err
    return out


def places(node, path=(), parent=None):
    """(path, node, parent node) of ``node`` and every node under it."""
    yield path, node, parent
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from places(child, path + (key,), node)


def edit_spots(doc, how):
    """Paths ``edited`` can apply ``how`` to: a scalar leaf ("leaf"), an
    object ("add") or a key of an object ("drop")."""
    return [path for path, node, parent in places(doc)
            if (how == "leaf" and not isinstance(node, (dict, list)))
            or (how == "add" and isinstance(node, dict))
            or (how == "drop" and isinstance(parent, dict))]


def edited(doc, path, how, value):
    """``doc`` with the leaf at ``path`` replaced by ``value`` ("leaf"),
    the object at ``path`` given the key "added" ("add"), or the key at
    ``path`` dropped ("drop")."""
    if how == "add":
        path, how = path + ("added",), "leaf"
    *up, last = path
    node = doc
    for key in up:
        node = node[key]
    if how == "leaf":
        node[last] = value
    else:
        del node[last]
    return doc


def printed_for(doc):
    """stdout of the command that emits a document for the request
    ``doc`` names (a model source)."""
    source = doc["source"]
    argv = ["emit-immersion" if doc["kind"] == "immersion" else "analyze",
            "--model", source["model"], f"--b={doc['b']}",
            f"--degree={doc['degree']}"]
    argv += [f"--param={k}={v}" for k, v in source["parameters"].items()]
    if doc.get("criterion") == "hartogs":
        argv += [f"--c={doc['c']}", f"--jmax={doc['jmax']}",
                 f"--kmax={doc['kmax']}"]
    return call(*argv)[1]


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(FUZZED)),
       how=st.sampled_from(["leaf", "add", "drop"]),
       value=st.sampled_from(LEAVES), data=st.data())
def test_edited_document_never_validates(tmp_path_factory, kind, how, value,
                                         data):
    doc = json.loads(emitted(kind))
    path = data.draw(st.sampled_from(edit_spots(doc, how)))
    doc = edited(doc, path, how, value)
    cert = tmp_path_factory.getbasetemp() / "fuzzed.json"
    cert.write_text(json.dumps(doc))
    code, out, err = call("check-certificate", str(cert))
    if code == 2:
        assert out == "" and "error" in one_json_line(err)
        return
    assert code in (0, 1) and json.loads(out)["valid"] is (code == 0)
    if code == 0:
        # the edit named another request, and this is its very document
        assert printed_for(doc) == json.dumps(doc, indent=2,
                                              sort_keys=True) + "\n"


def unitary_mix(comps):
    """(3/5 f1 + 4/5 f2, -4/5 f1 + 3/5 f2) in place of (f1, f2) = (z2, z1),
    a rational unitary mix of two components of equal radicand."""
    for comp, (a, b) in zip(comps, [("3/5", "4/5"), ("-4/5", "3/5")]):
        comp["series"] = [{"m": [0, 1], "re": a, "im": "0"},
                          {"m": [1, 0], "re": b, "im": "0"}]


@pytest.mark.parametrize("edit", [
    lambda comps: comps[0]["series"][0].update(re="-1"),
    lambda comps: comps[1]["series"][0].update(re="0", im="1"),
    lambda comps: comps.reverse(),
    unitary_mix,
], ids=["negated", "times-i", "swapped", "unitary-mix"])
def test_an_equivalent_map_is_not_the_printed_one(tmp_path, edit):
    # each edit keeps the pulled-back norm of the map z -> (z2, z1)
    doc = json.loads(emitted("immersion"))
    assert [(c["radicand"], c["series"]) for c in doc["components"]] == [
        ("1", [{"m": [0, 1], "re": "1", "im": "0"}]),
        ("1", [{"m": [1, 0], "re": "1", "im": "0"}])]
    edit(doc["components"])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = call("check-certificate", str(cert))
    assert (code, err) == (1, "") and json.loads(out)["valid"] is False


def test_an_immersion_is_decided_without_the_forward_sum(tmp_path,
                                                         monkeypatch):
    # the backward pass decides every immersion document, valid or not
    import kahlerimm.immersion

    def forward_sum(imm):
        raise AssertionError("the forward sum ran")
    monkeypatch.setattr(kahlerimm.immersion, "_pullback_pass", forward_sum)
    doc = json.loads(emitted("immersion"))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = call("check-certificate", str(cert))
    assert (code, err) == (0, "") and json.loads(out)["valid"] is True
    doc["components"][0]["series"][0]["re"] = "-1"
    cert.write_text(json.dumps(doc))
    code, out, err = call("check-certificate", str(cert))
    assert (code, err) == (1, "") and json.loads(out)["valid"] is False


@functools.lru_cache(maxsize=None)
def emitted_omega1_degree_7():
    # c * genus = 2 is in the continuous Wallach part: full rank, one
    # component per monomial of degree 1..7 in 4 variables
    code, out, err = call("emit-immersion", "--model", "omega1", "--param",
                          "m=2", "--param", "n=2", "--scale", "1/2", "--b",
                          "1", "--degree", "7")
    assert code == 0, err
    return out


@pytest.mark.parametrize("edit", [
    None,
    # the pullback is unchanged, so the shape test alone refuses it
    lambda comps: next(c for c in comps if len(c["series"]) == 1)[
        "series"][0].update(re="-1"),
    lambda comps: next(c for c in comps if len(c["series"]) > 1)[
        "series"][1].update(re="-1"),
], ids=["printed", "monomial-negated", "cross-term-edited"])
def test_a_329_component_immersion_round_trip(tmp_path, edit):
    doc = json.loads(emitted_omega1_degree_7())
    assert len(doc["components"]) == 329
    if edit is not None:
        edit(doc["components"])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    code, out, err = call("check-certificate", str(cert))
    assert err == "" and json.loads(out)["valid"] is (edit is None)
    assert code == (0 if edit is None else 1)


# ---------------------------------------------------------------------------
# argv: one pass over the command table
# ---------------------------------------------------------------------------

def test_value_after_a_space_may_start_with_a_dash(capsys):
    base = ("analyze", "--model", "ch", "--n", "2", "--degree", "3")
    code, spaced, _ = run(capsys, *base, "--b", "-1/2")
    assert code == 0 and json.loads(spaced)["rank"] == 9
    assert run(capsys, *base, "--b=-1/2") == (0, spaced, "")
    code, doc = run_json(capsys, "bell", "--n", "4",
                         "--x", "-1,-1/2,-2/3,-3/2")
    assert code == 0 and doc["value"] == "-1/12"
    # the sizes reach the domain table, which rejects the size -1
    code, out, err = run(capsys, "wallach", "--domain", "omega1",
                         "--sizes", "-1,2", "--c", "1")
    assert code == 2 \
        and "omega1 needs positive sizes" in one_json_line(err)["error"]


@pytest.mark.parametrize("default,explicit", [
    (("analyze", "--model", "cp", "--n", "1", "--degree", "3"),
     ("--b", "0")),
    (("emit-immersion", "--model", "ch", "--n", "1", "--degree", "2"),
     ("--b", "0")),
    (("wallach", "--r", "2", "--a", "2", "--gamma", "5", "--c", "1/10"),
     ("--dim", "1")),
    (("cigar", "--c", "1", "--nmax", "4"), ("--terms", "12")),
    (("einstein", "--n", "1", "--degree", "3"), ("--model", "spaceform")),
])
def test_option_defaults(capsys, default, explicit):
    code, out, err = run(capsys, *default)
    assert code in (0, 1) and err == ""
    assert run(capsys, *default, *explicit) == (code, out, err)


@pytest.mark.parametrize("argv,message", [
    ((), "a command is required: analyze, "),
    (("nope",), "unknown command 'nope'"),
    (("analyze", "--degree", "x"), "--degree needs an integer, got 'x'"),
    (("analyze", "--model", "cp", "--degree=2.5"),
     "--degree needs an integer, got '2.5'"),
    (("cigar", "--c", "1", "--nmax", ""), "--nmax needs an integer"),
    (("analyze", "--model", "cp", "--deg", "2"),
     "unknown option '--deg' for analyze"),
    (("analyze", "--model", "cp", "-d", "2"), "unknown option '-d'"),
    (("analyze", "--model", "cp", "--degree"), "--degree needs a value"),
    (("analyze", "--model", "cp", "--degree", "2", "--degree", "2"),
     "--degree given twice"),
    (("analyze", "--model", "cp", "--degree", "2", "--b=1", "--b", "1"),
     "--b given twice"),
    (("analyze", "--model", "cp"), "analyze needs --degree"),
    (("analyze", "cp", "--degree", "2"), "unexpected argument 'cp'"),
    (("models", "--n", "1"), "unknown option '--n' for models"),
    (("check-certificate",), "check-certificate needs FILE"),
    (("check-certificate", "a.json", "b.json"),
     "unexpected argument 'b.json'"),
    (("cigar", "--nmax", "3"), "cigar needs --c"),
    (("wallach", "--domain", "omega1", "--sizes", "2,x", "--c", "1"),
     "--sizes element 'x': invalid literal for int()"),
    (("wallach", "--domain", "omega1", "--sizes", "2,", "--c", "1"),
     "--sizes element '': invalid literal for int()"),
    (("bell", "--n", "3", "--x", "1,,2"),
     "--x element '': Invalid literal for Fraction: ''"),
    (("bell", "--n", "3", "--x", "1,2/0"),
     "--x element '2/0': zero denominator in '2/0'"),
    pytest.param(("check-certificate", str(SRC / "no-such-file.json")),
                 "cannot read certificate: [Errno 2] No such file or "
                 "directory: " + repr(str(SRC / "no-such-file.json")),
                 id="no-certificate-file"),
])
def test_argv_error_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in one_json_line(err)["error"]


@pytest.mark.parametrize("argv", [
    ("-h",), ("--help",), ("--help", "analyze"), ("analyze", "-h"),
    ("analyze", "--model", "cp", "--help"), ("check-certificate", "-h"),
    ("models", "--help"),
])
def test_help_prints_usage_from_the_table(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("usage: kahlerimm")
    table = build_parser()
    if argv[0] in table:
        assert all(f"  {key} " in out for key in table[argv[0]].options)
    else:
        assert all(f"  {name} " in out for name in table)


# the README's example requests with degrees <= 3; "@jet" and "@cert" name
# a series file and a certificate that ``fuzz_files`` writes
README_ARGVS = [
    ("analyze", "--model", "cp", "--n", "1", "--scale", "1/2", "--b", "1",
     "--degree", "3"),
    ("analyze", "--series", "@jet", "--b", "1", "--degree", "3"),
    ("analyze", "--model", "hartogs_inv_sqrt", "--c", "1", "--degree", "3",
     "--jmax", "3", "--kmax", "3"),
    ("emit-immersion", "--model", "ch", "--n", "2", "--b", "-1",
     "--degree", "3"),
    ("analyze", "--model", "omega4", "--n", "3", "--b", "0", "--degree", "2"),
    ("check-certificate", "@cert"),
    ("wallach", "--domain", "omega1", "--sizes", "2,3", "--c", "1/5"),
    ("wallach", "--r", "2", "--a", "2", "--gamma", "5", "--c", "1",
     "--mu", "1/2"),
    ("cigar", "--c", "1", "--nmax", "8"),
    ("bell", "--n", "4", "--x", "-1,-1/2,-2/3,-3/2"),
    ("einstein", "--model", "cp", "--n", "2", "--b", "1", "--degree", "3"),
    ("models",),
]
# tokens the fuzz inserts: every option name, negative rationals, values
# that are not integers, unknown options, and no integer above 3
OPTION_NAMES = sorted({key for command in build_parser().values()
                       for key in command.options})
FUZZ_TOKENS = OPTION_NAMES + [
    "-1/2", "-1", "-2/3", "-1,2", "0", "1", "2", "3", "1/3", "2,3", "x",
    "1.5", "", "-", "--", "-h", "--help", "--bogus", "--deg", "n=1", "cp",
    "omega1", "models", "--b=-1/2", "--degree=x", "--param=n=1"]


@st.composite
def mutated_argv(draw):
    """A README argv after one to three edits: a token dropped, doubled,
    inserted or replaced, or an ``--opt value`` pair joined as
    ``--opt=value``."""
    argv = list(draw(st.sampled_from(README_ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "double", "insert", "replace",
                                    "join"]))
        i = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(FUZZ_TOKENS))
        if how == "insert":
            argv.insert(i, token)
        elif i == len(argv):
            continue
        elif how == "drop":
            del argv[i]
        elif how == "double":
            argv.insert(i, argv[i])
        elif how == "replace":
            argv[i] = token
        elif argv[i].startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """{"@jet": series file, "@cert": certificate} for README_ARGVS."""
    base = tmp_path_factory.mktemp("argv")
    jet = base / "jet.txt"
    jet.write_text("1 ; 1 ; 1 ; 0\n2 ; 2 ; -1/2 ; 0\n")
    cert = base / "cert.json"
    cert.write_text(call(*README_ARGVS[4])[1])
    return {"@jet": str(jet), "@cert": str(cert)}


@settings(max_examples=200, deadline=None)
@given(argv=mutated_argv())
def test_mutated_readme_argv(fuzz_files, argv):
    assert_clean_exit([fuzz_files.get(token, token) for token in argv])


def assert_clean_exit(argv):
    """main(argv) exits 0, 1 or 2, raises nothing, and prints one JSON line
    on stderr and nothing on stdout for exit 2, stdout alone otherwise."""
    try:
        code, out, err = call(*argv)
    except (Exception, SystemExit) as exc:  # pragma: no cover - reported
        pytest.fail(f"{type(exc).__name__} escaped main for {argv}: {exc}")
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and "error" in one_json_line(err), argv
    else:
        assert err == "" and out, argv


# ---------------------------------------------------------------------------
# cold and warm processes print the same bytes
# ---------------------------------------------------------------------------

COLD_REQUESTS = [
    ("analyze", "--model", "omega1", "--param", "m=2", "--param", "n=2",
     "--scale", "1/2", "--b", "1", "--degree", "3"),
    ("analyze", "--model", "springer", "--n", "3", "--b", "1",
     "--degree", "4"),
    ("analyze", "--model", "taubnut_full", "--param", "m=1",
     "--degree", "4"),
    # a document of 101,679 bytes, more than a pipe holds: output that the
    # end of the process lost would show here
    ("emit-immersion", "--model", "omega1", "--param", "m=2", "--param",
     "n=2", "--scale", "1/2", "--b", "1", "--degree", "7"),
    ("wallach", "--domain", "omega3", "--sizes", "1", "--c", "1"),
]

# the process entries: `python -m` runs the __main__ guard, which calls
# run(), as the console script does; and main() ended by sys.exit, the
# interpreter's own exit, which each entry must match
ENTRIES = [("-m", "kahlerimm.cli"),
           ("-c", "import sys; from kahlerimm.cli import main; "
                  "sys.exit(main())"),
           ("-c", "from kahlerimm.cli import run; run()")]


def test_every_console_script_is_a_callable_the_entries_run():
    # the installed script and its stand-in in ENTRIES name one target
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    for name, target in project["scripts"].items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
    module, _, attr = project["scripts"]["kahlerimm"].partition(":")
    assert ("-c", f"from {module} import {attr}; {attr}()") in ENTRIES


def buffered_env():
    """The environment of a fresh process with a block-buffered stdout,
    whose output stays in the buffer until something flushes it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_a_fresh_process_prints_what_a_warm_one_does():
    # each request is a fresh process, and a warm one has every graded
    # table of every request built: no output may depend on which tables
    # a process holds, nor on how the process ends
    for argv in COLD_REQUESTS:
        call(*argv)
    env = buffered_env()
    for argv in COLD_REQUESTS:
        warm = call(*argv)
        assert warm[1] or warm[2]
        for entry in ENTRIES:
            cold = subprocess.run([sys.executable, *entry, *argv], env=env,
                                  capture_output=True, text=True)
            assert (cold.returncode, cold.stdout, cold.stderr) == warm, \
                (entry[0], argv)


def test_a_call_with_argv_leaves_the_collector_as_it_is():
    before = gc.get_freeze_count(), gc.isenabled()
    assert call("wallach", "--domain", "omega1", "--sizes", "2,2",
                "--c", "1/2")[0] == 0
    assert call("analyze", "--model", "nope", "--degree", "2")[0] == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_a_process_entry_freezes_what_start_up_loaded():
    # main() moves the objects alive before the request into the
    # collector's permanent generation, so the collections at exit skip
    # the module graph
    code = ("import gc, sys; from kahlerimm.cli import main; "
            "before = gc.get_freeze_count(); exit_code = main(); "
            "print(before, gc.get_freeze_count(), exit_code, "
            "gc.isenabled(), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code, "wallach", "--domain",
                          "omega1", "--sizes", "2,2", "--c", "1/2"],
                         env=env, capture_output=True, text=True)
    before, frozen, exit_code, enabled = out.stderr.split()
    assert (int(before), exit_code, enabled) == (0, "0", "True")
    assert int(frozen) > 0
    assert json.loads(out.stdout)["kind"] == "wallach"


@pytest.mark.parametrize("argv,code", [
    (("wallach", "--domain", "omega1", "--sizes", "2,2", "--c", "1/2"), 0),
    (("wallach", "--domain", "omega3", "--sizes", "1", "--c", "1"), 2)])
def test_run_calls_each_atexit_handler_once_after_the_request(argv, code):
    # the handler's line follows the document and is flushed with it, and
    # the exit code is main's
    child = ("import atexit; from kahlerimm.cli import run; "
             "atexit.register(print, 'atexit handler'); run()")
    out = subprocess.run([sys.executable, "-c", child, *argv],
                         env=buffered_env(), capture_output=True, text=True)
    warm = call(*argv)
    assert (out.returncode, out.stdout, out.stderr) \
        == (code, warm[1] + "atexit handler\n", warm[2])
    assert warm[0] == code


def test_a_profiled_process_still_prints_its_profile():
    # under a profiler run() ends the process with sys.exit, so cProfile
    # gets to print its report after the document
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "cProfile", "-m",
                          "kahlerimm.cli", "models"], env=env,
                         capture_output=True, text=True)
    document, _, report = out.stdout.partition("\n}\n")
    assert out.returncode == 0
    assert (document + "\n}\n") == call("models")[1]
    assert "function calls" in report and "Ordered by" in report


PIPE_REQUESTS = [
    ("wallach", "--domain", "omega1", "--sizes", "2,2", "--c", "1/2"),
    ("emit-immersion", "--model", "omega1", "--param", "m=2", "--param",
     "n=2", "--scale", "1/2", "--b", "1", "--degree", "7")]


def closed_pipe(entry, argv, env):
    """(exit code, stderr) of a fresh process whose reader closed stdout
    before the process wrote to it."""
    child = subprocess.Popen([sys.executable, *entry, *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    return child.wait(), err


@pytest.mark.parametrize("argv", PIPE_REQUESTS, ids=lambda argv: argv[0])
def test_a_closed_pipe_is_reported_as_at_an_interpreter_exit(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    broken = (2, json.dumps(
        {"error": "BrokenPipeError: [Errno 32] Broken pipe"}) + "\n")
    # unbuffered, the write in main fails and main reports it
    env["PYTHONUNBUFFERED"] = "1"
    for entry in ENTRIES:
        assert closed_pipe(entry, argv, env) == broken
    # buffered, a document smaller than the buffer fails only at the flush
    # that a process entry's main() runs before it returns; main reports
    # it as a failed write and drops the bytes, so no later flush does
    for entry in ENTRIES:
        assert closed_pipe(entry, argv, buffered_env()) == broken, entry


# ---------------------------------------------------------------------------
# file fuzz: a mutated series file or spec file exits 0, 1 or 2, and exit 2
# prints nothing on stdout and one JSON line on stderr
# ---------------------------------------------------------------------------

SERIES_TEXT = ("# a two-variable jet\n1,0 ; 1,0 ; 1 ; 0\n0,1 ; 0,1 ; 1 ; 0\n"
               "1,0 ; 0,1 ; 1/3 ; 1/4\n0,1 ; 1,0 ; 1/3 ; -1/4\n"
               "1,1 ; 1,1 ; 1/2 ; 0\n2,0 ; 2,0 ; 1/5 ; 0\n"
               "2,1 ; 2,1 ; 1/7 ; 0\n")
SPEC = {"name": "cp", "parameters": {"n": 1, "scale": "1/2"}, "degree": 3}
# characters an edit inserts: the separators of both formats, signs,
# letters and whitespace; digits only in the series text, so a spec edit
# cannot grow a size or a degree
SERIES_CHARS = list(",;/-+#.e 01239\n\t")
SPEC_CHARS = list('{}[]",:/-. \nxn')


@st.composite
def mutated_text(draw, text, chars):
    """``text`` after one to three edits: a character dropped, inserted or
    replaced, or a line dropped or doubled."""
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "insert", "replace", "line"]))
        i = draw(st.integers(0, len(text)))
        if how == "insert":
            text = text[:i] + draw(st.sampled_from(chars)) + text[i:]
        elif how == "line":
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = draw(st.sampled_from([[], [lines[k]] * 2]))
            text = "\n".join(lines)
        elif i < len(text):
            text = text[:i] + (draw(st.sampled_from(chars))
                               if how == "replace" else "") + text[i + 1:]
    return text


@st.composite
def mutated_spec(draw):
    """The spec file after an edit of its JSON (a leaf replaced, a key
    added or dropped) or of its text."""
    if draw(st.booleans()):
        return draw(mutated_text(json.dumps(SPEC), SPEC_CHARS))
    how = draw(st.sampled_from(["leaf", "add", "drop"]))
    doc = json.loads(json.dumps(SPEC))
    path = draw(st.sampled_from(edit_spots(doc, how)))
    return json.dumps(edited(doc, path, how, draw(st.sampled_from(LEAVES))))


@settings(max_examples=150, deadline=None)
@given(text=mutated_text(SERIES_TEXT, SERIES_CHARS),
       command=st.sampled_from(["analyze", "emit-immersion"]),
       b=st.sampled_from(["0", "1", "-1"]), degree=st.integers(1, 3))
def test_mutated_series_file(tmp_path_factory, text, command, b, degree):
    path = tmp_path_factory.getbasetemp() / "mutated.txt"
    path.write_text(text)
    assert_clean_exit([command, "--series", str(path), "--b", b,
                       "--degree", str(degree)])


@settings(max_examples=150, deadline=None)
@given(text=mutated_spec(),
       command=st.sampled_from(["analyze", "emit-immersion"]))
def test_mutated_spec_file(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    assert_clean_exit([command, "--spec", str(path), "--b", "1",
                       "--degree", "2"])


# ---------------------------------------------------------------------------
# the document writer against json's indent encoder
# ---------------------------------------------------------------------------

def json_printed(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emitted_with_objects(monkeypatch, tmp_path, *argv):
    """(stdout of main(argv), the objects ``_emit`` printed); an argument
    "@doc" is the file that holds the stdout of the call before."""
    import kahlerimm.cli as cli
    objects, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda obj: (objects.append(obj), emit(obj))[1])
    argv = [str(tmp_path / "doc.json") if a == "@doc" else a for a in argv]
    code, out, err = call(*argv)
    assert code in (0, 1) and err == "", err
    (tmp_path / "doc.json").write_text(out)
    return out, objects


COMMANDS = [
    MATRIX[1:], ("check-certificate", "@doc"),
    HARTOGS[1:], ("check-certificate", "@doc"),
    POSITIVE[1:], POSITIVE_HARTOGS[1:],
    IMMERSION[1:], ("check-certificate", "@doc"),
    REFUSAL[1:],
    ("wallach", "--domain", "omega1", "--sizes", "2,2", "--c", "1/2"),
    ("wallach", "--domain", "omega1", "--sizes", "2,2", "--c", "1/2",
     "--mu", "1"),
    ("cigar", "--c", "1", "--nmax", "6"),
    ("cigar", "--c", "1e400", "--nmax", "2"),
    ("bell", "--n", "4", "--x=-1,-1/2,-2/3,-3/2"),
    ("einstein", "--model", "cp", "--n", "2", "--b", "1", "--degree", "4"),
    ("einstein", "--model", "cigar", "--degree", "4"),
    ("models",),
]


def test_every_command_prints_what_json_prints(monkeypatch, tmp_path):
    kinds = set()
    for argv in COMMANDS:
        out, objects = emitted_with_objects(monkeypatch, tmp_path, *argv)
        assert len(objects) == 1, argv
        assert out == json_printed(objects[0]), argv
        kinds.add(objects[0]["kind"])
    assert kinds == {"certificate", "check", "immersion", "wallach", "cigar",
                     "bell", "einstein", "models"}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_the_writer_prints_what_json_prints(value):
    from kahlerimm.cli import _emit
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value)
    assert out.getvalue() == json_printed(value)


@pytest.mark.parametrize("text", ["\x00\x1f\"\\/ \U0001f600\ud800é",
                                  "", "\n\t"])
def test_the_writer_escapes_strings_as_json_does(text):
    from kahlerimm.cli import _emit
    doc = {text: [text, {text: text}], "": {}, "list": []}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc)
    assert out.getvalue() == json_printed(doc)


def test_the_writer_prints_a_rational_past_the_digit_limit():
    from kahlerimm.cli import _emit
    from kahlerimm.scalars import format_fraction
    value = format_fraction(Fraction(10 ** 4400 + 1, 3))
    assert len(value) > 4300
    doc = {"value": value, "components": [{"radicand": value}]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc)
    assert out.getvalue() == json_printed(doc)


@pytest.mark.parametrize("text", [
    "a\nb\n", "\n", "1 ; 1 ; 1/2 ; 0\n2 ; 2 ; -1 ; 0", "tab\there",
    "carriage\r\n", "quote\"\n", "back\\slash\n", "\x00\x07\x1b\x7f\n",
    "caf\xe9\n", "☃", "\U0001f600\n", "\ud800\n", "lone \udfff",
    "\n\n\n \n"])
def test_a_string_is_escaped_as_json_escapes_it(text):
    from kahlerimm.cli import _string
    assert _string(text) == json.dumps(text)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet=st.characters(codec=None, exclude_categories=())
               | st.sampled_from("\n\r\t\"\\ a;/-,"), max_size=30))
def test_every_string_is_escaped_as_json_escapes_it(text):
    from kahlerimm.cli import _string
    assert _string(text) == json.dumps(text)


# ---------------------------------------------------------------------------
# the document reader and the printed-document comparison against json
# ---------------------------------------------------------------------------

def test_the_reader_reads_every_printed_document_as_json_does(
        monkeypatch, tmp_path):
    from kahlerimm.cli import _read_document
    path = tmp_path / "read.json"
    for argv in COMMANDS:
        out, _ = emitted_with_objects(monkeypatch, tmp_path, *argv)
        doc = json.loads(out)
        for text in (out, json.dumps(doc), json.dumps(doc, indent="\t"),
                     json.dumps(doc, separators=(",", ":")),
                     " \t\r\n" + json.dumps(doc, indent=1) + "\r\n\t "):
            path.write_text(text)
            # repr tells True, 1 and 1.0 apart, and shows key order
            assert repr(_read_document(str(path), "x")) \
                == repr(json.loads(text)), argv


WHITESPACE = st.text(alphabet=" \t\r\n", max_size=3)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES, WHITESPACE, WHITESPACE,
       st.sampled_from([None, 0, 2, "\t"]))
def test_the_reader_reads_every_json_value_as_json_does(
        tmp_path_factory, value, before, after, indent):
    from kahlerimm.cli import _read_document
    text = before + json.dumps(value, indent=indent) + after
    path = tmp_path_factory.getbasetemp() / "value.json"
    path.write_text(text)
    assert repr(_read_document(str(path), "x")) == repr(json.loads(text))


# leaves that json writes differently although Python may call them equal
CONFUSABLE = [True, False, 1, 0, 1.0, 0.0, -0.0, float("nan"), float("inf"),
              float("-inf"), None, "1", "", [], (), {}]
COMPARED_VALUES = st.recursive(
    st.sampled_from(CONFUSABLE) | st.none() | st.booleans() | st.integers()
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=4),
    max_leaves=20)


@st.composite
def edited_copy(draw, value):
    """A copy of ``value`` in which each list or tuple may be either, and
    which may be edited: a value swapped for a confusable leaf, or a key or
    an element dropped or added."""
    rate = draw(st.sampled_from([0, 10, 40]))

    def copy(v):
        how = "keep" if draw(st.integers(0, 99)) >= rate \
            else draw(st.sampled_from(["swap", "drop", "add"]))
        if how == "swap":
            return draw(st.sampled_from(CONFUSABLE))
        if isinstance(v, dict):
            out = {key: copy(item) for key, item in v.items()}
            if how == "drop" and out:
                del out[draw(st.sampled_from(sorted(out)))]
            elif how == "add":
                out[draw(st.text(max_size=2))] = draw(
                    st.sampled_from(CONFUSABLE))
            return out
        if isinstance(v, (list, tuple)):
            out = [copy(item) for item in v]
            if how == "drop" and out:
                del out[draw(st.integers(0, len(out) - 1))]
            elif how == "add":
                out.insert(draw(st.integers(0, len(out))),
                           draw(st.sampled_from(CONFUSABLE)))
            return draw(st.sampled_from([list, tuple]))(out)
        return v

    return copy(value)


@st.composite
def compared_pairs(draw):
    value = draw(COMPARED_VALUES)
    return value, draw(edited_copy(value))


@settings(max_examples=400, deadline=None)
@given(compared_pairs())
def test_a_document_is_the_printed_one_as_json_dumps_says(pair):
    from kahlerimm.cli import _same
    printed, doc = pair
    assert _same(printed, doc) == (json.dumps(printed, sort_keys=True)
                                   == json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("printed,doc,same", [
    (True, 1, False), (1, 1.0, False), (0.0, -0.0, False),
    (float("nan"), float("nan"), True), (float("inf"), float("inf"), True),
    ((1, [2]), [1, (2,)], True), ({"a": 1}, {"a": 1, "b": None}, False),
    ({"a": [1]}, {"a": [1, 2]}, False), (None, {"kind": "immersion"}, False),
])
def test_a_document_is_the_printed_one_only_type_for_type(printed, doc, same):
    from kahlerimm.cli import _same
    assert _same(printed, doc) is same


def test_the_comparison_goes_no_deeper_than_the_printed_document():
    from kahlerimm.cli import _same
    deep = []
    for _ in range(100_000):
        deep = [deep]
    assert not _same([[[0]]], deep)
    assert not _same({"a": [[1]]}, {"a": deep})


# (file contents, the error that follows "cannot read certificate: " or
# "cannot read spec file: ", or the whole error of a file that is not
# UTF-8 or holds too long an int): each file is read by a fresh process,
# where json.decoder is not imported until the scanner has failed.  Every
# error is json's own, but for nesting past the recursion limit, which is
# an input error too.
MALFORMED = [
    pytest.param(None, "[Errno 2] No such file or directory: 'doc.json'",
                 id="missing"),
    pytest.param("dir", "[Errno 21] Is a directory: 'doc.json'", id="dir"),
    pytest.param(b"\xff\xfe{}", "UnicodeDecodeError: 'utf-8' codec can't "
                 "decode byte 0xff in position 0: invalid start byte",
                 id="non-utf-8"),
    pytest.param(b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using "
                 "utf-8-sig): line 1 column 1 (char 0)", id="bom"),
    pytest.param(b"", "Expecting value: line 1 column 1 (char 0)",
                 id="empty"),
    pytest.param(b" \n\t", "Expecting value: line 2 column 2 (char 3)",
                 id="blank"),
    pytest.param(b'{"kind": "check"}\n{}', "Extra data: line 2 column 1 "
                 "(char 18)", id="extra-data"),
    pytest.param(b'{"kind": tru}', "Expecting value: line 1 column 10 "
                 "(char 9)", id="bad-token"),
    pytest.param(b'{"a": "abc', "Unterminated string starting at: line 1 "
                 "column 7 (char 6)", id="unterminated-string"),
    pytest.param(b'{"degree": ' + b"1" * 5000 + b"}", "ValueError: Exceeds "
                 "the limit (4300 digits) for integer string conversion: "
                 "value has 5000 digits; use sys.set_int_max_str_digits() to "
                 "increase the limit", id="5000-digits"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth "
                 "exceeded while decoding a JSON array from a unicode string",
                 id="deep-array"),
    pytest.param(b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
                 "maximum recursion depth exceeded while decoding a JSON "
                 "object from a unicode string", id="deep-object"),
]
READERS = [("check-certificate", "doc.json"),
           ("analyze", "--spec", "doc.json", "--degree", "2")]


@pytest.mark.parametrize("argv", READERS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("contents,error", MALFORMED)
def test_a_malformed_file_is_one_error_line_in_a_fresh_process(
        tmp_path, argv, contents, error):
    if contents == "dir":
        (tmp_path / "doc.json").mkdir()
    elif contents is not None:
        (tmp_path / "doc.json").write_bytes(contents)
    what = "certificate" if argv[0] == "check-certificate" else "spec file"
    if not error.startswith(("UnicodeDecodeError", "ValueError")):
        error = f"cannot read {what}: {error}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "kahlerimm.cli", *argv],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True)
    assert (out.returncode, out.stdout, out.stderr) \
        == (2, "", json.dumps({"error": error}) + "\n")
