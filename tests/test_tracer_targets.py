"""The benchmark tracer wraps package functions by name and counts what
their results hold: each target must exist, and each count must read what
it did.

``perfbench/tracer.py`` looks every ``(module, attr)`` of its ``TARGETS``
up in ``kahlerimm`` when a traced request starts, so a renamed or deleted
function breaks every ``--trace 1`` run; this test fails first.  Its
counts read the records the pipeline returns (the matrix, the pivots or
the witness, the map), so a change of what those records hold fails the
count test.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load(TRACER, "perfbench_tracer")


def test_every_traced_target_is_a_callable_of_the_package():
    targets = _tracer().TARGETS
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(f"kahlerimm.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"kahlerimm.{module}.{attr}"


# (jet, command, degree, counts): a PSD jet of rank 12 on the 20 monomials
# of degree 1..5 in 2 variables, emitted as a map of 12 components, and an
# indefinite jet on the 19 monomials of degree 1..3 in 3 variables.  The
# non-zeros are the lines of the jet file, one per entry; the largest bit
# length is that of a pivot, a column entry or a witness part in lowest
# terms, which does not depend on how the pipeline stores them.
TRACED = [
    (("psd_jet", 0, 2, 5, 12), "emit-immersion", 5,
     {"resolvability.rank": 12, "immersion.components": 12,
      "resolvability.matrix_dim": 20, "resolvability.witness_support": 0,
      "resolvability.max_coeff_bits": 85}),
    (("indefinite_jet", 0, 3, 3, 12), "analyze", 3,
     {"resolvability.rank": 0, "immersion.components": 0,
      "resolvability.matrix_dim": 19, "resolvability.witness_support": 13,
      "resolvability.max_coeff_bits": 106}),
]


@pytest.mark.parametrize("jet,command,degree,counts", TRACED,
                         ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_traced_counts_read_the_records(tmp_path, jet, command, degree,
                                        counts):
    jetgen = _load(ROOT / "perfbench" / "jetgen.py", "perfbench_jetgen")
    kind, *args = jet
    text = getattr(jetgen, kind)(*args)
    series = tmp_path / "jet.txt"
    series.write_text(text)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(TRACER), str(spans), command, "--series",
         str(series), "--degree", str(degree)],
        env=env, capture_output=True, text=True)
    assert "Traceback" not in out.stderr, out.stderr
    assert out.returncode == (0 if counts["resolvability.rank"] else 1)
    got = json.loads(spans.read_text())["counts"]
    assert got["resolvability.matrix_nnz"] == len(text.splitlines())
    assert {key: got[key] for key in counts} == counts


# radial requests: an RSeries composes through the wrapped series
# functions, so a traced span nests a series span inside a radial one
RADIAL = [
    (("analyze", "--model", "springer", "--c", "1", "--degree", "6",
      "--jmax", "6", "--kmax", "6"),
     {"radial.compose", "series.compose", "resolvability.hartogs"}),
    (("cigar", "--c", "1", "--nmax", "6"),
     {"radial.compose", "series.compose", "bell.cigar_scan"}),
]


@pytest.mark.parametrize("argv,layers", RADIAL, ids=lambda v: v[0]
                         if isinstance(v, tuple) else None)
def test_traced_radial_request_prints_the_untraced_bytes(tmp_path, argv,
                                                         layers):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run([sys.executable, "-m", "kahlerimm.cli", *argv],
                           env=env, capture_output=True)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(TRACER), str(spans), *argv],
                            env=env, capture_output=True)
    assert b"Traceback" not in traced.stderr, traced.stderr
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert layers <= names, sorted(layers - names)


def test_traced_check_certificate_prints_the_untraced_bytes(tmp_path):
    # check-certificate reads its file with _json's scanner, inside
    # cli.main's own time, then rebuilds the source and the map: the two
    # cli.load spans under cli.main, ahead of the verification
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    emitted = subprocess.run(
        [sys.executable, "-m", "kahlerimm.cli", "emit-immersion", "--model",
         "cp", "--n", "1", "--b", "1", "--degree", "3"],
        env=env, capture_output=True, check=True)
    doc = tmp_path / "map.json"
    doc.write_bytes(emitted.stdout)
    argv = ("check-certificate", str(doc))
    plain = subprocess.run([sys.executable, "-m", "kahlerimm.cli", *argv],
                           env=env, capture_output=True)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(TRACER), str(spans), *argv],
                            env=env, capture_output=True)
    assert b"Traceback" not in traced.stderr, traced.stderr
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    recorded = json.loads(spans.read_text())["spans"]
    # under cli.main: _rebuild_from_source, _immersion_from_json
    under_main = [name for name, _, _, parent in recorded if parent == 0]
    assert under_main[:3] == ["cli.load", "cli.load", "immersion.verify"], \
        under_main
    # the source's jet is rebuilt through its model; the map is read
    # without a call the tracer wraps
    loads = [i for i, span in enumerate(recorded) if span[0] == "cli.load"]
    assert [[span[0] for span in recorded if span[3] == i]
            for i in loads] == [["models.build"], []]
