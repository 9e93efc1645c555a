import json
import subprocess
import sys

import pytest

import tracer
from conftest import BENCH


def test_self_time_subtracts_nested_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 6.0, 0),
        ("c", 2.0, 3.0, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0),
             ("c", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the root's interval
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_sum_self_and_count_recursion_once_in_totals():
    spans = [
        ("cli.main", 0.0, 10.0, None),
        ("series.mul", 1.0, 5.0, 0),
        ("series.mul", 2.0, 3.0, 1),
        ("series.mul", 6.0, 7.0, 0),
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.main_s"] == pytest.approx(5.0)
    assert m["series.mul_s"] == pytest.approx(3.0 + 1.0 + 1.0)
    assert m["series.mul_calls"] == 3
    assert m["series.mul_total_s"] == pytest.approx(4.0 + 1.0)
    assert m["cli.main_total_s"] == pytest.approx(10.0)


def test_traced_request_prints_the_same_bytes(tmp_path, cli_env):
    args = ["emit-immersion", "--model", "cp", "--n", "1", "--b", "1",
            "--degree", "3"]
    plain = subprocess.run([sys.executable, "-m", "kahlerimm.cli", *args],
                           capture_output=True, env=cli_env, check=True)
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_file), *args],
        capture_output=True, env=cli_env, check=True)
    assert traced.stdout == plain.stdout
    record = json.loads(spans_file.read_text())
    names = [s[0] for s in record["spans"]]
    assert names[0] == tracer.ROOT
    # reached through names bound in immersion and resolvability
    for layer in ("immersion.factor", "diastasis.b_transform",
                  "resolvability.psd_certify", "immersion.verify",
                  "series.mul", "cli.render"):
        assert layer in names
    assert record["counts"]["immersion.components"] == 1
    assert record["counts"]["resolvability.rank"] == 1
