import json
import subprocess
import sys
from fractions import Fraction

import workloads
from workloads import Row, gate


def cp_row():
    return workloads.analyze("cp", ["--model", "cp", "--n", "3", "--b", "1",
                                    "--degree", "2"],
                             workloads.resolvable(3), certificate=False)[0]


def test_right_answer_passes():
    doc = {"verdict": "resolvable-up-to", "rank": 3}
    assert gate(cp_row(), 0, json.dumps(doc), "") is None


def test_wrong_verdict_rank_exit_code_or_traceback_fail():
    row = cp_row()
    witness = {"verdict": "certified-not-resolvable", "rank": None}
    assert gate(row, 1, json.dumps(witness), "") is not None
    assert gate(row, 0, json.dumps({"verdict": "resolvable-up-to",
                                    "rank": 4}), "") is not None
    assert gate(row, 2, "", '{"error": "bad"}') is not None
    assert gate(row, 0, json.dumps({"verdict": "resolvable-up-to", "rank": 3}),
                "Traceback (most recent call last):") is not None
    assert gate(row, 0, "not json", "") is not None


def test_fraction_fields_compare_by_value():
    row = Row("einstein", "closed_form", (), workloads.fields(
        0, **{"lambda": Fraction(6)}))
    assert gate(row, 0, json.dumps({"lambda": "6"}), "") is None
    assert gate(row, 0, json.dumps({"lambda": "12/2"}), "") is None
    assert gate(row, 0, json.dumps({"lambda": "5"}), "") is not None


def test_tampered_certificate_fails_the_gate(tmp_path, cli_env):
    rows = workloads.analyze(
        "half", ["--model", "cp", "--n", "1", "--scale", "1/2", "--b", "1",
                 "--degree", "4"],
        workloads.not_resolvable(type="matrix"), certificate=True)
    check = rows[1]
    assert check.argv == ("check-certificate", "@half.json")

    def run(argv):
        p = subprocess.run([sys.executable, "-m", "kahlerimm.cli", *argv],
                           capture_output=True, text=True, env=cli_env)
        return p.returncode, p.stdout, p.stderr

    code, out, err = run(rows[0].argv)
    assert gate(rows[0], code, out, err) is None
    cert = tmp_path / "half.json"
    cert.write_text(out)
    assert gate(check, *run(["check-certificate", str(cert)])) is None

    doc = json.loads(out)
    doc["witness"]["value"] = "-1/9"
    cert.write_text(json.dumps(doc))
    assert gate(check, *run(["check-certificate", str(cert)])) is not None


def test_oracles_match_known_values():
    assert workloads.calabi_rank(3, 1) == 3
    assert workloads.calabi_rank(1, 2) == 2
    assert workloads.cigar_first_negative(Fraction(1), 8)[0] == 4
    # omega1 2x2: genus 4, W = {0, 1} u (1, oo)
    assert workloads.wallach_decision("omega1", (2, 2), Fraction(1, 2))
    assert workloads.wallach_decision("omega1", (2, 2), Fraction(1, 4))
    assert not workloads.wallach_decision("omega1", (2, 2), Fraction(1, 8))
    # Y_3(x1, x2, x3) = x1^3 + 3 x1 x2 + x3
    assert workloads.complete_bell([Fraction(2), Fraction(3), Fraction(5)]) \
        == 8 + 18 + 5
    # (1 + x)^(1/2) = 1 + x/2 - x^2/8 + ...
    assert workloads.binomial_scan(lambda k: Fraction(1 + k, 2), 4, 2) \
        == (2, 0, Fraction(-1, 8))
