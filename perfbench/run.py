"""Run one kahlerimm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Each request is a fresh ``python -m kahlerimm.cli ...`` process, as a user
runs it: cold caches and a fresh import every time.  One client sends the
requests of a workload in order, one in flight at a time (a closed loop),
and repeats the whole list (a pass) while ``--seconds`` allow.  Every answer
goes through the correctness gate in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics.  Each pass is scaled to the
speed of a fixed reference program measured during that pass; a request's
cost is the median of its scaled times over the passes, a timing metric is
a sum of those costs, and ``setup_s`` is the median of the scaled set-up
samples.  ``--trace 1`` alternates untraced and traced passes
(``tracer.py``) and prints the per-layer metrics of each request's fastest
traced run.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import tracer
import workloads
from workloads import Row

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STDOUT_TABLE = HERE / "stdout_sha256.json"
# seeds whose stdout is recorded in STDOUT_TABLE; a run generates its inputs
# from one of them, so every request it makes has a recorded stdout
RECORDED_SEEDS = range(32)
SETUP_PER_PASS = 3
# A fixed stdlib-only program that measures the host's speed during each
# pass: the shared host's speed changes by up to 1.5x from one pass to the
# next, and the same change shows in this program, so each pass's timings
# are scaled to the speed at which the median of the pass's reference
# samples is REFERENCE_S (about its median on the baseline machine).
REFERENCE = ["-c", "from fractions import Fraction as F\ns = F(0)\n"
             "for i in range(1, 1500):\n    s += F(1, i)\n"]
REFERENCE_S = 0.06
REFERENCE_EVERY = 2  # requests per reference sample
# every run must end within 180 s, whatever a request does
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"), ("pass_s", "s"), ("analyze_s", "s"), ("emit_s", "s"),
    ("check_s", "s"), ("closed_form_s", "s"), ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("series.compose_s", "s"), ("series.compose_calls", "count"),
    ("series.mul_s", "s"), ("series.mul_calls", "count"),
    ("series.det_s", "s"),
    ("diastasis.b_transform_s", "s"),
    ("diastasis.b_transform_calls", "count"), ("diastasis.normalize_s", "s"),
    ("resolvability.build_matrix_s", "s"), ("resolvability.psd_certify_s", "s"),
    ("resolvability.matrix_dim", "count"), ("resolvability.matrix_nnz", "count"),
    ("resolvability.rank", "count"), ("resolvability.witness_support", "count"),
    ("resolvability.max_coeff_bits", "bits"), ("resolvability.hartogs_s", "s"),
    ("immersion.factor_s", "s"), ("immersion.components", "count"),
    ("immersion.verify_s", "s"), ("immersion.pullback_s", "s"),
    ("models.build_s", "s"),
    ("models.jet_terms", "count"), ("models.profile_s", "s"),
    ("radial.compose_s", "s"),
    ("einstein.hessian_det_s", "s"), ("einstein.estimate_s", "s"),
    ("bell.cigar_scan_s", "s"), ("bell.bell_s", "s"),
    ("symmetric.wallach_s", "s"),
    ("cli.load_s", "s"), ("cli.render_s", "s"), ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"), ("cli.stdout_mismatch", "count"),
    ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s"),
]


@dataclass
class Result:
    row: Row
    wall: float
    rss_mb: float
    stdout_bytes: int
    stdout_key: str
    stdout_sha: str
    failure: Optional[str]
    trace: Optional[dict] = None


class Runner:
    """Spawns CLI processes in ``workdir`` and reaps them with ``wait4``."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        # an installed package runs from cached bytecode, so let it be written
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(self, cmd: Sequence[str], out: Path, err: Path):
        """Run ``cmd`` to completion: (wall seconds, exit code, maxrss MB)."""
        limit = max(self.deadline - time.monotonic(), 0.1)
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(list(cmd), stdout=fo, stderr=fe,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def setup_samples(self, count: int) -> List[float]:
        """Times of fresh interpreters that import the CLI and exit."""
        cmd = [sys.executable, "-c",
               "import kahlerimm.cli as c; c.build_parser()"]
        out, err = self.workdir / "setup.out", self.workdir / "setup.err"
        times = []
        for _ in range(count):
            wall, code, _ = self.spawn(cmd, out, err)
            if code != 0:
                raise RuntimeError("cannot import kahlerimm.cli: "
                                   + err.read_text(errors="replace")[-300:])
            times.append(wall)
        return times

    def reference_sample(self) -> float:
        out, err = self.workdir / "reference.out", self.workdir / "reference.err"
        wall, code, _ = self.spawn([sys.executable, *REFERENCE], out, err)
        if code != 0:
            raise RuntimeError("reference program failed")
        return wall

    def _path(self, arg: str) -> str:
        return str(self.workdir / arg[1:]) if arg.startswith("@") else arg

    def request_key(self, row: Row) -> str:
        """Names a request by its arguments and the bytes of its input files."""
        parts = [hashlib.sha256(Path(self._path(a)).read_bytes()).hexdigest()
                 if a.startswith("@") and Path(self._path(a)).is_file() else a
                 for a in row.argv]
        return hashlib.sha256(json.dumps(parts).encode()).hexdigest()

    def request(self, row: Row, traced: bool) -> Result:
        argv = [self._path(a) for a in row.argv]
        out = self.workdir / f"{row.name}.json"
        err = self.workdir / f"{row.name}.err"
        spans = self.workdir / f"{row.name}.spans"
        key = self.request_key(row)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "kahlerimm.cli", *argv]
        wall, code, rss = self.spawn(cmd, out, err)
        stdout = out.read_bytes()
        failure = workloads.gate(row, code, stdout.decode(errors="replace"),
                                 err.read_text(errors="replace"))
        trace = None
        if traced and spans.is_file():
            trace = json.loads(spans.read_text())
            spans.unlink()
        return Result(row, wall, rss, len(stdout), key,
                      hashlib.sha256(stdout).hexdigest(), failure, trace)

    def run_pass(self, rows: Sequence[Row], traced: bool,
                 references: Optional[List[List[float]]] = None
                 ) -> List[Result]:
        """One request per row; with ``references``, also append this pass's
        reference samples, one before every REFERENCE_EVERY rows."""
        results = []
        samples = []
        for i, row in enumerate(rows):
            if references is not None and i % REFERENCE_EVERY == 0:
                samples.append(self.reference_sample())
            results.append(self.request(row, traced))
        if references is not None:
            references.append(samples)
        return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def fastest(passes: Sequence[Sequence[Result]]) -> List[Result]:
    """Each request's fastest run over the passes (for traced runs)."""
    return [min(runs, key=lambda r: r.wall) for runs in zip(*passes)]


def pass_scales(references: Sequence[Sequence[float]]) -> List[float]:
    """Per pass, the factor that brings its timings to the reference speed."""
    return [REFERENCE_S / statistics.median(samples) for samples in references]


def typical(passes: Sequence[Sequence[Result]],
            scales: Sequence[float]) -> List[float]:
    """Each request's median wall time over the passes, each pass scaled.

    A request's fastest run is a rare lucky draw on a shared host, most of
    all for a request of a second or more; the median over passes of times
    brought to one reference speed is steadier from run to run.
    """
    return [statistics.median(r.wall * k for r, k in zip(runs, scales))
            for runs in zip(*passes)]


def kind_sums(rows: Sequence[Row], walls: Sequence[float]) -> Dict[str, float]:
    out = {f"{kind}_s": 0.0 for kind in workloads.KINDS}
    for row, wall in zip(rows, walls):
        out[f"{row.kind}_s"] += wall
    out["pass_s"] = sum(walls)
    return out


def unaccounted(r: Result, layers: Dict[str, float], setup_s: float) -> float:
    """Traced wall time outside the root span, beyond the set-up time."""
    return r.wall - layers.get(f"{tracer.ROOT}_total_s", 0.0) - setup_s


def layer_sums(results: Sequence[Result], setup_s: float,
               table: Dict[str, str]) -> Dict[str, float]:
    """Per-layer sums over traced requests, one of each row."""
    out: Dict[str, float] = defaultdict(float)
    for r in results:
        out["cli.stdout_bytes"] += r.stdout_bytes
        # a request without a recorded stdout cannot be shown to match
        out["cli.stdout_mismatch"] += table.get(r.stdout_key) != r.stdout_sha
        if r.trace is None:
            continue
        layers = tracer.layer_metrics(r.trace["spans"])
        for name, value in layers.items():
            out[name] += value
        for name, value in r.trace["counts"].items():
            if name == "resolvability.max_coeff_bits":
                out[name] = max(out[name], value)
            else:
                out[name] += value
        out["trace.unaccounted_s"] += unaccounted(r, layers, setup_s)
    out["cli.self_s"] = out[f"{tracer.ROOT}_s"]
    return dict(out)


def module_self_times(layer: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name in tracer.SPAN_NAMES:
        out[name.split(".")[0]] += layer.get(f"{name}_s", 0.0)
    return dict(out)


def share_checks(workload: str, layer: Dict[str, float],
                 traced: Sequence[Result]) -> List[str]:
    """The layer shares this benchmark was sized by, measured again."""
    library = sum(v for k, v in module_self_times(layer).items() if k != "cli")
    lines: List[str] = []
    if not library:  # no traced request finished
        return lines

    def claim(text: str, share: float, holds: bool) -> None:
        lines.append(f"share: {text}: {share:.0%} "
                     f"({'matches' if holds else 'does NOT match'})")

    if workload == "catalog":
        share = (layer.get("series.compose_s", 0) + layer.get("series.mul_s", 0)
                 + layer.get("diastasis.b_transform_s", 0)) / library
        claim("series composition and products plus b-transform self time, "
              "of library self time, dominate catalog", share, share > 0.5)
        share = layer.get("diastasis.b_transform_total_s", 0) / library
        claim("b-transform inclusive time, of library self time",
              share, share > 0.25)
    elif workload == "jets":
        share = (layer.get("resolvability.psd_certify_s", 0)
                 + layer.get("immersion.verify_total_s", 0)) / library
        claim("psd_certify plus verify_immersion, of library self time, "
              "dominate jets", share, share > 0.5)
    elif workload == "radial":
        for r in traced:
            if r.row.name == "springer_c1" and r.trace:
                build = tracer.layer_metrics(r.trace["spans"]).get(
                    "models.build_total_s", 0.0)
                share = build / r.wall
                claim("unused BiSeries build, of the springer --c request",
                      share, 0.3 <= share <= 0.7)
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "kahlerimm" / "cli.py").is_file():
        print(f"perfbench: no kahlerimm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(workdir, started + RUN_LIMIT_S)
        runner.setup_samples(1)  # byte-compiles the package; not measured
        rows = workloads.build(
            args.workload,
            RECORDED_SEEDS[args.seed % len(RECORDED_SEEDS)], workdir)
        table = (json.loads(STDOUT_TABLE.read_text())
                 if STDOUT_TABLE.is_file() else {})
        setups: List[List[float]] = []
        references: List[List[float]] = []
        plain: List[List[Result]] = []
        traced: List[List[Result]] = []
        t0 = time.monotonic()
        while True:
            setups.append(runner.setup_samples(SETUP_PER_PASS))
            plain.append(runner.run_pass(rows, traced=False,
                                         references=references))
            if args.trace:
                traced.append(runner.run_pass(rows, traced=True))
            elapsed = time.monotonic() - t0
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # unscaled, to compare with traced wall times
    setup_s = statistics.median(t for times in setups for t in times)

    everything = [r for p in plain + traced for r in p]
    failures = [r for r in everything if r.failure]
    for r in failures:
        print(f"FAILED {r.row.name}: {r.failure}")
    recorded = [r for r in everything if r.stdout_key in table]
    differ = [r for r in recorded if table[r.stdout_key] != r.stdout_sha]
    print(f"gate: {len(failures)} of {len(everything)} requests failed "
          f"(failed_share {len(failures) / len(everything):.4f}); "
          f"{len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(rows)} requests")
    print(f"stdout: {len(recorded) - len(differ)} match this benchmark's "
          f"recording, {len(differ)} differ, "
          f"{len(everything) - len(recorded)} unrecorded")

    scales = pass_scales(references)
    print("reference: per pass " + " ".join(
        f"{REFERENCE_S / k:.4f}" for k in scales) + " s; each pass is scaled "
        f"to the speed at which it takes {REFERENCE_S} s")
    unscaled = kind_sums(rows, typical(plain, [1.0] * len(plain)))
    print("unscaled: " + " ".join(
        f"{k}={v:.4f}" for k, v in dict(unscaled, setup_s=setup_s).items()))
    if args.trace:
        best_traced = fastest(traced)
        layer = layer_sums(best_traced, setup_s, table)
        layer["trace.overhead_s"] = (
            sum(r.wall for r in best_traced)
            - sum(r.wall for r in fastest(plain)))
        for name, value in sorted(module_self_times(layer).items()):
            print(f"module self time  {name:<16} {value:10.4f} s")
        for r in best_traced:
            if r.trace:
                rest = unaccounted(
                    r, tracer.layer_metrics(r.trace["spans"]), setup_s)
                print(f"unaccounted  {r.row.name:<22} "
                      f"{rest:+.4f} s of {r.wall:.4f} s")
        for line in share_checks(args.workload, layer, best_traced):
            print(line)
        chosen = PER_LAYER
    else:
        # the part of each time that is interpreter start-up, which no change
        # to the library can move
        requests = defaultdict(int, pass_s=len(rows))
        for row in rows:
            requests[f"{row.kind}_s"] += 1
        print("start-up share: " + " ".join(
            f"{k}={requests[k] * setup_s / v:.0%}"
            for k, v in unscaled.items() if v))
        layer = kind_sums(rows, typical(plain, scales))
        layer["setup_s"] = statistics.median(
            t * k for times, k in zip(setups, scales) for t in times)
        layer["peak_rss_mb"] = max(r.rss_mb for r in everything)
        chosen = END_TO_END
    metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
               for name, unit in chosen}
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(everything),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
