"""Per-layer spans of one kahlerimm CLI request, recorded from outside.

``python tracer.py SPANS.json ARGS...`` runs ``kahlerimm.cli.main(ARGS)``
with the public functions of each module wrapped, and writes the spans and
counts to SPANS.json when the request ends.  Nothing in the package changes:
a wrapper replaces a function at every name that refers to it in any
``kahlerimm`` module (modules bind imports such as ``b_transform`` locally),
and methods are replaced on their class.

A span is ``[name, start, end, parent]``; the layer's self time is its span
minus the part of it that child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, Optional[int]]

# (module, function or Class.method, span name); a span name is a layer
# metric: "<name>_s" is its self time and "<name>_calls" its call count.
TARGETS = [
    ("series", "exp_series", "series.compose"),
    ("series", "log1p_series", "series.compose"),
    ("series", "pow1p_series", "series.compose"),
    ("series", "det_series", "series.det"),
    ("series", "BiSeries.__mul__", "series.mul"),
    ("diastasis", "normalize_to_diastasis", "diastasis.normalize"),
    ("diastasis", "b_transform", "diastasis.b_transform"),
    ("resolvability", "build_matrix", "resolvability.build_matrix"),
    ("resolvability", "psd_certify", "resolvability.psd_certify"),
    ("resolvability", "hartogs_criterion", "resolvability.hartogs"),
    ("immersion", "factor_immersion", "immersion.factor"),
    ("immersion", "verify_immersion", "immersion.verify"),
    ("immersion", "ImmersionMap.pullback_norm", "immersion.pullback"),
    ("models", "build_model", "models.build"),
    ("models", "hartogs_profile", "models.profile"),
    ("radial", "RSeries.exp", "radial.compose"),
    ("radial", "RSeries.log1p", "radial.compose"),
    ("radial", "RSeries.pow1p", "radial.compose"),
    ("einstein", "hessian_det", "einstein.hessian_det"),
    ("einstein", "einstein_estimate", "einstein.estimate"),
    ("bell", "cigar_scan", "bell.cigar_scan"),
    ("bell", "cigar_limit", "bell.cigar_scan"),
    ("bell", "bell_complete", "bell.bell"),
    ("bell", "bell_partial", "bell.bell"),
    ("symmetric", "classical_invariants", "symmetric.wallach"),
    ("symmetric", "wallach_membership", "symmetric.wallach"),
    ("symmetric", "bergman_scaling_decision", "symmetric.wallach"),
    ("symmetric", "cartan_hartogs_failure", "symmetric.wallach"),
    ("cli", "_load_source", "cli.load"),
    ("cli", "_rebuild_from_source", "cli.load"),
    ("cli", "_immersion_from_json", "cli.load"),
    ("cli", "_emit", "cli.render"),
    ("cli", "_witness_json", "cli.render"),
    ("cli", "_verdict_json", "cli.render"),
    ("cli", "_immersion_json", "cli.render"),
]
ROOT = "cli.main"
SPAN_NAMES = sorted({name for _, _, name in TARGETS} | {ROOT})
# results kept until the request ends, then turned into counts
COUNTED = ("resolvability.build_matrix", "resolvability.psd_certify",
           "immersion.factor", "models.build")


class Recorder:
    """Spans in call order, plus the results that counts are taken from."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.results: List[Tuple[str, object]] = []
        self._stack: List[int] = []

    def wrap(self, fn, name: str):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep:
                results.append((name, result))
            return result
        return traced

    def counts(self) -> Dict[str, int]:
        out = {"resolvability.matrix_dim": 0, "resolvability.matrix_nnz": 0,
               "resolvability.rank": 0, "resolvability.witness_support": 0,
               "resolvability.max_coeff_bits": 0, "immersion.components": 0,
               "models.jet_terms": 0}
        for name, result in self.results:
            if name == "resolvability.build_matrix":
                out["resolvability.matrix_dim"] += result.dimension
                out["resolvability.matrix_nnz"] += len(result.entries)
            elif name == "resolvability.psd_certify":
                if hasattr(result, "rank"):
                    out["resolvability.rank"] += result.rank
                    values = [p.value for p in result.pivots]
                    for p in result.pivots:
                        for c in p.column.values():
                            values += (c.re, c.im)
                else:
                    out["resolvability.witness_support"] += sum(
                        not c.is_zero() for c in result.witness)
                    values = [result.value]
                    for c in result.witness:
                        values += (c.re, c.im)
                bits = max((max(q.numerator.bit_length(),
                                q.denominator.bit_length()) for q in values),
                           default=0)
                out["resolvability.max_coeff_bits"] = max(
                    out["resolvability.max_coeff_bits"], bits)
            elif name == "immersion.factor":
                out["immersion.components"] += len(result.components)
            elif name == "models.build":
                out["models.jet_terms"] += len(result.coeffs)
        return out


def install(recorder: Recorder):
    """Wrap every target at each of its lookup sites; return the wrapped main."""
    cli = importlib.import_module("kahlerimm.cli")
    package = [m for name, m in sorted(sys.modules.items())
               if name == "kahlerimm" or name.startswith("kahlerimm.")]
    for module, attr, name in TARGETS:
        owner = importlib.import_module(f"kahlerimm.{module}")
        if "." in attr:
            cls, method = attr.split(".")
            owner = getattr(owner, cls)
            setattr(owner, method, recorder.wrap(getattr(owner, method), name))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(original, name)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    # check-certificate reads its document inline with json.load
    json.load = recorder.wrap(json.load, "cli.load")
    return recorder.wrap(cli.main, ROOT)


# ---------------------------------------------------------------------------
# aggregation (run by the benchmark, not inside the traced request)
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: ``_s`` self seconds, ``_calls`` and ``_total_s``.

    ``_total_s`` is inclusive time, counting a span nested in another of
    the same name once.
    """
    out: Dict[str, float] = defaultdict(float)
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        name = span[0]
        out[f"{name}_s"] += own
        out[f"{name}_calls"] += 1
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[f"{name}_total_s"] += span[2] - span[1]
    return dict(out)


def main(argv: Sequence[str]) -> int:
    out_path, cli_args = argv[0], list(argv[1:])
    recorder = Recorder()
    traced_main = install(recorder)
    try:
        return traced_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": recorder.counts()},
                      fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
