"""The benchmark tracer wraps package functions by name: each must exist.

``perfbench/tracer.py`` looks every ``(module, attr)`` of its ``TARGETS``
up in ``kahlerimm`` when a traced request starts, so a renamed or deleted
function breaks every ``--trace 1`` run; this test fails first.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_callable_of_the_package():
    targets = _tracer().TARGETS
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(f"kahlerimm.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"kahlerimm.{module}.{attr}"
