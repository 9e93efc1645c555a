"""Every module of the package uses each name it imports, every private
helper the package defines is called from somewhere in the package, the
integer inner loops read no ``Fraction``, and a CLI process starts without
the standard library's introspection and argparse modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kahlerimm"


def imported_names(tree):
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def referenced_names(tree):
    """Names the module reads or looks up as attributes."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            } | {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}


def private_helpers(tree):
    """(name, line) of each module-level function and method whose name
    starts with one underscore; dunder methods are called implicitly."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in defs:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_")
                    and not fn.name.endswith("__")):
                yield fn.name, fn.lineno


def test_no_uncalled_private_helpers():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = [f"{module}:{line} {name}" for module, tree in trees.items()
            for name, line in private_helpers(tree) if name not in referenced]
    assert not dead, f"private helpers nothing references: {dead}"


# the inner loops of the series core and of the exact LDL*, which run on
# integers: (module, function)
INTEGER_LOOPS = [("series.py", "_mul_add"), ("radial.py", "_mul_add"),
                 ("series.py", "_degree_recurrence"),
                 ("series.py", "hermitian_update")]


@pytest.mark.parametrize("module,name", INTEGER_LOOPS,
                         ids=lambda v: v.removesuffix(".py"))
def test_integer_loops_read_no_fraction(module, name):
    # Fraction arithmetic in these loops costs a gcd per operation; their
    # callers put the operands over one denominator instead
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    reads = [node.lineno for stmt in fn.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and node.id == "Fraction"
             or isinstance(node, ast.Attribute) and node.attr == "Fraction"]
    assert not reads, f"{module}:{name} reads Fraction at lines {reads}"


def modules_after(code):
    """The names in sys.modules after ``code`` runs in a fresh interpreter
    with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code + "; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_start_up_loads_no_introspection_modules():
    # each CLI command is a fresh process, so what its start-up imports is
    # paid by every request: dataclasses alone pulls in inspect, ast and
    # dis, and argparse pulls in gettext, whose lookups import locale.
    # The bare interpreter is the baseline, so a module that a site .pth
    # file loads is not counted against the package.
    bare = modules_after("import sys")
    cli = modules_after("import sys, kahlerimm.cli; "
                        "kahlerimm.cli.build_parser()")
    assert "kahlerimm.cli" in cli
    extra = (cli - bare) & {"dataclasses", "inspect", "ast", "dis",
                            "argparse", "gettext", "locale"}
    assert not extra, f"CLI start-up imports {sorted(extra)}"
