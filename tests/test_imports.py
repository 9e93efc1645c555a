"""Every module of the package uses each name it imports, every private
helper and every public function, class and method the package defines is
referenced from somewhere in the package (a public one from a module other
than ``__init__``, save a few named exceptions), the integer kernels read
no ``Fraction`` or ``CScalar``, the innermost loops of the series products
make no call but the accumulator lookup, no record is a
``typing.NamedTuple`` or a ``collections.namedtuple``, importing a module
builds no ``typing`` alias, and a CLI process starts without the standard
library's introspection, argparse and json modules: every document and
error line is written by the package, so only the two readers of a JSON
document, ``check-certificate`` and ``--spec``, load ``json``."""
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


def public_definitions(tree):
    """(qualified name, name, line) of each module-level function and class
    and each method whose name does not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) \
                        and not fn.name.startswith("_"):
                    yield f"{node.name}.{fn.name}", fn.name, fn.lineno


# public names that no package module references, and why each stays
UNREFERENCED_PUBLIC = {
    # perfbench/tracer.py wraps these by name, so each must keep existing
    "radial.py:RSeries.log1p": "traced as radial.compose",
    "immersion.py:ImmersionMap.pullback_norm": "traced as immersion.pullback",
    # read-back views the tracer's counts read, built on access from the
    # integer form that every stage keeps
    "resolvability.py:HermMatrix.entries": "counted as matrix_nnz",
    "resolvability.py:Pivot.column": "read for max_coeff_bits",
    "scalars.py:CScalar.is_zero": "counts witness_support",
    # accessors that tests read results through
    "series.py:BiSeries.get_index": "reads a coefficient by multi-index",
    "resolvability.py:HermMatrix.quadratic_form": "evaluates a witness",
    "immersion.py:ImmersionMap.is_pivoted_ldl":
        "the shape test without a series to verify against",
    "radial.py:RSeries.univariate": "builds a profile from a coefficient list",
    # operations the oracles in tests/ are written in
    "scalars.py:CScalar.conj": "conjugation in the Hermitian oracles",
    "radial.py:RSeries.derivative": "y' and y'' of the criterion-10 residual",
}


def test_every_public_name_is_referenced_by_the_package():
    # a public function only __init__ exports is library surface that no
    # command runs: route it, move it into tests/ as an oracle, or delete it
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    referenced = set().union(*map(referenced_names, trees.values()))
    unreferenced = {f"{module}:{qualified}": line
                    for module, tree in trees.items()
                    for qualified, name, line in public_definitions(tree)
                    if name not in referenced}
    dead = [f"{key} (line {line})" for key, line in unreferenced.items()
            if key not in UNREFERENCED_PUBLIC]
    assert not dead, f"public names nothing in the package references: {dead}"
    stale = sorted(set(UNREFERENCED_PUBLIC) - set(unreferenced))
    assert not stale, f"exceptions that are referenced or gone: {stale}"


# the kernels that run on Gaussian integers over one denominator: the
# series core and the operations on the stored integer form, the matrix
# build, the exact LDL* and its witness search, the backward pass that
# verifies a map with its shape test, the general pullback with its shape
# test and the pullback comparison, and the readers that compute on a
# series: (module, function or Class.method)
INTEGER_LOOPS = [("series.py", "_mul_add"),
                 ("series.py", "_degree_recurrence"),
                 ("series.py", "hermitian_update"),
                 ("series.py", "hermitian_defect"),
                 ("series.py", "reduced"),
                 ("series.py", "_compose"),
                 ("series.py", "det_series"),
                 ("series.py", "BiSeries._combine"),
                 ("series.py", "BiSeries.scale"),
                 ("series.py", "BiSeries.__mul__"),
                 ("series.py", "BiSeries.truncate"),
                 ("radial.py", "RSeries._shift"),
                 ("diastasis.py", "normalize_to_diastasis"),
                 ("einstein.py", "_mixed_second_derivative"),
                 ("resolvability.py", "build_matrix"),
                 ("resolvability.py", "_eliminate"),
                 ("resolvability.py", "_qform"),
                 ("resolvability.py", "_small_witness"),
                 ("immersion.py", "_backward_pass"),
                 ("immersion.py", "_pullback_pass"),
                 ("immersion.py", "_first_mismatch")]


def definition(tree, name):
    """The function ``name`` (or ``Class.method``) defined in ``tree``."""
    body = tree.body
    *owner, name = name.split(".")
    for cls in owner:
        (body,) = [node.body for node in body
                   if isinstance(node, ast.ClassDef) and node.name == cls]
    (fn,) = [node for node in body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


@pytest.mark.parametrize("module,name", INTEGER_LOOPS,
                         ids=lambda v: v.removesuffix(".py"))
def test_integer_loops_read_no_fraction(module, name):
    # Fraction arithmetic in these loops costs a gcd per operation, and a
    # CScalar two Fractions; their callers keep the operands over one
    # denominator instead, and values are built only to be printed
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    fn = definition(tree, name)
    reads = [node.lineno for stmt in fn.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name)
             and node.id in ("Fraction", "CScalar")
             or isinstance(node, ast.Attribute)
             and node.attr in ("Fraction", "CScalar")]
    assert not reads, \
        f"{module}:{name} reads Fraction or CScalar at lines {reads}"


def innermost_loops(fn):
    """The ``for`` loops of ``fn`` that hold no other loop."""
    loops = [node for node in ast.walk(fn) if isinstance(node, ast.For)]
    return [loop for loop in loops
            if not any(isinstance(node, ast.For) and node is not loop
                       for node in ast.walk(loop))]


@pytest.mark.parametrize("module", ["series.py"],
                         ids=lambda v: v.removesuffix(".py"))
def test_product_inner_loops_call_nothing_but_the_accumulator(module):
    # one product term is an integer multiply-add at a key that is the sum
    # of two packed monomial codes: a call per term, to rank a sum of
    # multi-indices or to build an exponent tuple, would cost more than
    # the arithmetic itself
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "_mul_add"]
    calls = [(node.lineno, ast.unparse(node.func))
             for loop in innermost_loops(fn) for stmt in loop.body
             for node in ast.walk(stmt) if isinstance(node, ast.Call)]
    assert calls, f"{module}:_mul_add has no accumulator lookup"
    other = [call for call in calls if call[1] != "acc.get"]
    assert not other, f"{module}:_mul_add calls {other} per product term"


def test_series_is_the_one_product_kernel():
    # an RSeries is the diagonal jet of a BiSeries, so every series product
    # runs in series._mul_add; a second kernel would be a second store
    defining = [path.name for path in sorted(PACKAGE.glob("*.py"))
                if any(isinstance(node, ast.FunctionDef)
                       and node.name == "_mul_add"
                       for node in ast.walk(ast.parse(
                           path.read_text(encoding="utf-8"))))]
    assert defining == ["series.py"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_record_is_a_typing_named_tuple(path):
    # under ``from __future__ import annotations`` each typing.NamedTuple
    # field compiles a ForwardRef when the module is imported, which every
    # CLI request pays; a record is a scalars.Record subclass with
    # __slots__ = () and its field types in its docstring
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "typing"
             and any(alias.name == "NamedTuple" for alias in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "NamedTuple"]
    assert not named, f"{path.name} uses typing.NamedTuple at lines {named}"


def typing_subscripts(node, names):
    """Lines of the subscripts of a ``typing`` name (one of ``names``, or
    ``typing.X``) that importing the module evaluates.  Function and lambda
    bodies run later, and annotations are never evaluated under ``from
    __future__ import annotations``; decorators, defaults and class bodies
    run at import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        children = [*getattr(node, "decorator_list", ()),
                    *node.args.defaults, *filter(None, node.args.kw_defaults)]
    elif isinstance(node, ast.AnnAssign):
        children = [node.target, *filter(None, [node.value])]
    else:
        children = ast.iter_child_nodes(node)
        if isinstance(node, ast.Subscript) and (
                isinstance(node.value, ast.Name) and node.value.id in names
                or isinstance(node.value, ast.Attribute)
                and ast.unparse(node.value.value) == "typing"):
            yield node.lineno
    for child in children:
        yield from typing_subscripts(child, names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_import_compiles_no_record_and_builds_no_type_alias(path):
    # every CLI request is a fresh process that imports every module:
    # collections.namedtuple compiles a __new__ per record class with eval
    # (a record is a scalars.Record subclass instead), and a subscripted
    # typing alias is built at import although only annotations, which are
    # never evaluated, read it (an alias is a quoted TypeAlias instead)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "namedtuple"]
    assert not calls, f"{path.name} calls namedtuple at lines {calls}"
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "typing"
             for alias in node.names}
    if names:
        assert any(isinstance(node, ast.ImportFrom)
                   and node.module == "__future__"
                   and node.names[0].name == "annotations"
                   for node in tree.body), \
            f"{path.name} evaluates its annotations"
    built = sorted(typing_subscripts(tree, names))
    assert not built, f"{path.name} subscripts typing names at lines {built}"


def modules_after(code):
    """The names in sys.modules after ``code`` runs in a fresh interpreter
    with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code + "; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


# dataclasses alone pulls in inspect, ast and dis, argparse pulls in
# gettext, whose lookups import locale, and json compiles six regexes
START_UP_FORBIDDEN = {"dataclasses", "inspect", "ast", "dis", "argparse",
                      "gettext", "locale", "json", "json.decoder",
                      "json.encoder", "json.scanner"}


def test_cli_start_up_loads_no_introspection_modules():
    # each CLI command is a fresh process, so what its start-up imports is
    # paid by every request.  The bare interpreter is the baseline, so a
    # module that a site .pth file loads is not counted against the package.
    bare = modules_after("import sys")
    cli = modules_after("import sys, kahlerimm.cli; "
                        "kahlerimm.cli.build_parser()")
    assert "kahlerimm.cli" in cli
    extra = (cli - bare) & START_UP_FORBIDDEN
    assert not extra, f"CLI start-up imports {sorted(extra)}"


def modules_imported(*argv, cwd):
    """(exit code, the modules ``python -X importtime ARGV`` imports) in a
    fresh interpreter with PYTHONPATH=src, run in the directory ``cwd``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-X", "importtime", *argv],
                         env=env, cwd=cwd, capture_output=True, text=True)
    return out.returncode, {line.rsplit("|", 1)[1].strip()
                            for line in out.stderr.splitlines()
                            if line.startswith("import time:")}


# (argv, exit code, reads a JSON document): whole `python -m kahlerimm.cli`
# requests, in a directory that holds the files they name
EMIT = ("emit-immersion", "--model", "cp", "--n", "1", "--b", "1",
        "--degree", "3")
REQUESTS = [
    (("wallach", "--domain", "omega1", "--sizes", "2,2", "--c", "1/2"),
     0, False),
    (("cigar", "--c", "1", "--nmax", "6"), 1, False),
    (("bell", "--n", "4", "--x=-1,-1/2,-2/3,-3/2"), 0, False),
    (("einstein", "--model", "cp", "--n", "2", "--b", "1", "--degree", "4"),
     0, False),
    (("analyze", "--model", "cp", "--n", "1", "--b", "1", "--degree", "3"),
     0, False),
    (("analyze", "--series", "jet.txt", "--degree", "2"), 0, False),
    (EMIT, 0, False),
    (("analyze", "--model", "nope", "--degree", "2"), 2, False),
    (("analyze", "--spec", "spec.json", "--b", "1", "--degree", "3"),
     0, True),
    (("check-certificate", "map.json"), 0, True),
]


@pytest.fixture(scope="module")
def request_dir(tmp_path_factory):
    """A directory with the series, spec and emitted map REQUESTS read."""
    path = tmp_path_factory.mktemp("requests")
    (path / "jet.txt").write_text("1 ; 1 ; 1 ; 0\n2 ; 2 ; 1/2 ; 0\n")
    (path / "spec.json").write_text(
        '{"name": "cp", "parameters": {"n": 1}, "degree": 3}')
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    (path / "map.json").write_bytes(subprocess.run(
        [sys.executable, "-m", "kahlerimm.cli", *EMIT], env=env,
        capture_output=True, check=True).stdout)
    return path


@pytest.fixture(scope="module")
def bare_imports(request_dir):
    return modules_imported("-c", "pass", cwd=request_dir)[1]


@pytest.mark.parametrize("argv,code,reads_json", REQUESTS,
                         ids=lambda v: " ".join(v[:3])
                         if isinstance(v, tuple) else None)
def test_a_cli_request_loads_json_only_to_read_a_document(
        request_dir, bare_imports, argv, code, reads_json):
    got, loaded = modules_imported("-m", "kahlerimm.cli", *argv,
                                   cwd=request_dir)
    assert got == code
    assert "kahlerimm" in loaded
    extra = (loaded - bare_imports) & START_UP_FORBIDDEN
    if reads_json:  # the readers still read their files, through json
        assert "json" in extra
        extra -= {"json", "json.decoder", "json.encoder", "json.scanner"}
    assert not extra, f"{argv[0]} imports {sorted(extra)}"
