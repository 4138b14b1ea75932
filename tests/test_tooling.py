"""Source-level checks on the library itself."""

import ast
import importlib.util
import re
from pathlib import Path

import qct

SRC = Path(qct.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check the library relies on
    # must raise explicitly instead
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_cli_reports_flag_errors_through_the_parser():
    # raise SystemExit("message") exits 1, the code of a failing verify case,
    # with no usage line; flag errors go through the parser, which exits 2
    def is_text(node):
        return isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.Constant) and isinstance(node.value, str))

    path = SRC / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        call = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "SystemExit" and any(map(is_text, call.args))):
            found.append(f"cli.py:{node.lineno}")
    assert not found, f"SystemExit with a message in the CLI: {found}"


def test_benchmark_traced_names_exist():
    # the benchmark's tracer wraps library functions by name, and installing
    # it raises KeyError on a renamed or deleted target
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall()


def test_expanded_layer_stays_out_of_production_paths():
    # MLaurent is the expanded form the tests' oracles compute in; only its
    # own module and splitting.pair_product, which the benchmark traces by
    # name, may refer to it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("laurent.py", "splitting.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            if "MLaurent" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"MLaurent outside laurent.py and splitting.py: {found}"


def test_polynomial_routes_do_not_name_qfrac():
    # every constant term that products and roots compute or read is a
    # polynomial in q, so these modules work in QLaurent and never name the
    # fraction type
    found = []
    for name in ("products.py", "roots.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
            if "QFrac" in names:
                found.append(f"{name}:{node.lineno}")
    assert not found, f"QFrac named in a polynomial route: {found}"


def _named(node) -> list:
    """The names a node refers to: a variable, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def test_every_library_definition_is_used():
    # a module-level function or class of the library that no other part of
    # the library names is test-only or dead code; the names the benchmark
    # reaches through perfbench/*.py may stay
    owners: dict = {}  # name -> the top-level definitions that refer to it
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.name, stmt.name)
                defined.append(owner)
            for node in ast.walk(stmt):
                for name in _named(node):
                    owners.setdefault(name, set()).add(owner)
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    assert len(defined) > 50 and "gx_ct" in bench
    unused = [f"{module}:{name}" for module, name in defined
              if not owners.get(name, set()) - {(module, name)}
              and not re.search(rf"\b{re.escape(name)}\b", bench)]
    assert not unused, f"library definitions named nowhere else in src or perfbench: {unused}"
