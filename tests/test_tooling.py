"""Source-level checks on the library itself."""

import ast
import importlib.util
from pathlib import Path

import qct

SRC = Path(qct.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
