"""Source-level checks on the library itself."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import qct
from qct import cli

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


def test_packed_format_stays_in_laurent():
    # the fold's packed state, (lo, mag) pairs of base-2**B digits that
    # QLaurent.kronecker and from_kronecker encode and decode, and the fold
    # plan that lays out its keys are laurent's decision alone: no other
    # module imports a private laurent name or names a packed helper, public
    # or private
    helpers = {"fold_packed_raw", "packed_add", "packed_mul", "_packed_add", "_packed_mul", "_plan"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            private = (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("laurent")
                       and any(alias.name.startswith("_") for alias in node.names))
            private |= (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                        and getattr(node.value, "id", None) == "laurent")
            if private or helpers & set(_named(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"the packed format outside laurent.py: {found}"


def _named(node) -> list:
    """The names a node refers to: a variable, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


# The library functions that the run in test_every_library_function_runs
# leaves uncalled, each with the reason it stays in src.  __repr__, __str__,
# __hash__ and __eq__ are exempt by rule and need no entry.  To add an entry,
# name the function as "module.py:Class.method" (or "module.py:function") and
# say why no command reaches it.
SPAN = "perfbench traces it by name, or only code it traces calls it: it leaves src with its benchmark span"
UNCALLED = {
    # the expanded form, which splitting.pair_product returns
    **{f"laurent.py:MLaurent.{name}": SPAN for name in (
        "__init__", "constant", "is_zero", "__len__", "coefficient", "_check", "__add__", "__sub__", "__neg__",
        "__mul__", "scale")},
    # the gcd layer: QFrac's reducing arithmetic and what only it calls
    **{f"qring.py:{name}": SPAN for name in (
        "poly_gcd", "_primitive", "_strip", "_reduce", "QFrac.__add__", "QFrac.__sub__", "QFrac.__neg__",
        "QFrac.__mul__", "QFrac.__truediv__", "QFrac.is_zero", "QLaurent.content", "QLaurent.leading_coefficient",
        "QLaurent.divexact", "QLaurent.max_exp", "QLaurent.coefficient", "QLaurent.__neg__")},
    **{name: SPAN for name in (
        "roots.py:product_form_coeffs", "roots.py:_factored_zpoly", "roots.py:leave_one_out_bound_holds",
        "splitting.py:pair_product", "splitting.py:residue_identity_holds")},
}
EXEMPT = ("__repr__", "__str__", "__hash__", "__eq__")

# Runs argv lists through qct.cli.main in a fresh process with a profiler
# installed before qct is imported, so import-time calls count and no cache
# is warm; prints each exit code and the (file name, first line) of every
# function in the library that was called.
REACH_PROBE = """
import contextlib, io, json, os, sys
called = set()
def record(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(record)
import qct, qct.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(qct.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
src = os.path.dirname(qct.__file__)
print(json.dumps([codes, sorted((os.path.basename(f), line) for f, line in called if os.path.dirname(f) == src)]))
"""


def _reach_commands(out: Path) -> list:
    """(argv, exit code) pairs: every suite at its default grid, each
    family's brute-force and closed-form values, one gx-route value, the
    report over the suites' reports, a run under --max-seconds and a usage
    error."""
    values = {"qdyson": ["--a", "1,2,1"], "qmorris": ["--n", "2", "--a", "1", "--b", "1", "--c", "1"],
              "bf": ["--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"],
              "bf-p1": ["--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"],
              "dn0": ["--shape", "1,2", "--c", "1"], "kadell": ["--v", "1,0", "--r", "1", "--a", "1,1"]}
    commands = [(["verify", "--suite", suite, "--out", str(out / f"qct-report-{suite}.json")], 0)
                for suite in sorted(cli.SUITES)]
    commands += [(["ct", "--family", family] + values[family], 0) for family in ("qdyson", "qmorris", "bf", "kadell")]
    # the gx route on the smallest query whose walk splits a term and moves its monomial (gxseries._split, _moved)
    commands.append((["ct", "--method", "gx", "--family", "bf", "--shape", "1,2", "--a", "0", "--b", "0", "--c", "1"], 0))
    commands += [(["rhs", "--family", family] + flags, 0) for family, flags in values.items()]
    commands.append((["report", "--dir", str(out), "--out", str(out / "summary.json")], 0))
    commands.append((["verify", "--suite", "qmorris", "--max-seconds", "60", "--out", str(out / "trimmed.json")], 0))
    commands.append((["ct", "--family", "qdyson"], 2))
    return commands


def _library_functions() -> dict:
    """(file name, first line) -> "module.py:Class.method" for every function
    the library defines, nested ones too; a decorated function's code starts
    at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first] = f"{path.name}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return found


def test_every_library_function_runs(tmp_path):
    # src holds only what its commands run: every function runs under the
    # suites and commands below, or has an UNCALLED entry; an entry whose
    # function ran or is gone is stale.  The run is a fresh process, since a
    # cache warmed by an earlier test would keep its function's body from
    # running here.
    commands = _reach_commands(tmp_path)
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", REACH_PROBE, json.dumps([argv for argv, _ in commands])],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True).stdout
    codes, called = json.loads(out)
    assert codes == [code for _, code in commands]
    functions = _library_functions()
    assert len(functions) > 200
    ran = {functions[key] for key in map(tuple, called) if key in functions}
    uncalled = sorted(name for name in functions.values()
                      if name not in ran and name not in UNCALLED and re.split("[:.]", name)[-1] not in EXEMPT)
    stale = sorted(name for name in UNCALLED if name in ran or name not in functions.values())
    assert not uncalled, f"library functions no command runs (move them to the tests, or add an entry): {uncalled}"
    assert not stale, f"UNCALLED entries whose function ran or is gone: {stale}"


def test_library_reads_no_environment():
    # flags are the only input of a run: a module that reads the environment
    # would hold a setting that the parser neither shows nor checks
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if {"environ", "getenv"} & set(_named(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"the library reads the environment: {found}"


def test_cli_import_leaves_process_pools_unloaded():
    # suites run serially, so importing the front end loads no process pool
    probe = ("import sys, qct.cli; "
             "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_test_imports_are_declared_in_the_test_extra():
    # `pip install -e .[test]` must bring everything the tests import, or a
    # module that imports a missing package fails to collect; tomllib is
    # 3.11+, so the extra's line is read with a regex
    tests = Path(__file__).resolve().parent
    line = re.search(r"^test\s*=\s*\[(.*)\]", (tests.parent / "pyproject.toml").read_text(), re.M)
    assert line, "pyproject.toml has no test extra"
    extra = {re.match(r"[A-Za-z0-9_.-]+", item.strip().strip("\"'")).group().lower().replace("-", "_")
             for item in line.group(1).split(",") if item.strip()}
    local = {path.stem for path in tests.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"qct"} | local | extra
    found = []
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert not found, f"test imports missing from the test extra: {found}"


def test_one_pochhammer_engine():
    # Cyclo.poch_product builds every q-Pochhammer symbol and Gaussian
    # binomial of the library: no module defines or imports a module-level
    # qpoch or qbinom, and no module but qring long-divides a product
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[-1] for alias in stmt.names]
            else:
                continue
            found += [f"{path.name}:{stmt.lineno} {name}" for name in names if name in ("qpoch", "qbinom")]
        if path.name != "qring.py":
            found += [f"{path.name}:{node.lineno} .divexact(" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "divexact"]
    assert not found, f"a second q-Pochhammer engine: {found}"
