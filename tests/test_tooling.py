"""Source-level checks on the library itself."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
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


def test_packed_format_stays_in_laurent():
    # the packed coefficient format, (lo, mag) pairs of base-2**B digits, and
    # the fold plan that lays out its keys are laurent's decision alone: no
    # other module imports a private laurent name or names a packed helper,
    # public or private
    helpers = {"fold_packed_raw", "pack_qlaurent", "packed_add", "packed_mul", "_pack_qlaurent", "_packed_add",
               "_packed_mul", "_decode_packed", "_plan"}
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


def test_every_library_definition_is_used():
    # a module-level function or class, or a non-dunder method of a class, of
    # the library that no other part of the library names is test-only or
    # dead code; the names the benchmark reaches through perfbench/*.py may
    # stay.  A reference belongs to the method it sits in, else to the
    # top-level definition: a class may not count itself, a method may count
    # its class's other methods.
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    owners: dict = {}  # name -> the (module, top-level name, method) places that refer to it
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            top = stmt.name if isinstance(stmt, funcs + (ast.ClassDef,)) else None
            methods = [node for node in stmt.body if isinstance(node, funcs)] if isinstance(stmt, ast.ClassDef) else []
            if top:
                defined.append((path.name, top, None))
            defined += [(path.name, top, m.name) for m in methods
                        if not (m.name.startswith("__") and m.name.endswith("__"))]
            method_of = {id(node): m.name for m in methods for node in ast.walk(m)}
            for node in ast.walk(stmt):
                for name in _named(node):
                    owners.setdefault(name, set()).add((path.name, top, method_of.get(id(node))))
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    assert len(defined) > 200 and "gx_ct" in bench
    unused = []
    for module, top, method in defined:
        name = method or top
        elsewhere = {owner for owner in owners.get(name, set())
                     if (owner != (module, top, method) if method else owner[:2] != (module, top))}
        if not elsewhere and not re.search(rf"\b{re.escape(name)}\b", bench):
            unused.append(f"{module}:{top}.{method}" if method else f"{module}:{top}")
    assert not unused, f"library definitions named nowhere else in src or perfbench: {unused}"


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
