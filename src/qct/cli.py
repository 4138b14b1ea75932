"""Batch front end: compute constant terms, run named verification suites,
and emit human-readable plus machine-readable reports.

Suites mirror the acceptance grids, and every case is exact.  Output on
stdout is deterministic for fixed flags (timings live only in the JSON
reports).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations, product

from . import closedform, gxseries, products, roots, splitting
from .closedform import BFParams, all_shapes
from .products import Shape
from .qring import QFrac, eval_poly, interpolate


def _nonneg_ints(text: str) -> list[int]:
    """argparse type: a comma list of nonnegative integers."""
    try:
        values = [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"entries must be nonnegative, got {text!r}")
    return values


def _nonneg_int(text: str) -> int:
    """argparse type: one nonnegative integer."""
    values = _nonneg_ints(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"expected one nonnegative integer, got {text!r}")
    return values[0]


def _positive_ints(text: str) -> list[int]:
    """argparse type: a nonempty comma list of positive integers."""
    values = _nonneg_ints(text)
    if not values or 0 in values:
        raise argparse.ArgumentTypeError(f"entries must be positive, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    """argparse type: one positive integer."""
    values = _positive_ints(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"expected one positive integer, got {text!r}")
    return values[0]


def _nonneg_float(text: str) -> float:
    """argparse type: one nonnegative number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _shape(text: str) -> Shape:
    """argparse type: block sizes n_0,n_1,... as a comma list of positive integers."""
    return Shape(_positive_ints(text))


def _kadell_args(args) -> tuple[list[int], int, list[int]]:
    """--v, --r and --a of the kadell family, checked against each other."""
    if args.v is None or args.r is None or args.a is None:
        build_parser().error("kadell needs --v, --r and --a")
    if len(args.v) != len(args.a):
        build_parser().error(f"--v and --a must have equal length, got {args.v} and {args.a}")
    return args.v, args.r, args.a


def _abc(args) -> tuple[int, int, int]:
    """--a, --b, --c of a family with one value each, absent flags read as 0."""
    if args.a is not None and len(args.a) != 1:
        build_parser().error("--a takes one value for this family")
    return (args.a[0] if args.a else 0), args.b or 0, args.c or 0


# -- ct and rhs commands -----------------------------------------------------------


def _ct_value(args) -> QFrac:
    family = args.family
    if family == "qdyson":
        if args.a is None:
            build_parser().error("qdyson needs --a as a comma list")
        if args.method == "gx":
            build_parser().error("--method gx supports the bf and qmorris families")
        return products.ct_qdyson(args.a)
    if family in ("qmorris", "bf"):
        if family == "qmorris":
            if args.n is None and args.shape is None:
                build_parser().error("qmorris needs --n or --shape")
            shape = Shape((args.n,)) if args.n else args.shape
        else:
            if args.shape is None:
                build_parser().error("bf needs --shape")
            shape = args.shape
        a, b, c = _abc(args)
        if args.method == "gx":
            return _gx_value(shape, a, b, c)
        return products.bf_ct(shape, a, b, c)
    if family == "kadell":
        v, r, a = _kadell_args(args)
        if args.method == "gx":
            build_parser().error("--method gx supports the bf and qmorris families")
        return products.kadell_ct(v, r, a)
    build_parser().error(f"unknown family {family!r}")


def _gx_value(shape: Shape, a: int, b: int, c: int) -> QFrac:
    """Evaluate the constant term through the elimination pipeline: values at
    negative arguments determine the polynomial in q^a, evaluated at q^a."""
    nb = shape.n * b
    values = [gxseries.gx_ct(shape, b, c, d) for d in range(1, nb + 2)]
    return eval_poly(interpolate(values, first=-1, step=-1), a)


def cmd_ct(args) -> int:
    print(_ct_value(args))
    return 0


def cmd_rhs(args) -> int:
    family = args.family
    if family == "qdyson":
        if args.a is None:
            build_parser().error("qdyson needs --a as a comma list")
        print(closedform.qdyson_rhs(args.a))
        return 0
    if family == "kadell":
        v, r, a = _kadell_args(args)
        if sum(v) != r:
            build_parser().error(f"the kadell closed form needs |--v| = --r, got {sum(v)} and {r}")
        print(closedform.kadell_rhs(v, r, a))
        return 0
    if family == "qmorris" and args.n is None and args.shape is None:
        build_parser().error("qmorris needs --n or --shape")
    if family in ("bf", "bf-p1", "dn0") and args.shape is None:
        build_parser().error(f"{family} needs --shape")
    a, b, c = _abc(args)
    if family == "qmorris":
        n = args.n if args.n else args.shape.n
        print(closedform.qmorris_rhs(n, a, b, c))
    elif family == "bf":
        print(closedform.bf_rhs(BFParams(args.shape, a, b, c)))
    elif family == "bf-p1":
        shape = args.shape
        if shape.p != 1:
            build_parser().error("bf-p1 needs a two-block shape")
        print(closedform.bf_p1_rhs(shape.parts[0], shape.parts[1], a, b, c))
    elif family == "dn0":
        print(closedform.dn0_rhs(args.shape, c))
    else:
        build_parser().error(f"unknown family {family!r}")
    return 0


# -- suite registry -----------------------------------------------------------------

BF_SHAPES = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2), (2, 3)]


def _cases_qdyson(args):
    cases = [{"a": list(a)} for a in product(range(4), repeat=3)]
    cases += [{"a": list(a)} for a in product(range(3), repeat=4)]
    return cases


def _run_qdyson(params):
    a = params["a"]
    got = products.ct_qdyson(a)
    want = closedform.qdyson_rhs(a)
    return got == want, None if got == want else {"got": str(got), "want": str(want)}


def _cases_qmorris(args):
    return [{"n": n, "a": a, "b": b, "c": c}
            for n in (1, 2, 3) for a in range(3) for b in range(3) for c in range(3)]


def _run_qmorris(params):
    n, a, b, c = params["n"], params["a"], params["b"], params["c"]
    got = products.qmorris_ct(n, a, b, c)
    want = closedform.qmorris_rhs(n, a, b, c)
    return got == want, None if got == want else {"got": str(got), "want": str(want)}


def _cases_bf(args):
    shapes = [args.shape.parts] if args.shape else BF_SHAPES
    grid = range(3)
    out = []
    for shape in shapes:
        for a in grid:
            for b in grid:
                for c in grid:
                    out.append({"shape": list(shape), "a": a, "b": b, "c": c})
    return out


def _run_bf(params):
    shape = Shape(params["shape"])
    a, b, c = params["a"], params["b"], params["c"]
    got = products.bf_ct(shape, a, b, c)
    want = closedform.bf_rhs(BFParams(shape, a, b, c))
    if got != want:
        return False, {"got": str(got), "want": str(want)}
    # tie-break independence over every maximal decorated part
    if shape.p >= 1:
        top = max(shape.parts[1:])
        for k in range(1, shape.p + 1):
            if shape.parts[k] == top:
                if closedform.bf_rhs(BFParams(shape, a, b, c), k=k) != want:
                    return False, {"tie_break_k": k}
    return True, None


def _cases_p1(args):
    shapes = [s for s in BF_SHAPES if len(s) == 2]
    return [{"shape": list(shape), "a": a, "b": b, "c": c}
            for shape in shapes for a in range(3) for b in range(3) for c in range(3)]


def _run_p1(params):
    shape = Shape(params["shape"])
    a, b, c = params["a"], params["b"], params["c"]
    closed = closedform.bf_p1_rhs(shape.parts[0], shape.parts[1], a, b, c)
    rec = closedform.bf_rhs(BFParams(shape, a, b, c))
    brute = products.bf_ct(shape, a, b, c)
    ok = closed == rec == brute
    return ok, None if ok else {"closed": str(closed), "recursion": str(rec), "brute": str(brute)}


def _cases_roots(args):
    shapes = [args.shape.parts] if args.shape else BF_SHAPES
    out = []
    for shape in shapes:
        bs = [args.b] if args.b is not None else range(3)
        for b in bs:
            cs = [args.c] if args.c is not None else range(3)
            for c in cs:
                if c >= b:
                    out.append({"shape": list(shape), "b": b, "c": c})
    return out


def _run_roots(params):
    shape = Shape(params["shape"])
    rep = roots.verify_roots(shape, params["b"], params["c"])
    ok = (rep["degree_bound_ok"] and rep["all_vanish"] and rep["closed_form_match"]
          and rep["root_count_ok"] in (True, None) and rep["disjoint"] in (True, None))
    return ok, None if ok else rep


def _cases_splitting(args):
    small = [(1, 1), (1, 2), (2, 2), (1, 1, 1)]
    if args.shape is None and args.c is None:
        # shapes with n <= 3 at c <= 2 come first, so those twelve cases
        # keep their indices as the grid grows
        grid = ([(s, c) for s in small for c in (0, 1, 2)] + [(s, 3) for s in small]
                + [(s, c) for s in ((2, 3), (3, 3), (2, 2, 2)) for c in range(4)])
    else:
        grid = [(s, c) for s in ([args.shape.parts] if args.shape else small)
                for c in ([args.c] if args.c is not None else (0, 1, 2))]
    return [{"shape": list(s), "c": c} for s, c in grid]


def _run_splitting(params):
    rep = splitting.verify_split(Shape(params["shape"]), params["c"])
    return rep["ok"], rep["witness"]


def _cases_vanishing(args):
    cases = [{"shape": [2, 2], "h": [1], "t": [0, 0, 0, 0], "c": c} for c in (1, 2, 3)]
    for shape in all_shapes(5, min_p=1):
        n0 = shape.parts[0]
        if not 2 <= n0 <= shape.n - 1:
            continue
        for h in product(range(-1, 3), repeat=shape.p):
            if sum(h) > n0 - 1:
                continue
            total = sum(h[u] * shape.parts[u + 1] for u in range(shape.p)) - n0
            if not 0 <= total <= 2:
                continue
            t = [0] * shape.n
            t[0] = total
            for c in (1, 2):
                cases.append({"shape": list(shape.parts), "h": list(h), "t": t, "c": c})
    return cases


def _run_vanishing(params):
    val = splitting.vanishing_check(Shape(params["shape"]), params["h"], params["t"], params["c"])
    return val.is_zero(), None if val.is_zero() else {"value": str(val)}


def _cases_lemma_key(args):
    cases = [{"kind": "examples"}]
    for s in range(1, 7):
        for p in range(0, 3):
            for r in _compositions_into(s, p + 1):
                cases.append({"kind": "classify", "r": list(r)})
    for s in range(1, 9):
        cases.append({"kind": "minweight", "s": s})
    return cases


def _compositions_into(total, parts):
    if parts == 1:
        yield (total,) if total >= 1 else ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_into(total - first, parts - 1):
            if rest:
                yield (first,) + rest


def _run_lemma_key(params):
    if params["kind"] == "examples":
        n1 = roots.path_weight((9, 10, 3, 5, 6, 8, 4, 2, 7, 1), (3, 3, 4)).total
        w0, n2 = roots.min_weight_witness((3, 3, 4))
        ok = n1 == 8 and n2 == 4 and w0 == (10, 6, 3, 9, 5, 2, 8, 4, 1, 7)
        return ok, None if ok else {"N_example": n1, "w0": list(w0), "N_w0": n2}
    if params["kind"] == "classify":
        # every k the enumerator skips falls under case 1, 2 or 3 by
        # construction, so classifying the rest covers the whole box
        for b, c, t in product(range(3), repeat=3):
            for k in roots.lemma_key_survivors(b, c, t, params["r"]):
                if roots.lemma_key_classify(k, b, c, t, params["r"])[0] != 4:
                    return False, {"k": list(k)}
        return True, None
    if params["kind"] == "minweight":
        for r in _all_positive_compositions(params["s"]):
            if len(r) < 2:
                continue
            m = max(r[1:])
            roots.min_weight_witness(r)
            best, leave_one_out = roots.min_path_weights(r)
            if best != m:
                return False, {"r": list(r), "min": best}
            if leave_one_out < m - 1:
                return False, {"r": list(r), "leave_one_out_min": leave_one_out}
        return True, None
    raise ValueError(params)


def _all_positive_compositions(s):
    def rec(rem):
        if rem == 0:
            yield ()
            return
        for v in range(1, rem + 1):
            for rest in rec(rem - v):
                yield (v,) + rest
    yield from rec(s)


def _cases_poch(args):
    return [{"imax": 3, "jmax": 3}]


def _run_poch(params):
    rep = splitting.poch_identities(params["imax"], params["jmax"])
    return rep["ok"], None if rep["ok"] else rep


def _cases_qsum(args):
    return [{"nmax": 8, "shapes_nmax": 5, "cmax": 3}]


def _run_qsum(params):
    rep = closedform.identity_suite(params["nmax"], params["shapes_nmax"], params["cmax"])
    ok = rep["witness"] is None
    return ok, None if ok else rep


def _cases_gx(args):
    cases = []
    for d in range(1, 6):
        cases.append({"kind": "branches", "shape": [1, 2], "b": 1, "c": 1, "d": d})
    cases.append({"kind": "laurent", "shape": [2, 4], "b": 1, "c": 2, "d": 5})
    cases.append({"kind": "grand", "shape": [1, 1], "b": 1, "c": 1, "dmax": 4})
    cases.append({"kind": "oracle"})
    return cases


def _run_gx(params):
    kind = params["kind"]
    if kind == "branches":
        shape = Shape(params["shape"])
        b, c, d = params["b"], params["c"], params["d"]
        seen = {}
        for s in range(1, shape.n + 1):
            for u in combinations(range(1, shape.n + 1), s):
                for k in product(range(1, d + 1), repeat=s):
                    rep = gxseries.vanishing_property_checks(shape, b, c, d, u, k)
                    seen[rep["branch"]] = seen.get(rep["branch"], 0) + 1
                    if not rep["ok"]:
                        return False, {"u": list(u), "k": list(k), "report": str(rep)}
        return True, None
    if kind == "laurent":
        shape = Shape(params["shape"])
        b, c, d = params["b"], params["c"], params["d"]
        nontrivial = 0
        for u in combinations(list(shape.block(1)), 2):
            for k in [(d, 2), (2, d), (d, d)]:
                rep = gxseries.vanishing_property_checks(shape, b, c, d, u, k)
                if rep["branch"] != "laurent" or not rep["ok"]:
                    return False, {"u": list(u), "k": list(k), "report": str(rep)}
                if not rep["zero_by_V"]:
                    nontrivial += 1
                    if not (rep["divisible"] and rep["laurent_form_ok"] and rep["ct_zero"]):
                        return False, {"u": list(u), "k": list(k), "report": str(rep)}
        return nontrivial > 0, None if nontrivial else {"error": "no nontrivial laurent case"}
    if kind == "grand":
        shape = Shape(params["shape"])
        b, c = params["b"], params["c"]
        poly = roots.interpolate_dn(shape, b, c)
        for d in range(1, params["dmax"] + 1):
            got = gxseries.gx_ct(shape, b, c, d)
            want = eval_poly(poly, -d)
            if got != want:
                return False, {"d": d, "got": str(got), "want": str(want)}
        return True, None
    if kind == "oracle":
        # probes with V != 0, where the two sides are not both zero
        probes = [((1, 1), 1, 1, 2, (1,), (2,)), ((1, 2), 1, 1, 5, (1, 3), (4, 2))]
        nontrivial = 0
        for shp, b, c, d, u, k in probes:
            shape = Shape(shp)
            if not gxseries.oracle_matches_direct(shape, b, c, d, u, k):
                return False, {"probe": [list(shp), b, c, d, list(u), list(k)]}
            nontrivial += not gxseries.build_Quk(shape, b, c, d, u, k).is_zero()
        return nontrivial > 0, None if nontrivial else {"error": "every oracle probe has V = 0"}
    raise ValueError(params)


def _cases_kadell(args):
    cases = []
    for n in (1, 2, 3):
        for a in product(range(3), repeat=n):
            if sum(a) == 0:
                continue
            for r in (1, 2):
                for v in _weak_compositions(r, n):
                    cases.append({"v": list(v), "r": r, "a": list(a)})
    return cases


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _run_kadell(params):
    got = products.kadell_ct(params["v"], params["r"], params["a"])
    want = closedform.kadell_rhs(params["v"], params["r"], params["a"])
    return got == want, None if got == want else {"got": str(got), "want": str(want)}


# suite name -> (case builder, case runner, the grid flags the builder reads)
SUITES = {
    "qdyson": (_cases_qdyson, _run_qdyson, ()),
    "qmorris": (_cases_qmorris, _run_qmorris, ()),
    "bf-recursion": (_cases_bf, _run_bf, ("shape",)),
    "p1-formula": (_cases_p1, _run_p1, ()),
    "roots": (_cases_roots, _run_roots, ("shape", "b", "c")),
    "splitting": (_cases_splitting, _run_splitting, ("shape", "c")),
    "vanishing": (_cases_vanishing, _run_vanishing, ()),
    "lemma-key": (_cases_lemma_key, _run_lemma_key, ()),
    "poch-identities": (_cases_poch, _run_poch, ()),
    "qsum": (_cases_qsum, _run_qsum, ()),
    "gx-pipeline": (_cases_gx, _run_gx, ()),
    "kadell": (_cases_kadell, _run_kadell, ()),
}


def _case_cost(suite: str, params: dict) -> tuple:
    if suite == "lemma-key":
        # the work grows with s: sum(r) for classify, s for minweight, none
        # for the fixed examples
        size = sum(params["r"]) if params["kind"] == "classify" else params.get("s", 0)
        return (size, json.dumps(params, sort_keys=True))
    shape = params.get("shape") or params.get("a") or [1]
    size = sum(abs(int(x)) for x in shape) if isinstance(shape, list) else 1
    extras = sum(int(params.get(key, 0) or 0) for key in ("a", "b", "c", "d") if
                 not isinstance(params.get(key), list))
    return (size + extras, json.dumps(params, sort_keys=True))


def _run_case(suite: str, params: dict) -> dict:
    runner = SUITES[suite][1]
    try:
        ok, witness = runner(params)
    except Exception as exc:  # a crash is a failing case, not a crashed suite
        ok, witness = False, {"error": f"{type(exc).__name__}: {exc}"}
    case = {"params": params, "status": "pass" if ok else "fail"}
    if witness is not None:
        case["witness"] = witness
    return case


def run_suite(name: str, args) -> dict:
    if name not in SUITES:
        build_parser().error(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    carve, _, reads = SUITES[name]
    for flag in ("shape", "b", "c"):
        if getattr(args, flag, None) is not None and flag not in reads:
            build_parser().error(f"suite {name} does not read --{flag}")
    cases = carve(args)
    order = sorted(range(len(cases)), key=lambda idx: _case_cost(name, cases[idx]))
    budget = args.max_seconds
    try:
        threads = max(1, int(os.environ.get("QCT_THREADS", "1")))
    except ValueError:
        build_parser().error(f"QCT_THREADS must be an integer, got {os.environ['QCT_THREADS']!r}")
    t0 = time.monotonic()
    results: dict[int, dict] = {}
    if threads > 1 and budget is None and len(cases) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futs = {idx: pool.submit(_run_case, name, cases[idx]) for idx in order}
            for idx, fut in futs.items():
                results[idx] = fut.result()
    else:
        for idx in order:
            if budget is not None and time.monotonic() - t0 > budget:
                results[idx] = {"params": cases[idx], "status": "trimmed"}
                continue
            results[idx] = _run_case(name, cases[idx])
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    return {
        "suite": name,
        "grid": {"cases": len(cases)},
        "cases": [results[idx] for idx in range(len(cases))],
        "elapsed_ms": elapsed_ms,
        "mode": "exact",
    }


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args)
    statuses = [c["status"] for c in report["cases"]]
    for i, case in enumerate(report["cases"]):
        print(f"{args.suite}[{i}] {case['status']} {json.dumps(case['params'], sort_keys=True)}")
    passed = statuses.count("pass")
    failed = statuses.count("fail")
    trimmed = statuses.count("trimmed")
    print(f"{args.suite}: {passed} pass, {failed} fail, {trimmed} trimmed")
    out = args.out or f"qct-report-{args.suite}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 1 if failed else 0


def cmd_report(args) -> int:
    directory = args.dir or "."
    try:
        names = os.listdir(directory)
    except OSError as exc:
        build_parser().error(f"--dir {directory!r}: {exc.strerror}")
    files = sorted(f for f in names if f.startswith("qct-report-") and f.endswith(".json"))
    rows = []
    overall_red = False
    for f in files:
        with open(os.path.join(directory, f)) as fh:
            rep = json.load(fh)
        statuses = [c["status"] for c in rep["cases"]]
        failed = statuses.count("fail")
        row = {
            "suite": rep["suite"],
            "cases": len(statuses),
            "pass": statuses.count("pass"),
            "fail": failed,
            "trimmed": statuses.count("trimmed"),
            "mode": rep.get("mode", "exact"),
        }
        if failed:
            overall_red = True
            first = next(c for c in rep["cases"] if c["status"] == "fail")
            row["witness"] = first.get("witness")
        rows.append(row)
    status = "fail" if overall_red else "pass" if rows else "empty"
    summary = {"suites": rows, "status": status}
    if not rows:
        print("no suite reports found; nothing to aggregate")
    for row in rows:
        line = f"{row['suite']:>16}: {row['pass']}/{row['cases']} pass"
        if row["fail"]:
            line += f", {row['fail']} FAIL (witness: {json.dumps(row.get('witness'))[:100]})"
        if row["trimmed"]:
            line += f", {row['trimmed']} trimmed"
        line += f" [{row['mode']}]"
        print(line)
    print(f"overall: {summary['status']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 1 if overall_red else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    ap = argparse.ArgumentParser(prog="qct", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    ct = sub.add_parser("ct", help="compute one constant term")
    ct.add_argument("--family", required=True,
                    choices=["qdyson", "qmorris", "bf", "kadell"])
    ct.add_argument("--shape", type=_shape, help="comma list, e.g. 1,2,2")
    ct.add_argument("--n", type=_positive_int, help="variable count (qmorris)")
    ct.add_argument("--a", type=_nonneg_ints)
    ct.add_argument("--b", type=_nonneg_int)
    ct.add_argument("--c", type=_nonneg_int)
    ct.add_argument("--v", type=_nonneg_ints, help="comma list (kadell)")
    ct.add_argument("--r", type=_positive_int, help="row weight (kadell)")
    ct.add_argument("--method", choices=["brute", "gx"], default="brute")
    ct.set_defaults(func=cmd_ct)

    rhs = sub.add_parser("rhs", help="evaluate a closed form")
    rhs.add_argument("--family", required=True,
                     choices=["qdyson", "qmorris", "bf", "bf-p1", "dn0", "kadell"])
    rhs.add_argument("--shape", type=_shape)
    rhs.add_argument("--n", type=_positive_int)
    rhs.add_argument("--a", type=_nonneg_ints)
    rhs.add_argument("--b", type=_nonneg_int)
    rhs.add_argument("--c", type=_nonneg_int)
    rhs.add_argument("--v", type=_nonneg_ints)
    rhs.add_argument("--r", type=_positive_int)
    rhs.set_defaults(func=cmd_rhs)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    ver.add_argument("--shape", type=_shape)
    ver.add_argument("--b", type=_nonneg_int)
    ver.add_argument("--c", type=_nonneg_int)
    ver.add_argument("--out", help="JSON report path")
    ver.add_argument("--seed", type=int, default=0,
                     help="ignored: no suite reads it; accepted because the "
                          "benchmark's partial-fraction ops pass it")
    ver.add_argument("--max-seconds", dest="max_seconds", type=_nonneg_float,
                     help="trim the grid deterministically from the large end; "
                          "a budget runs the suite serially, whatever QCT_THREADS says")
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="aggregate suite reports")
    rep.add_argument("--dir", help="directory holding qct-report-*.json")
    rep.add_argument("--out")
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
