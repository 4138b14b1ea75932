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
from typing import Callable, NamedTuple

from . import closedform, gxseries, products, roots, splitting
from .closedform import BFParams, all_shapes, compositions
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


def _out_path(text: str) -> str:
    """argparse type: a file path whose directory exists, so a report can be
    written once the work is done."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory {directory!r} for {text!r}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _shape(text: str) -> Shape:
    """argparse type: block sizes n_0,n_1,... as a comma list of positive integers."""
    return Shape(_positive_ints(text))


# -- families: the ct and rhs commands ------------------------------------------------


class Family(NamedTuple):
    """A product family's value flags and its routes.  Each route maps the
    family's params dict, as its suite cases print it, to a value; a route
    looks its library function up when called, so a rebound module attribute
    is seen.  bf-p1 and dn0 are closed forms of the bf product (at p = 1 and
    at a = b = 0), so they have no brute-force route of their own: their
    checks use bf's, and ``qct ct`` offers the families that have one."""

    flags: tuple
    brute: Callable | None
    gx: Callable | None
    closed: Callable


def _bf_args(p) -> tuple:
    """(Shape, a, b, c) of a bf or qmorris params dict; q-Morris is the
    one-block product on n variables."""
    return Shape(p["shape"] if "shape" in p else (p["n"],)), p["a"], p["b"], p["c"]


FAMILIES = {
    "qdyson": Family(("a",), lambda p: products.ct_qdyson(p["a"]), None,
                     lambda p: closedform.qdyson_rhs(p["a"])),
    "qmorris": Family(("n", "shape", "a", "b", "c"),
                      lambda p: products.qmorris_ct(p["n"], p["a"], p["b"], p["c"]),
                      lambda p: _gx_value(*_bf_args(p)),
                      lambda p: closedform.qmorris_rhs(p["n"], p["a"], p["b"], p["c"])),
    "bf": Family(("shape", "a", "b", "c"), lambda p: products.bf_ct(*_bf_args(p)),
                 lambda p: _gx_value(*_bf_args(p)),
                 lambda p: closedform.bf_rhs(BFParams(*_bf_args(p)))),
    "bf-p1": Family(("shape", "a", "b", "c"), None, None,
                    lambda p: closedform.bf_p1_rhs(*p["shape"], p["a"], p["b"], p["c"])),
    "dn0": Family(("shape", "c"), None, None,
                  lambda p: closedform.dn0_rhs(Shape(p["shape"]), p["c"])),
    "kadell": Family(("v", "r", "a"), lambda p: products.kadell_ct(p["v"], p["r"], p["a"]), None,
                     lambda p: closedform.kadell_rhs(p["v"], p["r"], p["a"])),
}


def _family_params(args) -> dict:
    """The chosen family's params dict, read off the value flags.  A flag the
    family does not read, or a missing or inconsistent one, is a usage error."""
    family, error = args.family, build_parser().error
    for flag in ("shape", "n", "a", "b", "c", "v", "r"):
        if getattr(args, flag) is not None and flag not in FAMILIES[family].flags:
            error(f"family {family} does not read --{flag}")
    if family == "qdyson":
        if args.a is None:
            error("qdyson needs --a as a comma list")
        return {"a": args.a}
    if family == "kadell":
        if args.v is None or args.r is None or args.a is None:
            error("kadell needs --v, --r and --a")
        if len(args.v) != len(args.a):
            error(f"--v and --a must have equal length, got {args.v} and {args.a}")
        if args.method == "closed" and sum(args.v) != args.r:
            error(f"the kadell closed form needs |--v| = --r, got {sum(args.v)} and {args.r}")
        return {"v": args.v, "r": args.r, "a": args.a}
    if family == "qmorris":
        if (args.n is None) == (args.shape is None):
            error("qmorris needs --n or --shape, not both")
        params = {"n": args.n if args.n is not None else args.shape.n}
    else:
        if args.shape is None:
            error(f"{family} needs --shape")
        if family == "bf-p1" and args.shape.p != 1:
            error("bf-p1 needs a two-block shape")
        params = {"shape": list(args.shape.parts)}
    if args.a is not None and len(args.a) != 1:
        error("--a takes one value for this family")
    if family != "dn0":
        params.update(a=args.a[0] if args.a else 0, b=args.b or 0)
    params["c"] = args.c or 0
    return params


def _gx_value(shape: Shape, a: int, b: int, c: int) -> QFrac:
    """Evaluate the constant term through the elimination pipeline: values at
    negative arguments determine the polynomial in q^a, evaluated at q^a.
    Each value is a cyclo_sum, which must have no denominator left."""
    nb = shape.n * b
    values = []
    for d in range(1, nb + 2):
        v = gxseries.gx_ct(shape, b, c, d)
        if not v.is_polynomial():
            raise ArithmeticError(f"interpolation value is not a polynomial in q: {v}")
        values.append(v.num)
    return eval_poly(interpolate(values, first=-1, step=-1), a)


def cmd_value(args) -> int:
    """``ct`` and ``rhs``: the chosen family's value by the route ``--method``
    names; ``rhs`` is the closed-form route."""
    params = _family_params(args)
    route = getattr(FAMILIES[args.family], args.method)
    if route is None:
        build_parser().error("--method gx supports the bf and qmorris families")
    print(route(params))
    return 0


# -- suite registry -----------------------------------------------------------------

BF_SHAPES = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2), (2, 3)]


def _cases_qdyson(args):
    cases = [{"a": list(a)} for a in product(range(4), repeat=3)]
    cases += [{"a": list(a)} for a in product(range(3), repeat=4)]
    return cases


def _cases_qmorris(args):
    return [{"n": n, "a": a, "b": b, "c": c}
            for n in (1, 2, 3) for a in range(3) for b in range(3) for c in range(3)]


def _abc_grid(shapes):
    """bf params dicts: each shape with every a, b, c in {0, 1, 2}."""
    return [{"shape": list(shape), "a": a, "b": b, "c": c}
            for shape in shapes for a, b, c in product(range(3), repeat=3)]


def _cases_bf(args):
    return _abc_grid([args.shape.parts] if args.shape else BF_SHAPES)


def _brute_vs_closed(family: str, params) -> tuple:
    """A family's brute-force route against its closed form on one case."""
    got, want = FAMILIES[family].brute(params), FAMILIES[family].closed(params)
    return got == want, None if got == want else {"got": str(got), "want": str(want)}


def _run_bf(params):
    got, want = FAMILIES["bf"].brute(params), FAMILIES["bf"].closed(params)
    if got != want:
        return False, {"got": str(got), "want": str(want)}
    # tie-break independence over every maximal decorated part
    shape, a, b, c = _bf_args(params)
    if shape.p >= 1:
        top = max(shape.parts[1:])
        for k in range(1, shape.p + 1):
            if shape.parts[k] == top:
                if closedform.bf_rhs(BFParams(shape, a, b, c), k=k) != want:
                    return False, {"tie_break_k": k}
    return True, None


def _cases_p1(args):
    return _abc_grid(s for s in BF_SHAPES if len(s) == 2)


def _run_p1(params):
    closed = FAMILIES["bf-p1"].closed(params)
    rec = FAMILIES["bf"].closed(params)
    brute = FAMILIES["bf"].brute(params)
    ok = closed == rec == brute
    return ok, None if ok else {"closed": str(closed), "recursion": str(rec), "brute": str(brute)}


def _cases_roots(args):
    shapes = [args.shape.parts] if args.shape else BF_SHAPES
    bs = [args.b] if args.b is not None else range(3)
    cs = [args.c] if args.c is not None else range(3)
    return [{"shape": list(shape), "b": b, "c": c}
            for shape in shapes for b in bs for c in cs if c >= b]


def _run_roots(params):
    shape = Shape(params["shape"])
    rep = roots.verify_roots(shape, params["b"], params["c"])
    ok = (rep["degree_bound_ok"] and rep["all_vanish"] and rep["closed_form_match"]
          and rep["root_count_ok"] in (True, None) and rep["disjoint"] in (True, None)
          and rep["product_form_match"] in (True, None))
    return ok, None if ok else rep


def _cases_splitting(args):
    if args.shape is not None and args.shape.p < 1:
        build_parser().error("suite splitting needs a shape with a decorated block")
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
            for r in compositions(s):
                if len(r) == p + 1:
                    cases.append({"kind": "classify", "r": list(r)})
    for s in range(1, 9):
        cases.append({"kind": "minweight", "s": s})
    return cases


def _run_lemma_key(params):
    if params["kind"] == "examples":
        n1 = roots.path_weight((9, 10, 3, 5, 6, 8, 4, 2, 7, 1), (3, 3, 4)).total
        w0, n2 = roots.min_weight_witness((3, 3, 4))
        ok = n1 == 8 and n2 == 4 and w0 == (10, 6, 3, 9, 5, 2, 8, 4, 1, 7)
        return ok, None if ok else {"N_example": n1, "w0": list(w0), "N_w0": n2}
    if params["kind"] == "classify":
        # every k the enumerator skips falls under case 1, 2 or 3 by
        # construction, so classifying the rest covers the whole box; one
        # enumeration per c, at b = 0 and the largest t, yields every (b, t)
        r = params["r"]
        wide = [roots.lemma_key_survivors(0, c, 2, r) for c in range(3)]
        for b, c, t in product(range(3), repeat=3):
            for k in roots.lemma_key_rebase(wide[c], b, c, t):
                if roots.lemma_key_classify(k, b, c, t, r)[0] != 4:
                    return False, {"k": list(k), "b": b, "c": c, "t": t}
        return True, None
    if params["kind"] == "minweight":
        # one Held-Karp pass for every r, walked in composition order so the
        # first failing r is the witness
        rs = [r for r in compositions(params["s"]) if len(r) >= 2]
        for r, (best, leave_one_out) in zip(rs, roots.min_path_weights_many(rs)):
            m = max(r[1:])
            roots.min_weight_witness(r)
            if best != m:
                return False, {"r": list(r), "min": best}
            if leave_one_out < m - 1:
                return False, {"r": list(r), "leave_one_out_min": leave_one_out}
        return True, None
    raise ValueError(params)


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
    # the weak compositions v of r into n parts, lexicographically: each
    # composition of r + n into n parts, every part lowered by one
    cases = []
    for n in (1, 2, 3):
        for a in product(range(3), repeat=n):
            if sum(a) == 0:
                continue
            for r in (1, 2):
                for v in compositions(r + n):
                    if len(v) == n:
                        cases.append({"v": [x - 1 for x in v], "r": r, "a": list(a)})
    return cases


# suite name -> (case builder, case runner, the grid flags the builder reads)
SUITES = {
    "qdyson": (_cases_qdyson, functools.partial(_brute_vs_closed, "qdyson"), ()),
    "qmorris": (_cases_qmorris, functools.partial(_brute_vs_closed, "qmorris"), ()),
    "bf-recursion": (_cases_bf, _run_bf, ("shape",)),
    "p1-formula": (_cases_p1, _run_p1, ()),
    "roots": (_cases_roots, _run_roots, ("shape", "b", "c")),
    "splitting": (_cases_splitting, _run_splitting, ("shape", "c")),
    "vanishing": (_cases_vanishing, _run_vanishing, ()),
    "lemma-key": (_cases_lemma_key, _run_lemma_key, ()),
    "poch-identities": (_cases_poch, _run_poch, ()),
    "qsum": (_cases_qsum, _run_qsum, ()),
    "gx-pipeline": (_cases_gx, _run_gx, ()),
    "kadell": (_cases_kadell, functools.partial(_brute_vs_closed, "kadell"), ()),
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
    if not cases:
        build_parser().error(f"suite {name} has no case at these flags")
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
    # a run that passed no case (every case trimmed) is no evidence of a pass
    return 1 if failed or not passed else 0


_STATUSES = ("pass", "fail", "trimmed")


def _load_report(path: str) -> dict:
    """A suite report as `qct verify` writes it, or a usage error naming the file."""
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        build_parser().error(f"report {path!r} is not readable JSON: {exc}")
    cases = rep.get("cases") if isinstance(rep, dict) else None
    if not (isinstance(cases, list) and isinstance(rep.get("suite"), str)
            and all(isinstance(c, dict) and c.get("status") in _STATUSES for c in cases)):
        build_parser().error(f"report {path!r} is not a suite report: it needs a suite name "
                             f"and a list of cases, each with a status in {_STATUSES}")
    return rep


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
        rep = _load_report(os.path.join(directory, f))
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
    # a suite that passed no case is no evidence of a pass
    status = ("fail" if overall_red else "empty" if not rows
              else "incomplete" if any(row["pass"] == 0 for row in rows) else "pass")
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

    # the value flags of ct and rhs; _family_params checks them per family
    values = argparse.ArgumentParser(add_help=False)
    values.add_argument("--shape", type=_shape, help="comma list, e.g. 1,2,2")
    values.add_argument("--n", type=_positive_int, help="variable count (qmorris)")
    values.add_argument("--a", type=_nonneg_ints)
    values.add_argument("--b", type=_nonneg_int)
    values.add_argument("--c", type=_nonneg_int)
    values.add_argument("--v", type=_nonneg_ints, help="comma list (kadell)")
    values.add_argument("--r", type=_positive_int, help="row weight (kadell)")

    ct = sub.add_parser("ct", parents=[values], help="compute one constant term")
    ct.add_argument("--family", required=True,
                    choices=[name for name, family in FAMILIES.items() if family.brute])
    ct.add_argument("--method", choices=["brute", "gx"], default="brute")
    ct.set_defaults(func=cmd_value)

    rhs = sub.add_parser("rhs", parents=[values], help="evaluate a closed form")
    rhs.add_argument("--family", required=True, choices=list(FAMILIES))
    rhs.set_defaults(func=cmd_value, method="closed")

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    ver.add_argument("--shape", type=_shape)
    ver.add_argument("--b", type=_nonneg_int)
    ver.add_argument("--c", type=_nonneg_int)
    ver.add_argument("--out", type=_out_path, help="JSON report path")
    ver.add_argument("--seed", type=int, default=0,
                     help="ignored: no suite reads it; accepted because the "
                          "benchmark's partial-fraction ops pass it")
    ver.add_argument("--max-seconds", dest="max_seconds", type=_nonneg_float,
                     help="trim the grid deterministically from the large end; "
                          "a budget runs the suite serially, whatever QCT_THREADS says")
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="aggregate suite reports")
    rep.add_argument("--dir", help="directory holding qct-report-*.json")
    rep.add_argument("--out", type=_out_path, help="JSON summary path")
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
