"""Op lists of the four benchmark workloads and the check every op must pass.

An op is a ``(kind, args)`` pair: ``kind`` names how it is run and checked
(see ``run_op``), ``args`` is a tuple of plain values.  Op lists depend only
on the workload name and the seed.  Every check compares two independent
routes to the same exact value, or reads a verification report that must
hold nothing but passing cases.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import traceback

from qct import cli, closedform, products
from qct.closedform import BFParams, all_shapes
from qct.products import Shape

WORKLOADS = ("ct-point", "interp-grid", "partial-fraction", "lemma-key")

# Shapes drawn per (n, a, b, c) stratum of the ct-point pool.  Strata fix the
# cost mix, so seeds change which instances run but barely move the total.
CT_POINT_PER_STRATUM = 6

# The cases timed by benchmarks/bench_ct.py, kept so its numbers compare.
BENCH_CT_CASES = (
    ("qdyson", ((2, 2, 2, 2),)),
    ("bf", ((1, 2, 2), 2, 2, 2)),
    ("bf", ((2, 3), 2, 2, 2)),
    ("bf", ((2, 3), 1, 1, 2)),
)

# Default grid of ``qct verify --suite splitting``.
SPLITTING_SHAPES = ((1, 1), (1, 2), (2, 2), (1, 1, 1))
SPLITTING_CS = (0, 1, 2)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def qdyson_grid():
    """Default grid of ``qct verify --suite qdyson``."""
    return [a for k, top in ((3, 4), (4, 3)) for a in itertools.product(range(top), repeat=k)]


def kadell_grid():
    """Default grid of ``qct verify --suite kadell`` as (v, r, a) triples."""
    out = []
    for n in (1, 2, 3):
        for a in itertools.product(range(3), repeat=n):
            if sum(a) == 0:
                continue
            for r in (1, 2):
                for v in _weak_compositions(r, n):
                    out.append((v, r, a))
    return out


def ct_point_pool():
    """Baker-Forrester instances: canonical shapes n <= 5, a, b, c in {0, 1, 2}."""
    return [(shape.parts, a, b, c) for shape in all_shapes(5, canonical=True)
            for a, b, c in itertools.product(range(3), repeat=3)]


def ct_point_sample(seed: int):
    """CT_POINT_PER_STRATUM instances (or all, if fewer) of each (n, a, b, c)
    stratum of the pool, drawn by ``seed``."""
    strata = {}
    for inst in ct_point_pool():
        parts, a, b, c = inst
        strata.setdefault((sum(parts), a, b, c), []).append(inst)
    rng = random.Random(seed)
    sample = []
    for key in sorted(strata):
        members = strata[key]
        sample.extend(rng.sample(members, min(CT_POINT_PER_STRATUM, len(members))))
    return sample


def _verify(suite: str, *flags) -> tuple:
    return ("verify", ("--suite", suite) + tuple(str(f) for f in flags))


def build_ops(workload: str, seed: int) -> list[tuple]:
    """The op list of ``workload`` for ``seed``; equal seeds give equal lists."""
    rng = random.Random(seed)
    if workload == "ct-point":
        # one constant term per op, fold against closed form: the pruned
        # point-window fold does most of the work and ops share none of it
        ops = list(BENCH_CT_CASES)
        ops += [("bf", inst) for inst in ct_point_sample(seed)]
        ops += [("qdyson", (a,)) for a in qdyson_grid()]
        ops += [("kadell", inst) for inst in kadell_grid()]
        return ops
    if workload == "interp-grid":
        # wide-window folds shared across (a, b) by bf_ct_grid, Newton
        # interpolation and QFrac reduction
        small = [s.parts for s in all_shapes(4, canonical=True)]
        ops = [_verify("roots", "--shape", _csv(p), "--b", b, "--c", c)
               for p in small for c in range(3) for b in range(c + 1)]
        ops += [_verify("roots", "--shape", _csv(p), "--b", b, "--c", 3)
                for p in small if sum(p) <= 3 for b in range(4)]
        rng.shuffle(ops)
        return ops
    if workload == "partial-fraction":
        # unpruned folds with many output terms, MLaurent over QFrac and the
        # residue oracle; the workload with the largest memory footprint
        ops = [_verify("splitting", "--shape", _csv(p), "--c", c, "--seed", seed)
               for p in SPLITTING_SHAPES for c in SPLITTING_CS]
        ops.append(_verify("gx-pipeline"))
        ops += [("gx-query", (s.parts, a, b, c)) for s in all_shapes(3, canonical=True)
                for a, b, c in itertools.product(range(2), repeat=3)]
        rng.shuffle(ops)
        return ops
    if workload == "lemma-key":
        # permutation combinatorics with no q-arithmetic, the control for
        # qring and laurent changes; no random input, so the seed has no effect
        return [_verify("lemma-key")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def op_label(op: tuple) -> str:
    kind, args = op
    return f"{kind} {json.dumps(args)}"


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _verify_passes(args, report_path: str) -> bool:
    """Exit code 0 and a report whose cases are all exact passes."""
    code, _ = _cli(("verify",) + args + ("--out", report_path))
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path)
    cases = report["cases"]
    return (code == 0 and report.get("mode") == "exact" and len(cases) > 0
            and all(case["status"] == "pass" and "mode" not in case for case in cases))


def _gx_query_passes(parts, a, b, c) -> bool:
    """``qct ct --method gx`` prints the same value as ``qct rhs``."""
    flags = ("--family", "bf", "--shape", _csv(parts), "--a", str(a), "--b", str(b),
             "--c", str(c))
    code_ct, got = _cli(("ct",) + flags + ("--method", "gx"))
    code_rhs, want = _cli(("rhs",) + flags)
    return code_ct == 0 and code_rhs == 0 and got.strip() != "" and got == want


def run_op(op: tuple, workdir: str) -> bool:
    """Run one op and check its answer; an op that raises has failed."""
    kind, args = op
    try:
        if kind == "bf":
            parts, a, b, c = args
            shape = Shape(parts)
            return products.bf_ct(shape, a, b, c) == closedform.bf_rhs(BFParams(shape, a, b, c))
        if kind == "qdyson":
            (a,) = args
            return products.ct_qdyson(a) == closedform.qdyson_rhs(a)
        if kind == "kadell":
            v, r, a = args
            return products.kadell_ct(v, r, a) == closedform.kadell_rhs(v, r, a)
        if kind == "verify":
            return _verify_passes(args, os.path.join(workdir, "report.json"))
        if kind == "gx-query":
            return _gx_query_passes(*args)
    except (Exception, SystemExit):
        traceback.print_exc()
        return False
    raise ValueError(f"unknown op kind {kind!r}")
