"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact equality in the q fraction field; the few series
comparisons are cross-checks of exact results and say so in their line.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole battery completes in well under the stated time targets.
"""

import itertools
import time

from qct import cli, closedform, gxseries, products, roots, splitting
from qct.closedform import BFParams, all_shapes
from qct.laurent import MLaurent
from qct.products import Shape
from qct.qring import Cyclo, QFrac, eval_poly
from test_laurent import constant_coefficient
from test_qring import frac_q_power

BF_SHAPES = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 2, 2), (2, 3)]
GRID3 = list(itertools.product(range(3), repeat=3))


def _announce(number, label, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"criterion-{number:02d} {status} {label} ({elapsed:.1f}s){tail}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_qdyson():
    t0 = time.monotonic()
    ok = True
    for a in itertools.product(range(4), repeat=3):
        ok = ok and products.ct_qdyson(a) == closedform.qdyson_rhs(a)
    for a in itertools.product(range(3), repeat=4):
        ok = ok and products.ct_qdyson(a) == closedform.qdyson_rhs(a)
    elapsed = time.monotonic() - t0
    _announce(1, "q-Dyson constant term, a in {0..3}^3 and {0..2}^4", ok and elapsed < 60,
              elapsed, "exact, target <60s")


def test_criterion_02_qmorris():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        for a, b, c in GRID3:
            ok = ok and products.qmorris_ct(n, a, b, c) == closedform.qmorris_rhs(n, a, b, c)
    elapsed = time.monotonic() - t0
    _announce(2, "q-Morris identity, n<=3, a,b,c in {0,1,2}", ok and elapsed < 120,
              elapsed, "exact, target <120s")


def test_criterion_03_block_recursion():
    t0 = time.monotonic()
    ok = True
    for shape_parts in BF_SHAPES:
        shape = Shape(shape_parts)
        for a, b, c in GRID3:
            want = closedform.bf_rhs(BFParams(shape, a, b, c))
            ok = ok and products.bf_ct(shape, a, b, c) == want
            top = max(shape.parts[1:])
            for k in range(1, shape.p + 1):
                if shape.parts[k] == top:
                    ok = ok and closedform.bf_rhs(BFParams(shape, a, b, c), k=k) == want
    elapsed = time.monotonic() - t0
    _announce(3, "block recursion on all six shapes, full grids incl. tie-breaks",
              ok and elapsed < 600, elapsed, "exact, target <10min, no trimming needed")


def test_criterion_04_two_block_closed_form():
    t0 = time.monotonic()
    ok = True
    for shape_parts in [s for s in BF_SHAPES if len(s) == 2]:
        n0, n1 = shape_parts
        shape = Shape(shape_parts)
        for a, b, c in GRID3:
            closed = closedform.bf_p1_rhs(n0, n1, a, b, c)
            rec = closedform.bf_rhs(BFParams(shape, a, b, c))
            brute = products.bf_ct(shape, a, b, c)
            ok = ok and closed == rec == brute
    elapsed = time.monotonic() - t0
    _announce(4, "two-block closed form = recursion = brute CT", ok, elapsed, "exact")


def test_criterion_05_roots():
    t0 = time.monotonic()
    ok = True
    for shape_parts in BF_SHAPES:
        shape = Shape(shape_parts)
        for b in range(3):
            for c in range(b, 3):
                rep = roots.verify_roots(shape, b, c)
                ok = ok and rep["degree_bound_ok"] and rep["all_vanish"]
                ok = ok and rep["closed_form_match"]
                if b > 0:
                    ok = ok and rep["disjoint"] and rep["root_count_ok"]
    elapsed = time.monotonic() - t0
    _announce(5, "degree bound, |R| = nb, and vanishing at every predicted root",
              ok, elapsed, "exact; c>=b bound checked empirically")


def test_criterion_06_dn0_recursion_and_scalar_identity():
    t0 = time.monotonic()
    ok = True
    for shape in all_shapes(5, min_p=1):
        for c in range(4):
            ok = ok and closedform.rec_scalar_identity_holds(shape, c)
    # end-to-end: brute pair-product CT equals the iterated a=b=0 value
    # (one representative per decorated multiset; the CT is block-symmetric)
    for shape in all_shapes(5, min_p=0, canonical=True):
        for c in range(4):
            ok = ok and products.bf_ct(shape, 0, 0, c) == closedform.dn0_rhs(shape, c)
    elapsed = time.monotonic() - t0
    _announce(6, "a=b=0 recursion end-to-end and its scalar identity, n<=5, c<=3",
              ok, elapsed, "exact")


def test_criterion_07_splitting():
    t0 = time.monotonic()
    ok = True
    for shape_parts in [(1, 1), (1, 2), (2, 2), (1, 1, 1)]:
        shape = Shape(shape_parts)
        for c in range(3):
            rep = splitting.verify_split(shape, c)
            ok = ok and rep["ok"] and rep["mode"] == "exact"
            for i in range(1, shape.n + 1):
                for j in splitting.admissible_j(shape, c, i):
                    ok = ok and splitting.residue_identity_holds(shape, c, i, j)
    elapsed = time.monotonic() - t0
    _announce(7, "splitting formula cleared exactly + residue oracle on every term",
              ok and elapsed < 300, elapsed, "exact, target <5min")


def test_criterion_08_poch_identities():
    t0 = time.monotonic()
    rep = splitting.poch_identities(3, 3)
    elapsed = time.monotonic() - t0
    _announce(8, "all five ratio transformations, i,j <= 3, full t ranges",
              rep["ok"], elapsed, f"exact, {rep['checked']} cases")


def test_criterion_09_summation_identities():
    t0 = time.monotonic()
    ok = True
    for n in range(0, 9):
        for t in range(0, n + 1):
            ok = ok and closedform.qsum_identity_holds(n, t)
    for t in range(0, 9):
        ok = ok and closedform.qbinom_theorem_holds(t)
    elapsed = time.monotonic() - t0
    _announce(9, "q-summation identity and q-binomial theorem, t <= n <= 8",
              ok, elapsed, "exact")


def test_criterion_10_vanishing_family():
    t0 = time.monotonic()
    ok = True
    for c in (1, 2, 3):
        ok = ok and splitting.vanishing_check(Shape((2, 2)), (1,), (0, 0, 0, 0), c).is_zero()
    count = 3
    for shape in all_shapes(5, min_p=1):
        n0 = shape.parts[0]
        if not 2 <= n0 <= shape.n - 1:
            continue
        for h in itertools.product(range(-1, 3), repeat=shape.p):
            if sum(h) > n0 - 1:
                continue
            total = sum(h[u] * shape.parts[u + 1] for u in range(shape.p)) - n0
            if not 0 <= total <= 2:
                continue
            t = [0] * shape.n
            t[-1] = total
            ok = ok and splitting.vanishing_check(shape, h, t, 1).is_zero()
            count += 1
    elapsed = time.monotonic() - t0
    _announce(10, "vanishing coefficients: base case and generated family, n<=5",
              ok and count > 8, elapsed, f"exact, {count} instances")


def test_criterion_11_lemma_key_and_min_weight():
    t0 = time.monotonic()
    # the lemma-key suite's own cases: the two verbatim path-weight examples,
    # the key-lemma classification of the whole box for s <= 6 (b, c, t <= 2,
    # p <= 2), where the enumerator yields exactly the k that need case 4, and
    # the exact and leave-one-out path-weight minima for s <= 8
    cases = cli._cases_lemma_key(None)
    ok = all(cli._run_lemma_key(params)[0] for params in cases)
    classify = [sum(params["r"]) for params in cases if params["kind"] == "classify"]
    minweight = [params["s"] for params in cases if params["kind"] == "minweight"]
    ok = ok and max(classify) == 6 and max(minweight) == 8
    elapsed = time.monotonic() - t0
    _announce(11, "key-lemma classification exhaustive s<=6 + path-weight lower bounds s<=8",
              ok and elapsed < 120, elapsed, f"exact, {len(classify)} block vectors r, target <2min")


def test_criterion_12_gx_pipeline():
    t0 = time.monotonic()
    ok = True
    # every (u, k) on shape (1,2), b=c=1, d <= 5 passes its property check
    shape = Shape((1, 2))
    for d in range(1, 6):
        for s in range(1, 4):
            for u in itertools.combinations(range(1, 4), s):
                for k in itertools.product(range(1, d + 1), repeat=s):
                    rep = gxseries.vanishing_property_checks(shape, 1, 1, d, u, k)
                    ok = ok and rep["ok"]
    # the Laurent-polynomiality branch, nontrivially, where its window opens
    lshape = Shape((2, 4))
    nontrivial = 0
    for u in itertools.combinations(range(3, 7), 2):
        rep = gxseries.vanishing_property_checks(lshape, 1, 2, 5, u, (5, 2))
        ok = ok and rep["branch"] == "laurent" and rep["ok"]
        if not rep["zero_by_V"]:
            nontrivial += 1
            ok = ok and rep["divisible"] and rep["laurent_form_ok"] and rep["ct_zero"]
    ok = ok and nontrivial > 0
    # pipeline values match the interpolated polynomial at negative arguments
    gshape = Shape((1, 1))
    poly = roots.interpolate_dn(gshape, 1, 1)
    for d in range(1, 5):
        ok = ok and gxseries.gx_ct(gshape, 1, 1, d) == eval_poly(poly, -d)
    # series oracle (truncation 12): one-factor CT by the orientation rule,
    # 1/(1 - q^2 x_1/x_2) expanded in powers of x_1/x_2 since x_1 comes first
    series = MLaurent(3, {(0, l, -l): frac_q_power(2 * l) for l in range(13)})
    series_val = constant_coefficient(MLaurent.constant(3, 1) * series)
    term = (Cyclo(), (0, 0, 0), [], [(2, 2)], 1)
    ok = ok and series_val == QFrac(1) == gxseries.factored_ct(term)
    elapsed = time.monotonic() - t0
    _announce(12, "elimination pipeline: property branches + interpolation cross-check",
              ok, elapsed, "exact; series comparison at truncation 12 is an oracle check")
