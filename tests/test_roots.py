import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import cli, gxseries, qring, roots
from qct.closedform import BFParams, all_shapes, bf_factored, bf_rhs
from qct.products import Shape, bf_ct
from qct.qring import ONE, ZERO, Cyclo, QLaurent, ZPoly, eval_poly, interpolate
from qct.roots import (
    LemmaFalsified,
    interpolate_dn,
    lemma_key_classify,
    lemma_key_rebase,
    lemma_key_survivors,
    leave_one_out_bound_holds,
    min_path_weights_many,
    min_weight_witness,
    path_weight,
    product_form_coeffs,
    root_sets,
    t_table,
    verify_roots,
)
from test_closedform import chained_qmorris, chained_recursion_factor
from test_products import decremented


def test_t_table_p0_and_p1():
    assert t_table(Shape((4,))) == (0, 0, 0, 0)
    # p = 1: zeros through n_0 + 1, then s - n_0 - 1
    assert t_table(Shape((2, 3))) == (0, 0, 0, 1, 2)
    assert t_table(Shape((1, 2))) == (0, 0, 1)


def test_t_table_two_decorated_blocks():
    # evaluated by the piecewise floor formula; the (1,2,2) values were also
    # confirmed against the actual roots of the interpolated constant term
    assert t_table(Shape((1, 2, 2))) == (0, 0, 0, 1, 1)
    assert t_table(Shape((1, 1, 3))) == (0, 0, 0, 1, 2)
    assert t_table(Shape((2, 2, 3))) == (0, 0, 0, 0, 1, 1, 2)


def bracket_root_rows(shape: Shape, b: int, c: int) -> list[tuple[int, ...]]:
    """Reference for root_sets: the rows R_i^j from their defining index
    ranges.  Rows i < n_0 + p are class 0 and start at i*c + 1; class j
    (1 <= j <= p) covers a bracket of i over the ascending decorated sizes
    m_j, and its rows start at i*c + floor((i - n_0 - nu_{j-1})/(p-j+1)) + 1."""
    n, p = shape.n, shape.p
    if p == 0:
        return [tuple(range(i * c + 1, i * c + b + 1)) for i in range(n)]
    n0 = shape.parts[0]
    m = (1,) + shape.sorted_decorated()
    nu = [0] * (p + 1)
    for j in range(1, p + 1):
        nu[j] = nu[j - 1] + m[j]
    rows = [(i, tuple(range(i * c + 1, i * c + b + 1))) for i in range(n0 + p)]
    for j in range(1, p + 1):
        low = n - (nu[p] - nu[j - 1]) + (p - j + 1) * m[j - 1]
        high = n - (nu[p] - nu[j]) + (p - j) * m[j] - 1
        for i in range(low, high + 1):
            first = i * c + (i - n0 - nu[j - 1]) // (p - j + 1) + 1
            rows.append((i, tuple(range(first, first + b))))
    rows.sort()
    assert [i for i, _ in rows] == list(range(n)), "brackets must cover i = 0..n-1 once"
    return [els for _, els in rows]


def test_root_rows_match_threshold_table():
    # the rows read off t_table equal the bracket-range construction
    for shape in all_shapes(6):
        for b in range(4):
            for c in range(4):
                assert root_sets(shape, b, c) == bracket_root_rows(shape, b, c), (shape, b, c)


def root_union(shape: Shape, b: int, c: int) -> list[int]:
    return sorted(d for row in root_sets(shape, b, c) for d in row)


def test_root_set_examples():
    assert root_union(Shape((1, 2)), 0, 2) == []
    assert root_union(Shape((1, 2)), 1, 2) == [1, 3, 6]
    assert root_sets(Shape((1, 2)), 1, 2) == [(1,), (3,), (6,)]
    # disjoint union of size nb whenever c >= b
    for shape in all_shapes(5):
        for b in range(3):
            for c in range(b, 4):
                union = root_union(shape, b, c)
                assert len(union) == len(set(union)) == shape.n * b
    with pytest.raises(ValueError):
        root_sets(Shape((1, 2)), -1, 2)


def degree(poly: ZPoly) -> int:
    """The highest power of z with a nonzero coefficient; -1 for zero."""
    k = len(poly.coeffs) - 1
    while k >= 0 and poly.coeffs[k].is_zero():
        k -= 1
    return k


def test_interpolate_dn_degree_and_extrapolation():
    shape = Shape((1, 1))
    poly = interpolate_dn(shape, 1, 1)
    assert len(poly.coeffs) == 4 and degree(poly) == 2
    # values at the last node a = 3 and at the unused a = 4 agree with direct brute folds
    assert eval_poly(poly, 3) == bf_ct(shape, 3, 1, 1)
    assert eval_poly(poly, 4) == bf_ct(shape, 4, 1, 1)
    # b = 0: constant polynomial equal to the a-independent value
    const = interpolate_dn(shape, 0, 2)
    assert degree(const) == 0
    assert const.den.divide(const.coeffs[0]) == bf_ct(shape, 0, 0, 2)


def test_interpolate_dn_p0_matches_closed_form_at_one():
    poly = interpolate_dn(Shape((2,)), 1, 1)
    from qct.closedform import qmorris_rhs
    assert eval_poly(poly, 0) == qmorris_rhs(2, 0, 1, 1)


def test_verify_roots_reports():
    rep = verify_roots(Shape((1, 2)), 1, 1)
    assert rep["degree_bound_ok"] and rep["all_vanish"] and rep["closed_form_match"]
    assert rep["root_count_ok"] and rep["disjoint"] and rep["product_form_match"]
    rep0 = verify_roots(Shape((1, 2)), 0, 1)
    assert rep0["all_vanish"] and rep0["roots_checked"] == 0
    # p=0 regime: roots {1, c+1} for n=2, b=1, c=2
    assert root_union(Shape((2,)), 1, 2) == [1, 3]
    rep2 = verify_roots(Shape((2,)), 1, 2)
    assert rep2["all_vanish"] and rep2["closed_form_match"]


def test_degree_bound_is_checked(monkeypatch):
    # a wrong brute value at a = nb + 1 raises the interpolated degree past nb
    shape, b, c = Shape((1, 2)), 1, 1
    nb = shape.n * b
    grid = roots.bf_ct_grid

    def perturbed(shape, c, jobs):
        out = grid(shape, c, jobs)
        out[(nb + 1, b)] = out[(nb + 1, b)] + ONE
        return out

    monkeypatch.setattr(roots, "bf_ct_grid", perturbed)
    assert verify_roots(shape, b, c)["degree_bound_ok"] is False
    ok, detail = cli._run_roots({"shape": list(shape.parts), "b": b, "c": c})
    assert not ok and detail["degree_bound_ok"] is False


def test_product_form_mismatch_fails_roots(monkeypatch):
    # D_n(0) times q: the product form's constant is no longer the closed
    # form's, while its roots, the interpolant and the closed form still agree
    shape, b, c = Shape((1, 2)), 1, 1
    scale = roots._product_scale
    assert cli._run_roots({"shape": list(shape.parts), "b": b, "c": c}) == (True, None)
    monkeypatch.setattr(roots, "_product_scale", lambda shape, c, union: scale(shape, c, union) * Cyclo(1, 1))
    ok, detail = cli._run_roots({"shape": list(shape.parts), "b": b, "c": c})
    assert not ok and detail["product_form_match"] is False
    assert detail["all_vanish"] and detail["closed_form_match"]
    assert detail["root_count_ok"] and detail["disjoint"]


def test_product_form_compares_its_roots(monkeypatch):
    # one predicted root moved: the product form fails on its roots even
    # with the right constant
    shape, b, c = Shape((1, 2)), 1, 1
    rows, scale = roots.root_sets, roots._product_scale
    union = root_union(shape, b, c)
    monkeypatch.setattr(roots, "root_sets", lambda shape, b, c: rows(shape, b, c)[:-1] + [(union[-1] + 1,)])
    monkeypatch.setattr(roots, "_product_scale", lambda shape, c, moved: scale(shape, c, union))
    rep = verify_roots(shape, b, c)
    assert rep["disjoint"] and rep["root_count_ok"] and rep["closed_form_match"]
    assert rep["product_form_match"] is False


def test_a_dropped_predicted_root_fails_the_count(monkeypatch):
    # one root fewer than nb: the count must say so, whatever else fails
    shape, b, c = Shape((1, 2)), 1, 1
    rows = roots.root_sets
    monkeypatch.setattr(roots, "root_sets", lambda shape, b, c: rows(shape, b, c)[:-1])
    ok, detail = cli._run_roots({"shape": list(shape.parts), "b": b, "c": c})
    assert not ok and detail["root_count_ok"] is False
    assert detail["disjoint"] and detail["all_vanish"] and detail["closed_form_match"]
    assert detail["product_form_match"] is False


def test_a_non_root_after_the_real_ones_is_the_first_failure(monkeypatch):
    # every predicted root is checked, the last one too
    shape, b, c = Shape((1, 2)), 2, 2
    rows = roots.root_sets
    extra = max(root_union(shape, b, c)) + 1
    monkeypatch.setattr(roots, "root_sets", lambda shape, b, c: rows(shape, b, c) + [(extra,)])
    ok, detail = cli._run_roots({"shape": list(shape.parts), "b": b, "c": c})
    assert not ok and detail["all_vanish"] is False and detail["first_failure"] == extra
    assert detail["roots_checked"] == shape.n * b + 1 and detail["closed_form_match"]


def chained_bf(shape: Shape, a: int, b: int, c: int, k=None) -> Cyclo:
    """The block recursion from the chained single-symbol products."""
    total = Cyclo()
    while shape.p >= 1:
        kk = shape.max_block() if k is None else k
        total = total * chained_recursion_factor(shape, a, b, c, kk)
        shape, k = decremented(shape, kk), None
    return total * chained_qmorris(shape.n, a, b, c)


def test_closed_form_is_a_factored_polynomial_in_z():
    # K * prod_s (q^{a+s}; q)_b is the closed form at every a, and so is the
    # helper's ZPoly K * prod_d (1 - q^d z) at z = q^a, for every forced tie
    for shape in all_shapes(5, canonical=True):
        top = max(shape.parts[1:], default=None)
        ties = [None] + [k for k in range(1, shape.p + 1) if shape.parts[k] == top]
        for b, c, k in itertools.product(range(4), range(3), ties):
            scale, shifts = bf_factored(shape, b, c, k)
            assert len(shifts) == shape.n
            poly = roots._factored_zpoly(scale, sorted(s + j for s in shifts for j in range(b)))
            assert degree(poly) == shape.n * b
            for a in range(4):
                want = bf_rhs(BFParams(shape, a, b, c), k)
                assert want == chained_bf(shape, a, b, c, k).expand(), (shape, a, b, c, k)
                value = scale * Cyclo.poch_product((a + s, b, 1) for s in shifts)
                assert value.expand() == want, (shape, a, b, c, k)
                assert eval_poly(poly, a) == want, (shape, a, b, c, k)


@pytest.mark.parametrize("mutation", ["scale times q", "shift plus one", "symbol dropped"])
def test_a_wrong_closed_form_fails_closed_form_match(mutation, monkeypatch):
    factored = roots.bf_factored

    def wrong(shape, b, c, k=None):
        scale, shifts = factored(shape, b, c, k)
        if mutation == "scale times q":
            return scale * Cyclo(1, 1), shifts
        if mutation == "shift plus one":
            return scale, [shifts[0] + 1] + shifts[1:]
        return scale, shifts[1:]

    monkeypatch.setattr(roots, "bf_factored", wrong)
    for shape, b, c in ((Shape((1, 2)), 1, 1), (Shape((2, 1, 1)), 1, 2), (Shape((1, 3)), 2, 1)):
        rep = verify_roots(shape, b, c)
        assert rep["closed_form_match"] is False, (mutation, shape, b, c)
        assert rep["all_vanish"] and rep["degree_bound_ok"], (mutation, shape, b, c)
        ok, _ = cli._run_roots({"shape": list(shape.parts), "b": b, "c": c})
        assert not ok


def zpoly_equal(x: ZPoly, y: ZPoly) -> bool:
    """Equal as polynomials: coefficients cross-multiplied by the parts of
    the two denominators that they do not share."""
    shared = Cyclo(1, 0, {d: min(e, y.den.exps.get(d, 0)) for d, e in x.den.exps.items()})
    mine, theirs = y.den / shared, x.den / shared
    left = [mine.times(c) for c in x.coeffs]
    right = [theirs.times(c) for c in y.coeffs]
    width = max(len(left), len(right))
    return left + [ZERO] * (width - len(left)) == right + [ZERO] * (width - len(right))


def test_zpoly_equality_raises():
    # == between ZPoly values would need cross multiplication; it raises
    # rather than read identity, even for one value against itself
    x = interpolate([QLaurent({0: 1}), QLaurent({0: 1, 1: 1})])
    y = ZPoly(list(x.coeffs), x.den)
    assert zpoly_equal(x, y)
    for compare in (lambda: x == y, lambda: x != y, lambda: x == x):
        with pytest.raises(TypeError, match="numerator_at"):
            compare()


def newton_route(shape: Shape, b: int, c: int) -> dict:
    """The roots report through Newton interpolation on every case, with the
    closed form compared to the interpolant as one polynomial: the oracle of
    the node check in ``verify_roots``."""
    nb = shape.n * b
    union = root_union(shape, b, c)
    poly = interpolate_dn(shape, b, c)
    report = {
        "shape": shape.parts,
        "b": b,
        "c": c,
        "nb": nb,
        "degree_bound_ok": degree(poly) <= nb,
        "regime": "c>=b (|R|=nb asserted, empirical bound)" if c >= b else "c<b (distinct roots only)",
        "disjoint": None,
        "root_count_ok": None,
        "roots_checked": 0,
        "first_failure": None,
        "all_vanish": True,
        "closed_form_match": None,
        "product_form_match": None,
    }
    if c >= b:
        report["disjoint"] = len(union) == len(set(union))
        report["root_count_ok"] = len(union) == nb
    for d in sorted(set(union)):
        report["roots_checked"] += 1
        if not poly.numerator_at(-d).is_zero():
            report["all_vanish"] = False
            report["first_failure"] = d
            break
    scale, shifts = bf_factored(shape, b, c)
    closed = sorted(s + j for s in shifts for j in range(b))
    report["closed_form_match"] = zpoly_equal(roots._factored_zpoly(scale, closed), poly)
    if c >= b and report["disjoint"]:
        report["product_form_match"] = roots._product_scale(shape, c, union) == scale and union == closed
    return report


def test_node_check_matches_the_newton_oracle(monkeypatch):
    # every canonical shape with n <= 4 at b <= c <= 2, as computed and with
    # each node in turn moved by + 1 and by a factor q: each move is a miss
    grid = roots.bf_ct_grid
    moves = 0
    for shape in all_shapes(4, canonical=True):
        for b, c in itertools.combinations_with_replacement(range(3), 2):
            monkeypatch.setattr(roots, "bf_ct_grid", grid)
            assert verify_roots(shape, b, c) == newton_route(shape, b, c), (shape, b, c)
            values = roots._node_values(shape, b, c)
            for node, change in itertools.product(range(len(values)), (lambda v: v + ONE, lambda v: v.shift(1))):
                moved = {(a, b): change(v) if a == node else v for a, v in enumerate(values)}
                monkeypatch.setattr(roots, "bf_ct_grid", lambda shape, c, jobs: {job: moved[job] for job in jobs})
                rep = verify_roots(shape, b, c)
                assert rep == newton_route(shape, b, c), (shape, b, c, node)
                assert rep["closed_form_match"] is False, (shape, b, c, node)
                moves += 1
    assert moves == 696


def interp_grid_cases() -> list:
    """The (shape, b, c) cases of the benchmark's interp-grid workload: every
    canonical shape with n <= 4 at b <= c <= 2, and those with n <= 3 at
    c = 3, b <= 3."""
    small = all_shapes(4, canonical=True)
    return ([(shape, b, c) for shape in small for c in range(3) for b in range(c + 1)]
            + [(shape, b, 3) for shape in small if shape.n <= 3 for b in range(4)])


def test_a_node_moved_by_a_carry_at_the_width_is_a_miss(monkeypatch):
    # delta = 2^B0 q^e - q^(e+1) is zero at q = 2^B0, B0 the node check's
    # width on the unmoved case: a width that ignored the nodes' norms would
    # read the moved node as a fit.  On the moved case every coefficient of
    # the moved node's comparison must also lie below 2^(B-1), which a width
    # that ignored the denominator's norm misses on (1, 1) at b = c = 1.
    grid = roots.bf_ct_grid
    cases = interp_grid_cases()
    assert len(cases) == 112
    for i, (shape, b, c) in enumerate(cases):
        monkeypatch.setattr(roots, "bf_ct_grid", grid)
        values = roots._node_values(shape, b, c)
        scale, shifts = bf_factored(shape, b, c)
        closed = sorted(s + j for s in shifts for j in range(b))
        top, den = roots._split(scale)
        width = roots._node_width(top, den, len(closed), values)
        node = i % len(values)
        e = values[node].min_exp() if values[node].terms else 0
        moved = list(values)
        moved[node] = values[node] + QLaurent({e: 1 << width, e + 1: -1})
        monkeypatch.setattr(roots, "bf_ct_grid", lambda shape, c, jobs: {job: moved[job[0]] for job in jobs})
        rep = verify_roots(shape, b, c)
        assert rep["closed_form_match"] is False, (shape, b, c, node)
        assert rep == newton_route(shape, b, c), (shape, b, c, node)
        diff = roots._factored_zpoly(scale, closed).numerator_at(node) - den.times(moved[node])
        bound = 1 << roots._node_width(top, den, len(closed), moved) - 1
        assert max(map(abs, diff.terms.values())) < bound, (shape, b, c, node)


def test_interpolation_runs_only_when_the_closed_form_misses_a_node(monkeypatch):
    shape, b, c = Shape((1, 2)), 1, 1
    newton, calls = roots.interpolate, []
    monkeypatch.setattr(roots, "interpolate", lambda values: calls.append(1) or newton(values))
    assert verify_roots(shape, b, c)["closed_form_match"] and calls == []
    values = roots._node_values(shape, b, c)
    values[-1] = values[-1] + ONE
    monkeypatch.setattr(roots, "_node_values", lambda shape, b, c: values)
    rep = verify_roots(shape, b, c)
    assert rep["closed_form_match"] is False and rep["degree_bound_ok"] is False
    assert len(calls) == 1


def test_roots_reports_are_pinned():
    # every field of every report over canonical shapes with n <= 4, b <= 3,
    # c <= 2 and nb <= 12, the c < b regime included
    digest = hashlib.sha256()
    cases = 0
    for shape in all_shapes(4, canonical=True):
        for b, c in itertools.product(range(4), range(3)):
            if shape.n * b <= 12:
                digest.update(json.dumps(verify_roots(shape, b, c), sort_keys=True).encode() + b"\n")
                cases += 1
    assert cases == 168
    assert digest.hexdigest() == "a9b513bb8506016f8269683b67fd921739899dfaf5b8027edf8610b1a5a0f68e"


def test_roots_path_runs_without_gcd(monkeypatch):
    gx_values = {d: gxseries.gx_ct(Shape((1, 1)), 1, 1, d) for d in range(1, 4)}
    want = bf_ct(Shape((1, 1)), 2, 1, 1)
    gcd = qring.poly_gcd
    calls = []
    monkeypatch.setattr(qring, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rep = verify_roots(Shape((1, 2)), 2, 2)
    assert rep["degree_bound_ok"] and rep["closed_form_match"] and rep["product_form_match"]
    # gx values computed before the patch: this checks the interpolation route alone
    monkeypatch.setattr(gxseries, "gx_ct", lambda shape, b, c, d: gx_values[d])
    assert cli._gx_value(Shape((1, 1)), 2, 1, 1) == want
    assert calls == []


def test_product_form_matches_interpolation():
    shape = Shape((1, 2))
    poly = interpolate_dn(shape, 1, 1)
    pf = product_form_coeffs(shape, 1, 1)
    assert len(pf.coeffs) == shape.n * 1 + 1 and zpoly_equal(pf, poly)
    # cross-multiplication tells a wrong coefficient apart
    wrong = ZPoly(pf.coeffs[:1] + [pf.coeffs[1] + pf.den.expand()] + pf.coeffs[2:], pf.den)
    assert not zpoly_equal(wrong, poly)


def test_path_weight_worked_examples():
    assert sum(path_weight((9, 10, 3, 5, 6, 8, 4, 2, 7, 1), (3, 3, 4))) == 8
    w0, n0 = min_weight_witness((3, 3, 4))
    assert w0 == (10, 6, 3, 9, 5, 2, 8, 4, 1, 7)
    assert n0 == 4
    # descending permutation with p = 0: only the first step scores
    assert path_weight((3, 2, 1), (3,)) == (1, 0, 0)
    # e_1 = 1 always; 1 -> 3 is an ascent across blocks
    assert path_weight((2, 1, 3), (1, 2)) == (1, 0, 1)


def exhaustive_min_weights(r):
    """Brute-force oracle for min_path_weights: both minima over all s! permutations."""
    s = sum(r)
    weights = [path_weight(w, r) for w in itertools.permutations(range(1, s + 1))]
    return min(sum(e) for e in weights), min(sum(e) - max(e) for e in weights)


def _compositions(s):
    if s == 0:
        yield ()
        return
    for first in range(1, s + 1):
        for rest in _compositions(s - first):
            yield (first,) + rest


def _held_karp(edge, first: int) -> tuple[int, int]:
    """Oracle for min_path_weights_many: the shortest Hamiltonian path weight
    over all orderings of range(len(edge)), a path weighing ``first`` plus its
    edges, and the same minimum with one step's weight (``first`` included)
    left out, by a generic Held-Karp DP over (visited set, last vertex) with
    one more bit: has a weight been dropped yet.  Weights must be nonnegative.
    """
    s = len(edge)
    big = first + s * max(map(max, edge), default=0) + 1  # exceeds every path weight
    members = [[v for v in range(s) if mask >> v & 1] for mask in range(1 << s)]
    kept = [[0] * s for _ in range(1 << s)]  # nothing dropped yet
    dropped = [[0] * s for _ in range(1 << s)]
    for v in range(s):
        kept[1 << v][v] = first
    for mask in range(3, 1 << s):
        if mask & (mask - 1) == 0:  # one vertex: kept = first, dropped = 0
            continue
        kept_m, dropped_m = kept[mask], dropped[mask]
        for u in members[mask]:
            prev = mask ^ 1 << u
            kept_p, dropped_p = kept[prev], dropped[prev]
            best_kept = best_dropped = big
            for v in members[prev]:
                wt = edge[v][u]
                kv = kept_p[v]
                if kv + wt < best_kept:
                    best_kept = kv + wt
                if kv < best_dropped:  # drop this step
                    best_dropped = kv
                if dropped_p[v] + wt < best_dropped:
                    best_dropped = dropped_p[v] + wt
            kept_m[u], dropped_m[u] = best_kept, best_dropped
    return min(kept[-1]), min(dropped[-1])


def _path_edges(r):
    """The path-weight edge matrix of r over positions 1..s, as 0..s-1."""
    labels = [i for i, size in enumerate(r) for _ in range(size)]
    return [[(x < y) + (labels[x] == labels[y] > 0) for y in range(len(labels))]
            for x in range(len(labels))]


def test_min_weight_small_cases():
    assert min_weight_witness((1, 1)) == ((2, 1), 1)
    assert exhaustive_min_weights((2, 2, 2))[0] == 2
    for r in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 2)):
        assert exhaustive_min_weights(r)[0] == max(r[1:])


def min_path_weights(r) -> tuple[int, int]:
    """Both minima for one r: the one-lane case of ``min_path_weights_many``."""
    return min_path_weights_many([r])[0]


def test_min_path_weights_matches_brute_force():
    count = 0
    for s in range(1, 7):
        for r in _compositions(s):
            assert min_path_weights(r) == exhaustive_min_weights(r), r
            count += 1
    assert count == 2 ** 6 - 1
    # p = 0: every step after the first is a descent at best
    assert min_path_weights((3,)) == (1, 0)
    with pytest.raises(ValueError):
        min_path_weights((2, 0))


def test_min_path_weights_many_matches_held_karp_oracle():
    count = 0
    for s in range(2, 9):
        rs = [r for r in _compositions(s) if len(r) >= 2]
        got = min_path_weights_many(rs)
        assert got == [_held_karp(_path_edges(r), 1) for r in rs], s
        # a lane of the batch equals that r alone: no lane bleeds into another
        assert got == [min_path_weights_many([r])[0] for r in rs], s
        count += len(rs)
    assert count == 247


def test_min_path_weights_many_edge_cases():
    assert min_path_weights_many([]) == []
    assert min_path_weights_many([(1,), (1,)]) == [(1, 0), (1, 0)]
    with pytest.raises(ValueError):
        min_path_weights_many([(1, 2), (1, 1)])
    with pytest.raises(ValueError):
        min_path_weights_many([(1, 1), (2, 0)])


square_weights = st.integers(1, 6).flatmap(
    lambda s: st.lists(st.lists(st.integers(0, 3), min_size=s, max_size=s), min_size=s, max_size=s))


@settings(max_examples=80, deadline=None)
@given(square_weights, st.integers(0, 2))
def test_held_karp_property(edge, first):
    # on path-weight inputs the leave-one-out minimum is always the minimum
    # less one, so arbitrary weights are what exercise its dropped-step bit
    totals, leave_one_out = [], []
    for w in itertools.permutations(range(len(edge))):
        steps = [first] + [edge[x][y] for x, y in zip(w, w[1:])]
        totals.append(sum(steps))
        leave_one_out.append(sum(steps) - max(steps))
    assert _held_karp(edge, first) == (min(totals), min(leave_one_out))


def test_leave_one_out_bound():
    for w in itertools.permutations(range(1, 5)):
        assert leave_one_out_bound_holds(w, (2, 2))


def _classify(k, b, c, t, r):
    """lemma_key_classify on the one-element list [k]: k's verdict."""
    (verdict,) = lemma_key_classify([k], b, c, t, r)
    return verdict


def test_lemma_key_examples():
    case, witness = _classify((1, 3), 2, 1, 1, (2,))
    assert case == 1 and witness == 1
    case, witness = _classify((4, 3), 0, 2, 2, (2,))
    assert case == 2 and witness == (1, 2)
    # same-block pair window is one wider on each side: positions 2,3 share
    # the decorated block, difference -2 lands in [-c-1, c]
    case, witness = _classify((7, 2, 4), 1, 2, 2, (1, 2))
    assert case == 3 and witness == (2, 3)
    with pytest.raises(ValueError):
        _classify((9, 1), 1, 1, 1, (2,))


def test_lemma_key_case4_witness():
    # k = (2, 5) on two singleton blocks with b=1, c=2, t=2: no small pair
    # differences, so the staircase pattern must kick in
    case, witness = _classify((2, 5), 1, 2, 2, (1, 1))
    assert case == 4
    w, d = witness
    assert d[0] >= 1


# (k, b, c, t, r) -> (case, witness), recorded from the set-based classifier
# on k-vectors of the lemma-key suite grid; every case 4 is a staircase, three
# of them with a step inside a decorated block
LEMMA_KEY_PINNED = [
    (((7, 10, 7, 1), 2, 2, 2, (1, 2, 1)), (1, 4)),
    (((4, 7, 1, 1), 1, 2, 0, (2, 1, 1)), (1, 3)),
    (((7, 6, 7, 2), 2, 2, 2, (1, 2, 1)), (1, 4)),
    (((1, 1, 4, 6), 0, 2, 2, (2, 1, 1)), (2, (1, 2))),
    (((9, 8, 9, 10), 2, 2, 2, (2, 1, 1)), (2, (1, 2))),
    (((7, 9, 8, 10), 2, 2, 2, (2, 2)), (2, (1, 2))),
    (((5, 3, 8, 7), 2, 2, 2, (2, 2)), (2, (1, 4))),
    (((7, 5, 5, 1), 0, 2, 1, (1, 2, 1)), (3, (2, 3))),
    (((3, 8, 8, 8), 2, 2, 2, (1, 3)), (3, (2, 3))),
    (((6, 4, 3, 3), 2, 2, 1, (1, 3)), (3, (2, 3))),
    (((8, 5, 3, 3), 0, 2, 2, (2, 2)), (3, (3, 4))),
    (((6, 5, 4, 3), 2, 1, 2, (2, 1, 1)), (4, ((4, 3, 2, 1), (1, 0, 0, 0)))),
    (((2, 5, 1, 4), 0, 1, 2, (2, 2)), (4, ((3, 1, 4, 2), (1, 0, 1, 0)))),
    (((7, 5, 3), 2, 2, 1, (2, 1)), (4, ((3, 2, 1), (1, 0, 0)))),
    (((5, 4, 2, 1), 0, 1, 2, (1, 2, 1)), (4, ((4, 3, 2, 1), (1, 0, 0, 0)))),
    (((3, 2, 6, 5), 1, 1, 2, (3, 1)), (4, ((2, 1, 4, 3), (1, 0, 1, 0)))),
    (((4, 3, 2), 1, 1, 2, (1, 1, 1)), (4, ((3, 2, 1), (1, 0, 0)))),
    (((6, 3, 5), 2, 1, 2, (2, 1)), (4, ((2, 3, 1), (1, 1, 0)))),
    (((7, 6, 4, 3), 2, 1, 2, (1, 2, 1)), (4, ((4, 3, 2, 1), (1, 0, 0, 0)))),
    (((6, 4, 1), 0, 2, 2, (1, 2)), (4, ((3, 2, 1), (1, 0, 0)))),
    (((7, 6, 5, 3), 2, 1, 2, (1, 1, 2)), (4, ((4, 3, 2, 1), (1, 0, 0, 0)))),
]


@pytest.mark.parametrize("args, expected", LEMMA_KEY_PINNED)
def test_lemma_key_pinned_sample(args, expected):
    assert _classify(*args) == expected


def test_lemma_key_exhaustive_small():
    for r in ((1,), (2,), (1, 1), (1, 2), (1, 1, 1)):
        s = sum(r)
        for b, c, t in itertools.product(range(2), range(2), range(2)):
            bound = (s - 1) * c + b + t
            if bound < 1:
                continue
            for k in itertools.product(range(1, bound + 1), repeat=s):
                _classify(k, b, c, t, r)  # must not raise


def _case4_by_scan(k, b, c, t, r):
    """Oracle for case 4: the first permutation in lexicographic order whose
    slack vector realizes the staircase, as (w, d), or None."""
    s = len(k)
    labels = [None] + [i for i, size in enumerate(r) for _ in range(size)]
    maxr = max(r[1:]) if len(r) > 1 else 0
    for w in itertools.permutations(range(1, s + 1)):
        d, total, prev = [], 0, 0
        for x in w:
            chi = prev > 0 and labels[prev] == labels[x] > 0
            dj = k[x - 1] - (k[prev - 1] + c + chi if prev else b)
            if dj < 0 or (prev < x and dj < 1):
                break
            total += chi + dj
            d.append(dj)
            prev = x
        else:
            if maxr <= total <= t:
                return tuple(w), tuple(d)
    return None


def _staircase_by_scan(k, ids, b, c, t):
    """Oracle for ``roots.case4_staircase``: its loop form before the labels
    were compiled into tables, which counts the largest decorated block and
    compares labels at every step, the start included."""
    maxr = max((ids.count(x) for x in ids if x > 0), default=0)
    w = sorted(range(1, len(k) + 1), key=lambda x: (k[x - 1], -x))
    d = []
    total = 0
    prev = 0
    for x in w:
        chi = ids[prev] == ids[x]
        dj = k[x - 1] - (k[prev - 1] + c + chi if prev else b)
        if dj < (prev < x):  # d_j >= 0, and d_j >= 1 after an ascent or at the start
            return None
        total += chi + dj
        d.append(dj)
        prev = x
    return (tuple(w), tuple(d)) if maxr <= total <= t else None


def _classify_by_scan(k, b, c, t, r):
    """Oracle for ``lemma_key_classify``: its loop form before the labels were
    compiled into tables, which tests case 1 on every entry and scans every
    pair (i, j), i < j, for cases 2 and 3 against the block labels."""
    k = tuple(k)
    r = tuple(r)
    ids = roots._block_ids(r)
    s = len(ids) - 1
    if len(k) != s:
        raise ValueError("k length must equal sum(r)")
    if min(k) < 1 or max(k) > (s - 1) * c + b + t:
        raise ValueError("k out of the admissible range")
    for i in range(s):
        if k[i] <= b:
            return (1, i + 1)
    for i in range(1, s):
        for j in range(i + 1, s + 1):
            if ids[j] != ids[i] and -c <= k[i - 1] - k[j - 1] <= c - 1:
                return (2, (i, j))
    for i in range(1, s):
        for j in range(i + 1, s + 1):
            if ids[j] == ids[i] and -c - 1 <= k[i - 1] - k[j - 1] <= c:
                return (3, (i, j))
    found = _staircase_by_scan(k, ids, b, c, t)
    if found is not None:
        return (4, found)
    raise LemmaFalsified(f"no case applies for k={k}, b={b}, c={c}, t={t}, r={r}")


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def _survivors_by_filter(b, c, t, r):
    """Oracle for lemma_key_survivors: the box [1, (s-1)c+b+t]^s filtered one
    coordinate at a time by the literal case 1-3 conditions, which are
    conditions on single entries and pairs, so every prefix of a survivor
    survives."""
    s = sum(r)
    top = (s - 1) * c + b + t
    labels = [None] + [i for i, size in enumerate(r) for _ in range(size)]

    def hit(i, j, ki, kj):  # case 2 or 3 for positions i < j
        if labels[i] == labels[j] > 0:
            return -c - 1 <= ki - kj <= c
        return -c <= ki - kj <= c - 1

    prefixes = [()]
    for j in range(1, s + 1):
        prefixes = [k + (v,) for k in prefixes for v in range(b + 1, top + 1)
                    if not any(hit(i, j, k[i - 1], v) for i in range(1, j))]
    return prefixes


def _suite_lists(r):
    """What the lemma-key suite's classify case does for r: the list it
    hands the classifier at each (b, c, t), in the order of its calls, the
    (b, c, t) of each enumeration it makes and the (wide_c, c, t, bs) of
    each rebase."""
    lists, enumerated, rebased = {}, [], []
    survivors, rebase = roots.lemma_key_survivors, roots.lemma_key_rebase

    def enumerate_(b, c, t, r):
        enumerated.append((b, c, t))
        return survivors(b, c, t, r)

    def rebase_(wide, wide_c, c, t, bs):
        rebased.append((wide_c, c, t, tuple(bs)))
        return rebase(wide, wide_c, c, t, bs)

    def record(ks, b, c, t, r):
        lists[b, c, t] = list(ks)
        return [(4, None)] * len(ks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "lemma_key_survivors", enumerate_)
        patch.setattr(roots, "lemma_key_rebase", rebase_)
        patch.setattr(roots, "lemma_key_classify", record)
        assert cli._run_lemma_key({"kind": "classify", "r": list(r)}) == (True, None)
    return lists, enumerated, rebased


def _lemma_key_grid(s):
    """The lemma-key suite's (r, b, c, t) at one s: p <= 2 and b, c, t <= 2."""
    for r in _compositions(s):
        if len(r) <= 3:
            for b, c, t in itertools.product(range(3), repeat=3):
                yield r, b, c, t


def test_lemma_key_survivors_match_brute_sweep():
    # every k of the box at s <= 4, classified one by one and by the scan
    # oracle, witnesses included: the case-4 set is the enumerator's output,
    # each k once, and the suite's route yields that output in order
    count = 0
    routes = {}
    for s in range(1, 5):
        for r, b, c, t in _lemma_key_grid(s):
            if r not in routes:
                routes[r] = _suite_lists(r)[0]
            top = (s - 1) * c + b + t
            case4 = set()
            for k in itertools.product(range(1, top + 1), repeat=s):
                verdict = _classify(k, b, c, t, r)
                assert verdict == _classify_by_scan(k, b, c, t, r), (k, b, c, t, r)
                if verdict[0] == 4:
                    case4.add(k)
            got = list(lemma_key_survivors(b, c, t, r))
            assert len(got) == len(set(got)) and set(got) == case4, (r, b, c, t)
            assert routes[r][b, c, t] == got, (r, b, c, t)
            count += len(got)
    assert count == 1005


@st.composite
def _compositions_up_to(draw, s_max: int, parts_max: int):
    s = draw(st.integers(1, s_max))
    cuts = sorted(draw(st.sets(st.integers(1, s - 1), max_size=parts_max - 1))) if s > 1 else []
    return tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [s]))


@settings(max_examples=200, deadline=None)
@given(_compositions_up_to(7, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_lemma_key_classify_matches_the_scan(r, b, c, t, data):
    # k drawn from the box, and half the time one entry moved one past it on
    # either side, so the range check raises too
    s = sum(r)
    top = (s - 1) * c + b + t
    k = data.draw(st.lists(st.integers(1, max(top, 1)), min_size=s, max_size=s))
    past = data.draw(st.sampled_from((None, None, 0, top + 1)))
    if past is not None:
        k[data.draw(st.integers(0, s - 1))] = past
    assert _outcome(_classify, k, b, c, t, r) == _outcome(_classify_by_scan, k, b, c, t, r)


def test_lemma_key_sort_matches_permutation_scan():
    count = 0
    for s in range(1, 6):
        for r, b, c, t in _lemma_key_grid(s):
            ks = lemma_key_survivors(b, c, t, r)
            assert lemma_key_classify(ks, b, c, t, r) == [(4, _case4_by_scan(k, b, c, t, r)) for k in ks]
            count += len(ks)
    assert count == 2292
    for args, expected in LEMMA_KEY_PINNED:
        if expected[0] == 4:
            assert _case4_by_scan(*args) == expected[1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda r: sum(r) <= 5),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_lemma_key_survivors_property(r, b, c, t):
    got = list(lemma_key_survivors(b, c, t, r))
    assert sorted(got) == _survivors_by_filter(b, c, t, r)


def test_lemma_key_s7_grid():
    # s = 7 is past the suite's default grid: every composition, so every p,
    # at b, c, t <= 2.  At p <= 2 the 5,121 survivors are 9,978 case-4
    # vectors at s <= 7 less 4,857 at s <= 6, the counts of an index-order
    # backtracking search; the 17,499 at every p are this enumerator's
    # count, which the prefix filter of the box (_survivors_by_filter) gave
    # as well, list for list, in one run outside this suite
    count = low_p = 0
    for r in _compositions(7):
        for b, c, t in itertools.product(range(3), repeat=3):
            ks = lemma_key_survivors(b, c, t, r)
            assert all(case == 4 for case, _ in lemma_key_classify(ks, b, c, t, r))
            count += len(ks)
            low_p += len(ks) if len(r) <= 3 else 0
    assert low_p == 9978 - 4857
    assert count == 17499


def test_lemma_key_survivor_order_is_pinned():
    # the first k the classifier rejects is the suite's witness, so the order
    # is part of the output: sha256 over s <= 5, recorded from the generator
    # form of the enumerator
    import hashlib

    digest = hashlib.sha256()
    for s in range(1, 6):
        for r, b, c, t in _lemma_key_grid(s):
            for k in lemma_key_survivors(b, c, t, r):
                digest.update(repr((r, b, c, t, k)).encode() + b"\n")
    assert digest.hexdigest() == "26d27d998b40b474a2d89c0b95de25e4f9ec8b7b7c0118fd21b1b2781c130598"


def test_lemma_key_rebase_matches_the_enumerator_on_the_suite_grid():
    # the suite's route, read off its calls: the c = 0 and c = 1 lists at
    # b = 0 and t = 2, the c = 2 list stretched once off the c = 1 one, each
    # capped for every t and shifted for every b; and the c = 3 lists
    # stretched off the c = 1 one the same way.  Every one is the
    # enumerator's own list, in order, at every composition of s <= 7 at
    # every p
    count = 0
    for s in range(1, 8):
        for r in _compositions(s):
            lists = _suite_lists(r)[0]
            (wide,) = lemma_key_rebase(lemma_key_survivors(0, 1, 2, r), 1, 3, 2, [0])
            for t in range(3):
                for b, ks in enumerate(lemma_key_rebase(wide, 3, 3, t, range(3))):
                    lists[b, 3, t] = ks
            assert len(lists) == 36
            for (b, c, t), got in lists.items():
                assert got == lemma_key_survivors(b, c, t, r), (r, b, c, t)
                count += len(got)
    assert count == 37191


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda r: sum(r) <= 5),
       st.lists(st.integers(0, 4), max_size=3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4),
       st.integers(1, 3))
def test_lemma_key_rebase_property(r, bs, c, t, t_wide, wide_c):
    # from any t' >= t, and at c >= 1 from any c' >= 1, stretching or
    # shrinking, to any b's in any order
    t, t_wide = min(t, t_wide), max(t, t_wide)
    wide_c = wide_c if c else 0
    wide = lemma_key_survivors(0, wide_c, t_wide, r)
    assert lemma_key_rebase(wide, wide_c, c, t, bs) == [lemma_key_survivors(b, c, t, r) for b in bs]


def test_lemma_key_rebase_keeps_c_0_apart():
    # ties survive at c = 0 only, so no list stretches to or from it
    for wide_c, c in ((0, 1), (1, 0), (0, 2)):
        with pytest.raises(ValueError):
            lemma_key_rebase(lemma_key_survivors(0, wide_c, 2, (1, 2)), wide_c, c, 2, [0])


def test_lemma_key_suite_classifies_every_survivor_at_its_own_parameters():
    # two enumerations for the 27 (b, c, t), at c = 0 and c = 1; one rebase
    # per (c, t), which caps that list once and shifts it for every b, the
    # c = 2 ones off the c = 1 list stretched at t = 2 first; and one
    # classifier call per (b, c, t), in product order, with every k the
    # enumerator yields at that (b, c, t)
    r = (1, 2, 1)
    lists, enumerated, rebased = _suite_lists(r)
    assert enumerated == [(0, 0, 2), (0, 1, 2)]
    bs = (0, 1, 2)
    assert rebased == [(1, 2, 2, bs)] + [(c, c, t, bs) for c, t in itertools.product(range(3), repeat=2)
                                         if (c, t) != (2, 2)]
    assert list(lists) == list(itertools.product(range(3), repeat=3))
    assert all(got == lemma_key_survivors(b, c, t, r) for (b, c, t), got in lists.items())
    assert sum(map(len, lists.values())) == 54


def test_lemma_key_minweight_cases_check_every_composition(monkeypatch):
    # no minweight case passes over zero evidence: each sends every
    # composition of s, the one-block (s,) included, through Held-Karp
    batches = []
    many = roots.min_path_weights_many

    def count(rs):
        batches.append(list(rs))
        return many(rs)

    monkeypatch.setattr(roots, "min_path_weights_many", count)
    cases = [params for params in cli._cases_lemma_key(None) if params["kind"] == "minweight"]
    assert [params["s"] for params in cases] == list(range(1, 9))
    for params in cases:
        assert cli._run_lemma_key(params) == (True, None)
        s = params["s"]
        assert len(batches[-1]) == 2 ** (s - 1) >= 1 and (s,) in batches[-1], s
    assert len(batches) == len(cases)


def test_lemma_key_minweight_holds_one_block_to_the_bound_one(monkeypatch):
    # (s,) has no decorated block: its least weight must be 1, the first step
    many = roots.min_path_weights_many

    def heavy_one_block(rs):
        return [(2, 1) if len(r) == 1 else got for r, got in zip(rs, many(rs))]

    monkeypatch.setattr(roots, "min_path_weights_many", heavy_one_block)
    assert cli._run_lemma_key({"kind": "minweight", "s": 1}) == (False, {"r": [1], "min": 2})
    assert cli._run_lemma_key({"kind": "minweight", "s": 3}) == (False, {"r": [3], "min": 2})


def test_lemma_key_minweight_fails_a_leave_one_out_below_the_bound(monkeypatch):
    # a leave-one-out minimum of m - 2 for one composition fails the case
    many = roots.min_path_weights_many
    target = (1, 3)

    def light(rs):
        return [(best, 1) if r == target else (best, low) for r, (best, low) in zip(rs, many(rs))]

    monkeypatch.setattr(roots, "min_path_weights_many", light)
    assert cli._run_lemma_key({"kind": "minweight", "s": 4}) == (False, {"r": [1, 3], "leave_one_out_min": 1})


def test_lemma_key_classify_witness_reproduces(monkeypatch):
    # a k that needs no case 4 fails the suite case with all it takes to
    # rerun: the first k of the first nonempty list
    calls = []

    def case1(ks, b, c, t, r):
        calls.append((b, c, t))
        return [(1, 1)] * len(ks)

    monkeypatch.setattr(roots, "lemma_key_classify", case1)
    ok, witness = cli._run_lemma_key({"kind": "classify", "r": [1, 2]})
    b, c, t = calls[-1]
    assert not ok and all(not lemma_key_survivors(*params, [1, 2]) for params in calls[:-1])
    assert witness == {"k": list(lemma_key_survivors(b, c, t, [1, 2])[0]), "b": b, "c": c, "t": t}


def test_lemma_key_examples_case_reports_its_witness(monkeypatch):
    # a witness permutation other than the paper's fails the fixed examples,
    # with all three values
    w0 = (7, 1, 4, 8, 2, 5, 9, 3, 6, 10)
    monkeypatch.setattr(roots, "min_weight_witness", lambda r: (w0, 4))
    ok, witness = cli._run_lemma_key({"kind": "examples"})
    assert not ok and witness == {"N_example": 8, "w0": list(w0), "N_w0": 4}


def test_lemma_key_case_fails_where_no_case_applies(monkeypatch, tmp_path):
    # with no staircase found, the classifier raises LemmaFalsified on the
    # first survivor; the suite case then fails with the error as its
    # witness, and qct verify exits 1.  Every classify case with a survivor
    # fails; the rest have none to classify
    monkeypatch.setattr(roots, "case4_staircase", lambda *args: None)
    with pytest.raises(LemmaFalsified):
        lemma_key_classify(lemma_key_survivors(0, 1, 2, (1, 2)), 0, 1, 2, (1, 2))
    case = cli._run_case("lemma-key", {"kind": "classify", "r": [1, 2]})
    assert case["status"] == "fail" and case["witness"]["error"].startswith("LemmaFalsified: no case applies")
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "lemma-key", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = [case["params"] for case in report["cases"] if case["status"] == "fail"]
    assert failed == [params for params in cli._cases_lemma_key(None) if params["kind"] == "classify"
                      and any(lemma_key_survivors(0, c, 2, params["r"]) for c in range(2))]
    assert len(failed) == 27


def test_lemma_key_survivors_reject_negative_parameters():
    for b, c, t in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        with pytest.raises(ValueError):
            lemma_key_survivors(b, c, t, (1, 1))
    with pytest.raises(ValueError):
        lemma_key_survivors(1, 1, 1, (1, 0))


def test_lemma_key_survivors_edge_cases():
    assert list(lemma_key_survivors(0, 0, 0, (2,))) == []
    # c = 0 lets cross-block entries tie; they come out once, largest position first
    assert list(lemma_key_survivors(0, 0, 1, (3,))) == [(1, 1, 1)]


def admissible_r_vectors(shape: Shape, s: int):
    """Positive vectors r with sum s and r_i <= min(s, n_i)."""
    parts = shape.parts

    def rec(i, remaining):
        if i == len(parts):
            if remaining == 0:
                yield ()
            return
        cap = min(s, parts[i])
        for v in range(1, cap + 1):
            if v <= remaining:
                for rest in rec(i + 1, remaining - v):
                    yield (v,) + rest

    yield from rec(0, s)


def threshold_attainment_check(shape: Shape, s: int) -> dict:
    """max(r_1..r_p) >= t_{s+1} over admissible r, plus the equality analysis.

    Every equality case (possible only when t_{s+1} > 0) must satisfy the
    load-bearing consequence sum_i r_i(n_i - r_i) = t_{s+1} (n - s); when s
    lies past the zero-threshold bracket (s > n_0 + p) the r-profile must
    additionally match the packed family: undecorated block full, the j-1
    smallest decorated blocks full, the rest all equal to m_{j-1} + k.
    """
    if shape.p == 0 or not 1 <= s <= shape.n - 1:
        raise ValueError("need p >= 1 and 1 <= s <= n-1")
    ts1 = t_table(shape)[s]  # t_{s+1}: table is t_1..t_n, index s is s+1
    m = (1,) + shape.sorted_decorated()
    p = shape.p
    n0 = shape.parts[0]
    report = {"shape": shape.parts, "s": s, "t_next": ts1, "checked": 0, "equality_cases": 0}
    orders = [
        w for w in itertools.permutations(range(1, p + 1))
        if list(shape.parts[i] for i in w) == sorted(shape.parts[1:])
    ]
    for r in admissible_r_vectors(shape, s):
        report["checked"] += 1
        mx = max(r[1:])
        if mx < ts1:
            raise LemmaFalsified(f"max r violates threshold: r={r}, t_(s+1)={ts1}")
        if mx == ts1 and ts1 > 0:
            report["equality_cases"] += 1
            sigma = sum(r[i] * (shape.parts[i] - r[i]) for i in range(1, p + 1))
            if sigma != ts1 * (shape.n - s):
                raise LemmaFalsified(f"equality case breaks the sigma identity: r={r}")
            if s > n0 + p and not _equality_profile_ok(shape, r, orders, m):
                raise LemmaFalsified(f"equality profile unexplained: r={r}, shape={shape}")
    return report


def _equality_profile_ok(shape, r, orders, m):
    if r[0] != shape.parts[0]:
        return False
    p = shape.p
    for w in orders:
        for j in range(1, p + 1):
            kmax = m[j] - m[j - 1]
            for kk in range(1, kmax + 1):
                good = all(r[w[i - 1]] == shape.parts[w[i - 1]] for i in range(1, j)) and all(
                    r[w[i - 1]] == m[j - 1] + kk for i in range(j, p + 1)
                )
                if good:
                    return True
    return False


def threshold_block_bound_holds(shape: Shape) -> bool:
    """-p(t_s + 1) <= n_0 - s for every s."""
    ts = t_table(shape)
    p = shape.p
    n0 = shape.parts[0]
    return all(-p * (ts[s - 1] + 1) <= n0 - s for s in range(1, shape.n + 1))


def test_threshold_attainment_enumeration():
    for shape in all_shapes(7, min_p=1):
        for s in range(1, shape.n):
            threshold_attainment_check(shape, s)  # raises LemmaFalsified on violation


def test_threshold_block_bound_all_shapes():
    for shape in all_shapes(8):
        assert threshold_block_bound_holds(shape)
