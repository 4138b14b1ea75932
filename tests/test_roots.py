import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import cli, gxseries, qring, roots
from qct.closedform import all_shapes
from qct.products import Shape, bf_ct
from qct.qring import ONE, ZPoly, eval_poly
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


def test_root_rows_match_threshold_table():
    for shape in all_shapes(6):
        ts = t_table(shape)
        for b, c in ((1, 1), (2, 2), (1, 3)):
            table = root_sets(shape, b, c)
            assert len(table.rows) == shape.n
            for i, j, els in table.rows:
                assert len(els) == b
                assert els[0] == i * c + ts[i] + 1
                assert list(els) == list(range(els[0], els[0] + b))


def test_root_set_examples():
    assert root_sets(Shape((1, 2)), 0, 2).union() == []
    assert root_sets(Shape((1, 2)), 1, 2).union() == [1, 3, 6]
    # disjoint union of size nb whenever c >= b
    for shape in all_shapes(5):
        for b in range(3):
            for c in range(b, 4):
                table = root_sets(shape, b, c)
                assert table.is_disjoint()
                assert len(table.union()) == shape.n * b


def test_root_table_display():
    text = str(root_sets(Shape((1, 2)), 1, 2))
    assert "row i=0 [class 0]: 1" in text
    assert "row i=2 [class 1]: 6" in text


def test_interpolate_dn_degree_and_extrapolation():
    shape = Shape((1, 1))
    poly = interpolate_dn(shape, 1, 1)
    assert len(poly.coeffs) == 4 and poly.degree() == 2
    # values at the last node a = 3 and at the unused a = 4 agree with direct brute folds
    assert eval_poly(poly, 3) == bf_ct(shape, 3, 1, 1)
    assert eval_poly(poly, 4) == bf_ct(shape, 4, 1, 1)
    # b = 0: constant polynomial equal to the a-independent value
    const = interpolate_dn(shape, 0, 2)
    assert const.degree() == 0
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
    table = root_sets(Shape((2,)), 1, 2)
    assert table.union() == [1, 3]
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
    shape, b, c = Shape((1, 2)), 1, 1
    coeffs = roots.product_form_coeffs

    def perturbed(shape, b, c):
        pf = coeffs(shape, b, c)
        return ZPoly(pf.coeffs[:1] + [pf.coeffs[1] + pf.den.expand()] + pf.coeffs[2:], pf.den)

    assert cli._run_roots({"shape": list(shape.parts), "b": b, "c": c}) == (True, None)
    monkeypatch.setattr(roots, "product_form_coeffs", perturbed)
    ok, detail = cli._run_roots({"shape": list(shape.parts), "b": b, "c": c})
    assert not ok and detail["product_form_match"] is False
    assert detail["all_vanish"] and detail["closed_form_match"]


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
    assert len(pf.coeffs) == shape.n * 1 + 1 and pf == poly
    # cross-multiplication tells a wrong coefficient apart
    wrong = ZPoly(pf.coeffs[:1] + [pf.coeffs[1] + pf.den.expand()] + pf.coeffs[2:], pf.den)
    assert wrong != poly


def test_path_weight_worked_examples():
    assert path_weight((9, 10, 3, 5, 6, 8, 4, 2, 7, 1), (3, 3, 4)).total == 8
    w0, n0 = min_weight_witness((3, 3, 4))
    assert w0 == (10, 6, 3, 9, 5, 2, 8, 4, 1, 7)
    assert n0 == 4
    # descending permutation with p = 0: only the first step scores
    assert path_weight((3, 2, 1), (3,)).total == 1
    pw = path_weight((2, 1, 3), (1, 2))
    assert pw.e[0] == 1  # e_1 = 1 always


def exhaustive_min_weights(r):
    """Brute-force oracle for min_path_weights: both minima over all s! permutations."""
    s = sum(r)
    weights = [path_weight(w, r) for w in itertools.permutations(range(1, s + 1))]
    return min(pw.total for pw in weights), min(pw.total - max(pw.e) for pw in weights)


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


def test_lemma_key_examples():
    case, witness = lemma_key_classify((1, 3), 2, 1, 1, (2,))
    assert case == 1 and witness == 1
    case, witness = lemma_key_classify((4, 3), 0, 2, 2, (2,))
    assert case == 2 and witness == (1, 2)
    # same-block pair window is one wider on each side: positions 2,3 share
    # the decorated block, difference -2 lands in [-c-1, c]
    case, witness = lemma_key_classify((7, 2, 4), 1, 2, 2, (1, 2))
    assert case == 3 and witness == (2, 3)
    with pytest.raises(ValueError):
        lemma_key_classify((9, 1), 1, 1, 1, (2,))


def test_lemma_key_case4_witness():
    # k = (2, 5) on two singleton blocks with b=1, c=2, t=2: no small pair
    # differences, so the staircase pattern must kick in
    case, witness = lemma_key_classify((2, 5), 1, 2, 2, (1, 1))
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
    assert lemma_key_classify(*args) == expected


def test_lemma_key_exhaustive_small():
    for r in ((1,), (2,), (1, 1), (1, 2), (1, 1, 1)):
        s = sum(r)
        for b, c, t in itertools.product(range(2), range(2), range(2)):
            bound = (s - 1) * c + b + t
            if bound < 1:
                continue
            for k in itertools.product(range(1, bound + 1), repeat=s):
                lemma_key_classify(k, b, c, t, r)  # must not raise


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


def _lemma_key_grid(s):
    """The lemma-key suite's (r, b, c, t) at one s: p <= 2 and b, c, t <= 2."""
    for r in _compositions(s):
        if len(r) <= 3:
            for b, c, t in itertools.product(range(3), repeat=3):
                yield r, b, c, t


def test_lemma_key_survivors_match_brute_sweep():
    # every k of the box at s <= 4, classified one by one: the case-4 set is
    # the enumerator's output, each k once
    count = 0
    for s in range(1, 5):
        for r, b, c, t in _lemma_key_grid(s):
            top = (s - 1) * c + b + t
            case4 = {k for k in itertools.product(range(1, top + 1), repeat=s)
                     if lemma_key_classify(k, b, c, t, r)[0] == 4}
            got = list(lemma_key_survivors(b, c, t, r))
            assert len(got) == len(set(got)) and set(got) == case4, (r, b, c, t)
            count += len(got)
    assert count == 1005


def test_lemma_key_sort_matches_permutation_scan():
    count = 0
    for s in range(1, 6):
        for r, b, c, t in _lemma_key_grid(s):
            for k in lemma_key_survivors(b, c, t, r):
                assert lemma_key_classify(k, b, c, t, r) == (4, _case4_by_scan(k, b, c, t, r))
                count += 1
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
    # s = 7 is past the suite's default grid; 9,978 case-4 vectors at s <= 7
    # and 4,857 at s <= 6 are the counts of an index-order backtracking search
    count = 0
    for r, b, c, t in _lemma_key_grid(7):
        for k in lemma_key_survivors(b, c, t, r):
            assert lemma_key_classify(k, b, c, t, r)[0] == 4
            count += 1
    assert count == 9978 - 4857


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
    # one enumeration per (r, c) at b = 0 and t = 2, as the suite makes it,
    # shifted and capped for every (b, t): the enumerator's own list, in order
    count = 0
    for s in range(1, 7):
        for r in _compositions(s):
            if len(r) <= 3:
                for c in range(3):
                    wide = lemma_key_survivors(0, c, 2, r)
                    for b, t in itertools.product(range(3), repeat=2):
                        got = lemma_key_rebase(wide, b, c, t)
                        assert got == lemma_key_survivors(b, c, t, r), (r, b, c, t)
                        count += len(got)
    assert count == 4857


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda r: sum(r) <= 5),
       st.integers(0, 4), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
def test_lemma_key_rebase_property(r, b, c, t, t_wide):
    t, t_wide = min(t, t_wide), max(t, t_wide)
    wide = lemma_key_survivors(0, c, t_wide, r)
    assert lemma_key_rebase(wide, b, c, t) == lemma_key_survivors(b, c, t, r)


def test_lemma_key_suite_classifies_every_survivor_at_its_own_parameters(monkeypatch):
    # three enumerations for the 27 (b, c, t), and every k the enumerator
    # yields at (b, c, t) goes to the classifier with that (b, c, t), in order
    enumerated, classified = [], []
    survivors = roots.lemma_key_survivors

    def enumerate_(b, c, t, r):
        enumerated.append((b, c, t))
        return survivors(b, c, t, r)

    def classify(k, b, c, t, r):
        classified.append((tuple(k), b, c, t))
        return (4, None)

    monkeypatch.setattr(roots, "lemma_key_survivors", enumerate_)
    monkeypatch.setattr(roots, "lemma_key_classify", classify)
    r = (1, 2, 1)
    assert cli._run_lemma_key({"kind": "classify", "r": list(r)}) == (True, None)
    assert enumerated == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]
    assert classified == [(k, b, c, t) for b, c, t in itertools.product(range(3), repeat=3)
                          for k in survivors(b, c, t, r)]
    assert len(classified) == 54


def test_lemma_key_classify_witness_reproduces(monkeypatch):
    # a k that needs no case 4 fails the suite case with all it takes to rerun
    calls = []

    def case1(k, b, c, t, r):
        calls.append((list(k), b, c, t))
        return (1, 1)

    monkeypatch.setattr(roots, "lemma_key_classify", case1)
    ok, witness = cli._run_lemma_key({"kind": "classify", "r": [1, 2]})
    k, b, c, t = calls[0]
    assert not ok and len(calls) == 1
    assert witness == {"k": k, "b": b, "c": c, "t": t}
    assert tuple(k) == lemma_key_survivors(b, c, t, [1, 2])[0]


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
