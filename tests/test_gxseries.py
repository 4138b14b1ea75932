import itertools

import pytest

from qct.gxseries import (
    OutOfContract,
    VarOrder,
    build_Q,
    build_Quk,
    check_property_expand,
    check_property_laurent,
    check_property_zero,
    ct_binomial,
    ct_partial_fraction,
    exact_ct_rational,
    expand_factor,
    gx_ct,
    vanishing_property_checks,
    oracle_matches_direct,
    property_branch,
    series_ct,
)
from qct.laurent import MLaurent
from qct.products import Shape
from qct.qring import QFrac, eval_poly
from qct.roots import interpolate_dn


def test_expand_factor_directions():
    order = VarOrder.natural(3)
    m = expand_factor(1, 2, QFrac.q_power(1), order, 2, 3)
    want = MLaurent(3, {
        (0, 0, 0): QFrac(1),
        (0, 1, -1): QFrac.q_power(1),
        (0, 2, -2): QFrac.q_power(2),
    })
    assert m == want
    # reversed order: the complementary expansion, with the minus sign
    rev = VarOrder((2, 1, 0))
    m2 = expand_factor(1, 2, QFrac.q_power(1), rev, 2, 3)
    want2 = MLaurent(3, {
        (0, -1, 1): QFrac.q_power(-1, -1),
        (0, -2, 2): QFrac.q_power(-2, -1),
    })
    assert m2 == want2


def test_ct_binomial_is_order_driven():
    order = VarOrder.natural(4)
    assert ct_binomial(1, 2, order) == 1
    assert ct_binomial(2, 1, order) == 0


def test_ct_matches_series_expansion():
    # CT by the orientation rule equals CT of the truncated series at any
    # truncation level, for a factor with a polynomial numerator
    order = VarOrder.natural(2)
    num = MLaurent.constant(2, 1)
    val = series_ct(num, [(QFrac.q_power(1), 1)], 0, order, 8)
    assert val == QFrac(1)  # head 0 precedes tail 1: constant term 1


def test_ct_partial_fraction_single_factor():
    # descending tail: nothing survives
    num = MLaurent.constant(3, 1)
    out = ct_partial_fraction(num, [(QFrac.q_power(1), 0)], 1)
    assert out == []
    # ascending tail: one term, and its value matches the geometric series
    out = ct_partial_fraction(num, [(QFrac.q_power(1), 2)], 1)
    assert len(out) == 1
    new_num, new_dens, head = out[0]
    assert new_num == MLaurent.constant(3, 1) and new_dens == [] and head == 2
    order = VarOrder.natural(3)
    assert series_ct(num, [(QFrac.q_power(1), 2)], 1, order, 10) == QFrac(1)


def test_ct_partial_fraction_two_factors_vs_series():
    # f = 1 / ((1 - q x_1/x_3)(1 - q^2 x_1/x_3)); eliminate x_1
    num = MLaurent.constant(4, 1)
    dens = [(QFrac.q_power(1), 3), (QFrac.q_power(2), 3)]
    pieces = ct_partial_fraction(num, dens, 1)
    total = QFrac(0)
    for new_num, new_dens, head in pieces:
        assert not new_dens
        total = total + new_num.constant_coefficient()
    order = VarOrder.natural(4)
    assert total == series_ct(num, dens, 1, order, 12)


def test_ct_partial_fraction_degree_precondition():
    num = MLaurent.monomial(3, (2, 0, 0))
    with pytest.raises(OutOfContract):
        ct_partial_fraction(num, [(QFrac.q_power(1), 2)], 0)


def test_ct_partial_fraction_order_independence():
    # the set of substituted terms is independent of the factor list order
    num = MLaurent.monomial(3, (1, 0, 0))
    dens = [(QFrac.q_power(1), 1), (QFrac.q_power(2), 2)]

    def canon(pieces):
        out = []
        for new_num, new_dens, head in pieces:
            out.append((head, tuple(sorted((str(cf), t) for cf, t in new_dens)), str(new_num)))
        return sorted(out)

    assert canon(ct_partial_fraction(num, dens, 0)) == \
        canon(ct_partial_fraction(num, list(reversed(dens)), 0))


def test_build_Q_small_cts():
    # shape (1), b=c=0, d=1: the head function has constant term 1
    q = build_Q(Shape((1,)), 0, 0, 1)
    assert exact_ct_rational(q) == QFrac(1)
    # b=1: -a = 1 is a predicted root, so the constant term vanishes
    q = build_Q(Shape((1,)), 1, 0, 1)
    assert exact_ct_rational(q).is_zero()
    # p=0, n=2, b=c=1, d=1: again a root
    q = build_Q(Shape((2,)), 1, 1, 1)
    assert exact_ct_rational(q).is_zero()


def test_V_vanishes_when_k_small():
    q = build_Quk(Shape((1, 1)), 2, 1, 3, (1,), (2,))
    assert q.is_zero()  # k_1 = 2 <= b
    assert q.vanishing_factor()[0] == "k<=b"


def test_r_vector_bookkeeping():
    q = build_Quk(Shape((1, 2, 2)), 0, 0, 2, (1, 3, 4), (1, 1, 1))
    assert q.r_vector() == (1, 1, 1)
    q2 = build_Quk(Shape((1, 2, 2)), 0, 0, 2, (4, 5), (1, 1))
    assert q2.r_vector() == (0, 0, 2)


def test_direct_equals_substitution_oracle():
    probes = [
        ((1, 1), 1, 1, 2, (1,), (1,)),
        ((1, 1), 1, 1, 2, (1,), (2,)),
        ((1, 1), 1, 1, 2, (1, 2), (2, 1)),
        ((1, 2), 1, 1, 3, (2,), (2,)),
        ((1, 2), 1, 1, 3, (1, 3), (1, 3)),
        ((1, 2), 0, 2, 2, (1, 2, 3), (1, 2, 2)),
    ]
    for shp, b, c, d, u, k in probes:
        assert oracle_matches_direct(Shape(shp), b, c, d, u, k), (shp, b, c, d, u, k)


def test_property_zero_branch():
    shape = Shape((1, 2))
    rep = check_property_zero(shape, 1, 1, 2, (1, 2), (1, 1))
    assert rep["ok"] and rep["witness"] is not None


def test_property_expand_branch():
    shape = Shape((1, 2))
    rep = check_property_expand(shape, 1, 1, 4, (1,), (3,))
    assert rep["ok"] and rep["degree_ok"]


def test_property_laurent_nontrivial():
    shape = Shape((2, 4))
    rep = check_property_laurent(shape, 1, 2, 5, (3, 4), (5, 2))
    assert rep["ok"] and not rep["zero_by_V"]
    assert rep["divisible"] and rep["laurent_form_ok"] and rep["ct_zero"]
    assert rep["case4"] and rep["in_laurent_bound"]
    assert rep["ledger_exponent"] == 0 and rep["vanishing_precondition_ok"]


def test_lemQ_exhaustive_on_three_variables():
    shape = Shape((1, 2))
    branches = set()
    for d in range(1, 6):
        for s in range(1, 4):
            for u in itertools.combinations(range(1, 4), s):
                for k in itertools.product(range(1, d + 1), repeat=s):
                    rep = vanishing_property_checks(shape, 1, 1, d, u, k)
                    branches.add(rep["branch"])
                    assert rep["ok"], (d, u, k, rep)
    assert {"zero", "expand"} <= branches


def test_laurent_range_empty_on_small_shapes():
    # the laurent window needs sum r_i(n_i - r_i) >= (n - s)(t_{s+1} + 1),
    # which no (u, k) on shape (1,2) can meet; shape (2,4) at d = 2c+1 can
    shape = Shape((1, 2))
    for d in range(1, 6):
        for s in (1, 2):
            for u in itertools.combinations(range(1, 4), s):
                assert property_branch(shape, 1, 1, d, u, (1,) * s) != "laurent"
    assert property_branch(Shape((2, 4)), 1, 2, 5, (3, 4), (5, 2)) == "laurent"


def test_grand_cross_check_shapes():
    for shp, bb, cc in (((1, 1), 1, 1),):
        shape = Shape(shp)
        poly = interpolate_dn(shape, bb, cc)
        for d in range(1, 5):
            assert gx_ct(shape, bb, cc, d) == eval_poly(poly, -d)


def test_pipeline_series_fallback_and_strictness():
    shape = Shape((1, 2))
    poly = interpolate_dn(shape, 1, 1)
    for d in (1, 2, 3):
        got = gx_ct(shape, 1, 1, d, on_stuck="series")
        assert got == eval_poly(poly, -d)
    with pytest.raises(OutOfContract):
        gx_ct(shape, 1, 1, 3)  # a gap term stalls the strict pipeline


def test_pipeline_on_two_decorated_blocks():
    shape = Shape((1, 1, 1))
    poly = interpolate_dn(shape, 1, 1)
    for d in range(1, 5):
        got = gx_ct(shape, 1, 1, d, on_stuck="series")
        assert got == eval_poly(poly, -d), d


def test_exact_ct_rational_matches_pipeline():
    shape = Shape((1, 1))
    for d in (1, 2, 3):
        q = build_Q(shape, 1, 1, d)
        assert exact_ct_rational(q) == gx_ct(shape, 1, 1, d)


def test_degree_ledger_sign_tracks_the_laurent_window():
    # l = (n-s)(sc-d) + sum r_i(n_i-r_i) is nonnegative exactly while d stays
    # at or below sc + sum r_i(n_i-r_i)/(n-s)
    shape = Shape((2, 4))
    u, s, c = (3, 4), 2, 2
    q = build_Quk(shape, 1, c, 5, u, (5, 2))
    r = q.r_vector()
    sig = sum(r[i] * (shape.parts[i] - r[i]) for i in range(1, shape.p + 1))
    n = shape.n
    for d in range(1, 9):
        ell = (n - s) * (s * c - d) + sig
        assert (ell >= 0) == ((d - s * c) * (n - s) <= sig)


def test_head_denominator_interval_inclusion():
    # on a case-4 k-vector the denominator exponent window S_0 sits inside
    # the union of the numerator windows, for every outside variable
    from qct.gxseries import _cancel_head_denominator
    from qct.products import epsilon

    shape = Shape((2, 4))
    q = build_Quk(shape, 1, 2, 5, (3, 4), (5, 2))
    assert _cancel_head_denominator(q) is not None
    # the same inclusion, spelled out in interval arithmetic
    b, c, d = q.b, q.c, q.d
    ks = q.k[-1]
    for i in (1, 2, 5, 6):
        intervals = [(1 - ks, b - ks)]
        for jj, uj in enumerate(q.u):
            eps = epsilon(shape, i, uj)
            chi_ui = 1 if uj > i else 0
            lo = q.k[jj] - ks - chi_ui - eps - c + 1
            intervals.append((lo, lo + 2 * (c + eps) - 1))
        covered = set()
        for lo, hi in intervals:
            covered.update(range(lo, hi + 1))
        assert set(range(1 - ks, d - ks + 1)) <= covered
