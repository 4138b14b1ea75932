import pytest

from qct import qring, splitting
from qct.closedform import dn0_rhs
from qct.products import Shape
from qct.qring import QFrac
from qct.splitting import (
    SplitDecomposition,
    a_coeff,
    admissible_j,
    build_S,
    denominator_factors,
    pair_product,
    poch_identities,
    residue_identity_holds,
    vanishing_check,
    verify_split,
)


def test_denominator_factor_counts():
    assert len(denominator_factors(Shape((1, 1)), 0)) == 1
    assert len(denominator_factors(Shape((1, 1)), 1)) == 3
    assert len(denominator_factors(Shape((1, 2)), 1)) == 5
    with pytest.raises(ValueError):
        denominator_factors(Shape((3,)), 1)


def test_admissible_j_ranges():
    shape = Shape((1, 2, 1))  # k = 1 holds the maximum
    c = 2
    assert list(admissible_j(shape, c, 1)) == [0, 1]      # class 0
    assert list(admissible_j(shape, c, 2)) == [-1, 0, 1]  # class k
    assert list(admissible_j(shape, c, 4)) == [-1, 0]     # class above k


def test_build_S_numerator_matches_pair_product():
    num, dens = build_S(Shape((1, 1)), 1)
    assert num == pair_product(Shape((1, 1)), 1)
    assert len(dens) == 3


def test_single_term_split_c0():
    # c = 0 on shape (1,1): one denominator factor, one coefficient
    shape = Shape((1, 1))
    rep = verify_split(shape, 0)
    assert rep["ok"] and rep["terms"] == 1
    A = a_coeff(shape, 0, 2, -1)
    assert not A.is_zero()


def test_verify_split_exact():
    for shape, c in [((1, 1), 1), ((1, 2), 1), ((1, 2), 2), ((1, 1, 1), 1)]:
        rep = verify_split(Shape(shape), c)
        assert rep["ok"], (shape, c, rep)
        assert rep["mode"] == "exact"


def test_verify_split_randomized_mode():
    rep = verify_split(Shape((2, 2)), 2, randomized=True, seed=11)
    assert rep["ok"]
    assert rep["mode"] == "randomized-substitution"


def test_residue_oracle_small_shapes():
    for shape, c in [((1, 1), 1), ((1, 2), 1), ((1, 1, 1), 2)]:
        s = Shape(shape)
        for i in range(1, s.n + 1):
            for j in admissible_j(s, c, i):
                assert residue_identity_holds(s, c, i, j), (shape, c, i, j)


def test_splitting_checks_run_without_gcd(monkeypatch):
    shape, c = Shape((2, 2)), 2
    want = dn0_rhs(shape, c)
    gcd = qring.poly_gcd
    calls = []
    monkeypatch.setattr(qring, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    rep = verify_split(shape, c)
    assert rep["ok"] and rep["terms"] == 10
    assert residue_identity_holds(shape, c, 3, -1)
    sd = SplitDecomposition(shape, c)
    assert sd.offclass_cts_vanish() and sd.class_k_ct_sum() == want
    assert calls == []


def test_perturbed_coefficient_is_caught(monkeypatch):
    # one coefficient off by a factor q: the packed sums no longer vanish
    parts = splitting._acoeff_parts

    def perturbed(shape, c, i, j, k, *rest):
        sign, qexp, den, mono, factors = parts(shape, c, i, j, k, *rest)
        return sign, qexp + ((i, j) == (1, 0)), den, mono, factors

    monkeypatch.setattr(splitting, "_acoeff_parts", perturbed)
    shape, c = Shape((1, 2)), 1
    rep = verify_split(shape, c)
    # the first differing monomial in sorted order, as the decoded comparison found it
    assert rep["ok"] is False and rep["witness"] == {"monomial": (-2, -3, 1, 4)}
    held = {(i, j): residue_identity_holds(shape, c, i, j)
            for i in range(1, shape.n + 1) for j in admissible_j(shape, c, i)}
    assert held == {(1, 0): False, (2, -1): True, (2, 0): True, (3, -1): True, (3, 0): True}


def test_out_of_range_j_rejected():
    with pytest.raises(ValueError):
        a_coeff(Shape((1, 1)), 1, 1, -1)  # class 0 starts at j = 0


def test_degree_bounds_and_class_k_mechanism():
    for shape, c in [((1, 2), 1), ((2, 2), 1), ((1, 1, 1), 1)]:
        sd = SplitDecomposition(Shape(shape), c)
        assert sd.degree_bounds_ok()
        assert sd.offclass_cts_vanish()
        assert sd.class_k_ct_sum() == dn0_rhs(Shape(shape), c)


def test_class0_degree_example():
    # on shape (2,2) with c=1 the undecorated coefficients sit at
    # x_i-degree <= -n_k = -2
    shape = Shape((2, 2))
    A = a_coeff(shape, 1, 1, 0)
    assert A.var_range(0)[1] <= -2


def test_poch_identities_trivial_rows():
    # t = 0 row of the first identity and t = -1 row of the second
    rep = poch_identities(0, 2)
    assert rep["ok"]


def test_poch_identities_full():
    rep = poch_identities(3, 3)
    assert rep["ok"] and rep["witness"] is None
    assert rep["checked"] == 248


def test_vanishing_base_cases():
    for c in (1, 2, 3):
        val = vanishing_check(Shape((2, 2)), (1,), (0, 0, 0, 0), c)
        assert val.is_zero(), c


def test_vanishing_with_t_weights():
    # shape (2,3): h=(1) needs sum t = 3 - 2 = 1
    val = vanishing_check(Shape((2, 3)), (1,), (1, 0, 0, 0, 0), 1)
    assert val.is_zero()
    val = vanishing_check(Shape((2, 3)), (1,), (0, 0, 0, 1, 0), 2)
    assert val.is_zero()


def test_vanishing_preconditions():
    with pytest.raises(ValueError):
        vanishing_check(Shape((2, 1, 1)), (1, 1), (0, 0, 0, 0), 1)  # sum h > n0-1
    with pytest.raises(ValueError):
        vanishing_check(Shape((1, 2)), (0,), (0, 0, 0), 1)  # n0 too small
    with pytest.raises(ValueError):
        vanishing_check(Shape((2, 2)), (1,), (1, 0, 0, 0), 1)  # t unbalanced


def test_vanishing_lemma_needs_the_monomial():
    # the plain constant term of the same pair product is NOT zero, so the
    # vanishing really comes from the monomial weights
    assert dn0_rhs(Shape((2, 2)), 1) != QFrac(0)
