import itertools

import pytest

from qct import closedform
from qct.closedform import (
    BFParams,
    all_shapes,
    bf_p1_rhs,
    bf_rhs,
    dn0_rhs,
    identity_suite,
    kadell_rhs,
    qbinom_theorem_holds,
    qdyson_rhs,
    qmorris_rhs,
    qsum_identity_holds,
    qsum_lhs,
    rec_scalar_identity_holds,
)
from qct.products import Shape, bf_ct, bf_ct_grid, ct_qdyson, kadell_ct, qmorris_ct
from qct.qring import ONE, Cyclo, QFrac, QLaurent, qbinom, qpoch
from qct.splitting import vanishing_check


def L(text):
    return QFrac.from_qlaurent(QLaurent.parse(text))


def test_qdyson_rhs_values():
    assert qdyson_rhs((1, 1)) == L("1 + q")
    assert qdyson_rhs((0, 0, 0)) == QFrac(1)
    assert qdyson_rhs((1, 1, 1)) == L("1 + 2*q + 2*q^2 + q^3")


def test_qmorris_rhs_values():
    assert qmorris_rhs(1, 1, 1, 0) == L("1 + q")
    assert qmorris_rhs(4, 0, 0, 0) == QFrac(1)
    assert qmorris_rhs(2, 1, 1, 1) == qmorris_ct(2, 1, 1, 1)


def test_bf_p1_reduces_to_single_block():
    for n0 in (1, 2):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert bf_p1_rhs(n0, 1, a, b, c) == qmorris_rhs(n0 + 1, a, b, c)
    assert bf_p1_rhs(1, 1, 0, 0, 0) == QFrac(1)


def test_bf_rhs_p0_is_single_block_product():
    for n in (1, 2, 3):
        for a, b, c in itertools.product(range(2), repeat=3):
            assert bf_rhs(BFParams(Shape((n,)), a, b, c)) == qmorris_rhs(n, a, b, c)


def test_bf_rhs_shape_11_equals_morris_two():
    for a, b, c in itertools.product(range(3), repeat=3):
        # eps vanishes when all decorated blocks are singletons
        assert bf_rhs(BFParams(Shape((1, 1)), a, b, c)) == qmorris_rhs(2, a, b, c)


def test_bf_rhs_against_brute_small():
    shape = Shape((1, 2))
    for a, b, c in itertools.product(range(2), repeat=3):
        assert bf_rhs(BFParams(shape, a, b, c)) == bf_ct(shape, a, b, c)
    assert bf_rhs(BFParams(shape, 1, 1, 1)) == bf_ct(shape, 1, 1, 1)


def test_tie_break_independence():
    shape = Shape((1, 2, 2))
    base = bf_rhs(BFParams(shape, 1, 1, 1))
    for k in (1, 2):
        assert bf_rhs(BFParams(shape, 1, 1, 1), k=k) == base
    with pytest.raises(ValueError):
        bf_rhs(BFParams(Shape((1, 1, 2)), 0, 0, 0), k=1)


def test_b_zero_makes_a_irrelevant():
    for shape in (Shape((1, 2)), Shape((2, 2))):
        for c in range(3):
            base = bf_rhs(BFParams(shape, 0, 0, c))
            for a in range(1, 4):
                assert bf_rhs(BFParams(shape, a, 0, c)) == base
                assert bf_ct(shape, a, 0, c) == base


def test_values_are_polynomials_in_q():
    # a QLaurent is a polynomial in q and 1/q by its type
    for shape in (Shape((1, 2)), Shape((1, 1, 1))):
        for a, b, c in itertools.product(range(2), repeat=3):
            assert type(bf_rhs(BFParams(shape, a, b, c))) is QLaurent


def test_constant_terms_are_qlaurent():
    # every brute-force and closed-form constant term, zero values included,
    # is returned as a QLaurent, not wrapped in a fraction
    shape = Shape((1, 2))
    values = [
        bf_ct(shape, 1, 1, 1), qmorris_ct(2, 1, 1, 1), ct_qdyson((1, 2)),
        kadell_ct((1, 0), 1, (1, 1)), kadell_ct((1, 0), 1, (0, 0)),
        *bf_ct_grid(shape, 1, [(0, 1), (1, 1)]).values(),
        bf_rhs(BFParams(shape, 1, 1, 1)), dn0_rhs(shape, 1), qdyson_rhs((1, 2)),
        qmorris_rhs(2, 1, 1, 1), bf_p1_rhs(1, 2, 1, 1, 1),
        kadell_rhs((1, 0), 1, (2, 0)), kadell_rhs((1, 1), 2, (2, 2)),
        vanishing_check(Shape((2, 2)), [1], [0, 0, 0, 0], 1),
    ]
    assert [type(v) for v in values] == [QLaurent] * len(values)
    assert kadell_ct((1, 0), 1, (0, 0)).is_zero() and kadell_rhs((1, 1), 2, (2, 2)).is_zero()
    assert vanishing_check(Shape((2, 2)), [1], [0, 0, 0, 0], 1).is_zero()


def test_dn0_base_and_consistency():
    assert dn0_rhs(Shape((3,)), 2) == QFrac(QLaurent.parse("1 - q^2") * QLaurent.parse("1 - q^4") * QLaurent.parse("1 - q^6") * QLaurent.parse("1 - q^5") * QLaurent.parse("1 - q^3") * QLaurent.parse("1 - q"),
                                             (QLaurent.parse("1 - q") * QLaurent.parse("1 - q^2")) ** 3)
    for shape in (Shape((1, 2)), Shape((2, 1)), Shape((1, 1, 1))):
        for c in range(3):
            assert dn0_rhs(shape, c) == bf_rhs(BFParams(shape, 0, 0, c))


def test_kadell_rhs_cases():
    assert kadell_rhs((1, 1), 2, (2, 2)) == QFrac(0)
    # n = 1 collapse: complete symmetric value on a geometric alphabet
    assert kadell_rhs((2,), 2, (2,)) == kadell_ct((2,), 2, (2,))
    # n = 2 oracle check
    assert kadell_rhs((1, 0), 1, (1, 1)) == kadell_ct((1, 0), 1, (1, 1))
    assert kadell_rhs((0, 2), 2, (2, 1)) == kadell_ct((0, 2), 2, (2, 1))
    with pytest.raises(ValueError):
        kadell_rhs((1, 0), 2, (1, 1))


def test_closed_forms_reject_a_negative_cyclotomic_exponent(monkeypatch):
    # the check behind every closed form, kadell_rhs included, is the
    # expansion of its Cyclo value
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        (Cyclo.poch(1, 1) ** -1).expand()  # (1 - q)^-1
    assert Cyclo.qbinom(4, 2).expand() == qbinom(4, 2)
    # with every Pochhammer symbol inverted, both values below become
    # (q)_1^2 / (q)_2 = (1 - q)/(1 + q) and (1 - q)/(1 - q^2), and raise
    poch = closedform._poch
    monkeypatch.setattr(closedform, "_poch", lambda m, z: poch(m, z) ** -1)
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        qdyson_rhs((1, 1))
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        kadell_rhs((1, 0), 1, (2, 0))


def recursion_factor(shape: Shape, a: int, b: int, c: int, k: int) -> QFrac:
    """One step of the block recursion as a QFrac: the factored value's
    inverse divides 1."""
    return (closedform._recursion_factor(shape, a, b, c, k) ** -1).divide(ONE)


def test_recursion_factor_matches_its_qfrac_formula():
    # the factored step against the same product reduced by QFrac gcds
    fractions = 0
    for shape in all_shapes(4, min_p=1):
        k = shape.max_block()
        n, nk = shape.n, shape.parts[k]
        for a, b, c in itertools.product(range(3), repeat=3):
            num = qpoch(nk * (c + 1), 1) * qpoch(a + (n - 1) * c + nk, b) * qbinom(n * c + nk - 1, c)
            den = qpoch(c + 1, 1) * qpoch((n - 1) * c + nk, b)
            want = QFrac(num, den)
            assert recursion_factor(shape, a, b, c, k) == want
            fractions += not want.is_polynomial()
    assert fractions > 0


def test_qsum_identity():
    assert qsum_lhs(2, 1) == QFrac.from_qlaurent(qbinom(2, 1))
    for n in range(0, 6):
        for t in range(0, n + 1):
            assert qsum_identity_holds(n, t)
    assert qsum_identity_holds(0, 0)  # both sides 1


def test_qbinom_theorem():
    for t in range(0, 7):
        assert qbinom_theorem_holds(t)


def test_rec_scalar_identity():
    for shape in all_shapes(4, min_p=1):
        for c in range(3):
            assert rec_scalar_identity_holds(shape, c)


def test_identity_suite_green():
    rep = identity_suite(nmax=6, shapes_nmax=4, cmax=2)
    assert rep["witness"] is None
    assert rep["qsum"] == rep["qbinom_theorem"] == rep["rec_scalar"] == "pass"
