import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import cli, gxseries
from qct.products import Shape
from qct.qring import (
    ONE,
    Q,
    ZERO,
    Cyclo,
    QFrac,
    QLaurent,
    cyclo_sum,
    eval_poly,
    interpolate,
    poly_gcd,
    qbinom,
    qpoch,
)


def L(text):
    return QLaurent.parse(text)


def F(text):
    return QFrac.parse(text)


def frac_arith(a: QFrac, b: QFrac, op: str):
    """Dispatch helper: op in {add, sub, mul, div, eq}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "eq":
        return (a.num * b.den) == (b.num * a.den)
    raise ValueError(f"unknown op {op!r}")


# -- qpoch ---------------------------------------------------------------


def test_qpoch_empty_product():
    assert qpoch(1, 0) == ONE


def test_qpoch_vanishing_factor():
    assert qpoch(0, 1) == ZERO


def test_qpoch_length_two_expansion():
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3, multiplied out by hand
    assert qpoch(1, 2) == L("1 - q - q^2 + q^3")


def test_qpoch_negative_length_rejected():
    with pytest.raises(ValueError, match="pochhammer length negative"):
        qpoch(1, -1)


def test_qpoch_splitting_property():
    # (q^m)_{z1+z2} = (q^m)_{z1} (q^{m+z1})_{z2}
    for m in range(-6, 7):
        for z1 in range(0, 7):
            for z2 in range(0, 7 - z1):
                assert qpoch(m, z1 + z2) == qpoch(m, z1) * qpoch(m + z1, z2)


# -- qbinom ---------------------------------------------------------------


def test_qbinom_base_cases():
    assert qbinom(5, 0) == ONE
    assert qbinom(0, 0) == ONE
    assert qbinom(2, 3) == ZERO


def test_qbinom_small_values():
    assert qbinom(2, 1) == L("1 + q")
    assert qbinom(4, 2) == L("1 + q + 2*q^2 + q^3 + q^4")


def test_qbinom_symmetry_and_positivity():
    for n in range(0, 11):
        for c in range(0, n + 1):
            b = qbinom(n, c)
            assert b == qbinom(n, n - c)
            assert all(v > 0 for v in b.terms.values())


def test_qbinom_pascal_recurrence():
    # [n c] = [n-1 c-1] + q^c [n-1 c]
    for n in range(1, 9):
        for c in range(1, n):
            assert qbinom(n, c) == qbinom(n - 1, c - 1) + qbinom(n - 1, c).shift(c)


# -- QLaurent ring basics --------------------------------------------------


def test_qlaurent_mul_zero_and_one():
    p = L("q^-3 + 1")
    assert p * ZERO == ZERO
    assert p * ONE == p
    assert (p - p) == ZERO


def test_qlaurent_divexact():
    a = qpoch(1, 4)
    b = qpoch(1, 2)
    assert a.divexact(b) == qpoch(3, 2)
    with pytest.raises(ValueError):
        (ONE + Q).divexact(L("1 - q"))


def test_qlaurent_text_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            terms[rng.randrange(-7, 8)] = rng.randrange(-9, 10)
        p = QLaurent(terms)
        assert QLaurent.parse(str(p)) == p
    assert str(L("-1 + 2*q^2 - q^5")) == "-1 + 2*q^2 - q^5"
    assert str(L("q^-3 + 1")) == "q^-3 + 1"


def test_poly_gcd_known_factor():
    a = qpoch(1, 3) * L("1 + q + q^2")
    b = qpoch(1, 2) * L("1 + q + q^2")
    g = poly_gcd(a, b)
    # common factor (1-q)(1-q^2)(1+q+q^2)
    expect = qpoch(1, 2) * L("1 + q + q^2")
    assert g == expect or g == -expect


# -- QFrac ------------------------------------------------------------------


def test_frac_mul_cancels():
    one_over = QFrac(ONE, L("1 - q"))
    assert frac_arith(one_over, QFrac(L("1 - q")), "mul") == QFrac(1)


def test_frac_additive_identity():
    x = QFrac(L("1 + q"), L("1 - q"))
    assert frac_arith(x, QFrac(0), "add") == x


def test_frac_gcd_normalization():
    x = QFrac(L("1 - q^2"), L("1 - q"))
    assert x == QFrac(L("1 + q"))
    assert x.is_polynomial()


def test_frac_normal_form_denominator():
    # denominator q-power and sign are pushed out
    x = QFrac(ONE, L("q^-1 - 1"))
    assert x.den == L("q - 1") or x.den == L("1 - q")
    assert x.den.leading_coefficient() > 0
    assert x.den.min_exp() == 0
    # normalization is idempotent
    y = QFrac(x.num, x.den)
    assert y == x


def test_frac_eq_cross_multiplied():
    a = QFrac(L("1 - q^2"), L("1 - q"))
    b = QFrac(L("1 + q"))
    assert frac_arith(a, b, "eq")
    assert not frac_arith(a, QFrac(1), "eq")


def test_frac_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        frac_arith(QFrac(1), QFrac(0), "div")


def test_frac_str_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        num = QLaurent({rng.randrange(-4, 5): rng.randrange(-5, 6) for _ in range(3)})
        den = qpoch(1, rng.randrange(1, 4))
        x = QFrac(num, den)
        assert QFrac.parse(str(x)) == x


# -- interpolation ------------------------------------------------------------


def newton_interpolate(nodes: list[tuple[QFrac, QFrac]]) -> list[QFrac]:
    """Reference oracle: coefficients c_0..c_{m-1} of the unique degree < m
    polynomial through m (abscissa, value) pairs, by Newton's divided
    differences over QFrac at arbitrary distinct abscissae."""
    m = len(nodes)
    if m == 0:
        raise ValueError("no interpolation nodes")
    xs = [p[0] for p in nodes]
    for i in range(m):
        for j in range(i + 1, m):
            if xs[i] == xs[j]:
                raise ValueError("duplicate abscissa in interpolation nodes")
    # divided difference table, kept as one mutating row
    dd = [p[1] for p in nodes]
    newton = [dd[0]]
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
        newton.append(dd[k])
    # expand the Newton form into monomial coefficients
    coeffs = [QFrac(0)] * m
    coeffs[0] = newton[m - 1]
    deg = 0
    for k in range(m - 2, -1, -1):
        # multiply by (z - x_k): shift up, subtract x_k * current
        for i in range(deg, -1, -1):
            coeffs[i + 1] = coeffs[i + 1] + coeffs[i]
            coeffs[i] = -(xs[k] * coeffs[i])
        deg += 1
        coeffs[0] = coeffs[0] + newton[k]
    return coeffs


def horner(coeffs: list[QFrac], z: QFrac) -> QFrac:
    """Reference oracle: evaluate a coefficient list (ascending powers) at z."""
    total = QFrac(0)
    for c in reversed(coeffs):
        total = total * z + c
    return total


def test_interpolate_constant():
    assert newton_interpolate([(QFrac(1), QFrac(5))]) == [QFrac(5)]


def test_interpolate_identity():
    nodes = [(QFrac(1), QFrac(1)), (QFrac.q_power(1), QFrac.q_power(1))]
    assert newton_interpolate(nodes) == [QFrac(0), QFrac(1)]


def test_interpolate_three_nodes():
    # hand-solved 3x3 system: through (1,2), (q,1+q), (q^2,1+q^2) the unique
    # quadratic is z + 1, i.e. coefficients [1, 1, 0]
    nodes = [
        (QFrac(1), QFrac(2)),
        (QFrac.q_power(1), F("1 + q")),
        (QFrac.q_power(2), F("1 + q^2")),
    ]
    assert newton_interpolate(nodes) == [QFrac(1), QFrac(1), QFrac(0)]
    # the q-node routine agrees: numerators over (q; q)_2
    poly = interpolate([L("2"), L("1 + q"), L("1 + q^2")])
    assert poly.degree() == 1
    assert [poly.den.divide(c) for c in poly.coeffs] == [QFrac(1), QFrac(1), QFrac(0)]


def test_interpolate_quadratic_exact():
    # values of 1 + z^2 at 1, q, q^2 recover [1, 0, 1]
    xs = [QFrac(1), QFrac.q_power(1), QFrac.q_power(2)]
    nodes = [(x, QFrac(1) + x * x) for x in xs]
    assert newton_interpolate(nodes) == [QFrac(1), QFrac(0), QFrac(1)]


def test_interpolate_duplicate_abscissa():
    with pytest.raises(ValueError, match="duplicate"):
        newton_interpolate([(QFrac(1), QFrac(1)), (QFrac(1), QFrac(2))])
    with pytest.raises(ValueError, match="step 1 or -1"):
        interpolate([ONE, ONE], step=0)


def test_interpolate_left_inverse_of_evaluation():
    rng = random.Random(3)
    for _ in range(10):
        coeffs = []
        for _ in range(6):
            num = QLaurent({rng.randrange(-3, 4): rng.randrange(-4, 5) for _ in range(2)})
            den = qpoch(1, rng.randrange(0, 3))
            if den.is_zero():
                den = ONE
            coeffs.append(QFrac(num, den))
        xs = [QFrac.q_power(e) for e in range(6)]
        nodes = [(x, horner(coeffs, x)) for x in xs]
        assert newton_interpolate(nodes) == coeffs


laurent_values = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4).map(QLaurent)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(laurent_values, min_size=1, max_size=7),
    first=st.integers(-3, 3),
    step=st.sampled_from([1, -1]),
    points=st.lists(st.integers(-6, 6), min_size=1, max_size=3),
)
def test_q_node_interpolation_matches_reference(values, first, step, points):
    # N = 0..6; integral values at the nodes q^(first + step j)
    poly = interpolate(values, first=first, step=step)
    nodes = [(QFrac.q_power(first + step * j), QFrac.from_qlaurent(v)) for j, v in enumerate(values)]
    want = newton_interpolate(nodes)
    assert poly.den == Cyclo.poch(1, len(values) - 1)
    assert [poly.den.divide(c) for c in poly.coeffs] == want
    assert poly.degree() == max((i for i, c in enumerate(want) if not c.is_zero()), default=-1)
    for e in points:
        assert eval_poly(poly, e) == horner(want, QFrac.q_power(e))


def test_interpolate_rejects_fraction_values(monkeypatch):
    # interpolate takes QLaurent values; the gx route, whose values are
    # cyclo_sum fractions, checks that each has no denominator first
    values = {1: QFrac(1), 2: QFrac(1)}
    monkeypatch.setattr(gxseries, "gx_ct", lambda shape, b, c, d: values[d])
    assert cli._gx_value(Shape((1,)), 0, 1, 0) == QFrac(1)
    values[2] = QFrac(ONE, L("1 - q"))
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        cli._gx_value(Shape((1,)), 0, 1, 0)


# -- factored values ------------------------------------------------------------


def test_cyclo_poch_and_qbinom_expand_to_the_products():
    for m in range(-5, 6):
        for z in range(0, 6):
            assert Cyclo.poch(m, z).expand() == qpoch(m, z), (m, z)
    for n in range(0, 8):
        for k in range(0, 9):
            assert Cyclo.qbinom(n, k).expand() == qbinom(n, k), (n, k)
    with pytest.raises(ValueError, match="pochhammer length negative"):
        Cyclo.poch(1, -1)


def test_cyclo_poch_product_is_the_chained_product():
    # one accumulation equals the product of the symbols and their inverses,
    # signs and q-shifts of negative bases included; a zero symbol makes the
    # value zero, and under a negative power raises
    rng = random.Random(7)
    for _ in range(60):
        pochs = [(rng.randrange(-5, 6), rng.randrange(0, 4), rng.choice((1, -1, 2)))
                 for _ in range(rng.randrange(0, 5))]
        if any(m <= 0 < m + z and p < 0 for m, z, p in pochs):
            with pytest.raises(ZeroDivisionError):
                Cyclo.poch_product(pochs)
            continue
        want = Cyclo()
        for m, z, p in pochs:
            want = want * Cyclo.poch(m, z) ** p
        assert Cyclo.poch_product(pochs) == want, pochs


def test_cyclo_is_an_exponent_vector_over_psi():
    # 1 - q^6 = Psi_1 Psi_2 Psi_3 Psi_6; 1 - q^-2 = -q^-2 Psi_1 Psi_2
    assert Cyclo.poch(6, 1) == Cyclo(1, 0, {1: 1, 2: 1, 3: 1, 6: 1})
    assert Cyclo.poch(-2, 1) == Cyclo(-1, -2, {1: 1, 2: 1})
    assert Cyclo.poch(6, 1) / Cyclo.poch(3, 1) == Cyclo(1, 0, {2: 1, 6: 1})
    assert (Cyclo.poch(6, 1) / Cyclo.poch(3, 1)).expand() == L("1 + q^3")
    assert Cyclo.poch(0, 2) == Cyclo(0) and Cyclo.poch(0, 2).expand() == ZERO


def test_cyclo_fractions_are_reduced_without_gcd():
    rng = random.Random(5)
    for _ in range(40):
        x = Cyclo(rng.choice((1, -1)), rng.randrange(-3, 4))
        for _ in range(3):
            factor = Cyclo.poch(rng.choice((-4, -3, 1, 2, 3, 4)), rng.randrange(0, 3))
            x = x * factor ** rng.choice((1, -1))
        num = QFrac.from_qlaurent(Cyclo(1, 0, {d: e for d, e in x.exps.items() if e > 0}).expand())
        den = QFrac.from_qlaurent(Cyclo(1, 0, {d: -e for d, e in x.exps.items() if e < 0}).expand())
        want = QFrac.q_power(x.shift, x.sign) * num / den
        assert (x ** -1).divide(ONE) == want
        p = QLaurent({rng.randrange(-3, 4): rng.randrange(-4, 5) for _ in range(3)})
        assert x.divide(p) == QFrac.from_qlaurent(p) / want


def test_cyclo_negative_exponent_is_not_a_polynomial():
    inv = Cyclo.poch(1, 1) ** -1  # (1 - q)^-1
    assert not inv.is_polynomial()
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        inv.expand()
    with pytest.raises(ZeroDivisionError):
        Cyclo(1, 1) / Cyclo(0)


@st.composite
def cyclo_scales(draw):
    """sign * q^shift * a product of Pochhammer symbols and their inverses; a
    symbol that vanishes makes the scale zero, and is drawn only to a positive
    power."""
    pochs = []
    for m, z, p in draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3),
                                           st.sampled_from((1, -1, 2, -2))), max_size=3)):
        pochs.append((m, z, abs(p) if m <= 0 < m + z else p))
    return Cyclo(draw(st.sampled_from((1, -1))), draw(st.integers(-3, 3))) * Cyclo.poch_product(pochs)


cyclo_terms = st.tuples(cyclo_scales(), st.dictionaries(st.integers(-3, 3), st.integers(-4, 4),
                                                        max_size=3).map(QLaurent))


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(cyclo_terms, max_size=5), cancel=st.sampled_from(("none", "negate", "refactor")))
def test_cyclo_sum_matches_the_gcd_route(terms, cancel):
    # each term scale * p as a QFrac reduced by poly_gcd, the scale split into
    # its polynomial parts over and under the fraction bar, summed by
    # QFrac.__add__; "negate" appends every term negated, and "refactor" the
    # same value with a factor 1 - q moved from p into the scale, so both
    # sums cancel to zero
    if cancel == "negate":
        terms = terms + [(scale, -p) for scale, p in terms]
    elif cancel == "refactor":
        terms = terms + [(scale / Cyclo.poch(1, 1), -(p * L("1 - q"))) for scale, p in terms
                         if scale.sign]
    want = QFrac(0)
    for scale, p in terms:
        over = Cyclo(scale.sign, scale.shift, {d: e for d, e in scale.exps.items() if e > 0})
        under = Cyclo(1, 0, {d: -e for d, e in scale.exps.items() if e < 0})
        want = want + QFrac(over.times(p), under.expand())
    got = cyclo_sum(terms)
    assert got == want and (got.num, got.den) == (want.num, want.den)
    if cancel != "none" or not terms:
        assert got.is_zero() and got.den.is_one()
