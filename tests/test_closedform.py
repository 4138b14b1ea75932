import itertools

import pytest

from qct import closedform
from qct.closedform import (
    BFParams,
    all_shapes,
    bf_cyclo,
    bf_factored,
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
from qct.qring import ONE, Cyclo, QFrac, QLaurent
from qct.splitting import vanishing_check
from test_products import decremented
from test_qring import parse_q, qbinom, qpoch


def L(text):
    return QFrac.from_qlaurent(parse_q(text))


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


def test_bf_cyclo_is_bf_rhs_before_expansion():
    # the factored closed form expands to bf_rhs, and times a Cyclo such as
    # the interpolation denominator (q; q)_N, N = nb + 1, it expands to that
    # Cyclo times bf_rhs
    for shape in all_shapes(4, canonical=True):
        for b, c in itertools.product(range(4), repeat=2):
            den = Cyclo.poch(1, shape.n * b + 1)
            for a in range(shape.n * b + 2):
                params = BFParams(shape, a, b, c)
                value = bf_cyclo(params)
                assert value.expand() == bf_rhs(params), params
                assert (den * value).expand() == den.times(bf_rhs(params)), params


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
    den = parse_q("1 - q") * parse_q("1 - q^2")
    assert dn0_rhs(Shape((3,)), 2) == QFrac(parse_q("1 - q^2") * parse_q("1 - q^4") * parse_q("1 - q^6") * parse_q("1 - q^5") * parse_q("1 - q^3") * parse_q("1 - q"),
                                             den * den * den)
    # the pair product is homogeneous of degree 0, so with a = 0 or b = 0
    # only the 1 of the x_0 factors meets the constant term: the value at
    # a = b = 0 is also the value at (0, b) and (a, 0), but not at (1, 1)
    for shape in (Shape((1, 2)), Shape((2, 1)), Shape((1, 1, 1))):
        for c in range(3):
            want = dn0_rhs(shape, c)
            for a, b in ((0, 0), (0, 2), (2, 0)):
                assert want == bf_rhs(BFParams(shape, a, b, c)) == bf_ct(shape, a, b, c)
            assert want != bf_rhs(BFParams(shape, 1, 1, c))


def test_kadell_rhs_cases():
    assert kadell_rhs((1, 1), 2, (2, 2)) == QFrac(0)
    # n = 1 collapse: complete symmetric value on a geometric alphabet
    assert kadell_rhs((2,), 2, (2,)) == kadell_ct((2,), 2, (2,))
    # n = 2 oracle check
    assert kadell_rhs((1, 0), 1, (1, 1)) == kadell_ct((1, 0), 1, (1, 1))
    assert kadell_rhs((0, 2), 2, (2, 1)) == kadell_ct((0, 2), 2, (2, 1))
    with pytest.raises(ValueError):
        kadell_rhs((1, 0), 2, (1, 1))


@pytest.mark.parametrize("v, r, a", [((1, 0), 1, (-1, 1)), ((0, 1), 1, (-2, 0)), ((1, 0), 1, (1, -1))])
def test_kadell_rejects_a_negative_a_entry(v, r, a):
    # (x)_k has no meaning at k < 0, even where the value would be an early
    # zero (sum(a) = 0, or a = 0 in the slot that holds r)
    with pytest.raises(ValueError, match="nonnegative"):
        kadell_rhs(v, r, a)
    with pytest.raises(ValueError, match="nonnegative"):
        kadell_ct(v, r, a)


def test_closed_forms_reject_a_negative_cyclotomic_exponent(monkeypatch):
    # the check behind every closed form, kadell_rhs included, is the
    # expansion of its Cyclo value
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        (Cyclo.poch(1, 1) ** -1).expand()  # (1 - q)^-1
    assert Cyclo.poch_product(Cyclo.qbinom(4, 2)).expand() == qbinom(4, 2)
    # with every Pochhammer symbol inverted, both values below become
    # (q)_1^2 / (q)_2 = (1 - q)/(1 + q) and (1 - q)/(1 - q^2), and raise
    product = Cyclo.poch_product
    monkeypatch.setattr(Cyclo, "poch_product",
                        staticmethod(lambda pochs: product((m, z, -p) for m, z, p in pochs)))
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        qdyson_rhs((1, 1))
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        kadell_rhs((1, 0), 1, (2, 0))


# The closed forms as they were built before one poch_product accumulation:
# single-symbol Cyclo values chained through * and /, the builders' oracle.

def chained_qbinom(n, k):
    if n < 0 or k < 0:
        raise ValueError("qbinom arguments must be nonnegative")
    if k > n:
        return Cyclo(0)
    return Cyclo.poch(n - k + 1, k) / Cyclo.poch(1, k)


def chained_qmorris(n, a, b, c):
    if n < 1:
        raise ValueError("n must be positive")
    out = Cyclo()
    for i in range(n):
        out = out * Cyclo.poch(1, a + b + i * c) * Cyclo.poch(1, (i + 1) * c) / (
            Cyclo.poch(1, a + i * c) * Cyclo.poch(1, b + i * c) * Cyclo.poch(1, c))
    return out


def chained_recursion_factor(shape, a, b, c, k):
    n, nk = shape.n, shape.parts[k]
    num = (Cyclo.poch(nk * (c + 1), 1) * Cyclo.poch(a + (n - 1) * c + nk, b)
           * chained_qbinom(n * c + nk - 1, c))
    return num / (Cyclo.poch(c + 1, 1) * Cyclo.poch((n - 1) * c + nk, b))


def chained_dn0(shape, c):
    total = Cyclo()
    while shape.p >= 1:
        k = shape.max_block()
        n, nk = shape.n, shape.parts[k]
        total = total * Cyclo.poch(nk * (c + 1), 1) / Cyclo.poch(c + 1, 1) * chained_qbinom(n * c + nk - 1, c)
        shape = decremented(shape, k)
    return total * Cyclo.poch(1, shape.n * c) / Cyclo.poch(1, c) ** shape.n


def chained_bf_p1(n0, n1, a, b, c):
    if n0 < 1 or n1 < 1:
        raise ValueError("block sizes must be positive")
    n = n0 + n1
    out = Cyclo()
    for j in range(2, n - n0 + 1):
        out = out * Cyclo.poch(j * (c + 1), 1)
    for j in range(n):
        shift = (j - n0) if j > n0 else 0
        chi = 1 if j > n0 else 0
        out = out * Cyclo.poch(a + j * c + shift + 1, b) * Cyclo.poch(1, (j + 1) * c + shift) / (
            Cyclo.poch(1, b + j * c + shift) * Cyclo.poch(1, c + chi))
    return out


def chained_qdyson(a):
    out = Cyclo.poch(1, sum(a))
    for ai in a:
        out = out / Cyclo.poch(1, ai)
    return out


def qmorris_cyclo(n, a, b, c):
    """The one-block walk of the block recursion, before its expansion."""
    return bf_cyclo(BFParams(Shape((n,)), a, b, c))


def recursion_factor_cyclo(shape, a, b, c, k):
    """One step of the block recursion as one factored value: its a-free
    triples and the symbol (q^{a+s}; q)_b."""
    triples, s = closedform._recursion_step(shape.parts, b, c, k)
    return Cyclo.poch_product((*triples, (a + s, b, 1)))


def _agree(built, chained, args, expand):
    """Both routes raise, or both give the same value."""
    try:
        want = chained(*args)
    except (ValueError, ZeroDivisionError):
        with pytest.raises((ValueError, ZeroDivisionError)):
            built(*args)
        return
    assert built(*args) == (want.expand() if expand else want), args


@pytest.mark.parametrize("values", [range(4), range(-2, 4)], ids=["grid", "negative"])
def test_closed_forms_match_the_chained_products(values):
    # one poch_product per builder against the chained single-symbol product,
    # on every n <= 5 and a, b, c <= 3; with negative entries, both raise
    # or both agree
    for a, b, c in itertools.product(values, repeat=3):
        for n in range(1, 6):
            _agree(qmorris_cyclo, chained_qmorris, (n, a, b, c), False)
        for n0 in range(1, 5):
            for n1 in range(1, 6 - n0):
                _agree(bf_p1_rhs, chained_bf_p1, (n0, n1, a, b, c), True)
        for shape in all_shapes(5, min_p=1):
            for k in range(1, shape.p + 1):
                if shape.parts[k] == max(shape.parts[1:]):
                    _agree(recursion_factor_cyclo, chained_recursion_factor, (shape, a, b, c, k), False)
    for c in values:
        for shape in all_shapes(5):
            _agree(dn0_rhs, chained_dn0, (shape, c), True)
    for n in range(1, 6):
        for a in itertools.product(values, repeat=n):
            _agree(qdyson_rhs, chained_qdyson, (a,), True)


def recursion_factor(shape: Shape, a: int, b: int, c: int, k: int) -> QFrac:
    """One step of the block recursion as a QFrac: the factored value's
    inverse divides 1."""
    return (recursion_factor_cyclo(shape, a, b, c, k) ** -1).divide(ONE)


def shape_walk(shape: Shape, k=None):
    """The block recursion walked one Shape per step: its steps as
    (shape, lowered part), and n_0 at the one-block end.  The first step
    lowers part k when given."""
    steps = []
    while shape.p >= 1:
        kk = shape.max_block() if k is None else k
        steps.append((shape, kk))
        shape, k = decremented(shape, kk), None
    return steps, shape.n


def test_part_walk_matches_the_shape_walk():
    # bf_factored lowers a list of parts; its shifts must be the Shape walk's
    # and its scale the chained single-symbol products' at a = 0, on every
    # shape with n <= 6 and every tie-break
    shapes = all_shapes(6)
    assert len(shapes) == 63
    for shape in shapes:
        top = max(shape.parts[1:], default=None)
        ties = [None] + [k for k in range(1, shape.p + 1) if shape.parts[k] == top]
        for b, c, k in itertools.product(range(3), range(3), ties):
            steps, n0 = shape_walk(shape, k)
            scale, shifts = bf_factored(shape, b, c, k)
            assert shifts == [(s.n - 1) * c + s.parts[kk] for s, kk in steps] + [i * c + 1 for i in range(n0)]
            value = chained_qmorris(n0, 0, b, c)
            for s, kk in steps:
                value = value * chained_recursion_factor(s, 0, b, c, kk)
            assert scale * Cyclo.poch_product((t, b, 1) for t in shifts) == value, (shape, b, c, k)


def test_part_walk_rejects_a_tie_break_off_the_maximal_decorated_parts():
    # k = 0 names the undecorated part and a negative k no part at all, even
    # where that part's size equals the largest decorated one
    for shape in all_shapes(5, min_p=1):
        top = max(shape.parts[1:])
        for k in range(-shape.p - 1, shape.p + 2):
            if 1 <= k <= shape.p and shape.parts[k] == top:
                continue
            with pytest.raises(ValueError):
                bf_factored(shape, 1, 1, k)


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


def test_identity_suite_checks_the_recursion_factor(monkeypatch):
    # the scalar recursion identity's right side is the recursion step's
    # factor, so a wrong Gaussian binomial in that step fails it
    step = closedform._recursion_step

    def wrong(parts, b, c, k):
        n, nk = sum(parts), parts[k]
        triples, s = step(parts, b, c, k)
        swap = (*Cyclo.qbinom(n * c + nk, c), *((m, z, -e) for m, z, e in Cyclo.qbinom(n * c + nk - 1, c)))
        return (*triples, *swap), s

    monkeypatch.setattr(closedform, "_recursion_step", wrong)
    rep = identity_suite(nmax=6, shapes_nmax=4, cmax=2)
    assert rep["qsum"] == rep["qbinom_theorem"] == "pass"
    assert rep["rec_scalar"] == "fail" and rep["witness"] == ("rec_scalar", (1, 1), 1)
