import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import cli, qring, splitting
from qct.closedform import dn0_rhs
from qct.laurent import FoldFactor, MLaurent, ct_fold
from qct.products import Shape, pair_linear
from qct.qring import Cyclo, QFrac, QLaurent, cyclo_sum
from qct.splitting import (
    Factored,
    SplitDecomposition,
    admissible_j,
    build_S,
    denominator_factors,
    pair_product,
    poch_identities,
    residue_identity_holds,
    split_k,
    vanishing_check,
    verify_split,
)
from test_laurent import fold_sum_packed

GRID = [(s, c) for s in ((1, 1), (1, 2), (2, 2), (1, 1, 1)) for c in (0, 1, 2)]


# the route the exact case took before it compared factors: the identities
# cleared of denominators by a common multiple L and expanded in full


def _linear(arity, triples) -> list[FoldFactor]:
    return [FoldFactor.linear(arity, a, b, m) for a, b, m in triples]


def _common_multiple(c: int) -> Cyclo:
    """A fixed multiple of every scalar denominator at this c."""
    return Cyclo.poch(1, c) ** 2


def _cleared_piece(shape, c, i, j, k, arity, multiple) -> list[FoldFactor]:
    """Fold factors of multiple * A_{ij} in ``arity`` slots, for a multiple
    of A's denominator: A's own factors behind one monomial factor that
    carries its sign, its power of q and the polynomial multiple / den."""
    sign, qexp, den, mono, triples = splitting._acoeff_parts(shape, c, i, j, k)
    scalar = (multiple / den).times(QLaurent.q_power(qexp, sign))
    mono = tuple(mono) + (0,) * (arity - len(mono))
    return [FoldFactor.monomial(arity, mono, 0, scalar)] + _linear(arity, triples)


def _pair_piece(shape, c, arity, multiple) -> list[FoldFactor]:
    """Fold factors of -multiple times the pair product."""
    return [FoldFactor(arity, [(None, 0, -multiple.expand())])] + _linear(arity, pair_linear(shape, c))


class ACoeff:
    """One splitting coefficient in cleared form: sign * q^qexp * P / den,
    with P an integer-coefficient Laurent polynomial in the x's and den a
    product of q-Pochhammer symbols, kept factored."""

    def __init__(self, shape: Shape, c: int, i: int, j: int, k: int):
        self.shape, self.c, self.i, self.j, self.k = shape, c, i, j, k
        self.t = shape.block_of(i)
        self.sign, self.qexp, self.den, mono, triples = splitting._acoeff_parts(shape, c, i, j, k)
        factors = [FoldFactor.monomial(shape.n, mono)] + _linear(shape.n, triples)
        self.P = ct_fold(shape.n, factors, None, None)

    def scale(self) -> Cyclo:
        """The scalar prefactor sign * q^qexp / den, factored."""
        return Cyclo(self.sign, self.qexp) / self.den

    def to_mlaurent(self) -> MLaurent:
        inv = self.scale() ** -1
        return MLaurent(self.shape.n, {e: inv.divide(p) for e, p in self.P.items()}, _trusted=True)

    def ct(self) -> QFrac:
        p = self.P.get((0,) * self.shape.n)
        return QFrac(0) if p is None else (self.scale() ** -1).divide(p)

    def x_degree(self) -> int:
        """Largest exponent of x_i across the terms."""
        return max(e[self.i - 1] for e in self.P)


def a_coeff(shape: Shape, c: int, i: int, j: int, k: int | None = None) -> MLaurent:
    """The closed-form splitting coefficient, fully expanded over QFrac."""
    return ACoeff(shape, c, i, j, split_k(shape) if k is None else k).to_mlaurent()


def reference_split(shape, c):
    """The split identity as one packed sum of D + 1 pieces, each coefficient
    piece carrying all its D - 1 y-factors."""
    k = split_k(shape)
    dens = denominator_factors(shape, c, k)
    n = shape.n
    L = _common_multiple(c)
    pieces = []
    for i in range(1, n + 1):
        for j in admissible_j(shape, c, i, k):
            piece = _cleared_piece(shape, c, i, j, k, n + 1, L)
            piece += [FoldFactor.linear(n + 1, n + 1, l, z) for z, l in dens if (z, l) != (j, i)]
            pieces.append(piece)
    pieces.append(_pair_piece(shape, c, n + 1, L))
    diff, _ = fold_sum_packed(n + 1, pieces)
    return {"shape": shape.parts, "c": c, "k": k, "terms": len(dens), "mode": "exact",
            "ok": not diff, "witness": {"monomial": min(diff)} if diff else None}


def reference_residue(shape, c, i, j):
    """One residue identity refolded from scratch: coefficient and pair product."""
    k = split_k(shape)
    n = shape.n
    L = _common_multiple(c)
    dens = denominator_factors(shape, c, k)
    scalar = splitting._same_variable_scalar(dens, i, j)
    lhs = _cleared_piece(shape, c, i, j, k, n, L * scalar)
    lhs += [FoldFactor.linear(n, i, l, z - j) for z, l in dens if l != i]
    diff, _ = fold_sum_packed(n, [lhs, _pair_piece(shape, c, n, L)])
    return not diff


def reference_decomposition(shape, c):
    """(degree bounds hold, off-class constant terms vanish, class-k
    constant-term sum) from the coefficients expanded one by one."""
    k = split_k(shape)
    coeffs = [ACoeff(shape, c, i, j, k) for i in range(1, shape.n + 1) for j in admissible_j(shape, c, i)]
    nk = shape.parts[k]
    degree_ok = True
    for a in coeffs:
        bound = -nk if a.t == 0 else 0 if a.t == k else -(nk - shape.parts[a.t] + 1)
        degree_ok = degree_ok and not (a.P and a.x_degree() > bound)
    offclass = all(a.ct().is_zero() for a in coeffs if a.t != k)
    zero = (0,) * shape.n
    total = cyclo_sum((a.scale(), a.P[zero]) for a in coeffs if a.t == k and zero in a.P)
    return degree_ok, offclass, total


def decomposition(shape, c):
    sd = SplitDecomposition(shape, c)
    return sd.degree_bounds_ok(), sd.offclass_cts_vanish(), sd.class_k_ct_sum()


def reference_case(shape, c):
    """(ok, detail) of the exact splitting case by the old route."""
    rep = reference_split(shape, c)
    if not rep["ok"]:
        return False, rep
    for i in range(1, shape.n + 1):
        for j in admissible_j(shape, c, i):
            if not reference_residue(shape, c, i, j):
                return False, {"residue_mismatch": [i, j]}
    degree_ok, offclass, total = reference_decomposition(shape, c)
    if not degree_ok:
        return False, {"degree_bounds": False}
    if not offclass:
        return False, {"offclass_ct": "nonzero"}
    if total != dn0_rhs(shape, c):
        return False, {"class_k_sum": "mismatch"}
    return True, None


def _case(shape, c):
    return cli._run_splitting({"shape": list(shape.parts), "c": c})


@pytest.mark.parametrize("parts, c", GRID)
def test_case_matches_old_route_on_default_grid(parts, c):
    shape = Shape(parts)
    assert _case(shape, c) == reference_case(shape, c) == (True, None)


def _perturb(monkeypatch, name, change):
    """Replace splitting.<name> by a version whose result passes through
    change(result, args)."""
    original = getattr(splitting, name)
    monkeypatch.setattr(splitting, name, lambda *args: change(original(*args), args))


def _flip_sign(parts, args):
    sign, qexp, den, mono, factors = parts
    return (-sign if args[2:4] == (1, 0) else sign), qexp, den, mono, factors


def _flip_class_k_sign(parts, args):
    sign, qexp, den, mono, factors = parts
    return (-sign if args[2:4] == (3, -1) else sign), qexp, den, mono, factors


def _move_monomial(parts, args):
    # x^(2,-3,-2,3) keeps the total degree and gives A_{1,0} a constant term
    sign, qexp, den, mono, factors = parts
    if args[2:4] == (1, 0):
        mono = tuple(m + d for m, d in zip(mono, (2, -3, -2, 3)))
    return sign, qexp, den, mono, factors


def _drop_factor(parts, args):
    sign, qexp, den, mono, factors = parts
    return sign, qexp, den, mono, (factors[1:] if args[2:4] == (3, -1) else factors)


def _shift_scalar(scalar, args):
    # (dens, i, j): the residue at (3, 0) only; the split identity does not use it
    return scalar * Cyclo(1, 1) if args[1:] == (3, 0) else scalar


@pytest.mark.parametrize("name, change, fails_at", [
    ("_acoeff_parts", _flip_sign, "split"),
    ("_acoeff_parts", _drop_factor, "split"),
    ("_same_variable_scalar", _shift_scalar, [3, 0]),
])
def test_case_matches_old_route_on_perturbed_coefficients(monkeypatch, name, change, fails_at):
    # fails_at is where the old route fails first: the expanded split
    # identity, or a residue; the factor route names a residue that the old
    # route's residue check also rejects
    _perturb(monkeypatch, name, change)
    shape, c = Shape((2, 2)), 2
    ok, detail = _case(shape, c)
    old_ok, old_detail = reference_case(shape, c)
    assert ok is old_ok is False
    assert not reference_residue(shape, c, *detail["residue_mismatch"])
    if fails_at == "split":
        assert old_detail["ok"] is False and old_detail["witness"]["monomial"]
    else:
        assert detail == old_detail == {"residue_mismatch": fails_at}


@pytest.mark.parametrize("change, facts", [
    (None, (True, True, "rhs")),
    (_flip_class_k_sign, (True, True, "other")),
    (_move_monomial, (False, False, "rhs")),
])
def test_decomposition_matches_old_route(monkeypatch, change, facts):
    # degree bounds, off-class constant terms and the class-k sum from the
    # factored coefficients, against the coefficients expanded one by one
    if change is not None:
        _perturb(monkeypatch, "_acoeff_parts", change)
    shape, c = Shape((2, 2)), 2
    got = decomposition(shape, c)
    assert got == reference_decomposition(shape, c)
    assert got[:2] == facts[:2]
    assert (got[2] == dn0_rhs(shape, c)) == (facts[2] == "rhs")


def test_first_table_row_shift_fails_the_same_residues_in_both_routes(monkeypatch):
    # +1 on the first row's q-exponent changes every coefficient whose first
    # row is not empty
    rows = splitting._acoeff_rows

    def shifted(*args):
        out = rows(*args)
        lo, hi, e, bold, pochs = out[0]
        return [(lo, hi, e + 1, bold, pochs)] + out[1:]

    monkeypatch.setattr(splitting, "_acoeff_rows", shifted)
    shape, c = Shape((2, 2)), 2
    sd = SplitDecomposition(shape, c)
    failed = [(i, j) for j, i in sd.denominator if not sd.residue_holds(i, j)]
    assert failed == [(i, j) for j, i in sd.denominator if not reference_residue(shape, c, i, j)]
    assert len(failed) == 8 and len(sd.denominator) == 10


# -- the factor algebra -----------------------------------------------------------------


@st.composite
def factored_parts(draw, n):
    """(scalar, monomial, triples): a Cyclo scalar (zero now and then), a
    monomial on n slots and linear factors in either orientation."""
    sign = draw(st.sampled_from((1, -1, 1, -1, 0)))
    exps = draw(st.dictionaries(st.integers(1, 4), st.integers(-1, 2), max_size=2))
    scalar = Cyclo(sign, draw(st.integers(-3, 3)), exps)
    mono = draw(st.tuples(*[st.integers(-2, 2)] * n))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda ab: ab[0] != ab[1])
    triples = [(a, b, draw(st.integers(-2, 2))) for a, b in draw(st.lists(pairs, max_size=4))]
    return scalar, mono, triples


def _turned(draw, parts):
    """The same value written with some factors turned round, the scalar and
    the monomial paying for each turn, in shuffled order."""
    scalar, mono, triples = parts
    mono = list(mono)
    out = []
    for a, b, m in triples:
        if draw(st.booleans()):
            scalar = scalar * Cyclo(-1, m)
            mono[a - 1] += 1
            mono[b - 1] -= 1
            a, b, m = b, a, -m
        out.append((a, b, m))
    return scalar, tuple(mono), draw(st.permutations(out))


def _expanded(n, parts) -> dict:
    """The value scalar * x^mono * prod (1 - q^m x_a/x_b) expanded in full."""
    scalar, mono, triples = parts
    if not scalar.sign:
        return {}
    inv = scalar ** -1
    poly = ct_fold(n, [FoldFactor.monomial(n, mono)] + _linear(n, triples), None, None)
    return {e: inv.divide(p) for e, p in poly.items()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_factored_equality_is_equality_of_expansions(data):
    n = data.draw(st.integers(2, 3))
    left = data.draw(factored_parts(n))
    how = data.draw(st.sampled_from(("turned", "turned", "other", "zero")))
    if how == "turned":
        right = _turned(data.draw, left)
    elif how == "zero":
        left = (Cyclo(0),) + left[1:]
        right = (Cyclo(0),) + data.draw(factored_parts(n))[1:]
    else:
        right = data.draw(factored_parts(n))
    want = _expanded(n, left)
    assert (Factored(*left) == Factored(*right)) == (want == _expanded(n, right))
    if how != "other":
        assert Factored(*left) == Factored(*right)
    # the x_i-degree read off the factors is the expansion's
    for i in range(1, n + 1):
        top = max((e[i - 1] for e in want), default=None)
        assert Factored(*left).top_degree(i) == top


def test_factored_zero_ignores_the_rest():
    zero = Factored(Cyclo(0), (1, -1), [(2, 1, 3)])
    assert zero == Factored(Cyclo(0), (0, 0), [])
    assert zero != Factored(Cyclo(), (0, 0), [])
    assert zero.top_degree(1) is None and zero.constant_term().is_zero()


def test_residues_expand_nothing(monkeypatch):
    # residues and degree bounds compare factors; only constant terms fold
    def refuse(*args):
        raise AssertionError("a residue check expanded a product")

    monkeypatch.setattr(splitting, "ct_fold", refuse)
    sd = SplitDecomposition(Shape((2, 2, 2)), 3)
    assert all(sd.residue_holds(i, j) for j, i in sd.denominator)
    assert sd.degree_bounds_ok()


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
    # one coefficient off by a factor q: the old route's split sum no longer
    # vanishes, and the factor route names that coefficient's residue
    parts = splitting._acoeff_parts

    def perturbed(shape, c, i, j, k, *rest):
        sign, qexp, den, mono, factors = parts(shape, c, i, j, k, *rest)
        return sign, qexp + ((i, j) == (1, 0)), den, mono, factors

    monkeypatch.setattr(splitting, "_acoeff_parts", perturbed)
    shape, c = Shape((1, 2)), 1
    rep = reference_split(shape, c)
    # the first differing monomial in sorted order, as the decoded comparison found it
    assert rep["ok"] is False and rep["witness"] == {"monomial": (-2, -3, 1, 4)}
    rep = verify_split(shape, c)
    assert rep["ok"] is False and rep["witness"] == {"residue_mismatch": [1, 0]}
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
    assert max(e[0] for e in A.terms) <= -2


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
