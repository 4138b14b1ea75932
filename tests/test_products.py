import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import cli, laurent, products
from qct.cli import BF_SHAPES
from qct.closedform import all_shapes
from qct.laurent import MLaurent, _packed_add, ct_fold
from qct.products import (
    Shape,
    bf_ct,
    bf_ct_grid,
    bf_factors,
    ct_qdyson,
    epsilon,
    kadell_ct,
    pair_linear,
    qdyson_factors,
    qmorris_ct,
)
from qct.qring import ONE, QFrac, QLaurent
from test_laurent import constant_coefficient, ct, monomial, packed_fold, packed_mul
from test_qring import frac_q_power, parse_q, qbinom


# -- expanded products, the oracles of the constant-term routes ---------------------


def _expand(arity: int, factors) -> MLaurent:
    res = ct_fold(arity, factors, None, None)
    return MLaurent(arity, {e: QFrac.from_qlaurent(v) for e, v in res.items()}, _trusted=True)


def build_qdyson(a) -> MLaurent:
    a = list(a)
    return _expand(len(a), qdyson_factors(a))


def build_qmorris(n: int, a: int, b: int, c: int) -> MLaurent:
    if n < 1:
        raise ValueError("n must be positive")
    return build_bf(Shape((n,)), a, b, c)


def build_bf(shape: Shape, a: int, b: int, c: int) -> MLaurent:
    return _expand(shape.n, bf_factors(shape, a, b, c))


def kadell_h(r: int, a) -> list:
    """Complete symmetric polynomial h_r on the alphabet (x_i q^t, t < a_i),
    as (exponent tuple, coefficient) pairs:
        h_r = sum_{j_1 + ... + j_n = r} prod_i x_i^{j_i} [a_i + j_i - 1, j_i]_q.
    A variable with a_i = 0 has no letter, so it takes only j_i = 0."""
    if r < 1:
        raise ValueError("r must be positive")
    rows = [((), ONE)]
    for x in a:
        rows = [(js + (j,), coeff * qbinom(x + j - 1, j) if j else coeff)
                for js, coeff in rows for j in range(r - sum(js) + 1 if x else 1)]
    return [(js, coeff) for js, coeff in rows if sum(js) == r]


def reference_kadell_h(r: int, a) -> MLaurent:
    """h_r on the alphabet (x_i q^t, t < a_i), one letter at a time:
    h_s <- h_s + letter * h_{s-1}, over QFrac."""
    a = list(a)
    n = len(a)
    h = [MLaurent.constant(n, 1)] + [MLaurent(n) for _ in range(r)]
    for i in range(1, n + 1):
        exps = tuple(1 if t == i - 1 else 0 for t in range(n))
        for t in range(a[i - 1]):
            letter = monomial(n, exps, frac_q_power(t))
            for s in range(1, r + 1):
                h[s] = h[s] + letter * h[s - 1]
    return h[r]


def _terms(n: int, terms) -> MLaurent:
    """An (exponent tuple, coefficient) list as an MLaurent."""
    return MLaurent(n, dict(terms))


def parse_shape(text: str) -> Shape:
    return Shape(int(t) for t in text.split(","))


def decremented(shape: Shape, k: int) -> Shape:
    """The shape with part k lowered by one, a zero part dropped: one step of
    the block recursion walked one Shape per step."""
    parts = list(shape.parts)
    parts[k] -= 1
    if parts[k] == 0:
        del parts[k]
    return Shape(parts)


def test_shape_basics():
    s = Shape((1, 2, 2))
    assert s.n == 5 and s.p == 2
    assert list(s.block(0)) == [1]
    assert list(s.block(2)) == [4, 5]
    assert s.sigma(1) == 3
    assert decremented(s, 1).parts == (1, 1, 2)
    assert decremented(decremented(s, 2), 2).parts == (1, 2)
    with pytest.raises(ValueError):
        Shape((1, 0, 2))
    assert parse_shape("1,2,2") == s


def test_epsilon_table():
    s = Shape((1, 2))
    assert epsilon(s, 2, 3) == 1
    assert epsilon(s, 1, 2) == 0
    p0 = Shape((4,))
    assert all(epsilon(p0, i, j) == 0 for i in range(1, 5) for j in range(1, 5) if i != j)
    with pytest.raises(ValueError):
        epsilon(s, 0, 1)
    with pytest.raises(ValueError):
        epsilon(s, 1, 1)


def block_by_scan(shape: Shape, i: int) -> int:
    """The block holding variable i, by a scan of the partial sums."""
    return next(l for l in range(shape.p + 1) if i <= shape.sigma(l))


def test_block_lookup_matches_the_partial_sum_scan():
    # Shape stores each variable's block once; block_of, epsilon and the pair
    # product read that table instead of scanning the partial sums per pair
    shapes = all_shapes(6)
    assert len(shapes) == 63
    for shape in shapes:
        n = shape.n
        blocks = [block_by_scan(shape, i) for i in range(1, n + 1)]
        assert [shape.block_of(i) for i in range(1, n + 1)] == blocks
        for i, j in itertools.permutations(range(1, n + 1), 2):
            li, lj = blocks[i - 1], blocks[j - 1]
            assert epsilon(shape, i, j) == (1 if li >= 1 and li == lj else 0), (shape, i, j)
        for i in (0, n + 1):
            with pytest.raises(ValueError):
                shape.block_of(i)


def test_build_qdyson_small():
    assert build_qdyson((0, 0, 0)) == MLaurent.constant(3, 1)
    got = build_qdyson((1, 1))
    want = MLaurent(2, {
        (0, 0): QFrac.from_qlaurent(parse_q("1 + q")),
        (1, -1): QFrac(-1),
        (-1, 1): frac_q_power(1, -1),
    })
    assert got == want


def test_qdyson_ct_small():
    assert ct_qdyson((1, 1, 1)) == QFrac.from_qlaurent(parse_q("1 + 2*q + 2*q^2 + q^3"))
    # expanded product's full-variable ct agrees with the pruned fold
    f = build_qdyson((1, 1, 1))
    assert constant_coefficient(ct(f, {1, 2, 3})) == ct_qdyson((1, 1, 1))


def test_build_qmorris_cases():
    assert build_qmorris(2, 0, 0, 0) == MLaurent.constant(2, 1)
    assert qmorris_ct(1, 1, 1, 0) == QFrac.from_qlaurent(parse_q("1 + q"))


def test_build_bf_cases():
    # a=b=c=0 with shape (1,1): the only pair carries exponent eps = 0
    assert build_bf(Shape((1, 1)), 0, 0, 0) == MLaurent.constant(2, 1)
    # shape (1,2), a=b=0, c=0: only the decorated pair (2,3) survives
    got = build_bf(Shape((1, 2)), 0, 0, 0)
    want = MLaurent(3, {
        (0, 0, 0): QFrac.from_qlaurent(parse_q("1 + q")),
        (0, 1, -1): QFrac(-1),
        (0, -1, 1): frac_q_power(1, -1),
    })
    assert got == want
    # p=0 equals the plain product builder
    assert build_bf(Shape((3,)), 1, 1, 1) == build_qmorris(3, 1, 1, 1)


def test_kadell_h_cases():
    assert _terms(1, kadell_h(1, (1,))) == monomial(1, (1,))
    assert _terms(1, kadell_h(1, (2,))) == monomial(1, (1,), parse_q("1 + q"))
    got = _terms(2, kadell_h(2, (1, 1)))
    want = MLaurent(2, {(2, 0): QFrac(1), (1, 1): QFrac(1), (0, 2): QFrac(1)})
    assert got == want
    assert kadell_h(2, (0, 0)) == []
    with pytest.raises(ValueError):
        kadell_h(0, (1,))


def test_kadell_h_matches_letter_by_letter_expansion():
    # every (r, a) of the kadell suite's default grid, a_i = 0 letters included
    grid = {(case["r"], tuple(case["a"])) for case in cli._cases_kadell(None)}
    assert len(grid) == 72
    for r, a in sorted(grid):
        assert _terms(len(a), kadell_h(r, a)) == reference_kadell_h(r, a), (r, a)


def test_kadell_ct_simple():
    # n=1: CT x^{-r} h_r(alphabet) = h_r(1, q, ..., q^{a-1})
    got = kadell_ct((2,), 2, (2,))
    # h_2 on letters (1, q): 1 + q + q^2
    assert got == QFrac.from_qlaurent(parse_q("1 + q + q^2"))
    # no letter at all: h_r is zero, and so is the constant term
    assert kadell_ct((1, 0), 1, (0, 0)) == QFrac(0)


@pytest.mark.parametrize("build", [
    lambda: ct_qdyson((-1, 2)),
    lambda: pair_linear(Shape((1, 1)), -1),
    lambda: bf_ct(Shape((1, 1)), -1, 1, 1),
    lambda: bf_factors(Shape((1, 1)), 1, -1, 1),
    lambda: bf_factors(Shape((1, 1)), 1, 1, -1),
    lambda: bf_ct_grid(Shape((1, 1)), 1, [(1, -1)]),
    lambda: bf_ct_grid(Shape((1, 1)), 1, [(-1, 1)]),
], ids=["qdyson_factors", "pair_linear", "bf_factors-a", "bf_factors-b", "bf_factors-c", "bf_ct_grid-b",
        "bf_ct_grid"])
def test_builders_reject_negative_pochhammer_lengths(build):
    # (x)_k has no meaning at k < 0; a builder that read range(k) as empty
    # would return a value (1, 1 + q and 0 for the first, third and last)
    with pytest.raises(ValueError, match="nonnegative"):
        build()


def test_pair_product_is_degree_zero_homogeneous():
    for shape, c in [((1, 1), 1), ((1, 2), 1), ((2, 2), 2)]:
        s = Shape(shape)
        f = build_bf(s, 0, 0, c)
        assert {sum(e) for e in f.terms} == {0}


@st.composite
def skipped_pairs(draw):
    """(shape, c, skip): a shape with n <= 5, c <= 3 and a set of variables."""
    shape = draw(st.sampled_from(all_shapes(5)))
    return shape, draw(st.integers(0, 3)), draw(st.sets(st.integers(1, shape.n)))


@settings(max_examples=200, deadline=None)
@given(skipped_pairs())
def test_pair_linear_skip_filters_the_full_list(case):
    # skipping a set of variables is the full pair list with every factor
    # that touches the set filtered out, in the same order
    shape, c, skip = case
    full = list(pair_linear(shape, c))
    assert len(full) == sum(2 * (c + epsilon(shape, i, j))
                            for i, j in itertools.combinations(range(1, shape.n + 1), 2))
    want = [(a, b, m) for a, b, m in full if a not in skip and b not in skip]
    assert list(pair_linear(shape, c, skip=skip)) == want
    assert list(pair_linear(shape, c, skip=tuple(sorted(skip)))) == want


def bf_factors_by_pairs(shape: Shape, a: int, b: int, c: int) -> list[tuple]:
    """The full factor list as first built, the oracle of ``bf_factors``:
    the pair list of ``pair_linear``, each factor grouped under its lower
    variable, then each variable's x_0 factors after its pairs."""
    n = shape.n
    groups: list[list[tuple]] = [[] for _ in range(n + 1)]
    for f in pair_linear(shape, c):
        i, j, _ = f
        groups[min(i, j)].append(f)
    for i in range(1, n + 1):
        groups[i] += [(None, i, t) for t in range(a)]
        groups[i] += [(i, None, 1 + t) for t in range(b)]
    return [f for g in groups for f in g]


def test_bf_factors_is_the_grouped_pair_list():
    # the one-pass builder gives the same list in the same order, so every
    # fold over it visits the same states: every shape with n <= 6
    shapes = all_shapes(6)
    assert len(shapes) == 63
    for shape in shapes:
        for a, b, c in itertools.product(range(3), repeat=3):
            assert bf_factors(shape, a, b, c) == bf_factors_by_pairs(shape, a, b, c), (shape, a, b, c)


def test_full_product_degree_zero_with_x0_restored():
    # restoring x_0 as an extra variable makes the whole product homogeneous
    from qct.gxseries import QukFactors
    q = QukFactors(Shape((1, 2)), 2, 1, 1)  # the numerator carries (q x_j/x_0)_b
    n = 3
    factors = [(a + 1, b + 1, m) for a, b, m in q.numerator_triples()]
    full = ct_fold(n + 1, factors, None, None)
    assert {sum(e) for e in full} == {0}


def test_rescaling_leaves_ct_unchanged():
    # multiply every variable by a fresh symbol (extra slot): the all-zero
    # coefficient of the original equals the lambda-free part of the rescan
    s = Shape((1, 2))
    f = build_bf(s, 1, 1, 1)
    lifted = MLaurent(4, {e + (sum(e),): c for e, c in f.terms.items()})
    orig_ct = ct(f, {1, 2, 3})
    lifted_ct = ct(lifted, {1, 2, 3, 4})
    assert constant_coefficient(orig_ct) == constant_coefficient(lifted_ct)


def test_block_relabeling_symmetry():
    # permuting equal-sized decorated blocks cannot change the constant term
    a, b, c = 1, 1, 1
    v1 = bf_ct(Shape((1, 2, 2)), a, b, c)
    v2 = bf_ct(Shape((1, 2, 2)), a, b, c)
    assert v1 == v2
    # and unequal blocks in either order give the same value
    assert bf_ct(Shape((1, 1, 2)), a, b, c) == bf_ct(Shape((1, 2, 1)), a, b, c)


def test_grid_matches_point_evaluator():
    # unequal blocks and n = 5 included: the multiset grouping rests only on
    # the x_0 weight being the same in every slot
    for parts, bmax in (((1, 2), 1), ((1, 2, 2), 2), ((1, 1, 2), 2)):
        shape = Shape(parts)
        jobs = [(a, b) for a in range(3) for b in range(bmax + 1)]
        grid = bf_ct_grid(shape, 1, jobs)
        assert set(grid) == set(jobs)
        for (a, b), val in grid.items():
            assert val == bf_ct(shape, a, b, 1), (parts, a, b)


def test_grid_of_no_jobs_is_empty(monkeypatch):
    # as ct_contract returns no values for no jobs
    monkeypatch.setattr(products, "ct_contract", lambda *args: pytest.fail("a fold ran for no jobs"))
    for shape in (Shape((1,)), Shape((1, 2)), Shape((2, 1, 1))):
        assert bf_ct_grid(shape, 1, []) == {}


def x0_map(a: int, b: int) -> dict:
    """The coefficients of (1/u)_a (q u)_b as a map exponent -> QLaurent."""
    factors = [(None, 1, t) for t in range(a)] + [(1, None, 1 + t) for t in range(b)]
    return {e: v for (e,), v in ct_fold(1, factors).items()}


def reference_grid_contraction(shape, c, jobs):
    """bf_ct_grid's values by the all-slot contraction: every exponent vector
    of the windowed pair product times the x_0 weight of each of its slots."""
    n = shape.n
    weights = {ab: x0_map(*ab) for ab in jobs}
    wl1 = max(sum(x.l1_norm() for x in w.values()) for w in weights.values())
    amax = max(a for a, _ in jobs)
    bmax = max(b for _, b in jobs)
    packed, B = packed_fold(n, list(pair_linear(shape, c)), (-bmax,) * n, (amax,) * n,
                            extra_l1=max(wl1, 1) ** n)
    out = {}
    for ab in jobs:
        wp = {e: p.kronecker(B) for e, p in weights[ab].items()}
        total = (0, 0)
        for v, coeff in packed.items():
            term = coeff
            for x in v:
                f = wp.get(-x)
                if f is None or f[1] == 0:
                    break
                term = packed_mul(term, f)
            else:
                total = _packed_add(total, term, B)
        out[ab] = QFrac.from_qlaurent(QLaurent.from_kronecker(total[0], total[1], B))
    return out


def test_grid_contraction_matches_all_slot_reference():
    # the roots suite's grid: every default shape, b <= c <= 2, a <= nb + 1
    for parts in BF_SHAPES:
        shape = Shape(parts)
        for c in range(3):
            for b in range(c + 1):
                jobs = [(a, b) for a in range(shape.n * b + 2)]
                assert bf_ct_grid(shape, c, jobs) == reference_grid_contraction(shape, c, jobs), (parts, b, c)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(all_shapes(4, canonical=True)), c=st.integers(0, 2),
       jobs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=6))
def test_grid_matches_all_slot_reference_on_random_jobs(shape, c, jobs):
    # mixed b values, repeated jobs and single jobs on every canonical shape
    # with n <= 4
    grid = bf_ct_grid(shape, c, jobs)
    assert grid == reference_grid_contraction(shape, c, jobs)
    assert set(grid) == set(jobs)


def test_homogeneity_cut_keeps_every_state_of_the_wide_box():
    # bf_ct_grid folds to the top min(max a, (n - 1) max b): the pair product
    # has degree 0, so no state in the wide box [-max b, max a]^n lies above
    # it, and the two folds keep the same states with the same values
    for shape in all_shapes(4, canonical=True):
        n = shape.n
        for c in range(4):
            factors = pair_linear(shape, c)
            for bmax in range(3):
                cut = (n - 1) * bmax
                for amax in (cut, cut + 2):
                    wide = ct_fold(n, factors, (-bmax,) * n, (amax,) * n)
                    narrow = ct_fold(n, factors, (-bmax,) * n, (min(amax, cut),) * n)
                    assert wide == narrow, (shape, c, bmax, amax)
                    assert all(max(v) <= cut for v in wide)


@pytest.mark.parametrize("run", [
    lambda: kadell_ct((1, 0, 1), 2, (1, 2, 1)),
    lambda: kadell_ct((0, 2), 2, (2, 1)),
    lambda: bf_ct_grid(Shape((1, 2)), 1, [(a, 1) for a in range(5)]),
    lambda: bf_ct_grid(Shape((2, 2)), 2, [(0, 2), (3, 0), (3, 2)]),
], ids=["kadell-3", "kadell-2", "grid-(1,2)", "grid-(2,2)"])
def test_slot_weights_are_packed_once_per_width(monkeypatch, run):
    # a slot's weight map is named by its input, so ct_contract packs it once
    # per key and width in a bounded cache: a second equal call packs nothing
    laurent._keyed_table.cache_clear()
    assert laurent._keyed_table.cache_info().maxsize is not None
    assert laurent._keyed_norm.cache_info().maxsize is not None
    packed = []
    kronecker = QLaurent.kronecker
    monkeypatch.setattr(QLaurent, "kronecker", lambda self, B: packed.append(B) or kronecker(self, B))
    first = run()
    assert packed
    packed.clear()
    assert run() == first
    assert packed == []


def test_qdyson_matches_rhs_grid():
    from qct.closedform import qdyson_rhs
    for a in itertools.product(range(3), repeat=3):
        assert ct_qdyson(a) == qdyson_rhs(a)
