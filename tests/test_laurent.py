import random
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import laurent
from qct.laurent import (
    MLaurent,
    ct_contract,
    ct_fold,
    ct_point,
    fold_packed_raw,
)
from qct.qring import ONE, ZERO, Cyclo, QFrac, QLaurent
from test_qring import frac_q_power, parse_frac, parse_q


def packed_mul(a, b):
    """The product of two packed (lo, mag) values at one digit width."""
    return (a[0] + b[0], a[1] * b[1])


def packed_fold(arity, factors, tlo=None, thi=None, extra_l1=1):
    """``fold_packed_raw`` on the plan of the factors into [tlo, thi] (None
    for both sides of the full expansion), its int keys decoded to exponent
    tuples: ({exponent tuple: (lo, mag)}, B)."""
    factors = list(factors)
    if tlo is None:
        tlo, thi = laurent._full_window(arity, factors)
    plan = laurent._plan(factors, tlo, thi)
    state, B = fold_packed_raw(plan, extra_l1)
    return (laurent._decode_keys(state, plan[1], plan[3]) if plan else {}), B


def monomial(arity: int, exps, coeff=1) -> MLaurent:
    """coeff * x^exps; coeff an int, a QLaurent or a QFrac."""
    return MLaurent(arity, {tuple(exps): coeff})


def constant_coefficient(m: MLaurent) -> QFrac:
    return m.terms.get((0,) * m.arity, QFrac(0))


def M(text: str, arity: int) -> MLaurent:
    """Parse an MLaurent as ``str(MLaurent)`` prints it."""
    s = text.strip()
    if s == "0":
        return MLaurent(arity)
    out = MLaurent(arity)
    for chunk in _split_terms(s):
        coeff_part, monos = _split_monomial(chunk)
        coeff = parse_frac(coeff_part)
        exps = [0] * arity
        for name, ex in monos:
            pos = int(name[1:]) - 1
            if pos < 0 or pos >= arity:
                raise ValueError(f"variable {name} out of arity {arity}")
            exps[pos] += ex
        out = out + monomial(arity, exps, coeff)
    return out


def _split_terms(s: str):
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s[i:i + 3] == " + ":
            yield s[start:i]
            i += 3
            start = i
            continue
        i += 1
    yield s[start:]


def _split_monomial(chunk: str):
    """Split one printed term into (coefficient text, [(var name, exponent)])."""
    chunk = chunk.strip()
    depth = 0
    split_at = None
    for i in range(len(chunk) - 2):
        ch = chunk[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and chunk[i:i + 3] == " * ":
            split_at = i
            break
    if split_at is None:
        coeff_part, mono_part = chunk, ""
    else:
        coeff_part, mono_part = chunk[:split_at], chunk[split_at + 3:]
    coeff_part = coeff_part.strip()
    if coeff_part.startswith("(") and coeff_part.endswith(")") and ")/(" not in coeff_part:
        coeff_part = coeff_part[1:-1]
    monos = []
    if mono_part:
        for p in mono_part.split("*"):
            p = p.strip()
            if not (p.startswith("x") and p[1:2].isdigit()):
                raise ValueError(f"bad monomial piece {p!r}")
            if "^" in p:
                name, _, ex = p.partition("^")
                monos.append((name, int(ex)))
            else:
                monos.append((p, 1))
    return coeff_part, monos


# spec-level helpers (1-based variable indices), used by the tests only


def ct(f: MLaurent, variables) -> MLaurent:
    """Constant term over the 1-based variable index set."""
    slots = [v - 1 for v in variables]
    return MLaurent(f.arity, {e: c for e, c in f.terms.items() if not any(e[p] for p in slots)},
                    _trusted=True)


def poch_factor(arity: int, i, j, m: int, z: int) -> MLaurent:
    """Expanded prod_{t=0}^{z-1} (1 - q^{m+t} * ratio).

    The ratio is x_i/x_j for 1-based indices; either side may be the literal
    constant 1 (pass None), giving factors like (1/x_j)_z or (q x_i)_z.
    """
    if z < 0:
        raise ValueError("pochhammer length negative")
    if i is not None and j is not None and i == j:
        raise ValueError("poch_factor needs distinct variables")
    out = MLaurent.constant(arity, 1)
    if z == 0:
        return out
    res = ct_fold(arity, [(i, j, m + t) for t in range(z)], None, None)
    return MLaurent(arity, {e: QFrac.from_qlaurent(c) for e, c in res.items()}, _trusted=True)


def subst_shift(f: MLaurent, u, k, x0: bool = False) -> MLaurent:
    """Merge variables x_{u_1}..x_{u_s} into x_{u_s} with q-power shifts.

    Every occurrence of x_{u_i} (i < s) becomes x_{u_s} q^{k_s - k_i}.  With
    ``x0=True`` slot 0 of f is the projective variable x_0 (so x_j sits in
    slot j) and x_0 itself maps to x_{u_s} q^{k_s}; otherwise x_j sits in
    slot j-1 and no x_0 is present.
    """
    u = list(u)
    k = list(k)
    if len(u) != len(k) or not u:
        raise ValueError("u and k must be nonempty and of equal length")
    if any(u[t] >= u[t + 1] for t in range(len(u) - 1)):
        raise ValueError("u must be strictly ascending")
    s = len(u)
    off = 0 if x0 else 1
    tgt = u[-1] - off
    mapping = {}  # slot -> q-shift
    for i in range(s - 1):
        mapping[u[i] - off] = k[-1] - k[i]
    if x0:
        mapping[0] = k[-1]  # x_0 slot, with k_0 = 0
    out = MLaurent(f.arity)
    for e, c in f.terms.items():
        ne = list(e)
        shift = 0
        for slot, qs in mapping.items():
            ex = ne[slot]
            if ex:
                shift += qs * ex
                ne[tgt] += ex
                ne[slot] = 0
        out = out + monomial(f.arity, ne, c * frac_q_power(shift))
    return out


def poly_arith(a: MLaurent, b: MLaurent, op: str):
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "scale":
        if len(b.terms) != 1 or set(b.terms) != {(0,) * b.arity}:
            raise ValueError("scale expects a constant second operand")
        return a.scale(constant_coefficient(b))
    raise ValueError(f"unknown op {op!r}")


def coeff_at(f: MLaurent, exps) -> QFrac:
    return f.coefficient(exps)


def test_mul_by_one_and_inverse_monomials():
    a = M("(1 + q) * x1*x2^-1", 2)
    one = MLaurent.constant(2, 1)
    assert poly_arith(a, one, "mul") == a
    m1 = monomial(2, (1, -1))
    m2 = monomial(2, (-1, 1))
    assert m1 * m2 == one


def test_hand_expansion():
    # (1 - x1/x2)(1 - q x2/x1) = 1 + q - x1/x2 - q x2/x1
    f1 = poch_factor(2, 1, 2, 0, 1)
    f2 = poch_factor(2, 2, 1, 1, 1)
    prod = f1 * f2
    want = MLaurent(2, {
        (0, 0): QFrac.from_qlaurent(parse_q("1 + q")),
        (1, -1): QFrac(-1),
        (-1, 1): frac_q_power(1, -1),
    })
    assert prod == want


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        MLaurent.constant(2, 1) + MLaurent.constant(3, 1)


def test_poch_factor_cases():
    assert poch_factor(2, 1, 2, 5, 0) == MLaurent.constant(2, 1)
    assert poch_factor(2, 1, 2, 0, 1) == M("1 + (-1) * x1*x2^-1", 2)
    # (1 - q x1/x2)(1 - q^2 x1/x2) = 1 - (q + q^2) x1/x2 + q^3 (x1/x2)^2
    got = poch_factor(2, 1, 2, 1, 2)
    want = MLaurent(2, {
        (0, 0): QFrac(1),
        (1, -1): QFrac.from_qlaurent(parse_q("-q - q^2")),
        (2, -2): frac_q_power(3),
    })
    assert got == want
    # one-sided ratios: (q x1)_1 and (1/x1)_1
    assert poch_factor(1, 1, None, 1, 1) == M("1 + (-q) * x1", 1)
    assert poch_factor(1, None, 1, 0, 1) == M("1 + (-1) * x1^-1", 1)
    with pytest.raises(ValueError):
        poch_factor(2, 1, 1, 0, 1)


def test_ct_examples():
    f = poch_factor(2, 1, 2, 0, 1) * poch_factor(2, 2, 1, 1, 1)
    assert ct(f, {1, 2}) == MLaurent.constant(2, parse_q("1 + q"))
    c = MLaurent.constant(3, 7)
    assert ct(c, {1, 2, 3}) == c
    assert ct(monomial(2, (1, -1)), {1}).is_zero()


def test_coeff_at_examples():
    f = M("1 + q * x1", 1)
    assert coeff_at(f, (1,)) == frac_q_power(1)
    assert coeff_at(MLaurent(2), (0, 0)) == QFrac(0)
    g = poch_factor(2, 1, 2, 0, 1) * poch_factor(2, 2, 1, 1, 1)
    assert coeff_at(g, (-1, 1)) == frac_q_power(1, -1)


def test_subst_shift_examples():
    f = monomial(2, (1, -1))
    assert subst_shift(f, (1, 2), (1, 1)) == MLaurent.constant(2, 1)
    g = monomial(3, (1, 0, 0))
    assert subst_shift(g, (1, 3), (2, 5)) == monomial(3, (0, 0, 1), frac_q_power(3))
    # s = 1 with an x_0 slot: x_0 -> q^{k_1} x_{u_1}
    h = monomial(3, (1, 0, 0))  # x_0 when x0=True
    assert subst_shift(h, (2,), (4,), x0=True) == monomial(3, (0, 0, 1), frac_q_power(4))
    with pytest.raises(ValueError):
        subst_shift(f, (2, 1), (0, 0))


def _random_mlaurent(rng, arity, nterms, span=2):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(-span, span + 1) for _ in range(arity))
        terms[e] = QFrac.from_qlaurent(QLaurent({rng.randrange(-2, 3): rng.randrange(-3, 4)}))
    return MLaurent(arity, terms)


def test_ct_commutes_and_is_linear():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(2, 5)
        f = _random_mlaurent(rng, n, 6)
        g = _random_mlaurent(rng, n, 5)
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        assert ct(ct(f, {i}), {j}) == ct(ct(f, {j}), {i})
        V = {i, j}
        assert ct(f + g, V) == ct(f, V) + ct(g, V)


def test_subst_shift_multiplicative():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(2, 5)
        f = _random_mlaurent(rng, n, 4)
        g = _random_mlaurent(rng, n, 4)
        s = rng.randrange(1, n + 1)
        u = tuple(sorted(rng.sample(range(1, n + 1), s)))
        k = tuple(rng.randrange(0, 4) for _ in range(s))
        assert subst_shift(f * g, u, k) == subst_shift(f, u, k) * subst_shift(g, u, k)


def test_text_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 4)
        f = _random_mlaurent(rng, n, rng.randrange(0, 5))
        assert M(str(f), n) == f


# -- the reference fold ----------------------------------------------------------------
#
# The oracle for ct_fold: coefficients are plain {q-exponent: int} dicts and
# monomials are exponent tuples, so it shares neither the packed digits nor
# the Kronecker keys of the kernel.  It takes general factors, sums of
# monomials, where the kernel takes linear triples only.  It prunes with its
# own per-step windows over every slot: after step fi, slot v must stay
# inside the target window widened by what the remaining factors can still
# add or remove.


class Factor:
    """A general factor for the reference fold: ``terms`` lists (delta,
    qexp, coeff) for the monomial coeff * q^qexp * x^delta, and [lo, hi] is
    the smallest box holding every delta."""

    def __init__(self, arity, terms):
        self.terms = [(tuple(d), qexp, QLaurent.from_int(c) if isinstance(c, int) else c)
                      for d, qexp, c in terms]
        self.terms = [t for t in self.terms if not t[2].is_zero()]
        if not self.terms:
            raise ValueError("empty factor")
        self.lo = tuple(min(d[v] for d, _, _ in self.terms) for v in range(arity))
        self.hi = tuple(max(d[v] for d, _, _ in self.terms) for v in range(arity))

    @staticmethod
    def linear(arity, a, b, m):
        """(1 - q^m x_a/x_b), 1-based, None on a side meaning 1."""
        delta = [0] * arity
        if a is not None:
            delta[a - 1] += 1
        if b is not None:
            delta[b - 1] -= 1
        return Factor(arity, [((0,) * arity, 0, 1), (delta, m, -1)])

    @staticmethod
    def monomial(arity, exps, coeff=1):
        return Factor(arity, [(exps, 0, coeff)])


def _reference_windows(arity, factors, tlo, thi):
    """Per-step admissible exponent windows implied by suffix reachability."""
    nf = len(factors)
    keep_lo = [None] * nf
    keep_hi = [None] * nf
    rlo = [0] * arity
    rhi = [0] * arity
    for fi in range(nf - 1, -1, -1):
        keep_lo[fi] = tuple(tlo[v] - rhi[v] for v in range(arity))
        keep_hi[fi] = tuple(thi[v] - rlo[v] for v in range(arity))
        f = factors[fi]
        for v in range(arity):
            rlo[v] += f.lo[v]
            rhi[v] += f.hi[v]
    start_ok = all(tlo[v] - rhi[v] <= 0 <= thi[v] - rlo[v] for v in range(arity))
    return keep_lo, keep_hi, start_ok


def fold_dict(arity, factors, tlo=None, thi=None) -> dict:
    """Same contract as ct_fold: exponent tuple -> QLaurent, inside [tlo, thi].
    A factor is a ``Factor`` or a linear triple (a, b, m)."""
    factors = [f if isinstance(f, Factor) else Factor.linear(arity, *f) for f in factors]
    if tlo is None or thi is None:
        lo = [sum(f.lo[v] for f in factors) for v in range(arity)]
        hi = [sum(f.hi[v] for f in factors) for v in range(arity)]
        tlo = tuple(lo) if tlo is None else tuple(tlo)
        thi = tuple(hi) if thi is None else tuple(thi)
    if not factors:
        inside = all(tlo[v] <= 0 <= thi[v] for v in range(arity))
        return {(0,) * arity: ONE} if inside else {}
    keep_lo, keep_hi, start_ok = _reference_windows(arity, factors, tlo, thi)
    if not start_ok:
        return {}
    state = {(0,) * arity: {0: 1}}
    for fi, f in enumerate(factors):
        klo = keep_lo[fi]
        khi = keep_hi[fi]
        new: dict = {}
        for e, qd in state.items():
            for delta, qsh, coeff in f.terms:
                ne = tuple(a + b for a, b in zip(e, delta))
                if any(ne[v] < klo[v] or ne[v] > khi[v] for v in range(arity)):
                    continue
                cur = new.setdefault(ne, {})
                for ce, cc in coeff.terms.items():
                    sh = ce + qsh
                    for k, v in qd.items():
                        kk = k + sh
                        s = cur.get(kk, 0) + v * cc
                        if s:
                            cur[kk] = s
                        else:
                            del cur[kk]
                if not cur:
                    del new[ne]
        state = new
        if not state:
            break
    return {e: QLaurent(qd, _trusted=True) for e, qd in state.items() if qd}


def moved(folded: dict, mono, scalar=ONE) -> dict:
    """A fold's result times scalar * x^mono: keys moved, values scaled."""
    return {tuple(map(add, e, mono)): p * scalar for e, p in folded.items()}


def test_fold_kernels_agree():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(2, 4)
        factors = []
        for _ in range(rng.randrange(2, 7)):
            i = rng.randrange(1, n + 1)
            j = rng.randrange(1, n + 1)
            if i == j:
                j = None
            factors.append((i, j, rng.randrange(-2, 3)))
        assert ct_fold(n, factors, None, None) == fold_dict(n, factors, None, None)
        zero = (0,) * n
        assert ct_fold(n, factors, zero, zero) == fold_dict(n, factors, zero, zero)


@pytest.mark.parametrize("factor", [(1, 1, 0), (2, 2, -1), (None, None, 0), (None, None, 3)])
def test_ct_fold_rejects_degenerate_triples(factor):
    # (1 - q^m x_a/x_a) and (1 - q^m) are not linear factors: the kernel
    # refuses them under any window rather than folding a scalar
    factors = [(1, 2, 0), factor]
    for window in ((None, None), ((0, 0), (0, 0))):
        with pytest.raises(ValueError):
            ct_fold(2, factors, *window)
        with pytest.raises(ValueError):
            packed_fold(2, factors, *window)


def reference_kadell_ct(v, r, a) -> QLaurent:
    """CT of x^-v h_r times the q-Dyson product, the monomial and h_r folded
    as general factors."""
    from qct.products import qdyson_factors
    from test_products import kadell_h

    n = len(a)
    zero = (0,) * n
    factors = [Factor.monomial(n, [-x for x in v]), Factor(n, [(js, 0, c) for js, c in kadell_h(r, a)])]
    return fold_dict(n, factors + qdyson_factors(a), zero, zero).get(zero, QLaurent())


def test_fold_kernels_agree_with_general_factors():
    # x^-v and h_r never enter the kernel: kadell_ct folds the q-Dyson
    # triples over the box [v - r, v] and contracts them slot by slot against
    # the Gaussian binomials of h_r; the reference folds the monomial and h_r
    # as general factors, on the whole default kadell grid
    from qct.cli import _cases_kadell
    from qct.products import kadell_ct

    cases = _cases_kadell(None)
    assert len(cases) == 278
    for case in cases:
        v, r, a = case["v"], case["r"], case["a"]
        assert kadell_ct(v, r, a) == reference_kadell_ct(v, r, a), case


@pytest.mark.parametrize("v, r, a", [((2, 0), 1, (2, 1)), ((0, 3), 2, (1, 2)), ((1, 1, 1), 2, (1, 2, 2)),
                                     ((0, 1), 2, (1, 1)), ((1,), 3, (2,))])
def test_kadell_ct_off_degree_matches_general_factors(v, r, a):
    # at |v| != r kadell_ct returns zero without a fold, because the q-Dyson
    # product is homogeneous of degree 0; the reference reads every term of h_r
    from qct.products import kadell_ct

    want = reference_kadell_ct(v, r, a)
    assert want.is_zero() and kadell_ct(v, r, a) == want


def test_ct_point_reads_the_coefficient_at_minus_mono():
    # CT[x^mu P] = [x^-mu] P.  The reference folds x^mu as a general factor
    # and reads the constant term; on this pair product the coefficients at
    # -mu and +mu differ for every mu tried, so a fold at the wrong sign fails
    from qct.products import Shape, pair_linear

    n = 3
    zero = (0,) * n
    triples = list(pair_linear(Shape((1, 2)), 1))
    for mu in [(1, -1, 0), (2, -1, -1), (-1, 2, -1), (0, -2, 2)]:
        want = fold_dict(n, [Factor.monomial(n, mu)] + triples, zero, zero)[zero]
        assert ct_point(mu, triples) == want, mu
        assert want != fold_dict(n, triples, mu, mu)[mu], mu
    # a product with no coefficient at -mu has constant term zero
    assert ct_point((3, 0, -3), triples) == QLaurent()


def test_fold_window_matches_full_expansion():
    # windowed folds agree with filtering the full expansion
    n = 3
    factors = [(1, 2, 0), (1, 2, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1)]
    full = ct_fold(n, factors, None, None)
    lo, hi = (-1, -1, 0), (1, 1, 1)
    windowed = ct_fold(n, factors, lo, hi)
    expect = {e: c for e, c in full.items()
              if all(lo[v] <= e[v] <= hi[v] for v in range(n))}
    assert windowed == expect


_NONZERO = st.integers(-3, 3).filter(bool)
_QPOLY = st.dictionaries(st.integers(-2, 2), _NONZERO, min_size=1, max_size=3).map(QLaurent)


def _draw_triples(draw, n):
    """Zero to six random linear factors on n slots, either side possibly 1."""
    side = st.one_of(st.none(), st.integers(1, n))
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(side), draw(side)
        if i == j:
            j = None if i is not None else draw(st.integers(1, n))
        factors.append((i, j, draw(st.integers(-2, 2))))
    return factors


@st.composite
def fold_cases(draw):
    """(arity, monomial, scalar, triples, tlo, thi): random linear factors
    behind a monomial and a scalar, under a point, empty, wide or
    unconstrained window."""
    n = draw(st.integers(1, 4))
    mono = draw(st.tuples(*[st.integers(-2, 1)] * n))
    scalar = draw(_QPOLY)
    factors = _draw_triples(draw, n)
    window = draw(st.sampled_from(("point", "empty", "wide", "none")))
    if window == "none":
        return n, mono, scalar, factors, None, None
    point = draw(st.tuples(*[st.integers(-2, 2)] * n))
    if window == "point":
        return n, mono, scalar, factors, point, point
    if window == "empty":
        v = draw(st.integers(0, n - 1))
        return n, mono, scalar, factors, point, tuple(x - (t == v) for t, x in enumerate(point))
    tlo = draw(st.tuples(*[st.integers(-8, 0)] * n))
    thi = draw(st.tuples(*[st.integers(0, 8)] * n))
    return n, mono, scalar, factors, tlo, thi


@settings(max_examples=200, deadline=None)
@given(fold_cases(), st.integers(0, 4), st.integers(0, 57).map(lambda k: 3 ** k))
def test_fold_matches_reference_property(case, j, c):
    # the reference folds the monomial and the scalar as factors; the kernel
    # folds the triples alone, in the window moved back by the monomial, and
    # the monomial and scalar apply after the fold
    n, mono, scalar, factors, tlo, thi = case
    want = fold_dict(n, [Factor.monomial(n, mono, scalar)] + factors, tlo, thi)
    if tlo is not None:
        tlo, thi = tuple(map(sub, tlo, mono)), tuple(map(sub, thi, mono))
    assert ct_fold(n, factors, tlo, thi) == fold_dict(n, factors, tlo, thi)
    assert moved(ct_fold(n, factors, tlo, thi), mono, scalar) == want
    # the raw packed values must survive one multiplication by a polynomial
    # whose L1 norm is the extra_l1 they were folded with
    weight = (Cyclo.poch(1, 1) ** j).times(QLaurent({0: c}))  # c (1 - q)^j
    packed, B = packed_fold(n, factors, tlo, thi, extra_l1=weight.l1_norm())
    wp = weight.kronecker(B)
    got = {e: QLaurent.from_kronecker(*packed_mul(v, wp), B) for e, v in packed.items()}
    assert moved(got, mono, scalar) == {e: p * weight for e, p in want.items()}


@settings(max_examples=200, deadline=None)
@given(fold_cases().filter(lambda case: case[4] is not None and case[4] == case[5]))
def test_point_fold_reads_the_reference_coefficient(case):
    # ct_point reads the one key of its target over the planned box, and
    # decodes nothing; it must give the reference fold's coefficient
    n, _, _, factors, point, _ = case
    assert ct_point(tuple(-x for x in point), factors) == fold_dict(n, factors, point, point).get(point, ZERO)


@st.composite
def edge_points(draw):
    """(arity, triples, point, reachable): random linear factors and a point
    on the edge of their full expansion's window, inside it, or one step
    outside it in one slot (then no monomial can reach it)."""
    n = draw(st.integers(1, 4))
    factors = _draw_triples(draw, n)
    lo, hi = laurent._full_window(n, factors)
    kind = draw(st.sampled_from(("edge", "inside", "outside")))
    if kind == "edge":
        point = tuple(draw(st.sampled_from((x, y))) for x, y in zip(lo, hi))
    else:
        point = tuple(draw(st.integers(x, y)) for x, y in zip(lo, hi))
    if kind == "outside":
        v = draw(st.integers(0, n - 1))
        out = draw(st.sampled_from((lo[v] - 1, hi[v] + 1)))
        point = point[:v] + (out,) + point[v + 1:]
    return n, factors, point, kind != "outside"


@settings(max_examples=200, deadline=None)
@given(edge_points())
def test_point_fold_on_the_box_edge_and_past_it(case):
    n, factors, point, reachable = case
    want = fold_dict(n, factors, point, point).get(point, ZERO)
    assert ct_point(tuple(-x for x in point), factors) == want
    if not reachable:
        assert want.is_zero() and laurent._plan(factors, point, point) is None


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
def test_linear_factor_fields_match_generic_constructor(arity, m):
    # the plan reads a triple's moved slots and window directly; its one
    # step's key move must decode to the generic factor's delta, and one
    # triple must fold to its two terms
    sides = [None] + list(range(1, arity + 1))
    for i in sides:
        for j in sides:
            if i == j:
                continue
            generic = Factor.linear(arity, i, j, m)
            (delta, qexp, _), = [t for t in generic.terms if any(t[0])]
            window = laurent._full_window(arity, [(i, j, m)])
            assert window == (generic.lo, generic.hi)
            steps, base, radix, width = laurent._plan([(i, j, m)], *window)
            (dk, qsh, slots), = steps
            origin = -sum(map(mul, base, radix))
            assert laurent._decode_keys({origin + dk: None}, base, width) == {delta: None}
            assert qsh == qexp == m and slots == []
            # under the point window of the x^delta term the step is checked,
            # on the moved slots only
            steps, *_ = laurent._plan([(i, j, m)], delta, delta)
            assert len(steps[0][2]) == sum(map(bool, delta))
            assert ct_fold(arity, [(i, j, m)]) == fold_dict(arity, [generic])


# -- window-free steps and packed sums ---------------------------------------------------


@pytest.mark.parametrize("window", ["point", "wide"])
def test_long_linear_chains_mix_free_and_checked_steps(monkeypatch, window):
    # early steps cannot leave a point or wide window and run free, later
    # ones can and are checked; both must match the reference fold
    n = 3

    def chain(a, b, m, z):
        return [(a, b, m + t) for t in range(z)]

    factors = (chain(1, 2, 0, 5) + chain(2, 3, 1, 4) + chain(3, 1, -1, 5) + chain(1, None, 1, 3)
               + chain(None, 2, 0, 3) + chain(2, 1, 2, 4))
    if window == "point":
        tlo = thi = (0, 0, 0)
    else:
        tlo, thi = (-3, -4, -2), (2, 3, 4)
    checked = []
    step = laurent._step_linear

    def spy(state, B, dk, qsh, slots):
        checked.append(bool(slots))
        return step(state, B, dk, qsh, slots)

    monkeypatch.setattr(laurent, "_step_linear", spy)
    assert ct_fold(n, factors, tlo, thi) == fold_dict(n, factors, tlo, thi)
    assert True in checked and False in checked
    # a full expansion can drop nothing, so every step runs free
    checked.clear()
    assert ct_fold(n, factors) == fold_dict(n, factors)
    assert checked == [False] * len(factors)


def fold_sum_packed(arity, pieces):
    """Sum of the full expansions of several pieces (mono, scalar, triples),
    each scalar * x^mono * prod (1 - q^m x_a/x_b), one piece after another:
    the summing route the splitting case had before its Horner sum, kept as
    its oracle.

    Every piece's triples are planned and folded in their own key box, with
    one shared digit width B sized from the pieces' scalars and factor
    counts.  After the fold the keys are decoded, the monomial moves them and
    the scalar multiplies the packed values.  Returns ({exponent tuple:
    (lo, mag)}, B) holding only the nonzero sums.
    """
    B = laurent._digit_width(sum(scalar.l1_norm() << len(triples) for _, scalar, triples in pieces))
    total: dict = {}
    for mono, scalar, triples in pieces:
        steps, base, radix, width = laurent._plan(triples, *laurent._full_window(arity, triples))
        sp = scalar.kronecker(B)
        state = laurent._decode_keys(laurent._fold_packed(steps, base, radix, B), base, width)
        for e, val in state.items():
            e = tuple(map(add, e, mono))
            val = packed_mul(val, sp)
            cur = total.get(e)
            if cur is None:
                total[e] = val
                continue
            s = laurent._packed_add(cur, val, B)
            if s[1]:
                total[e] = s
            else:
                del total[e]
    return total, B


@st.composite
def sum_cases(draw):
    """(arity, pieces): one to three random pieces (mono, scalar, triples),
    each moved by its own monomial so that the pieces' full windows differ."""
    n = draw(st.integers(1, 3))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        offset = draw(st.tuples(*[st.integers(-3, 3)] * n))
        pieces.append((offset, draw(_QPOLY), _draw_triples(draw, n)))
    return n, pieces


def _reference_sum(n, pieces) -> dict:
    want: dict = {}
    for mono, scalar, triples in pieces:
        for e, p in fold_dict(n, [Factor.monomial(n, mono, scalar)] + triples).items():
            s = want.get(e, QLaurent()) + p
            if s.is_zero():
                want.pop(e, None)
            else:
                want[e] = s
    return want


@settings(max_examples=150, deadline=None)
@given(sum_cases())
def test_fold_sum_matches_reference_sum(case):
    n, pieces = case
    total, B = fold_sum_packed(n, pieces)
    assert {e: QLaurent.from_kronecker(lo, mag, B) for e, (lo, mag) in total.items()} == _reference_sum(n, pieces)
    # P + (-P) is an empty dict, alone or beside other pieces
    mono, scalar, triples = pieces[0]
    negated = (mono, -scalar, triples)
    assert fold_sum_packed(n, [pieces[0], negated])[0] == {}
    total, B = fold_sum_packed(n, pieces + [negated])
    assert {e: QLaurent.from_kronecker(lo, mag, B) for e, (lo, mag) in total.items()} == _reference_sum(n, pieces[1:])


# -- fold once, contract many ----------------------------------------------------------


def reference_contract(arity, factors, tlo, thi, job) -> QLaurent:
    """sum_e P_e prod_i w_i(e_i) over the decoded fold, in QLaurent arithmetic."""
    total = QLaurent()
    for e, p in ct_fold(arity, factors, tlo, thi).items():
        for w, x in zip(job, e):
            p = p * w.get(x, QLaurent())
        total = total + p
    return total


# a weight map {exponent: QLaurent}: zero weights included, and scaled up to
# 3^40 so that the digit width must follow the maps' L1 norms
_WEIGHT_MAP = st.builds(
    lambda w, big: {e: p * QLaurent({0: big}) for e, p in w.items()},
    st.dictionaries(st.integers(-3, 3), st.one_of(_QPOLY, st.just(QLaurent())), max_size=4),
    st.integers(0, 40).map(lambda k: 3 ** k))


@st.composite
def contract_cases(draw):
    """(arity, triples, tlo, thi, jobs): random linear factors under a point
    or wide box or the full expansion's, and one to four jobs, each one map
    in every slot or a map per slot, sometimes all of the first kind,
    sometimes with a job repeated."""
    n = draw(st.integers(1, 3))
    factors = _draw_triples(draw, n)
    window = draw(st.sampled_from(("point", "wide", "full")))
    if window == "full":
        tlo, thi = laurent._full_window(n, factors)
    elif window == "point":
        tlo = thi = draw(st.tuples(*[st.integers(-2, 2)] * n))
    else:
        tlo = draw(st.tuples(*[st.integers(-4, 0)] * n))
        thi = draw(st.tuples(*[st.integers(0, 4)] * n))
    symmetric = draw(st.booleans())
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        if symmetric or draw(st.booleans()):
            jobs.append((draw(_WEIGHT_MAP),) * n)
        else:
            jobs.append(tuple(draw(_WEIGHT_MAP) for _ in range(n)))
    if draw(st.booleans()):
        jobs.append(jobs[0])
    return n, factors, tlo, thi, jobs


def _map_of_items(*items) -> dict:
    return dict(items)


def _keyed(jobs) -> list:
    """The jobs with each weight map named by its items, for ``_map_of_items``."""
    return [tuple(tuple(sorted(w.items())) for w in job) for job in jobs]


@settings(max_examples=200, deadline=None)
@given(contract_cases())
def test_contract_matches_reference(case):
    n, factors, tlo, thi, jobs = case
    assert ct_contract(n, factors, tlo, thi, _keyed(jobs), _map_of_items) == [
        reference_contract(n, factors, tlo, thi, job) for job in jobs]


def test_contract_of_no_jobs_folds_nothing(monkeypatch):
    monkeypatch.setattr(laurent, "fold_packed_raw", lambda *args, **kwargs: pytest.fail("a fold ran for no jobs"))
    assert ct_contract(2, [(1, 2, 0)], (-1, -1), (1, 1), [], _map_of_items) == []


def test_contract_keeps_slots_apart_when_their_maps_differ():
    # 1 - x1/x2 is not symmetric, so a job with a map per slot must not be
    # contracted over exponent multisets, alone or beside a symmetric job
    factors = [(1, 2, 0)]
    up, down, every = {1: ONE}, {-1: ONE}, {-1: ONE, 0: ONE, 1: ONE}

    def contract(jobs):
        return ct_contract(2, factors, (-1, -1), (1, 1), _keyed(jobs), _map_of_items)

    assert contract([(up, down)]) == [QLaurent({0: -1})]
    assert contract([(down, up)]) == [QLaurent()]
    assert contract([(every, every), (up, down)]) == [QLaurent(), QLaurent({0: -1})]
    with pytest.raises(ValueError):
        contract([(up,)])
    # x2 and x3 of (1 - x1/x2)(1 - x2/x3)(1 - x3/x1) share one box, so a
    # slot's packed weights must be found by its key, not by its box alone
    cycle = [(1, 2, 0), (2, 3, 0), (3, 1, 0)]
    jobs = [(up, down, every), (down, up, every)]
    assert ct_contract(3, cycle, *laurent._full_window(3, cycle), _keyed(jobs), _map_of_items) == [
        QLaurent({0: -1}), ONE]
