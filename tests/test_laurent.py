import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import laurent
from qct.laurent import (
    FoldFactor,
    MLaurent,
    _decode_packed,
    ct,
    ct_fold,
    fold_packed_raw,
    linear_factors,
    pack_qlaurent,
    packed_mul,
    poch_factor,
    subst_shift,
)
from qct.qring import ONE, QFrac, QLaurent


def M(text: str, arity: int) -> MLaurent:
    """Parse an MLaurent as ``str(MLaurent)`` prints it."""
    s = text.strip()
    if s == "0":
        return MLaurent(arity)
    out = MLaurent(arity)
    for chunk in _split_terms(s):
        coeff_part, monos = _split_monomial(chunk)
        coeff = QFrac.parse(coeff_part)
        exps = [0] * arity
        for name, ex in monos:
            pos = int(name[1:]) - 1
            if pos < 0 or pos >= arity:
                raise ValueError(f"variable {name} out of arity {arity}")
            exps[pos] += ex
        out = out + MLaurent.monomial(arity, exps, coeff)
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


# spec-level helpers, used only here


def poly_arith(a: MLaurent, b: MLaurent, op: str):
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "scale":
        if len(b.terms) != 1 or set(b.terms) != {(0,) * b.arity}:
            raise ValueError("scale expects a constant second operand")
        return a.scale(b.constant_coefficient())
    raise ValueError(f"unknown op {op!r}")


def coeff_at(f: MLaurent, exps) -> QFrac:
    return f.coefficient(exps)


def test_mul_by_one_and_inverse_monomials():
    a = M("(1 + q) * x1*x2^-1", 2)
    one = MLaurent.constant(2, 1)
    assert poly_arith(a, one, "mul") == a
    m1 = MLaurent.monomial(2, (1, -1))
    m2 = MLaurent.monomial(2, (-1, 1))
    assert m1 * m2 == one


def test_hand_expansion():
    # (1 - x1/x2)(1 - q x2/x1) = 1 + q - x1/x2 - q x2/x1
    f1 = poch_factor(2, 1, 2, 0, 1)
    f2 = poch_factor(2, 2, 1, 1, 1)
    prod = f1 * f2
    want = MLaurent(2, {
        (0, 0): QFrac.from_qlaurent(QLaurent.parse("1 + q")),
        (1, -1): QFrac(-1),
        (-1, 1): QFrac.q_power(1, -1),
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
        (1, -1): QFrac.from_qlaurent(QLaurent.parse("-q - q^2")),
        (2, -2): QFrac.q_power(3),
    })
    assert got == want
    # one-sided ratios: (q x1)_1 and (1/x1)_1
    assert poch_factor(1, 1, None, 1, 1) == M("1 + (-q) * x1", 1)
    assert poch_factor(1, None, 1, 0, 1) == M("1 + (-1) * x1^-1", 1)
    with pytest.raises(ValueError):
        poch_factor(2, 1, 1, 0, 1)


def test_ct_examples():
    f = poch_factor(2, 1, 2, 0, 1) * poch_factor(2, 2, 1, 1, 1)
    assert ct(f, {1, 2}) == MLaurent.constant(2, QLaurent.parse("1 + q"))
    c = MLaurent.constant(3, 7)
    assert ct(c, {1, 2, 3}) == c
    assert ct(MLaurent.monomial(2, (1, -1)), {1}).is_zero()


def test_coeff_at_examples():
    f = M("1 + q * x1", 1)
    assert coeff_at(f, (1,)) == QFrac.q_power(1)
    assert coeff_at(MLaurent(2), (0, 0)) == QFrac(0)
    g = poch_factor(2, 1, 2, 0, 1) * poch_factor(2, 2, 1, 1, 1)
    assert coeff_at(g, (-1, 1)) == QFrac.q_power(1, -1)


def test_subst_shift_examples():
    f = MLaurent.monomial(2, (1, -1))
    assert subst_shift(f, (1, 2), (1, 1)) == MLaurent.constant(2, 1)
    g = MLaurent.monomial(3, (1, 0, 0))
    assert subst_shift(g, (1, 3), (2, 5)) == MLaurent.monomial(3, (0, 0, 1), QFrac.q_power(3))
    # s = 1 with an x_0 slot: x_0 -> q^{k_1} x_{u_1}
    h = MLaurent.monomial(3, (1, 0, 0))  # x_0 when x0=True
    assert subst_shift(h, (2,), (4,), x0=True) == MLaurent.monomial(3, (0, 0, 1), QFrac.q_power(4))
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
# the Kronecker keys of the kernel.  It prunes with its own per-step windows
# over every slot: after step fi, slot v must stay inside the target window
# widened by what the remaining factors can still add or remove.


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
    """Same contract as ct_fold: exponent tuple -> QLaurent, inside [tlo, thi]."""
    factors = list(factors)
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
                ne = e if delta is None else tuple(a + b for a, b in zip(e, delta))
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
            factors.append(FoldFactor.linear(n, i, j, rng.randrange(-2, 3)))
        assert ct_fold(n, factors, None, None) == fold_dict(n, factors, None, None)
        zero = (0,) * n
        assert ct_fold(n, factors, zero, zero) == fold_dict(n, factors, zero, zero)


def test_fold_kernels_agree_with_general_factors():
    # mix monomial prefactors and multi-term general factors with the linear
    # battery; the kernel must match the reference fold exactly
    from qct.products import kadell_h, qdyson_factors

    n = 2
    h = kadell_h(2, (2, 1))
    factors = [
        FoldFactor.monomial(n, (-1, -1), 0, 1),
        FoldFactor.general(n, h),
    ] + qdyson_factors((2, 1))
    zero = (0,) * n
    assert ct_fold(n, factors, zero, zero) == fold_dict(n, factors, zero, zero)
    assert ct_fold(n, factors, None, None) == fold_dict(n, factors, None, None)


def test_fold_window_matches_full_expansion():
    # windowed folds agree with filtering the full expansion
    n = 3
    factors = []
    factors.extend(linear_factors(n, 1, 2, 0, 2))
    factors.extend(linear_factors(n, 2, 1, 1, 2))
    factors.extend(linear_factors(n, 3, 1, 1, 1))
    full = ct_fold(n, factors, None, None)
    lo, hi = (-1, -1, 0), (1, 1, 1)
    windowed = ct_fold(n, factors, lo, hi)
    expect = {e: c for e, c in full.items()
              if all(lo[v] <= e[v] <= hi[v] for v in range(n))}
    assert windowed == expect


def _draw_factors(draw, n):
    """A random mix of linear, monomial and multi-term factors on n slots.
    A "binomial" is 1 - q^m x^delta with delta anywhere in {-1, 0, 1}^n, the
    linear factor's shape on zero to n variables."""
    side = st.one_of(st.none(), st.integers(1, n))
    nonzero = st.integers(-3, 3).filter(bool)
    qpoly = st.dictionaries(st.integers(-2, 2), nonzero, min_size=1, max_size=3).map(QLaurent)
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("linear", "linear", "binomial", "monomial", "general")))
        deltas = st.tuples(*[st.integers(-1, 1)] * n)
        if kind == "linear":
            i, j = draw(side), draw(side)
            if i is not None and i == j:
                j = None
            factors.append(FoldFactor.linear(n, i, j, draw(st.integers(-2, 2))))
        elif kind == "binomial":
            factors.append(FoldFactor(n, [(None, 0, 1), (draw(deltas), draw(st.integers(-2, 2)), -1)]))
        elif kind == "monomial":
            exps = draw(st.tuples(*[st.integers(-2, 1)] * n))
            factors.append(FoldFactor.monomial(n, exps, draw(st.integers(-2, 2)), draw(nonzero)))
        else:
            terms = draw(st.dictionaries(deltas, qpoly, min_size=2, max_size=3))
            factors.append(FoldFactor.general(n, MLaurent(n, terms)))
    return factors


@st.composite
def fold_cases(draw):
    """(arity, factors, tlo, thi): random factors under a point, empty, wide
    or unconstrained window."""
    n = draw(st.integers(1, 4))
    factors = _draw_factors(draw, n)
    window = draw(st.sampled_from(("point", "empty", "wide", "none")))
    if window == "none":
        return n, factors, None, None
    point = draw(st.tuples(*[st.integers(-2, 2)] * n))
    if window == "point":
        return n, factors, point, point
    if window == "empty":
        v = draw(st.integers(0, n - 1))
        return n, factors, point, tuple(x - (t == v) for t, x in enumerate(point))
    tlo = draw(st.tuples(*[st.integers(-8, 0)] * n))
    thi = draw(st.tuples(*[st.integers(0, 8)] * n))
    return n, factors, tlo, thi


@settings(max_examples=200, deadline=None)
@given(fold_cases(), st.integers(0, 4), st.integers(0, 57).map(lambda k: 3 ** k))
def test_fold_matches_reference_property(case, j, c):
    n, factors, tlo, thi = case
    want = fold_dict(n, factors, tlo, thi)
    assert ct_fold(n, factors, tlo, thi) == want
    # the raw packed values must survive one multiplication by a polynomial
    # whose L1 norm is the extra_l1 they were folded with
    if tlo is None:
        tlo = tuple(sum(f.lo[v] for f in factors) for v in range(n))
        thi = tuple(sum(f.hi[v] for f in factors) for v in range(n))
    weight = QLaurent({0: c}) * QLaurent({0: 1, 1: -1}) ** j
    packed, B = fold_packed_raw(n, factors, tlo, thi, extra_l1=weight.l1_norm())
    wp = pack_qlaurent(weight, B)
    got = {e: _decode_packed(*packed_mul(v, wp, B), B) for e, v in packed.items()}
    assert got == {e: p * weight for e, p in want.items()}


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
def test_linear_factor_fields_match_generic_constructor(arity, m):
    sides = [None] + list(range(1, arity + 1))
    for i in sides:
        for j in sides:
            if i is not None and i == j:
                continue
            delta = [0] * arity
            if i is not None:
                delta[i - 1] += 1
            if j is not None:
                delta[j - 1] -= 1
            generic = FoldFactor(arity, [(None, 0, ONE), (tuple(delta), m, QLaurent.from_int(-1))])
            direct = FoldFactor.linear(arity, i, j, m)
            for field in FoldFactor.__slots__:
                assert getattr(direct, field) == getattr(generic, field), (i, j, field)


# -- window-free steps and packed sums ---------------------------------------------------


@pytest.mark.parametrize("window", ["point", "wide"])
def test_long_linear_chains_mix_free_and_checked_steps(monkeypatch, window):
    # early steps cannot leave a point or wide window and run free, later
    # ones can and are checked; both must match the reference fold
    n = 3
    factors = (linear_factors(n, 1, 2, 0, 5) + linear_factors(n, 2, 3, 1, 4)
               + linear_factors(n, 3, 1, -1, 5) + linear_factors(n, 1, None, 1, 3)
               + linear_factors(n, None, 2, 0, 3) + linear_factors(n, 2, 1, 2, 4))
    if window == "point":
        tlo = thi = (0, 0, 0)
    else:
        tlo, thi = (-3, -4, -2), (2, 3, 4)
    checked = []
    step = laurent._step_linear

    def spy(state, B, slots, terms):
        checked.append(bool(slots))
        return step(state, B, slots, terms)

    monkeypatch.setattr(laurent, "_step_linear", spy)
    assert ct_fold(n, factors, tlo, thi) == fold_dict(n, factors, tlo, thi)
    assert True in checked and False in checked
    # a full expansion can drop nothing, so every step runs free
    checked.clear()
    assert ct_fold(n, factors) == fold_dict(n, factors)
    assert checked == [False] * len(factors)


def _negated(n, factors):
    return [FoldFactor.monomial(n, (0,) * n, 0, -1)] + list(factors)


def fold_sum_packed(arity, pieces):
    """Sum of the full expansions of several factor lists, one piece after
    another: the summing route the splitting case had before its Horner sum,
    kept as its oracle.

    Every piece is folded with one shared digit width B, sized from the sum
    of the pieces' L1 bounds, and in one shared key box, the union of the
    pieces' boxes.  Returns ({exponent tuple: (lo, mag)}, B) holding only the
    nonzero sums; keys are decoded only when the sum is nonzero.
    """
    pieces = [list(f) for f in pieces]
    B = laurent._digit_width(sum(laurent._l1_bound(f) for f in pieces))
    plans = [laurent._windows(f, *laurent._full_window(arity, f)) for f in pieces]
    base = [0] * arity
    top = [0] * arity
    for _, b, t in plans:
        base = list(map(min, base, b))
        top = list(map(max, top, t))
    total: dict = {}
    for factors, (steps, _, _) in zip(pieces, plans):
        state = laurent._fold_packed(factors, steps, base, top, B)
        get = total.get
        for k, val in state.items():
            cur = get(k)
            if cur is None:
                total[k] = val
                continue
            s = laurent.packed_add(cur, val, B)
            if s[1]:
                total[k] = s
            else:
                del total[k]
    return (laurent._decode_keys(total, base, top) if total else {}), B


@st.composite
def sum_cases(draw):
    """(arity, pieces): one to three random factor lists, each moved by its
    own monomial so that the pieces' full windows differ."""
    n = draw(st.integers(1, 3))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        offset = draw(st.tuples(*[st.integers(-3, 3)] * n))
        pieces.append([FoldFactor.monomial(n, offset)] + _draw_factors(draw, n))
    return n, pieces


def _reference_sum(n, pieces) -> dict:
    want: dict = {}
    for factors in pieces:
        for e, p in fold_dict(n, factors).items():
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
    assert {e: _decode_packed(lo, mag, B) for e, (lo, mag) in total.items()} == _reference_sum(n, pieces)
    # P + (-P) is an empty dict, alone or beside other pieces
    P = pieces[0]
    assert fold_sum_packed(n, [P, _negated(n, P)])[0] == {}
    total, B = fold_sum_packed(n, pieces + [_negated(n, P)])
    assert {e: _decode_packed(lo, mag, B) for e, (lo, mag) in total.items()} == _reference_sum(n, pieces[1:])


def _box_add(box, total: dict, state: dict) -> dict:
    """Add a state folded in ``box`` into ``total`` in place, as int keys and
    packed values, dropping zero sums."""
    for k, val in state.items():
        s = val if k not in total else laurent.packed_add(total[k], val, box.B)
        if s[1]:
            total[k] = s
        else:
            del total[k]
    return total


def _box_decode(box, state: dict) -> dict:
    """A state folded in ``box`` with its keys as exponent tuples."""
    return laurent._decode_keys(state, box.base, box.top)


@settings(max_examples=150, deadline=None)
@given(sum_cases(), st.data())
def test_key_box_holds_every_sub_product(case, data):
    # a fold of any sub-list of a piece, in any order and continued from any
    # other, stays in the box and decodes to the dict fold's exponents
    n, pieces = case
    box = laurent.KeyBox(n, [pieces])
    factors = data.draw(st.sampled_from(pieces))
    sub = data.draw(st.permutations(factors)).copy()
    del sub[data.draw(st.integers(0, len(sub))):]
    cut = data.draw(st.integers(0, len(sub)))
    state = box.fold(sub[cut:], box.fold(sub[:cut]))
    got = {e: _decode_packed(lo, mag, box.B) for e, (lo, mag) in _box_decode(box, state).items()}
    assert got == fold_dict(n, sub)


def test_key_box_digits_hold_the_whole_sum():
    # digits sized by one piece's bound, 2**61 + 2, have 70 bits and carry
    # once 1000 pieces add up; the bound of the whole sum holds them
    big = 2 ** 60 + 1
    piece = [FoldFactor(1, [((1,), 0, QLaurent({0: big, 1: big}))])]
    box = laurent.KeyBox(1, [[piece] * 1000])
    total: dict = {}
    for _ in range(1000):
        _box_add(box, total, box.fold(piece))
    assert {e: _decode_packed(*v, box.B) for e, v in _box_decode(box, total).items()} == {(1,): QLaurent({0: 1000 * big, 1: 1000 * big})}


def test_passing_sum_decodes_nothing(monkeypatch):
    # states folded in one box add as int keys: a sum that vanishes decodes
    # no key and no coefficient, and only a nonzero one has keys to decode
    def refuse(*args):
        raise AssertionError("a passing sum decoded a key")

    monkeypatch.setattr(laurent, "_decode_keys", refuse)
    monkeypatch.setattr(laurent, "_decode_packed", refuse)
    n = 3
    P = [FoldFactor.linear(n, 1, 2, 0), FoldFactor.linear(n, 3, 2, 1), FoldFactor.linear(n, 1, 3, -2)]
    Q = [FoldFactor.linear(n, 2, 1, 0)] + P
    box = laurent.KeyBox(n, [[P, _negated(n, P), Q]])
    total = _box_add(box, box.fold(P), box.fold(_negated(n, P)))
    assert total == {}
    _box_add(box, total, box.fold(Q))
    assert total
    with pytest.raises(AssertionError, match="decoded"):
        _box_decode(box, total)
