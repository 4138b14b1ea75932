import functools
import itertools
import json
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import cli, gxseries, laurent, qring, roots
from qct.closedform import all_shapes
from qct.gxseries import (
    QukFactors,
    check_property_expand,
    check_property_laurent,
    check_property_zero,
    factored_ct,
    gx_ct,
    vanishing_property_checks,
    oracle_matches_direct,
    property_branch,
    r_vector,
)
from qct.laurent import MLaurent, _digit_width, _packed_add, ct_fold
from qct.products import Shape, epsilon
from qct.qring import ONE, Cyclo, QFrac, QLaurent, cyclo_sum, eval_poly
from qct.roots import interpolate_dn, t_table
from test_laurent import constant_coefficient, monomial, moved, packed_fold
from test_qring import frac_inverse, frac_pow, frac_q_power, parse_frac
from test_roots import _staircase_by_scan


# -- the packed route: the oracle the factored walk must match -------------------------
#
# Numerators expanded in full by the fold at the root and kept as packed
# {exponent tuple: (lo, mag)} values of digit width B down to the leaves;
# every node whose head degree reaches its factor count is divided by its
# denominator, and every other takes one elimination step on the expansion.


class RationalTerm:
    """scale * numerator / prod_r (1 - q^{m_r} x_head/x_{tail_r}), the
    numerator packed at digit width B."""

    __slots__ = ("scale", "num", "B", "dens", "head")

    def __init__(self, num: dict, B: int, dens, head: int | None, scale: Cyclo | None = None):
        self.scale = Cyclo() if scale is None else scale
        self.num = num
        self.B = B
        self.dens = list(dens)  # (m_r, tail var index)
        self.head = head
        if self.dens and head is None:
            raise ValueError("denominator factors need a head variable")


def _add_term(poly: dict, e: tuple, v, B: int) -> None:
    """poly[e] += v on packed values, dropping the entry when the sum vanishes."""
    cur = poly.get(e)
    if cur is None:
        poly[e] = v
        return
    lo, mag = _packed_add(cur, v, B)
    if mag:
        poly[e] = (lo, mag)
    else:
        del poly[e]


def _divide(num: dict, B: int, factors, k: int):
    """(quo, rem, B2) with num = quo * D + rem, D = prod_r (1 - q^{m_r} x_k/x_{t_r}),
    rem of x_k-degree below m = len(factors), and quo, rem packed at width B2.

    D's top x_k-coefficient is a unit, so each quotient term is a shifted,
    signed numerator coefficient, reduced from the top degree down.  One
    x_k-degree level multiplies the total L1 by at most 2^m, so B2 is the
    digit width of num's L1 times 2^(m L), L the number of levels.
    """
    m = len(factors)
    arity = len(next(iter(num)))
    levels = max(e[k] for e in num) - m + 1
    values = {e: QLaurent.from_kronecker(lo, mag, B) for e, (lo, mag) in num.items()}
    B = _digit_width(sum(v.l1_norm() for v in values.values()) << (m * levels))
    num = {e: v.kronecker(B) for e, v in values.items()}
    lower = {(0,) * arity: (0, 1)}  # D, expanded
    for mr, tr in factors:
        step = dict(lower)
        for e, (lo, mag) in lower.items():
            ne = list(e)
            ne[k] += 1
            ne[tr] -= 1
            _add_term(step, tuple(ne), (lo + mr, -mag), B)
        lower = step
    top = [0] * arity
    top[k] = m
    for _, tr in factors:
        top[tr] -= 1
    top = tuple(top)
    del lower[top]  # D's top term; what is left has x_k-degree below m
    lead = -sum(mr for mr, _ in factors)
    sign = -1 if m % 2 else 1
    quo: dict = {}
    rem: dict = {}
    high: dict[int, dict] = {}  # x_k-degree >= m -> {exponent tuple: coefficient}
    for e, v in num.items():
        if e[k] >= m:
            high.setdefault(e[k], {})[e] = v
        else:
            rem[e] = v
    while high:
        for e, (lo, mag) in high.pop(max(high)).items():
            clo, cmag = lo + lead, sign * mag
            w = tuple(a - b for a, b in zip(e, top))
            quo[w] = (clo, cmag)
            # subtract c x^w (D - top term); each product lands lower in x_k
            for de, (dlo, dmag) in lower.items():
                ne = tuple(a + b for a, b in zip(w, de))
                _add_term(high.setdefault(ne[k], {}) if ne[k] >= m else rem, ne,
                          (clo + dlo, -cmag * dmag), B)
    return quo, rem, B


def _same_tail_scalar(exps: tuple) -> Cyclo:
    """prod_j 1/(1 - q^j) over ``exps``."""
    return prod((Cyclo.poch(j, 1) for j in exps), start=Cyclo()) ** -1


def _eliminate(scale: Cyclo, num: dict, B: int, factors, k: int):
    """One elimination step on a packed numerator; returns (scale, num, dens,
    head, cleared) per factor whose tail comes after k.  Substituting
    x_k = q^{-m_r} x_{i_r} adds -m_r e to a coefficient's packed ``lo``."""
    m = len(factors)
    if m == 0:
        raise ValueError("no denominator factors to eliminate against")
    for r, (mr, ir) in enumerate(factors):
        if ir == k:
            raise ValueError("denominator tail equals the eliminated variable")
        for ms, js in factors[r + 1:]:
            if js == ir and ms == mr:
                raise ValueError("repeated pole: equal coefficients on one tail")
    if num:
        deg = max(e[k] for e in num)
        if deg > m - 1:
            raise ValueError(f"numerator degree {deg} in x_{k} exceeds {m - 1}; divide first")
    out = []
    for r, (mr, ir) in enumerate(factors):
        if ir < k:
            continue
        sub: dict = {}
        for e, (lo, mag) in num.items():
            ek = e[k]
            if ek:
                ne = list(e)
                ne[k] = 0
                ne[ir] += ek
                e = tuple(ne)
                lo -= mr * ek
            _add_term(sub, e, (lo, mag), B)
        same = tuple(ms - mr for s, (ms, js) in enumerate(factors) if js == ir and s != r)
        new_scale = scale * _same_tail_scalar(same) if same else scale
        new_dens = [(ms - mr, js) for ms, js in factors if js != ir]
        out.append((new_scale, sub, new_dens, ir, (mr, ir)))
    return out


def rational_ct(term: RationalTerm) -> QFrac:
    """CT over every variable of one packed term: divide where the head
    degree reaches the factor count (the quotient's constant coefficient is
    a leaf), eliminate the rest."""
    stack = [term]
    leaves = []  # (scale, constant term) pairs
    while stack:
        t = stack.pop()
        num, B = t.num, t.B
        if not num:
            continue
        zero = (0,) * len(next(iter(num)))
        if not t.dens:
            if zero in num:
                leaves.append((t.scale, QLaurent.from_kronecker(*num[zero], B)))
            continue
        if max(e[t.head] for e in num) >= len(t.dens):
            quo, num, B = _divide(num, B, t.dens, t.head)
            if zero in quo:
                leaves.append((t.scale, QLaurent.from_kronecker(*quo[zero], B)))
        for scale, new_num, new_dens, new_head, _ in _eliminate(t.scale, num, B, t.dens, t.head):
            stack.append(RationalTerm(new_num, B, new_dens, new_head, scale=scale))
    return cyclo_sum(leaves)


def _one_based(triples) -> list:
    """Slot triples (a, b, m), slot t holding x_t, as the fold's 1-based ones."""
    return [(a + 1, b + 1, m) for a, b, m in triples]


def expand_numerator(arity: int, mono, triples) -> tuple[dict, int]:
    """x^mono * prod (1 - q^m x_a/x_b) over 0-based (a, b, m), expanded and
    packed: the triples folded, then every key moved by mono."""
    packed, B = packed_fold(arity, _one_based(triples))
    return {tuple(x + y for x, y in zip(e, mono)): v for e, v in packed.items()}, B


def numerator_poly(q) -> tuple[dict, int]:
    """Q(d | u; k)'s numerator expanded and packed; empty when V vanishes."""
    if q.is_zero():
        return {}, _digit_width(1)
    return expand_numerator(q.shape.n + 1, (0,) * (q.shape.n + 1), q.numerator_triples())


def rational_term(q) -> RationalTerm:
    return RationalTerm(*numerator_poly(q), q.dens, q.head, scale=q.scale)


def packed_term(term) -> RationalTerm:
    """A walk term (scale, mono, factors, dens, head) as a packed term."""
    scale, mono, factors, dens, head = term
    return RationalTerm(*expand_numerator(len(mono), mono, factors), dens, head, scale=scale)


def _scaled_equal(scale_a: Cyclo, num_a: dict, B_a: int, scale_b: Cyclo, num_b: dict,
                  B_b: int) -> bool:
    """scale_a * num_a == scale_b * num_b coefficient by coefficient, for
    packed numerators without zero values.  Packed values are not canonical
    (a cancelled sum may keep zero low digits), so each is decoded and
    cross-multiplied by the parts of scale_a / scale_b."""
    if not scale_a.sign:
        num_a = {}
    if not scale_b.sign:
        num_b = {}
    if num_a.keys() != num_b.keys():
        return False
    if not num_a:
        return True
    ratio = scale_a / scale_b
    over = Cyclo(ratio.sign, ratio.shift, {d: e for d, e in ratio.exps.items() if e > 0})
    under = Cyclo(1, 0, {d: -e for d, e in ratio.exps.items() if e < 0})
    return all(over.times(QLaurent.from_kronecker(*v, B_a)) == under.times(QLaurent.from_kronecker(*num_b[e], B_b))
               for e, v in num_a.items())


def _terms_equal(scale_a: Cyclo, num_a: dict, B_a: int, dens_a, head_a, cand) -> bool:
    if head_a != cand.head:
        return False
    if sorted(dens_a) != sorted(cand.dens):
        return False
    return _scaled_equal(scale_a, num_a, B_a, cand.scale, *numerator_poly(cand))


def reference_property_expand(shape, b, c, d, u, k) -> bool:
    """Property (2) the packed way: the degree condition on the expanded
    numerator, then one packed elimination step compared with the directly
    built next-level terms."""
    q = QukFactors(shape, b, c, d, u, k)
    num, B = numerator_poly(q)
    dens = q.dens
    if max((e[q.head] for e in num), default=0) >= len(dens):
        return False
    ks = q.k[-1] if q.u else 0
    for scale, new_num, new_dens, new_head, (m, i) in _eliminate(q.scale, num, B, dens, q.head):
        cand = QukFactors(shape, b, c, d, q.u + (i,), q.k + (ks - m,))
        if not _terms_equal(scale, new_num, B, new_dens, new_head, cand):
            return False
    return True


def reference_oracle_matches_direct(shape, b, c, d, u, k) -> bool:
    """The substitution oracle against the direct construction the packed
    way: both cross-multiplied numerators expanded in full."""
    direct = QukFactors(shape, b, c, d, u, k)
    scal, triples, dens = gxseries.substitution_oracle(shape, b, c, d, u, k)
    arity = shape.n + 1
    mono = (0,) * arity

    def expand(triples, dlist):
        return expand_numerator(arity, mono, triples + [(direct.head, t, m) for m, t in dlist])

    lhs = expand(direct.numerator_triples(), dens)
    rhs = expand(triples, direct.dens)
    return _scaled_equal(direct.scale, *lhs, scal, *rhs)


# -- packed numerators ----------------------------------------------------------------


def pack(num: dict) -> tuple[dict, int]:
    """{exponent tuple: QLaurent} as packed values at the digit width of its
    total L1, the bound the gx pipeline keeps its digits under."""
    B = _digit_width(total_l1(num))
    return {e: v.kronecker(B) for e, v in num.items()}, B


def unpack(num: dict, B: int) -> dict:
    return {e: QLaurent.from_kronecker(lo, mag, B) for e, (lo, mag) in num.items()}


def total_l1(num: dict) -> int:
    return sum(v.l1_norm() for v in num.values())


# every coefficient a multiple of WIDE: a nonzero numerator's total L1 passes
# 2**64, so its digit width B is sized from the bound, not the 64-bit floor
WIDE = 3 << 63


# -- references over QFrac, every value reduced by poly_gcd ------------------------


def reference_eliminate(scale: QFrac, num: MLaurent, factors, k: int):
    """The elimination step with QFrac coefficients c_r, numerators and scale:
    the reference the integer-exponent elimination must match."""
    factors = [(c, i) for c, i in factors]
    m = len(factors)
    if m == 0:
        raise ValueError("no denominator factors to eliminate against")
    for r in range(m):
        cr, ir = factors[r]
        if cr.is_zero():
            raise ValueError("zero denominator coefficient")
        if ir == k:
            raise ValueError("denominator tail equals the eliminated variable")
        for s in range(r + 1, m):
            cs, js = factors[s]
            if js == ir and cs == cr:
                raise ValueError("repeated pole: equal coefficients on one tail")
    if not num.is_zero():
        deg = max(e[k] for e in num.terms)
        if deg > m - 1:
            raise ValueError(f"numerator degree {deg} in x_{k} exceeds {m - 1}")
    out = []
    for r, (cr, ir) in enumerate(factors):
        if ir < k:
            continue
        inv = frac_inverse(cr)
        sub = {}
        for e, v in num.terms.items():
            ek = e[k]
            ne = list(e)
            ne[k] = 0
            ne[ir] += ek
            ne = tuple(ne)
            nv = v * frac_pow(inv, ek) if ek else v
            cur = sub.get(ne)
            s = nv if cur is None else cur + nv
            if s.is_zero():
                sub.pop(ne, None)
            else:
                sub[ne] = s
        new_num = MLaurent(num.arity, sub, _trusted=True)
        new_scale = scale
        new_dens = []
        for s, (cs, js) in enumerate(factors):
            if s == r:
                continue
            if js == ir:
                new_scale = new_scale / (QFrac(1) - cs * inv)
            else:
                new_dens.append((cs * inv, js))
        out.append((new_scale, new_num, new_dens, ir, (cr, ir)))
    return out


def expand_factor(i: int, j: int, coeff: QFrac, trunc: int, arity: int) -> MLaurent:
    """Truncated geometric expansion of 1/(1 - coeff * x_i/x_j) in the field
    where x_0 is expanded first: in nonnegative powers of x_i/x_j when i < j,
    else as -sum_{l>=1} coeff^{-l} (x_j/x_i)^l."""
    out = {}
    for l in range(trunc + 1) if i < j else range(1, trunc + 1):
        e = [0] * arity
        e[i], e[j] = (l, -l) if i < j else (-l, l)
        out[tuple(e)] = frac_pow(coeff, l) if i < j else -frac_pow(coeff, -l)
    return MLaurent(arity, out)


def reference_series_ct(scale: QFrac, num: MLaurent, dens, head: int) -> QFrac:
    """Exact CT of scale * num / prod (1 - c x_head/x_tail) by bounded
    geometric expansion, over QFrac.

    Tails after the head only lose degree, capping their expansions at the
    numerator's top degree in the tail; tails before the head consume the
    head's degree budget, capping theirs at the total available."""
    pos_caps = {}
    for _, tail in dens:
        if tail > head:
            pos_caps[tail] = max(0, max(e[tail] for e in num.terms))
    budget = max(0, max(e[head] for e in num.terms)) + sum(pos_caps.values())
    acc = num
    for cf, tail in dens:
        trunc = pos_caps[tail] if tail > head else budget
        acc = acc * expand_factor(head, tail, cf, trunc, num.arity)
    return constant_coefficient(acc) * scale


def as_qfrac(scale: Cyclo) -> QFrac:
    """A factored scale as a reduced QFrac: its inverse divides 1."""
    return QFrac(0) if not scale.sign else (scale ** -1).divide(ONE)


def reference_ct(q) -> QFrac:
    """CT of Q(d | u; k) by elimination on QFrac terms, with the bounded series
    on every term whose head degree reaches its factor count."""
    arity = q.shape.n + 1
    num = _as_qfrac_terms(unpack(*numerator_poly(q)), arity)
    dens = [(frac_q_power(m), tail) for m, tail in q.dens]
    stack = [(as_qfrac(q.scale), num, dens, q.head)]
    total = QFrac(0)
    while stack:
        scale, num, dens, head = stack.pop()
        if num.is_zero():
            continue
        if not dens:
            total = total + constant_coefficient(num) * scale
            continue
        if max(e[head] for e in num.terms) >= len(dens):
            total = total + reference_series_ct(scale, num, dens, head)
            continue
        pieces = reference_eliminate(scale, num, dens, head)
        stack.extend(piece[:4] for piece in pieces)
    return total


def _q_exponent(c: QFrac) -> int:
    """m for a coefficient c = q^m; ValueError for anything else."""
    if not c.den.is_one() or len(c.num.terms) != 1 or c.num.leading_coefficient() != 1:
        raise ValueError(f"denominator coefficient {c} is not a power of q")
    return c.num.min_exp()


def ct_partial_fraction(num: MLaurent, factors, k: int):
    """One elimination step on a QFrac numerator: CT_{x_k} of
    num / prod_r (1 - c_r x_k/x_{i_r}), run through the integer elimination.

    ``factors`` lists (c_r, i_r), each c_r a power of q.  Requires
    deg_{x_k}(num) <= m - 1 and distinct c_r on repeated tails.  Returns the
    surviving substituted terms as (numerator, remaining factors, new head)
    triples, one per factor with i_r > k; factors with i_r < k contribute
    nothing.
    """
    factors = [(_q_exponent(c), i) for c, i in factors]
    # clear the numerator's denominators by their product, exactly
    den = ONE
    for d in {v.den for v in num.terms.values()}:
        den = den * d
    cleared = {e: v.num * den.divexact(v.den) for e, v in num.terms.items()}
    out = []
    packed, B = pack(cleared)
    for scale, sub, dens, head, _ in _eliminate(Cyclo(), packed, B, factors, k):
        inv = scale ** -1
        coeffs = {e: inv.divide(p) for e, p in unpack(sub, B).items()}
        if not den.is_one():
            coeffs = {e: v / QFrac(den) for e, v in coeffs.items()}
        out.append((MLaurent(num.arity, coeffs, _trusted=True),
                    [(frac_q_power(ms), js) for ms, js in dens], head))
    return out


def _as_qfrac_terms(num: dict, arity: int) -> MLaurent:
    return MLaurent(arity, {e: QFrac.from_qlaurent(v) for e, v in num.items()})


def coefficients(unit: int):
    """Nonzero QLaurent coefficients: up to three q-powers, integers times unit."""
    ints = st.integers(-4, 4).map(lambda c: c * unit)
    return st.dictionaries(st.integers(-3, 3), ints, min_size=1, max_size=3).map(
        QLaurent).filter(lambda v: v.terms)


@st.composite
def elimination_cases(draw, unit=1):
    """A head k, 1-3 factors (m, tail) with m in -3..3 on tails other than k
    (distinct m on a repeated tail), a numerator of x_k-degree below the factor
    count with integers that are multiples of ``unit``, and a scale that is a
    ratio of q-Pochhammer symbols."""
    arity = draw(st.integers(2, 4))
    k = draw(st.integers(0, arity - 1))
    tails = st.sampled_from([t for t in range(arity) if t != k])
    factors = draw(st.lists(st.tuples(st.integers(-3, 3), tails), min_size=1, max_size=3,
                            unique=True))
    top = len(factors) - 1
    exps = st.tuples(*[st.integers(-2, top) if v == k else st.integers(-2, 2)
                       for v in range(arity)])
    num = draw(st.dictionaries(exps, coefficients(unit), max_size=6))
    scale = Cyclo(draw(st.sampled_from([1, -1])), draw(st.integers(-3, 3)))
    for _ in range(draw(st.integers(0, 2))):
        poch = Cyclo.poch(draw(st.integers(1, 3)), draw(st.integers(0, 3)))
        scale = scale * poch if draw(st.booleans()) else scale / poch
    return arity, k, factors, num, scale


def check_elimination(case):
    arity, k, factors, num, scale = case
    packed, B = pack(num)
    got = _eliminate(scale, packed, B, factors, k)
    want = reference_eliminate(as_qfrac(scale), _as_qfrac_terms(num, arity),
                               [(frac_q_power(m), t) for m, t in factors], k)
    assert len(got) == len(want)
    for (g_scale, g_num, g_dens, g_head, (g_m, g_t)), (w_scale, w_num, w_dens, w_head, w_cleared) \
            in zip(got, want):
        assert g_head == w_head and (frac_q_power(g_m), g_t) == w_cleared
        assert [(frac_q_power(m), t) for m, t in g_dens] == w_dens
        assert as_qfrac(g_scale) == w_scale
        assert _as_qfrac_terms(unpack(g_num, B), arity) == w_num
        # a substitution only merges coefficients, so the children keep B
        assert total_l1(unpack(g_num, B)) <= total_l1(num)


@settings(max_examples=200, deadline=None)
@given(elimination_cases())
def test_elimination_matches_reference(case):
    check_elimination(case)


@settings(max_examples=100, deadline=None)
@given(elimination_cases(WIDE))
def test_elimination_matches_reference_past_64_bits(case):
    check_elimination(case)


def _d_poly(factors, k: int, arity: int) -> MLaurent:
    d_poly = MLaurent.constant(arity, 1)
    for m, t in factors:
        e = [0] * arity
        e[k] += 1
        e[t] -= 1
        d_poly = d_poly * (MLaurent.constant(arity, 1)
                           - monomial(arity, tuple(e), frac_q_power(m)))
    return d_poly


@st.composite
def division_cases(draw, unit=1):
    """A head k with tails on both sides of it, 1-3 factors (m, tail) with
    distinct m on a repeated tail, a numerator with a term of x_k-degree
    >= m and integers that are multiples of ``unit``, and a Cyclo scale."""
    arity = draw(st.integers(3, 4))
    k = draw(st.integers(1, arity - 2))
    tails = st.sampled_from([t for t in range(arity) if t != k])
    factors = draw(st.lists(st.tuples(st.integers(-3, 3), tails), min_size=1, max_size=3,
                            unique=True))
    m = len(factors)
    exps = st.tuples(*[st.integers(-1, m + 2) if v == k else st.integers(-2, 2)
                       for v in range(arity)])
    terms = draw(st.dictionaries(exps, coefficients(unit), max_size=5))
    # x_k^j times D's top monomial x_k^m / prod_r x_{t_r}: the quotient then
    # reaches the zero exponent
    top = [0] * arity
    top[k] = m + draw(st.integers(0, 2))
    for _, t in factors:
        top[t] -= 1
    terms[tuple(top)] = QLaurent({draw(st.integers(-3, 3)): draw(st.sampled_from([1, -2, 3])) * unit})
    scale = Cyclo(draw(st.sampled_from([1, -1])), draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        scale = scale / Cyclo.poch(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    return arity, k, factors, terms, scale


def check_division(case):
    arity, k, factors, num, scale = case
    quo, rem, B = _divide(*pack(num), factors, k)
    quo, rem = unpack(quo, B), unpack(rem, B)
    # the width covers every value with the margin the fold keeps: the
    # elimination below relies on it
    assert _digit_width(total_l1(quo) + total_l1(rem)) <= B
    assert all(e[k] < len(factors) for e in rem)
    assert all(v.terms for v in list(quo.values()) + list(rem.values()))
    d_poly = _d_poly(factors, k, arity)
    assert _as_qfrac_terms(num, arity) == \
        _as_qfrac_terms(quo, arity) * d_poly + _as_qfrac_terms(rem, arity)
    # division plus elimination against the series over the whole term
    want = reference_series_ct(as_qfrac(scale), _as_qfrac_terms(num, arity),
                               [(frac_q_power(m), t) for m, t in factors], k)
    assert rational_ct(RationalTerm(*pack(num), factors, k, scale=scale)) == want


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_division_step_is_exact(case):
    check_division(case)


@settings(max_examples=150, deadline=None)
@given(division_cases(WIDE))
def test_division_step_is_exact_past_64_bits(case):
    check_division(case)


def test_gx_ct_matches_reference_on_query_grid():
    # every gx_ct call of `qct ct --method gx` on shapes with n <= 3, b, c <= 1
    queries = [(shape, b, c, d) for shape in all_shapes(3)
               for b in range(2) for c in range(2) for d in range(1, shape.n * b + 2)]
    assert len(queries) == 62
    for shape, b, c, d in queries:
        assert gx_ct(shape, b, c, d) == reference_ct(QukFactors(shape, b, c, d)), \
            (shape.parts, b, c, d)


def test_gx_ct_runs_without_gcd(monkeypatch):
    gcd = qring.poly_gcd
    calls = []
    monkeypatch.setattr(qring, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    got = gx_ct(Shape((1, 1)), 1, 1, 3)
    assert calls == []
    assert got == reference_ct(QukFactors(Shape((1, 1)), 1, 1, 3))


def _point_window(tlo, thi, arity) -> bool:
    return tlo is not None and len(tlo) == arity and tlo == thi


def test_packed_elimination_makes_no_qlaurent_arithmetic(monkeypatch):
    # the walk keeps every term factored: a substitution or a split adds,
    # shifts and multiplies no QLaurent, and the only folds in gxseries are
    # point folds, one per leaf numerator and one for property (3)
    inside, calls, folds = [], [], []
    for name in ("_substitute", "_split"):
        def traced(*args, step=getattr(gxseries, name)):
            inside.append(1)
            try:
                return step(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(gxseries, name, traced)
    for name in ("__add__", "__mul__", "shift"):
        def counted(self, *args, op=getattr(QLaurent, name), name=name):
            if inside:
                calls.append(name)
            return op(self, *args)

        monkeypatch.setattr(QLaurent, name, counted)

    point, fold, kernel = laurent.ct_point, laurent.ct_fold, laurent._fold_packed
    for name in ("ct_contract", "fold_packed_raw"):
        def other(*args, name=name, route=getattr(laurent, name)):
            folds.append((name, None))
            return route(*args)

        monkeypatch.setattr(laurent, name, other)
    monkeypatch.setattr(laurent, "ct_point", lambda mono, factors: (
        folds.append(("point", None)) or point(mono, factors)))
    monkeypatch.setattr(laurent, "ct_fold", lambda arity, factors, tlo=None, thi=None: (
        folds.append(("fold", _point_window(tlo, thi, arity))) or fold(arity, factors, tlo, thi)))
    monkeypatch.setattr(laurent, "_fold_packed", lambda *args: folds.append(("kernel", None)) or kernel(*args))
    split = gxseries._split
    splits = []
    monkeypatch.setattr(gxseries, "_split", lambda term: splits.append(1) or split(term))
    got = gx_ct(Shape((1, 2)), 1, 1, 3)
    assert splits and calls == [] and folds
    assert folds == [("point", None), ("fold", True), ("kernel", None)] * (len(folds) // 3)
    assert got == reference_ct(QukFactors(Shape((1, 2)), 1, 1, 3))
    # property (3) expands nothing: its one kernel run is its point fold
    folds.clear()
    rep = check_property_laurent(Shape((2, 4)), 1, 2, 5, (3, 4), (5, 2))
    assert rep["divisible"] and rep["ct_zero"]
    assert folds == [("point", None), ("fold", True), ("kernel", None)]


def test_scaled_equal_compares_values_not_their_packing():
    # q^1 packed with a zero low digit, at another width, equals q^1 packed
    # the fold's way; a different value does not
    e = (0, 1)
    one = Cyclo()
    assert _scaled_equal(one, {e: (0, 1 << 64)}, 64, one, {e: (1, 1)}, 80)
    assert _scaled_equal(Cyclo(1, 1), {e: (0, 1)}, 64, one, {e: (0, 1 << 64)}, 64)
    assert not _scaled_equal(one, {e: (0, 1 << 64)}, 64, one, {e: (0, 1)}, 64)


def test_expand_factor_directions():
    m = expand_factor(1, 2, frac_q_power(1), 2, 3)
    want = MLaurent(3, {
        (0, 0, 0): QFrac(1),
        (0, 1, -1): frac_q_power(1),
        (0, 2, -2): frac_q_power(2),
    })
    assert m == want
    # head after tail: the complementary expansion, with the minus sign
    m2 = expand_factor(2, 1, frac_q_power(1), 2, 3)
    want2 = MLaurent(3, {
        (0, 1, -1): frac_q_power(-1, -1),
        (0, 2, -2): frac_q_power(-2, -1),
    })
    assert m2 == want2


def test_ct_matches_series_expansion():
    # one factor 1/(1 - q x_h/x_t): CT 1 when the head comes first, else 0,
    # both through the elimination and through the truncated series
    for head, tail, want in ((0, 1, 1), (1, 0, 0), (1, 2, 1), (2, 1, 0)):
        term = RationalTerm(*pack({(0, 0, 0): ONE}), [(1, tail)], head)
        series = reference_series_ct(QFrac(1), MLaurent.constant(3, 1),
                                     [(frac_q_power(1), tail)], head)
        walk = factored_ct((Cyclo(), (0, 0, 0), [], [(1, tail)], head))
        assert rational_ct(term) == walk == series == QFrac(want), (head, tail)


def test_ct_partial_fraction_single_factor():
    # descending tail: nothing survives
    num = MLaurent.constant(3, 1)
    out = ct_partial_fraction(num, [(frac_q_power(1), 0)], 1)
    assert out == []
    # ascending tail: one term, and its value matches the geometric series
    out = ct_partial_fraction(num, [(frac_q_power(1), 2)], 1)
    assert len(out) == 1
    new_num, new_dens, head = out[0]
    assert new_num == MLaurent.constant(3, 1) and new_dens == [] and head == 2
    assert reference_series_ct(QFrac(1), num, [(frac_q_power(1), 2)], 1) == QFrac(1)


def test_ct_partial_fraction_two_factors_vs_series():
    # f = num / ((1 - q x_1/x_3)(1 - q^2 x_1/x_3)); eliminate x_1
    dens = [(frac_q_power(1), 3), (frac_q_power(2), 3)]
    # the second numerator has coefficients with denominators
    for num in (MLaurent.constant(4, 1),
                MLaurent(4, {(0, 0, 0, 0): parse_frac("(1)/(1 - q)"),
                             (0, -1, 0, 1): parse_frac("(q)/(1 - q^2)")})):
        pieces = ct_partial_fraction(num, dens, 1)
        total = QFrac(0)
        for new_num, new_dens, head in pieces:
            assert not new_dens
            total = total + constant_coefficient(new_num)
        assert total == reference_series_ct(QFrac(1), num, dens, 1)
    with pytest.raises(ValueError):
        ct_partial_fraction(MLaurent.constant(4, 1), [(parse_frac("1 + q"), 3)], 1)


def test_ct_partial_fraction_degree_precondition():
    # the elimination step itself still refuses; rational_ct divides first
    num = monomial(3, (2, 0, 0))
    with pytest.raises(ValueError, match="exceeds"):
        ct_partial_fraction(num, [(frac_q_power(1), 2)], 0)


def test_ct_partial_fraction_order_independence():
    # the set of substituted terms is independent of the factor list order
    num = monomial(3, (1, 0, 0))
    dens = [(frac_q_power(1), 1), (frac_q_power(2), 2)]

    def canon(pieces):
        out = []
        for new_num, new_dens, head in pieces:
            out.append((head, tuple(sorted((str(cf), t) for cf, t in new_dens)), str(new_num)))
        return sorted(out)

    assert canon(ct_partial_fraction(num, dens, 0)) == \
        canon(ct_partial_fraction(num, list(reversed(dens)), 0))


def test_build_Q_small_cts():
    # shape (1), b=c=0, d=1: the head function has constant term 1
    q = QukFactors(Shape((1,)), 0, 0, 1)
    assert factored_ct(q.term()) == QFrac(1)
    # b=1: -a = 1 is a predicted root, so the constant term vanishes
    q = QukFactors(Shape((1,)), 1, 0, 1)
    assert factored_ct(q.term()).is_zero()
    # p=0, n=2, b=c=1, d=1: again a root
    q = QukFactors(Shape((2,)), 1, 1, 1)
    assert factored_ct(q.term()).is_zero()


def test_V_vanishes_when_k_small():
    q = QukFactors(Shape((1, 1)), 2, 1, 3, (1,), (2,))
    assert q.is_zero()  # k_1 = 2 <= b
    assert q.vanishing_factor()[0] == "k<=b"


def test_r_vector_bookkeeping():
    q = QukFactors(Shape((1, 2, 2)), 0, 0, 2, (1, 3, 4), (1, 1, 1))
    assert r_vector(q.shape, q.u) == (1, 1, 1)
    q2 = QukFactors(Shape((1, 2, 2)), 0, 0, 2, (4, 5), (1, 1))
    assert r_vector(q2.shape, q2.u) == (0, 0, 2)


def test_direct_equals_substitution_oracle():
    # every probe has V != 0, so neither side is zero for a trivial reason
    probes = [
        ((1, 1), 1, 1, 2, (1,), (2,)),
        ((1, 1), 0, 1, 2, (1, 2), (2, 1)),
        ((1, 2), 1, 1, 3, (2,), (2,)),
        ((1, 2), 1, 1, 5, (1, 3), (4, 2)),
        ((1, 2), 0, 1, 5, (1, 2, 3), (3, 2, 5)),
        ((1, 1, 1), 1, 2, 6, (1, 2, 3), (6, 4, 2)),
    ]
    for shp, b, c, d, u, k in probes:
        assert not QukFactors(Shape(shp), b, c, d, u, k).is_zero(), (shp, b, c, d, u, k)
        assert oracle_matches_direct(Shape(shp), b, c, d, u, k), (shp, b, c, d, u, k)


def test_oracle_case_needs_a_nontrivial_probe(monkeypatch):
    assert cli._run_gx({"kind": "oracle"}) == (True, None)
    monkeypatch.setattr(gxseries.QukFactors, "is_zero", lambda self: True)
    ok, detail = cli._run_gx({"kind": "oracle"})
    assert not ok and "V = 0" in detail["error"]


def test_laurent_case_needs_a_nontrivial_probe(monkeypatch):
    case = next(params for params in cli._cases_gx(None) if params["kind"] == "laurent")
    assert cli._run_gx(case) == (True, None)
    check = gxseries.vanishing_property_checks
    monkeypatch.setattr(gxseries, "vanishing_property_checks", lambda *args: dict(check(*args), zero_by_V=True))
    ok, detail = cli._run_gx(case)
    assert not ok and detail == {"error": "no nontrivial laurent case"}


def test_oracle_comparison_tells_a_wrong_scalar_apart(monkeypatch):
    probe = (Shape((1, 2)), 1, 1, 5, (1, 3), (4, 2))
    assert not QukFactors(*probe).is_zero() and oracle_matches_direct(*probe)
    oracle = gxseries.substitution_oracle
    for wrong in (Cyclo(1, 1), Cyclo(-1), Cyclo.poch(1, 1), Cyclo(0)):
        def scaled(*args, wrong=wrong):
            scalar, pochs, dens = oracle(*args)
            return scalar * wrong, pochs, dens

        monkeypatch.setattr(gxseries, "substitution_oracle", scaled)
        assert not oracle_matches_direct(*probe), wrong


@pytest.mark.parametrize("b, c, u, k", [(-1, 1, (), ()), (1, -1, (), ()), (-1, 1, (1,), (2,)),
                                         (1, -1, (1,), (2,))])
def test_negative_pochhammer_lengths_are_rejected(b, c, u, k):
    with pytest.raises(ValueError, match="pochhammer length negative"):
        QukFactors(Shape((1, 2)), b, c, 2, u, k)


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


def test_property_laurent_fails_where_the_head_denominator_does_not_cancel(monkeypatch):
    # the gx-pipeline suite's laurent case with no cancellation: property (3)
    # fails every nontrivial term itself, and the suite case fails with it,
    # its witness the failing property report as JSON fields
    monkeypatch.setattr(gxseries, "_cancel_head_denominator", lambda q: None)
    shape, b, c, d = Shape((2, 4)), 1, 2, 5
    reports = [check_property_laurent(shape, b, c, d, u, k)
               for u in itertools.combinations(shape.block(1), 2) for k in [(d, 2), (2, d), (d, d)]]
    nontrivial = [rep for rep in reports if not rep["zero_by_V"]]
    assert len(nontrivial) == 6
    assert all(rep["divisible"] is False and rep["ok"] is False for rep in nontrivial)
    ok, witness = cli._run_gx({"kind": "laurent", "shape": [2, 4], "b": b, "c": c, "d": d})
    report = json.loads(json.dumps(witness))["report"]
    assert not ok and report["branch"] == "laurent"
    assert report["divisible"] is False and report["ok"] is False


def divide_binomial(poly: dict, h: int, t: int, m: int) -> dict | None:
    """poly / (1 - q^m x_h/x_t) on expanded {exponent tuple: QLaurent}
    coefficients, or None when it does not divide.

    Along each line e + j(e_h - e_t) the quotient obeys Q_j = N_j + q^m Q_{j-1};
    it is finite exactly when that recurrence ends at zero on the line's last
    point of N."""
    lines: dict = {}
    for e, p in poly.items():
        rest = list(e)
        rest[h] = None
        rest[t] += e[h]
        lines.setdefault(tuple(rest), {})[e[h]] = p
    qm = QLaurent.q_power(m)
    out = {}
    for rest, line in lines.items():
        acc, last = QLaurent(), max(line)
        for j in range(min(line), last + 1):
            acc = line.get(j, QLaurent()) + qm * acc
            if acc.is_zero():
                continue
            if j == last:
                return None
            e = list(rest)
            e[h], e[t] = j, rest[t] - j
            out[tuple(e)] = acc
    return out


def reference_cancelled_numerator(q) -> dict | None:
    """Q(d | u; k)'s head numerator divided by its head denominator, expanded,
    or None when it does not divide, derived without the factor multiset."""
    return _divide_head(q.shape.n + 1, q.head, tuple(q.num), tuple(q.dens))


@functools.lru_cache(maxsize=None)
def _divide_head(arity, h, num, dens):
    """Every head factor pairs x_head with one other variable x_i, so
    numerator and denominator split into one Laurent polynomial in x_i/x_head
    per i; each is expanded, divided by its binomials, and the quotients
    multiplied out (their monomials never collide: x_head's exponent follows
    the rest).  Cached on the factors, which perturbed runs reuse."""
    groups: dict = {}
    for a, b, m in num:
        groups.setdefault(b if a == h else a, []).append((a, b, m))
    out = {(0,) * arity: ONE}
    for i in sorted(set(groups) | {t for _, t in dens}):
        poly = ct_fold(arity, _one_based(groups.get(i, [])))
        for m, t in dens:
            if t == i:
                poly = divide_binomial(poly, h, t, m)
                if poly is None:
                    return None
        out = {tuple(x + y for x, y in zip(e, f)): p * r for e, p in out.items() for f, r in poly.items()}
    return out


@functools.lru_cache(maxsize=None)
def _expanded(arity, triples) -> dict:
    """The product of 0-based triples, expanded; cached for perturbed reruns."""
    return ct_fold(arity, _one_based(triples))


def reference_property_laurent_route(q, ell, res):
    """(laurent_form_ok, ct_zero) of property (3) the decoding way: read the
    ledger off every monomial of the expanded cancelled numerator res, then
    contract it against the expanded residual pairs."""
    n = q.shape.n
    outside = [i for i in range(1, n + 1) if i not in q.u]
    shifts = {i: q.d - len(q.u) * q.c - sum(epsilon(q.shape, i, x) for x in q.u) for i in outside}
    for e in res:
        if any(e[i] < shifts[i] for i in outside):
            return False, None
        if e[q.head] != ell - sum(e[i] - shifts[i] for i in outside):
            return False, None
    # each term x^e of the numerator reads the residual product at -e
    rest = ct_fold(n + 1, _one_based(q.residual_pairs))
    val = sum((p * rest.get(tuple(-x for x in e), QLaurent()) for e, p in res.items()), QLaurent())
    return True, val.is_zero()


@functools.lru_cache(maxsize=None)
def _gx_laurent_grid():
    """Every (shape, b, c, d, u, k) with b, c <= 2 and d <= 6 that takes the
    laurent branch, on the canonical shapes with n <= 4 (none does) and on
    (2,4) with |u| <= 3 (564 of them, 36 divisible; no larger u takes the
    branch in this range)."""
    grid = []
    for shape in all_shapes(4, canonical=True) + [Shape((2, 4))]:
        for b, c, d in itertools.product(range(3), range(3), range(1, 7)):
            for s in range(1, min(shape.n, 3) + 1):
                for u in itertools.combinations(range(1, shape.n + 1), s):
                    for k in itertools.product(range(1, d + 1), repeat=s):
                        if property_branch(shape, b, c, d, u, k) == "laurent":
                            grid.append((shape, b, c, d, u, k))
    return tuple(grid)


def _case4_by_permutations(shape: Shape, u, k, b: int, c: int, t: int) -> bool:
    """The staircase pattern of the key classification lemma, with block
    membership read off the variable indices u, by trying all s! orderings
    w of the positions: the oracle for ``gxseries._case4_exists``."""
    s = len(u)
    maxr = 0
    for blk in range(1, shape.p + 1):
        maxr = max(maxr, sum(1 for x in shape.block(blk) if x in u))

    def same(ia, ib):
        return epsilon(shape, u[ia - 1], u[ib - 1]) == 1

    for w in itertools.permutations(range(1, s + 1)):
        total = 0
        prev = 0
        for jj, x in enumerate(w):
            chi = 1 if (prev != 0 and same(prev, x)) else 0
            dj = k[x - 1] - b if jj == 0 else k[x - 1] - k[prev - 1] - c - chi
            if dj < 0 or (prev < x and dj < 1):
                break
            total += chi + dj
            prev = x
        else:
            if maxr <= total <= t:
                return True
    return False


def _gx_staircase_agrees(shape: Shape, u, k, b: int, c: int, t: int) -> bool:
    """``case4_staircase`` on property (3)'s labels, whose decorated blocks
    need not be runs of positions, against ``tests/test_roots.py``'s scan
    oracle, (w, d) included, through the tables cached on those labels;
    returns whether the staircase exists."""
    labels = (0,) + tuple(shape.block_of(x) or -x for x in u)
    got = roots.case4_staircase(k, labels, b, c, t)
    assert got == _staircase_by_scan(k, labels, b, c, t), (shape.parts, u, k, b, c, t)
    return got is not None


def test_case4_staircase_matches_permutation_search():
    # the staircase is found by one sort on (k_x, -x) whenever some ordering
    # of the positions realises it: random inputs, then every entry of the
    # laurent grid at the t its property (3) check uses
    rng = random.Random(15)
    shapes = all_shapes(5)
    found = 0
    for _ in range(3000):
        shape = rng.choice(shapes)
        u = tuple(rng.sample(range(1, shape.n + 1), rng.randint(1, min(shape.n, 4))))
        k = tuple(rng.randrange(1, 10) for _ in u)
        b, c, t = rng.randrange(3), rng.randrange(3), rng.randrange(6)
        want = _case4_by_permutations(shape, u, k, b, c, t)
        assert gxseries._case4_exists(shape, u, k, b, c, t) == want, (shape.parts, u, k, b, c, t)
        assert _gx_staircase_agrees(shape, u, k, b, c, t) == want
        found += want
    assert found > 200
    for shape, b, c, d, u, k in _gx_laurent_grid():
        t = c + t_table(shape)[len(u)]
        want = _case4_by_permutations(shape, u, k, b, c, t)
        assert gxseries._case4_exists(shape, u, k, b, c, t) == want, (shape.parts, b, c, d, u, k)
        assert _gx_staircase_agrees(shape, u, k, b, c, t) == want


def _moved_monomial(monkeypatch, move):
    # apply ``move(mono, q)`` to the cancelled numerator's monomial; the
    # reference route applies the same move to its own quotient
    cancel = gxseries._cancel_head_denominator

    def moved(q):
        scale, mono, triples = cancel(q)
        move(mono, q)
        return scale, mono, triples

    monkeypatch.setattr(gxseries, "_cancel_head_denominator", moved)
    return move


def _head_moved(monkeypatch):
    # one more x_head breaks the ledger e_head = ell - slack
    def move(mono, q):
        mono[q.head] += 1

    return _moved_monomial(monkeypatch, move)


def _outside_moved(monkeypatch):
    # x_head/x_i keeps the ledger sum but puts e_i below shift_i for the
    # first outside variable i
    def move(mono, q):
        mono[q.head] += 1
        mono[min(i for i in range(1, q.shape.n + 1) if i not in q.u)] -= 1

    return _moved_monomial(monkeypatch, move)


def _half_the_pairs(monkeypatch):
    # without the second half of the residual pairs the constant term is nonzero
    pairs = gxseries.pair_linear

    def half(shape, c, skip=()):
        out = list(pairs(shape, c, skip))
        return out[:len(out) // 2]

    monkeypatch.setattr(gxseries, "pair_linear", half)


@pytest.mark.parametrize("perturb, verdict", [
    (None, (True, True)),
    (_head_moved, (False, None)),
    (_half_the_pairs, (True, False)),
    (_outside_moved, (False, None)),
])
def test_property_laurent_matches_decoding_route(monkeypatch, perturb, verdict):
    # the cancelled numerator is derived twice: by the factor route's
    # multiset cancel, expanded, and by dividing the expanded head numerator;
    # a perturbed cancel's move is applied to the quotient too
    move = perturb(monkeypatch) if perturb is not None else None
    compared = 0
    for shape, b, c, d, u, k in _gx_laurent_grid():
        rep = check_property_laurent(shape, b, c, d, u, k)
        if not rep["divisible"]:
            continue
        q = QukFactors(shape, b, c, d, u, k)
        res = reference_cancelled_numerator(q)
        if move is not None:
            shift = [0] * (shape.n + 1)
            move(shift, q)
            res = moved(res, shift)
        scale, mono, triples = gxseries._cancel_head_denominator(q)
        expanded = _expanded(shape.n + 1, tuple(triples))
        assert moved(expanded, mono, QLaurent.q_power(scale.shift, scale.sign)) == res
        want = reference_property_laurent_route(q, rep["ledger_exponent"], res)
        got = (rep["laurent_form_ok"], rep["ct_zero"])
        assert got == want == verdict, (shape.parts, b, c, d, u, k)
        compared += 1
    assert compared == 36


def test_cancelled_numerator_times_denominator_is_the_numerator():
    # the cancellation is exact: the cancelled numerator times the stored
    # head denominator is the stored head numerator, compared as Factored values
    compared = 0
    for shape, b, c, d, u, k in _gx_laurent_grid():
        q = QukFactors(shape, b, c, d, u, k)
        cancelled = None if q.is_zero() else gxseries._cancel_head_denominator(q)
        if cancelled is None:
            continue
        scale, mono, triples = cancelled
        zero = (0,) * (shape.n + 1)
        lhs = gxseries._factored(scale, mono, triples + [(q.head, t, m) for m, t in q.dens])
        assert lhs == gxseries._factored(Cyclo(), zero, q.num), (shape.parts, b, c, d, u, k)
        compared += 1
    assert compared == 36


def test_a_cancel_that_keeps_the_denominator_fails_the_suite(monkeypatch, tmp_path, capsys):
    # the check confirms its own cancel: with the head denominator factors
    # left in the quotient the ledger and the constant term still read true,
    # but cancel_exact, the case and the gx-pipeline suite fail
    def divisible_reports():
        reps = [check_property_laurent(*case) for case in _gx_laurent_grid()]
        return [rep for rep in reps if rep["divisible"]]

    reps = divisible_reports()
    assert len(reps) == 36
    assert all(rep["cancel_exact"] and rep["ok"] for rep in reps)
    cancel = gxseries._cancel_head_denominator

    def kept(q):
        scale, mono, triples = cancel(q)
        return scale, mono, triples + [(i, q.head, -m) for m, i in q.dens]

    monkeypatch.setattr(gxseries, "_cancel_head_denominator", kept)
    reps = divisible_reports()
    assert len(reps) == 36
    assert all(rep["laurent_form_ok"] and rep["ct_zero"] for rep in reps)
    assert not any(rep["cancel_exact"] or rep["ok"] for rep in reps)
    laurent_case = next(case for case in cli._cases_gx(None) if case["kind"] == "laurent")
    assert cli._run_gx(laurent_case)[0] is False
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--suite", "gx-pipeline"]) == 1
    assert "1 fail" in capsys.readouterr().out


@st.composite
def cancelled_numerators(draw):
    """(arity, head, mono, triples): a random monomial times a random
    multiset of factors (1 - q^z x_i/x_head), repeated z allowed."""
    arity = draw(st.integers(2, 5))
    head = draw(st.integers(0, arity - 1))
    others = [i for i in range(arity) if i != head]
    mono = draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))
    triples = draw(st.lists(st.tuples(st.sampled_from(others), st.just(head), st.integers(-2, 2)),
                            max_size=7))
    return arity, head, mono, triples


@settings(max_examples=60, deadline=None)
@given(cancelled_numerators(), st.integers(-2, 2))
def test_divide_binomial_undoes_a_product(case, m):
    # the reference division is exact on a product that holds the binomial,
    # and refuses a constant, which no binomial divides
    arity, head, mono, triples = case
    tail = (head + 1) % arity
    want = moved(ct_fold(arity, _one_based(triples)), mono)
    poly = moved(ct_fold(arity, _one_based(triples + [(head, tail, m)])), mono)
    assert divide_binomial(poly, head, tail, m) == want
    assert divide_binomial({tuple(mono): ONE}, head, tail, m) is None


@settings(max_examples=150, deadline=None)
@given(cancelled_numerators())
def test_laurent_support_read_off_the_factors(case):
    # the expansion's support is the whole box mono + sum_i [0, count_i] (e_i - e_head):
    # its least e_i is mono[i] and e_head + sum_i e_i is mono[head] + sum_i mono[i]
    arity, head, mono, triples = case
    others = [i for i in range(arity) if i != head]
    support, _ = expand_numerator(arity, mono, triples)
    assert all(min(e[i] for e in support) == mono[i] for i in others)
    assert {sum(e) for e in support} == {mono[head] + sum(mono[i] for i in others)}
    counts = [sum(1 for i, _, _ in triples if i == v) for v in range(arity)]
    assert len(support) == prod(c + 1 for v, c in enumerate(counts) if v != head)


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


def _expanded_head_degree(term):
    """The top x_head-degree of a term's numerator, read off its expansion."""
    scale, mono, factors, dens, head = term
    num, _ = expand_numerator(len(mono), mono, factors)
    return max(e[head] for e in num)


def test_pipeline_divides_where_the_head_degree_reaches_m(monkeypatch):
    # every term the walk splits has a numerator whose expanded head degree
    # reaches its factor count, and every term it eliminates has one below;
    # on shape (1,2), b = c = 1 only d = 3 meets a split, and the value is exact
    shape = Shape((1, 2))
    poly = interpolate_dn(shape, 1, 1)
    split, eliminate = gxseries._split, gxseries._substitutions
    seen = []

    def spy(step, splits):
        def run(term):
            seen.append((splits, _expanded_head_degree(term) >= len(term[3])))
            return step(term)
        return run

    monkeypatch.setattr(gxseries, "_split", spy(split, True))
    monkeypatch.setattr(gxseries, "_substitutions", spy(eliminate, False))
    for d in (1, 2, 3):
        seen.clear()
        assert gx_ct(shape, 1, 1, d) == eval_poly(poly, -d), d
        assert all(splits == reached for splits, reached in seen), d
        assert any(splits for splits, _ in seen) == (d == 3), d


def test_pipeline_on_two_decorated_blocks():
    shape = Shape((1, 1, 1))
    poly = interpolate_dn(shape, 1, 1)
    for d in range(1, 5):
        got = gx_ct(shape, 1, 1, d)
        assert got == eval_poly(poly, -d), d


@pytest.mark.parametrize("parts, b, c, dmax", [
    ((1, 1, 1, 1), 0, 2, 1),
    ((1, 1, 1, 1), 1, 1, 5),
    ((1, 3), 1, 1, 5),
    ((2, 2), 1, 1, 5),
    ((1, 1, 2), 1, 1, 5),
])
def test_pipeline_on_four_variables(parts, b, c, dmax):
    # n = 4, outside the default gx-pipeline grid; b = 0 divides at most nodes
    shape = Shape(parts)
    poly = interpolate_dn(shape, b, c)
    for d in range(1, dmax + 1):
        assert gx_ct(shape, b, c, d) == eval_poly(poly, -d), d


def test_exact_ct_rational_matches_pipeline():
    shape = Shape((1, 1))
    for d in (1, 2, 3):
        q = QukFactors(shape, 1, 1, d)
        assert factored_ct(q.term()) == reference_ct(q)
    # substituted images, zero and nonzero alike
    for u, k in (((1,), (2,)), ((2,), (1,)), ((1, 2), (3, 1))):
        q = QukFactors(shape, 0, 1, 3, u, k)
        assert factored_ct(q.term()) == reference_ct(q), (u, k)


def test_degree_ledger_sign_tracks_the_laurent_window():
    # l = (n-s)(sc-d) + sum r_i(n_i-r_i) is nonnegative exactly while d stays
    # at or below sc + sum r_i(n_i-r_i)/(n-s)
    shape = Shape((2, 4))
    u, s, c = (3, 4), 2, 2
    q = QukFactors(shape, 1, c, 5, u, (5, 2))
    r = r_vector(q.shape, q.u)
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
    q = QukFactors(shape, 1, 2, 5, (3, 4), (5, 2))
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


# -- the factored walk against the packed route ------------------------------------------


@pytest.mark.parametrize("parts", [(1, 4), (2, 3), (1, 2, 2)])
def test_grand_check_on_five_variables(parts):
    # every d <= nb + 1 that `qct ct --method gx` evaluates at b = c = 1
    shape = Shape(parts)
    poly = interpolate_dn(shape, 1, 1)
    for d in range(1, shape.n + 2):
        assert gx_ct(shape, 1, 1, d) == eval_poly(poly, -d), d


def _gx_grid_terms():
    """Every (shape, b, c, d, u, k) with s < n of the gx-pipeline suite's
    ``branches`` and ``grand`` cases, s = 0 standing for Q(d) itself."""
    out = []
    for case in cli._cases_gx(None):
        if case["kind"] not in ("branches", "grand"):
            continue
        shape = Shape(case["shape"])
        b, c = case["b"], case["c"]
        for d in ([case["d"]] if "d" in case else range(1, case["dmax"] + 1)):
            for s in range(shape.n):
                for u in itertools.combinations(range(1, shape.n + 1), s):
                    for k in itertools.product(range(1, d + 1), repeat=s):
                        out.append((shape, b, c, d, u, k))
    return out


GX_GRID_TERMS = _gx_grid_terms()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GX_GRID_TERMS))
def test_walk_matches_packed_route_on_grid_terms(case):
    q = QukFactors(*case)
    assert factored_ct(q.term()) == rational_ct(rational_term(q)), case


@st.composite
def division_terms(draw):
    """A walk term whose head degree reaches its factor count: a head h with
    1-3 denominator factors (m, t) (distinct m on a tail, tails on both sides
    of h), numerator factors with x_h on top and on the bottom, some of them
    equal to a denominator factor or on one of its tails, and a monomial.
    ``rule`` "monomial" puts the whole head degree in the monomial, "factor"
    at least one x_h-on-top factor."""
    arity = draw(st.integers(3, 4))
    h = draw(st.integers(1, arity - 2))
    others = [v for v in range(arity) if v != h]
    dens = draw(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(others)), min_size=1,
                         max_size=3, unique=True))
    rule = draw(st.sampled_from(("monomial", "factor")))
    m = len(dens)
    exps = st.integers(-3, 3)
    # factors away from h, and with x_h underneath
    factors = [(a, b, e) for a, b, e in draw(st.lists(
        st.tuples(st.sampled_from(range(arity)), st.sampled_from(range(arity)), exps), max_size=3))
        if a != b and a != h]
    tops = 0
    if rule == "factor":
        pole = st.sampled_from(dens).map(lambda p: (h, p[1], p[0]))
        free = st.tuples(st.just(h), st.sampled_from(others), exps)
        tops = draw(st.integers(1, m + 1))
        factors += draw(st.lists(st.one_of(pole, free), min_size=tops, max_size=tops))
    mono = [draw(st.integers(-1, 1)) for _ in range(arity)]
    mono[h] = m - tops + draw(st.integers(0, 1))
    scale = Cyclo(draw(st.sampled_from([1, -1])), draw(st.integers(-2, 2)))
    factors = draw(st.permutations(factors))
    return rule, (scale, tuple(mono), list(factors), dens, h)


@settings(max_examples=200, deadline=None)
@given(division_terms())
def test_walk_matches_packed_route_on_division_terms(case):
    rule, term = case
    scale, mono, factors, dens, h = term
    assert gxseries._head_degree(mono, factors, h) >= len(dens)
    assert any(a == h for a, _, _ in factors) == (rule == "factor")
    # each split is a sum equal to the term it replaces
    children = gxseries._split(term)
    assert sum((factored_ct(c) for c in children), QFrac(0)) == factored_ct(term)
    assert factored_ct(term) == rational_ct(packed_term(term))


def test_no_default_grid_comes_near_the_term_budget(monkeypatch):
    # a thousandth of the budget holds every call of the gx-pipeline suite
    # and of the gx-query grid (n <= 3, b, c <= 1, d <= nb + 1)
    monkeypatch.setattr(gxseries, "MAX_TERMS", gxseries.MAX_TERMS // 1000)
    assert all(cli._run_gx(case)[0] for case in cli._cases_gx(None))
    for shape in all_shapes(3):
        for b, c in itertools.product(range(2), repeat=2):
            for d in range(1, shape.n * b + 2):
                gx_ct(shape, b, c, d)
    monkeypatch.setattr(gxseries, "MAX_TERMS", 1)
    with pytest.raises(RuntimeError, match="budget"):
        gx_ct(Shape((1, 2)), 1, 1, 3)


def test_property_expand_matches_packed_route():
    # on every expand-branch (u, k) of shape (1,2), b = c = 1, d <= 5
    shape = Shape((1, 2))
    compared = 0
    for d in range(1, 6):
        for s in range(1, 3):
            for u in itertools.combinations(range(1, 4), s):
                for k in itertools.product(range(1, d + 1), repeat=s):
                    if property_branch(shape, 1, 1, d, u, k) != "expand":
                        continue
                    rep = check_property_expand(shape, 1, 1, d, u, k)
                    assert rep["ok"] and reference_property_expand(shape, 1, 1, d, u, k), (d, u, k)
                    compared += rep["terms"]
    assert compared > 10


def test_oracle_comparison_matches_packed_route(monkeypatch):
    probe = (Shape((1, 2)), 1, 1, 5, (1, 3), (4, 2))
    assert oracle_matches_direct(*probe) and reference_oracle_matches_direct(*probe)
    oracle = gxseries.substitution_oracle

    def moved_pole(*args):
        # one denominator factor of the oracle's side one power of q off
        scalar, pochs, dens = oracle(*args)
        (m, t), *rest = dens
        return scalar, pochs, [(m + 1, t)] + rest

    perturbed = [lambda *a, wrong=wrong: (oracle(*a)[0] * wrong,) + oracle(*a)[1:]
                 for wrong in (Cyclo(1, 1), Cyclo.poch(2, 1), Cyclo(0))]
    for wrong in perturbed + [moved_pole]:
        monkeypatch.setattr(gxseries, "substitution_oracle", wrong)
        assert not oracle_matches_direct(*probe) and not reference_oracle_matches_direct(*probe)
