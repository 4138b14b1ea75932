"""Constant terms of rational functions by partial-fraction elimination.

Rational functions here live in the field where x_0 is expanded first, then
x_1, and so on: a factor 1/(1 - q^m x_a/x_b) expands in positive powers of
x_a/x_b exactly when a comes before b in the order, and its constant term
with respect to x_a is then 1 (otherwise 0).  On top of that sit the
partial-fraction elimination step, the head rational function Q(d) whose
constant term realizes the decorated product at negative argument, its
substituted images Q(d | u; k), and the vanishing-property checks that drive
the root analysis.

Exponent tuples have n + 1 slots, slot t holding x_t.  Every denominator
factor of the pipeline is (1 - q^m x_head/x_tail) with an integer m, and
every scalar is a ratio of q-Pochhammer symbols: elimination keeps numerators
as {exponent tuple: (lo, mag)}, packed as the fold makes them, substitutes
by adding to ``lo`` and collects the scalars in a factored ``Cyclo``, so it
makes no gcd; a value is decoded only at a leaf, and a constant term is
reduced once, at the end.  A numerator whose head degree reaches the
number of factors is first divided by the denominator, exactly, so every
term is eliminated the same way and there is no other constant-term route.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .laurent import (FoldFactor, KeyBox, _decode_packed, _digit_width, fold_packed_raw,
                      linear_factors, pack_qlaurent, packed_add)
from .products import Shape, epsilon
from .qring import Cyclo, QFrac, cyclo_sum
from .roots import t_table

# Most rational terms one constant term may visit before giving up.
MAX_TERMS = 200000


# -- rational terms, the division step and the elimination step ---------------------


class RationalTerm:
    """scale * numerator / prod_r (1 - q^{m_r} x_head/x_{tail_r}), one shared head.

    The numerator maps exponent tuples to nonzero packed (lo, mag)
    coefficients in balanced base-2**B digits, as the fold makes them, and
    ``dens`` lists the (m_r, tail_r) pairs; every scalar fraction picked up
    along the way lives in the factored ``scale`` (a Cyclo), so coefficient
    arithmetic never reduces fractions term by term.
    """

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
    lo, mag = packed_add(cur, v, B)
    if mag:
        poly[e] = (lo, mag)
    else:
        del poly[e]


def _divide(num: dict, B: int, factors, k: int):
    """(quo, rem, B2) with num = quo * D + rem, D = prod_r (1 - q^{m_r} x_k/x_{t_r}),
    rem of x_k-degree below m = len(factors), and quo, rem packed at width B2.

    The top x_k-coefficient of D, (-1)^m q^{sum m_r} prod_r 1/x_{t_r}, is a
    unit, so the division is exact over Z[q^+-1][x^+-1]: each quotient term is
    a shifted, signed numerator coefficient.  Terms of x_k-degree >= m are
    reduced from the top degree down; the others pass to rem unchanged.

    Digit width: every digit of every value is bounded by the total L1 T of
    all the values.  Reducing a term c moves c to quo and adds c times
    D minus its top term, of L1 2^m - 1, lower down, so one x_k-degree level
    multiplies T by at most 2^m and the L = deg_k num - m + 1 levels by at
    most 2^(m L).  B2 is the digit width of that bound on num's exact T.
    """
    m = len(factors)
    arity = len(next(iter(num)))
    levels = max(e[k] for e in num) - m + 1
    values = {e: _decode_packed(lo, mag, B) for e, (lo, mag) in num.items()}
    B = _digit_width(sum(v.l1_norm() for v in values.values()) << (m * levels))
    num = {e: pack_qlaurent(v, B) for e, v in values.items()}
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


@lru_cache(maxsize=1024)
def _same_tail_scalar(exps: tuple) -> Cyclo:
    """prod_j 1/(1 - q^j) over ``exps``: what a substitution leaves of the
    factors on the cleared factor's tail."""
    return prod((Cyclo.poch(j, 1) for j in exps), start=Cyclo()) ** -1


def _eliminate(scale: Cyclo, num: dict, B: int, factors, k: int):
    """Core elimination step; returns (scale, num, dens, head, cleared) per
    surviving factor, with scalarized factors folded into the scale.

    Substituting x_k = q^{-m_r} x_{i_r} multiplies a coefficient of x_k^e by
    q^{-m_r e}, which adds -m_r e to its packed ``lo``, and turns
    (1 - q^{m_s} x_k/x_{i_s}) into a factor with exponent m_s - m_r, or into
    the scalar 1 - q^{m_s - m_r} on the same tail.  The substitution only
    merges coefficients, so it never raises their total L1, and the new
    numerators keep the digit width B.
    """
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
        get = sub.get
        for e, (lo, mag) in num.items():
            ek = e[k]
            if ek:
                ne = list(e)
                ne[k] = 0
                ne[ir] += ek
                e = tuple(ne)
                lo -= mr * ek
            cur = get(e)
            if cur is None:
                sub[e] = (lo, mag)
                continue
            clo, cm = cur
            if clo <= lo:
                s = cm + (mag << (B * (lo - clo)))
                lo = clo
            else:
                s = mag + (cm << (B * (clo - lo)))
            if s:
                sub[e] = (lo, s)
            else:
                del sub[e]
        same = tuple(ms - mr for s, (ms, js) in enumerate(factors) if js == ir and s != r)
        new_scale = scale * _same_tail_scalar(same) if same else scale
        new_dens = [(ms - mr, js) for ms, js in factors if js != ir]
        out.append((new_scale, sub, new_dens, ir, (mr, ir)))
    return out


# -- the head rational function and its substituted images --------------------------------


class PochFactor:
    """(q^m x_a/x_b)_z with var index None standing for the literal 1."""

    __slots__ = ("m", "a", "b", "z")

    def __init__(self, m, a, b, z):
        if z < 0:
            raise ValueError("pochhammer length negative")
        self.m, self.a, self.b, self.z = m, a, b, z

    def fold_factors(self, arity):
        return linear_factors(arity, None if self.a is None else self.a + 1,
                              None if self.b is None else self.b + 1, self.m, self.z)

    def __repr__(self):
        sa = "1" if self.a is None else f"x{self.a}"
        sb = "" if self.b is None else f"/x{self.b}"
        return f"(q^{self.m} {sa}{sb})_{self.z}"


class QukFactors:
    """The factized form of Q(d | u; k): scalar V, the per-u elimination
    scalars (both factored Cyclo values), the head-variable numerator and
    denominator Pochhammers, and the residual pair product over the
    untouched variables."""

    __slots__ = ("shape", "b", "c", "d", "u", "k", "V", "scalars", "num_pochs",
                 "den_pochs", "residual_pairs", "head")

    def __init__(self, shape: Shape, b: int, c: int, d: int, u=(), k=()):
        u = tuple(u)
        k = tuple(k)
        if d < 1:
            raise ValueError("d must be at least 1")
        if len(u) != len(k):
            raise ValueError("u and k must have equal length")
        if any(u[t] >= u[t + 1] for t in range(len(u) - 1)):
            raise ValueError("u must be strictly ascending")
        if any(not 1 <= x <= shape.n for x in u):
            raise ValueError("u out of range")
        if any(not 1 <= x <= d for x in k):
            raise ValueError("k entries must lie in 1..d")
        self.shape, self.b, self.c, self.d = shape, b, c, d
        self.u, self.k = u, k
        n = shape.n
        s = len(u)
        if s == 0:
            self.head = 0
            self.V = Cyclo()
            self.scalars = Cyclo()
            self.num_pochs = [PochFactor(1, j, 0, b) for j in range(1, n + 1)]
            self.den_pochs = [PochFactor(-d, 0, j, d) for j in range(1, n + 1)]
            self.residual_pairs = _pair_pochs(shape, c, exclude=())
            return
        us = u[-1]
        ks = k[-1]
        self.head = us
        V = Cyclo()
        for ki in k:
            V = V * Cyclo.poch(1 - ki, b)
        for a in range(s):
            for bb in range(a + 1, s):
                eps = epsilon(shape, u[a], u[bb])
                V = V * Cyclo.poch(k[bb] - k[a], c + eps) * Cyclo.poch(k[a] - k[bb] + 1, c + eps)
        self.V = V
        scal = Cyclo()
        for ki in k:
            scal = scal / (Cyclo.poch(ki - d, d - ki) * Cyclo.poch(1, ki - 1))
        self.scalars = scal
        outside = [i for i in range(1, n + 1) if i not in u]
        num = []
        dens = []
        for i in outside:
            num.append(PochFactor(1 - ks, i, us, b))
            dens.append(PochFactor(ks - d, us, i, d))
            for jj in range(s):
                eps = epsilon(shape, i, u[jj])
                chi_iu = 1 if i > u[jj] else 0
                chi_ui = 1 if u[jj] > i else 0
                num.append(PochFactor(k[jj] - ks + chi_iu, i, us, c + eps))
                num.append(PochFactor(ks - k[jj] + chi_ui, us, i, c + eps))
        self.num_pochs = num
        self.den_pochs = dens
        self.residual_pairs = _pair_pochs(shape, c, exclude=u)

    # -- bookkeeping ------------------------------------------------------------

    @property
    def s(self) -> int:
        return len(self.u)

    def r_vector(self) -> tuple[int, ...]:
        """r_i = |U intersect N_i| for i = 0..p."""
        uset = set(self.u)
        return tuple(sum(1 for x in self.shape.block(i) if x in uset)
                     for i in range(self.shape.p + 1))

    def is_zero(self) -> bool:
        return not self.V.sign

    def vanishing_factor(self):
        """A zero scalar Pochhammer inside V, if any, with its provenance."""
        b, c, k, u = self.b, self.c, self.k, self.u
        for t, ki in enumerate(k):
            if 1 <= ki <= b:
                return ("k<=b", t + 1, f"(q^{1 - ki})_{b}")
        s = len(k)
        for a in range(s):
            for bb in range(a + 1, s):
                eps = epsilon(self.shape, u[a], u[bb])
                diff = k[a] - k[bb]
                if -(c + eps) <= diff <= c + eps - 1:
                    tag = "same-block pair" if eps else "cross-block pair"
                    return (tag, (a + 1, bb + 1), f"difference {diff}")
        return None

    # -- expansion --------------------------------------------------------------

    def scale(self) -> Cyclo:
        """V times the elimination scalars: the fraction part of the term."""
        return self.V * self.scalars

    def numerator_poly(self) -> tuple[dict, int]:
        """(head numerator Pochhammers) * residual pair product as
        ({exponent tuple: (lo, mag)}, B), packed as the fold leaves it; the
        dict is empty when V vanishes."""
        if self.is_zero():
            return {}, _digit_width(1)
        n = self.shape.n
        factors = []
        for pf in self.num_pochs + self.residual_pairs:
            factors.extend(pf.fold_factors(n + 1))
        return fold_packed_raw(n + 1, factors)

    def den_factor_list(self) -> list[tuple[int, int]]:
        """(m, tail) pairs of the head-variable linear factors
        (1 - q^m x_head/x_tail)."""
        return [(pf.m + t, pf.b) for pf in self.den_pochs for t in range(pf.z)]

    def rational_term(self) -> RationalTerm:
        return RationalTerm(*self.numerator_poly(), self.den_factor_list(), self.head,
                            scale=self.scale())


def _pair_pochs(shape: Shape, c: int, exclude=()) -> list[PochFactor]:
    out = []
    for i in range(1, shape.n + 1):
        if i in exclude:
            continue
        for j in range(i + 1, shape.n + 1):
            if j in exclude:
                continue
            z = c + epsilon(shape, i, j)
            out.append(PochFactor(0, i, j, z))
            out.append(PochFactor(1, j, i, z))
    return out


def build_Q(shape: Shape, b: int, c: int, d: int) -> QukFactors:
    """Q(d): the decorated product at argument -d, as numerator Pochhammers
    over the denominator prod_j (q^{-d} x_0/x_j)_d, with x_0 retained."""
    return QukFactors(shape, b, c, d)


def build_Quk(shape: Shape, b: int, c: int, d: int, u, k) -> QukFactors:
    return QukFactors(shape, b, c, d, u, k)


def substitution_oracle(shape: Shape, b: int, c: int, d: int, u, k):
    """Q(d | u; k) built the other way: cancel the dying denominator factors
    of Q(d) against prod_i (1 - q^{-k_i} x_0/x_{u_i}) and apply the variable
    merge to every remaining factor.  Returns (scalar Cyclo, numerator
    Pochhammers, denominator (m, tail) pairs) in the merged variables.
    """
    u = tuple(u)
    k = tuple(k)
    s = len(u)
    if s == 0:
        q0 = build_Q(shape, b, c, d)
        return Cyclo(), q0.num_pochs + q0.residual_pairs, q0.den_factor_list()
    n = shape.n
    us, ks = u[-1], k[-1]
    shift = {0: ks}
    for t in range(s - 1):
        shift[u[t]] = ks - k[t]
    scalar = Cyclo()
    num_pochs = []
    dens = []

    def image(var):
        # returns (target var, q-shift) under the merge
        if var in shift:
            return us, shift[var]
        return var, 0

    # numerator factors of Q(d)
    src = [PochFactor(1, j, 0, b) for j in range(1, n + 1)] + _pair_pochs(shape, c)
    for pf in src:
        ta, sa = image(pf.a)
        tb, sb = image(pf.b)
        m = pf.m + sa - sb
        if ta == tb:
            scalar = scalar * Cyclo.poch(m, pf.z)
        else:
            num_pochs.append(PochFactor(m, ta, tb, pf.z))
    # denominator factors, with the cancelled linear pieces skipped
    for j in range(1, n + 1):
        tb, sb = image(j)
        for t in range(d):
            m = (t - d) + ks - sb
            if tb == us:
                # scalar piece; the one with m == 0 was cancelled pre-merge
                if m == 0:
                    continue
                scalar = scalar / Cyclo.poch(m, 1)
            else:
                dens.append((m, tb))
    return scalar, num_pochs, dens


def oracle_matches_direct(shape: Shape, b: int, c: int, d: int, u, k) -> bool:
    """Cross-multiplied equality of the substitution oracle and the direct
    construction, as rational functions of the surviving variables."""
    direct = build_Quk(shape, b, c, d, u, k)
    scal, pochs, dens = substitution_oracle(shape, b, c, d, u, k)
    arity = shape.n + 1

    def expand(poch_list, dlist):
        # one side's numerator Pochhammers times the other side's denominator
        factors = []
        for pf in poch_list:
            factors.extend(pf.fold_factors(arity))
        factors += [FoldFactor.linear(arity, direct.head + 1, tail + 1, m) for m, tail in dlist]
        return fold_packed_raw(arity, factors)

    lhs = expand(direct.num_pochs + direct.residual_pairs, dens)
    rhs = expand(pochs, direct.den_factor_list())
    return _scaled_equal(direct.scale(), *lhs, scal, *rhs)


def _scaled_equal(scale_a: Cyclo, num_a: dict, B_a: int, scale_b: Cyclo, num_b: dict,
                  B_b: int) -> bool:
    """scale_a * num_a == scale_b * num_b coefficient by coefficient, for
    packed numerators (digit widths B_a, B_b) without zero values.  Packed
    values are not canonical (a cancelled sum may keep zero low digits), so
    each is decoded and cross-multiplied by the parts of scale_a / scale_b
    over and under the fraction bar: no gcd."""
    if not scale_a.sign:
        num_a = {}
    if not scale_b.sign:
        num_b = {}
    if num_a.keys() != num_b.keys():
        return False
    if not num_a:
        return True
    over, under = (scale_a / scale_b).split()
    return all(over.times(_decode_packed(*v, B_a)) == under.times(_decode_packed(*num_b[e], B_b))
               for e, v in num_a.items())


# -- the three vanishing properties -----------------------------------------------------


def _sigma_r(shape: Shape, r) -> int:
    return sum(r[i] * (shape.parts[i] - r[i]) for i in range(1, shape.p + 1))


def property_branch(shape: Shape, b: int, c: int, d: int, u, k) -> str:
    """Which property's d-condition applies: 'zero', 'expand', 'laurent', or
    'gap' when none of the three ranges covers this d."""
    s = len(u)
    n = shape.n
    ts = t_table(shape)
    if s >= 1 and d <= (s - 1) * c + b + ts[s - 1]:
        return "zero"
    if s == n:
        return "gap"
    q = QukFactors(shape, b, c, d, u, k)
    sig = _sigma_r(shape, q.r_vector())
    if (d - s * c) * (n - s) > sig:
        return "expand"
    if s * c + ts[s] + 1 <= d:
        return "laurent"
    return "gap"


def check_property_zero(shape, b, c, d, u, k) -> dict:
    """Property (1): the substituted product vanishes through a zero factor."""
    q = QukFactors(shape, b, c, d, u, k)
    witness = q.vanishing_factor()
    return {
        "branch": "zero",
        "ok": q.is_zero() and witness is not None,
        "witness": witness,
    }


def check_property_expand(shape, b, c, d, u, k) -> dict:
    """Property (2): the degree condition holds and one elimination step
    reproduces the directly-built next-level terms, term by term."""
    q = QukFactors(shape, b, c, d, u, k)
    report = {"branch": "expand", "ok": True, "degree_ok": None, "terms": 0, "witness": None}
    num, B = q.numerator_poly()
    dens = q.den_factor_list()
    deg = max((e[q.head] for e in num), default=0)
    report["degree_ok"] = deg < len(dens)
    if not report["degree_ok"]:
        report["ok"] = False
        return report
    if not num:
        return report
    ks = q.k[-1] if q.u else 0
    for scale, new_num, new_dens, new_head, cleared in _eliminate(q.scale(), num, B, dens, q.head):
        # the cleared factor was (1 - q^{k_s - d + t} x_head/x_i), fixing
        # k_{s+1} = d - t = k_s - (its q-exponent)
        m, i = cleared
        k1 = ks - m
        if not 1 <= k1 <= d or i in q.u or i <= q.head:
            report["ok"] = False
            report["witness"] = {"head": new_head, "bad_k": k1}
            return report
        cand = QukFactors(shape, b, c, d, q.u + (i,), q.k + (k1,))
        if not _terms_equal(scale, new_num, B, new_dens, new_head, cand):
            report["ok"] = False
            report["witness"] = {"u_next": i, "k_next": k1, "unmatched": True}
            return report
        report["terms"] += 1
    return report


def _terms_equal(scale_a: Cyclo, num_a: dict, B_a: int, dens_a, head_a,
                 cand: QukFactors) -> bool:
    if head_a != cand.head:
        return False
    if sorted(dens_a) != sorted(cand.den_factor_list()):
        return False
    return _scaled_equal(scale_a, num_a, B_a, cand.scale(), *cand.numerator_poly())


def _case4_exists(shape: Shape, u, k, b: int, c: int, t: int) -> bool:
    """The staircase pattern of the key classification lemma, with block
    membership read off the actual variable indices u."""
    from itertools import permutations as _perms

    s = len(u)
    uset = set(u)
    maxr = 0
    for blk in range(1, shape.p + 1):
        maxr = max(maxr, sum(1 for x in shape.block(blk) if x in uset))

    def same(ia, ib):
        return epsilon(shape, u[ia - 1], u[ib - 1]) == 1

    for w in _perms(range(1, s + 1)):
        total = 0
        ok = True
        prev = 0
        for jj, x in enumerate(w):
            chi = 1 if (prev != 0 and same(prev, x)) else 0
            if jj == 0:
                dj = k[x - 1] - b
            else:
                dj = k[x - 1] - k[prev - 1] - c - chi
            if dj < 0 or (prev < x and dj < 1):
                ok = False
                break
            total += chi + dj
            prev = x
        if ok and maxr <= total <= t:
            return True
    return False


def check_property_laurent(shape, b, c, d, u, k) -> dict:
    """Property (3): either the term is outright zero, or its denominator
    cancels into the numerator, the Laurent form matches the degree ledger,
    and the constant term vanishes through the vanishing-coefficient family.
    An exact CT of the untouched rational term is computed as well.
    """
    q = QukFactors(shape, b, c, d, u, k)
    s = q.s
    n = shape.n
    ts = t_table(shape)
    report = {
        "branch": "laurent",
        "ok": True,
        "zero_by_V": False,
        "in_laurent_bound": d <= s * c + b + ts[s],
        "case4": None,
        "divisible": None,
        "laurent_form_ok": None,
        "ledger_exponent": None,
        "vanishing_precondition_ok": None,
        "ct_zero": None,
        "witness": None,
    }
    if q.is_zero():
        report["zero_by_V"] = True
        report["witness"] = q.vanishing_factor()
        return report
    report["case4"] = _case4_exists(shape, u, k, b, c, c + ts[s])
    r = q.r_vector()
    ell = (n - s) * (s * c - d) + _sigma_r(shape, r)
    report["ledger_exponent"] = ell
    if ell < 0:
        report["ok"] = False
        report["witness"] = "negative ledger exponent inside the laurent range"
        return report
    # precondition of the vanishing-coefficient family: the denominator
    # deficits must fit inside the undecorated block
    lhs = sum(s * c + r[t] - d for t in range(1, shape.p + 1))
    report["vanishing_precondition_ok"] = lhs <= shape.parts[0] - r[0] - 1
    if not report["vanishing_precondition_ok"]:
        report["ok"] = False
        return report
    cancelled = _cancel_head_denominator(q)
    report["divisible"] = cancelled is not None
    if cancelled is None:
        # outside the structural path: fall back to the exact rational CT
        report["ct_zero"] = exact_ct_rational(q).is_zero()
        report["ok"] = report["ct_zero"]
        return report
    factors, shifts = cancelled
    # Laurent-form ledger: every monomial of the cancelled numerator obeys
    # e_i >= shift_i and e_head = ell - sum_i (e_i - shift_i), read off the
    # int keys of its expansion: no key and no coefficient is decoded
    box = KeyBox(n + 1, [[factors]])
    support = box.fold(factors)
    outside = [i for i in range(1, n + 1) if i not in q.u]
    ok_form = all(x >= shifts[i] for i in outside for x in box.slot_sums(support, (i,)))
    ledger = box.slot_sums(support, [q.head] + outside)
    report["laurent_form_ok"] = ok_form = ok_form and ledger <= {ell + sum(shifts.values())}
    if not ok_form:
        report["ok"] = False
        return report
    # exact constant term over all surviving variables: one point fold of
    # the cancelled numerator times the residual pair product
    for pf in q.residual_pairs:
        factors.extend(pf.fold_factors(n + 1))
    zero = (0,) * (n + 1)
    ct, _ = fold_packed_raw(n + 1, factors, zero, zero)
    report["ct_zero"] = not ct
    report["ok"] = report["ct_zero"]
    return report


def _cancel_head_denominator(q: QukFactors):
    """Flip the head-directed numerator Pochhammers of H and divide out the
    denominator, or return None when some linear factor is missing.

    Returns (fold factors for the cancelled numerator, per-variable monomial
    shifts), with all flip signs and q-powers carried by a monomial factor.
    """
    shape, d, c = q.shape, q.d, q.c
    n = shape.n
    us, ks = q.head, q.k[-1]
    s = q.s
    outside = [i for i in range(1, n + 1) if i not in q.u]
    mono = [0] * (n + 1)
    qexp = 0
    sign = 1
    factors: list[FoldFactor] = []
    shifts = {}
    for i in outside:
        runs = []  # available (1 - q^z x_i/x_us) exponents, with multiplicity
        # b-run from (q^{1-k_s} x_i/x_us)_b
        for t in range(q.b):
            runs.append(1 - ks + t)
        eps_sum = 0
        for jj in range(s):
            eps = epsilon(shape, i, q.u[jj])
            eps_sum += eps
            chi_iu = 1 if i > q.u[jj] else 0
            chi_ui = 1 if q.u[jj] > i else 0
            # unflipped run
            for t in range(c + eps):
                runs.append(q.k[jj] - ks + chi_iu + t)
            # flipped run from (q^{k_s-k_j+chi} x_us/x_i)_{c+eps}
            z = c + eps
            m = ks - q.k[jj] + chi_ui
            sign *= (-1) ** z
            qexp += m * z + z * (z - 1) // 2
            mono[us] += z
            mono[i] -= z
            for t in range(z):
                runs.append(1 - z - m + t)
        # flipped denominator (q^{k_s-d} x_us/x_i)_d -> S_0 in x_i/x_us direction
        sign *= (-1) ** d
        qexp -= (ks - d) * d + d * (d - 1) // 2
        mono[us] -= d
        mono[i] += d
        need = list(range(1 - ks, d - ks + 1))
        pool: dict[int, int] = {}
        for z in runs:
            pool[z] = pool.get(z, 0) + 1
        for z in need:
            if pool.get(z, 0) <= 0:
                return None
            pool[z] -= 1
        for z, count in pool.items():
            for _ in range(count):
                # slot t holds x_t, so 1-based factor indices are slot + 1
                factors.append(FoldFactor.linear(n + 1, i + 1, us + 1, z))
        shifts[i] = d - s * c - eps_sum
    factors.insert(0, FoldFactor.monomial(n + 1, tuple(mono), qexp, sign))
    return factors, shifts


def vanishing_property_checks(shape: Shape, b: int, c: int, d: int, u, k) -> dict:
    """Dispatch on the d-ranges of the three vanishing properties and run the
    matching check; 'gap' terms carry no assertion and are reported as such."""
    branch = property_branch(shape, b, c, d, u, k)
    if branch == "zero":
        return check_property_zero(shape, b, c, d, u, k)
    if branch == "expand":
        return check_property_expand(shape, b, c, d, u, k)
    if branch == "laurent":
        return check_property_laurent(shape, b, c, d, u, k)
    return {"branch": "gap", "ok": True, "witness": "no property covers this d"}


# -- the full elimination pipeline ---------------------------------------------------------


def rational_ct(term: RationalTerm) -> QFrac:
    """CT over every variable of one rational term, by repeated
    partial-fraction elimination.

    At each node the part of the numerator whose head degree reaches the
    number m of denominator factors is divided by the denominator: the
    quotient's constant coefficient is a leaf at the node's scale and the
    remainder, of head degree below m, is eliminated.  The constant terms of
    the leaves are added per distinct scale and reduced once.
    """
    stack = [term]
    leaves = []  # (scale, constant term) pairs
    seen = 0
    while stack:
        t = stack.pop()
        seen += 1
        if seen > MAX_TERMS:
            raise RuntimeError("term budget exceeded")
        num, B = t.num, t.B
        if not num:
            continue
        zero = (0,) * len(next(iter(num)))
        if not t.dens:
            if zero in num:
                leaves.append((t.scale, _decode_packed(*num[zero], B)))
            continue
        if max(e[t.head] for e in num) >= len(t.dens):
            quo, num, B = _divide(num, B, t.dens, t.head)
            if zero in quo:
                leaves.append((t.scale, _decode_packed(*quo[zero], B)))
        for scale, new_num, new_dens, new_head, _ in _eliminate(t.scale, num, B, t.dens, t.head):
            stack.append(RationalTerm(new_num, B, new_dens, new_head, scale=scale))
    return cyclo_sum(leaves)


def exact_ct_rational(q: QukFactors) -> QFrac:
    """Exact CT of Q(d | u; k) over every variable; assumes no vanishing
    property."""
    return rational_ct(q.rational_term())


def gx_ct(shape: Shape, b: int, c: int, d: int) -> QFrac:
    """CT of Q(d) by repeated partial-fraction elimination."""
    return exact_ct_rational(build_Q(shape, b, c, d))
