"""Constant terms of rational functions by partial-fraction elimination.

Rational functions here live in the field where x_0 is expanded first, then
x_1, and so on: a factor 1/(1 - q^m x_a/x_b) expands in positive powers of
x_a/x_b exactly when a comes before b in the order, and its constant term
with respect to x_a is then 1 (otherwise 0).  On top of that sit the
partial-fraction elimination walk, the head rational function Q(d) whose
constant term realizes the decorated product at negative argument, its
substituted images Q(d | u; k), and the vanishing-property checks that drive
the root analysis.

Exponent tuples have n + 1 slots, slot t holding x_t.  Every term of the
walk stays factored: a ``Cyclo`` scale, a monomial, a multiset of numerator
factors (1 - q^m x_a/x_b) and the denominator factors
(1 - q^{m_r} x_head/x_{tail_r}).  Substituting x_head = q^{-m_r} x_tail
turns each numerator factor into another one or into a scalar 1 - q^{m'},
and the branch is exactly zero when m' = 0.  The head degree is read off the
factors, exactly; where it reaches the number of denominator factors, one
numerator factor (or one x_head of the monomial) is cancelled against one
denominator factor, leaving at most two products.  Nothing is expanded but
one point fold per distinct numerator of a leaf (a term with no denominator
left), and a constant term is reduced once, at the end.  The vanishing
checks stay factored too: property (3) reads its Laurent-form ledger off the
cancelled numerator's factors, exactly, and takes its constant term by one
point fold.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import Factored
from .products import Shape, epsilon
from .qring import Cyclo, QFrac, cyclo_sum
from .roots import case4_staircase, t_table

# Most terms one constant term may visit before giving up.
MAX_TERMS = 200000


# -- the factored walk -----------------------------------------------------------------
#
# A term is (scale, mono, factors, dens, head): scale * x^mono * prod over the
# factors (a, b, m) of (1 - q^m x_a/x_b), over prod over dens (m_r, t_r) of
# (1 - q^{m_r} x_head/x_{t_r}).


@lru_cache(maxsize=4096)
def _binomials(ups: tuple, downs: tuple) -> Cyclo:
    """prod_u (1 - q^u) / prod_d (1 - q^d)."""
    return Cyclo.poch_product([(j, 1, 1) for j in ups] + [(j, 1, -1) for j in downs])


def _head_degree(mono, factors, h: int) -> int:
    """The top x_h-degree of a nonzero numerator: the monomial's, plus one
    per factor with x_h on top.  Exact, because every factor's leading
    x_h-coefficient is nonzero and Z[q^±1, x^±1] has no zero divisors."""
    return mono[h] + sum(1 for a, _, _ in factors if a == h)


def _substitute(term, r: int):
    """The term at x_head = q^{-m_r} x_{t_r}, with the r-th denominator factor
    cleared: t_r becomes the head, the factors on t_r become the scalars
    1/(1 - q^{m_s - m_r}), and a numerator factor that lands on one
    variable becomes the scalar 1 - q^{m'}, zero (a zero scale) when m' = 0."""
    scale, mono, factors, dens, h = term
    mr, t = dens[r]
    ups = []
    new = []
    for f in factors:
        a, b, m = f
        if a == h:
            if b == t:
                ups.append(m - mr)
                continue
            f = (t, b, m - mr)
        elif b == h:
            if a == t:
                ups.append(m + mr)
                continue
            f = (a, t, m + mr)
        new.append(f)
    new_dens = [(ms - mr, js) for ms, js in dens if js != t]
    if 0 in ups:
        return Cyclo(0), mono, new, new_dens, t
    downs = tuple(sorted(ms - mr for s, (ms, js) in enumerate(dens) if js == t and s != r))
    scale = scale * _binomials(tuple(sorted(ups)), downs)
    e = mono[h]
    if e:
        mono = list(mono)
        mono[t] += e
        mono[h] = 0
        mono = tuple(mono)
        scale = Cyclo(scale.sign, scale.shift - mr * e, scale.exps)
    return scale, mono, new, new_dens, t


def _substitutions(term) -> list:
    """One elimination step: a term per denominator factor whose tail comes
    after the head; the others contribute nothing."""
    h = term[4]
    return [_substitute(term, r) for r, (_, t) in enumerate(term[3]) if t > h]


def _drop(seq: list, i: int) -> list:
    return seq[:i] + seq[i + 1:]


def _moved(mono: tuple, up: int, down: int) -> tuple:
    """mono times x_up/x_down."""
    mono = list(mono)
    mono[up] += 1
    mono[down] -= 1
    return tuple(mono)


def _split(term) -> list:
    """The term as a sum of terms of lower head degree or fewer denominator
    factors, by cancelling one numerator factor with x_head on top against
    one denominator factor (1 - q^m x_h/x_t):
        (1 - q^a x_h/x_j) / (1 - q^m x_h/x_t)
            = q^{a-m} x_t/x_j + (1 - q^{a-m} x_t/x_j) / (1 - q^m x_h/x_t),
    preferring a = m and j = t (no second part), then j = t (the second part
    a scalar); with no such numerator factor, one x_h of the monomial, by
        x_h / (1 - q^m x_h/x_t) = -q^{-m} x_t + q^{-m} x_t / (1 - q^m x_h/x_t).
    """
    scale, mono, factors, dens, h = term
    tops = [f for f, (a, _, _) in enumerate(factors) if a == h]
    by_pair = {(m, t): r for r, (m, t) in enumerate(dens)}
    for f in tops:
        _, j, a = factors[f]
        if (a, j) in by_pair:
            return [(scale, mono, _drop(factors, f), _drop(dens, by_pair[a, j]), h)]
    if not tops:
        m, t = dens[0]
        mono = _moved(mono, t, h)
        return [(Cyclo(-scale.sign, scale.shift - m, scale.exps), mono, factors, dens[1:], h),
                (Cyclo(scale.sign, scale.shift - m, scale.exps), mono, factors, dens, h)]
    by_tail = {t: r for r, (_, t) in enumerate(dens)}
    f = next((f for f in tops if factors[f][1] in by_tail), tops[0])
    _, j, a = factors[f]
    r = by_tail.get(j, 0)
    m, t = dens[r]
    rest, fewer = _drop(factors, f), _drop(dens, r)
    first = Cyclo(scale.sign, scale.shift + a - m, scale.exps)
    if j == t:
        return [(first, mono, rest, fewer, h),
                (scale * _binomials((a - m,), ()), mono, rest, dens, h)]
    return [(first, _moved(mono, t, j), rest, fewer, h),
            (scale, mono, rest + [(t, j, a - m)], dens, h)]


def _factored(scale: Cyclo, mono, factors) -> Factored:
    """A numerator as a ``Factored`` value (whose variables are 1-based)."""
    return Factored(scale, mono, [(a + 1, b + 1, m) for a, b, m in factors])


def factored_ct(term) -> QFrac:
    """CT over every variable of one term (scale, mono, factors, dens, head),
    by the factored walk: a term with no denominator factor left is a leaf;
    one whose head degree reaches the number of denominator factors is
    split; any other takes one elimination step.  Each distinct leaf
    numerator takes one point fold, and the leaves' constant terms are added
    per distinct scale and reduced once."""
    stack = [term]
    leaves: dict = {}  # leaf numerator -> the scales it carries
    seen = 0
    while stack:
        term = stack.pop()
        seen += 1
        if seen > MAX_TERMS:
            raise RuntimeError("term budget exceeded")
        scale, mono, factors, dens, h = term
        if not scale.sign:
            continue
        if not dens:
            leaves.setdefault((mono, tuple(sorted(factors))), []).append(scale)
        elif _head_degree(mono, factors, h) >= len(dens):
            stack.extend(_split(term))
        else:
            stack.extend(_substitutions(term))
    cts = []
    for (mono, factors), scales in leaves.items():
        leaf = _factored(Cyclo(), mono, factors)
        ct = leaf.constant_term()
        cts += [(scale * leaf.scalar, ct) for scale in scales]
    return cyclo_sum(cts)


# -- the head rational function and its substituted images --------------------------------


class PochFactor:
    """(q^m x_a/x_b)_z with var index None standing for the literal 1."""

    __slots__ = ("m", "a", "b", "z")

    def __init__(self, m, a, b, z):
        if z < 0:
            raise ValueError("pochhammer length negative")
        self.m, self.a, self.b, self.z = m, a, b, z

    def __repr__(self):
        sa = "1" if self.a is None else f"x{self.a}"
        sb = "" if self.b is None else f"/x{self.b}"
        return f"(q^{self.m} {sa}{sb})_{self.z}"


class QukFactors:
    """The factized form of Q(d | u; k): its scale, V times the per-u
    elimination scalars (one factored Cyclo value, zero exactly when V is),
    the head-variable numerator and denominator Pochhammers, and the
    residual pair product over the untouched variables."""

    __slots__ = ("shape", "b", "c", "d", "u", "k", "scale", "num_pochs", "den_pochs",
                 "residual_pairs", "head")

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
            self.scale = Cyclo()
            self.num_pochs = [PochFactor(1, j, 0, b) for j in range(1, n + 1)]
            self.den_pochs = [PochFactor(-d, 0, j, d) for j in range(1, n + 1)]
            self.residual_pairs = _pair_pochs(shape, c, exclude=())
            return
        us = u[-1]
        ks = k[-1]
        self.head = us
        # V's symbols, then the elimination scalars under the fraction bar
        pochs = [(1 - ki, b, 1) for ki in k]
        for a in range(s):
            for bb in range(a + 1, s):
                z = c + epsilon(shape, u[a], u[bb])
                pochs += [(k[bb] - k[a], z, 1), (k[a] - k[bb] + 1, z, 1)]
        for ki in k:
            pochs += [(ki - d, d - ki, -1), (1, ki - 1, -1)]
        self.scale = Cyclo.poch_product(pochs)
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
        return r_vector(self.shape, self.u)

    def is_zero(self) -> bool:
        return not self.scale.sign

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

    # -- the factored term ------------------------------------------------------

    def numerator_triples(self) -> list[tuple[int, int, int]]:
        """(a, b, m) of the numerator's linear factors (1 - q^m x_a/x_b): the
        head-variable Pochhammers, then the residual pair product."""
        return _triples(self.num_pochs + self.residual_pairs)

    def den_factor_list(self) -> list[tuple[int, int]]:
        """(m, tail) pairs of the head-variable linear factors
        (1 - q^m x_head/x_tail)."""
        return [(pf.m + t, pf.b) for pf in self.den_pochs for t in range(pf.z)]

    def term(self):
        """The walk's term (scale, mono, factors, dens, head)."""
        return (self.scale, (0,) * (self.shape.n + 1), self.numerator_triples(),
                self.den_factor_list(), self.head)


def r_vector(shape: Shape, u) -> tuple[int, ...]:
    """r_i = |U intersect N_i| for i = 0..p."""
    uset = set(u)
    return tuple(sum(1 for x in shape.block(i) if x in uset) for i in range(shape.p + 1))


def _triples(pochs) -> list[tuple[int, int, int]]:
    return [(pf.a, pf.b, pf.m + t) for pf in pochs for t in range(pf.z)]


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
    construction, as rational functions of the surviving variables: each
    side's numerator times the other side's denominator, compared as
    ``Factored`` values."""
    direct = build_Quk(shape, b, c, d, u, k)
    scal, pochs, dens = substitution_oracle(shape, b, c, d, u, k)
    mono = (0,) * (shape.n + 1)

    def cross(scale, triples, other_dens):
        return _factored(scale, mono, triples + [(direct.head, t, m) for m, t in other_dens])

    return (cross(direct.scale, direct.numerator_triples(), dens)
            == cross(scal, _triples(pochs), direct.den_factor_list()))


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
    sig = _sigma_r(shape, r_vector(shape, u))
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
    reproduces the directly-built next-level terms, term by term, as
    ``Factored`` values."""
    q = QukFactors(shape, b, c, d, u, k)
    report = {"branch": "expand", "ok": True, "degree_ok": None, "terms": 0, "witness": None}
    term = q.term()
    scale, mono, factors, dens, head = term
    report["degree_ok"] = not scale.sign or _head_degree(mono, factors, head) < len(dens)
    if not report["degree_ok"]:
        report["ok"] = False
        return report
    if not scale.sign:
        return report
    ks = q.k[-1] if q.u else 0
    for r, (m, i) in enumerate(dens):
        if i < head:
            continue
        # the cleared factor was (1 - q^{k_s - d + t} x_head/x_i), fixing
        # k_{s+1} = d - t = k_s - (its q-exponent)
        k1 = ks - m
        if not 1 <= k1 <= d or i in q.u:
            report["ok"] = False
            report["witness"] = {"head": i, "bad_k": k1}
            return report
        child = _substitute(term, r)
        cand = QukFactors(shape, b, c, d, q.u + (i,), q.k + (k1,))
        if (child[4] != cand.head or sorted(child[3]) != sorted(cand.den_factor_list())
                or _factored(*child[:3]) != _factored(cand.scale, mono, cand.numerator_triples())):
            report["ok"] = False
            report["witness"] = {"u_next": i, "k_next": k1, "unmatched": True}
            return report
        report["terms"] += 1
    return report


def _case4_exists(shape: Shape, u, k, b: int, c: int, t: int) -> bool:
    """The staircase pattern of the key classification lemma, with block
    membership read off the actual variable indices u."""
    labels = (0,) + tuple(shape.block_of(x) or -x for x in u)
    return case4_staircase(k, labels, b, c, t) is not None


def check_property_laurent(shape, b, c, d, u, k) -> dict:
    """Property (3): either the term is outright zero, or its denominator
    cancels into the numerator, the Laurent form matches the degree ledger,
    and the constant term vanishes through the vanishing-coefficient family.
    An exact CT of the untouched rational term is computed as well.

    The cancelled numerator is x^mono times factors (1 - q^z x_i/x_head),
    i outside u, so it is read off its factors, exactly.  With
    y_i = x_i/x_head, the coefficient of y_i^j in prod (1 - q^z y_i) is
    +-e_j(q^{z_1}, ...), nonzero, and the y_i are independent; so the
    monomials of the expansion are the whole box
    mono + sum_i [0, count_i] (e_i - e_head), count_i the number of factors
    on x_i.  Its least e_i is mono[i], and e_head + sum_i e_i takes the one
    value mono[head] + sum_i mono[i].
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
    scale, mono, triples, shifts = cancelled
    # Laurent-form ledger: every monomial obeys e_i >= shift_i and
    # e_head = ell - sum_i (e_i - shift_i)
    outside = [i for i in range(1, n + 1) if i not in q.u]
    ledger = mono[q.head] + sum(mono[i] for i in outside)
    report["laurent_form_ok"] = ok_form = (all(mono[i] >= shifts[i] for i in outside)
                                           and ledger == ell + sum(shifts.values()))
    if not ok_form:
        report["ok"] = False
        return report
    # exact constant term over all surviving variables: one point fold of
    # the cancelled numerator times the residual pair product
    ct = _factored(scale, mono, triples + _triples(q.residual_pairs)).constant_term()
    report["ct_zero"] = ct.is_zero()
    report["ok"] = report["ct_zero"]
    return report


def _cancel_head_denominator(q: QukFactors):
    """Flip the head-directed numerator Pochhammers of H and divide out the
    denominator, or return None when some linear factor is missing.

    Returns the cancelled numerator as (scale, mono, triples, shifts): a
    ``Cyclo`` scale carrying every flip sign and power of q, the monomial,
    the factors (i, head, z) standing for (1 - q^z x_i/x_head), and the
    per-variable monomial shifts.
    """
    shape, d, c = q.shape, q.d, q.c
    n = shape.n
    us, ks = q.head, q.k[-1]
    s = q.s
    outside = [i for i in range(1, n + 1) if i not in q.u]
    mono = [0] * (n + 1)
    qexp = 0
    sign = 1
    triples = []
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
            triples += [(i, us, z)] * count
        shifts[i] = d - s * c - eps_sum
    return Cyclo(sign, qexp), mono, triples, shifts


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


def exact_ct_rational(q: QukFactors) -> QFrac:
    """Exact CT of Q(d | u; k) over every variable; assumes no vanishing
    property."""
    return factored_ct(q.term())


def gx_ct(shape: Shape, b: int, c: int, d: int) -> QFrac:
    """CT of Q(d) by repeated partial-fraction elimination."""
    return exact_ct_rational(build_Q(shape, b, c, d))
