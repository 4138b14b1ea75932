"""Constant terms of rational functions by partial-fraction elimination.

Rational functions here live in the field where x_0 is expanded first, then
x_1, and so on: a factor 1/(1 - q^m x_a/x_b) expands in positive powers of
x_a/x_b exactly when a comes before b in the order, and its constant term
with respect to x_a is then 1 (otherwise 0).  On top of that sit the
partial-fraction elimination walk, the head rational function Q(d) whose
constant term realizes the decorated product at negative argument, its
substituted images Q(d | u; k), and the vanishing-property checks that drive
the root analysis.  Q(d | u; k) is kept in linear factors from the start:
its head numerator as triples (a, b, m), its head denominator as pairs
(m, tail), and its residual pair product from ``products.pair_linear``.

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
checks stay factored too: property (3) turns the stored head factors to
x_i/x_head, cancels the head denominator out of them as a multiset (a term
where it does not cancel fails), reads its Laurent-form ledger off the
cancelled numerator's factors, exactly, and takes its constant term by one
point fold.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .laurent import Factored
from .products import Shape, epsilon, pair_linear
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


class QukFactors:
    """The factored form of Q(d | u; k), and of Q(d), the decorated product at
    argument -d with x_0 retained, when u = k = (): its scale, V times the per-u
    elimination scalars (one factored Cyclo value, zero exactly when V is);
    ``num``, the head-variable numerator factors as triples (a, b, m) for
    (1 - q^m x_a/x_b); ``dens``, the head denominator factors as pairs
    (m, tail) for (1 - q^m x_head/x_tail); and ``residual_pairs``, the pair
    product over the untouched variables from ``pair_linear``."""

    __slots__ = ("shape", "b", "c", "d", "u", "k", "scale", "num", "dens",
                 "residual_pairs", "head")

    def __init__(self, shape: Shape, b: int, c: int, d: int, u=(), k=()):
        u = tuple(u)
        k = tuple(k)
        if d < 1:
            raise ValueError("d must be at least 1")
        if b < 0 or c < 0:
            raise ValueError("pochhammer length negative")
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
        self.residual_pairs = list(pair_linear(shape, c, skip=u))
        # with u empty, x_0 is the head and k_s = 0
        us, ks = (u[-1], k[-1]) if u else (0, 0)
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
        num = []
        dens = []
        for i in range(1, n + 1):
            if i in u:
                continue
            num += [(i, us, 1 - ks + t) for t in range(b)]
            dens += [(ks - d + t, i) for t in range(d)]
            for uj, kj in zip(u, k):
                z = c + epsilon(shape, i, uj)
                num += [(i, us, kj - ks + (i > uj) + t) for t in range(z)]
                num += [(us, i, ks - kj + (uj > i) + t) for t in range(z)]
        self.num = num
        self.dens = dens

    # -- bookkeeping ------------------------------------------------------------

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
        """The whole numerator: the head-variable factors, then the residual
        pair product."""
        return self.num + self.residual_pairs

    def term(self):
        """The walk's term (scale, mono, factors, dens, head)."""
        return (self.scale, (0,) * (self.shape.n + 1), self.numerator_triples(), self.dens,
                self.head)


def r_vector(shape: Shape, u) -> tuple[int, ...]:
    """r_i = |U intersect N_i| for i = 0..p."""
    uset = set(u)
    return tuple(sum(1 for x in shape.block(i) if x in uset) for i in range(shape.p + 1))


def substitution_oracle(shape: Shape, b: int, c: int, d: int, u, k):
    """Q(d | u; k) built the other way: cancel the dying denominator factors
    of Q(d) against prod_i (1 - q^{-k_i} x_0/x_{u_i}) and map every remaining
    factor of Q(d) through the variable merge; a factor whose two sides land
    on one variable becomes the scalar 1 - q^m.  Returns (scalar Cyclo,
    numerator triples, denominator (m, tail) pairs) in the merged variables.
    """
    q0 = QukFactors(shape, b, c, d)
    u = tuple(u)
    k = tuple(k)
    # x_0 and u_1..u_{s-1} merge into x_{u_s}, each with its q-shift; with u
    # empty, x_0 merges into itself
    us, ks = (u[-1], k[-1]) if u else (0, 0)
    shift = {0: ks}
    shift.update((x, ks - kx) for x, kx in zip(u[:-1], k[:-1]))

    def image(var):
        return (us, shift[var]) if var in shift else (var, 0)

    scalars = []  # (m, 1, +-1): the symbols (1 - q^m) up and down
    num = []
    for x, y, m in q0.numerator_triples():
        (tx, sx), (ty, sy) = image(x), image(y)
        if tx == ty:
            scalars.append((m + sx - sy, 1, 1))
        else:
            num.append((tx, ty, m + sx - sy))
    dens = []
    for m, j in q0.dens:
        tj, sj = image(j)
        m += ks - sj
        if tj != us:
            dens.append((m, tj))
        elif m:  # the piece with m == 0 was cancelled before the merge
            scalars.append((m, 1, -1))
    return Cyclo.poch_product(scalars), num, dens


def oracle_matches_direct(shape: Shape, b: int, c: int, d: int, u, k) -> bool:
    """Cross-multiplied equality of the substitution oracle and the direct
    construction, as rational functions of the surviving variables: each
    side's numerator times the other side's denominator, compared as
    ``Factored`` values."""
    direct = QukFactors(shape, b, c, d, u, k)
    scal, triples, dens = substitution_oracle(shape, b, c, d, u, k)
    mono = (0,) * (shape.n + 1)

    def cross(scale, triples, other_dens):
        return _factored(scale, mono, triples + [(direct.head, t, m) for m, t in other_dens])

    return (cross(direct.scale, direct.numerator_triples(), dens)
            == cross(scal, triples, direct.dens))


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
        # the cleared factor was (1 - q^{k_s - d + t} x_head/x_i), i not in
        # u, fixing k_{s+1} = d - t = k_s - (its q-exponent), in 1..d
        k1 = ks - m
        child = _substitute(term, r)
        cand = QukFactors(shape, b, c, d, q.u + (i,), q.k + (k1,))
        if (child[4] != cand.head or sorted(child[3]) != sorted(cand.dens)
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
    """Property (3): either the term is outright zero, or its head
    denominator cancels into the numerator (``divisible``, and
    ``cancel_exact``: the quotient times the denominator is the numerator),
    the Laurent form matches the degree ledger, and the constant term
    vanishes through the vanishing-coefficient family.  A term whose
    denominator does not cancel fails.

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
    s = len(q.u)
    n = shape.n
    ts = t_table(shape)
    report = {
        "branch": "laurent",
        "ok": True,
        "zero_by_V": False,
        "in_laurent_bound": d <= s * c + b + ts[s],
        "case4": None,
        "divisible": None,
        "cancel_exact": None,
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
    r = r_vector(shape, q.u)
    ell = (n - s) * (s * c - d) + _sigma_r(shape, r)
    report["ledger_exponent"] = ell
    if ell < 0:
        report["ok"] = False
        report["witness"] = "negative ledger exponent"
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
        report["ok"] = False
        return report
    scale, mono, triples = cancelled
    # the cancel is exact: the cancelled numerator times the head
    # denominator, as factors (head, i, m), is the head numerator
    report["cancel_exact"] = (_factored(scale, mono, triples + [(q.head, i, m) for m, i in q.dens])
                              == _factored(Cyclo(), [0] * (n + 1), q.num))
    # Laurent-form ledger: every monomial obeys e_i >= shift_i and
    # e_head = ell - sum_i (e_i - shift_i), shift_i = d - sc - sum_j eps(i, u_j)
    outside = [i for i in range(1, n + 1) if i not in q.u]
    shifts = [d - s * c - sum(epsilon(shape, i, x) for x in q.u) for i in outside]
    ledger = mono[q.head] + sum(mono[i] for i in outside)
    report["laurent_form_ok"] = ok_form = (all(mono[i] >= sh for i, sh in zip(outside, shifts))
                                           and ledger == ell + sum(shifts))
    if not ok_form:
        report["ok"] = False
        return report
    # exact constant term over all surviving variables: one point fold of
    # the cancelled numerator times the residual pair product
    ct = _factored(scale, mono, triples + q.residual_pairs).constant_term()
    report["ct_zero"] = ct.is_zero()
    report["ok"] = report["ct_zero"] and report["cancel_exact"]
    return report


def _cancel_head_denominator(q: QukFactors):
    """Divide the head numerator by the head denominator, or return None when
    some denominator factor is missing from it.

    A factor (head, i, m) turns to -q^m (x_head/x_i)(1 - q^{-m} x_i/x_head);
    each denominator factor is turned the same way and its linear part is
    removed from the numerator multiset.  Returns (scale, mono, triples): a
    ``Cyclo`` scale carrying every sign and power of q of the turns, the
    monomial as a list, and the factors (i, head, z) standing for
    (1 - q^z x_i/x_head).
    """
    h = q.head
    mono = [0] * (q.shape.n + 1)
    sign, shift = 1, 0
    pool = Counter()
    for a, i, m in q.num:
        if a == h:
            sign, shift = -sign, shift + m
            mono[h] += 1
            mono[i] -= 1
            a, i, m = i, h, -m
        pool[a, i, m] += 1
    for m, i in q.dens:
        if not pool[i, h, -m]:
            return None
        pool[i, h, -m] -= 1
        sign, shift = -sign, shift - m
        mono[h] -= 1
        mono[i] += 1
    return Cyclo(sign, shift), mono, list(pool.elements())


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


def gx_ct(shape: Shape, b: int, c: int, d: int) -> QFrac:
    """CT of Q(d) by repeated partial-fraction elimination."""
    return factored_ct(QukFactors(shape, b, c, d).term())
