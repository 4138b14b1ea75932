"""The constant-term fold engine, factored products and the expanded
``MLaurent`` form.

``MLaurent`` stores terms as a dict from exponent tuples to nonzero ``QFrac``
coefficients.  Exponent tuples are plain tuples of ints, one slot per
variable; slot t corresponds to the variable printed as ``x{t+1}``.  It is
the form ``splitting.pair_product`` returns and the tests' oracles
compute in; no constant-term route expands a product into it.

The constant-term fold engine multiplies out a product of linear factors,
each a triple (a, b, m) for (1 - q^m x_a/x_b) with 1-based variables and
``None`` for the literal 1, factor by factor, dropping the partial monomials
whose exponents cannot return to the requested target window.  Pruning never
changes the result, only the work.  A monomial prefactor x^mu never enters
the fold: it moves the target, since the constant term of x^mu P is the
coefficient of x^-mu in P.  There is one kernel and one step:

* each monomial is one int key, its exponent vector in mixed radix over the
  box that holds every pruning window (Kronecker substitution), so a term
  moves a state by one int add and the window test decodes only the one or
  two slots the factor moves;
* each q-coefficient is one big int of balanced base ``2**B`` digits, so
  shift/add/multiply ride on CPython's bignum arithmetic;
* the kernel tracks a range per slot that holds every live state, and a step
  whose windows hold that range moved by the factor cannot drop a state, so
  it runs free, with no digit and no window test (a full expansion is free
  throughout).

One planning pass over the factors gives every step its windows, its key
move and whether it runs free, before the first state is visited.
``ct_fold`` decodes keys back to exponent tuples only at the end.  A
weighted constant term folds once and contracts many jobs, each one weight
map per slot, on the int keys themselves (``ct_contract``); each map is
named by a key and built only when the key misses this module's bounded
caches, which norm it once and pack it once per width: callers keep no
cache of weights of their own.  The packed values,
``QLaurent.kronecker``'s (lo, mag) pairs, and their digit width B never
leave this module.  ``Factored`` keeps
a product of linear factors, a monomial and a ``Cyclo`` scalar unexpanded,
so that equal values compare by their parts and a constant term is one
point fold.  A plain dict fold over general factors lives in the tests as
the reference the kernel must match exactly.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add, mul

from .qring import ZERO, Cyclo, QFrac, QLaurent


class MLaurent:
    """Sparse multivariate Laurent polynomial with QFrac coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None, _trusted=False):
        self.arity = arity
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            clean = {}
            for e, c in dict(terms).items():
                e = tuple(e)
                if len(e) != arity:
                    raise ValueError("exponent arity mismatch")
                if isinstance(c, QLaurent):
                    c = QFrac.from_qlaurent(c)
                elif isinstance(c, int):
                    c = QFrac(c)
                if not c.is_zero():
                    clean[e] = c
            self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def constant(arity: int, c) -> "MLaurent":
        if isinstance(c, int):
            c = QFrac(c)
        elif isinstance(c, QLaurent):
            c = QFrac.from_qlaurent(c)
        if c.is_zero():
            return MLaurent(arity)
        return MLaurent(arity, {(0,) * arity: c}, _trusted=True)

    # -- basic views ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, exps) -> QFrac:
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise ValueError("exponent arity mismatch")
        return self.terms.get(exps, QFrac(0))

    # -- ring operations -----------------------------------------------------------

    def _check(self, other: "MLaurent"):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def __add__(self, other: "MLaurent") -> "MLaurent":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return MLaurent(self.arity, out, _trusted=True)

    def __sub__(self, other: "MLaurent") -> "MLaurent":
        return self + (-other)

    def __neg__(self) -> "MLaurent":
        return MLaurent(self.arity, {e: -c for e, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other: "MLaurent") -> "MLaurent":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                cur = out.get(e)
                s = c if cur is None else cur + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return MLaurent(self.arity, out, _trusted=True)

    def scale(self, c) -> "MLaurent":
        if isinstance(c, int):
            c = QFrac(c)
        elif isinstance(c, QLaurent):
            c = QFrac.from_qlaurent(c)
        if c.is_zero():
            return MLaurent(self.arity)
        return MLaurent(self.arity, {e: v * c for e, v in self.terms.items()}, _trusted=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MLaurent):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- text form ----------------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            cs = str(c)
            if " " in cs and not cs.startswith("("):
                cs = f"({cs})"
            mono = "*".join(
                (f"x{p + 1}" if ex == 1 else f"x{p + 1}^{ex}")
                for p, ex in enumerate(e) if ex
            )
            parts.append(f"{cs} * {mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MLaurent({self.arity}, {self})"


# -- the CT fold engine -----------------------------------------------------------------


def _full_window(arity, factors):
    """The smallest window holding every monomial of the expanded product."""
    lo = [0] * arity
    hi = [0] * arity
    for a, b, _ in factors:
        if a is not None:
            hi[a - 1] += 1
        if b is not None:
            lo[b - 1] -= 1
    return tuple(lo), tuple(hi)


def ct_fold(arity, factors, tlo=None, thi=None) -> dict:
    """Expand a product of linear factors (a, b, m), keeping only exponents
    inside [tlo, thi].

    Returns a dict from exponent tuple to QLaurent.  With the default
    None/None target the product is expanded in full; passing a point window
    computes one coefficient with maximal pruning: the constant term of
    x^mu times the product is the coefficient at -mu.
    """
    factors = list(factors)
    if tlo is None:
        tlo, thi = _full_window(arity, factors)
    B = _digit_width(1 << len(factors))
    packed = _fold_tuples(factors, tlo, thi, B)
    decode = QLaurent.from_kronecker
    return {e: decode(lo, mag, B) for e, (lo, mag) in packed.items()}


def ct_point(mono, factors) -> QLaurent:
    """CT[x^mono times the product of linear factors (a, b, m)]: the
    product's coefficient at -mono, by one point fold."""
    at = tuple(-e for e in mono)
    return ct_fold(len(at), factors, at, at).get(at, ZERO)


def fold_packed_raw(plan, extra_l1: int = 1):
    """The fold of a ``_plan`` with its coefficients left packed, for
    ``ct_contract``.

    ``extra_l1`` widens the digit base so the packed values may be multiplied
    by further polynomials of that combined L1 norm, and summed, without
    digit overflow.  Returns ({int key: (lo, mag)}, B), the keys in the
    plan's box; no state for a None plan, whose target no monomial reaches.
    """
    if plan is None:
        return {}, _digit_width(extra_l1)
    steps, base, radix, _ = plan
    B = _digit_width(extra_l1 << len(steps))
    return _fold_packed(steps, base, radix, B), B


def ct_contract(arity, factors, tlo, thi, jobs, weights) -> list[QLaurent]:
    """Fold once, contract many.  A job is a tuple of ``arity`` hashable
    keys, one per slot, and the slot's weight map {exponent: QLaurent} is
    weights(*key), a function of the key alone; for each job this returns
    sum_e P_e prod_i w_i(e_i), P the product of linear factors (a, b, m)
    folded over the box [tlo, thi], two tuples.

    The fold runs once, at a digit width B that holds the largest product of
    a job's map norms.  Each map is named by a key, normed once per key and
    packed once per key and width, in bounded caches, so a later call at the
    same width packs nothing.  A job contracts on the fold's int keys, one
    slot at a time, the last first: divmod by the slot's radix splits a key
    into the slot's digit and the key of the remaining slots, and the digit
    indexes the slot's packed weights.  When every slot of every job holds
    the same key, a state's weight depends only on the multiset of its
    exponents, so the states are first summed by multiset, once for all jobs.
    """
    jobs = [tuple(job) for job in jobs]
    if any(len(job) != arity for job in jobs):
        raise ValueError("a job needs one key per slot")
    if not jobs:
        return []
    factors = list(factors)
    l1 = max(prod(_keyed_norm(weights, key) for key in job) for job in jobs)
    plan = _plan(factors, tlo, thi)
    state, B = fold_packed_raw(plan, max(l1, 1))
    if not state:
        return [ZERO] * len(jobs)
    _, base, radix, width = plan
    if all(key == job[0] for job in jobs for key in job):
        state, base, radix, width = _by_multiset(state, base, width, B)
    rows: dict = {}  # (a slot's key, its box) -> packed weight per digit
    out = []
    decode = QLaurent.from_kronecker
    for job in jobs:
        level = state
        for v in range(arity - 1, -1, -1):
            key, lo_v, width_v = job[v], base[v], width[v]
            row = rows.get((key, lo_v, width_v))
            if row is None:
                packed = _keyed_table(weights, key, B)
                row = rows[key, lo_v, width_v] = [packed.get(e) for e in range(lo_v, lo_v + width_v)]
            r = radix[v]
            nxt: dict = {}
            for k, (lo, mag) in level.items():
                x, rest = divmod(k, r)
                f = row[x]
                if f is not None:
                    term = (lo + f[0], mag * f[1])
                    cur = nxt.get(rest)
                    nxt[rest] = term if cur is None else _packed_add(cur, term, B)
            level = nxt
        total = level.get(0)
        out.append(ZERO if total is None else decode(*total, B))
    return out


def _by_multiset(state, base, width, B):
    """The states summed by the multiset of their exponents, as
    (state, base, radix, width) over one box common to every slot: a
    multiset's key holds its exponents in ascending order, slot by slot."""
    lo = min(base)
    span = max(map(add, base, width)) - lo
    out: dict = {}
    for k, val in state.items():
        digits = []
        for b, w in zip(base, width):
            k, x = divmod(k, w)
            digits.append(x + b - lo)
        key = 0
        for x in sorted(digits, reverse=True):
            key = key * span + x
        cur = out.get(key)
        out[key] = val if cur is None else _packed_add(cur, val, B)
    arity = len(base)
    return out, [lo] * arity, [span ** v for v in range(arity)], [span] * arity


@lru_cache(maxsize=1024)
def _keyed_norm(weights, key) -> int:
    """The l1 norm of the weight map weights(*key), the sum of its values' norms."""
    return sum(p.l1_norm() for p in weights(*key).values())


@lru_cache(maxsize=1024)
def _keyed_table(weights, key, B) -> dict:
    """The weight map weights(*key) packed at width B, zero weights left out."""
    return {e: p.kronecker(B) for e, p in weights(*key).items() if p.terms}


class Factored:
    """scalar * x^mono * prod (1 - q^m x_a/x_b): a ``Cyclo`` scalar, a
    monomial exponent vector and a multiset of factors (a, b, m), a < b,
    kept as counts.  Variables are 1-based: x_i is slot i - 1 of ``mono``.

    A factor given with a > b is turned round by
        1 - q^m x_a/x_b = -q^m (x_a/x_b) (1 - q^{-m} x_b/x_a),
    its sign and power of q going to the scalar and x_a/x_b to the
    monomial.  The turned factors and the Psi_d are irreducible and pairwise
    non-associate in Z[q^±1, x^±1], so two nonzero values are equal exactly
    when their parts are.  A zero scalar is the zero value, whatever the
    rest.
    """

    __slots__ = ("scalar", "mono", "factors")

    def __init__(self, scalar: Cyclo, mono, triples):
        mono = list(mono)
        sign, shift = scalar.sign, scalar.shift
        factors: dict = {}
        for a, b, m in triples:
            if a > b:
                sign, shift = -sign, shift + m
                mono[a - 1] += 1
                mono[b - 1] -= 1
                a, b, m = b, a, -m
            factors[a, b, m] = factors.get((a, b, m), 0) + 1
        if not sign:
            mono, factors = [0] * len(mono), {}
        self.scalar = Cyclo(sign, shift, scalar.exps)
        self.mono = tuple(mono)
        self.factors = factors

    def triples(self) -> list:
        return [f for f, e in self.factors.items() for _ in range(e)]

    def __mul__(self, other: "Factored") -> "Factored":
        return Factored(self.scalar * other.scalar, map(add, self.mono, other.mono),
                        self.triples() + other.triples())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factored):
            return NotImplemented
        return (self.scalar, self.mono, self.factors) == (other.scalar, other.mono, other.factors)

    __hash__ = None

    def top_degree(self, i: int) -> int | None:
        """The largest exponent of x_i in the expansion, None for zero: the
        monomial's plus one per factor with x_i on top.  Exact, because the
        factors' leading coefficients in x_i are nonzero and Z[q^±1, x^±1]
        has no zero divisors."""
        if not self.scalar.sign:
            return None
        return self.mono[i - 1] + sum(e for (a, _, _), e in self.factors.items() if a == i)

    def constant_term(self) -> QLaurent:
        """The constant term divided by the scalar (zero for zero): the
        product's coefficient at -mono, by one point fold."""
        if not self.scalar.sign:
            return ZERO
        return ct_point(self.mono, self.triples())


def _digit_width(bound: int) -> int:
    """Digit width B for balanced base-2**B digits of magnitude <= bound."""
    return max(64, bound.bit_length() + 8)


def _fold_tuples(factors, tlo, thi, B):
    """The fold in its own key box, keys decoded to exponent tuples."""
    plan = _plan(factors, tlo, thi)
    if plan is None:
        return {}
    steps, base, radix, width = plan
    return _decode_keys(_fold_packed(steps, base, radix, B), base, width)


def _decode_keys(state, base, width) -> dict:
    """{int key: value} over a plan's box as {exponent tuple: value}."""
    out = {}
    for k, val in state.items():
        e = []
        for b, w in zip(base, width):
            k, x = divmod(k, w)
            e.append(x + b)
        out[tuple(e)] = val
    return out


def _plan(factors, tlo, thi):
    """One planning pass of the fold of the factors (a, b, m) into [tlo, thi].

    Backward, suffix reachability gives each step its windows: after the
    step a kept monomial has each slot v the factor moves inside [lo, hi],
    the target less what the later factors can still move v by.  The key box
    is the smallest one holding the origin and every window.  Forward, a
    range per slot holds every live state, and a step whose windows hold
    that range moved by the factor cannot drop a state, so it runs free.

    Returns (steps, base, radix, width), or None when no monomial can reach
    the target.  ``steps`` holds one (dk, m, slots) per factor for
    ``_step_linear``, with no slots for a free step.  A key holds slot v's
    digit e_v - base[v], in [0, width[v]), at weight radix[v]; a kept term's
    moved digits land in the step's window, which lies in the box, so key +
    dk never carries from one slot into the next.
    """
    arity = len(tlo)
    rlo = [0] * arity  # the later factors move slot v by at least rlo[v] ...
    rhi = [0] * arity  # ... and at most rhi[v]
    base = [0] * arity
    top = [0] * arity
    wins = []
    for f in reversed(factors):
        a, b, m = f
        if a == b:
            raise ValueError(f"linear factor {f} needs two distinct sides")
        win = []
        if a is not None:
            v = a - 1
            lo, hi = tlo[v] - rhi[v], thi[v] - rlo[v]
            win.append((v, 1, lo, hi))
            rhi[v] += 1
            if lo < base[v]:
                base[v] = lo
            if hi > top[v]:
                top[v] = hi
        if b is not None:
            v = b - 1
            lo, hi = tlo[v] - rhi[v], thi[v] - rlo[v]
            win.append((v, -1, lo, hi))
            rlo[v] -= 1
            if lo < base[v]:
                base[v] = lo
            if hi > top[v]:
                top[v] = hi
        wins.append((m, win))
    for v in range(arity):
        if tlo[v] - rhi[v] > 0 or thi[v] - rlo[v] < 0:
            return None
    radix = []
    width = []
    r = 1
    for b, t in zip(base, top):
        radix.append(r)
        width.append(t - b + 1)
        r *= t - b + 1
    live_lo = [0] * arity  # every live state has slot v in [live_lo[v], live_hi[v]]
    live_hi = [0] * arity
    steps = []
    for m, win in reversed(wins):
        free = True
        dk = 0
        # each moved slot's key weight and width, and the digits a state may
        # hold to keep its 1 term and its -q^m x^delta term in the window
        slots = []
        for v, d, lo, hi in win:
            dk += d * radix[v]
            reach_lo = live_lo[v] if d > 0 else live_lo[v] - 1
            reach_hi = live_hi[v] + 1 if d > 0 else live_hi[v]
            if reach_lo < lo:
                reach_lo, free = lo, False
            if reach_hi > hi:
                reach_hi, free = hi, False
            live_lo[v] = reach_lo
            live_hi[v] = reach_hi
            lo -= base[v]
            hi -= base[v]
            slots.append((radix[v], width[v], lo, hi, lo - d, hi - d))
        steps.append((dk, m, [] if free else slots))
    return steps, base, radix, width


def _fold_packed(steps, base, radix, B):
    """The fold kernel: a plan's steps run from the origin, {int key: (lo, mag)}."""
    state = {-sum(map(mul, base, radix)): (0, 1)}
    for dk, m, slots in steps:
        state = _step_linear(state, B, dk, m, slots)
        if not state:
            break
    return state


def _step_linear(state, B, dk, qsh, slots):
    """One (1 - q^m x^delta) step: new[k] += old[k], new[k + dk] -= q^m old[k].

    ``slots`` covers the one or two moved slots, as from ``_plan``; a
    free step has none, keeps every state and merges only the shifted term.
    """
    if not slots:
        new = dict(state)
        get = new.get
        for k, (lo, mag) in state.items():
            nk = k + dk
            nlo = lo + qsh
            cur = get(nk)
            if cur is None:
                new[nk] = (nlo, -mag)
            else:
                clo, cm = cur
                if clo <= nlo:
                    s = cm - (mag << (B * (nlo - clo)))
                    rl = clo
                else:
                    s = (cm << (B * (clo - nlo))) - mag
                    rl = nlo
                if s:
                    new[nk] = (rl, s)
                else:
                    del new[nk]
        return new
    (mi, wi, ilo, ihi, dilo, dihi), *rest = slots
    if rest:
        (mj, wj, jlo, jhi, djlo, djhi), = rest
    else:
        # a single moved slot: the second test reads a constant 0
        mj, wj, jlo, jhi, djlo, djhi = 1, 1, 0, 0, 0, 0
    new: dict = {}
    get = new.get
    for k, val in state.items():
        xi = k // mi % wi
        xj = k // mj % wj
        if ilo <= xi <= ihi and jlo <= xj <= jhi:
            cur = get(k)
            if cur is None:
                new[k] = val
            else:
                clo, cm = cur
                lo, mag = val
                if clo <= lo:
                    s = cm + (mag << (B * (lo - clo)))
                    rl = clo
                else:
                    s = mag + (cm << (B * (clo - lo)))
                    rl = lo
                if s:
                    new[k] = (rl, s)
                else:
                    del new[k]
        if dilo <= xi <= dihi and djlo <= xj <= djhi:
            nk = k + dk
            lo, mag = val
            nlo = lo + qsh
            cur = get(nk)
            if cur is None:
                new[nk] = (nlo, -mag)
            else:
                clo, cm = cur
                if clo <= nlo:
                    s = cm - (mag << (B * (nlo - clo)))
                    rl = clo
                else:
                    s = (cm << (B * (clo - nlo))) - mag
                    rl = nlo
                if s:
                    new[nk] = (rl, s)
                else:
                    del new[nk]
    return new


# -- packed coefficient helpers -------------------------------------------------------


def _packed_add(a, b, B):
    (alo, am), (blo, bm) = a, b
    if alo <= blo:
        s = am + (bm << (B * (blo - alo)))
        lo = alo
    else:
        s = bm + (am << (B * (alo - blo)))
        lo = blo
    return (lo, s)
