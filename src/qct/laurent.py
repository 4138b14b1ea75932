"""Sparse multivariate Laurent polynomials over the q fraction field.

``MLaurent`` stores terms as a dict from exponent tuples to nonzero ``QFrac``
coefficients.  Exponent tuples ("ExpVec") are plain tuples of ints, one slot
per variable; slot t corresponds to the variable printed as ``x{t+1}``.

The module also houses the constant-term fold engine: a product given as a
list of factors is multiplied out factor by factor while partial monomials
whose exponents cannot return to the requested target window are dropped.
Pruning never changes the result, only the work.  There is one kernel:

* each monomial is one int key, its exponent vector in mixed radix over the
  box that holds every pruning window (Kronecker substitution), so a term
  moves a state by one int add and the window test decodes only the slots
  the factor touches;
* each q-coefficient is one big int of balanced base ``2**B`` digits, so
  shift/add/multiply ride on CPython's bignum arithmetic;
* the linear factor (1 - q^m x^delta) has its own two-term step;
* the kernel tracks a range per slot that holds every live state, and a step
  whose windows hold that range moved by the factor cannot drop a state, so
  it runs free, with no digit and no window test (a full expansion is free
  throughout).

Keys are decoded back to exponent tuples only at the end.  A ``KeyBox`` is
one key box and digit width shared by several full expansions: a fold may
continue from another's packed state, and states add as int keys, so a sum
that vanishes decodes nothing.  A plain dict fold lives in the tests as the
reference the kernel must match exactly.
"""

from __future__ import annotations

from operator import add

from .qring import ONE, QFrac, QLaurent

_MINUS_ONE = QLaurent.from_int(-1)

ExpVec = tuple  # fixed-arity tuple of ints, one slot per variable


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

    @staticmethod
    def monomial(arity: int, exps, coeff=None) -> "MLaurent":
        exps = tuple(exps)
        if len(exps) != arity:
            raise ValueError("exponent arity mismatch")
        if coeff is None:
            coeff = QFrac(1)
        elif isinstance(coeff, int):
            coeff = QFrac(coeff)
        elif isinstance(coeff, QLaurent):
            coeff = QFrac.from_qlaurent(coeff)
        if coeff.is_zero():
            return MLaurent(arity)
        return MLaurent(arity, {exps: coeff}, _trusted=True)

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

    def constant_coefficient(self) -> QFrac:
        return self.terms.get((0,) * self.arity, QFrac(0))

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

    # -- constant terms and coefficients ----------------------------------------------

    def ct_positions(self, positions) -> "MLaurent":
        """Keep the terms whose exponent vanishes on every listed slot."""
        positions = list(positions)
        out = {e: c for e, c in self.terms.items() if all(e[p] == 0 for p in positions)}
        return MLaurent(self.arity, out, _trusted=True)

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


# -- spec-level operations (1-based variable indices) ---------------------------------


def ct(f: MLaurent, variables) -> MLaurent:
    """Constant term over the 1-based variable index set."""
    return f.ct_positions([v - 1 for v in variables])


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
    factors = linear_factors(arity, i, j, m, z)
    res = ct_fold(arity, factors, None, None)
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
    acc: dict = {}
    for e, c in f.terms.items():
        ne = list(e)
        shift = 0
        for slot, qs in mapping.items():
            ex = ne[slot]
            if ex:
                shift += qs * ex
                ne[tgt] += ex
                ne[slot] = 0
        ne = tuple(ne)
        nc = c * QFrac.q_power(shift) if shift else c
        cur = acc.get(ne)
        sme = nc if cur is None else cur + nc
        if sme.is_zero():
            acc.pop(ne, None)
        else:
            acc[ne] = sme
    out.terms = acc
    return out


# -- the CT fold engine -----------------------------------------------------------------


class FoldFactor:
    """One factor of a product in fold form.

    ``terms`` is a list of (delta, qexp, coeff) with delta an exponent tuple
    (or None for the zero vector), and coeff a QLaurent giving the q-part of
    the term; the monomial contributed is coeff * q^qexp * x^delta.
    ``touched`` lists the slots where some delta is nonzero.
    """

    __slots__ = ("arity", "terms", "lo", "hi", "l1", "touched")

    def __init__(self, arity: int, terms):
        self.arity = arity
        self.terms = []
        lo = [0] * arity
        hi = [0] * arity
        l1 = 0
        first = True
        for delta, qexp, coeff in terms:
            if isinstance(coeff, int):
                coeff = QLaurent.from_int(coeff)
            if coeff.is_zero():
                continue
            if delta is not None:
                delta = tuple(delta)
                if len(delta) != arity:
                    raise ValueError("delta arity mismatch")
                if not any(delta):
                    delta = None
            self.terms.append((delta, qexp, coeff))
            d = delta if delta is not None else (0,) * arity
            if first:
                lo = list(d)
                hi = list(d)
                first = False
            else:
                for v in range(arity):
                    if d[v] < lo[v]:
                        lo[v] = d[v]
                    if d[v] > hi[v]:
                        hi[v] = d[v]
            l1 += coeff.l1_norm()
        if not self.terms:
            raise ValueError("empty factor")
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        self.l1 = max(l1, 1)
        self.touched = tuple(v for v in range(arity) if lo[v] or hi[v])

    @staticmethod
    def linear(arity: int, i, j, m: int) -> "FoldFactor":
        """(1 - q^m x_i/x_j) with 1-based indices; None on either side means 1."""
        if i is not None and i == j:
            raise ValueError("linear factor needs distinct variables")
        # the fields the generic constructor would derive, set directly:
        # every product builds one such factor per linear factor
        lo = [0] * arity
        hi = [0] * arity
        touched = []
        if i is not None:
            hi[i - 1] = 1
            touched.append(i - 1)
        if j is not None:
            lo[j - 1] = -1
            touched.append(j - 1)
        f = FoldFactor.__new__(FoldFactor)
        f.arity = arity
        f.terms = [(None, 0, ONE), (tuple(map(add, lo, hi)) if touched else None, m, _MINUS_ONE)]
        f.lo = tuple(lo)
        f.hi = tuple(hi)
        f.l1 = 2
        f.touched = tuple(sorted(touched))
        return f

    @staticmethod
    def monomial(arity: int, exps, qexp: int = 0, coeff=1) -> "FoldFactor":
        return FoldFactor(arity, [(tuple(exps), qexp, coeff)])

    @staticmethod
    def general(arity: int, poly: MLaurent) -> "FoldFactor":
        terms = []
        for e, c in poly.terms.items():
            if not c.is_polynomial():
                raise ValueError("fold factors need polynomial (denominator-1) coefficients")
            terms.append((e, 0, c.num))
        return FoldFactor(arity, terms)


def linear_factors(arity: int, i, j, m: int, z: int) -> list[FoldFactor]:
    """The z linear factors of (q^m x_i/x_j ; q)_z."""
    return [FoldFactor.linear(arity, i, j, m + t) for t in range(z)]


def _windows(factors, tlo, thi):
    """Per-step admissible windows implied by suffix reachability.

    Returns (steps, base, top).  ``steps[fi]`` lists (v, lo, hi) for each slot
    v that factor fi touches: after step fi a kept monomial has its slot v in
    [lo, hi].  [base[v], top[v]] is the smallest interval holding 0 and every
    window on slot v.  ``steps`` is None when no monomial can reach the target.
    """
    arity = len(tlo)
    rlo = [0] * arity
    rhi = [0] * arity
    base = [0] * arity
    top = [0] * arity
    steps = [None] * len(factors)
    for fi in range(len(factors) - 1, -1, -1):
        f = factors[fi]
        win = []
        for v in f.touched:
            lo = tlo[v] - rhi[v]
            hi = thi[v] - rlo[v]
            win.append((v, lo, hi))
            if lo < base[v]:
                base[v] = lo
            if hi > top[v]:
                top[v] = hi
            rlo[v] += f.lo[v]
            rhi[v] += f.hi[v]
        steps[fi] = win
    for v in range(arity):
        if tlo[v] - rhi[v] > 0 or thi[v] - rlo[v] < 0:
            return None, base, top
    return steps, base, top


def _full_window(arity, factors):
    """The smallest window holding every monomial of the expanded product."""
    lo = [0] * arity
    hi = [0] * arity
    for f in factors:
        for v in range(arity):
            lo[v] += f.lo[v]
            hi[v] += f.hi[v]
    return tuple(lo), tuple(hi)


def _target(arity, factors, tlo, thi):
    """The target window as tuples; None on a side means the full expansion's."""
    if tlo is None or thi is None:
        lo, hi = _full_window(arity, factors)
        tlo = lo if tlo is None else tlo
        thi = hi if thi is None else thi
    return tuple(tlo), tuple(thi)


def ct_fold(arity, factors, tlo=None, thi=None) -> dict:
    """Expand a factor list, keeping only exponents inside [tlo, thi].

    Returns a dict from exponent tuple to QLaurent.  With the default
    None/None target the product is expanded in full; passing a point window
    (e.g. all zeros) computes a constant term with maximal pruning.
    """
    factors = list(factors)
    tlo, thi = _target(arity, factors, tlo, thi)
    B = _digit_width(_l1_bound(factors))
    packed = _fold_tuples(factors, tlo, thi, B)
    return {e: _decode_packed(lo, mag, B) for e, (lo, mag) in packed.items()}


def fold_packed_raw(arity, factors, tlo=None, thi=None, extra_l1: int = 1):
    """Packed fold exposed for callers that post-process coefficients.

    The target window defaults to the full expansion, as in ``ct_fold``.
    ``extra_l1`` widens the digit base so callers may multiply the returned
    packed values by further polynomials of that combined L1 norm without
    digit overflow.  Returns ({exponent tuple: (lo, mag)}, B).
    """
    factors = list(factors)
    tlo, thi = _target(arity, factors, tlo, thi)
    B = _digit_width(extra_l1 * _l1_bound(factors))
    return _fold_tuples(factors, tlo, thi, B), B


class KeyBox:
    """One key box and one digit width shared by several full expansions.

    ``sums`` lists the sums a caller will form, each a list of factor lists
    (its pieces).  The box holds every product of a sub-list of any piece,
    taken in any order, so a fold may continue from any such product and
    every state it makes lands in the box; the digit width B holds every
    coefficient of a sum of such products, at most one per piece of one sum.
    States folded in one box add as int keys and packed (lo, mag) pairs, so
    a sum that vanishes decodes nothing.
    """

    __slots__ = ("base", "top", "B", "_radix", "_width")

    def __init__(self, arity: int, sums):
        base = [0] * arity
        top = [0] * arity
        bound = 1
        for pieces in sums:
            bound = max(bound, sum(_l1_bound(f) for f in pieces))
            for factors in pieces:
                for v in range(arity):
                    base[v] = min(base[v], sum(min(f.lo[v], 0) for f in factors))
                    top[v] = max(top[v], sum(max(f.hi[v], 0) for f in factors))
        self.base, self.top = base, top
        self.B = _digit_width(bound)
        self._radix, self._width = _radices(base, top)

    def fold(self, factors, state=None) -> dict:
        """The full expansion of ``factors`` times ``state`` (default 1) as
        {int key: (lo, mag)}; with no factors, ``state`` itself."""
        return _fold_packed(factors, None, self.base, self.top, self.B, state)

    def slot_sums(self, state: dict, vs) -> set:
        """The values of sum_{v in vs} e_v over the keys of ``state``."""
        cols = [[k // self._radix[v] % self._width[v] for k in state] for v in vs]
        base = sum(self.base[v] for v in vs)
        return {s + base for s in set(map(sum, zip(*cols)))}


def _l1_bound(factors) -> int:
    """A bound on the L1 norm of every coefficient of every partial product."""
    bound = 1
    for f in factors:
        bound *= f.l1
    return bound


def _digit_width(bound: int) -> int:
    """Digit width B for balanced base-2**B digits of magnitude <= bound."""
    return max(64, bound.bit_length() + 8)


def _fold_tuples(factors, tlo, thi, B):
    """The fold in its own key box, keys decoded to exponent tuples."""
    steps, base, top = _windows(factors, tlo, thi)
    if steps is None:
        return {}
    return _decode_keys(_fold_packed(factors, steps, base, top, B), base, top)


def _decode_keys(state, base, top) -> dict:
    """{int key: value} over the box [base, top] as {exponent tuple: value}."""
    widths = [t - b + 1 for b, t in zip(base, top)]
    out = {}
    for k, val in state.items():
        e = []
        for b, w in zip(base, widths):
            k, x = divmod(k, w)
            e.append(x + b)
        out[tuple(e)] = val
    return out


def _radices(base, top):
    """Mixed-radix weights and widths of the key box [base, top]."""
    radix = []
    width = []
    r = 1
    for b, t in zip(base, top):
        radix.append(r)
        width.append(t - b + 1)
        r *= t - b + 1
    return radix, width


def _fold_packed(factors, steps, base, top, B, state=None):
    """The fold kernel: {int key: (lo, mag)} with keys over the box [base, top].

    ``steps`` are the factors' windows from ``_windows``; the box must hold
    the origin and every window.  A step whose windows hold every state it
    can make drops nothing, so it runs free: no digit and no window test.
    ``steps`` None is a full expansion, free throughout; only such a fold
    may continue from a given packed ``state`` instead of the origin, and
    the box must then hold every state it makes.
    """
    # Kronecker keys: slot v of a state's key holds e_v - base[v], a digit in
    # [0, width[v]), at weight radix[v].  A term is kept only if its touched
    # digits land in the step's window, which lies in the box, so key + dk
    # never carries from one slot into the next.
    radix, width = _radices(base, top)
    if state is None:
        state = {-sum(b * m for b, m in zip(base, radix)): (0, 1)}
    # every live state has slot v in [live_lo[v], live_hi[v]]
    live_lo = [0] * len(base)
    live_hi = [0] * len(base)
    for fi, f in enumerate(factors):
        free = True
        if steps is None:
            win = [(v, None, None) for v in f.touched]
        else:
            win = steps[fi]
            for v, lo, hi in win:
                reach_lo = live_lo[v] + f.lo[v]
                reach_hi = live_hi[v] + f.hi[v]
                if reach_lo < lo:
                    reach_lo, free = lo, False
                if reach_hi > hi:
                    reach_hi, free = hi, False
                live_lo[v] = reach_lo
                live_hi[v] = reach_hi
        slots = [] if free else [(radix[v], width[v]) for v, _, _ in win]
        terms = []
        for delta, qexp, coeff in f.terms:
            # key offset, q-shift, packed coefficient, and for each touched
            # slot of a checked step the digits a source may hold for the
            # target to stay inside
            dk = 0
            bounds = []
            for v, lo, hi in win:
                d = 0 if delta is None else delta[v]
                dk += d * radix[v]
                if not free:
                    bounds.append((lo - base[v] - d, hi - base[v] - d))
            lo_c, cmag = pack_qlaurent(coeff, B)
            terms.append((dk, qexp + lo_c, cmag, bounds))
        if (len(terms) == 2 and terms[0][:3] == (0, 0, 1) and terms[1][0]
                and terms[1][2] == -1 and len(win) <= 2):
            state = _step_linear(state, B, slots, terms)
        else:
            state = _step_general(state, B, slots, terms)
        if not state:
            break
    return state


def _step_linear(state, B, slots, terms):
    """One (1 - q^m x^delta) step: new[k] += old[k], new[k + dk] -= q^m old[k].

    ``slots`` and each term's bounds cover the one or two touched slots; a
    free step has none, keeps every state and merges only the shifted term.
    """
    if not slots:
        dk, qsh = terms[1][:2]
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
    (_, _, _, ((ilo, ihi), *jb)), (dk, qsh, _, ((dilo, dihi), *djb)) = terms
    (mi, wi), *rest = slots
    if rest:
        (mj, wj), = rest
        (jlo, jhi), = jb
        (djlo, djhi), = djb
    else:
        # a single touched slot: the second test reads a constant 0
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


def _step_general(state, B, slots, terms):
    """One step by any factor: each term moves a state by its key offset."""
    new: dict = {}
    get = new.get
    for k, (lo, mag) in state.items():
        xs = [k // m % w for m, w in slots]
        for dk, qsh, cmag, bounds in terms:
            for x, (blo, bhi) in zip(xs, bounds):
                if x < blo or x > bhi:
                    break
            else:
                nk = k + dk
                nlo = lo + qsh
                nmag = mag if cmag == 1 else (-mag if cmag == -1 else mag * cmag)
                cur = get(nk)
                if cur is None:
                    new[nk] = (nlo, nmag)
                else:
                    clo, cm = cur
                    if clo <= nlo:
                        s = cm + (nmag << (B * (nlo - clo)))
                        rl = clo
                    else:
                        s = nmag + (cm << (B * (clo - nlo)))
                        rl = nlo
                    if s:
                        new[nk] = (rl, s)
                    else:
                        del new[nk]
    return new


# -- packed coefficient helpers -------------------------------------------------------


def _encode_packed(p: QLaurent, lo: int, B: int) -> int:
    mag = 0
    for e, c in p.terms.items():
        mag += c << (B * (e - lo))
    return mag


def _decode_packed(lo: int, mag: int, B: int) -> QLaurent:
    terms = {}
    half = 1 << (B - 1)
    full = 1 << B
    mask = full - 1
    e = lo
    while mag:
        d = mag & mask
        if d >= half:
            d -= full
        mag = (mag - d) >> B
        if d:
            terms[e] = d
        e += 1
    return QLaurent(terms, _trusted=True)


def packed_mul(a, b, B):
    return (a[0] + b[0], a[1] * b[1])


def packed_add(a, b, B):
    (alo, am), (blo, bm) = a, b
    if alo <= blo:
        s = am + (bm << (B * (blo - alo)))
        lo = alo
    else:
        s = bm + (am << (B * (alo - blo)))
        lo = blo
    return (lo, s)


def pack_qlaurent(p: QLaurent, B: int):
    if p.is_zero():
        return (0, 0)
    lo = p.min_exp()
    return (lo, _encode_packed(p, lo, B))
