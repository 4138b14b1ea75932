"""Predicted root sets of the constant term as a polynomial in q^a, the
threshold table t_s behind them, polynomial reconstruction by interpolation,
and the path-weight combinatorics that drives the vanishing analysis."""

from __future__ import annotations

from functools import lru_cache

from .closedform import BFParams, bf_rhs, dn0_rhs
from .products import Shape, bf_ct_grid
from .qring import ZERO, Cyclo, ZPoly, interpolate


class LemmaFalsified(RuntimeError):
    """Raised when an exhaustive check contradicts a claimed statement."""


def t_table(shape: Shape) -> tuple[int, ...]:
    """Thresholds t_1..t_n from the piecewise floor formula.

    Row 0 gives zeros up to s = n_0 + p; row j (1 <= j <= p) covers the next
    (p-j+1)(m_j - m_{j-1}) values of s, where m_1 <= ... <= m_p are the
    decorated part sizes and m_0 := 1.
    """
    n, p = shape.n, shape.p
    if p == 0:
        return (0,) * n
    n0 = shape.parts[0]
    m = (1,) + shape.sorted_decorated()  # m[0]=1, m[1..p] ascending
    nu = [0] * (p + 1)  # nu[j] = m[1] + ... + m[j]
    for j in range(1, p + 1):
        nu[j] = nu[j - 1] + m[j]
    out = []
    for s in range(1, n + 1):
        if s <= n0 + p:
            out.append(0)
            continue
        val = None
        for j in range(1, p + 1):
            low = n - (nu[p] - nu[j - 1]) + (p - j + 1) * m[j - 1] + 1
            high = n - (nu[p] - nu[j]) + (p - j) * m[j]
            if low <= s <= high:
                val = (s - n0 - nu[j - 1] - 1) // (p - j + 1)
                break
        if val is None:
            raise AssertionError(f"s={s} not covered by any threshold bracket")
        out.append(val)
    return tuple(out)


class RootTable:
    """The n root rows; row i holds b consecutive integers starting at
    i*c + shift_i + 1, annotated with the class j of the bracket it came from."""

    __slots__ = ("shape", "b", "c", "rows")

    def __init__(self, shape, b, c, rows):
        self.shape = shape
        self.b = b
        self.c = c
        self.rows = rows  # list of (i, class_j, tuple of elements)

    def union(self) -> list[int]:
        """All predicted roots, with multiplicity."""
        out = []
        for _, _, els in self.rows:
            out.extend(els)
        return sorted(out)

    def distinct(self) -> list[int]:
        return sorted(set(self.union()))

    def is_disjoint(self) -> bool:
        u = self.union()
        return len(u) == len(set(u))

    def __str__(self):
        lines = []
        for i, j, els in self.rows:
            body = " ".join(str(x) for x in els) if els else "(empty)"
            lines.append(f"row i={i} [class {j}]: {body}")
        return "\n".join(lines)


def root_sets(shape: Shape, b: int, c: int) -> RootTable:
    """The rows R_i^j, built directly from their defining index ranges."""
    if b < 0 or c < 0:
        raise ValueError("b and c must be nonnegative")
    n, p = shape.n, shape.p
    n0 = shape.parts[0]
    rows = []
    if p == 0:
        for i in range(n):
            rows.append((i, 0, tuple(range(i * c + 1, i * c + b + 1))))
        return RootTable(shape, b, c, rows)
    m = (1,) + shape.sorted_decorated()
    nu = [0] * (p + 1)
    for j in range(1, p + 1):
        nu[j] = nu[j - 1] + m[j]
    for i in range(0, n0 + p):
        rows.append((i, 0, tuple(range(i * c + 1, i * c + b + 1))))
    for j in range(1, p + 1):
        low = n - (nu[p] - nu[j - 1]) + (p - j + 1) * m[j - 1]
        high = n - (nu[p] - nu[j]) + (p - j) * m[j] - 1
        for i in range(low, high + 1):
            shift = (i - n0 - nu[j - 1]) // (p - j + 1)
            first = i * c + shift + 1
            rows.append((i, j, tuple(range(first, first + b))))
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(n)):
        raise AssertionError("root rows do not cover i = 0..n-1 exactly once")
    return RootTable(shape, b, c, rows)


def interpolate_dn(shape: Shape, b: int, c: int) -> ZPoly:
    """The constant term as a polynomial in z = q^a, interpolated through the
    brute-force values at a = 0..nb+1: one node more than its degree bound nb
    needs, so that the bound is a check (the top coefficient must vanish)."""
    nb = shape.n * b
    grid = bf_ct_grid(shape, c, [(a, b) for a in range(nb + 2)])
    return interpolate([grid[(a, b)] for a in range(nb + 2)])


def product_form_coeffs(shape: Shape, b: int, c: int) -> ZPoly:
    """prod_{i in R}(1 - q^i z)/(1 - q^i) * D_n(0) over the root multiset R."""
    coeffs = [dn0_rhs(shape, c)]
    den = Cyclo()
    for d in root_sets(shape, b, c).union():
        # times (1 - q^d z)
        coeffs = [x - y.shift(d) for x, y in zip(coeffs + [ZERO], [ZERO] + coeffs)]
        den = den * Cyclo.poch(d, 1)
    return ZPoly(coeffs, den)


def verify_roots(shape: Shape, b: int, c: int) -> dict:
    """Interpolate the constant term in q^a and confirm the predicted roots.

    For c >= b additionally asserts the root multiset is disjoint of size nb
    (that bound is an empirical check here, flagged as such).  The polynomial
    must have degree at most nb through nb + 2 nodes, and is matched against
    the closed form at every node and against the explicit product form over
    the root set, both cross-multiplied by its denominator.
    """
    n = shape.n
    nb = n * b
    table = root_sets(shape, b, c)
    poly = interpolate_dn(shape, b, c)
    report = {
        "shape": shape.parts,
        "b": b,
        "c": c,
        "nb": nb,
        "degree_bound_ok": poly.degree() <= nb,
        "regime": "c>=b (|R|=nb asserted, empirical bound)" if c >= b else "c<b (distinct roots only)",
        "disjoint": None,
        "root_count_ok": None,
        "roots_checked": 0,
        "first_failure": None,
        "all_vanish": True,
        "closed_form_match": None,
        "product_form_match": None,
    }
    if c >= b:
        report["disjoint"] = table.is_disjoint()
        report["root_count_ok"] = len(table.union()) == nb
    for d in table.distinct():
        report["roots_checked"] += 1
        if not poly.numerator_at(-d).is_zero():
            report["all_vanish"] = False
            report["first_failure"] = d
            break
    report["closed_form_match"] = all(
        poly.numerator_at(a) == poly.den.times(bf_rhs(BFParams(shape, a, b, c)))
        for a in range(nb + 2))
    if c >= b and report["disjoint"]:
        report["product_form_match"] = product_form_coeffs(shape, b, c) == poly
    return report


# -- path weights -------------------------------------------------------------------


class PathWeight:
    """Weighted directed path data for a permutation against block sizes."""

    __slots__ = ("w", "r", "e", "total")

    def __init__(self, w, r, e):
        self.w = tuple(w)
        self.r = tuple(r)
        self.e = tuple(e)
        self.total = sum(e)

    def __repr__(self):
        return f"PathWeight(w={self.w}, r={self.r}, N={self.total})"


@lru_cache(maxsize=256)
def _block_ids(r: tuple[int, ...]) -> tuple[int, ...]:
    """Block label of positions 0..s: positions of R_i (i >= 1) share label i,
    while position 0 (the start of every path) and each position of R_0 get a
    label of their own, so only a decorated block ever scores."""
    if not r or any(x < 1 for x in r):
        raise ValueError("block sizes must be positive")
    ids = [-pos for pos in range(r[0] + 1)]
    for i, size in enumerate(r[1:], 1):
        ids += [i] * size
    return tuple(ids)


def path_weight(w, r) -> PathWeight:
    """Weights e_j = ascent indicator + same-decorated-block indicator."""
    w = tuple(w)
    r = tuple(r)
    s = sum(r)
    if len(w) != s or sorted(w) != list(range(1, s + 1)):
        raise ValueError("w must be a permutation of 1..sum(r)")
    ids = _block_ids(r)
    e = []
    prev = 0
    for x in w:
        e.append((prev < x) + (ids[prev] == ids[x]))
        prev = x
    return PathWeight(w, r, e)


def min_path_weights_many(rs) -> list[tuple[int, int]]:
    """(min over w of N(w), min over w and j of N(w) - e_j) for every r of
    ``rs``, which must share one sum s, from one Held-Karp pass.

    N(w) = e_1 + the length of the path w_1 .. w_s with edge weight
    [x < y] + [x, y in one decorated block], where e_1 = 1, so both minima
    come from a DP over (visited set, last position) in O(2^s s^2) (Held &
    Karp, "A dynamic programming approach to sequencing problems", 1962)
    instead of s! permutations.  A second table holds the paths with one
    step's weight (e_1 included) left out.

    Each cell holds, for every r at once, the set of weights its paths
    reach: r gets one lane of 2s + 1 bits of a Python int, with bit x set
    when weight x is reached.  No path weighs more than 1 + 2(s - 1), so no
    lane carries into the next, and one shift and add relax an edge in
    every lane (Knuth, TAOCP 4A 7.1.3): the ascent bit is shared by all r,
    and ``same[v][u]`` fills the lanes whose r puts v and u in one
    decorated block, where adding the masked set shifts it once more.  Each
    minimum is the lowest set bit of its lane.
    """
    labels = [_block_ids(tuple(r))[1:] for r in rs]
    if not labels:
        return []
    s = len(labels[0])
    if any(len(ids) != s for ids in labels):
        raise ValueError("every r of one batch must have the same sum")
    width = 2 * s + 1
    lane = (1 << width) - 1
    ones = sum(1 << width * j for j in range(len(labels)))  # weight 0 in every lane
    same = [[sum(lane << width * j for j, ids in enumerate(labels) if ids[v] == ids[u])
             for u in range(s)] for v in range(s)]
    full = (1 << s) - 1
    kept = [[0] * s for _ in range(full + 1)]  # nothing dropped yet
    dropped = [[0] * s for _ in range(full + 1)]
    for v in range(s):
        kept[1 << v][v] = ones << 1  # e_1 = 1
        dropped[1 << v][v] = ones
    for mask in range(1, full):
        kept_m, dropped_m = kept[mask], dropped[mask]
        for v in range(s):
            kv = kept_m[v]
            if not kv:  # v is not in mask
                continue
            dv, same_v = dropped_m[v], same[v]
            for u in range(s):
                if mask >> u & 1:
                    continue
                tk, td = (kv << 1, dv << 1) if v < u else (kv, dv)
                nxt = mask | 1 << u
                kept[nxt][u] |= tk + (tk & same_v[u])
                dropped[nxt][u] |= (td + (td & same_v[u])) | kv  # or drop this step
    best_kept = best_dropped = 0
    for u in range(s):
        best_kept |= kept[full][u]
        best_dropped |= dropped[full][u]
    out = []
    for j in range(len(labels)):
        kj = best_kept >> width * j & lane
        dj = best_dropped >> width * j & lane
        out.append(((kj & -kj).bit_length() - 1, (dj & -dj).bit_length() - 1))
    return out


def min_weight_witness(r) -> tuple[tuple[int, ...], int]:
    """The interleaved-descending permutation attaining the minimum weight.

    Blocks are listed largest-element first, cycling over blocks p..0 and
    taking each block's next-largest unused element.  Raises LemmaFalsified
    unless the attained weight equals max(r_1..r_p).
    """
    r = tuple(r)
    if any(x < 1 for x in r):
        raise ValueError("block sizes must be positive")
    p = len(r) - 1
    starts = [sum(r[:i]) for i in range(len(r))]
    w0 = []
    for t in range(max(r)):
        for i in range(p, -1, -1):
            if r[i] - t >= 1:
                w0.append(starts[i] + r[i] - t)
    expected = max(r[1:]) if p >= 1 else 1
    got = path_weight(w0, r).total
    if got != expected:
        raise LemmaFalsified(f"witness weight {got} != max block size {expected} for r={r}")
    return tuple(w0), got


def leave_one_out_bound_holds(w, r) -> bool:
    """sum_{j != i} e_j >= max(r_1..r_p) - 1 for every i."""
    pw = path_weight(w, r)
    if len(r) == 1:
        return True
    m = max(r[1:])
    return all(pw.total - e >= m - 1 for e in pw.e)


# -- the key classification lemma ----------------------------------------------------


def lemma_key_classify(k, b: int, c: int, t: int, r) -> tuple[int, object]:
    """Classify an admissible k-vector into the first applicable case.

    Cases: (1) some k_i <= b; (2) a cross-block pair with difference in
    [-c, c-1]; (3) a same-block pair with difference in [-c-1, c]; (4) a
    permutation w and slack vector d realizing the staircase growth pattern.
    Raises LemmaFalsified when nothing applies (which would refute the lemma).
    """
    k = tuple(k)
    r = tuple(r)
    ids = _block_ids(r)
    s = len(ids) - 1
    if len(k) != s:
        raise ValueError("k length must equal sum(r)")
    if min(k) < 1 or max(k) > (s - 1) * c + b + t:
        raise ValueError("k out of the admissible range")
    for i in range(s):
        if k[i] <= b:
            return (1, i + 1)
    for i in range(1, s):
        ki, block = k[i - 1], ids[i]
        for j in range(i + 1, s + 1):
            if ids[j] != block and -c <= ki - k[j - 1] <= c - 1:
                return (2, (i, j))
    for i in range(1, s):
        ki, block = k[i - 1], ids[i]
        for j in range(i + 1, s + 1):
            if ids[j] == block and -c - 1 <= ki - k[j - 1] <= c:
                return (3, (i, j))
    found = case4_staircase(k, ids, b, c, t)
    if found is not None:
        return (4, found)
    raise LemmaFalsified(f"no case applies for k={k}, b={b}, c={c}, t={t}, r={r}")


def case4_staircase(k, ids, b: int, c: int, t: int):
    """Case 4 of ``lemma_key_classify``: the permutation w and slack vector d
    of the staircase pattern for k, or None.

    ``ids[x]`` labels position x = 1..s, and ``ids[0]`` the start of every
    path: two positions share a decorated block exactly when they share a
    positive label, and every other label occurs once.
    """
    maxr = max((ids.count(x) for x in ids if x > 0), default=0)
    # d_j >= 0 makes k nondecreasing along w, and a tie needs a descent, so
    # the one candidate is the positions ordered by (k_x, -x)
    w = sorted(range(1, len(k) + 1), key=lambda x: (k[x - 1], -x))
    d = []
    total = 0
    prev = 0
    for x in w:
        chi = ids[prev] == ids[x]
        dj = k[x - 1] - (k[prev - 1] + c + chi if prev else b)
        if dj < (prev < x):  # d_j >= 0, and d_j >= 1 after an ascent or at the start
            return None
        total += chi + dj
        d.append(dj)
        prev = x
    return (tuple(w), tuple(d)) if maxr <= total <= t else None


def lemma_key_survivors(b: int, c: int, t: int, r) -> list[tuple[int, ...]]:
    """Every k in [1, (s-1)c+b+t]^s to which none of cases 1-3 of
    lemma_key_classify applies, each once, by backtracking (Knuth, TAOCP 4B
    7.2.2).

    k is built in (k_x, -x) order: each step places an unused position x at a
    value v >= every value placed so far.  Against each placed y, cases 2 and
    3 exclude exactly v - k_y < c + [y < x] + [x, y in one decorated block]
    (the [y < x] term is the tie rule of that order), and case 1 excludes
    v <= b.  So each open position carries its least admissible value, and a
    placement raises those of the others.  Every such gap is at least c, so
    with m positions open v stays at most the box's top less (m - 1)c.
    """
    if min(b, c, t) < 0:
        raise ValueError("b, c and t must be nonnegative")
    ids = _block_ids(tuple(r))[1:]  # position x + 1 is index x
    s = len(ids)
    top = (s - 1) * c + b + t
    gap = [[c + (y < x) + (ids[x] == ids[y]) for x in range(s)] for y in range(s)]
    k = [0] * s
    out = []

    def extend(free, lo):
        cap = top - (len(free) - 1) * c
        for i, x in enumerate(free):
            if lo[x] > cap:
                continue
            rest = free[:i] + free[i + 1:]
            gap_x = gap[x]
            for v in range(lo[x], cap + 1):
                k[x] = v
                if not rest:
                    out.append(tuple(k))
                    continue
                raised = lo[:]
                for z in rest:
                    if v + gap_x[z] > raised[z]:
                        raised[z] = v + gap_x[z]
                extend(rest, raised)

    extend(list(range(s)), [b + 1] * s)
    return out


def lemma_key_rebase(wide, b: int, c: int, t: int) -> list[tuple[int, ...]]:
    """lemma_key_survivors(b, c, t, r) read off wide = lemma_key_survivors(0,
    c, t', r) for any t' >= t, in the enumerator's order.

    Cases 1-3 and the box [b+1, (s-1)c+b+t] depend on k only through k - b,
    so the survivors at b are those at b = 0 shifted by b.  The enumerator's
    order is lexicographic in its (position, value) steps, which a larger t
    only extends, so the t list is the t' list capped at max(k) <= (s-1)c+t.
    """
    if not wide:
        return []
    top = (len(wide[0]) - 1) * c + t
    return [tuple(map(b.__add__, k)) for k in wide if max(k) <= top]
