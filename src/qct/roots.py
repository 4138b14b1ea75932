"""Predicted root sets of the constant term as a polynomial in q^a, the
threshold table t_s behind them, polynomial reconstruction by interpolation,
and the path-weight combinatorics that drives the vanishing analysis."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

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
    coeffs = [dn0_rhs(shape, c).num]
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
        poly.numerator_at(a) == poly.den.times(bf_rhs(BFParams(shape, a, b, c)).num)
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


def min_path_weights(r) -> tuple[int, int]:
    """min over w of N(w), and min over w and j of N(w) - e_j.

    N(w) = e_1 + the length of the path w_1 .. w_s with edge weight
    [x < y] + [x, y in one decorated block], where e_1 = 1, so both minima
    come from one Held-Karp pass instead of s! permutations.
    """
    ids = _block_ids(tuple(r))
    s = len(ids) - 1
    edge = [[(x < y) + (ids[x] == ids[y]) for y in range(1, s + 1)] for x in range(1, s + 1)]
    return _held_karp(edge, 1)


def _held_karp(edge, first: int) -> tuple[int, int]:
    """Shortest Hamiltonian path weight over all orderings of range(len(edge)),
    a path weighing ``first`` plus its edges, and the same minimum with one
    step's weight (``first`` included) left out.

    Dynamic programming over (visited set, last vertex) in O(2^s s^2) (Held &
    Karp, "A dynamic programming approach to sequencing problems", 1962), with
    one more bit for the leave-one-out minimum: has a weight been dropped yet.
    Weights must be nonnegative.
    """
    s = len(edge)
    big = first + s * max(map(max, edge), default=0) + 1  # exceeds every path weight
    kept = [[big] * s for _ in range(1 << s)]  # nothing dropped yet
    dropped = [[big] * s for _ in range(1 << s)]
    for v in range(s):
        kept[1 << v][v] = first
        dropped[1 << v][v] = 0
    for mask in range(1, 1 << s):
        kept_m, dropped_m = kept[mask], dropped[mask]
        free = [u for u in range(s) if not mask >> u & 1]
        for v in range(s):
            kv = kept_m[v]
            if kv == big:  # v is not in mask
                continue
            dv = dropped_m[v]
            ev = edge[v]
            for u in free:
                nxt = mask | 1 << u
                wt = ev[u]
                if kv + wt < kept[nxt][u]:
                    kept[nxt][u] = kv + wt
                best = min(dv + wt, kv)
                if best < dropped[nxt][u]:
                    dropped[nxt][u] = best
    return min(kept[-1]), min(dropped[-1])


def min_weight_witness(r) -> tuple[tuple[int, ...], int]:
    """The interleaved-descending permutation attaining the minimum weight.

    Blocks are listed largest-element first, cycling over blocks p..0 and
    taking each block's next-largest unused element.  Asserts the attained
    weight equals max(r_1..r_p).
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
    maxr = max(r[1:]) if len(r) > 1 else 0
    for w in permutations(range(1, s + 1)):
        d = []
        ok = True
        chi_sum = 0
        prev = 0
        for j, x in enumerate(w):
            chi = 1 if ids[prev] == ids[x] else 0
            if j == 0:
                dj = k[x - 1] - b
            else:
                dj = k[x - 1] - k[prev - 1] - c - chi
            if dj < 0 or (prev < x and dj < 1):
                ok = False
                break
            chi_sum += chi + dj
            d.append(dj)
            prev = x
        if ok and maxr <= chi_sum <= t:
            return (4, (tuple(w), tuple(d)))
    raise LemmaFalsified(f"no case applies for k={k}, b={b}, c={c}, t={t}, r={r}")


# -- corollary-level enumerations ------------------------------------------------------


def admissible_r_vectors(shape: Shape, s: int):
    """Positive vectors r with sum s and r_i <= min(s, n_i)."""
    parts = shape.parts

    def rec(i, remaining):
        if i == len(parts):
            if remaining == 0:
                yield ()
            return
        cap = min(s, parts[i])
        for v in range(1, cap + 1):
            if v <= remaining:
                for rest in rec(i + 1, remaining - v):
                    yield (v,) + rest

    yield from rec(0, s)


def threshold_attainment_check(shape: Shape, s: int) -> dict:
    """max(r_1..r_p) >= t_{s+1} over admissible r, plus the equality analysis.

    Every equality case (possible only when t_{s+1} > 0) must satisfy the
    load-bearing consequence sum_i r_i(n_i - r_i) = t_{s+1} (n - s); when s
    lies past the zero-threshold bracket (s > n_0 + p) the r-profile must
    additionally match the packed family: undecorated block full, the j-1
    smallest decorated blocks full, the rest all equal to m_{j-1} + k.
    """
    if shape.p == 0 or not 1 <= s <= shape.n - 1:
        raise ValueError("need p >= 1 and 1 <= s <= n-1")
    ts1 = t_table(shape)[s]  # t_{s+1}: table is t_1..t_n, index s is s+1
    m = (1,) + shape.sorted_decorated()
    p = shape.p
    n0 = shape.parts[0]
    report = {"shape": shape.parts, "s": s, "t_next": ts1, "checked": 0, "equality_cases": 0}
    orders = [
        w for w in permutations(range(1, p + 1))
        if list(shape.parts[i] for i in w) == sorted(shape.parts[1:])
    ]
    for r in admissible_r_vectors(shape, s):
        report["checked"] += 1
        mx = max(r[1:])
        if mx < ts1:
            raise LemmaFalsified(f"max r violates threshold: r={r}, t_(s+1)={ts1}")
        if mx == ts1 and ts1 > 0:
            report["equality_cases"] += 1
            sigma = sum(r[i] * (shape.parts[i] - r[i]) for i in range(1, p + 1))
            if sigma != ts1 * (shape.n - s):
                raise LemmaFalsified(f"equality case breaks the sigma identity: r={r}")
            if s > n0 + p and not _equality_profile_ok(shape, r, orders, m):
                raise LemmaFalsified(f"equality profile unexplained: r={r}, shape={shape}")
    return report


def _equality_profile_ok(shape, r, orders, m):
    if r[0] != shape.parts[0]:
        return False
    p = shape.p
    for w in orders:
        for j in range(1, p + 1):
            kmax = m[j] - m[j - 1]
            for kk in range(1, kmax + 1):
                good = all(r[w[i - 1]] == shape.parts[w[i - 1]] for i in range(1, j)) and all(
                    r[w[i - 1]] == m[j - 1] + kk for i in range(j, p + 1)
                )
                if good:
                    return True
    return False


def threshold_block_bound_holds(shape: Shape) -> bool:
    """-p(t_s + 1) <= n_0 - s for every s."""
    ts = t_table(shape)
    p = shape.p
    n0 = shape.parts[0]
    return all(-p * (ts[s - 1] + 1) <= n0 - s for s in range(1, shape.n + 1))
