"""Predicted root sets of the constant term as a polynomial in q^a, the
threshold table t_s behind them, polynomial reconstruction by interpolation,
the path-weight combinatorics that drives the vanishing analysis, and the key
lemma's classifier with the enumeration of the k-vectors that escape its
cases 1-3, whose lists at every c >= 1 are read off the one at c = 1."""

from __future__ import annotations

from functools import lru_cache

from .closedform import bf_factored
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


def root_sets(shape: Shape, b: int, c: int) -> list[tuple[int, ...]]:
    """The rows R_i, i = 0..n-1: row i holds the b consecutive integers from
    i*c + t_{i+1} + 1."""
    if b < 0 or c < 0:
        raise ValueError("b and c must be nonnegative")
    return [tuple(range(i * c + t + 1, i * c + t + b + 1))
            for i, t in enumerate(t_table(shape))]


def _node_values(shape: Shape, b: int, c: int) -> list:
    """The brute-force values at a = 0..nb+1 from one ``bf_ct_grid`` call."""
    nodes = range(shape.n * b + 2)
    grid = bf_ct_grid(shape, c, [(a, b) for a in nodes])
    return [grid[(a, b)] for a in nodes]


def interpolate_dn(shape: Shape, b: int, c: int) -> ZPoly:
    """The constant term as a polynomial in z = q^a, interpolated through the
    brute-force values at a = 0..nb+1: one node more than its degree bound nb
    needs, so that the bound is a check (the top coefficient must vanish)."""
    return interpolate(_node_values(shape, b, c))


def _split(scale: Cyclo) -> tuple[Cyclo, Cyclo]:
    """scale as top / den, two polynomial Cyclo values: top keeps the sign,
    the shift and the positive exponents, den the negative ones negated."""
    exps = scale.exps.items()
    return (Cyclo(scale.sign, scale.shift, {d: e for d, e in exps if e > 0}),
            Cyclo(1, 0, {d: -e for d, e in exps if e < 0}))


def _factored_zpoly(scale: Cyclo, roots) -> ZPoly:
    """scale * prod_{d in roots} (1 - q^d z) as a ZPoly: the coefficients
    start from scale's positive exponents, and its negative ones are the
    denominator."""
    top, den = _split(scale)
    coeffs = [top.expand()]
    for d in roots:
        # times (1 - q^d z)
        coeffs = [x - y.shift(d) for x, y in zip(coeffs + [ZERO], [ZERO] + coeffs)]
    return ZPoly(coeffs, den)


def _product_scale(shape: Shape, c: int, union) -> Cyclo:
    """D_n(0) / prod_{d in union} (1 - q^d): the product form's constant."""
    return bf_factored(shape, 0, c)[0] / Cyclo.poch_product((d, 1, 1) for d in union)


def product_form_coeffs(shape: Shape, b: int, c: int) -> ZPoly:
    """prod_{i in R}(1 - q^i z)/(1 - q^i) * D_n(0) over the root multiset R."""
    union = sorted(d for row in root_sets(shape, b, c) for d in row)
    return _factored_zpoly(_product_scale(shape, c, union), union)


def _node_width(top: Cyclo, den: Cyclo, degree: int, values) -> int:
    """The digit width B of the node check.

    C(z) = top * prod_d (1 - q^d z) over ``degree`` roots has coefficients
    whose l1 norms sum to at most |top|_1 2^degree, which bounds every
    coefficient of C(q^a); every coefficient of den * v lies within
    |den|_1 |v|_1.  So no coefficient of a compared difference reaches
    2^(B-1): one bit of margin, as a zero test at 2^B needs only that each
    stays below 2^B.
    """
    bound = den.l1_bound() * max(v.l1_norm() for v in values) + (top.l1_bound() << degree)
    return bound.bit_length() + 1


def verify_roots(shape: Shape, b: int, c: int) -> dict:
    """The constant term as a polynomial in z = q^a through nb + 2 nodes,
    its degree bound and the predicted roots.

    For c >= b additionally asserts the root multiset is disjoint of size nb
    (that bound is an empirical check here, flagged as such).  The polynomial
    must have degree at most nb through the nodes a = 0..nb+1, and every
    predicted root must be a root of it.

    The closed form K * prod_s (q^{a+s}; q)_b of ``closedform.bf_factored``
    is C(z) / D, C(z) = K+ * prod_d (1 - q^d z) with K+ and D the parts of K
    over and under the fraction bar: a polynomial of degree nb in z.  Each
    comparison is one integer equality at X = 2^B (Kronecker substitution),
    B from the coefficient bounds of ``_node_width``: node a fits when
    q^shift C(q^a) and D times the brute value agree at X, C(X^a) being
    K+(X) times one shift-and-subtract per factor.  No z-coefficient is
    built.  The nodes are distinct, so the interpolant (the unique
    polynomial of degree <= nb + 1 through them) is the closed form exactly
    when the closed form fits every node.  Then the degree and the roots are
    read off the factors: K+ is not zero (every symbol of K has m >= 1 for
    b, c >= 0), so the degree is the number of factors and q^-d is a root
    exactly when d is one of the factors' d.  Only on a miss does
    ``qring.interpolate`` build the polynomial by Newton's divided
    differences; the degree is then the index of its top nonzero
    coefficient, and each predicted root is tested exactly, by
    ``ZPoly.numerator_at``.  ``closed_form_match`` is whether every node
    fit.

    ``product_form_match`` compares the product form
    D_n(0) * prod_{d in R} (1 - q^d z) / (1 - q^d) with the closed form by
    its factors: its constant must equal K and R the closed form's roots
    {s + j : j < b} as multisets.  When ``closed_form_match`` holds this says
    the product form equals the interpolant (Q(q)[z] has unique
    factorization and a ``Cyclo`` value is canonical); when it does not, the
    case fails either way.
    """
    nb = shape.n * b
    union = sorted(d for row in root_sets(shape, b, c) for d in row)
    scale, shifts = bf_factored(shape, b, c)
    closed = sorted(s + j for s in shifts for j in range(b))
    values = _node_values(shape, b, c)
    top, den = _split(scale)
    B = _node_width(top, den, len(closed), values)
    lo, head = top.kronecker(B)
    den_x = den.kronecker(B)[1]

    def fits(a: int, v) -> bool:
        # q^lo C(q^a) against D v, both times q^-low at X
        c_x = head
        for d in closed:
            # times (1 - X^(d + a))
            c_x -= c_x << B * (d + a)
        v_lo, v_x = v.kronecker(B)
        low = min(lo, v_lo)
        return c_x << B * (lo - low) == den_x * v_x << B * (v_lo - low)

    match = all(fits(a, v) for a, v in enumerate(values))
    if match:
        degree, zeros = len(closed), set(closed)
    else:
        poly = interpolate(values)
        degree = max((i for i, x in enumerate(poly.coeffs) if not x.is_zero()), default=-1)
        zeros = {d for d in set(union) if poly.numerator_at(-d).is_zero()}
    report = {
        "shape": shape.parts,
        "b": b,
        "c": c,
        "nb": nb,
        "degree_bound_ok": degree <= nb,
        "regime": "c>=b (|R|=nb asserted, empirical bound)" if c >= b else "c<b (distinct roots only)",
        "disjoint": None,
        "root_count_ok": None,
        "roots_checked": 0,
        "first_failure": None,
        "all_vanish": True,
        "closed_form_match": match,
        "product_form_match": None,
    }
    if c >= b:
        report["disjoint"] = len(union) == len(set(union))
        report["root_count_ok"] = len(union) == nb
    for d in sorted(set(union)):
        report["roots_checked"] += 1
        if d not in zeros:
            report["all_vanish"] = False
            report["first_failure"] = d
            break
    if c >= b and report["disjoint"]:
        report["product_form_match"] = _product_scale(shape, c, union) == scale and union == closed
    return report


# -- path weights -------------------------------------------------------------------


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


def path_weight(w, r) -> tuple[int, ...]:
    """The weights e_j = ascent indicator + same-decorated-block indicator of
    the path w; their sum is the path weight N(w)."""
    w = tuple(w)
    r = tuple(r)
    s = sum(r)
    if len(w) != s or sorted(w) != list(range(1, s + 1)):
        raise ValueError("w must be a permutation of 1..sum(r)")
    ids = _block_ids(r)
    return tuple((prev < x) + (ids[prev] == ids[x]) for prev, x in zip((0,) + w, w))


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
    members = [[v for v in range(s) if mask >> v & 1] for mask in range(full + 1)]
    for mask in range(1, full):
        kept_m, dropped_m = kept[mask], dropped[mask]
        outside = [(u, kept[mask | 1 << u], dropped[mask | 1 << u]) for u in members[full ^ mask]]
        for v in members[mask]:
            kv, dv, same_v = kept_m[v], dropped_m[v], same[v]
            up = kv << 1, dv << 1  # an ascent v < u adds one
            for u, kept_n, dropped_n in outside:
                tk, td = up if v < u else (kv, dv)
                kept_n[u] |= tk + (tk & same_v[u])
                dropped_n[u] |= (td + (td & same_v[u])) | kv  # or drop this step
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
    got = sum(path_weight(w0, r))
    if got != expected:
        raise LemmaFalsified(f"witness weight {got} != max block size {expected} for r={r}")
    return tuple(w0), got


def leave_one_out_bound_holds(w, r) -> bool:
    """sum_{j != i} e_j >= max(r_1..r_p) - 1 for every i."""
    e = path_weight(w, r)
    if len(r) == 1:
        return True
    m = max(r[1:])
    total = sum(e)
    return all(total - ej >= m - 1 for ej in e)


# -- the key classification lemma ----------------------------------------------------


@lru_cache(maxsize=256)
def _key_tables(ids: tuple) -> tuple:
    """What the key lemma's cases read off a label tuple (see
    case4_staircase), compiled once per tuple, over 0-based positions
    x = 0..s-1 for the positions x + 1 = 1..s:

    - the pairs (i, j, (i + 1, j + 1)), i < j, of positions in different
      blocks, then those in one decorated block, each list in the (i, j)
      order in which cases 2 and 3 look for their witness;
    - the largest decorated block;
    - the block-equality table, chi[x][y] = [x, y in one decorated block]
      for x != y.
    """
    labels = ids[1:]
    s = len(labels)
    cross, same = [], []
    for i in range(s):
        for j in range(i + 1, s):
            (same if labels[i] == labels[j] else cross).append((i, j, (i + 1, j + 1)))
    maxr = max((labels.count(x) for x in labels if x > 0), default=0)
    chi = tuple(tuple(x == y for y in labels) for x in labels)
    return tuple(cross), tuple(same), maxr, chi


def lemma_key_classify(ks, b: int, c: int, t: int, r) -> list[tuple[int, object]]:
    """Classify admissible k-vectors, each into the first applicable case.

    ``ks`` holds the k of one (b, c, t, r), and the verdicts come in its
    order.  Cases: (1) some k_i <= b; (2) a cross-block pair with difference
    in [-c, c-1]; (3) a same-block pair with difference in [-c-1, c]; (4) a
    permutation w and slack vector d realizing the staircase growth pattern.
    The block labels, their tables and the box top are read once per list.
    Each k is sorted once, into case 4's order of positions (see
    case4_staircase), whose two ends give the range check.  Raises
    LemmaFalsified when nothing applies to some k (which would refute the
    lemma).
    """
    r = tuple(r)
    ids = _block_ids(r)
    s = len(ids) - 1
    top = (s - 1) * c + b + t
    cross, same, _, _ = _key_tables(ids)
    positions = range(s - 1, -1, -1)
    out = []
    for k in ks:
        if len(k) != s:
            raise ValueError("k length must equal sum(r)")
        w = sorted(positions, key=k.__getitem__)
        low = k[w[0]]
        if low < 1 or k[w[-1]] > top:
            raise ValueError("k out of the admissible range")
        if low <= b:
            out.append((1, next(i for i, ki in enumerate(k, 1) if ki <= b)))
            continue
        for i, j, pair in cross:
            if -c <= k[i] - k[j] < c:
                out.append((2, pair))
                break
        else:
            for i, j, pair in same:
                if -c - 1 <= k[i] - k[j] <= c:
                    out.append((3, pair))
                    break
            else:
                found = case4_staircase(k, ids, b, c, t, w)
                if found is None:
                    raise LemmaFalsified(f"no case applies for k={tuple(k)}, b={b}, c={c}, t={t}, r={r}")
                out.append((4, found))
    return out


def case4_staircase(k, ids, b: int, c: int, t: int, w=None):
    """Case 4 of ``lemma_key_classify``: the permutation w and slack vector d
    of the staircase pattern for k, or None.

    ``ids`` is a tuple: ``ids[x]`` labels position x = 1..s, and ``ids[0]``
    the start of every path, a label no position has.  Two positions share
    a decorated block exactly when they share a positive label, and every
    other label occurs once.  ``w`` is the candidate order of the 0-based
    positions below, when the caller has sorted k already.
    """
    _, _, maxr, chi = _key_tables(ids)
    # d_j >= 0 makes k nondecreasing along w, and a tie needs a descent, so
    # the one candidate is the positions ordered by (k_x, -x): a stable sort
    # by k_x of the 0-based positions, largest first
    if w is None:
        w = sorted(range(len(k) - 1, -1, -1), key=k.__getitem__)
    prev = w[0]
    # the first step leaves the start, which shares no block and lies below
    # every position: d_1 = k_{w_1} - b >= 1
    k_prev = k[prev]
    total = k_prev - b
    if total < 1:
        return None
    d = [total]
    row = chi[prev]
    for x in w[1:]:
        k_x, chi_x = k[x], row[x]
        dj = k_x - k_prev - c - chi_x
        if dj < (prev < x):  # d_j >= 0, and d_j >= 1 after an ascent
            return None
        total += chi_x + dj
        d.append(dj)
        prev, k_prev, row = x, k_x, chi[x]
    if maxr <= total <= t:
        return tuple([x + 1 for x in w]), tuple(d)
    return None


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
    with m positions open v stays at most the box's top less (m - 1)c.  A
    placement that raises an open position past the top is a dead end, and
    so is every larger v, so the search backtracks there.
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
                    u = v + gap_x[z]
                    if u > raised[z]:
                        if u > top:
                            break
                        raised[z] = u
                else:
                    extend(rest, raised)
                    continue
                break  # z has no value left in the box, at this v or any larger one

    extend(list(range(s)), [b + 1] * s)
    return out


def lemma_key_rebase(wide, wide_c: int, c: int, t: int, bs) -> list[list[tuple[int, ...]]]:
    """[lemma_key_survivors(b, c, t, r) for b in bs], read off wide =
    lemma_key_survivors(0, wide_c, t', r) for any t' >= t, each in the
    enumerator's order, where wide_c is c, or c and wide_c are both at least
    1.  The list is capped and stretched once, and shifted once per b.

    Shift by b: cases 1-3 and the box [b+1, (s-1)c+b+t] depend on k only
    through k - b, so the survivors at b are those at b = 0 shifted by b.

    Cap at t: the enumerator's order is lexicographic in its (position,
    value) steps, which a larger t only extends, so the t list is the t'
    list capped at max(k) <= (s-1)c+t, which is (s-1)wide_c+t before the
    stretch below.

    Stretch from wide_c to c: for c >= 1 every gap c + [y < x] + [x, y in one
    decorated block] of lemma_key_survivors is at least 1, so a survivor's
    values are distinct, and the gaps between consecutive values in value
    order imply the rest.  For c >= 2 two gaps already sum to at least
    2c >= c + 2, the widest gap any pair needs; for c = 1 a chain of values
    from k_y up to k_x with y < x holds an ascent, so its gaps sum to at
    least 3.  Each consecutive gap holds at c exactly when it holds, less
    c - 1, at c = 1, so subtracting (c - 1)j from the j-th smallest entry
    (j from 0) maps the c list one to one onto the c = 1 list, and adding
    (c - wide_c)j maps the wide_c list onto the c list.  The enumerator
    places values in increasing order, so the shift at each step depends
    only on the step, and the order is kept.  At c = 0 ties are allowed, and
    no list stretches to or from it.
    """
    if (c == 0) != (wide_c == 0):
        raise ValueError("only lists at c >= 1 stretch into one another")
    if not wide:
        return [[] for _ in bs]
    s = len(wide[0])
    cap = (s - 1) * wide_c + t
    base = [k for k in wide if max(k) <= cap]
    step = c - wide_c
    if step:
        offsets = range(0, step * s, step)  # step * j for the j-th smallest
        stretched = []
        for k in base:
            moved = dict(zip(sorted(k), offsets))
            stretched.append(tuple([v + moved[v] for v in k]))
        base = stretched
    return [[tuple([v + b for v in k]) for k in base] if b else base for b in bs]
