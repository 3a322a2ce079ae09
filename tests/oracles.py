"""Test oracles: slow, independent references for the production answers.

count_diamonds_naive (the C(n,4) scan), diamond_delta_on_flip,
char_poly (Faddeev-LeVerrier), sigma_from_traces and is_skew_conference
(numpy S^2), sum_principal_minors (Bareiss), verify_ff4_naive (the C(n,5)
scan), triple_profile, is_3_design and _deltas recompute what tournament,
spectral, hypergraph and search answer, in O(n^3) to O(n^5) work; from_arcs,
reverse, three_cycle, transitive, diamond4 and switch (Seidel switching) build
test tournaments, and the rest are the paper's design and sum-of-squares
formulas.  They read S from seidel, an arc i -> j as (t.rows[i] >> j) & 1,
or the pair bits of an encoding; none reuses a production table but
encodings_with_delta, which reads the scan it tests, search._block_planes.
This module sits beside the tests, outside the package, so no command can
load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from diamondkit.hypergraph import Hypergraph4, verify_ff4
from diamondkit.search import _EXHAUSTIVE_MAX_N, _block_planes, _scan_plan
from diamondkit.tournament import MIN_N, InputError, Tournament, _bits, _index

_MINOR_ORACLE_MAX_N = 14

# in-subset out-degree multisets of the two diamond types are (1,1,1,3) and
# (0,2,2,2); both have sum of squares 12, the other two 4-tournaments give
# 14 (transitive) and 10 (strong non-diamond).  Production decides diamonds
# by the Pfaffian rule (tournament._diamond_lanes), so this score-square
# rule shares no code with it.
_DIAMOND_SQ = 12


def _subset_degree_squares(rows, a, b, c, d):
    """Sum of the squared in-subset out-degrees of the 4-set a, b, c, d."""
    mask = (1 << a) | (1 << b) | (1 << c) | (1 << d)
    s = 0
    for v in (a, b, c, d):
        k = (rows[v] & mask).bit_count()
        s += k * k
    return s


def from_arcs(n, arcs) -> Tournament:
    """The tournament on n vertices with the arcs i -> j; Tournament refuses
    arcs that do not make one."""
    rows = [0] * n
    for i, j in arcs:
        rows[i] |= 1 << j
    return Tournament(rows)


def reverse(t: Tournament) -> Tournament:
    full = (1 << t.n) - 1
    return Tournament([(full ^ r) & ~(1 << i) for i, r in enumerate(t.rows)])


def three_cycle() -> Tournament:
    return from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive(n) -> Tournament:
    return from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diamond4() -> Tournament:
    # a dominates the 3-cycle b -> c -> d -> b
    return from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])


def switch(t: Tournament, x) -> Tournament:
    """Seidel switching by the vertex set x (S -> DSD, D = -1 on x and 1
    elsewhere): every arc between x and the other vertices is reversed."""
    inside = sum(1 << v for v in x)
    outside = ((1 << t.n) - 1) ^ inside
    return Tournament([r ^ (outside if (inside >> i) & 1 else inside)
                       for i, r in enumerate(t.rows)])


def seidel(t: Tournament) -> list:
    """S = A - A^T as n int lists: +1 where i dominates j, -1 where j
    dominates i, 0 on the diagonal; O(n^2) single-bit reads of the rows."""
    return [[(r >> j & 1) - (t.rows[j] >> i & 1) for j in range(t.n)] for i, r in enumerate(t.rows)]


def is_skew_conference(t: Tournament) -> bool:
    """S^2 = -(n-1) I, by the int64 product of seidel's S with itself."""
    s = np.array(seidel(t), dtype=np.int64)
    return np.array_equal(s @ s, (1 - t.n) * np.eye(t.n, dtype=np.int64))


@lru_cache(maxsize=64)
def _comb4(n):
    return np.array(list(combinations(range(n), 4)), dtype=np.int64)


def count_diamonds_naive(t: Tournament) -> int:
    """Exact diamond count by scanning all C(n,4) vertex subsets.

    It holds a C(n,4) x 4 index array, so memory grows as n^4 and it runs
    out of memory above n of about 200.
    """
    if t.n < 4:
        return 0
    a = (np.array(seidel(t)) > 0).astype(np.int64)
    c = _comb4(t.n)
    score = np.zeros(len(c), dtype=np.int64)
    for i in range(4):
        deg = np.zeros(len(c), dtype=np.int64)
        for j in range(4):
            if j != i:
                deg += a[c[:, i], c[:, j]]
        score += deg * deg
    return int(np.count_nonzero(score == _DIAMOND_SQ))


def sigma_from_traces(t: Tournament):
    """(sigma_2, sigma_4) of det(xI - S) from tr(S^2) and tr(S^4) via
    Newton's identities.

    Odd power sums of a skew-symmetric matrix vanish, which collapses the
    identities to sigma_2 = -tr(S^2)/2 and
    sigma_4 = (tr(S^2)^2/2 - tr(S^4))/4.  S^2 is the int64 product of
    seidel's S with itself (entries at most n in magnitude, so exact), and
    tr(S^4) is the sum of its squared entries, as S^2 is symmetric.
    """
    s = np.array(seidel(t), dtype=np.int64)
    s2 = s @ s
    t2, t4 = int(np.trace(s2)), int((s2 * s2).sum())
    sigma2, r2 = divmod(-t2, 2)
    sigma4, r4 = divmod(t2 * t2 // 2 - t4, 4)
    if r2 or r4:
        raise ArithmeticError("trace formulas produced non-integers")
    return sigma2, sigma4


def flip_arc(t: Tournament, i: int, j: int) -> Tournament:
    """Reverse the arc i -> j (precondition: i dominates j); copies all n rows."""
    if not (t.rows[i] >> j) & 1:
        raise InputError(f"arc ({i},{j}) not present")
    rows = list(t.rows)
    rows[i] &= ~(1 << j)
    rows[j] |= 1 << i
    return Tournament(rows)


def diamond_delta_on_flip(t: Tournament, i: int, j: int) -> int:
    """Change in diamond count if the arc i -> j is reversed.

    Only the C(n-2,2) 4-sets containing both endpoints can change; they are
    scanned in Python; flip_arc refuses an arc that is not present.
    """
    flipped = flip_arc(t, i, j)
    others = [v for v in range(t.n) if v != i and v != j]
    delta = 0
    for k, l in combinations(others, 2):
        delta += (_subset_degree_squares(flipped.rows, i, j, k, l) == _DIAMOND_SQ)
        delta -= (_subset_degree_squares(t.rows, i, j, k, l) == _DIAMOND_SQ)
    return delta


def _deltas(n, encodings):
    """Diamond counts for a uint32/uint64 array of encodings, by the score
    test over the whole array, one pass per 4-subset: pair bit b, taken in
    combinations order, is set iff the lower vertex of pair b dominates, and
    a 4-set is a diamond iff its in-subset out-degrees square-sum to
    _DIAMOND_SQ."""
    e = {pair: ((encodings >> b) & 1).astype(np.int8)
         for b, pair in enumerate(combinations(range(n), 2))}
    total = np.zeros(len(encodings), dtype=np.uint16)
    for quad in combinations(range(n), 4):
        squares = 0
        for v in quad:
            deg = sum(e[v, w] if v < w else 1 - e[w, v] for w in quad if w != v)
            squares = squares + deg * deg
        total += squares == _DIAMOND_SQ
    return total


def encodings_with_delta(n: int, delta: int) -> tuple:
    """All encodings whose tournament has exactly the given diamond count.

    An ascending tuple of ints, read from search._block_planes.  Raises
    InputError unless MIN_N <= n <= _EXHAUSTIVE_MAX_N = 8 and delta is an
    integer.
    """
    n = _index(n, "n", MIN_N, _EXHAUSTIVE_MAX_N)
    delta = _index(delta, "delta")
    low, ones = _scan_plan(n)[:2]
    hits = []
    for h in range((1 << (n * (n - 1) // 2)) >> low):
        planes = _block_planes(n, h)
        if delta >> len(planes):  # negative, or above every count of the block
            continue
        lanes = ones
        for k, p in enumerate(planes):
            lanes &= p if (delta >> k) & 1 else ones ^ p
        hits.extend((h << low) | x for x in _bits(lanes))
    return tuple(hits)


def char_poly(t: Tournament) -> tuple:
    """The coefficients (1, sigma_1, ..., sigma_n) of
    det(xI - S) = x^n + sigma_1*x^(n-1) + ... + sigma_n, highest degree
    first, by the Faddeev-LeVerrier recurrence.

    Each division by the step index is exact over the integers; a failed
    exact division would indicate an arithmetic bug and raises.  O(n^4) on
    Python ints.
    """
    n = t.n
    a = seidel(t)
    m = [row[:] for row in a]  # M_1 = S
    c = -sum(m[i][i] for i in range(n))
    sigma = [1, c]
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += c
        m = _mat_mul(a, m)
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError(f"inexact division at step {k}")
        c = -tr // k
        sigma.append(c)
    return tuple(sigma)


def _mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sum_principal_minors(t: Tournament, k: int) -> int:
    """Sum of all C(n,k) principal k x k minors, each by Bareiss; refuses
    n > 14."""
    if t.n > _MINOR_ORACLE_MAX_N:
        raise InputError(f"oracle limited to n <= {_MINOR_ORACLE_MAX_N}")
    if not 0 <= k <= t.n:
        raise InputError(f"k={k} out of range")
    m = seidel(t)
    total = 0
    for idx in combinations(range(t.n), k):
        sub = [[m[i][j] for j in idx] for i in idx]
        total += bareiss_det(sub)
    return total


def verify_ff4_naive(h: Hypergraph4):
    """verify_ff4 by scanning all C(n,5) 5-subsets in lexicographic order."""
    if h.n < 5:
        raise InputError("property defined for n >= 5")
    edges = set(h.edges)
    for five in combinations(range(h.n), 5):
        c = sum(1 for quad in combinations(five, 4) if quad in edges)
        if c not in (0, 2):
            return five, c
    return None


def triple_profile(h: Hypergraph4) -> dict:
    """Edge count through every 3-subset (zeros included)."""
    counts = {t: 0 for t in combinations(range(h.n), 3)}
    for e in h.edges:
        for t in combinations(e, 3):
            counts[t] += 1
    return counts


def is_3_design(h: Hypergraph4, lam: int) -> bool:
    """True iff every 3-subset of vertices lies in exactly lam edges, by
    triple_profile; lam is an int >= 0."""
    lam = _index(lam, "lam", 0)
    return all(c == lam for c in triple_profile(h).values())


def design_block_counts(n: int, k: int, t: int, lam: int, s: int) -> Fraction:
    """Blocks of a t-(n,k,lam) design through a fixed s-subset: lam*C(n-s,t-s)/C(k-s,t-s)."""
    if not 0 <= s <= t <= k <= n:
        raise InputError(f"need 0 <= s <= t <= k <= n, got {(n, k, t, lam, s)}")
    if lam < 1:
        raise InputError("lambda must be >= 1")
    return Fraction(lam * comb(n - s, t - s), comb(k - s, t - s))


def delete_vertices_count(h: Hypergraph4, drop):
    """(observed, predicted) edge counts after deleting the given vertices.

    observed counts edges avoiding the dropped set; predicted is the
    inclusion-exclusion value from the 3-(n,4,n/4) design parameters alone
    (None unless h is an FF4-design), so the two sides are independent.
    """
    drop = set(drop)
    if len(drop) > 3:
        raise InputError("at most 3 vertices may be dropped")
    if any(not (0 <= v < h.n) for v in drop):
        raise InputError("vertex out of range")
    observed = sum(1 for e in h.edges if not drop & set(e))
    predicted = None
    if h.n % 4 == 0 and verify_ff4(h) is None and is_3_design(h, h.n // 4):
        lam = h.n // 4
        d = len(drop)
        predicted = sum(
            (-1) ** j * comb(d, j) * design_block_counts(h.n, 4, 3, lam, j)
            for j in range(d + 1)
        )
    return observed, predicted


def min_sum_squares(s: int, p: int):
    """Minimum of sum(x_i^2) over nondecreasing p-part compositions of s.

    With s = p*k + h (0 <= h < p) the minimum is h*(k+1)^2 + (p-h)*k^2,
    attained exactly by parts in {k, k+1}.
    """
    if s < 0 or p < 1:
        raise InputError("need s >= 0 and p >= 1")
    k, h = divmod(s, p)
    minimum = h * (k + 1) ** 2 + (p - h) * k * k
    witness = (k,) * (p - h) + (k + 1,) * h
    return minimum, witness


def is_min_sum_squares_witness(parts, s: int, p: int) -> bool:
    """Equality characterization: p parts summing to s, each in {k, k+1}."""
    k = s // p
    return len(parts) == p and sum(parts) == s and all(x in (k, k + 1) for x in parts)
