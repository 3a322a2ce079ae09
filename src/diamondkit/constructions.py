"""Paley tournaments, the dominating-vertex augmentation, vertex deletion and
the constructive extension of an odd-extremal tournament to one whose Seidel
matrix is skew-conference.

An element of GF(q), q = p^k, is the integer in [0, q) whose base-p digit i
is the coefficient of x^i of its polynomial; this encoding, with a modulus
chosen deterministically, is the vertex order of T(q).
"""

from __future__ import annotations

from .spectral import ODD_EXTREMAL, lemma_cut, matches_extremal_charpoly
from .tournament import MAX_N, MIN_N, InputError, Tournament, _index, _quote_int


def _factor_prime_power(q):
    """(p, k) with q = p^k for q >= 2, or InputError if q is no prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least prime factor
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise InputError(f"{q} is not a prime power")
    return p, k


def _digits(e, p, k):
    """The k base-p digits of e, lowest first: its coefficients, ascending."""
    digits = []
    for _ in range(k):
        e, r = divmod(e, p)
        digits.append(r)
    return digits


def _mul_mod(a, b, modulus, p):
    """The encoded product of coefficient lists a and b reduced by the monic
    modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for t in range(k):
                prod[d - k + t] = (prod[d - k + t] - c * modulus[t]) % p
    v = 0
    for d in reversed(prod[:k]):
        v = v * p + d
    return v


def _modulus(p, k):
    """The k + 1 ascending coefficients of the first monic irreducible of
    degree k over GF(p), in high-degree-first order: ascending c, whose
    base-p digits are the non-leading coefficients.  A candidate is
    irreducible when every monic divisor of degree 1..k/2 leaves a
    remainder, the candidate times 1 reduced by the divisor."""
    for c in range(p ** k):
        cand = _digits(c, p, k) + [1]
        if all(_mul_mod(cand, [1], _digits(e, p, d) + [1], p)
               for d in range(1, k // 2 + 1) for e in range(p ** d)):
            return cand
    raise AssertionError("every degree has a monic irreducible")


def _translates(mask, p, q):
    """The q translates of a set of elements of GF(q), q a power of p, given
    as a bitmask: entry x is the bitmask of {m + x : m in the set}.

    Addition is digit-wise mod p, so adding c at digit t (weight p^t)
    rotates every run of p^(t+1) bits, aligned at a multiple of p^(t+1), by
    c p^t bits.  Entry x is built from entry x - c p^t, c the top digit of
    x: q rotations, each a few operations on q-bit ints.
    """
    out = [mask]
    block = 1
    while block < q:
        span = block * p
        starts = sum(1 << s for s in range(0, q, span))  # bit 0 of every run
        prev = list(out)
        for c in range(1, p):
            shift = c * block
            lo = ((1 << shift) - 1) * starts  # offsets below shift in every run
            hi = ((1 << span) - 1) * starts ^ lo
            out.extend(((m << shift) & hi) | ((m >> (span - shift)) & lo) for m in prev)
        block = span
    return tuple(out)


def _paley_rows(q):
    """The rows of T(q) on GF(q), q = 3 (mod 4): i -> j iff j - i is a square.

    Row i is the set of squares translated by i.  q is read through _index,
    so a numpy q builds Python-int rows; a q outside [2, tournament.MAX_N] is
    an InputError before any work, one that is no prime power or not 3 mod 4
    right after it is factored.  The largest q left is 503, so T*(q), of
    q + 1 vertices, needs no order check of its own.
    """
    q = _index(q, "q", 2, MAX_N)
    p, k = _factor_prime_power(q)
    if q % 4 != 3:
        raise InputError(f"q={q} is not 3 mod 4; the square relation would not be a "
                         "tournament")
    modulus = _modulus(p, k)
    squares = {_mul_mod(d, d, modulus, p) for d in (_digits(x, p, k) for x in range(1, q))}
    return _translates(sum(1 << x for x in squares), p, q)


def paley_tournament(q: int) -> Tournament:
    """The Paley tournament T(q) (see _paley_rows)."""
    return Tournament(_paley_rows(q))


def star_paley(q: int) -> Tournament:
    """T*(q): T(q) plus a new vertex (index q) dominating everything.

    Its rows are built once and checked once; raises InputError as
    _paley_rows does.
    """
    rows = _paley_rows(q)
    return Tournament((*rows, (1 << len(rows)) - 1))


def delete_vertices(t: Tournament, drop) -> Tournament:
    """Induced sub-tournament on the kept vertices, relabeled densely.

    The one reader of vertex indices: raises InputError on a vertex that is
    not an integer, out of range or named twice, or when fewer than MIN_N
    vertices would be left.  Each dropped vertex v is cut out of every kept
    row by joining its bits below v to its bits above v shifted down.
    """
    drop = list(map(_index, drop))
    for v in drop:
        if not 0 <= v < t.n:
            raise InputError(f"vertex {_quote_int(v)} out of range for n={t.n}")
    seen = set()
    for v in drop:
        if v in seen:
            raise InputError(f"vertex {v} named twice")
        seen.add(v)
    if t.n - len(drop) < MIN_N:
        raise InputError(f"cannot drop {len(drop)} of {t.n} vertices (need >= {MIN_N} left)")
    rows = [r for v, r in enumerate(t.rows) if v not in seen]
    for v in sorted(seen, reverse=True):
        low = (1 << v) - 1
        rows = [(r & low) | ((r >> (v + 1)) << v) for r in rows]
    return Tournament(rows)


def extend_to_conference(t: Tournament) -> Tournament:
    """Border an odd-extremal tournament with the +-1 kernel vector of its S.

    Returns the order n+1 tournament with Seidel matrix B = [[S, u], [-u^T, 0]]:
    the new vertex n beats exactly the vertices of spectral.lemma_cut(t).  The
    odd-extremal verdict (spectral.matches_extremal_charpoly) proves
    S^2 + nI = u u^T with u +-1 and u_0 = +1, so u = -1 exactly on that cut.
    B is skew-conference: as S is skew, ||Su||^2 = -u^T S^2 u = n^2 - n^2 = 0,
    so Su = 0, and then B^2 = [[S^2 - uu^T, Su], [(Su)^T, -n]] = -nI.  The
    extend command reports that check on the result.
    """
    n = t.n
    if matches_extremal_charpoly(t) != ODD_EXTREMAL:
        raise InputError("matrix is not odd-extremal; extension does not apply")
    cut = lemma_cut(t)
    rows = [r if (cut >> i) & 1 else r | (1 << n) for i, r in enumerate(t.rows)]
    return Tournament((*rows, cut))
