"""Paley tournaments, the dominating-vertex augmentation, vertex deletion and
the constructive extension of an odd-order extremal Seidel matrix to a
skew-conference matrix."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import gf
from .spectral import (
    ODD_EXTREMAL,
    SeidelMatrix,
    is_skew_conference,
    matches_extremal_charpoly,
)
from .tournament import Tournament


class ExtensionFailed(RuntimeError):
    """The primitive kernel vector was not +-1 valued (reportable anomaly)."""


def paley_tournament(q: int) -> Tournament:
    """Paley tournament on GF(q), q = 3 (mod 4): i -> j iff j - i is a square.

    Vertices are the field elements in their integer encoding (see gf module).
    """
    p, k = gf.factor_prime_power(q)
    if q % 4 != 3:
        raise ValueError(f"q={q} is not 3 mod 4; the square relation would not be a tournament")
    table = gf.gf_build(p, k)
    squares = table.squares()
    rows = []
    for i in range(q):
        r = 0
        for j in range(q):
            if j != i and table.sub(j, i) in squares:
                r |= 1 << j
        rows.append(r)
    return Tournament(q, tuple(rows))


def star_paley(q: int) -> Tournament:
    """Paley tournament plus a new vertex (index q) dominating everything."""
    base = paley_tournament(q)
    rows = list(base.rows)
    rows.append((1 << q) - 1)
    return Tournament(q + 1, tuple(rows))


def delete_vertices(t: Tournament, drop) -> Tournament:
    """Induced sub-tournament on the kept vertices, relabeled densely."""
    drop = set(drop)
    if any(not (0 <= v < t.n) for v in drop):
        raise ValueError("vertex out of range")
    if len(drop) >= t.n - 3:
        raise ValueError(f"cannot drop {len(drop)} of {t.n} vertices (need >= 4 left)")
    keep = [v for v in range(t.n) if v not in drop]
    rows = []
    for v in keep:
        row = t.rows[v]
        r = 0
        for new_j, old_j in enumerate(keep):
            if (row >> old_j) & 1:
                r |= 1 << new_j
        rows.append(r)
    return Tournament(len(keep), tuple(rows))


def _kernel_vector(entries, n):
    """Primitive integer kernel vector of a rank n-1 integer matrix.

    Exact rational Gaussian elimination, denominators cleared, divided by the
    gcd; sign fixed so the first nonzero entry is positive.
    """
    m = [[Fraction(x) for x in row] for row in entries]
    pivot_col_of_row = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_col_of_row.append(c)
        r += 1
    if r != n - 1:
        raise ExtensionFailed(f"kernel dimension {n - r}, expected 1")
    free = next(c for c in range(n) if c not in pivot_col_of_row)
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for row, c in enumerate(pivot_col_of_row):
        v[c] = -m[row][free]
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    u = [int(x * denom) for x in v]
    g = 0
    for x in u:
        g = gcd(g, x)
    u = [x // g for x in u]
    first = next(x for x in u if x)
    if first < 0:
        u = [-x for x in u]
    return u


def extend_to_conference(s: SeidelMatrix) -> SeidelMatrix:
    """Border an odd-extremal Seidel matrix with its +-1 kernel vector.

    Returns the order n+1 matrix [[S, u], [-u^T, 0]], verified to be a
    skew-conference matrix.
    """
    if s.n % 4 != 3 or matches_extremal_charpoly(s) != ODD_EXTREMAL:
        raise ValueError("matrix is not odd-extremal; extension does not apply")
    u = _kernel_vector(s.entries, s.n)
    if any(x not in (-1, 1) for x in u):
        raise ExtensionFailed(f"primitive kernel vector not +-1 valued: {u}")
    rows = [(*s.entries[i], u[i]) for i in range(s.n)]
    rows.append((*(-x for x in u), 0))
    ext = SeidelMatrix(s.n + 1, tuple(rows))
    if not is_skew_conference(ext):
        raise ExtensionFailed("bordered matrix is not a skew-conference matrix")
    return ext
