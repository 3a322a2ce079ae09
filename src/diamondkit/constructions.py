"""Paley tournaments, the dominating-vertex augmentation, vertex deletion and
the constructive extension of an odd-extremal tournament to one whose Seidel
matrix is skew-conference."""

from __future__ import annotations

import numpy as np

from . import gf
from .spectral import ODD_EXTREMAL, is_skew_conference, matches_extremal_charpoly
from .tournament import MAX_N, InputError, Tournament, from_adjacency


class ExtensionFailed(RuntimeError):
    """The kernel column was not +-1 valued, or the bordered matrix is not
    skew-conference (reportable anomaly)."""


def _check_order(kind, q, n):
    if n > MAX_N:
        raise InputError(f"{kind} of q={q} has {n} vertices, above the limit of {MAX_N}")


def paley_tournament(q: int) -> Tournament:
    """Paley tournament on GF(q), q = 3 (mod 4): i -> j iff j - i is a square.

    Vertices are the field elements in their integer encoding (see gf module).
    Raises InputError, before any work, if q exceeds tournament.MAX_N.
    """
    _check_order("paley", q, q)
    p, k = gf.factor_prime_power(q)
    if q % 4 != 3:
        raise InputError(f"q={q} is not 3 mod 4; the square relation would not be a tournament")
    table = gf.gf_build(p, k)
    is_square = np.zeros(q, dtype=bool)
    is_square[list(table.squares())] = True
    return from_adjacency(is_square[table.differences()])


def star_paley(q: int) -> Tournament:
    """Paley tournament plus a new vertex (index q) dominating everything.

    Raises InputError, before any work, if q + 1 exceeds tournament.MAX_N.
    """
    _check_order("star-paley", q, q + 1)
    base = paley_tournament(q)
    rows = list(base.rows)
    rows.append((1 << q) - 1)
    return Tournament(q + 1, tuple(rows))


def delete_vertices(t: Tournament, drop) -> Tournament:
    """Induced sub-tournament on the kept vertices, relabeled densely."""
    drop = set(drop)
    if any(not (0 <= v < t.n) for v in drop):
        raise InputError("vertex out of range")
    if len(drop) >= t.n - 3:
        raise InputError(f"cannot drop {len(drop)} of {t.n} vertices (need >= 4 left)")
    keep = [v for v in range(t.n) if v not in drop]
    return from_adjacency(t.adjacency[np.ix_(keep, keep)])


def extend_to_conference(t: Tournament) -> Tournament:
    """Border an odd-extremal tournament with the +-1 kernel vector of its S.

    Returns the order n+1 tournament with Seidel matrix [[S, u], [-u^T, 0]],
    verified to be a skew-conference matrix: the new vertex n loses to i
    exactly when u_i = +1.

    For odd-extremal S the eigenvalues of S^2 are -n (n-1 times) and 0
    (once), so S^2 + nI is n times the projector onto ker S.  Its diagonal
    is 1 (every (S^2)_ii = -(n-1)), so the primitive kernel vector u is +-1
    valued and S^2 + nI = u u^T.  Column 0 of S^2 + nI is u_0 u: the kernel
    vector with first entry +1.  S^2 is the one cached on t (see
    Tournament.square).  The final skew-conference check also certifies
    S u = 0.
    """
    n = t.n
    if n % 4 != 3 or matches_extremal_charpoly(t) != ODD_EXTREMAL:
        raise InputError("matrix is not odd-extremal; extension does not apply")
    u = t.square[:, 0].tolist()
    u[0] += n
    if any(x not in (-1, 1) for x in u):
        raise ExtensionFailed(f"kernel column of S^2 + nI not +-1 valued: {u}")
    rows = [r | (1 << n) if x == 1 else r for r, x in zip(t.rows, u)]
    rows.append(sum(1 << i for i, x in enumerate(u) if x == -1))
    ext = Tournament(n + 1, tuple(rows))
    if not is_skew_conference(ext):
        raise ExtensionFailed("bordered matrix is not a skew-conference matrix")
    return ext
