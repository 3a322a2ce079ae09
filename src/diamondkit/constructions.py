"""Paley tournaments, the dominating-vertex augmentation, vertex deletion and
the constructive extension of an odd-extremal tournament to one whose Seidel
matrix is skew-conference."""

from __future__ import annotations

from . import gf
from .spectral import ODD_EXTREMAL, lemma_cut, matches_extremal_charpoly
from .tournament import MIN_N, InputError, Tournament, _index, _quote_int


def _paley_rows(q):
    """The rows of T(q) on GF(q), q = 3 (mod 4): i -> j iff j - i is a square.

    Vertices are the field elements in their integer encoding (see gf
    module); row i is the set of squares translated by i.  q is read by
    gf.gf_build alone, which raises InputError for a q outside
    [2, tournament.MAX_N] before any work or for no prime power; a q that is
    not 3 mod 4 is refused after it.  The largest q left is 503, so T*(q)
    too, of q + 1 vertices, needs no order check of its own.
    """
    table = gf.gf_build(q)
    if table.q % 4 != 3:
        raise InputError(f"q={table.q} is not 3 mod 4; the square relation would not be a "
                         "tournament")
    return table.translates(sum(1 << x for x in table.squares()))


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
