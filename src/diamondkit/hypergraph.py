"""FF4-hypergraphs: Baber's diamond hypergraph, the 0-or-2 five-vertex law,
3-design verification, per-residue edge bounds and the .hyp format.

An FF4-hypergraph is a 4-uniform hypergraph in which every 5 vertices span
0 or exactly 2 hyperedges; an FF4-design additionally has every triple in
exactly n/4 hyperedges.  Hypergraph4(n, edges) checks every hypergraph.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import index

from .spectral import diamond_upper_bound
from .tournament import (MAX_N, InputError, Tournament, _Record, _bits, _diamond_lanes, _index,
                         _quote, _quote_int, _read_utf8, _refuse_trailing, count_diamonds,
                         parse_int)

PROVEN = "proven"
CONJECTURAL = "conjectural"
# a conjectural bound that an FF4 hypergraph exceeds, as the n = 1 (mod 4)
# formula is at n = 17 (702 > 700 edges)
REFUTED = "refuted"
# the most edges baber builds or parse_hyp reads: the Baber hypergraph of
# every tournament on at most 142 vertices fits (diamond_upper_bound(142) is
# 4,146,222.5), while an extremal one at n = 512 would hold 711,639,040
MAX_EDGES = 2**22


class Hypergraph4(_Record, namedtuple("Hypergraph4", "n edges")):
    """n vertices, 0 <= n <= MAX_N; edges is the strictly ascending tuple of
    4-tuples 0 <= a < b < c < d < n of Python ints (link shifts on numpy ints
    would wrap): the .hyp order, so equality and hash are those of the edge
    set.  The constructor is the one check, one pass that keeps a tuple of
    four Python ints as that object and reads any other edge through
    operator.index; its InputError at the first bad edge, edges[k], has at=k."""

    def __new__(cls, n, edges):
        n = _index(n, "n", 0, MAX_N)
        checked = []
        last = ()
        for e in edges:
            if type(e) is not tuple or len(e) != 4 or \
                    not type(e[0]) is type(e[1]) is type(e[2]) is type(e[3]) is int:
                try:
                    e = tuple(map(index, e))
                except TypeError:
                    raise InputError(f"bad edge {e!r}: indices must be integers",
                                     at=len(checked)) from None
                if len(e) != 4:
                    raise InputError(f"bad edge {e!r}", at=len(checked))
            a, b, c, d = e
            if not 0 <= a < b < c < d < n:
                raise InputError(f"edge {e} out of range for n={n}" if a < b < c < d
                                 else "edge indices must be strictly increasing", at=len(checked))
            if e <= last:
                raise InputError(f"edge {e} is not after {last}: edges must be strictly ascending",
                                 at=len(checked))
            checked.append(e)
            last = e
        return super().__new__(cls, n, tuple(checked))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def links(self) -> dict:
        """Link bitset of every triple that lies in an edge.

        Maps the triple {a,b,c}, keyed by its bitmask 2^a + 2^b + 2^c, to
        the bitmask of the vertices v with {a,b,c,v} an edge; its popcount
        is the number of edges through the triple.  Built on first use in
        O(m) big-int operations and cached on the instance (the fields,
        equality and hash do not change).
        """
        links = {}
        get = links.get
        bit = [1 << v for v in range(self.n)]
        for a, b, c, d in self.edges:
            ba, bb, bc, bd = bit[a], bit[b], bit[c], bit[d]
            mask = ba | bb | bc | bd
            t = mask ^ ba
            links[t] = get(t, 0) | ba
            t = mask ^ bb
            links[t] = get(t, 0) | bb
            t = mask ^ bc
            links[t] = get(t, 0) | bc
            t = mask ^ bd
            links[t] = get(t, 0) | bd
        return links


def baber(t: Tournament) -> Hypergraph4:
    """Hypergraph whose hyperedges are exactly the diamond 4-sets of t.

    One tournament._diamond_lanes call (the Pfaffian rule) per triple
    a < b < c, with the fourth vertex d as the lane: the rows of c, b and a
    are the words of the arcs cd, bd and ad, and the arcs ab, ac and bc are
    0 or all ones.  Each set lane d > c is an edge, so every diamond comes
    out once, and in ascending order: O(n^3) bitset steps plus O(1) per
    edge, no 4-subset scan.  The edges share no code with
    tournament.count_diamonds, which serves only the size check: a
    tournament with more than MAX_EDGES diamonds is an InputError, raised
    before any edge is built.
    """
    rows, n = t.rows, t.n
    m = count_diamonds(t)
    if m > MAX_EDGES:
        raise InputError(f"baber of n={n} would build {m} edges, above the limit of {MAX_EDGES}")
    full = (1 << n) - 1
    edges = []
    for a, ra in enumerate(rows):
        for b in range(a + 1, n - 2):
            rb = rows[b]
            ab = full if (ra >> b) & 1 else 0
            for c in range(b + 1, n - 1):
                lanes = _diamond_lanes(ab, rows[c], full if (ra >> c) & 1 else 0, rb, ra,
                                       full if (rb >> c) & 1 else 0, full)
                edges.extend((a, b, c, d) for d in _bits(lanes & -(2 << c)))
    return Hypergraph4(n, edges)


def verify_ff4(h: Hypergraph4):
    """None if every 5-subset spans 0 or 2 edges, else (least bad 5-set, count).

    Edge-centric: a 5-set e + {v} through an edge e spans
    1 + #{x in e : v in L[e - x]} edges, L being h.links.  Each L[e - x]
    also holds x itself, so the law holds iff for every edge the four links
    are pairwise disjoint and cover all n vertices: one OR and four
    popcounts per edge, O(m) big-int operations in all.

    Every bad 5-set contains an edge, and that edge fails the test.  Through
    a failing edge e the least bad 5-set is e + {v} for the least bad v, so
    the least of these over the failing edges is the lexicographically least
    bad 5-set.
    """
    n = _index(h.n, "n", 5)
    links = h.links
    full = (1 << n) - 1
    best = None
    bit = [1 << v for v in range(n)]
    for a, b, c, d in h.edges:
        ba, bb, bc, bd = bit[a], bit[b], bit[c], bit[d]
        mask = ba | bb | bc | bd
        la, lb, lc, ld = links[mask ^ ba], links[mask ^ bb], links[mask ^ bc], links[mask ^ bd]
        cover = la | lb | lc | ld
        if cover == full and \
                la.bit_count() + lb.bit_count() + lc.bit_count() + ld.bit_count() == n:
            continue
        twice = (la & lb) | (la & lc) | (la & ld) | (lb & lc) | (lb & ld) | (lc & ld)
        bad = full & ~(cover & ~twice)  # covered by no link or by two or more
        v = (bad & -bad).bit_length() - 1
        count = 1 + sum((link >> v) & 1 for link in (la, lb, lc, ld))
        e = (a, b, c, d)
        k = bisect(e, v)
        five = (*e[:k], v, *e[k:])
        if best is None or five < best[0]:
            best = (five, count)
    return best


def is_3_design(h: Hypergraph4, lam: int) -> bool:
    """True iff every 3-subset of vertices lies in exactly lam edges.

    Read off the link popcounts: with lam >= 1 every one of the C(n,3)
    triples must have a link, with lam = 0 none may.  lam is an int >= 0.
    """
    lam, links = _index(lam, "lam", 0), h.links
    return len(links) == (comb(h.n, 3) if lam else 0) and \
        all(x.bit_count() == lam for x in links.values())


def is_ff4_design(h: Hypergraph4) -> bool:
    """FF4 plus every triple in exactly n/4 edges (requires n = 0 mod 4)."""
    if h.n % 4 != 0:
        raise InputError(f"n={h.n} is not divisible by 4")
    # the 5-vertex condition is vacuous at n=4 (single-block design case)
    if h.n >= 5 and verify_ff4(h) is not None:
        return False
    return is_3_design(h, h.n // 4)


def edge_count_bound(n: int):
    """(bound, status) for the maximum FF4 edge count in residue class n mod 4.

    The n = 0 and n = 3 bounds are proven; n = 1 and n = 2 are conjectural
    and must never be asserted, only reported.  The n = 1 formula is false:
    at n = 17 an FF4 hypergraph has 702 edges against 700 (see REFUTED).
    The proven bounds are the diamond bounds, the edge counts of Baber
    hypergraphs of extremal tournaments.
    """
    n = _index(n, "n", 5)
    r = n % 4
    if r in (0, 3):
        return diamond_upper_bound(n), PROVEN
    if r == 2:
        return Fraction(n * (n - 3) * (n + 2) * (n - 2), 96), CONJECTURAL
    return Fraction((n - 1) * (n - 2) * (n - 3) * (n + 3), 96), CONJECTURAL


def parse_hyp(text: str) -> Hypergraph4:
    """Parse the .hyp format: 'n m', then m lines of 4 increasing indices below
    n, each edge strictly after the one before (so none repeats), then only
    blank lines.

    n is capped at tournament.MAX_N, the order of the largest tournament
    the toolkit builds, and m at MAX_EDGES.

    Every number is ASCII digits with an optional leading minus (see
    tournament.parse_int).  The tokens of every line come before the edges,
    which Hypergraph4 checks, keeps and places in one pass (its error's at);
    each InputError carries the 1-based line.
    """
    lines = text.splitlines()
    if not lines:
        raise InputError("empty input", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"header must be 'n m', got {_quote(lines[0])}", line=1)
    try:
        n, m = parse_int(head[0]), parse_int(head[1])
    except InputError:
        raise InputError(f"bad header {_quote(lines[0])}", line=1) from None
    if not (0 <= n <= MAX_N and 0 <= m <= MAX_EDGES):
        raise InputError(f"need 0 <= n <= {MAX_N} and 0 <= m <= {MAX_EDGES}, "
                         f"got n={_quote_int(n)}, m={_quote_int(m)}", line=1)
    if len(lines) < m + 1:
        raise InputError(f"expected {_quote_int(m)} edge lines, got {len(lines) - 1}",
                         line=len(lines))
    # in ASCII text without "+" or "_", int() takes just the tokens parse_int
    # takes, and is faster
    read = int if text.isascii() and "+" not in text and "_" not in text else parse_int
    edges = []
    for lineno, raw in enumerate(lines[1:m + 1], start=2):
        parts = raw.split()
        if len(parts) != 4:
            raise InputError(f"an edge needs 4 indices, got {len(parts)}", line=lineno)
        try:
            edges.append(tuple(map(read, parts)))
        except ValueError:
            raise InputError(f"bad index in {_quote(raw)}", line=lineno) from None
    try:
        h = Hypergraph4(n, edges)
    except InputError as exc:
        raise InputError(str(exc), line=exc.at + 2) from None
    _refuse_trailing(lines, m + 1, f"the {m} edges")
    return h


def format_hyp(h: Hypergraph4) -> str:
    return "\n".join([f"{h.n} {h.m}", *("%d %d %d %d" % e for e in h.edges)]) + "\n"


def load_hyp(path) -> Hypergraph4:
    return parse_hyp(_read_utf8(path))


def save_hyp(h: Hypergraph4, path):
    with open(path, "w") as fh:
        fh.write(format_hyp(h))
