"""Exhaustive and annealing search for diamond-maximal tournaments.

Only _SquareState, the annealer's state, imports numpy; encodings are
tournament.encode's ints: bit pair_index(n, i, j) is the arc between i < j.
The canonical witness of a search is the least encoding integer attaining
the maximum.  The exhaustive scan runs over blocks of encodings that share
their high bits, bit-sliced: a block is one Python int per pair bit, with
one bit (lane) per encoding, the diamond test of a 4-subset is
tournament._diamond_lanes of its six pair bits, and a ripple-carry adder
sums the tests into the bit planes of the counts, which
exhaustive_max_diamonds reads.  The block maxima reduce, as they are
computed, to the most diamonds, ties to the least encoding.  Annealing keeps
S and S^2 of the current tournament, scores each arc flip in O(n) and cools
on one fixed schedule, T_k = 2 * 0.999^k after k proposals.  Both
searches run on the calling thread; the exhaustive scan checks and reports
its threads, and the annealer takes none.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .spectral import count_diamonds_spectral
from .tournament import (MAX_N, MIN_N, Tournament, _diamond_lanes, _index, decode, encode,
                         pair_index, random_tournament)

_LOW_BITS = 15  # an exhaustive block holds the 2^15 encodings sharing their high bits
_EXHAUSTIVE_MAX_N = 8  # the scan's one limit on n: its 2^28 encodings take seconds
MAX_THREADS = 64  # the largest threads the exhaustive scan accepts; it runs on one thread
# the annealing schedule T_k = _T0 * _COOLING^k; it decays to a subnormal
# float that stays above 0, so every step divides by a positive temperature
_T0, _COOLING = 2.0, 0.999


class SearchResult(namedtuple("SearchResult", "max_diamonds witness explored params")):
    """What a search found: the witness Tournament with max_diamonds
    diamonds, the encodings or proposals explored and the search parameters
    as a dict.  n is witness.n, and the bound is diamond_upper_bound(n)."""

    __slots__ = ()


@lru_cache(maxsize=16)
def _scan_plan(n):
    """(low, ones, lanes, quads): the cached plan of the bit-sliced scan of
    all n-vertex encodings.

    Block h holds the 2^low encodings (h << low) | x, low =
    min(_LOW_BITS, C(n,2)), as the lanes x of one int, and ones sets every
    lane.  Bit x of lanes[b] is bit b of x: runs of 2^b clear and 2^b set
    lanes.  quads holds, for each 4-subset a < b < c < d, the pair indices
    of ab, cd, ac, bd, ad and bc.
    """
    low = min(_LOW_BITS, n * (n - 1) // 2)
    ones = (1 << (1 << low)) - 1
    # ones // (2^(2w) - 1) sets lane 0 of each period of 2w lanes, w = 2^b
    lanes = tuple(ones // ((1 << (2 << b)) - 1) * (((1 << (1 << b)) - 1) << (1 << b))
                  for b in range(low))
    quads = tuple(tuple(pair_index(n, i, j)
                        for i, j in ((a, b), (c, d), (a, c), (b, d), (a, d), (b, c)))
                  for a, b, c, d in combinations(range(n), 4))
    return low, ones, lanes, quads


def _block_planes(n, h):
    """The diamond counts of block h as bit planes: lane x of planes[k] is
    bit k of the count of the encoding (h << low) | x.

    Each pair bit e is an int over the lanes: a low bit is its lane
    pattern, a high bit 0 or ones.  tournament._diamond_lanes (the Pfaffian
    rule) gives the diamond lanes of each 4-set, and a ripple-carry adder
    sums them into the planes, stopping at the first zero carry.
    """
    low, ones, lanes, quads = _scan_plan(n)
    e = [*lanes, *(ones if (h >> k) & 1 else 0 for k in range(n * (n - 1) // 2 - low))]
    planes = []
    for ab, cd, ac, bd, ad, bc in quads:
        carry = _diamond_lanes(e[ab], e[cd], e[ac], e[bd], e[ad], e[bc], ones)
        for k, p in enumerate(planes):
            planes[k] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _best_of(n, fn, items, explored, params) -> SearchResult:
    """The SearchResult of the best (count, encoding) pair fn returns over
    items, reduced as fn returns them: most diamonds, ties to the least
    encoding, decoded as an n-vertex witness."""
    count, enc = max(map(fn, items), key=lambda r: (r[0], -r[1]))
    return SearchResult(count, decode(n, enc), explored, params)


def exhaustive_max_diamonds(n: int, threads: int = 1) -> SearchResult:
    """Exact maximum diamond count over all 2^C(n,2) arc encodings.

    The encoding space is cut into blocks of 2^_LOW_BITS encodings that
    share their high bits, and the per-block maxima are reduced to the most
    diamonds, ties to the least encoding.  threads is checked and reported,
    not used.  Raises InputError, before any work, unless
    MIN_N <= n <= _EXHAUSTIVE_MAX_N = 8 and 1 <= threads <= MAX_THREADS.
    """
    n = _index(n, "n", MIN_N, _EXHAUSTIVE_MAX_N)
    threads = _index(threads, "threads", 1, MAX_THREADS)
    total = 1 << (n * (n - 1) // 2)
    low, ones = _scan_plan(n)[:2]

    def scan_block(h):
        # from the top plane down, keep the lanes with the bit set, if any
        count, best = 0, ones
        planes = _block_planes(n, h)
        for k in reversed(range(len(planes))):
            top = best & planes[k]
            if top:
                count, best = count | (1 << k), top
        return count, (h << low) | ((best & -best).bit_length() - 1)

    return _best_of(n, scan_block, range(total >> low), explored=total, params={"threads": threads})


class _SquareState:
    """Annealing state: the Seidel matrix S and Q = S @ S, both int64.

    The diamond count is (n C(n,3) - sum g^2) / 16 over the entries g of Q
    above its fixed diagonal 1 - n (count_diamonds_spectral), which is
    const - ||Q||_F^2 / 32, so reversing an arc changes it by
    -d||Q||_F^2 / 32.  Reversing the arc between i and j, of sign
    s = S[i, j] in either orientation, adds -2s S[j] to row i of the
    symmetric Q and 2s S[i] to row j, except at Q[i, i], Q[j, j] and
    Q[i, j], which keep their values, and the same to columns i and j.
    Summing the squares of those rows and columns before and after gives a
    change of -(s Q[j].S[i] + 2n - 3) / 2, as Q[i].S[j] = -(S^3)[i, j] =
    -Q[j].S[i] with S and S^3 skew: one dot product per proposal, an O(n)
    update per accepted flip.  Q's entries have magnitude at most n - 1, so
    int64 is exact.  Q is 1 - n on the diagonal and t's cached square_upper
    on both sides of it, and S = A - A^T comes from one unpackbits of the rows.
    """

    def __init__(self, t: Tournament):
        import numpy as np

        n = self.n = t.n
        q = self.q = np.full((n, n), 1 - n, dtype=np.int64)
        i, j = np.triu_indices(n, 1)
        q[i, j] = q[j, i] = t.square_upper
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in t.rows),
                               dtype=np.uint8).reshape(n, width)
        a = np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(np.int64)
        self.s = a - a.T

    def delta(self, i, j) -> int:
        """Diamond count change if the arc between i != j is reversed."""
        return -(self.s.item(i, j) * int(self.q[j] @ self.s[i]) + 2 * self.n - 3) // 2

    def flip(self, i, j):
        """Reverse the arc between i != j."""
        s, q = self.s, self.q
        sign = 2 * s.item(i, j)
        q[i] -= sign * s[j]
        q[j] += sign * s[i]
        q[i, i] = q[j, j] = 1 - self.n
        q[:, i] = q[i]
        q[:, j] = q[j]
        s[i, j], s[j, i] = s[j, i], s[i, j]


def local_search_max_diamonds(n: int, restarts: int = 4, steps: int = 2000,
                              seed: int = 0) -> SearchResult:
    """Simulated annealing over arc flips scored by the incremental delta.

    The schedule is fixed, T_k = 2 * 0.999^k (_T0, _COOLING); a flip is
    accepted when it does not decrease the diamond count or with probability
    exp(delta / T_k).  Proposals are scored and applied on _SquareState in
    O(n).  Restarts are independent with per-restart derived seeds, run one
    after another, on the calling thread, and the best-of reduction keeps
    the most diamonds, ties to the least encoding.  Raises InputError,
    before any work, unless MIN_N <= n <= MAX_N, restarts >= 1, steps >= 0
    and seed is an integer (see tournament._index).
    """
    n, restarts = _index(n, "n", MIN_N, MAX_N), _index(restarts, "restarts", 1)
    steps, seed = _index(steps, "steps", 0), _index(seed, "seed")

    def run_restart(r):
        rng = random.Random(f"{seed}/{r}")
        t = random_tournament(n, rng.getrandbits(63))
        state = _SquareState(t)
        # from the S^2 that _SquareState has just built and cached on t
        cur = best = count_diamonds_spectral(t)
        enc = best_enc = encode(t)
        temp = _T0
        for _ in range(steps):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            delta = state.delta(i, j)
            if delta >= 0 or rng.random() < math.exp(delta / temp):
                state.flip(i, j)
                cur += delta
                enc ^= 1 << pair_index(n, min(i, j), max(i, j))
                if cur > best:
                    best, best_enc = cur, enc
                elif cur == best:
                    best_enc = min(best_enc, enc)
            temp *= _COOLING
        return best, best_enc

    return _best_of(n, run_restart, range(restarts), explored=restarts * (steps + 1),
                    params={"restarts": restarts, "steps": steps, "t0": _T0, "cooling": _COOLING,
                            "seed": seed})
