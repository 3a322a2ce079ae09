"""Exhaustive and annealing search for diamond-maximal tournaments.

Only this module and oracles import numpy; the CLI imports it only for
`search`.  Encodings are tournament.encode's: bit pair_index(n, i, j) is
the arc between i < j.  The canonical witness of a search is the least
encoding integer attaining the maximum.  The exhaustive scan runs over
blocks of encodings that share their high bits: per 4-subset, a cached code
of the low pair bits indexes a 64-entry diamond lookup table completed by
the block's high bits, and the block maxima reduce to the most diamonds,
ties to the least encoding, so results are bit-identical for any thread
count.  Annealing keeps S and S^2 of the current tournament and scores
each arc flip in O(n).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations

import numpy as np

from .spectral import diamond_upper_bound
from .tournament import (MAX_N, InputError, Tournament, count_diamonds, decode, encode, is_diamond,
                         pair_index, random_tournament)

_LOW_BITS = 15  # an exhaustive block holds the 2^15 encodings sharing their high bits
_GROUP = 2  # mixed 4-subsets per table gather: 64^2 table entries per block
_ARANGE64 = np.arange(64, dtype=np.uint8)
_EXHAUSTIVE_MAX_N = 8
_LONG_RUN_N = 8  # 2^28 encodings; gated behind long_run=True
MAX_THREADS = 64  # a pool is never larger, whatever the caller asks for


class SearchResult(namedtuple("SearchResult", "n mode max_diamonds witness bound attained "
                                               "explored params")):
    """A search's answer: the witness Tournament with max_diamonds diamonds,
    the Fraction bound, whether it is attained, the encodings or proposals
    explored and the search parameters as a dict."""

    __slots__ = ()


@lru_cache(maxsize=16)
def _subset_tables(n):
    """(lut, pair_bits): the 64-entry diamond LUT and a (C(n,4), 6) uint32
    array of the global pair bit positions of every 4-subset.

    The LUT is indexed by a 4-subset's own 6 pair bits, taken in pair_index
    order, so it is the encoding of a 4-tournament and one LUT serves all.
    """
    lut = np.array([is_diamond(decode(4, code), range(4)) for code in range(64)], dtype=np.uint8)
    local_pairs = list(combinations(range(4), 2))
    pair_bits = np.array([[pair_index(n, quad[a], quad[b]) for a, b in local_pairs]
                          for quad in combinations(range(n), 4)], dtype=np.uint32)
    return lut, pair_bits


@lru_cache(maxsize=16)
def _block_tables(n):
    """Low-bit subset codes for the block scan of all n-vertex encodings.

    An encoding is split into its low = min(_LOW_BITS, C(n,2)) bits, which
    run over one block, and its high bits, fixed per block.  A 4-subset's
    6-bit LUT index is the OR of a low code, from its pair bits in the low
    part x, and a high code, from the (local bit, high bit) pairs of its
    hpos.  Returns (low, base, mixed, high): base[x] sums the LUT over the
    subsets with all six pair bits low (uint8, 2^low entries); high holds
    the hpos of the subsets with all six bits high; mixed holds, per group
    of _GROUP subsets with bits on both sides, the hpos of each and a
    uint16 array whose bits 6g..6g+5 at x are the low code of subset g.
    """
    low = min(_LOW_BITS, n * (n - 1) // 2)
    x = np.arange(1 << low, dtype=np.uint32)
    base = np.zeros(1 << low, dtype=np.uint8)
    mixed, high = [], []
    joint, group = None, []
    lut, pair_bits = _subset_tables(n)
    for bits in pair_bits.tolist():
        code = np.zeros(1 << low, dtype=np.uint8)
        hpos = []
        for t, pb in enumerate(bits):
            if pb < low:
                code |= ((x >> pb) & 1).astype(np.uint8) << t
            else:
                hpos.append((t, pb - low))
        if not hpos:
            base += lut[code]
        elif len(hpos) == len(bits):
            high.append(tuple(hpos))
        else:
            if not group:
                joint = np.zeros(1 << low, dtype=np.uint16)
            joint |= code.astype(np.uint16) << (6 * len(group))
            group.append(tuple(hpos))
            if len(group) == _GROUP:
                mixed.append((joint, tuple(group)))
                group = []
    if group:
        mixed.append((joint, tuple(group)))
    return low, base, tuple(mixed), tuple(high)


def _high_code(h, hpos):
    code = 0
    for t, b in hpos:
        code |= ((h >> b) & 1) << t
    return code


def _block_counts(n, h):
    """Diamond counts of the encodings (h << low) | x for x = 0 .. 2^low - 1.

    uint8 suffices: a count is at most C(8,4) = 70.
    """
    low, base, mixed, high = _block_tables(n)
    lut = _subset_tables(n)[0]
    tot = base + np.uint8(sum(int(lut[_high_code(h, hpos)]) for hpos in high))
    tmp = np.empty_like(tot)
    for joint, group in mixed:
        # table[c0 + 64 c1 + ...] = sum_g lut[c_g | high code of subset g]
        table = np.zeros(1, dtype=np.uint8)
        for hpos in group:
            table = np.add.outer(lut[_ARANGE64 | _high_code(h, hpos)], table).ravel()
        np.take(table, joint, out=tmp)
        tot += tmp
    return tot


def _check_threads(threads):
    if not 1 <= threads <= MAX_THREADS:
        raise InputError(f"threads must be in [1, {MAX_THREADS}], got {threads}")


def _best_of(n, mode, fn, items, threads, explored, params) -> SearchResult:
    """The SearchResult of the best (count, encoding) pair fn returns over
    the range items: most diamonds, ties to the least encoding, so the
    result does not depend on the thread count.  The only place this module
    starts threads: with threads > 1 (checked by the caller) worker k
    reduces the slice items[k::threads] as it goes, so the pool holds one
    task per worker, not one per item.
    """
    def best(results):
        return max(results, key=lambda r: (r[0], -r[1]))

    if threads > 1:
        chunks = [items[k::threads] for k in range(min(threads, len(items)))]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            count, enc = best(pool.map(lambda chunk: best(map(fn, chunk)), chunks))
    else:
        count, enc = best(map(fn, items))
    bound = diamond_upper_bound(n)
    return SearchResult(n=n, mode=mode, max_diamonds=count, witness=decode(n, enc), bound=bound,
                        attained=count == bound, explored=explored, params=params)


def _check_exhaustive_n(n, long_run):
    if not 4 <= n <= _EXHAUSTIVE_MAX_N:
        raise InputError(f"exhaustive search supports 4 <= n <= {_EXHAUSTIVE_MAX_N}")
    if n >= _LONG_RUN_N and not long_run:
        raise InputError(f"n={n} requires long_run=True (2^{n * (n - 1) // 2} encodings)")


def exhaustive_max_diamonds(n: int, threads: int = 1, long_run: bool = False) -> SearchResult:
    """Exact maximum diamond count over all 2^C(n,2) arc encodings.

    Deterministic for any thread count: the encoding space is cut into
    blocks of 2^_LOW_BITS encodings that share their high bits, and the
    per-block maxima are reduced to the most diamonds, ties to the least
    encoding.  Raises InputError unless 4 <= n <= 8 and
    1 <= threads <= MAX_THREADS; n=8 is refused unless long_run=True.
    """
    _check_exhaustive_n(n, long_run)
    _check_threads(threads)
    total = 1 << (n * (n - 1) // 2)
    low = _block_tables(n)[0]  # build the cached tables before any thread starts

    def scan_block(h):
        d = _block_counts(n, h)
        x = int(d.argmax())
        return int(d[x]), (h << low) | x

    return _best_of(n, "exhaustive", scan_block, range(total >> low), threads,
                    explored=total, params={"threads": threads})


def encodings_with_delta(n: int, delta: int, long_run: bool = False) -> np.ndarray:
    """All encodings whose tournament has exactly the given diamond count.

    A uint32 array in ascending order, from the same block counts as
    exhaustive_max_diamonds.
    """
    _check_exhaustive_n(n, long_run)
    low = _block_tables(n)[0]
    hits = [
        np.flatnonzero(_block_counts(n, h) == delta).astype(np.uint32) | np.uint32(h << low)
        for h in range((1 << (n * (n - 1) // 2)) >> low)
    ]
    return np.concatenate(hits)


def verify_five_vertex_law():
    """Check delta in {0, 2} over all 1024 labeled 5-tournaments.

    Returns None on success, else (encoding, delta) of the first violation.
    """
    d = _block_counts(5, 0)  # C(5,2) = 10 bits: one block holds every encoding
    bad = np.nonzero((d != 0) & (d != 2))[0]
    if len(bad):
        e = int(bad[0])
        return e, int(d[e])
    return None


class _SquareState:
    """Annealing state: the Seidel matrix S and Q = S @ S, both int64.

    The diamond count is (sigma_4 - C(n,4)) / 8 with
    sigma_4 = ((tr Q)^2 / 2 - ||Q||_F^2) / 4, and tr Q = -n(n-1) is fixed, so
    reversing an arc changes the count by -d||Q||_F^2 / 32.  Reversing
    i -> j (S[i, j] = +1) adds -2 S[j] to row i of the symmetric Q and
    2 S[i] to row j, except at Q[i, i], Q[j, j] and Q[i, j], which keep
    their values, and the same to columns i and j.  Summing the squares of
    those rows and columns before and after gives a change of
    -(Q[j].S[i] - Q[i].S[j] + 4n - 6) / 4: two length-n dot products per
    proposal, and an O(n) update per accepted flip.  Every entry of Q has
    magnitude at most n - 1, so all of it is exact in int64.  Q starts from
    t's cached square, and S = A - A^T from one unpackbits of the rows: the
    one place a tournament becomes a matrix.
    """

    def __init__(self, t: Tournament):
        n = self.n = t.n
        self.q = np.array(t.square, dtype=np.int64)  # raises unless t is valid
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in t.rows),
                               dtype=np.uint8).reshape(n, width)
        a = np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(np.int64)
        self.s = a - a.T

    def dominates(self, i, j) -> bool:
        return self.s.item(i, j) > 0

    def delta(self, i, j) -> int:
        """Diamond count change if the arc i -> j is reversed (i dominates j)."""
        s, q = self.s, self.q
        return -(int(q[j] @ s[i]) - int(q[i] @ s[j]) + 4 * self.n - 6) // 4

    def flip(self, i, j):
        """Reverse the arc i -> j (i dominates j)."""
        s, q = self.s, self.q
        q[i] -= 2 * s[j]
        q[j] += 2 * s[i]
        q[i, i] = q[j, j] = 1 - self.n
        q[:, i] = q[i]
        q[:, j] = q[j]
        s[i, j] = -1
        s[j, i] = 1


def local_search_max_diamonds(
    n: int,
    restarts: int = 4,
    steps: int = 2000,
    t0: float = 2.0,
    cooling: float = 0.999,
    seed: int = 0,
    threads: int = 1,
) -> SearchResult:
    """Simulated annealing over arc flips scored by the incremental delta.

    Geometric cooling T_k = t0 * cooling^k; a flip is accepted when it does
    not decrease the diamond count or with probability exp(delta / T).
    Proposals are scored and applied on _SquareState in O(n).  Restarts are
    independent with per-restart derived seeds; the best-of reduction (max
    diamonds, ties to least encoding) is deterministic for any thread count.
    Raises InputError, before any work, unless 4 <= n <= MAX_N,
    restarts >= 1, steps >= 0, 1 <= threads <= MAX_THREADS, t0 is finite and
    >= 0 and cooling is finite and > 0.
    """
    if not 4 <= n <= MAX_N:
        raise InputError(f"local search supports 4 <= n <= {MAX_N}, got n={n}")
    if restarts < 1:
        raise InputError(f"restarts must be at least 1, got {restarts}")
    if steps < 0:
        raise InputError(f"steps must be at least 0, got {steps}")
    _check_threads(threads)
    if not (math.isfinite(t0) and t0 >= 0):
        raise InputError(f"t0 must be finite and at least 0, got {t0}")
    if not (math.isfinite(cooling) and cooling > 0):
        raise InputError(f"cooling must be finite and above 0, got {cooling}")

    def run_restart(r):
        rng = random.Random(f"{seed}/{r}")
        t = random_tournament(n, rng.getrandbits(63))
        state = _SquareState(t)
        cur = best = count_diamonds(t)
        enc = best_enc = encode(t)
        temp = t0
        for _ in range(steps):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            if not state.dominates(i, j):
                i, j = j, i
            delta = state.delta(i, j)
            if delta >= 0 or (temp > 0 and rng.random() < math.exp(delta / temp)):
                state.flip(i, j)
                cur += delta
                enc ^= 1 << pair_index(n, min(i, j), max(i, j))
                if cur > best:
                    best, best_enc = cur, enc
                elif cur == best:
                    best_enc = min(best_enc, enc)
            temp *= cooling
        return best, best_enc

    return _best_of(
        n, "local", run_restart, range(restarts), threads,
        explored=restarts * (steps + 1),
        params={
            "restarts": restarts,
            "steps": steps,
            "t0": t0,
            "cooling": cooling,
            "seed": seed,
            "threads": threads,
        },
    )
