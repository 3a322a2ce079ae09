"""Exhaustive and annealing search for diamond-maximal tournaments.

Encodings: upper-triangle arc bits in row-major pair order, pair b = the b-th
pair (i,j) with i < j; bit value 1 means the lower index dominates.  The
canonical witness of a search is the least encoding integer attaining the
maximum.  Exhaustive scans are vectorized per 4-subset through 64-entry
lookup tables and partitioned into fixed-size chunks, so results are
bit-identical for any thread count.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .spectral import diamond_upper_bound
from .tournament import Tournament, count_diamonds, diamond_delta_on_flip, \
    flip_arc, random_tournament, ArcFlip

_CHUNK = 1 << 18
_EXHAUSTIVE_MAX_N = 8
_LONG_RUN_N = 8  # 2^28 encodings; gated behind long_run=True


def pair_index(n: int, i: int, j: int) -> int:
    """Row-major index of pair (i,j), i < j, among the C(n,2) pairs."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def encode(t: Tournament) -> int:
    e = 0
    b = 0
    for i in range(t.n):
        for j in range(i + 1, t.n):
            if t.dom(i, j):
                e |= 1 << b
            b += 1
    return e


def decode(n: int, e: int) -> Tournament:
    rows = [0] * n
    b = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (e >> b) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            b += 1
    return Tournament(n, tuple(rows))


@dataclass(frozen=True)
class SearchResult:
    n: int
    mode: str
    max_diamonds: int
    witness: Tournament
    bound: object  # Fraction
    attained: bool
    explored: int
    params: dict = field(default_factory=dict)


@lru_cache(maxsize=16)
def _subset_tables(n):
    """Per 4-subset: the 6 global pair bit positions and a 64-entry diamond LUT."""
    tables = []
    for quad in combinations(range(n), 4):
        pair_bits = np.array(
            [pair_index(n, quad[a], quad[b]) for a, b in combinations(range(4), 2)],
            dtype=np.uint32,
        )
        lut = np.zeros(64, dtype=np.uint8)
        local_pairs = list(combinations(range(4), 2))
        for code in range(64):
            deg = [0, 0, 0, 0]
            for t, (a, b) in enumerate(local_pairs):
                if (code >> t) & 1:
                    deg[a] += 1
                else:
                    deg[b] += 1
            lut[code] = sum(d * d for d in deg) == 12
        tables.append((pair_bits, lut))
    return tables


def _deltas(n, encodings):
    """Diamond counts for a uint32/uint64 array of encodings."""
    total = np.zeros(len(encodings), dtype=np.uint16)
    for pair_bits, lut in _subset_tables(n):
        idx = np.zeros(len(encodings), dtype=np.uint8)
        for t, pb in enumerate(pair_bits):
            idx |= (((encodings >> pb) & 1) << t).astype(np.uint8)
        total += lut[idx]
    return total


def _chunk_ranges(total):
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


def _scan_chunk(n, lo, hi):
    enc = np.arange(lo, hi, dtype=np.uint32)
    d = _deltas(n, enc)
    best = int(d.max())
    first = lo + int(np.argmax(d == best))
    return best, first


def exhaustive_max_diamonds(n: int, threads: int = 1, long_run: bool = False) -> SearchResult:
    """Exact maximum diamond count over all 2^C(n,2) arc encodings.

    Deterministic for any thread count: the encoding space is cut into fixed
    chunks and reduced in chunk order (max diamonds, ties to the least
    encoding).  n=8 is refused unless long_run=True.
    """
    if not 4 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive search supports 4 <= n <= {_EXHAUSTIVE_MAX_N}")
    if n >= _LONG_RUN_N and not long_run:
        raise ValueError(f"n={n} requires long_run=True (2^{n * (n - 1) // 2} encodings)")
    total = 1 << (n * (n - 1) // 2)
    ranges = _chunk_ranges(total)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda r: _scan_chunk(n, *r), ranges))
    else:
        results = [_scan_chunk(n, lo, hi) for lo, hi in ranges]
    best, witness_enc = results[0]
    for b, w in results[1:]:
        if b > best:
            best, witness_enc = b, w
    bound = diamond_upper_bound(n)
    return SearchResult(
        n=n,
        mode="exhaustive",
        max_diamonds=best,
        witness=decode(n, witness_enc),
        bound=bound,
        attained=bound.denominator == 1 and best == bound,
        explored=total,
        params={"threads": threads},
    )


def encodings_with_delta(n: int, delta: int, long_run: bool = False) -> np.ndarray:
    """All encodings whose tournament has exactly the given diamond count."""
    if not 4 <= n <= _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive search supports 4 <= n <= {_EXHAUSTIVE_MAX_N}")
    if n >= _LONG_RUN_N and not long_run:
        raise ValueError(f"n={n} requires long_run=True")
    total = 1 << (n * (n - 1) // 2)
    hits = []
    for lo, hi in _chunk_ranges(total):
        enc = np.arange(lo, hi, dtype=np.uint32)
        d = _deltas(n, enc)
        hits.append(enc[d == delta])
    return np.concatenate(hits)


def verify_five_vertex_law():
    """Check delta in {0, 2} over all 1024 labeled 5-tournaments.

    Returns None on success, else (encoding, delta) of the first violation.
    """
    enc = np.arange(1 << 10, dtype=np.uint32)
    d = _deltas(5, enc)
    bad = np.nonzero((d != 0) & (d != 2))[0]
    if len(bad):
        e = int(bad[0])
        return e, int(d[e])
    return None


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
    Restarts are independent with per-restart derived seeds; the best-of
    reduction (max diamonds, ties to least encoding) is deterministic for
    any thread count.
    """
    if not 3 <= n <= 512:
        raise ValueError("n out of range")

    def run_restart(r):
        rng = random.Random(f"{seed}/{r}")
        t = random_tournament(n, rng.getrandbits(63))
        cur = count_diamonds(t)
        best, best_enc = cur, encode(t)
        temp = t0
        for _ in range(steps):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            if not t.dom(i, j):
                i, j = j, i
            delta = diamond_delta_on_flip(t, ArcFlip(i, j))
            if delta >= 0 or (temp > 0 and rng.random() < math.exp(delta / temp)):
                t = flip_arc(t, i, j)
                cur += delta
                if cur > best:
                    best, best_enc = cur, encode(t)
                elif cur == best:
                    best_enc = min(best_enc, encode(t))
            temp *= cooling
        return best, best_enc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_restart, range(restarts)))
    else:
        results = [run_restart(r) for r in range(restarts)]
    best, witness_enc = results[0]
    for b, w in results[1:]:
        if b > best or (b == best and w < witness_enc):
            best, witness_enc = b, w
    bound = diamond_upper_bound(n)
    return SearchResult(
        n=n,
        mode="local",
        max_diamonds=best,
        witness=decode(n, witness_enc),
        bound=bound,
        attained=bound.denominator == 1 and best == bound,
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
