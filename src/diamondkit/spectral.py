"""Seidel matrices and exact spectral identities.

Everything here is integer-exact: characteristic polynomials come from the
Faddeev-LeVerrier recurrence over Python ints, determinants from fraction-free
Bareiss elimination, and the sigma_2/sigma_4 fast path from traces of S^2 and
S^4.  The one floating-point step is _square, whose float64 product is exact
and is cast back to int64 before use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .tournament import Tournament

EVEN_EXTREMAL = "even-extremal"
ODD_EXTREMAL = "odd-extremal"
NOT_EXTREMAL = "no"

_MINOR_ORACLE_MAX_N = 14


@dataclass(frozen=True)
class SeidelMatrix:
    n: int
    entries: tuple  # tuple of n row-tuples, ints

    def __post_init__(self):
        m = self.entries
        if len(m) != self.n or any(len(r) != self.n for r in m):
            raise ValueError("entry matrix is not n x n")
        for i in range(self.n):
            if m[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(i + 1, self.n):
                if m[i][j] not in (-1, 1) or m[j][i] != -m[i][j]:
                    raise ValueError(f"bad skew pair at ({i},{j})")

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)


@dataclass(frozen=True)
class CharPoly:
    """det(xI - S) = x^n + sigma[0]*x^(n-1) + ... + sigma[n-1]."""

    n: int
    sigma: tuple

    def coefficient(self, k: int) -> int:
        """sigma_k, with sigma_0 = 1."""
        return 1 if k == 0 else self.sigma[k - 1]

    def coefficients(self) -> list:
        """[1, sigma_1, ..., sigma_n], highest degree first."""
        return [1, *self.sigma]


def seidel_from_tournament(t: Tournament) -> SeidelMatrix:
    """S = A - A^T: +1 where i dominates j, -1 where j dominates i."""
    a = t.adjacency()
    return SeidelMatrix(t.n, tuple(map(tuple, (a - a.T).tolist())))


def _square(a: np.ndarray) -> np.ndarray:
    """S @ S for an int64 Seidel matrix, multiplied in float64 BLAS.

    Exact: entries of S are in {-1, 0, 1}, so every product is exact and
    every partial sum of a dot product is an integer of magnitude at most
    n <= 512 < 2^53, whatever order BLAS sums in.  The int64 cast of the
    result is therefore lossless.
    """
    f = a.astype(np.float64)
    return (f @ f).astype(np.int64)


def char_poly(s: SeidelMatrix) -> CharPoly:
    """Exact characteristic polynomial via the Faddeev-LeVerrier recurrence.

    Each division by the step index is exact over the integers; a failed
    exact division would indicate an arithmetic bug and raises.
    """
    n = s.n
    a = [list(row) for row in s.entries]
    m = [row[:] for row in a]  # M_1 = S
    sigma = []
    c = -sum(m[i][i] for i in range(n))
    sigma.append(c)
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += c
        m = _mat_mul(a, m)
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError(f"inexact division at step {k}")
        c = -tr // k
        sigma.append(c)
    return CharPoly(n, tuple(sigma))


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


def sigma_from_traces(s: SeidelMatrix):
    """(sigma_2, sigma_4) from tr(S^2) and tr(S^4) via Newton's identities.

    Odd power sums of a skew-symmetric matrix vanish, which collapses the
    identities to sigma_2 = -tr(S^2)/2 and
    sigma_4 = (tr(S^2)^2/2 - tr(S^4))/4.  Exact in int64 for n <= 512: S^2
    comes exactly from _square, and tr(S^4) <= n^2 (n-1)^2 < 2^63.
    """
    a2 = _square(s.to_numpy())
    t2 = int(np.trace(a2))
    # S^2 is symmetric, so tr(S^4) is the sum of squared entries of S^2
    t4 = int((a2 ** 2).sum())
    sigma2, r2 = divmod(-t2, 2)
    sigma4, r4 = divmod(t2 * t2 // 2 - t4, 4)
    if r2 or r4:
        raise ArithmeticError("trace formulas produced non-integers")
    return sigma2, sigma4


def sum_principal_minors(s: SeidelMatrix, k: int) -> int:
    """Sum of all C(n,k) principal k x k minors, each by Bareiss.

    Oracle-scale only: refuses n > 14.
    """
    if s.n > _MINOR_ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {_MINOR_ORACLE_MAX_N}")
    if not 0 <= k <= s.n:
        raise ValueError(f"k={k} out of range")
    total = 0
    for idx in combinations(range(s.n), k):
        sub = [[s.entries[i][j] for j in idx] for i in idx]
        total += bareiss_det(sub)
    return total


def count_diamonds_spectral(t: Tournament) -> int:
    """Diamond count as (sigma_4 - C(n,4)) / 8 from the trace fast path."""
    _, sigma4 = sigma_from_traces(seidel_from_tournament(t))
    q, r = divmod(sigma4 - comb(t.n, 4), 8)
    if r:
        raise ArithmeticError(f"sigma_4 - C(n,4) = {sigma4 - comb(t.n, 4)} not divisible by 8")
    return q


def is_skew_conference(s: SeidelMatrix) -> bool:
    """True iff S^2 = -(n-1) I exactly."""
    expected = -(s.n - 1) * np.eye(s.n, dtype=np.int64)
    return bool(np.array_equal(_square(s.to_numpy()), expected))


def _even_extremal_sigma(n):
    """Coefficients sigma_1..sigma_n of (x^2 + (n-1))^(n/2)."""
    sigma = [0] * n
    for i in range(1, n // 2 + 1):
        sigma[2 * i - 1] = comb(n // 2, i) * (n - 1) ** i
    return tuple(sigma)


def _odd_extremal_sigma(n):
    """Coefficients sigma_1..sigma_n of x (x^2 + n)^((n-1)/2)."""
    sigma = [0] * n
    for i in range(1, (n - 1) // 2 + 1):
        sigma[2 * i - 1] = comb((n - 1) // 2, i) * n ** i
    return tuple(sigma)


def matches_extremal_charpoly(s: SeidelMatrix) -> str:
    """Classify S by exact coefficient equality with the extremal forms.

    Returns "even-extremal" (n = 0 mod 4, P = (x^2+(n-1))^(n/2)),
    "odd-extremal" (n = 3 mod 4, P = x (x^2+n)^((n-1)/2)) or "no".
    """
    n = s.n
    if n % 4 == 0:
        if char_poly(s).sigma == _even_extremal_sigma(n):
            return EVEN_EXTREMAL
    elif n % 4 == 3:
        if char_poly(s).sigma == _odd_extremal_sigma(n):
            return ODD_EXTREMAL
    return NOT_EXTREMAL


def diamond_upper_bound(n: int) -> Fraction:
    """Maximum possible diamond count by parity, as an exact rational."""
    if n < 4:
        raise ValueError("bound defined for n >= 4")
    if n % 2 == 0:
        return Fraction(n * n * (n - 1) * (n - 2), 96)
    return Fraction(n * (n - 1) * (n - 3) * (n + 1), 96)


def sigma4_upper_bound(n: int) -> Fraction:
    """Maximum possible sigma_4 of an order-n Seidel matrix, by parity."""
    if n < 4:
        raise ValueError("bound defined for n >= 4")
    if n % 2 == 0:
        return Fraction(n * (n - 1) ** 2 * (n - 2), 8)
    return Fraction(n * n * (n - 1) * (n - 3), 8)
