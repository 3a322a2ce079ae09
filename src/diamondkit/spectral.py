"""Exact spectral identities of the Seidel matrix S = A - A^T of a tournament.

Everything here is integer-exact, takes a Tournament and reads the entries
g of S^2 above its diagonal, cached on it (Tournament.square_upper, Python
ints from row popcounts), and the diagonal 1 - n from n: O(n^2) once S^2 is
built.  The diamond count and its bound are one identity,
D = (n C(n,3) - sum g^2) / 16, and the extremal verdict is the bound's
equality case.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .tournament import Tournament, _index

EVEN_EXTREMAL = "even-extremal"
ODD_EXTREMAL = "odd-extremal"
NOT_EXTREMAL = "no"


def count_diamonds_spectral(t: Tournament) -> int:
    """Diamond count D = (n C(n,3) - sum g^2) / 16 over the entries g of
    square_upper.

    D = (sigma_4 - C(n,4)) / 8 for the characteristic polynomial of S, whose
    odd power sums vanish, so Newton's identities give
    sigma_4 = (tr(S^2)^2 / 2 - tr(S^4)) / 4 with tr(S^2) = -n(n-1) and
    tr(S^4) = ||S^2||_F^2 = n(n-1)^2 + 2 sum g^2; the constants collect to
    n^2 (n-1)(n-2) / 96 = n C(n,3) / 16.
    """
    n, g = t.n, t.square_upper
    d, r = divmod(n * comb(n, 3) - sum(map(mul, g, g)), 16)
    if r:
        raise ArithmeticError(f"n C(n,3) - sum g^2 is {r} mod 16, not 0")
    return d


def matches_extremal_charpoly(t: Tournament) -> str:
    """Classify the Seidel matrix S of t as extremal or not: the equality
    case of diamond_upper_bound.

    Returns "even-extremal" (n = 0 mod 4, P = (x^2+(n-1))^(n/2)),
    "odd-extremal" (n = 3 mod 4, P = x (x^2+n)^((n-1)/2)) or "no".

    S is real skew-symmetric, hence normal, so f(S) = 0 iff f vanishes on
    every eigenvalue.  D meets the bound iff sum g^2 is F(n), its least.  At
    n = 0 mod 4 that is every g = 0, S^2 = -(n-1) I, the extremal P; as every
    g = 0 makes n = 0 mod 4 by the triangle lemma, even-extremal is the one
    skew-conference test too.  At n = 3 mod 4 every g is +-1, and the lemma
    g_ij + g_ik + g_jk = n (mod 4) makes g_0i g_0j g_ij = 1, so
    S^2 + nI = u u^T with u = (1, g_01, ..., g_0,n-1); then
    ||Su||^2 = -u^T S^2 u = 0 and S^3 = -nS, whose eigenvalues lie in
    {0, +-i sqrt(n)}, n - 1 of them nonzero as tr S^2 = -n(n-1): the
    extremal P.  Conversely that P makes S^2 + nI n times the projector
    onto the simple kernel of S, of diagonal 1, so u u^T with u +-1.
    O(n^2) on the cached S^2.
    """
    n = t.n
    if n % 4 in (0, 3) and count_diamonds_spectral(t) == diamond_upper_bound(n):
        return EVEN_EXTREMAL if n % 4 == 0 else ODD_EXTREMAL
    return NOT_EXTREMAL


def lemma_cut(t: Tournament) -> int:
    """The far side of vertex 0 in the triangle lemma's cut, as a bitmask:
    the j >= 1 with g_0j = 2 - n (mod 4), read off square_upper in O(n).

    The lemma g_ij + g_ik + g_jk = n (mod 4), with every g of n's parity,
    puts 0 or 2 pairs with g = 2 - n (mod 4) in each triangle: they are
    those across one cut.  At an odd-extremal t the cut is {j : u_j = -1}
    for the kernel vector u = (1, g_01, ..., g_0,n-1) of S.
    """
    return sum(1 << j for j, g in enumerate(t.square_upper[:t.n - 1], 1) if (g + t.n) % 4 == 2)


def diamond_upper_bound(n: int) -> Fraction:
    """Upper bound on the diamond count of a tournament on n vertices, as an
    exact rational, for any n >= 0: (n C(n,3) - F(n)) / 16, where
    F(n) = (0, C(n,2) + 8 k, n(n-2), C(n,2))[n % 4], k = ceil(max(n-2, 0)^2
    / 32), bounds sum g^2 below (the least sum at n != 1 mod 4 and n = 5, not
    at n = 9), so D meets it iff sum g^2 = F(n) (count_diamonds_spectral).

    Each g = (S^2)_ij = 2 popcount(r_i ^ r_j) - n has n's parity, so at odd
    n sum g^2 >= C(n,2), with equality iff every |g| is 1.  The triangle
    lemma g_ij + g_ik + g_jk = n (mod 4) puts 0 or 2 pairs with
    g = 2 - n (mod 4) in each triangle, so they are those across one cut
    (A, V - A), a = |A|.  At n = 2 mod 4, |g| >= 2 inside its sides and
    sum g^2 >= 4 (C(a,2) + C(n-a,2)) >= n(n-2), with equality iff a = n/2,
    every g inside is +-2 and every g across is 0: the two-block S^2 of
    Ehlich and Wojtas (1964).  At n = 1 mod 4, n >= 5, switching A (S -> DSD,
    which keeps D and sum g^2) makes every g = 3 (mod 4), so
    S^2 = -(n-2) I - J + 4X for a symmetric integer X of zero diagonal, and
    sum g^2 - C(n,2) = 8 sum_{i<j} (2x^2 - x) >= 8 sum_{i<j} x^2.  S is skew
    of odd order, so Sw = 0 for some w != 0, and w^T S^2 w = 0 gives
    4 w^T X w = (n-2) |w|^2 + (sum w)^2: lambda_max(X) >= (n-2)/4, and
    2 sum_{i<j} x^2 = ||X||_F^2 >= lambda_max^2 >= (n-2)^2 / 16, an integer
    sum at least k.  The bound is 0 below 4 vertices and 1 at n = 4.
    """
    n = _index(n, "n", 0)
    k = -(-max(n - 2, 0) ** 2 // 32)
    return Fraction(n * comb(n, 3)
                    - (0, comb(n, 2) + 8 * k, n * (n - 2), comb(n, 2))[n % 4], 16)
