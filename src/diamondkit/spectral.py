"""Exact spectral identities of the Seidel matrix S = A - A^T of a tournament.

Everything here is integer-exact, takes a Tournament and reads the entries
g of S^2 above its diagonal, cached on it (Tournament.square_upper, Python
ints from row popcounts), and the diagonal 1 - n from n: O(n^2) once S^2 is
built.  The diamond count and its bound are one identity,
D = (n C(n,3) - sum g^2) / 16, and the extremal tests read S^2 = -(n-1) I
and S^2 + nI = uu^T.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
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


def is_skew_conference(t: Tournament) -> bool:
    """True iff S^2 = -(n-1) I exactly: its diagonal is always 1 - n."""
    return not any(t.square_upper)


def kernel_sign_vector(t: Tournament):
    """The +-1 vector u with S^2 + nI = u u^T and u_0 = 1, as a list, or
    None when there is none.

    Such a u exists iff S^3 = -nS: S is real skew-symmetric, hence normal,
    and tr S^2 = -n(n-1), so S^3 = -nS iff S^2 has the eigenvalue -n with
    multiplicity n-1 and 0 once, iff S^2 + nI is n times the projector onto
    ker S.  Its diagonal is 1, so that is u u^T with u +-1 valued, and
    S u = 0.  Row 0 of S^2 + nI, the pairs (0, j) that lead square_upper,
    is u, and then each entry is u_i u_j.  O(n^2) on the cached S^2.
    """
    n, g = t.n, t.square_upper
    u = [1, *g[:n - 1]]
    if any(x != 1 and x != -1 for x in u):
        return None
    neg = [-x for x in u]
    # row i of u u^T right of the diagonal is u_i u[i+1:]
    upper = chain.from_iterable((u if ui == 1 else neg)[i + 1:] for i, ui in enumerate(u))
    return u if g == tuple(upper) else None


def matches_extremal_charpoly(t: Tournament) -> str:
    """Classify the Seidel matrix S of t as extremal or not by exact matrix
    identities.

    Returns "even-extremal" (n = 0 mod 4, P = (x^2+(n-1))^(n/2)),
    "odd-extremal" (n = 3 mod 4, P = x (x^2+n)^((n-1)/2)) or "no".

    S is real skew-symmetric, hence normal, so a polynomial identity
    f(S) = 0 holds iff f vanishes on every eigenvalue.  For n = 0 mod 4, P
    is the extremal form iff S^2 = -(n-1) I, which is is_skew_conference.
    For n = 3 mod 4, S^3 = -n S
    iff every eigenvalue lies in {0, +-i sqrt(n)}; a tournament has
    tr S^2 = -n(n-1), so exactly n-1 eigenvalues are nonzero and 0 is simple,
    which makes P = x (x^2+n)^((n-1)/2).  S^3 = -nS is decided as
    S^2 + nI = u u^T (see kernel_sign_vector).  O(n^2) on the cached S^2.
    """
    n = t.n
    if n % 4 == 0:
        return EVEN_EXTREMAL if is_skew_conference(t) else NOT_EXTREMAL
    if n % 4 != 3:
        return NOT_EXTREMAL
    return ODD_EXTREMAL if kernel_sign_vector(t) is not None else NOT_EXTREMAL


def diamond_upper_bound(n: int) -> Fraction:
    """Upper bound on the diamond count of a tournament on n vertices, as an
    exact rational, for any n >= 0: (n C(n,3) - [n odd] C(n,2)) / 16.

    Each g = (S^2)_ij = 2 popcount(r_i ^ r_j) - n has n's parity, so
    |g| >= n mod 2 and sum g^2 >= [n odd] C(n,2) over the C(n,2) pairs, with
    equality iff every |g| is n mod 2; count_diamonds_spectral's identity
    turns that into this bound, attained exactly then.  It is 0 below 4
    vertices, where there is no 4-set, and 1 at n = 4.
    """
    n = _index(n, "n", 0)
    return Fraction(n * comb(n, 3) - (n % 2) * comb(n, 2), 16)
