"""GF(p^k) as far as the Paley constructions need it: a modulus, the set
of squares and a table of differences.

Field elements are encoded as integers in [0, q): the base-p digits of an
element are the coefficients of its polynomial representative, digit i being
the coefficient of x^i.  This fixed encoding doubles as the vertex order of
the Paley tournaments, so the modulus (which fixes the squares when k > 1)
is chosen deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tournament import InputError


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, or raise if q is not a prime power."""
    if q < 2:
        raise InputError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise InputError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1  # q itself is prime


def _poly_from_int(e, p, k):
    digits = []
    for _ in range(k):
        e, r = divmod(e, p)
        digits.append(r)
    return digits


def _poly_to_int(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient lists and reduce by the monic modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for t in range(k):
                prod[d - k + t] = (prod[d - k + t] - c * modulus[t]) % p
    prod = prod[:k]
    prod += [0] * (k - len(prod))
    return prod


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2: poly * 1
    reduced by den is the remainder of poly by den."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for c in range(p ** d):
            den = _poly_from_int(c, p, d) + [1]
            if not any(_poly_mul_mod(poly, [1], den, p)):
                return False
    return k >= 1


@dataclass(frozen=True)
class FieldTable:
    p: int
    k: int
    q: int
    modulus: tuple  # k+1 coefficients, ascending degree, monic

    def squares(self) -> frozenset:
        """Nonzero squares {x*x : x != 0}."""
        p, k, modulus = self.p, self.k, list(self.modulus)
        return frozenset(
            _poly_to_int(_poly_mul_mod(d, d, modulus, p), p)
            for d in (_poly_from_int(x, p, k) for x in range(1, self.q))
        )

    def differences(self) -> np.ndarray:
        """q x q table whose entry [i, j] is the encoding of j - i.

        Subtraction is digit-wise mod p, so the table is built one base-p
        digit at a time, most significant first.  The dtype is the narrowest
        signed one holding -q (int16 for the orders near tournament.MAX_N):
        every intermediate value lies in (-q, q).
        """
        dtype = np.min_scalar_type(-self.q)
        x = np.arange(self.q, dtype=dtype)
        table = np.zeros((self.q, self.q), dtype=dtype)
        for t in reversed(range(self.k)):
            digit = x // self.p ** t % self.p
            table *= self.p
            table += (digit[None, :] - digit[:, None]) % self.p
        return table


def gf_build(p: int, k: int) -> FieldTable:
    """Deterministic GF(p^k) construction.

    The modulus is the first monic irreducible of degree k when candidates
    are ordered by their coefficient vector read high-degree-first.
    """
    if not is_prime(p):
        raise InputError(f"p={p} is not prime")
    if k < 1:
        raise InputError("k must be >= 1")
    q = p ** k
    for c in range(q):
        # base-p digits of c are the non-leading coefficients, the high-degree
        # coefficient being the most significant digit, so ascending c scans
        # candidates in high-degree-first lexicographic order
        cand = _poly_from_int(c, p, k) + [1]
        if _is_irreducible(cand, p):
            return FieldTable(p=p, k=k, q=q, modulus=tuple(cand))
    raise AssertionError("every degree has a monic irreducible")
