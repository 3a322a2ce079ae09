"""GF(p^k) as far as the Paley constructions need it: a modulus, the set
of squares and the translates of a set of elements.

Field elements are encoded as integers in [0, q): the base-p digits of an
element are the coefficients of its polynomial representative, digit i being
the coefficient of x^i.  This fixed encoding doubles as the vertex order of
the Paley tournaments, so the modulus (which fixes the squares when k > 1)
is chosen deterministically.
"""

from __future__ import annotations

from collections import namedtuple

from .tournament import MAX_N, InputError, _index, _quote_int


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, or raise if q is not a prime power."""
    if q < 2:
        raise InputError(f"{_quote_int(q)} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise InputError(f"{_quote_int(q)} is not a prime power")
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


class FieldTable(namedtuple("FieldTable", "p k q modulus")):
    """GF(q), q = p^k; modulus holds the k+1 coefficients of the monic
    modulus, ascending degree."""

    __slots__ = ()

    def squares(self) -> frozenset:
        """Nonzero squares {x*x : x != 0}."""
        p, k, modulus = self.p, self.k, list(self.modulus)
        return frozenset(
            _poly_to_int(_poly_mul_mod(d, d, modulus, p), p)
            for d in (_poly_from_int(x, p, k) for x in range(1, self.q))
        )

    def translates(self, mask: int) -> tuple:
        """The q translates of a set of elements given as a bitmask: entry x
        is the bitmask of {m + x : m in the set}.

        Addition is digit-wise mod p, so adding c at digit t (weight p^t)
        rotates every run of p^(t+1) bits, aligned at a multiple of
        p^(t+1), by c p^t bits.  Entry x is built from entry
        x - c p^t, c the top digit of x: q rotations, each a few operations
        on q-bit ints.
        """
        q = self.q
        out = [mask]
        block = 1
        while block < q:
            span = block * self.p
            starts = sum(1 << s for s in range(0, q, span))  # bit 0 of every run
            prev = list(out)
            for c in range(1, self.p):
                shift = c * block
                lo = ((1 << shift) - 1) * starts  # offsets below shift in every run
                hi = ((1 << span) - 1) * starts ^ lo
                out.extend(((m << shift) & hi) | ((m >> (span - shift)) & lo) for m in prev)
            block = span
        return tuple(out)


def gf_build(q: int) -> FieldTable:
    """Deterministic GF(q) construction; factor_prime_power(q) gives p and k.

    The modulus is the first monic irreducible of degree k when candidates
    are ordered by their coefficient vector read high-degree-first.  q is
    read through _index, so a numpy q builds the Python-int table, and
    refused outside [2, tournament.MAX_N] before it is factored.
    """
    q = _index(q, "q", 2, MAX_N)
    p, k = factor_prime_power(q)
    for c in range(q):
        # base-p digits of c are the non-leading coefficients, the high-degree
        # coefficient being the most significant digit, so ascending c scans
        # candidates in high-degree-first lexicographic order
        cand = _poly_from_int(c, p, k) + [1]
        if _is_irreducible(cand, p):
            return FieldTable(p=p, k=k, q=q, modulus=tuple(cand))
    raise AssertionError("every degree has a monic irreducible")
