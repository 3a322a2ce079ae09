"""Tournaments as row bitsets: the one check, diamond detection, counting,
the pair encoding and S^2.

A tournament on n vertices stores one bitmask per vertex; bit j of row i is
set iff i dominates j.  Vertices are dense 0-based ints.  Tournament(rows)
refuses rows that are not a tournament, so every reader trusts them.  The
pair encoding is bit operations on the rows.  S^2 above its diagonal, for
S = A - A^T, is built from the rows on first use and cached, so every
spectral check reads one S^2.  No numpy is imported here.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from functools import cached_property
from math import comb

MAX_N = 512


class InputError(ValueError):
    """Bad outside input: file content, a CLI argument or a library
    parameter.  Carries the 1-based line and column of a file when known,
    and str() then ends with " (line L[, column C])".  The CLI maps it, and
    only it (with OSError), to exit 2.  A record's check sets at, where its
    defect is (Tournament's pair, Hypergraph4's edge index), for the parsers.
    """

    def __init__(self, message, line=None, column=None, at=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.at = at

    def __str__(self):
        if self.line is None:
            return super().__str__()
        column = f", column {self.column}" if self.column else ""
        return f"{super().__str__()} (line {self.line}{column})"


def _square(n, rows):
    """The C(n,2) entries of S^2 above its diagonal, of a tournament's rows,
    in pair_index order, from popcounts.

    For i != j, (S^2)_ij = -sum_k S_ik S_jk.  Rows i and j differ at each k
    with S_ik != S_jk and at one of i, j, so
    (S^2)_ij = 2 popcount(r_i ^ r_j) - n.  S^2 is symmetric with every
    diagonal entry 1 - n, so these entries are all of it that varies:
    C(n,2) XORs and popcounts of n-bit ints, O(n^3 / 64) word operations.
    """
    return tuple([2 * (ri ^ rj).bit_count() - n
                  for i, ri in enumerate(rows) for rj in rows[i + 1:]])


def _index(v, what="vertex index", lo=None, hi=None):
    """operator.index(v): a Python int, as a shift count into a row or a size
    must be (a numpy one coerces a row to int64); a float is an InputError
    that names what v is.  The one reader of a size and its range: with lo,
    a v below lo, or above hi when given, is an InputError too."""
    try:
        v = operator.index(v)
    except TypeError:
        raise InputError(f"{what} {v!r} is not an integer") from None
    if lo is not None and hi is None and v < lo:
        raise InputError(f"{what} must be at least {lo}, got {_quote_int(v)}")
    if hi is not None and not lo <= v <= hi:
        raise InputError(f"{what}={_quote_int(v)} out of range [{lo}, {hi}]")
    return v


def _bits(x):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Record(tuple):
    """Base of Tournament and Hypergraph4: _make (so _replace), copy and
    pickle build through the constructor, the check; assignment is refused,
    while cached_property writes the __dict__ directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class Tournament(_Record, namedtuple("Tournament", "rows")):
    """A tournament on n = len(rows) vertices, 3 <= n <= MAX_N; rows[i] is
    the bitmask of the vertices dominated by i.  The constructor is the one
    check: it reads the rows into a tuple of Python ints (see _index) and
    raises InputError on n, then at the first bad pair (see _first_defect)."""

    def __new__(cls, rows):
        rows = tuple([_index(r, "row") for r in rows])
        _index(len(rows), "n", 3, MAX_N)
        bad = _first_defect(rows)
        if bad is not None:
            raise InputError("not a tournament at ({},{}): {}".format(*bad), at=bad[:2])
        return super().__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def square_upper(self) -> tuple:
        """(S^2)_ij, i < j, for S = A - A^T: a tuple of C(n,2) ints in
        pair_index order, exact (see _square); S^2 is symmetric, diagonal 1 - n.
        Built on first use and cached on the instance.
        """
        return _square(self.n, self.rows)


def _columns(n, rows):
    """The columns of rows: bit i of column j is bit j of rows[i], i, j < n.
    In the rows' binary strings, joined, character i*n + n-1-j is bit j of
    rows[i], so column j is one strided slice."""
    full = (1 << n) - 1
    blob = "".join([format(r & full, f"0{n}b") for r in rows])
    return [int(blob[n - 1 - j::n][::-1], 2) for j in range(n)]


def _first_defect(rows):
    """The first pair at which rows fail to be a tournament on n = len(rows)
    vertices, as (i, j, reason), or None.

    Pairs are scanned in row-major order with i <= j: row i is checked for
    a diagonal bit, then for bits beyond n (a negative row has infinitely
    many), then for the first j > i where a_ij == a_ji.  Column j (see
    _columns) is the in-neighbourhood of j.  O(n^2) character work.
    """
    n = len(rows)
    full = (1 << n) - 1
    for i, (r, c) in enumerate(zip(rows, _columns(n, rows))):
        if (r >> i) & 1:
            return (i, i, "diagonal entry set")
        if r >> n:
            return (i, i, "bit set beyond vertex range")
        bad = (full ^ r ^ c) >> (i + 1)  # the j > i with a_ij == a_ji
        if bad:
            j = i + (bad & -bad).bit_length()
            return (i, j, "both orientations present" if (r >> j) & 1 else "missing orientation")
    return None


def _diamond_lanes(ab, cd, ac, bd, ad, bc, ones):
    """The lanes on which the 4-set a, b, c, d is a diamond: the package's
    one diamond test.

    A lane of the word e_xy is set iff x dominates y in that lane, and ones
    sets every lane.  With s = 2e - 1 the 4x4 Seidel minor is Pf^2, and
    |Pf| = |s_ab s_cd - s_ac s_bd + s_ad s_bc| = 3 exactly on diamonds, for
    any order of the four vertices: so iff e_ab ^ e_cd differs from
    e_ac ^ e_bd and equals e_ad ^ e_bc.
    """
    y = ab ^ cd
    return (y ^ ac ^ bd) & (y ^ ad ^ bc ^ ones)


def count_diamonds(t: Tournament) -> int:
    """Exact diamond count from the 3-cycles of every vertex neighbourhood.

    A diamond is a 3-cycle inside N+(v) or inside N-(v) for exactly one apex
    v, and a sub-tournament on m vertices with scores s_w has
    C(m,3) - sum_w C(s_w,2) 3-cycles (Kendall-Babington Smith).  Each score
    is one popcount, so this is O(n^2) popcounts of n-bit rows and
    allocates no arrays.
    """
    full = (1 << t.n) - 1
    total = 0
    for v, out in enumerate(t.rows):
        inn = full ^ out ^ (1 << v)
        m = out.bit_count()
        total += comb(m, 3) + comb(t.n - 1 - m, 3)
        for w, row in enumerate(t.rows):
            if (out >> w) & 1:
                s = (row & out).bit_count()
            elif (inn >> w) & 1:
                s = (row & inn).bit_count()
            else:
                continue
            total -= s * (s - 1) // 2
    return total


def pair_index(n: int, i: int, j: int) -> int:
    """Row-major index of pair (i,j), i < j, among the C(n,2) pairs."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def encode(t: Tournament) -> int:
    """The pair encoding of t: bit pair_index(n, i, j) is
    set iff i dominates j, for i < j.  Row i's bits above the diagonal are
    one run of the encoding, from pair_index(n, i, i+1) on: one shift each."""
    return sum((r >> (i + 1)) << pair_index(t.n, i, i + 1) for i, r in enumerate(t.rows))


def decode(n: int, e: int) -> Tournament:
    """Inverse of encode, for 3 <= n <= MAX_N and integer 0 <= e < 2^C(n,2);
    any other n or e is an InputError.

    Row i's upper part is cut out of e.  Its lower part is the complement
    of column i of the upper parts (see _columns): for j < i, i dominates j
    exactly when bit i of row j is clear; Tournament(rows) checks the result.
    """
    n, e = _index(n, "n", 3, MAX_N), _index(e, "encoding")
    if not 0 <= e < 1 << (n * (n - 1) // 2):
        raise InputError(f"encoding {_quote_int(e)} out of range for n={n}")
    upper = [((e >> pair_index(n, i, i + 1)) & ((1 << (n - 1 - i)) - 1)) << (i + 1)
             for i in range(n)]
    return Tournament([u | (~c & ((1 << i) - 1))
                       for i, (u, c) in enumerate(zip(upper, _columns(n, upper)))])


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniformly random tournament, one fair bit per unordered pair.

    Deterministic: decode of C(n,2) bits from random.Random(seed) (Mersenne
    Twister), drawn one getrandbits(1) at a time in pair_index order.  A
    seed that is not an integer (None would draw from the OS) is an InputError.
    """
    n, seed = _index(n, "n", 3, MAX_N), _index(seed, "seed")
    rng = random.Random(seed)
    bits = "".join(["01"[rng.getrandbits(1)] for _ in range(n * (n - 1) // 2)])
    return decode(n, int(bits[::-1], 2))


def _quote(text: str) -> str:
    """repr of at most the first 40 characters of text, marked when clipped."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _quote_int(x: int) -> str:
    """x in decimal, or _quote of its digits when they are more than 40."""
    text = str(x)
    return text if len(text) <= 40 else _quote(text)


def parse_int(token: str) -> int:
    """int(token) for ASCII digits with an optional leading minus; anything
    else is an InputError, as is a number longer than int() converts
    (sys.get_int_max_str_digits).  int() alone also takes "+6", "1_0" and
    non-ASCII digits such as "\u0663"."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"invalid literal for int() with base 10: {_quote(token)}")
    try:
        return int(token)
    except ValueError:
        raise InputError(f"number too long: {len(digits)} digits") from None


def parse_trn(text: str) -> Tournament:
    """Parse the .trn format: line n, then n rows of {0,1} characters, then blank lines."""
    lines = text.splitlines()
    if not lines:
        raise InputError("empty input", line=1)
    try:
        n = parse_int(lines[0].strip())
    except InputError:
        raise InputError(f"bad vertex count {_quote(lines[0])}", line=1) from None
    if not 3 <= n <= MAX_N:
        raise InputError(f"n={_quote_int(n)} out of range [3, {MAX_N}]", line=1)
    if len(lines) < n + 1:
        raise InputError(f"expected {n} matrix rows, got {len(lines) - 1}", line=len(lines))
    rows = []
    for i in range(n):
        line = lines[i + 1].strip()
        if len(line) != n:
            raise InputError(f"row {i} has length {len(line)}, expected {n}", line=i + 2)
        # the count also keeps out the signs, spaces and underscores int() accepts
        if line.count("0") + line.count("1") != n:
            j, ch = next((j, ch) for j, ch in enumerate(line) if ch not in "01")
            raise InputError(f"bad character {ch!r}", line=i + 2, column=j + 1)
        # character j is bit j: the reversed line is the row in binary
        rows.append(int(line[::-1], 2))
    try:
        t = Tournament(rows)
    except InputError as exc:
        i, j = exc.at
        raise InputError(str(exc), line=i + 2, column=j + 1) from None
    _refuse_trailing(lines, n + 1, f"the {n} rows")
    return t


def _refuse_trailing(lines, start, declared):
    """Raise InputError at the first of lines[start:] that is not blank."""
    for k in range(start, len(lines)):
        if lines[k].strip():
            raise InputError(f"text after {declared}: {_quote(lines[k])}", line=k + 1)


def format_trn(t: Tournament) -> str:
    # character j of a line is bit j of the row: the row's binary string reversed
    out = [str(t.n)]
    out.extend(format(r, f"0{t.n}b")[::-1] for r in t.rows)
    return "\n".join(out) + "\n"


def _read_utf8(path):
    """The text of a UTF-8 file; raises InputError, with the line, at the
    first byte that does not decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line) from None


def load_trn(path) -> Tournament:
    return parse_trn(_read_utf8(path))


def save_trn(t: Tournament, path):
    with open(path, "w") as fh:
        fh.write(format_trn(t))
