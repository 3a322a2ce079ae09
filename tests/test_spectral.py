from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondkit.constructions import (
    delete_vertices,
    extend_to_conference,
    paley_tournament,
    star_paley,
)
from diamondkit.spectral import (
    EVEN_EXTREMAL,
    NOT_EXTREMAL,
    ODD_EXTREMAL,
    count_diamonds_spectral,
    diamond_upper_bound,
    lemma_cut,
    matches_extremal_charpoly,
)
from diamondkit.tournament import (
    InputError,
    Tournament,
    count_diamonds,
    decode,
    pair_index,
    random_tournament,
)

from oracles import (
    bareiss_det,
    char_poly,
    count_diamonds_naive,
    encodings_with_delta,
    flip_arc,
    from_arcs,
    is_skew_conference,
    reverse,
    seidel,
    sigma_from_traces,
    sum_principal_minors,
)


def _exact_matmul(a, b):
    """a @ b for int64 matrices, multiplied in float64 BLAS: the S^2 oracle.

    Exact when every product and every partial sum of a dot product is an
    integer below 2^53 in magnitude, whatever order BLAS sums in.  For the
    Seidel matrix S (entries in {-1, 0, 1}) the partial sums of S @ S are
    at most n, and those of S^2 @ S at most n(n-1) (262144 at n = 512), so
    the int64 cast of the result is lossless.
    """
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def _upper_of(a2, n):
    """The entries of the n x n matrix a2 above its diagonal, in pair_index
    order, as Python ints, after asserting that a2 is symmetric with
    diagonal 1 - n: the entries square_upper leaves out."""
    assert np.array_equal(a2, a2.T)
    assert (np.diagonal(a2) == 1 - n).all()
    return tuple(a2[np.triu_indices(n, 1)].tolist())


def three_cycle():
    return from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive(n):
    return from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diamond4():
    return from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])


def test_seidel_from_three_cycle():
    t = three_cycle()
    assert seidel(t) == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


def test_seidel_reversal_negates():
    t = random_tournament(8, seed=0)
    assert np.array_equal(np.array(seidel(reverse(t))), -np.array(seidel(t)))


def test_seidel_view_is_read_only_and_cached():
    # the entries of S^2 above its diagonal are the one view a tournament caches
    t = random_tournament(9, seed=4)
    a = t.square_upper
    assert a is t.square_upper
    # a tuple of C(n,2) Python ints: no entry can be assigned
    assert type(a) is tuple and len(a) == comb(9, 2)
    assert all(type(x) is int for x in a)
    with pytest.raises(TypeError):
        a[0] = 5
    s = np.array(seidel(t))
    assert _upper_of(s @ s, 9) == a


class TestCharPoly:
    def test_diamond(self):
        cp = char_poly(diamond4())
        # (x^2 + 3)^2
        assert list(cp) == [1, 0, 6, 0, 9]

    def test_star_paley_7(self):
        cp = char_poly(star_paley(7))
        # (x^2 + 7)^4
        assert list(cp) == [1, 0, 28, 0, 294, 0, 1372, 0, 2401]

    def test_paley_7(self):
        cp = char_poly(paley_tournament(7))
        # x (x^2 + 7)^3
        assert list(cp) == [1, 0, 21, 0, 147, 0, 343, 0]

    def test_matches_bareiss_interpolation_oracle(self):
        # evaluate det(xI - S) at integer points via Bareiss and compare
        t = random_tournament(6, seed=9)
        cp = char_poly(t)
        for x in range(-3, 4):
            m = (x * np.eye(6, dtype=np.int64) - np.array(seidel(t))).tolist()
            value = sum(c * x ** (6 - k) for k, c in enumerate(cp))
            assert bareiss_det(m) == value

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_invariants(self, seed):
        n = 7 + seed
        t = random_tournament(n, seed)
        cp = char_poly(t)
        assert all(cp[k] == 0 for k in range(1, n + 1, 2))
        assert cp[2] == n * (n - 1) // 2
        assert (cp[n] == 0) == (n % 2 == 1)


class TestSigmaFromTraces:
    def test_star_paley_7_traces(self):
        t = star_paley(7)
        sigma2, sigma4 = sigma_from_traces(t)
        assert (sigma2, sigma4) == (28, 294)

    @pytest.mark.parametrize("seed", range(6))
    def test_char_poly_oracle(self, seed):
        t = random_tournament(12, seed)
        cp = char_poly(t)
        assert sigma_from_traces(t) == (cp[2], cp[4])

    @given(st.integers(0, 2**30), st.integers(5, 16))
    @settings(max_examples=25, deadline=None)
    def test_sigma2_forced_by_entries(self, seed, n):
        t = random_tournament(n, seed)
        sigma2, _ = sigma_from_traces(t)
        assert sigma2 == n * (n - 1) // 2


class TestPrincipalMinors:
    def test_order_2_sum(self):
        t = random_tournament(9, seed=2)
        assert sum_principal_minors(t, 2) == 9 * 8 // 2

    def test_diamond_order_4(self):
        assert sum_principal_minors(diamond4(), 4) == 9

    def test_matches_char_poly(self):
        # sigma_k = (-1)^k * (sum of k x k principal minors)
        t = random_tournament(10, seed=4)
        cp = char_poly(t)
        for k in range(1, 6):
            assert cp[k] == (-1) ** k * sum_principal_minors(t, k)

    def test_refuses_large_n(self):
        t = random_tournament(15, seed=0)
        with pytest.raises(ValueError):
            sum_principal_minors(t, 4)

    def test_diamond_identity(self):
        # sum of 4x4 principal minors = 8 * delta + C(n,4)
        for n in (6, 8, 10):
            t = random_tournament(n, seed=n)
            assert sum_principal_minors(t, 4) == \
                8 * count_diamonds_naive(t) + comb(n, 4)


class TestSpectralCount:
    def test_diamond(self):
        assert count_diamonds_spectral(diamond4()) == 1

    def test_transitive(self):
        assert count_diamonds_spectral(transitive(4)) == 0

    def test_star_paley_7(self):
        assert count_diamonds_spectral(star_paley(7)) == 28

    @pytest.mark.parametrize("n", [5, 9, 17, 25, 33, 40])
    def test_naive_oracle(self, n):
        for seed in range(10):
            t = random_tournament(n, seed)
            assert count_diamonds_spectral(t) == count_diamonds_naive(t)


    @pytest.mark.parametrize("n", [64, 128, 257, 512])
    def test_neighbourhood_count_agrees(self, n):
        t = random_tournament(n, seed=n)
        assert count_diamonds(t) == count_diamonds_spectral(t)

    @staticmethod
    def _against_traces(t):
        # the oracle's (sigma_4 - C(n,4)) / 8, from numpy traces of its own S
        _, sigma4 = sigma_from_traces(t)
        assert count_diamonds_spectral(t) == count_diamonds(t) == \
            Fraction(sigma4 - comb(t.n, 4), 8)

    @given(st.integers(3, 64), st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_trace_oracle(self, n, seed):
        self._against_traces(random_tournament(n, seed))

    def test_trace_oracle_512(self):
        self._against_traces(random_tournament(512, 0))

    def test_star_paley_499_closed_form(self):
        t = star_paley(499)
        n = t.n
        expected = n * n * (n - 1) * (n - 2) // 96
        assert count_diamonds_spectral(t) == count_diamonds(t) == expected


def _every_tournament(n):
    return (decode(n, e) for e in range(1 << comb(n, 2)))


def _two_block(a2):
    """Whether each full S^2 in the stack a2 is two-block: two sides of n/2,
    |g| = 2 inside a side and g = 0 across, the side of vertex 0 being 0 and
    the j with a nonzero g_0j."""
    n = a2.shape[-1]
    side = a2[..., 0, :] != 0
    side[..., 0] = True
    want = np.where(side[..., :, None] == side[..., None, :], 2, 0)
    off = ~np.eye(n, dtype=bool)
    return (side.sum(axis=-1) == n // 2) & (np.abs(a2) == want)[..., off].all(axis=-1)


class TestSquareParity:
    """What the entries g of square_upper are mod 2 and mod 4: the bound's
    equality case and the triangle lemma, read through square_upper and
    pair_index, and the two-block S^2 through the oracle's numpy S^2."""

    @staticmethod
    def _triangle_residues(t):
        n, g = t.n, t.square_upper
        return {(g[pair_index(n, i, j)] + g[pair_index(n, i, k)] + g[pair_index(n, j, k)]) % 4
                for i, j, k in combinations(range(n), 3)}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_triangle_lemma_exhaustive(self, n):
        # g_ij + g_ik + g_jk = n (mod 4) for every three vertices
        for t in _every_tournament(n):
            assert self._triangle_residues(t) == {n % 4}

    @given(st.integers(3, 40), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_triangle_lemma(self, n, seed):
        assert self._triangle_residues(random_tournament(n, seed)) == {n % 4}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bound_attained_iff_flat(self, n):
        # the count reaches the bound iff sum g^2 is F(n), its least: every
        # |g| is n mod 2, at n = 5 one |g| = 3 and nine |g| = 1 (F = 10 + 8),
        # or at n = 2 (mod 4) the two-block S^2, read off the numpy S^2 of
        # the oracle's S
        ts = list(_every_tournament(n))
        attained = [count_diamonds_spectral(t) == diamond_upper_bound(n) for t in ts]
        if n % 4 == 2:
            s = np.array([seidel(t) for t in ts], dtype=np.int64)
            flat = _two_block(s @ s).tolist()
        elif n == 5:
            flat = [sorted(map(abs, t.square_upper)) == [1] * 9 + [3] for t in ts]
        else:
            flat = [all(abs(g) == n % 2 for g in t.square_upper) for t in ts]
        assert attained == flat
        # n = 3: all 8, with no 4-set; n = 4: the 16 diamonds; n = 5: the
        # bound 2, five in eight; n = 6: the bound 6, one in 6.4
        assert sum(attained) == {3: 8, 4: 16, 5: 640, 6: 5120}[n]

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 27, 31])
    def test_odd_extremal_minus_a_vertex_is_two_block(self, q):
        # with S^2 + qI = u u^T and Su = 0, deleting v leaves
        # g_ij + s_iv s_jv: +-2 where u_i s_iv = u_j s_jv, else 0, and the
        # two classes have (q-1)/2 vertices each, as sum_i u_i s_iv = 0
        t = paley_tournament(q)
        for v in range(q):
            sub = delete_vertices(t, [v])
            s = np.array(seidel(sub), dtype=np.int64)
            assert _two_block(s @ s)
            assert count_diamonds_spectral(sub) == diamond_upper_bound(q - 1)

    @given(st.integers(1, 10), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_n2_mod_4_bound(self, k, seed):
        # at n = 2 (mod 4) no tournament exceeds n (n-3)(n+2)(n-2) / 96: the
        # pairs with g = 0 (mod 4) are those across the cut of vertex 0
        n = 4 * k + 2
        t = random_tournament(n, seed)
        g = t.square_upper
        far = [v > 0 and g[pair_index(n, 0, v)] % 4 == 0 for v in range(n)]
        for i, j in combinations(range(n), 2):
            assert (g[pair_index(n, i, j)] % 4 == 0) == (far[i] != far[j])
        a = sum(far)
        assert sum(x * x for x in g) >= 4 * (comb(a, 2) + comb(n - a, 2)) >= n * (n - 2)
        assert count_diamonds(t) <= diamond_upper_bound(n) == Fraction(
            n * (n - 3) * (n + 2) * (n - 2), 96)

    @given(st.integers(1, 10), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_n1_mod_4_bound(self, k, seed):
        # at n = 1 (mod 4), switching the cut of vertex 0 (the g = 1 mod 4
        # pairs) makes every g = 4x - 1; the excess sum g^2 - C(n,2) is
        # 8 sum (2x^2 - x) >= 8 sum x^2, and a kernel vector of S makes
        # sum x^2 >= (n-2)^2 / 32
        n = 4 * k + 1
        t = random_tournament(n, seed)
        g = t.square_upper
        far = [v > 0 and g[pair_index(n, 0, v)] % 4 == 1 for v in range(n)]
        x = []
        for i, j in combinations(range(n), 2):
            switched = -g[pair_index(n, i, j)] if far[i] != far[j] else g[pair_index(n, i, j)]
            assert switched % 4 == 3
            x.append((switched + 1) // 4)
        excess = sum(v * v for v in g) - comb(n, 2)
        assert excess == 8 * sum(2 * v * v - v for v in x)
        least = ceil(Fraction((n - 2) ** 2, 32))
        assert sum(v * v for v in x) >= least
        assert excess >= 8 * least
        assert count_diamonds(t) <= diamond_upper_bound(n)


class TestLemmaCut:
    """lemma_cut against the g of every pair mod 4, the normal form that
    switching it gives at odd n, and its sides at the bound's equality cases."""

    @staticmethod
    def _across(t):
        # every pair across the cut has g = 2 - n (mod 4), and no pair inside
        n, g, cut = t.n, t.square_upper, lemma_cut(t)
        assert cut & 1 == 0 and cut >> n == 0
        for i, j in combinations(range(n), 2):
            assert ((g[pair_index(n, i, j)] + n) % 4 == 2) == ((cut >> i) & 1 != (cut >> j) & 1)
        return cut

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exhaustive(self, n):
        for t in _every_tournament(n):
            self._across(t)

    @given(st.integers(3, 40), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_random(self, n, seed):
        self._across(random_tournament(n, seed))

    @given(st.integers(1, 19), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_switching_the_cut_at_odd_n(self, k, seed):
        # reversing every arc across the cut (S -> DSD) negates the g across
        # it: every g becomes -n (mod 4), and the switched cut is empty
        n = 2 * k + 1
        t = random_tournament(n, seed)
        cut = self._across(t)
        near = ((1 << n) - 1) ^ cut
        switched = Tournament([r ^ (near if (cut >> i) & 1 else cut) for i, r in enumerate(t.rows)])
        assert all((g + n) % 4 == 0 for g in switched.square_upper)
        assert lemma_cut(switched) == 0

    def test_n6_maxima_have_sides_of_three(self):
        # the two-block S^2: a = n/2 at every one of the 5,120 maxima
        sides = [lemma_cut(t).bit_count() for t in _every_tournament(6)
                 if count_diamonds_spectral(t) == diamond_upper_bound(6)]
        assert len(sides) == 5120 and set(sides) == {3}

    @pytest.mark.parametrize("q", [3, 7, 11, 43, 499])
    def test_star_paley_cut_is_empty(self, q):
        # every g = 0 at n = 0 (mod 4): no pair has g = 2 (mod 4)
        assert lemma_cut(star_paley(q)) == 0


class TestSquare:
    """Tournament.square_upper against the entries above the diagonal of
    matrix products."""

    @pytest.mark.parametrize("n", [3, 64, 512])
    def test_matches_int64_product(self, n):
        for seed in range(3):
            t = random_tournament(n, seed)
            a = np.array(seidel(t))
            a2 = _exact_matmul(a, a)
            assert a2.dtype == np.int64
            assert np.array_equal(a2, a @ a)
            assert t.square_upper == _upper_of(a2, n)

    @given(st.integers(3, 64), st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_matches_blas_oracle(self, n, seed):
        t = random_tournament(n, seed)
        a = np.array(seidel(t), dtype=np.int64)
        assert t.square_upper == _upper_of(_exact_matmul(a, a), n)

    @pytest.mark.parametrize("build", [paley_tournament, star_paley])
    def test_paley_499(self, build):
        t = build(499)
        a = np.array(seidel(t), dtype=np.int64)
        assert t.square_upper == _upper_of(_exact_matmul(a, a), t.n)


def _full_square_verdicts(a2):
    """The extremal verdicts from a stack of full numpy S^2 of the oracle's
    S, at any n: "even-extremal" iff S^2 = -(n-1) I, "odd-extremal" iff
    S^2 + nI = u u^T with u its row 0, a +-1 vector."""
    n = a2.shape[-1]
    eye = np.eye(n, dtype=np.int64)
    even = (a2 == (1 - n) * eye).all(axis=(-2, -1))
    u = a2[..., 0, :] + n * eye[0]
    odd = ((np.abs(u) == 1).all(axis=-1)
           & (a2 + n * eye == u[..., :, None] * u[..., None, :]).all(axis=(-2, -1)))
    return np.where(even, EVEN_EXTREMAL, np.where(odd, ODD_EXTREMAL, NOT_EXTREMAL)).tolist()


class TestReadersAgainstFullSquare:
    """matches_extremal_charpoly, whose even-extremal case is the
    conference check, and count_diamonds_spectral, which take the diagonal
    of S^2 from n, against the full numpy S^2 of the oracle's S."""

    def _agree(self, t):
        n = t.n
        s = np.array(seidel(t), dtype=np.int64)
        a2 = s @ s
        verdict = matches_extremal_charpoly(t)
        # the conference check reads the verdict
        assert (verdict == EVEN_EXTREMAL) == np.array_equal(a2, (1 - n) * np.eye(n, dtype=np.int64))
        assert verdict == _full_square_verdicts(a2)
        # D = (sigma_4 - C(n,4)) / 8, sigma_4 by Newton's identities on the traces
        t2, t4 = int(np.trace(a2)), int((a2 * a2).sum())
        assert count_diamonds_spectral(t) == ((t2 * t2 // 2 - t4) // 4 - comb(n, 4)) // 8
        return verdict

    @given(st.integers(3, 40), st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_random(self, n, seed):
        self._agree(random_tournament(n, seed))

    @pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31, 43, 47])
    def test_paley_and_star_paley(self, q):
        assert self._agree(paley_tournament(q)) == ODD_EXTREMAL
        assert self._agree(star_paley(q)) == EVEN_EXTREMAL
        assert is_skew_conference(star_paley(q))

    def test_one_arc_reversed_in_paley_43(self):
        t = paley_tournament(43)
        j = (t.rows[0] & -t.rows[0]).bit_length() - 1
        assert self._agree(flip_arc(t, 0, j)) == NOT_EXTREMAL

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exhaustive(self, n):
        # the triangle lemma's use, and the residue gate, on every small tournament
        ts = list(_every_tournament(n))
        s = np.array([seidel(t) for t in ts], dtype=np.int64)
        verdicts = [matches_extremal_charpoly(t) for t in ts]
        assert verdicts == _full_square_verdicts(s @ s)
        assert [is_skew_conference(t) for t in ts] == [v == EVEN_EXTREMAL for v in verdicts]


def _s3_identity(t):
    """S^3 = -nS, by two float64 BLAS products (the oracle of the rank-1 test)."""
    s = np.array(seidel(t), dtype=np.int64)
    return bool(np.array_equal(_exact_matmul(_exact_matmul(s, s), s), -t.n * s))


class TestKernelSignVector:
    """At n = 3 mod 4, the odd-extremal verdict against the S^3 = -nS
    identity, and the border column that extend_to_conference reads off
    row 0 of S^2 + nI: +-1, 1 first, in the kernel of S."""

    def _agree(self, t):
        odd = matches_extremal_charpoly(t) == ODD_EXTREMAL
        assert odd == _s3_identity(t)
        if odd:
            u = [row[-1] for row in seidel(extend_to_conference(t))[:-1]]
            assert u[0] == 1 and set(u) <= {-1, 1}
            assert not (np.array(seidel(t)) @ np.array(u)).any()
        return odd

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 27, 31, 43, 243])
    def test_paley(self, q):
        assert self._agree(paley_tournament(q))

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 27])
    def test_one_vertex_deletions_of_star_paley(self, q):
        t = star_paley(q)
        assert all(self._agree(delete_vertices(t, [v])) for v in range(t.n))

    @given(st.integers(0, 2**30), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_random_3_mod_4(self, seed, k):
        self._agree(random_tournament(4 * k + 3, seed))


class TestSkewConference:
    def test_order_2(self):
        # order 2 is no Tournament, whose n is at least 3: T*(3), of order
        # 4, is the least skew-conference tournament
        with pytest.raises(InputError, match=r"^n=2 out of range \[3, 512\]$"):
            from_arcs(2, [(0, 1)])
        assert is_skew_conference(star_paley(3))

    def test_star_paley_7(self):
        assert is_skew_conference(star_paley(7))

    def test_transitive_4_is_not(self):
        assert not is_skew_conference(transitive(4))

    def test_order_divisibility(self):
        # every skew-conference order here is 2 or divisible by 4
        for q in (3, 7, 11):
            t = star_paley(q)
            assert is_skew_conference(t)
            assert t.n == 2 or t.n % 4 == 0


class TestExtremalClassification:
    def test_star_paley_7(self):
        assert matches_extremal_charpoly(star_paley(7)) == EVEN_EXTREMAL

    def test_paley_7(self):
        assert matches_extremal_charpoly(paley_tournament(7)) == ODD_EXTREMAL

    def test_transitive_4(self):
        assert matches_extremal_charpoly(transitive(4)) == NOT_EXTREMAL

    def test_even_extremal_iff_conference(self):
        # both directions at n = 0 mod 4
        cases = [star_paley(3), star_paley(7), transitive(4), transitive(8),
                 random_tournament(8, 1), random_tournament(12, 5)]
        for t in cases:
            assert (matches_extremal_charpoly(t) == EVEN_EXTREMAL) == \
                is_skew_conference(t)


class TestBounds:
    @pytest.mark.parametrize("n,expected", [
        (4, Fraction(1)),
        (5, Fraction(2)),
        (7, Fraction(14)),
        (8, Fraction(28)),
        (12, Fraction(165)),
    ])
    def test_diamond_bound(self, n, expected):
        assert diamond_upper_bound(n) == expected

    @pytest.mark.parametrize("n,expected", [
        (4, Fraction(9)),
        (7, Fraction(147)),
        (8, Fraction(294)),
    ])
    def test_sigma4_bound(self, n, expected):
        # sigma_4 = 8 * diamonds + C(n,4), attained by the extremal T(n) or T*(n-1)
        assert 8 * diamond_upper_bound(n) + comb(n, 4) == expected
        t = paley_tournament(n) if n % 4 == 3 else star_paley(n - 1)
        assert sigma_from_traces(t)[1] == expected

    def test_parity_formulas(self):
        # one table at every n: n^2 (n-1)(n-2) / 96 at n = 0 (mod 4),
        # n (n-1)(n-3)(n+1) / 96 at n = 3, that less ceil((n-2)^2 / 32) / 2
        # at n = 1 from n = 5 on, and n (n-3)(n+2)(n-2) / 96 at n = 2
        for n in range(601):
            if n % 4 == 1 and n >= 5:
                formula = n * (n - 1) * (n - 3) * (n + 1) - 48 * ceil(Fraction((n - 2) ** 2, 32))
            elif n % 2:
                formula = n * (n - 1) * (n - 3) * (n + 1)
            elif n % 4:
                formula = n * (n - 3) * (n + 2) * (n - 2)
            else:
                formula = n * n * (n - 1) * (n - 2)
            assert diamond_upper_bound(n) == Fraction(formula, 96)

    def test_rejects_small_n(self):
        # every n >= 0 has a bound; below 4 vertices it is 0
        assert [diamond_upper_bound(n) for n in range(5)] == [0, 0, 0, 0, 1]
        with pytest.raises(ValueError):
            diamond_upper_bound(-1)

    def test_n5_bound_is_the_maximum(self):
        # the exhaustive maximum at n = 5 is 2, the bound, so attained (the
        # count equals the bound) holds exactly for the tournaments with 2 diamonds
        ts = [decode(5, e) for e in range(1 << 10)]
        naive = [count_diamonds_naive(t) for t in ts]
        assert max(naive) == 2 == diamond_upper_bound(5)
        assert [count_diamonds_spectral(t) == diamond_upper_bound(5) for t in ts] == \
            [d == 2 for d in naive]

    @pytest.mark.parametrize("n", [5, 9, 13, 17, 21, 25])
    def test_n1_mod_4_values(self, n):
        # ceil((n-2)^2 / 32) / 2 below the parity bound (n C(n,3) - C(n,2)) / 16,
        # and at or above the most diamonds search has found: 42 at n = 9
        # (the maximum), 1714 at n = 21 and 3544 at n = 25
        bound = diamond_upper_bound(n)
        assert bound == {5: 2, 9: 44, 13: Fraction(451, 2), 17: 710, 21: Fraction(3453, 2),
                         25: Fraction(7133, 2)}[n]
        assert bound >= {5: 2, 9: 42, 13: 220, 17: 702, 21: 1714, 25: 3544}[n]


class TestMaclaurinConsequence:
    @pytest.mark.parametrize("seed", range(10))
    def test_sigma4_against_sigma2(self, seed):
        n = 6 + seed
        t = random_tournament(n, seed)
        sigma2, sigma4 = sigma_from_traces(t)
        m = n // 2
        assert Fraction(sigma4) <= Fraction(m - 1, 2 * m) * sigma2 ** 2

    def test_equality_iff_extremal(self):
        for t in (star_paley(7), paley_tournament(7), random_tournament(8, 3)):
            sigma2, sigma4 = sigma_from_traces(t)
            m = t.n // 2
            equal = Fraction(sigma4) == Fraction(m - 1, 2 * m) * sigma2 ** 2
            assert equal == (matches_extremal_charpoly(t) != NOT_EXTREMAL)


def _charpoly_class(t):
    """Classification by exact equality of char_poly with the extremal forms."""
    n = t.n
    sigma = list(char_poly(t)[1:])
    if n % 4 == 0:
        # (x^2 + (n-1))^(n/2)
        form = [0] * n
        for i in range(1, n // 2 + 1):
            form[2 * i - 1] = comb(n // 2, i) * (n - 1) ** i
        return EVEN_EXTREMAL if sigma == form else NOT_EXTREMAL
    if n % 4 == 3:
        # x (x^2 + n)^((n-1)/2)
        form = [0] * n
        for i in range(1, (n - 1) // 2 + 1):
            form[2 * i - 1] = comb((n - 1) // 2, i) * n ** i
        return ODD_EXTREMAL if sigma == form else NOT_EXTREMAL
    return NOT_EXTREMAL


class TestExtremalIdentitiesOracle:
    """matches_extremal_charpoly (S^2 / S^3 identities) against char_poly."""

    def _agree(self, t):
        verdict = matches_extremal_charpoly(t)
        assert verdict == _charpoly_class(t)
        return verdict

    @pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31])
    def test_paley_and_star_paley(self, q):
        assert self._agree(paley_tournament(q)) == ODD_EXTREMAL
        assert self._agree(reverse(paley_tournament(q))) == ODD_EXTREMAL
        assert self._agree(star_paley(q)) == EVEN_EXTREMAL

    @pytest.mark.parametrize("q", [7, 11, 19, 23])
    def test_deleted_vertices(self, q):
        t = star_paley(q)
        for drop in ({q}, {0}, {1, q}, {0, 1, 2}, {0, 1, 2, q}):
            self._agree(delete_vertices(t, drop))

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_one_flip_off_extremal(self, q):
        for t in (paley_tournament(q), star_paley(q)):
            i = 0
            j = (t.rows[0] & -t.rows[0]).bit_length() - 1
            assert self._agree(flip_arc(t, i, j)) == NOT_EXTREMAL

    @given(st.integers(0, 2**30), st.integers(3, 24))
    @settings(max_examples=60, deadline=None)
    def test_random(self, seed, n):
        self._agree(random_tournament(n, seed))

    def test_every_14_diamond_encoding_at_n7(self):
        hits = encodings_with_delta(7, 14)
        assert len(hits) > 0
        for e in hits:
            assert self._agree(decode(7, e)) == ODD_EXTREMAL

    def test_exhaustive_n4(self):
        # all 64 labelled 4-tournaments: extremal exactly on the 16 diamonds
        for e in range(1 << 6):
            t = decode(4, e)
            assert (self._agree(t) == EVEN_EXTREMAL) == (count_diamonds(t) == 1)
