"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact; nothing here is tolerance-based.
"""

import functools
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from diamondkit.constructions import extend_to_conference, paley_tournament, star_paley
from diamondkit.hypergraph import baber, edge_count_bound, verify_ff4
from diamondkit.search import exhaustive_max_diamonds
from diamondkit.spectral import (
    NOT_EXTREMAL,
    ODD_EXTREMAL,
    count_diamonds_spectral,
    diamond_upper_bound,
    matches_extremal_charpoly,
)
from diamondkit.tournament import Tournament, count_diamonds, decode, random_tournament

from oracles import (
    char_poly,
    count_diamonds_naive,
    delete_vertices_count,
    encodings_with_delta,
    is_3_design,
    is_min_sum_squares_witness,
    is_skew_conference,
    min_sum_squares,
    seidel,
    sigma_from_traces,
    sum_principal_minors,
    triple_profile,
)

PALEY_ORDERS = (3, 7, 11, 19, 23, 27, 31)
# frozen from n^2 (n-1) (n-2) / 96 with n = q+1, confirmed by the naive count
STAR_DELTAS = {3: 1, 7: 28, 11: 165, 19: 1425, 23: 3036, 27: 5733, 31: 9920}


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL  {description}")
                raise
            print(f"criterion {num:2d}: PASS  {description}")
        return run
    return wrap


@criterion(1, "star-Paley equality cases: skew-conference and exact delta")
def test_criterion_1_paley_equality_cases():
    for q in PALEY_ORDERS:
        t = star_paley(q)
        n = q + 1
        assert is_skew_conference(t)
        formula = n * n * (n - 1) * (n - 2) // 96
        assert formula == STAR_DELTAS[q]
        assert count_diamonds_naive(t) == STAR_DELTAS[q]


@criterion(2, "odd equality cases: Paley delta and char poly x(x^2+n)^((n-1)/2)")
def test_criterion_2_odd_equality_cases():
    for q in PALEY_ORDERS:
        t = paley_tournament(q)
        n = q
        assert count_diamonds_naive(t) == n * (n - 1) * (n - 3) * (n + 1) // 96
        assert matches_extremal_charpoly(t) == ODD_EXTREMAL
        # explicit coefficient check, not just the classification
        m = (n - 1) // 2
        expected = [0] * (n + 1)
        expected[0] = 1
        for i in range(1, m + 1):
            expected[2 * i] = comb(m, i) * n**i
        assert list(char_poly(t)) == expected


@criterion(3, "exhaustive optima at n=4,5,7 with extremal witnesses, thread-invariant")
def test_criterion_3_exhaustive_optima():
    r4 = exhaustive_max_diamonds(4)
    assert r4.max_diamonds == 1 == diamond_upper_bound(4)

    r5 = exhaustive_max_diamonds(5)
    assert r5.max_diamonds == 2
    for e in range(1 << 10):
        assert count_diamonds_naive(decode(5, e)) in (0, 2)

    r7 = exhaustive_max_diamonds(7)
    assert r7.max_diamonds == 14 == diamond_upper_bound(7)
    assert r7.explored == 1 << 21
    for e in encodings_with_delta(7, 14):
        t = decode(7, e)
        assert matches_extremal_charpoly(t) == ODD_EXTREMAL

    r7p = exhaustive_max_diamonds(7, threads=4)
    assert (r7.max_diamonds, r7.witness, r7.explored) == \
        (r7p.max_diamonds, r7p.witness, r7p.explored)


@criterion(4, "principal-minor identity: sum of 4x4 minors = 8*delta + C(n,4)")
def test_criterion_4_principal_minor_identity():
    for n in range(5, 13):
        for seed in range(100):
            t = random_tournament(n, seed)
            assert sum_principal_minors(t, 4) == \
                8 * count_diamonds_naive(t) + comb(n, 4)


@criterion(5, "spectral count equals naive count, 100 seeds per n in 5..40")
def test_criterion_5_oracle_equivalence():
    for n in range(5, 41):
        for seed in range(100):
            t = random_tournament(n, seed)
            assert count_diamonds_spectral(t) == count_diamonds_naive(t)


@criterion(6, "sigma_2 = n(n-1)/2 always; sigma_4 bound tight exactly on extremal cases")
def test_criterion_6_sigma_invariants():
    instances = []
    for q in PALEY_ORDERS:
        instances.append((star_paley(q), True))
        instances.append((paley_tournament(q), True))
    for seed in range(20):
        instances.append((random_tournament(10, seed), None))
    for t, expect_extremal in instances:
        sigma2, sigma4 = sigma_from_traces(t)
        assert sigma2 == t.n * (t.n - 1) // 2
        # sigma_4 = 8 * diamonds + C(n,4) (see count_diamonds_spectral)
        bound = 8 * diamond_upper_bound(t.n) + comb(t.n, 4)
        assert Fraction(sigma4) <= bound
        tight = Fraction(sigma4) == bound
        assert tight == (matches_extremal_charpoly(t) != NOT_EXTREMAL)
        # the bound's equality case: every entry of S^2 off its diagonal has
        # |g| = n mod 2, the least its parity allows
        flat = all(abs(g) == t.n % 2 for g in t.square_upper)
        assert (count_diamonds_spectral(t) == diamond_upper_bound(t.n)) == tight == flat
        if expect_extremal:
            assert tight


@criterion(7, "Baber chain: T*(7) gives a 28-edge FF4 3-(8,4,2) design, triples all 2")
def test_criterion_7_baber_ff4_design_chain():
    h = baber(star_paley(7))
    assert h.m == 28
    assert verify_ff4(h) is None
    assert is_3_design(h, h.n // 4)
    profile = triple_profile(h)
    assert len(profile) == 56
    assert set(profile.values()) == {2}


@criterion(8, "deletion ladder 28 -> 14/6/2 over all 8+28+56 vertex choices")
def test_criterion_8_deletion_ladder():
    h = baber(star_paley(7))
    expected = {1: 14, 2: 6, 3: 2}
    bounds = {1: edge_count_bound(7), 2: edge_count_bound(6), 3: edge_count_bound(5)}
    assert bounds[1] == (Fraction(14), "proven")
    assert bounds[2] == (Fraction(6), "proven")
    assert bounds[3] == (Fraction(2), "proven")
    cases = 0
    for d in (1, 2, 3):
        for drop in combinations(range(8), d):
            observed, predicted = delete_vertices_count(h, drop)
            assert observed == predicted == expected[d]
            cases += 1
    assert cases == 8 + 28 + 56


@criterion(9, "constructive extension of Paley T(7) to an order-8 conference matrix")
def test_criterion_9_constructive_extension():
    t = paley_tournament(7)
    ext = extend_to_conference(t)
    assert ext.n == 8
    a = __import__("numpy").array(seidel(ext))
    assert ((a @ a.T) == 7 * __import__("numpy").eye(8, dtype=int)).all()


@criterion(10, "min-sum-of-squares agrees with brute force for s <= 20, p <= 6")
def test_criterion_10_min_sum_squares_oracle():
    for s in range(21):
        for p in range(1, 7):
            best = None
            optimal_parts = []
            def gen(prefix, remaining, lo):
                nonlocal best, optimal_parts
                if len(prefix) == p - 1:
                    if remaining >= lo:
                        parts = (*prefix, remaining)
                        total = sum(x * x for x in parts)
                        nonlocal_update(parts, total)
                    return
                for x in range(lo, remaining + 1):
                    gen(prefix + (x,), remaining - x, x)
            def nonlocal_update(parts, total):
                nonlocal best, optimal_parts
                if best is None or total < best:
                    best, optimal_parts = total, [parts]
                elif total == best:
                    optimal_parts.append(parts)
            gen((), s, 0)
            minimum, witness = min_sum_squares(s, p)
            assert minimum == best
            assert witness in optimal_parts
            # equality characterization: optimal iff all parts in {k, k+1}
            def all_parts(prefix, remaining, lo):
                if len(prefix) == p - 1:
                    if remaining >= lo:
                        yield (*prefix, remaining)
                    return
                for x in range(lo, remaining + 1):
                    yield from all_parts(prefix + (x,), remaining - x, x)
            for parts in all_parts((), s, 0):
                optimal = sum(x * x for x in parts) == minimum
                assert optimal == is_min_sum_squares_witness(parts, s, p)


# the n = 10 witness of 70 diamonds, the n = 2 (mod 4) formula, from the
# switching scan of ROADMAP's findings
WITNESS_10 = (1022, 124, 840, 720, 676, 396, 304, 70, 154, 482)


@criterion(11, "FF4 gaps attained: source + T*(q) has sum g^2 = 3 C(n-1,2), W10 has n(n-2)")
def test_criterion_11_ff4_gaps_attained():
    # edge_count_bound is (n C(n,3) - sum g^2) / 16 at the sum g^2 of the
    # construction attaining it; n = q + 2 = 1 (mod 4): a source over T*(q)
    for q in PALEY_ORDERS:
        n = q + 2
        t = Tournament([(1 << n) - 2, *(r << 1 for r in star_paley(q).rows)])
        assert n % 4 == 1 and t.n == n
        assert count_diamonds(t) == edge_count_bound(n)[0]
        assert sum(g * g for g in t.square_upper) == 3 * comb(n - 1, 2)
    w = Tournament(WITNESS_10)
    # and meets the n = 2 (mod 4) diamond bound: a two-block S^2, |g| = 2 or 0
    assert count_diamonds(w) == 70 == edge_count_bound(10)[0] == diamond_upper_bound(10)
    assert set(w.square_upper) <= {-2, 0, 2}
    assert sum(g * g for g in w.square_upper) == 80 == 10 * 8


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
