import hashlib
import itertools
import pickle
import random
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondkit.constructions import delete_vertices, paley_tournament, star_paley
from diamondkit import gf
from diamondkit.gf import gf_build
from diamondkit.hypergraph import Hypergraph4, baber, edge_count_bound, verify_ff4
from diamondkit.spectral import count_diamonds_spectral, diamond_upper_bound
from diamondkit import tournament
from diamondkit.tournament import (
    Tournament,
    _diamond_lanes,
    _first_defect,
    count_diamonds,
    decode,
    encode,
    format_trn,
    pair_index,
    parse_trn,
    random_tournament,
    InputError,
)
from diamondkit.search import (
    _SquareState,
    exhaustive_max_diamonds,
    local_search_max_diamonds,
)

from oracles import (
    _DIAMOND_SQ,
    _subset_degree_squares,
    bareiss_det,
    count_diamonds_naive,
    diamond_delta_on_flip,
    encodings_with_delta,
    flip_arc,
    from_arcs,
    is_3_design,
    reverse,
    seidel,
)


def _arc(t, i, j):
    """1 iff i dominates j: bit j of row i."""
    return (t.rows[i] >> j) & 1


def _is_diamond(t, a, b, c, d):
    """_diamond_lanes on the one-bit arc words of the quad a, b, c, d."""
    return _diamond_lanes(_arc(t, a, b), _arc(t, c, d), _arc(t, a, c), _arc(t, b, d),
                          _arc(t, a, d), _arc(t, b, c), 1)


def _validate_reference(rows):
    """_first_defect as a per-pair scan in row-major order."""
    n = len(rows)

    def arc(i, j):
        return (rows[i] >> j) & 1

    for i in range(n):
        if arc(i, i):
            return (i, i, "diagonal entry set")
        if rows[i] >> n:
            return (i, i, "bit set beyond vertex range")
        for j in range(i + 1, n):
            ij, ji = arc(i, j), arc(j, i)
            if ij and ji:
                return (i, j, "both orientations present")
            if not ij and not ji:
                return (i, j, "missing orientation")
    return None


def three_cycle():
    return from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive(n):
    return from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diamond4():
    # a dominates the 3-cycle b -> c -> d -> b
    return from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])


class TestValidate:
    """Tournament(rows) is the one check: it refuses rows that are not a
    tournament, with the first bad pair of _first_defect."""

    def test_three_cycle_ok(self):
        assert Tournament((0b010, 0b100, 0b001)) == three_cycle()

    def test_antisymmetry_violation(self):
        # the arcs 0 -> 1 and 1 -> 0 both set
        with pytest.raises(InputError, match=r"^not a tournament at \(0,1\): "
                                             "both orientations present$"):
            Tournament((0b010, 0b101, 0b010))

    def test_irreflexivity_violation(self):
        with pytest.raises(InputError, match=r"^not a tournament at \(0,0\): "
                                             "diagonal entry set$"):
            Tournament((0b001 | 0b010, 0b100, 0b010))

    def test_missing_orientation(self):
        with pytest.raises(InputError, match=r"^not a tournament at \(0,2\): "
                                             "missing orientation$"):
            Tournament((0b010, 0b100, 0))

    def test_everyone_beats_everyone_refused(self):
        # these rows once counted -40 diamonds and had 0 Baber edges
        with pytest.raises(InputError, match=r"^not a tournament at \(0,1\): "
                                             "both orientations present$"):
            Tournament([0b11111 ^ (1 << i) for i in range(5)])

    def test_n_is_the_row_count(self):
        assert three_cycle().n == 3
        with pytest.raises(TypeError):
            Tournament(4, (2, 0))

    @pytest.mark.parametrize("n", [0, 1, 2, tournament.MAX_N + 1, 600])
    def test_order_out_of_range_refused(self, n):
        # every Tournament is one that format_trn writes and parse_trn reads:
        # n is read as the .trn header is, before any pair is scanned
        with pytest.raises(InputError, match=rf"^n={n} out of range \[3, 512\]$"):
            Tournament([(1 << i) - 1 for i in range(n)])

    @pytest.mark.parametrize("n", [3, tournament.MAX_N])
    def test_orders_at_the_limits_round_trip(self, n):
        t = Tournament([(1 << i) - 1 for i in range(n)])
        assert parse_trn(format_trn(t)) == t

    def test_negative_row_reported(self):
        # row 1 - 2^8 has the bits of row 1 below n, so the adjacency view
        # is a valid tournament; the infinite run of high bits is not
        rows = list(three_cycle().rows)
        rows[1] -= 1 << 8
        assert _first_defect(rows) == _validate_reference(rows) == \
            (1, 1, "bit set beyond vertex range")
        with pytest.raises(InputError):
            Tournament(rows)

    @pytest.mark.parametrize("rows", [
        (0b010, 0b101, 0b010),
        (0b001 | 0b010, 0b100, 0b010),
        (0b010, 0b100, 0),
        (0b010, 0b100 - (1 << 8), 0b001),
    ])
    def test_seidel_refuses_invalid(self, rows):
        # no S^2 exists for rows that are not a tournament: no Tournament does
        i, j, reason = _validate_reference(rows)
        with pytest.raises(InputError) as exc:
            Tournament(rows)
        assert str(exc.value) == f"not a tournament at ({i},{j}): {reason}"

    def test_list_rows_stored_as_a_tuple(self):
        rows = [0b010, 0b100, 0b001]
        t = Tournament(rows)
        rows[2] = 0
        assert type(t.rows) is tuple and t == three_cycle()

    def test_numpy_rows_stored_as_python_ints(self):
        # vertex i beats every j < i; the rows that fit in int64 are numpy ints
        rows = [np.int64((1 << i) - 1) if i < 63 else (1 << i) - 1 for i in range(70)]
        t = Tournament(rows)
        assert t.rows == tuple((1 << i) - 1 for i in range(70))
        assert all(type(r) is int for r in t.rows)
        assert count_diamonds(t) == 0

    def test_float_row_refused(self):
        with pytest.raises(InputError, match="^row 4.0 is not an integer$"):
            Tournament((0b010, 4.0, 0b001))

    def test_replace_and_make_are_checked(self):
        t = three_cycle()
        assert t._replace(rows=[0b100, 0b001, 0b010]) == reverse(t)
        with pytest.raises(InputError, match=r"^not a tournament at \(0,2\)"):
            t._replace(rows=(0b010, 0b100, 0))
        with pytest.raises(InputError, match=r"^not a tournament at \(0,2\)"):
            Tournament._make([(0b010, 0b100, 0)])

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_checked(self, monkeypatch, protocol):
        t = random_tournament(9, 1)
        t.square_upper
        data = pickle.dumps(t, protocol)
        calls = []
        first_defect = tournament._first_defect
        monkeypatch.setattr(tournament, "_first_defect",
                            lambda *a: calls.append(a) or first_defect(*a))
        u = pickle.loads(data)
        assert u == t and hash(u) == hash(t) and type(u) is Tournament
        assert len(calls) == 1


class TestIsDiamond:
    """The Pfaffian rule, tournament._diamond_lanes, on single bits against
    checks that share no code with it."""

    def test_dominating_vertex_over_cycle(self):
        assert _is_diamond(diamond4(), 0, 1, 2, 3)

    def test_transitive_is_not(self):
        assert not _is_diamond(transitive(4), 0, 1, 2, 3)

    def test_strong_non_diamond(self):
        t = from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        assert not _is_diamond(t, 0, 1, 2, 3)
        # its induced Seidel determinant is 1, not 9
        assert bareiss_det(seidel(t)) == 1

    def test_agrees_with_determinant_oracle_all_4_tournaments(self):
        # the 4x4 Seidel determinant is 9 for a diamond and 1 otherwise
        for e in range(64):
            t = decode(4, e)
            det = bareiss_det(seidel(t))
            assert det in (1, 9)
            assert _is_diamond(t, 0, 1, 2, 3) == (det == 9)

    def test_agrees_with_determinant_oracle_random(self):
        t = random_tournament(9, seed=7)
        for quad in itertools.combinations(range(9), 4):
            sub = np.array(seidel(t))[np.ix_(quad, quad)].tolist()
            assert _is_diamond(t, *quad) == (bareiss_det(sub) == 9)

    def test_reads_indices_through_operator_index(self):
        # a quad of n = 100 cut out by numpy indices is a diamond iff the bit
        # form says so, where a numpy shift count would coerce a 100-bit row
        # to int64 and overflow
        t = random_tournament(100, seed=1)
        quads = [(70, 80, 90, 99), (0, 64, 65, 99)]
        quads += [tuple(random.Random(k).sample(range(100), 4)) for k in range(50)]
        for quad in quads:
            rest = np.array([v for v in range(100) if v not in quad])
            assert count_diamonds(delete_vertices(t, rest)) == _is_diamond(t, *quad)
        assert any(_is_diamond(t, *quad) for quad in quads)
        with pytest.raises(InputError, match="is not an integer"):
            delete_vertices(t, [0, 1, 2, 3.0])

    def test_bit_form_matches_score_squares_all_4_tournaments(self):
        # the oracles' score-square rule shares no code with the Pfaffian rule
        got = [_is_diamond(decode(4, e), 0, 1, 2, 3) for e in range(64)]
        expected = [int(_subset_degree_squares(decode(4, e).rows, 0, 1, 2, 3) == _DIAMOND_SQ)
                    for e in range(64)]
        assert got == expected and sum(got) == 16

    def test_every_order_of_a_quad_agrees(self):
        # |Pf| does not depend on the vertex order: all 24 orders give one answer
        cases = [(decode(4, e), (0, 1, 2, 3)) for e in range(64)]
        t = random_tournament(7, 3)
        cases += [(t, quad) for quad in itertools.combinations(range(7), 4)]
        for t, quad in cases:
            answers = {_is_diamond(t, *p) for p in itertools.permutations(quad)}
            assert answers == {_subset_degree_squares(t.rows, *quad) == _DIAMOND_SQ}

    def test_lane_form_matches_bit_form_on_a_packed_block(self):
        # lane x of each arc word is the arc of decode(4, x): all 64 4-tournaments
        ts = [decode(4, x) for x in range(64)]
        word = {(i, j): sum(_arc(t, i, j) << x for x, t in enumerate(ts))
                for i, j in itertools.combinations(range(4), 2)}
        lanes = _diamond_lanes(word[0, 1], word[2, 3], word[0, 2], word[1, 3], word[0, 3],
                               word[1, 2], (1 << 64) - 1)
        assert [(lanes >> x) & 1 for x in range(64)] == \
            [_is_diamond(t, 0, 1, 2, 3) for t in ts]


class TestCountDiamonds:
    def test_star_over_cycle(self):
        assert count_diamonds_naive(diamond4()) == 1

    @pytest.mark.parametrize("n", [4, 6, 9, 12])
    def test_transitive_has_none(self, n):
        assert count_diamonds_naive(transitive(n)) == 0

    def test_reversal_invariance(self):
        for seed in range(10):
            t = random_tournament(8, seed)
            assert count_diamonds_naive(t) == count_diamonds_naive(reverse(t))



@st.composite
def tournaments(draw, min_n=3, max_n=40):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    return decode(n, sum(1 << b for b, bit in enumerate(bits) if bit))


class TestNeighbourhoodCount:
    @given(tournaments())
    @settings(max_examples=60, deadline=None)
    def test_naive_oracle(self, t):
        assert count_diamonds(t) == count_diamonds_naive(t)

    @given(tournaments())
    @settings(max_examples=30, deadline=None)
    def test_reversal_symmetry(self, t):
        assert count_diamonds(reverse(t)) == count_diamonds(t)

    @pytest.mark.parametrize("n", [3, 4, 9, 40, 512])
    def test_transitive_has_none(self, n):
        assert count_diamonds(transitive(n)) == 0

    def test_star_over_cycle(self):
        assert count_diamonds(diamond4()) == 1


def _switch(t, x):
    """Seidel switching by the vertex set x (S -> DSD, D = -1 on x and 1
    elsewhere): every arc between x and the other vertices is reversed."""
    inside = sum(1 << v for v in x)
    outside = ((1 << t.n) - 1) ^ inside
    return Tournament([r ^ (outside if (inside >> i) & 1 else inside)
                       for i, r in enumerate(t.rows)])


class TestSwitching:
    """Switching only changes the sign of each 4-set's Pfaffian
    s12 s34 - s13 s24 + s14 s23, and |Pf| = 3 exactly on diamonds."""

    @given(tournaments(min_n=5, max_n=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_baber_are_invariant(self, t, data):
        u = _switch(t, data.draw(st.sets(st.integers(0, t.n - 1))))
        assert count_diamonds(u) == count_diamonds(t)
        assert count_diamonds_spectral(u) == count_diamonds_spectral(t)
        assert baber(u).edges == baber(t).edges

    @given(tournaments(min_n=5, max_n=30))
    @settings(max_examples=60, deadline=None)
    def test_source_decomposition(self, t):
        # switching the in-neighbours of 0 makes 0 a source; a 4-set through
        # the source is a diamond iff its other three vertices are a 3-cycle
        s = _switch(t, [v for v in range(1, t.n) if _arc(t, v, 0)])
        assert s.rows[0].bit_count() == t.n - 1
        u = delete_vertices(s, [0])
        c3 = comb(u.n, 3) - sum(comb(row.bit_count(), 2) for row in u.rows)
        assert count_diamonds(t) == count_diamonds(u) + c3


class TestAdjacency:
    @pytest.mark.parametrize("n", [3, 8, 9, 70, 512])
    def test_matches_dom(self, n):
        # the annealer's S, unpacked from the rows, against S entry by entry
        t = random_tournament(n, seed=n)
        s = _SquareState(t).s
        assert s.dtype == np.int64
        assert s.tolist() == seidel(t)

    def test_dom_numpy_index(self):
        # the arc i -> j of the rows survives delete_vertices when the drop
        # list holds numpy ints; a numpy shift count once coerced a row to
        # int64 and overflowed
        t = random_tournament(70, seed=1)
        for i, j in ((0, 69), (69, 0), (5, 64)):
            keep = sorted({i, j, 30, 31})
            drop = np.array([v for v in range(70) if v not in keep])
            sub = delete_vertices(t, drop)
            assert _arc(sub, keep.index(i), keep.index(j)) == _arc(t, i, j)
            assert sub == delete_vertices(t, drop.tolist())

    def test_dom_reads_indices_through_operator_index(self):
        # numpy indices at n = 100 give the Python-int answer, with Python-int
        # rows; a float or a string is refused, not truncated or parsed
        t = random_tournament(100, seed=1)
        for i, j in ((0, 99), (99, 0), (70, 5), (5, 70)):
            sub = delete_vertices(t, [np.int64(i), np.uint8(j)])
            assert sub == delete_vertices(t, [i, j])
            assert all(type(r) is int for r in sub.rows)
        for i, j in ((0, 1.5), (1.0, 0), (0, "1")):
            with pytest.raises(InputError, match="is not an integer"):
                delete_vertices(t, [i, j])

    # the dom and out_degree ids name the vertex pairs and vertices that the
    # Tournament readers of those names refused; delete_vertices, the one
    # reader of vertex indices left, refuses them now
    @pytest.mark.parametrize("call", [
        lambda t: delete_vertices(t, [0, 600]), lambda t: delete_vertices(t, [-1, 0]),
        lambda t: delete_vertices(t, [0, -1]), lambda t: delete_vertices(t, [100, 0]),
        lambda t: delete_vertices(t, [-1]), lambda t: delete_vertices(t, [100]),
        lambda t: decode(4, -1), lambda t: decode(4, 1 << 10),
    ], ids=["dom(0,600)", "dom(-1,0)", "dom(0,-1)", "dom(100,0)", "out_degree(-1)",
            "out_degree(100)", "decode(4,-1)", "decode(4,2^10)"])
    def test_out_of_range_is_refused(self, call):
        # a negative vertex once read a row from the end, and decode took any int
        with pytest.raises(InputError, match="out of range"):
            call(random_tournament(100, seed=1))


class TestSizesThroughIndex:
    """Every size a library entry point takes is read through _index: a
    numpy integer gives the Python-int answer and a float is an InputError."""

    @pytest.mark.parametrize("call, size", [
        (lambda n: random_tournament(n, 1), 100),
        # an int64 seed once reached random.Random, which refuses it
        (lambda s: random_tournament(10, s), 1),
        (lambda n: decode(n, 5), 70),
        # an int64 e once overflowed the range check against 2^C(70,2)
        (lambda e: decode(70, e), 3),
        (paley_tournament, 103),
        (star_paley, 103),
        (lambda n: local_search_max_diamonds(n, restarts=1, steps=5), 70),
        (lambda r: local_search_max_diamonds(8, restarts=r, steps=5), 2),
        (lambda s: local_search_max_diamonds(8, restarts=1, steps=s), 5),
        (lambda n: exhaustive_max_diamonds(n), 5),
        (lambda k: exhaustive_max_diamonds(5, threads=k), 2),
        (lambda n: encodings_with_delta(n, 2), 5),
        (lambda d: encodings_with_delta(5, d), 2),
        # T*(7)'s edges on 100 vertices fail the law: a numpy n once broke
        # verify_ff4's report of the bad 5-set
        (lambda n: verify_ff4(Hypergraph4(n, baber(star_paley(7)).edges)), 100),
        (lambda n: type(Hypergraph4(n, []).n), 5),
        # an int64 n once overflowed the bounds' products with only a RuntimeWarning
        (diamond_upper_bound, 100000),
        (edge_count_bound, 100001),
        # a numpy q once kept numpy squares, whose bitmask wrapped at 64 bits
        (lambda q: gf_build(q).translates(sum(1 << x for x in gf_build(q).squares())), 67),
        (lambda lam: is_3_design(baber(star_paley(7)), lam), 2),
    ], ids=["random_tournament", "random_tournament-seed", "decode", "decode-encoding",
            "paley_tournament", "star_paley", "local_search-n",
            "local_search-restarts", "local_search-steps",
            "exhaustive-n", "exhaustive-threads", "encodings_with_delta-n",
            "encodings_with_delta-delta", "hypergraph-verify_ff4", "hypergraph-n",
            "diamond_upper_bound", "edge_count_bound", "gf_build", "is_3_design-lam"])
    def test_numpy_sizes_agree_and_floats_are_refused(self, call, size):
        assert call(np.int64(size)) == call(size)
        with pytest.raises(InputError, match="is not an integer"):
            call(size + 0.5)

    @pytest.mark.parametrize("t", [lambda: decode(70, np.int64(3)),
                                   lambda: random_tournament(10, np.int64(1))],
                             ids=["decode", "random_tournament"])
    def test_numpy_parameters_give_python_int_rows(self, t):
        # an int64 row compares equal to its int, so == alone does not show this
        assert all(type(r) is int for r in t().rows)

    # _index(v, what, lo, hi) is the one range check of each size: one text
    # for a range, one for a lower bound alone, v clipped to 40 digits
    @pytest.mark.parametrize("call, text", [
        (lambda: decode(2, 0), "n=2 out of range [3, 512]"),
        (lambda: random_tournament(513, 0), "n=513 out of range [3, 512]"),
        (lambda: local_search_max_diamonds(2), "n=2 out of range [3, 512]"),
        (lambda: local_search_max_diamonds(8, restarts=0), "restarts must be at least 1, got 0"),
        (lambda: local_search_max_diamonds(8, steps=-1), "steps must be at least 0, got -1"),
        (lambda: exhaustive_max_diamonds(9), "n=9 out of range [3, 8]"),
        (lambda: exhaustive_max_diamonds(5, threads=65), "threads=65 out of range [1, 64]"),
        (lambda: Hypergraph4(-1, []), "n=-1 out of range [0, 512]"),
        (lambda: edge_count_bound(-1), "n must be at least 0, got -1"),
        (lambda: diamond_upper_bound(-1), "n must be at least 0, got -1"),
        # trial division of this prime would take seconds
        (lambda: gf_build(100000000000031), "q=100000000000031 out of range [2, 512]"),
        (lambda: local_search_max_diamonds(8, steps=-10 ** 50),
         f"steps must be at least 0, got {'-1' + '0' * 38!r}... (52 characters)"),
        # random.Random(None) would draw from the OS: the same seed would not
        # give the same tournament
        (lambda: random_tournament(10, None), "seed None is not an integer"),
        (lambda: is_3_design(baber(star_paley(7)), 2.0), "lam 2.0 is not an integer"),
        (lambda: is_3_design(Hypergraph4(8, []), -1), "lam must be at least 0, got -1"),
        # above str()'s digit limit (sys.get_int_max_str_digits) too
        (lambda: random_tournament(10 ** 5000, 0),
         f"n={'1' + '0' * 39!r}... (5001 characters) out of range [3, 512]"),
        (lambda: decode(5, 10 ** 5000),
         f"encoding {'1' + '0' * 39!r}... (5001 characters) out of range for n=5"),
        (lambda: local_search_max_diamonds(8, steps=-10 ** 5000),
         f"steps must be at least 0, got {'-1' + '0' * 38!r}... (5002 characters)"),
    ], ids=["decode", "random_tournament", "local_search-n", "local_search-restarts",
            "local_search-steps", "exhaustive-n", "exhaustive-threads",
            "hypergraph-n", "edge_count_bound", "diamond_upper_bound", "gf_build",
            "clipped", "random_tournament-seed-None", "is_3_design-lam-float",
            "is_3_design-lam-negative", "random_tournament-n-huge", "decode-encoding-huge",
            "local_search-steps-huge"])
    def test_out_of_range_text(self, call, text):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == text and len(text) < 200

    @pytest.mark.parametrize("n", [-5, 0, 1, 2, 513, 2000])
    def test_decode_refuses_orders_outside_3_to_512(self, n):
        # checked before 2^C(n,2) is built; n = 3 and 512 round-trip in
        # TestTrnFormat.test_encode_decode_round_trip
        with pytest.raises(InputError, match=rf"^n={n} out of range \[3, 512\]$"):
            decode(n, 0)

    def test_sizes_are_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(random, "Random", no_work)
        monkeypatch.setattr(gf, "factor_prime_power", no_work)
        with pytest.raises(InputError, match=r"^n=1000000 out of range \[3, 512\]$"):
            random_tournament(10 ** 6, 0)
        with pytest.raises(InputError, match=r"^q=100000000000031 out of range \[2, 512\]$"):
            gf_build(100000000000031)


class TestFlipDelta:
    def test_create_diamond_from_transitive(self):
        # reversing 3 -> ... in the transitive order 0>1>2>3: flip (2,3) to make
        # no cycle; flip (1,3)? go via explicit construction instead: reversing
        # the bottom arc of a transitive 4-tournament creates a 3-cycle under
        # the top vertex
        t = transitive(4)
        d = diamond_delta_on_flip(t, 1, 3)
        assert d == 1
        assert count_diamonds_naive(flip_arc(t, 1, 3)) == 1

    def test_flip_and_flip_back(self):
        t = random_tournament(9, seed=3)
        d1 = diamond_delta_on_flip(t, *first_arc(t))
        i, j = first_arc(t)
        t2 = flip_arc(t, i, j)
        d2 = diamond_delta_on_flip(t2, j, i)
        assert d1 + d2 == 0

    def test_missing_arc_rejected(self):
        t = three_cycle()
        with pytest.raises(ValueError):
            diamond_delta_on_flip(t, 1, 0)

    def test_full_recount_oracle(self):
        t = random_tournament(10, seed=11)
        for i in range(10):
            for j in range(10):
                if _arc(t, i, j):
                    d = diamond_delta_on_flip(t, i, j)
                    assert d == count_diamonds_naive(flip_arc(t, i, j)) - count_diamonds_naive(t)

    def test_long_flip_sequence_consistency(self):
        import random as _random

        rng = _random.Random(5)
        t = random_tournament(14, seed=1)
        delta_total = 0
        base = count_diamonds_naive(t)
        for _ in range(300):
            i = rng.randrange(14)
            j = rng.randrange(13)
            if j >= i:
                j += 1
            if not _arc(t, i, j):
                i, j = j, i
            delta_total += diamond_delta_on_flip(t, i, j)
            t = flip_arc(t, i, j)
        assert count_diamonds_naive(t) == base + delta_total


def first_arc(t):
    for i in range(t.n):
        for j in range(t.n):
            if _arc(t, i, j):
                return i, j
    raise AssertionError


class TestRandomTournament:
    def test_determinism(self):
        assert random_tournament(5, 1) == random_tournament(5, 1)

    def test_seed_sensitivity(self):
        a, b = random_tournament(5, 1), random_tournament(5, 2)
        assert a != b

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            random_tournament(2, 0)
        with pytest.raises(ValueError):
            random_tournament(513, 0)
        with pytest.raises(InputError) as exc:
            random_tournament(int("9" * 4000), 0)
        assert str(exc.value) == f"n={'9' * 40!r}... (4000 characters) out of range [3, 512]"

    def test_mean_diamond_count_at_n5(self):
        # per-4-set diamond probability: exactly 16 of the 64 labeled
        # 4-tournaments are diamonds (4 apex choices x 2 directions x 2 cycle
        # orientations), i.e. 1/4
        hits = sum(_is_diamond(decode(4, e), 0, 1, 2, 3) for e in range(64))
        assert hits == 16
        # exact mean and variance of delta over the 1024 labeled 5-tournaments
        deltas = [count_diamonds_naive(decode(5, e)) for e in range(1 << 10)]
        mean_exact = sum(deltas) / 1024
        assert mean_exact == 1.25  # 5 four-sets, each a diamond with prob 1/4
        var = sum(d * d for d in deltas) / 1024 - mean_exact**2
        samples = [count_diamonds_naive(random_tournament(5, seed)) for seed in range(1000)]
        sigma_mean = (var / 1000) ** 0.5
        assert abs(np.mean(samples) - mean_exact) <= 3 * sigma_mean


class TestFiveVertexLaw:
    def _subtournament_deltas(self, n):
        """delta of every 5-subset over all 2^C(n,2) encodings, vectorized."""
        lut5 = np.array([count_diamonds_naive(decode(5, e)) for e in range(1 << 10)],
                        dtype=np.uint8)
        total = 1 << (n * (n - 1) // 2)
        for five in itertools.combinations(range(n), 5):
            bits = [pair_index(n, five[a], five[b])
                    for a, b in itertools.combinations(range(5), 2)]
            for lo in range(0, total, 1 << 18):
                enc = np.arange(lo, min(lo + (1 << 18), total), dtype=np.uint32)
                idx = np.zeros(len(enc), dtype=np.uint16)
                for t, pb in enumerate(bits):
                    idx |= (((enc >> pb) & 1) << t).astype(np.uint16)
                yield lut5[idx]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_every_induced_5_set_has_0_or_2_diamonds(self, n):
        for deltas in self._subtournament_deltas(n):
            assert np.isin(deltas, (0, 2)).all()


def _parse_trn_reference(text):
    """parse_trn with the per-character row loop it had before int(row, 2),
    a header of ASCII digits with an optional leading minus, and a line that
    ends at "\n" only, less a "\r" before it."""
    lines = re.split(r"\r?\n", text)
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError("empty input", line=1)
    if not re.fullmatch("-?[0-9]+", lines[0].strip()):
        raise InputError(f"bad vertex count {lines[0]!r}", line=1)
    # the stripped header: str.strip also takes "\x1f", which int() keeps
    n = int(lines[0].strip())
    if not 3 <= n <= 512:
        raise InputError(f"n={n} out of range [3, 512]", line=1)
    if len(lines) < n + 1:
        raise InputError(f"expected {n} matrix rows, got {len(lines) - 1}", line=len(lines))
    rows = []
    for i in range(n):
        line = lines[i + 1].strip()
        if len(line) != n:
            raise InputError(f"row {i} has length {len(line)}, expected {n}", line=i + 2)
        r = 0
        for j, ch in enumerate(line):
            if ch not in "01":
                raise InputError(f"bad character {ch!r}", line=i + 2, column=j + 1)
            if ch == "1":
                r |= 1 << j
        rows.append(r)
    bad = _validate_reference(rows)
    if bad is not None:
        i, j, reason = bad
        raise InputError(f"not a tournament at ({i},{j}): {reason}", line=i + 2, column=j + 1)
    t = Tournament(rows)
    for k in range(n + 1, len(lines)):
        if lines[k].strip():
            raise InputError(f"text after the {n} rows: {lines[k]!r}", line=k + 1)
    return t


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc), exc.line, exc.column


class TestTrnFormat:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(3, 12), st.integers(0, 10 ** 6), st.data())
    def test_matches_per_character_reference(self, n, seed, data):
        text = format_trn(random_tournament(n, seed))
        pos = data.draw(st.integers(0, len(text) - 1))
        ch = data.draw(st.one_of(st.sampled_from("01 \t\n\r_+-2\u0661\u00a0"), st.characters()))
        corrupted = text[:pos] + ch + text[pos + 1:]
        assert _outcome(parse_trn, corrupted) == _outcome(_parse_trn_reference, corrupted)

    def test_round_trip(self):
        t = random_tournament(11, seed=42)
        assert parse_trn(format_trn(t)) == t

    def test_diagonal_one_rejected(self):
        text = "3\n110\n001\n010\n"
        with pytest.raises(InputError):
            parse_trn(text)

    def test_complementarity_enforced(self):
        text = "3\n011\n010\n000\n"
        with pytest.raises(InputError):
            parse_trn(text)

    def test_bad_counts(self):
        with pytest.raises(InputError):
            parse_trn("3\n010\n001\n")
        with pytest.raises(InputError):
            parse_trn("x\n")
        # a line after the n rows that is not blank
        with pytest.raises(InputError, match=r"^text after the 3 rows: '011' \(line 5\)$"):
            parse_trn("3\n010\n001\n100\n011\n")
        assert parse_trn("3\n010\n001\n100\n \n\n") == three_cycle()

    @pytest.mark.parametrize("head", ["+3", "0_3", "\u0663", "3.0", "-", "", "9" * 5000])
    def test_header_takes_ascii_digits_only(self, head):
        # int() takes the first three as 3, and refuses more than 4300 digits;
        # the error quotes at most 40 characters of the header, its two ends
        quoted = repr(head) if len(head) <= 40 else \
            f"{head[:20]!r}...{head[-20:]!r} ({len(head)} characters)"
        with pytest.raises(InputError, match=f"^bad vertex count {re.escape(quoted)} "
                                             r"\(line 1\)$") as info:
            parse_trn(f"{head}\n010\n001\n100\n")
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("text, err", [
        # a line ends at "\n": the other breaks of str.splitlines end none
        ("3\x0c010\x0b001\x1c100", r"bad vertex count '3\x0c010\x0b001\x1c100' (line 1)"),
        ("3\x0c01x\n001\n100\n", r"bad vertex count '3\x0c01x' (line 1)"),
        ("3\n010\x85001\n001\n100\n", "row 0 has length 7, expected 3 (line 2)"),
        ("3\n010\n001\n100\u2028011\n", "row 2 has length 7, expected 3 (line 4)"),
        # and a lone "\r" ends none either
        ("3\r010\r001\r100\r", r"bad vertex count '3\r010\r001\r100\r' (line 1)"),
    ], ids=["form-feed-only", "form-feed-in-the-header", "next-line", "line-separator",
            "lone-cr"])
    def test_a_line_ends_at_newline_only(self, text, err):
        with pytest.raises(InputError) as info:
            parse_trn(text)
        assert str(info.value) == err

    def test_a_stripped_form_feed_before_newline(self):
        # "\x0c" is whitespace inside a line, not an empty line after it
        assert parse_trn("3\x0c\n010\n001\n100\n") == three_cycle()

    @pytest.mark.parametrize("text", [
        "3\n010\n001\n100\n", "3\n01x\n001\n100\n", "3\n011\n001\n100\n",
        "3\n010\n001\n", "x\n", "3\n010\n001\n100\n011\n", "3\n010\n001\n100\n \n\n",
    ])
    def test_crlf_reads_as_lf(self, text):
        # the same tournament, or the same error text at the same line and column
        assert _outcome(parse_trn, text.replace("\n", "\r\n")) == _outcome(parse_trn, text)

    def test_header_around_the_limits(self):
        assert parse_trn(" 3 \n010\n001\n100\n").n == 3
        assert parse_trn("\x1f3\x1f\n010\n001\n100\n").n == 3
        with pytest.raises(InputError, match=r"^n=-3 out of range \[3, 512\] \(line 1\)$"):
            parse_trn("-3\n010\n001\n100\n")

    def test_matches_per_pair_reference(self):
        # rows perturbed by up to 3 bit flips, some beyond column n
        rng = random.Random(0)
        for trial in range(300):
            n = rng.randint(3, 12)
            rows = list(random_tournament(n, trial).rows)
            for _ in range(rng.randint(0, 3)):
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n + 2)
            bad = _first_defect(rows)
            assert bad == _validate_reference(rows)
            if bad is not None:
                with pytest.raises(InputError, match=re.escape("at ({},{}): {}".format(*bad))):
                    Tournament(rows)
                continue
            t = Tournament(rows)
            lines = [str(n)] + ["".join("1" if _arc(t, i, j) else "0" for j in range(n))
                                for i in range(n)]
            assert format_trn(t) == "\n".join(lines) + "\n"

    def test_encode_decode_round_trip(self):
        # bit b of the encoding is the b-th pair (i, j), i < j, in row-major order
        for n in (3, 4, 7, 32, 128, 512):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for seed in range(2):
                t = random_tournament(n, seed)
                e = encode(t)
                assert e >> len(pairs) == 0
                assert all(((e >> b) & 1) == _arc(t, i, j) for b, (i, j) in enumerate(pairs))
                assert decode(n, e) == t


# sha256 of format_trn(random_tournament(n, seed)): the order of the drawn
# bits is part of the output, so a seed must keep naming the same tournament
RANDOM_SHA256 = {
    (3, 0): "5e7bb5e1eabee00c787c2c441ffde4a2ee0f02bcadd3ffa48c3502455e2d344a",
    (40, 7): "023facd3ad492c1c022157adc071c7105b1b88a94aa6f07b3602930c7a1362c7",
    (512, 1): "cd9b5a504a047f660546152ae5ee609116b4bf1dd58fc40feec8a7d0fccd7ad1",
}


@pytest.mark.parametrize("n, seed", sorted(RANDOM_SHA256))
def test_random_tournament_is_pinned(n, seed):
    text = format_trn(random_tournament(n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_SHA256[n, seed]
