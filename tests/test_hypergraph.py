import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondkit import hypergraph as hypergraph_module
from diamondkit.constructions import star_paley
from diamondkit.hypergraph import (
    CONJECTURAL,
    MAX_EDGES,
    PROVEN,
    baber,
    edge_count_bound,
    format_hyp,
    hypergraph,
    is_3_design,
    is_ff4_design,
    parse_hyp,
    verify_ff4,
)
from diamondkit.oracles import (
    _DIAMOND_SQ,
    _subset_degree_squares,
    count_diamonds_naive,
    delete_vertices_count,
    design_block_counts,
    from_arcs,
    is_min_sum_squares_witness,
    min_sum_squares,
    triple_profile,
    verify_ff4_naive,
)
from diamondkit.spectral import diamond_upper_bound
from diamondkit.tournament import (
    MAX_N,
    InputError,
    count_diamonds,
    random_tournament,
)


def transitive(n):
    return from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestBaber:
    def test_transitive_empty(self):
        assert baber(transitive(7)).m == 0

    def test_star_paley_3_single_edge(self):
        h = baber(star_paley(3))
        assert h.edges == ((0, 1, 2, 3),)

    def test_star_paley_7(self):
        h = baber(star_paley(7))
        assert h.n == 8 and h.m == 28

    @pytest.mark.parametrize("seed", range(8))
    def test_edge_count_is_diamond_count(self, seed):
        t = random_tournament(9, seed)
        assert baber(t).m == count_diamonds_naive(t)


class TestVerifyFF4:
    def test_two_edges_ok(self):
        h = hypergraph(5, [(0, 1, 2, 3), (0, 1, 2, 4)])
        assert verify_ff4(h) is None

    def test_single_edge_counterexample(self):
        h = hypergraph(5, [(0, 1, 2, 3)])
        assert verify_ff4(h) == ((0, 1, 2, 3, 4), 1)

    def test_least_counterexample_reported(self):
        h = hypergraph(6, [(1, 2, 3, 4)])
        five, count = verify_ff4(h)
        assert five == (0, 1, 2, 3, 4) and count == 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_ff4(hypergraph(4, []))

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_baber_always_ff4(self, n):
        # 5-tournaments contain 0 or 2 diamonds, so every Baber hypergraph
        # passes; cross-checked exhaustively in the search tests
        for seed in range(70 if n == 5 else 65):
            assert verify_ff4(baber(random_tournament(n, seed))) is None


class TestTripleProfile:
    def test_empty(self):
        prof = triple_profile(hypergraph(6, []))
        assert len(prof) == 20 and set(prof.values()) == {0}

    def test_star_paley_7_uniform(self):
        prof = triple_profile(baber(star_paley(7)))
        assert len(prof) == 56
        assert set(prof.values()) == {2}

    def test_single_edge(self):
        prof = triple_profile(hypergraph(5, [(0, 1, 2, 3)]))
        assert sorted(prof.values()).count(1) == 4
        assert sorted(prof.values()).count(0) == 6

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_double_counting(self, seed):
        h = baber(random_tournament(8, seed))
        assert sum(triple_profile(h).values()) == 4 * h.m


class TestDesign:
    def test_star_paley_7_is_design(self):
        assert is_ff4_design(baber(star_paley(7)))

    def test_star_paley_3_is_design(self):
        assert is_ff4_design(baber(star_paley(3)))

    def test_random_8_below_bound(self):
        t = random_tournament(8, seed=0)
        assert count_diamonds_naive(t) < 28
        assert not is_ff4_design(baber(t))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            is_ff4_design(hypergraph(6, []))


class TestEdgeCountBound:
    @pytest.mark.parametrize("n,value,status", [
        (8, 28, PROVEN),
        (7, 14, PROVEN),
        (6, 6, CONJECTURAL),
        (5, 2, CONJECTURAL),
        (12, 165, PROVEN),
        (11, 110, PROVEN),
    ])
    def test_values(self, n, value, status):
        assert edge_count_bound(n) == (Fraction(value), status)

    def test_baber_respects_proven_bounds(self):
        for n in (7, 8, 11, 12):
            bound, status = edge_count_bound(n)
            assert status == PROVEN
            for seed in range(30):
                assert baber(random_tournament(n, seed)).m <= bound


class TestBlockCounts:
    def test_block_total(self):
        assert design_block_counts(8, 4, 3, 2, 0) == 28

    def test_per_vertex(self):
        assert design_block_counts(8, 4, 3, 2, 1) == 14

    def test_s_equals_t(self):
        assert design_block_counts(8, 4, 3, 2, 3) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            design_block_counts(8, 4, 5, 2, 0)
        with pytest.raises(ValueError):
            design_block_counts(8, 4, 3, 0, 0)

    def test_cross_check_against_design(self):
        h = baber(star_paley(7))
        assert h.m == design_block_counts(8, 4, 3, 2, 0)
        per_vertex = [sum(1 for e in h.edges if v in e) for v in range(8)]
        assert set(per_vertex) == {design_block_counts(8, 4, 3, 2, 1)}


class TestDeletionCounts:
    def test_all_single_deletions(self):
        h = baber(star_paley(7))
        for v in range(8):
            observed, predicted = delete_vertices_count(h, {v})
            assert observed == predicted == 14

    def test_all_double_deletions(self):
        h = baber(star_paley(7))
        for pair in combinations(range(8), 2):
            observed, predicted = delete_vertices_count(h, pair)
            assert observed == predicted == 6

    def test_all_triple_deletions(self):
        h = baber(star_paley(7))
        for triple in combinations(range(8), 3):
            observed, predicted = delete_vertices_count(h, triple)
            assert observed == predicted == 2

    def test_no_prediction_for_non_design(self):
        h = baber(random_tournament(8, seed=0))
        observed, predicted = delete_vertices_count(h, {0})
        assert predicted is None
        assert observed == sum(1 for e in h.edges if 0 not in e)

    def test_rejects_large_drop(self):
        with pytest.raises(ValueError):
            delete_vertices_count(baber(star_paley(7)), {0, 1, 2, 3})


def _brute_force_min(s, p):
    """Enumerate all nondecreasing p-part compositions of s."""
    best, best_parts = None, None
    def gen(prefix, remaining, lo):
        nonlocal best, best_parts
        if len(prefix) == p - 1:
            if remaining >= lo:
                parts = prefix + [remaining]
                total = sum(x * x for x in parts)
                if best is None or total < best:
                    best, best_parts = total, tuple(parts)
            return
        for x in range(lo, remaining + 1):
            gen(prefix + [x], remaining - x, x)
    gen([], s, 0)
    return best, best_parts


class TestMinSumSquares:
    def test_equal_split(self):
        assert min_sum_squares(8, 4) == (16, (2, 2, 2, 2))

    def test_uneven(self):
        assert min_sum_squares(11, 4) == (31, (2, 3, 3, 3))

    def test_zero(self):
        assert min_sum_squares(0, 3) == (0, (0, 0, 0))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            min_sum_squares(-1, 3)
        with pytest.raises(ValueError):
            min_sum_squares(4, 0)

    @pytest.mark.parametrize("s", range(0, 21, 4))
    @pytest.mark.parametrize("p", range(1, 7))
    def test_brute_force_oracle(self, s, p):
        expected, witness = _brute_force_min(s, p)
        minimum, parts = min_sum_squares(s, p)
        assert minimum == expected
        assert sum(parts) == s and len(parts) == p
        assert is_min_sum_squares_witness(witness, s, p)

    def test_witness_predicate_matches_brute_force(self):
        s, p = 13, 5
        minimum, _ = min_sum_squares(s, p)
        def nondecreasing(parts):
            return all(a <= b for a, b in zip(parts, parts[1:]))
        seen = []
        def gen(prefix, remaining, lo):
            if len(prefix) == p - 1:
                if remaining >= lo:
                    seen.append(tuple(prefix + [remaining]))
                return
            for x in range(lo, remaining + 1):
                gen(prefix + [x], remaining - x, x)
        gen([], s, 0)
        for parts in seen:
            optimal = sum(x * x for x in parts) == minimum
            assert optimal == is_min_sum_squares_witness(parts, s, p)


class TestHypFormat:
    def test_round_trip(self):
        h = baber(star_paley(7))
        assert parse_hyp(format_hyp(h)) == h

    def test_rejects_nonincreasing_edge(self):
        with pytest.raises(InputError):
            parse_hyp("5 1\n0 2 1 3\n")

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            parse_hyp("5 2\n0 1 2 3\n0 1 2 3\n")

    def test_rejects_bad_header(self):
        with pytest.raises(InputError):
            parse_hyp("5\n")


def _ascending(edges):
    return type(edges) is tuple and all(e < f for e, f in zip(edges, edges[1:]))


class TestEdgeOrder:
    """Every constructor holds the edges as one ascending tuple, the order
    of the .hyp lines."""

    @pytest.mark.parametrize("seed", range(4))
    def test_each_constructor_returns_an_ascending_tuple(self, seed):
        h = baber(random_tournament(12, seed))
        assert h.m > 0 and _ascending(h.edges)
        assert _ascending(hypergraph(12, reversed(h.edges)).edges)
        assert _ascending(parse_hyp(format_hyp(h)).edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_hypergraph_sorts_a_shuffled_list(self, seed):
        h = _random_hypergraph(9, seed, 0.3)
        edges = [tuple(random.Random(seed).sample(e, 4)) for e in h.edges] + list(h.edges)
        random.Random(seed).shuffle(edges)
        shuffled = hypergraph(9, edges)
        assert shuffled.edges == tuple(sorted(h.edges)) == h.edges
        assert shuffled == h and hash(shuffled) == hash(h)

    @pytest.mark.parametrize("text,first,second", [
        ("6 2\n0 1 2 4\n0 1 2 3\n", (0, 1, 2, 4), (0, 1, 2, 3)),
        ("6 2\n0 1 2 3\n0 1 2 3\n", (0, 1, 2, 3), (0, 1, 2, 3)),
    ])
    def test_parse_refuses_out_of_order_and_repeated_edges(self, text, first, second):
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert str(info.value) == (f"edge {second} is not after {first}: "
                                   "edges must be strictly ascending (line 3)")

    @pytest.mark.parametrize("q", [7, 43])
    def test_format_reproduces_baber_text(self, q):
        text = format_hyp(baber(star_paley(q)))
        assert format_hyp(parse_hyp(text)) == text


class TestEdgeLimit:
    def test_limit_between_extremal_orders(self):
        # every tournament on at most 142 vertices fits; T*(151) does not
        assert diamond_upper_bound(142) <= MAX_EDGES == 2**22 < count_diamonds(star_paley(151))

    def test_baber_refuses_before_any_edge(self, monkeypatch):
        def lanes(*args):
            raise AssertionError("baber built an edge")

        monkeypatch.setattr(hypergraph_module, "_diamond_lanes", lanes)
        with pytest.raises(InputError) as info:
            baber(star_paley(151))
        assert str(info.value) == ("baber of n=152 would build 5451100 edges, "
                                   "above the limit of 4194304")

    def test_parse_refuses_m_above_the_limit(self):
        with pytest.raises(InputError) as info:
            parse_hyp(f"8 {MAX_EDGES + 1}\n")
        assert str(info.value) == ("need 0 <= n <= 512 and 0 <= m <= 4194304, "
                                   "got n=8, m=4194305 (line 1)")
        with pytest.raises(InputError) as info:
            parse_hyp(f"8 {MAX_EDGES}\n")
        assert str(info.value) == "expected 4194304 edge lines, got 0 (line 1)"


def _random_hypergraph(n, seed, density):
    rng = random.Random(seed)
    return hypergraph(n, [q for q in combinations(range(n), 4) if rng.random() < density])


def _perturbed_baber(t, seed, flips):
    """Baber hypergraph of t with `flips` random 4-sets toggled in or out."""
    rng = random.Random(seed)
    edges = set(baber(t).edges)
    for _ in range(flips):
        edges ^= {tuple(sorted(rng.sample(range(t.n), 4)))}
    return hypergraph(t.n, edges)


class TestLinkFF4Oracle:
    """verify_ff4 (link bitsets) against the C(n,5) scan of verify_ff4_naive."""

    @given(st.integers(5, 12), st.integers(0, 10**6), st.sampled_from([0.02, 0.1, 0.3, 0.6]))
    @settings(max_examples=80, deadline=None)
    def test_random_hypergraphs(self, n, seed, density):
        h = _random_hypergraph(n, seed, density)
        assert verify_ff4(h) == verify_ff4_naive(h)

    @given(st.integers(5, 12), st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_perturbed_baber(self, n, seed, flips):
        h = _perturbed_baber(random_tournament(n, seed), seed, flips)
        assert verify_ff4(h) == verify_ff4_naive(h)

    @pytest.mark.parametrize("q", [7, 11])
    def test_perturbed_designs(self, q):
        for seed in range(10):
            h = _perturbed_baber(star_paley(q), seed, 1 + seed % 3)
            assert verify_ff4(h) == verify_ff4_naive(h)

    def test_numpy_indices_at_n70(self):
        # link shifts must not wrap at 64 bits when edges hold numpy ints:
        # T*(7)'s design on vertices 62..69; vertex 0 plus any of its edges
        # spans exactly 1 edge, and (0, least edge) is the least bad 5-set
        shifted = sorted(tuple(v + 62 for v in e) for e in baber(star_paley(7)).edges)
        h_np = hypergraph(70, [tuple(np.array(e, dtype=np.int64)) for e in shifted])
        h_int = hypergraph(70, shifted)
        assert h_np == h_int
        assert all(type(x) is int for e in h_np.edges for x in e)
        assert verify_ff4(h_np) == verify_ff4(h_int) == ((0, *shifted[0]), 1)

    @pytest.mark.parametrize("edge,message", [
        ((0, 1, 1, 2), "bad edge (0, 1, 1, 2)"),
        ((3, 1, 2, 5), "edge (1, 2, 3, 5) out of range for n=5"),
        ((0, -1, 2, 3), "edge (-1, 0, 2, 3) out of range for n=5"),
        ((0, 1, 2), "bad edge (0, 1, 2)"),
        # only integers: a float was truncated, and a string raised TypeError
        ((0, 1, 2, 3.7), "bad edge (0, 1, 2, 3.7): indices must be integers"),
        (("0", "1", "2", "3"), "bad edge ('0', '1', '2', '3'): indices must be integers"),
        ((0, 1, 2, None), "bad edge (0, 1, 2, None): indices must be integers"),
    ])
    def test_constructor_rejects_bad_edges(self, edge, message):
        with pytest.raises(InputError) as exc:
            hypergraph(5, [(0, 1, 2, 3), edge])
        assert str(exc.value) == message

    @pytest.mark.parametrize("n, shown", [
        (-4, "-4"), (MAX_N + 1, str(MAX_N + 1)),
        (int("9" * 4000), f"{'9' * 40!r}... (4000 characters)"),
    ], ids=["-4", str(MAX_N + 1), "4000-digits"])
    def test_constructor_rejects_bad_n(self, n, shown):
        # a negative n would reach math.comb in is_3_design and is_ff4_design,
        # and a long n is clipped to 40 digits
        with pytest.raises(InputError) as exc:
            hypergraph(n, [])
        assert str(exc.value) == f"n={shown} out of range [0, {MAX_N}]"


class TestLinks:
    @given(st.integers(4, 10), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_popcounts_are_triple_profile(self, n, seed):
        h = _random_hypergraph(n, seed, 0.3)
        profile = triple_profile(h)
        links = h.links
        assert len(links) == sum(1 for c in profile.values() if c)
        for (a, b, c), count in profile.items():
            mask = (1 << a) | (1 << b) | (1 << c)
            assert links.get(mask, 0).bit_count() == count

    def test_cached_and_invisible_to_equality(self):
        h = baber(star_paley(7))
        assert h.links is h.links
        assert h == hypergraph(8, h.edges) and hash(h) == hash(hypergraph(8, h.edges))


def _design_by_definition(h):
    ff4 = h.n < 5 or verify_ff4_naive(h) is None
    return ff4 and all(c == h.n // 4 for c in triple_profile(h).values())


class TestDesignOracle:
    """is_ff4_design (link popcounts) against the triple_profile definition."""

    @given(st.sampled_from([3, 7, 11]), st.integers(0, 10**6), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_star_paley(self, q, seed, flips):
        h = _perturbed_baber(star_paley(q), seed, flips)
        assert is_ff4_design(h) == _design_by_definition(h)

    @given(st.sampled_from([4, 8, 12]), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_baber(self, n, seed):
        h = baber(random_tournament(n, seed))
        assert is_ff4_design(h) == _design_by_definition(h)

    def test_empty_and_complete(self):
        for n in (4, 8):
            empty = hypergraph(n, [])
            complete = hypergraph(n, combinations(range(n), 4))
            assert is_ff4_design(empty) == _design_by_definition(empty) is False
            assert is_ff4_design(complete) == _design_by_definition(complete)

    def test_3_design_lambda_zero(self):
        assert is_3_design(hypergraph(8, []), 0)
        assert not is_3_design(hypergraph(8, [(0, 1, 2, 3)]), 0)
        assert is_3_design(baber(star_paley(7)), 2)
        assert not is_3_design(baber(star_paley(7)), 1)


def _score_square_quads(t):
    """The diamond 4-sets of t, ascending, by the oracles' in-subset
    score-square rule, which shares no code with baber's Pfaffian test."""
    return tuple(q for q in combinations(range(t.n), 4)
                 if _subset_degree_squares(t.rows, *q) == _DIAMOND_SQ)


class TestBaberEnumeration:
    """baber (the Pfaffian rule) against the C(n,4) score-square filter."""

    @given(st.integers(4, 24), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_filter(self, n, seed):
        t = random_tournament(n, seed)
        assert baber(t).edges == _score_square_quads(t)

    def test_star_paley_23_matches_filter(self):
        t = star_paley(23)
        expected = _score_square_quads(t)
        assert baber(t).edges == expected and len(expected) == 3036

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_count_at_n64(self, seed):
        t = random_tournament(64, seed)
        assert baber(t).m == count_diamonds(t)


class TestHypFormatErrors:
    @pytest.mark.parametrize("text,line", [
        ("5 1\n0 1 2 5\n", 2),
        ("5 2\n0 1 2 3\n1 2 3 9\n", 3),
        ("5 1\n-1 0 1 2\n", 2),
        ("-5 0\n", 1),
        ("5 -1\n", 1),
        (f"{MAX_N + 1} 0\n", 1),
        ("5 2\n0 1 2 3\n0 1 2\n", 3),
        ("5 3\n0 1 2 3\n0 1 2 4\n0 1 2 3\n", 4),
        # a line after the m edges that is not blank: without the check, this
        # FF4 design plus a 29th edge passed verify
        (format_hyp(baber(star_paley(7))) + "0 1 2 3\n", 30),
    ])
    def test_rejected_with_line(self, text, line):
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert info.value.line == line
        assert str(info.value).endswith(f" (line {line})")

    @pytest.mark.parametrize("text,err", [
        # int() takes every one of these numbers
        ("1_1 1\n0 1 2 1_0\n", "bad header '1_1 1' (line 1)"),
        ("+6 1\n+0 1 2 \u0663\n", "bad header '+6 1' (line 1)"),
        ("6 +1\n0 1 2 3\n", "bad header '6 +1' (line 1)"),
        ("\u0666 1\n0 1 2 3\n", "bad header '\u0666 1' (line 1)"),
        ("6 1\n0 1 2 1_0\n", "bad index in '0 1 2 1_0' (line 2)"),
        ("6 1\n+0 1 2 3\n", "bad index in '+0 1 2 3' (line 2)"),
        ("6 1\n0 1 2 \u0663\n", "bad index in '0 1 2 \u0663' (line 2)"),
        ("6 2\n0 1 2 3\n0 1 2 \uff15\n", "bad index in '0 1 2 \uff15' (line 3)"),
        # more digits than int() converts: the error quotes the first 40
        # characters of the line
        (f"{'9' * 5000} 1\n0 1 2 3\n", f"bad header '{'9' * 40}'... (5002 characters) (line 1)"),
        (f"6 1\n0 1 2 {'9' * 5000}\n",
         f"bad index in '0 1 2 {'9' * 34}'... (5006 characters) (line 2)"),
    ])
    def test_numbers_are_ascii_digits(self, text, err):
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert str(info.value) == err
        assert len(err) < 100

    @pytest.mark.parametrize("tail", ["", "+\n", "_\n", "\u00e9\n", "\u00a0\n"])
    def test_both_index_readers_agree(self, tail):
        # a "+", "_" or non-ASCII character anywhere in the text selects
        # parse_int per index.  After the m edges only blank lines may
        # follow: the no-break space is one, the other tails are refused
        if tail.strip():
            with pytest.raises(InputError) as info:
                parse_hyp(f"6 1\n0 1 2 5\n{tail}")
            assert str(info.value) == f"text after the 1 edges: {tail[:-1]!r} (line 3)"
        else:
            assert parse_hyp(f"6 1\n0 1 2 5\n{tail}") == hypergraph(6, [(0, 1, 2, 5)])
        with pytest.raises(InputError) as info:
            parse_hyp(f"6 1\n-1 0 1 2\n{tail}")
        assert str(info.value) == "edge (-1, 0, 1, 2) out of range for n=6 (line 2)"

    def test_edges_at_the_range_limit(self):
        h = parse_hyp("5 1\n0 1 2 4\n")
        assert h.edges == ((0, 1, 2, 4),)
        assert parse_hyp("0 0\n") == hypergraph(0, [])

    def test_format_matches_reference_and_round_trips(self):
        h = baber(star_paley(43))
        reference = "\n".join([f"{h.n} {h.m}", *(" ".join(map(str, e)) for e in sorted(h.edges))])
        text = format_hyp(h)
        assert text == reference + "\n"
        assert parse_hyp(text) == h
