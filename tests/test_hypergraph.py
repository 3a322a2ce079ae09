import copy
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondkit import hypergraph as hypergraph_module
from diamondkit.constructions import paley_tournament, star_paley
from diamondkit.hypergraph import (
    CONJECTURAL,
    MAX_EDGES,
    PROVEN,
    Hypergraph4,
    baber,
    edge_count_bound,
    format_hyp,
    parse_hyp,
    verify_ff4,
)
from diamondkit.spectral import diamond_upper_bound
from diamondkit.tournament import (
    MAX_N,
    InputError,
    count_diamonds,
    decode,
    random_tournament,
)

from oracles import (
    _DIAMOND_SQ,
    _subset_degree_squares,
    count_diamonds_naive,
    delete_vertices_count,
    design_block_counts,
    is_3_design,
    is_min_sum_squares_witness,
    min_sum_squares,
    transitive,
    triple_profile,
    verify_ff4_naive,
)


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
        h = Hypergraph4(5, [(0, 1, 2, 3), (0, 1, 2, 4)])
        assert verify_ff4(h) is None

    def test_single_edge_counterexample(self):
        h = Hypergraph4(5, [(0, 1, 2, 3)])
        assert verify_ff4(h) == ((0, 1, 2, 3, 4), 1)

    def test_least_counterexample_reported(self):
        h = Hypergraph4(6, [(1, 2, 3, 4)])
        five, count = verify_ff4(h)
        assert five == (0, 1, 2, 3, 4) and count == 1

    def test_small_n_holds_vacuously(self):
        # no 5-set below n = 5; at n = 4 the one possible edge passes the
        # edge test with four disjoint one-vertex links
        for n, edges in [(0, []), (3, []), (4, []), (4, [(0, 1, 2, 3)])]:
            assert verify_ff4(Hypergraph4(n, edges)) is None

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_baber_always_ff4(self, n):
        # 5-tournaments contain 0 or 2 diamonds, so every Baber hypergraph
        # passes; cross-checked exhaustively in the search tests
        for seed in range(70 if n == 5 else 65):
            assert verify_ff4(baber(random_tournament(n, seed))) is None


class TestTripleProfile:
    def test_empty(self):
        prof = triple_profile(Hypergraph4(6, []))
        assert len(prof) == 20 and set(prof.values()) == {0}

    def test_star_paley_7_uniform(self):
        prof = triple_profile(baber(star_paley(7)))
        assert len(prof) == 56
        assert set(prof.values()) == {2}

    def test_single_edge(self):
        prof = triple_profile(Hypergraph4(5, [(0, 1, 2, 3)]))
        assert sorted(prof.values()).count(1) == 4
        assert sorted(prof.values()).count(0) == 6

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_double_counting(self, seed):
        h = baber(random_tournament(8, seed))
        assert sum(triple_profile(h).values()) == 4 * h.m


def _ff4_design(h):
    """The verdict of `verify --checks design`, n divisible by 4: FF4, with
    as many edges as the bound, its equality case (edge_count_bound)."""
    return verify_ff4(h) is None and h.m == edge_count_bound(h.n)[0]


class TestDesign:
    def test_star_paley_7_is_design(self):
        assert _ff4_design(baber(star_paley(7)))

    def test_star_paley_3_is_design(self):
        assert _ff4_design(baber(star_paley(3)))

    def test_random_8_below_bound(self):
        t = random_tournament(8, seed=0)
        assert count_diamonds_naive(t) < 28
        assert not _ff4_design(baber(t))


class TestEdgeCountBound:
    @pytest.mark.parametrize("n,value,status", [
        (8, 28, PROVEN),
        (7, 14, PROVEN),
        (6, 6, PROVEN),
        (5, 2, PROVEN),
        (12, 165, PROVEN),
        (11, 110, PROVEN),
        (10, 70, CONJECTURAL),
        (9, 42, CONJECTURAL),
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
        assert h.m > 1 and _ascending(h.edges)
        assert _ascending(Hypergraph4(12, list(h.edges)).edges)
        assert _ascending(parse_hyp(format_hyp(h)).edges)
        # the constructor sorts nothing: the edges come ascending or not at all
        with pytest.raises(InputError) as info:
            Hypergraph4(12, reversed(h.edges))
        assert str(info.value) == (f"edge {h.edges[-2]} is not after {h.edges[-1]}: "
                                   "edges must be strictly ascending")

    @pytest.mark.parametrize("seed", range(4))
    def test_a_shuffled_or_repeated_list_is_refused(self, seed):
        h = _random_hypergraph(9, seed, 0.3)
        shuffled = list(h.edges)
        random.Random(seed).shuffle(shuffled)
        k = next(k for k in range(1, h.m) if shuffled[k] < shuffled[k - 1])
        repeated = sorted(h.edges + h.edges[seed:seed + 1])
        reversed_edge = [*h.edges[:seed], h.edges[seed][::-1], *h.edges[seed + 1:]]
        for edges, message in [
                (shuffled, f"edge {shuffled[k]} is not after {shuffled[k - 1]}"),
                (repeated, f"edge {h.edges[seed]} is not after {h.edges[seed]}")]:
            with pytest.raises(InputError) as info:
                Hypergraph4(9, edges)
            assert str(info.value) == f"{message}: edges must be strictly ascending"
        with pytest.raises(InputError, match="^edge indices must be strictly increasing$"):
            Hypergraph4(9, reversed_edge)
        assert Hypergraph4(9, sorted(set(shuffled + repeated))) == h

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

    def test_constructor_refuses_more_than_the_limit(self, monkeypatch):
        # read at call time and checked within the pass, at edge 101, so a
        # one-shot iterator is refused as a list is
        monkeypatch.setattr(hypergraph_module, "MAX_EDGES", 100)
        quads = list(combinations(range(12), 4))
        for edges in (quads, iter(quads)):
            with pytest.raises(InputError) as info:
                Hypergraph4(12, edges)
            assert str(info.value) == "101 edges or more, above the limit of 100"
            assert info.value.at == 100
        assert Hypergraph4(12, iter(quads[:100])).m == 100

    def test_constructor_reads_one_edge_past_the_limit(self, monkeypatch):
        # the refusal holds no more than the limit: of the 495 edges of a
        # generator it reads 101
        monkeypatch.setattr(hypergraph_module, "MAX_EDGES", 100)
        read = []

        def edges():
            for e in combinations(range(12), 4):
                read.append(e)
                yield e

        with pytest.raises(InputError) as info:
            Hypergraph4(12, edges())
        assert info.value.at == 100 and len(read) == 101

    def test_parse_refuses_m_above_the_limit(self):
        with pytest.raises(InputError) as info:
            parse_hyp(f"8 {MAX_EDGES + 1}\n")
        assert str(info.value) == ("need 0 <= n <= 512 and 0 <= m <= 4194304, "
                                   "got n=8, m=4194305 (line 1)")
        with pytest.raises(InputError) as info:
            parse_hyp(f"8 {MAX_EDGES}\n")
        assert str(info.value) == "expected 4194304 edge lines, got 0 (line 1)"


def _ff4_by_definition(n):
    """Every 4-graph on n vertices, as a bitmask g over the 4-sets in
    combinations order, with its least bad 5-set and that set's edge count,
    or None when every 5-set spans 0 or 2 edges: the definition, 5-set by
    5-set, with no oracle."""
    quads = list(combinations(range(n), 4))
    bit = {q: 1 << k for k, q in enumerate(quads)}
    fives = [(f, sum(bit[q] for q in combinations(f, 4))) for f in combinations(range(n), 5)]
    for g in range(1 << len(quads)):
        bad = next(((f, (g & mask).bit_count()) for f, mask in fives
                    if (g & mask).bit_count() not in (0, 2)), None)
        yield [q for k, q in enumerate(quads) if (g >> k) & 1], bad


class TestBruteForceSmallOrders:
    """Every 4-graph on at most 6 vertices against the FF4 definition."""

    def test_bound_is_the_ff4_maximum(self):
        # n = 6 holds 2^15 4-graphs; below n = 5 every one is FF4
        maxima = [max(len(edges) for edges, bad in _ff4_by_definition(n) if bad is None)
                  for n in range(7)]
        assert maxima == [edge_count_bound(n)[0] for n in range(7)] == [0, 0, 0, 0, 1, 2, 6]

    def test_ff4_counts(self):
        # n = 5: the empty graph and the C(5,2) pairs of edges
        for n, count in [(5, 11), (6, 208)]:
            assert sum(bad is None for _, bad in _ff4_by_definition(n)) == count

    def test_verify_ff4_is_the_definition(self):
        for n in range(6):
            for edges, bad in _ff4_by_definition(n):
                assert verify_ff4(Hypergraph4(n, edges)) == bad

    def test_three_vertex_bound(self):
        # the 8 labelled 3-vertex tournaments have no 4-set, so no diamond
        tournaments = {decode(3, e) for e in range(8)}
        assert len(tournaments) == 8
        assert max(map(count_diamonds, tournaments)) == diamond_upper_bound(3) == 0


def _random_hypergraph(n, seed, density):
    rng = random.Random(seed)
    return Hypergraph4(n, [q for q in combinations(range(n), 4) if rng.random() < density])


def _perturbed_baber(t, seed, flips):
    """Baber hypergraph of t with `flips` random 4-sets toggled in or out."""
    rng = random.Random(seed)
    edges = set(baber(t).edges)
    for _ in range(flips):
        edges ^= {tuple(sorted(rng.sample(range(t.n), 4)))}
    return Hypergraph4(t.n, sorted(edges))


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
        h_np = Hypergraph4(np.int64(70), np.array(shifted, dtype=np.int64))
        h_int = Hypergraph4(70, shifted)
        assert h_np == h_int and type(h_np.n) is int
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in h_np.edges)
        assert verify_ff4(h_np) == verify_ff4(h_int) == ((0, *shifted[0]), 1)

    @pytest.mark.parametrize("edge,message", [
        # the texts of parse_hyp: the constructor is the check of both
        ((0, 1, 1, 2), "edge indices must be strictly increasing"),
        ((1, 2, 3, 5), "edge (1, 2, 3, 5) out of range for n=5"),
        ((-1, 0, 2, 3), "edge (-1, 0, 2, 3) out of range for n=5"),
        ((0, 1, 2), "bad edge (0, 1, 2)"),
        # only integers: a float was truncated, and a string raised TypeError
        ((0, 1, 2, 3.7), "bad edge (0, 1, 2, 3.7): indices must be integers"),
        (("0", "1", "2", "3"), "bad edge ('0', '1', '2', '3'): indices must be integers"),
        ((0, 1, 2, None), "bad edge (0, 1, 2, None): indices must be integers"),
        # the indices are not sorted: each of these was once sorted first
        ((3, 1, 2, 5), "edge indices must be strictly increasing"),
        ((0, -1, 2, 3), "edge indices must be strictly increasing"),
        ((0, 1, 2, 3), "edge (0, 1, 2, 3) is not after (0, 1, 2, 3): "
                       "edges must be strictly ascending"),
        ((0, 1, 2, 3, 4), "bad edge (0, 1, 2, 3, 4)"),
        (4, "bad edge 4: indices must be integers"),
    ])
    def test_constructor_rejects_bad_edges(self, edge, message):
        with pytest.raises(InputError) as exc:
            Hypergraph4(5, [(0, 1, 2, 3), edge])
        assert str(exc.value) == message

    @pytest.mark.parametrize("second, message", [
        ((0, 1, 2, 9), "edge (0, 1, 2, 9) out of range for n=6"),
        ((0, 1, 2, 3), "edge (0, 1, 2, 3) is not after (0, 1, 2, 3): "
                       "edges must be strictly ascending"),
    ])
    def test_one_shot_edges_name_the_real_defect(self, second, message):
        # the check reads each edge once, so an iterator edge is not lost
        with pytest.raises(InputError) as exc:
            Hypergraph4(6, [iter((0, 1, 2, 3)), second])
        assert str(exc.value) == message and exc.value.at == 1

    def test_int_tuples_are_kept_and_other_edges_copied(self):
        kept = (0, 1, 2, 3)
        as_list = [0, 1, 2, 4]
        as_numpy = tuple(np.array([0, 1, 2, 5], dtype=np.int64))
        h = Hypergraph4(6, [kept, as_list, as_numpy])
        assert h.edges[0] is kept
        assert h.edges[1:] == ((0, 1, 2, 4), (0, 1, 2, 5))
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in h.edges[1:])

    @pytest.mark.parametrize("n, shown", [
        (-4, "-4"), (MAX_N + 1, str(MAX_N + 1)),
        (int("9" * 4000), f"{'9' * 40!r}... (4000 characters)"),
    ], ids=["-4", str(MAX_N + 1), "4000-digits"])
    def test_constructor_rejects_bad_n(self, n, shown):
        # a negative n would reach 1 << n in verify_ff4, a ValueError,
        # and a long n is clipped to 40 digits
        with pytest.raises(InputError) as exc:
            Hypergraph4(n, [])
        assert str(exc.value) == f"n={shown} out of range [0, {MAX_N}]"


def _count_checks(monkeypatch):
    """The argument tuples of every Hypergraph4.__new__ call from now on."""
    calls = []
    new = Hypergraph4.__new__
    monkeypatch.setattr(Hypergraph4, "__new__",
                        staticmethod(lambda cls, *a: calls.append(a) or new(cls, *a)))
    return calls


class TestRecord:
    """Hypergraph4(n, edges) is the one check: _replace, _make, copy and
    pickle build through it."""

    @pytest.mark.parametrize("build", [
        lambda h: h._replace(edges=list(h.edges)),
        lambda h: Hypergraph4._make([h.n, h.edges]),
        copy.copy,
        copy.deepcopy,
    ], ids=["_replace", "_make", "copy", "deepcopy"])
    def test_builders_run_the_check_once(self, monkeypatch, build):
        h = baber(star_paley(7))
        calls = _count_checks(monkeypatch)
        u = build(h)
        assert u == h and type(u) is Hypergraph4 and type(u.edges) is tuple
        assert len(calls) == 1

    def test_bad_replace_raises(self):
        h = baber(star_paley(7))
        with pytest.raises(InputError, match="^edge indices must be strictly increasing$"):
            h._replace(edges=((9, 9, 9, 9),))
        with pytest.raises(InputError, match=r"^edge \(0, 1, 2, 3\) is not after \(0, 1, 2, 3\)"):
            h._replace(edges=((0, 1, 2, 3), (0, 1, 2, 3)))
        with pytest.raises(InputError, match=r"^edge \(0, 1, 2, 4\) out of range for n=4$"):
            h._replace(n=4)
        with pytest.raises(InputError, match=r"^edge indices must be strictly increasing$"):
            Hypergraph4._make([8, [(3, 2, 1, 0)]])

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_checked(self, monkeypatch, protocol):
        h = baber(star_paley(7))
        data = pickle.dumps(h, protocol)
        calls = _count_checks(monkeypatch)
        u = pickle.loads(data)
        assert u == h and hash(u) == hash(h) and type(u) is Hypergraph4
        assert len(calls) == 1

    def test_verify_ff4_caches_nothing(self):
        # the links are verify_ff4's own: a hypergraph is its checked edges
        h = baber(star_paley(7))
        assert verify_ff4(h) is None and vars(h) == {}


def _design_by_definition(h):
    ff4 = h.n < 5 or verify_ff4_naive(h) is None
    return ff4 and all(c == h.n // 4 for c in triple_profile(h).values())


class TestDesignOracle:
    """The design verdict (FF4 and m at the bound) against the triple_profile
    definition, and the identity that makes them one."""

    @given(st.sampled_from([3, 7, 11]), st.integers(0, 10**6), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_star_paley(self, q, seed, flips):
        h = _perturbed_baber(star_paley(q), seed, flips)
        assert _ff4_design(h) == _design_by_definition(h)

    @given(st.sampled_from([4, 8, 12]), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_baber(self, n, seed):
        h = baber(random_tournament(n, seed))
        assert _ff4_design(h) == _design_by_definition(h)

    def test_empty_and_complete(self):
        # at n = 0 the empty hypergraph is the design: no triple, bound 0
        assert _ff4_design(Hypergraph4(0, [])) == _design_by_definition(Hypergraph4(0, [])) is True
        for n in (4, 8):
            empty = Hypergraph4(n, [])
            complete = Hypergraph4(n, combinations(range(n), 4))
            assert _ff4_design(empty) == _design_by_definition(empty) is False
            assert _ff4_design(complete) == _design_by_definition(complete)

    @given(st.integers(3, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_ff4_sum_of_squares_is_n_m(self, n, seed):
        # each edge's four links are disjoint and cover the n vertices, so
        # sum_T d_T^2 = n m; with sum_T d_T = 4 m, Cauchy-Schwarz bounds m
        # by n C(n,3) / 16 at every n, the bound at n = 0 mod 4
        h = baber(random_tournament(n, seed))
        d = triple_profile(h).values()
        assert sum(x * x for x in d) == n * h.m and sum(d) == 4 * h.m
        assert 16 * h.m ** 2 <= comb(n, 3) * n * h.m
        if n % 4 == 0:
            assert edge_count_bound(n)[0] == Fraction(n * comb(n, 3), 16)

    @pytest.mark.parametrize("q", [7, 11, 19])
    def test_odd_extremal_meets_the_bound_and_is_no_design(self, q):
        # why `verify --checks design` refuses n = 3 mod 4: Baber of T(q) is
        # FF4 with m at its bound, yet its triples lie in unequal numbers of edges
        h = baber(paley_tournament(q))
        assert verify_ff4(h) is None and h.m == edge_count_bound(q)[0]
        assert len(set(triple_profile(h).values())) > 1

    def test_3_design_lambda_zero(self):
        assert is_3_design(Hypergraph4(8, []), 0)
        assert not is_3_design(Hypergraph4(8, [(0, 1, 2, 3)]), 0)
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
    @pytest.mark.parametrize("text,line,err", [
        ("5 1\n0 1 2 5\n", 2, "edge (0, 1, 2, 5) out of range for n=5 (line 2)"),
        ("5 2\n0 1 2 3\n1 2 3 9\n", 3, "edge (1, 2, 3, 9) out of range for n=5 (line 3)"),
        ("5 1\n-1 0 1 2\n", 2, "edge (-1, 0, 1, 2) out of range for n=5 (line 2)"),
        ("-5 0\n", 1, "need 0 <= n <= 512 and 0 <= m <= 4194304, got n=-5, m=0 (line 1)"),
        ("5 -1\n", 1, "need 0 <= n <= 512 and 0 <= m <= 4194304, got n=5, m=-1 (line 1)"),
        (f"{MAX_N + 1} 0\n", 1,
         "need 0 <= n <= 512 and 0 <= m <= 4194304, got n=513, m=0 (line 1)"),
        ("5 2\n0 1 2 3\n0 1 2\n", 3, "an edge needs 4 indices, got 3 (line 3)"),
        ("5 3\n0 1 2 3\n0 1 2 4\n0 1 2 3\n", 4,
         "edge (0, 1, 2, 3) is not after (0, 1, 2, 4): edges must be strictly ascending "
         "(line 4)"),
        # a line after the m edges that is not blank: without the check, this
        # FF4 design plus a 29th edge passed verify
        (format_hyp(baber(star_paley(7))) + "0 1 2 3\n", 30,
         "text after the 28 edges: '0 1 2 3' (line 30)"),
        ("", 1, "empty input (line 1)"),
    ])
    def test_rejected_with_line(self, text, line, err):
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert info.value.line == line
        assert str(info.value) == err

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
        # more digits than int() converts: the error quotes the first and
        # the last 20 characters of the line
        (f"{'9' * 5000} 1\n0 1 2 3\n",
         f"bad header '{'9' * 20}'...'{'9' * 18} 1' (5002 characters) (line 1)"),
        (f"6 1\n0 1 2 {'9' * 5000}\n",
         f"bad index in '0 1 2 {'9' * 14}'...'{'9' * 20}' (5006 characters) (line 2)"),
    ])
    def test_numbers_are_ascii_digits(self, text, err):
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert str(info.value) == err
        assert len(err) < 100

    @pytest.mark.parametrize("text, err", [
        # a line ends at "\n": a form feed or a lone "\r" ends none
        ("5 1\x0c0 1 2 3\n", r"header must be 'n m', got '5 1\x0c0 1 2 3' (line 1)"),
        ("5 1\r0 1 2 3\r", r"header must be 'n m', got '5 1\r0 1 2 3\r' (line 1)"),
        ("5 2\n0 1 2 3\x1e0 1 2 4\n", "expected 2 edge lines, got 1 (line 2)"),
    ], ids=["form-feed", "lone-cr", "record-separator"])
    def test_a_line_ends_at_newline_only(self, text, err):
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert str(info.value) == err

    def test_a_vertical_tab_separates_indices(self):
        # inside a line "\x0b" is whitespace between tokens
        assert parse_hyp("5 1\n0 1 2\x0b3\n") == Hypergraph4(5, [(0, 1, 2, 3)])

    @pytest.mark.parametrize("text", [
        "5 1\n0 1 2 3\n", "5 1\n0 1 2 5\n", "5 2\n0 1 2 3\n", "5 1\n0 1 2 3\n0 1 2 4\n",
        "5 1\n0 1 x 3\n", "5 1\n0 1 2 3\n\n \n",
    ])
    def test_crlf_reads_as_lf(self, text):
        def outcome(text):
            try:
                return parse_hyp(text)
            except InputError as exc:
                return str(exc), exc.line
        assert outcome(text.replace("\n", "\r\n")) == outcome(text)

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
            assert parse_hyp(f"6 1\n0 1 2 5\n{tail}") == Hypergraph4(6, [(0, 1, 2, 5)])
        with pytest.raises(InputError) as info:
            parse_hyp(f"6 1\n-1 0 1 2\n{tail}")
        assert str(info.value) == "edge (-1, 0, 1, 2) out of range for n=6 (line 2)"

    def test_edges_at_the_range_limit(self):
        h = parse_hyp("5 1\n0 1 2 4\n")
        assert h.edges == ((0, 1, 2, 4),)
        assert parse_hyp("0 0\n") == Hypergraph4(0, [])

    def test_format_matches_reference_and_round_trips(self):
        h = baber(star_paley(43))
        reference = "\n".join([f"{h.n} {h.m}", *(" ".join(map(str, e)) for e in sorted(h.edges))])
        text = format_hyp(h)
        assert text == reference + "\n"
        assert parse_hyp(text) == h


_NUMBER = re.compile(r"-?[0-9]+")


def _parse_hyp_reference(text):
    """parse_hyp as a per-line scan: (n, edges), or the (message, line) of
    its InputError.  The header and the line count, then the tokens of every
    edge line, then the edges' order and range, line by line, then the text
    after them.  A line ends at "\n" only, less a "\r" before it.  The
    lines here are short, so no quote is clipped."""
    lines = re.split(r"\r?\n", text)
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return "empty input", 1
    head = lines[0].split()
    if len(head) != 2:
        return f"header must be 'n m', got {lines[0]!r}", 1
    if not all(_NUMBER.fullmatch(x) for x in head):
        return f"bad header {lines[0]!r}", 1
    n, m = map(int, head)
    if not (0 <= n <= MAX_N and 0 <= m <= MAX_EDGES):
        return f"need 0 <= n <= {MAX_N} and 0 <= m <= {MAX_EDGES}, got n={n}, m={m}", 1
    if len(lines) < m + 1:
        return f"expected {m} edge lines, got {len(lines) - 1}", len(lines)
    for line in range(2, m + 2):
        parts = lines[line - 1].split()
        if len(parts) != 4:
            return f"an edge needs 4 indices, got {len(parts)}", line
        if not all(_NUMBER.fullmatch(x) for x in parts):
            return f"bad index in {lines[line - 1]!r}", line
    edges = [tuple(map(int, lines[line - 1].split())) for line in range(2, m + 2)]
    for line, e in enumerate(edges, start=2):
        if not e[0] < e[1] < e[2] < e[3]:
            return "edge indices must be strictly increasing", line
        if e[0] < 0 or e[3] >= n:
            return f"edge {e} out of range for n={n}", line
        if line > 2 and e <= edges[line - 3]:
            return (f"edge {e} is not after {edges[line - 3]}: "
                    "edges must be strictly ascending"), line
    for line in range(m + 2, len(lines) + 1):
        if lines[line - 1].strip():
            return f"text after the {m} edges: {lines[line - 1]!r}", line
    return n, tuple(edges)


_DESIGN7 = format_hyp(baber(star_paley(7)))


class TestHypErrorPlacement:
    """parse_hyp reports the error of the per-line reference, at its line."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_single_corruptions_match_the_reference(self, data):
        text = _DESIGN7
        if data.draw(st.booleans(), label="character"):
            # replace, insert or delete one character
            i = data.draw(st.integers(0, len(text) - 1), label="at")
            c = data.draw(st.sampled_from(["", *"0123456789 -+_x\t\n\r\x0c"]), label="by")
            keep = data.draw(st.booleans(), label="insert")
            text = text[:i] + c + text[i if keep else i + 1:]
        else:
            # delete, repeat or replace one line, or swap two
            lines = text.splitlines(keepends=True)
            i, j = (data.draw(st.integers(0, len(lines) - 1), label=x) for x in "ij")
            other = data.draw(st.sampled_from(
                ["\n", "0 1 2\n", "0 1 2 3 4\n", "7 6 5 4\n", "0 1 2 8\n", "-1 0 1 2\n",
                 "0 0 1 2\n", "4 5 6 7\n", "0 1 2 3\n", "x\n", "8 28\n", " \t \n"]), label="line")
            op = data.draw(st.sampled_from(["delete", "repeat", "replace", "swap"]), label="op")
            if op == "delete":
                del lines[i]
            elif op == "repeat":
                lines.insert(i, lines[i])
            elif op == "replace":
                lines[i] = other
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
        expected = _parse_hyp_reference(text)
        if isinstance(expected[0], str):
            with pytest.raises(InputError) as info:
                parse_hyp(text)
            assert (info.value.args[0], info.value.line) == expected
        else:
            h = parse_hyp(text)
            assert (h.n, h.edges) == expected

    def test_the_reference_reads_the_design(self):
        h = parse_hyp(_DESIGN7)
        assert _parse_hyp_reference(_DESIGN7) == (h.n, h.edges) and h.m == 28

    @pytest.mark.parametrize("text, err", [
        (_DESIGN7[:-2] + "9\n", "edge (3, 5, 6, 9) out of range for n=8 (line 29)"),
        ("6 3\n0 1 2 3\n0 1 2 4\n0 1 2 4\n",
         "edge (0, 1, 2, 4) is not after (0, 1, 2, 4): edges must be strictly ascending (line 4)"),
    ])
    def test_a_bad_file_is_checked_once(self, monkeypatch, text, err):
        # the line comes from the one pass of the edge check, not a second scan
        calls = _count_checks(monkeypatch)
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert str(info.value) == err and len(calls) == 1

    def test_parse_holds_each_edge_once(self):
        # the token tuples are the edges: a second copy of T*(43)'s 36,421
        # edges would take the peak from about 2.1 to 3 times the result
        text = format_hyp(baber(star_paley(43)))
        tracemalloc.start()
        try:
            h = parse_hyp(text)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.m == 36421 and peak < 2.5 * size

    def test_a_bad_token_is_reported_before_an_edge_out_of_range(self):
        # line 2 is out of range for n=5 and line 3 has a bad token: the
        # tokens of every line are read before Hypergraph4 checks the edges
        text = "5 2\n0 1 2 9\n0 1 x 3\n"
        with pytest.raises(InputError) as info:
            parse_hyp(text)
        assert str(info.value) == "bad index in '0 1 x 3' (line 3)"
        assert (info.value.args[0], info.value.line) == _parse_hyp_reference(text)
