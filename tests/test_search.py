import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondkit.hypergraph import edge_count_bound
from diamondkit.search import (
    _COOLING,
    _T0,
    MAX_THREADS,
    _block_planes,
    _scan_plan,
    _SquareState,
    exhaustive_max_diamonds,
    local_search_max_diamonds,
)
from diamondkit.spectral import (
    NOT_EXTREMAL,
    diamond_upper_bound,
    matches_extremal_charpoly,
)
from diamondkit.tournament import (
    InputError,
    _diamond_lanes,
    count_diamonds,
    decode,
    encode,
    random_tournament,
)

from oracles import (
    _deltas,
    count_diamonds_naive,
    diamond_delta_on_flip,
    encodings_with_delta,
    flip_arc,
    from_arcs,
    is_skew_conference,
    seidel,
)


def _is_diamond4(t):
    """1 iff vertices 0, 1, 2, 3 are a diamond: _diamond_lanes on single bits."""
    r0, r1, r2 = t.rows[:3]
    return _diamond_lanes(r0 >> 1 & 1, r2 >> 3 & 1, r0 >> 2 & 1, r1 >> 3 & 1, r0 >> 3 & 1,
                          r1 >> 2 & 1, 1)


class TestExhaustive:
    def test_n4(self):
        res = exhaustive_max_diamonds(4)
        assert res.max_diamonds == 1
        assert res.max_diamonds == diamond_upper_bound(4)
        assert res.explored == 64
        assert count_diamonds_naive(res.witness) == 1

    def test_n4_every_witness_is_conference(self):
        for e in encodings_with_delta(4, 1):
            assert is_skew_conference(decode(4, e))

    def test_n5(self):
        res = exhaustive_max_diamonds(5)
        # the n = 1 (mod 4) bound (n C(n,3) - C(n,2) - 8 ceil((n-2)^2 / 32)) / 16
        assert res.max_diamonds == 2 == diamond_upper_bound(5)
        assert res.explored == 1024

    def test_n6_meets_the_ff4_bound(self):
        # a Baber hypergraph is FF4, and up to n = 6 the FF4 bound is the
        # exact maximum; at n = 2 (mod 4) it is the diamond bound, which a
        # two-block S^2 meets
        res = exhaustive_max_diamonds(6)
        assert edge_count_bound(6) == (6, "proven")
        assert res.max_diamonds == 6 == diamond_upper_bound(6)

    def test_n7(self):
        res = exhaustive_max_diamonds(7)
        assert res.max_diamonds == 14
        assert res.max_diamonds == diamond_upper_bound(7)
        assert res.explored == 1 << 21

    def test_n8(self):
        # the paper's exact bound at n = 8, from the full 2^28 scan (about 4 s)
        res = exhaustive_max_diamonds(8)
        assert res.max_diamonds == 28 == diamond_upper_bound(8)
        assert res.explored == 1 << 28
        assert encode(res.witness) == 600626

    def test_witness_is_canonical_least_encoding(self):
        res = exhaustive_max_diamonds(5)
        all_best = encodings_with_delta(5, 2)
        assert encode(res.witness) == all_best[0]

    def test_thread_invariance(self):
        r1 = exhaustive_max_diamonds(6, threads=1)
        r4 = exhaustive_max_diamonds(6, threads=4)
        assert (r1.max_diamonds, r1.witness, r1.explored) == \
            (r4.max_diamonds, r4.witness, r4.explored)

    def test_below_bound_everywhere(self):
        for n in (4, 5, 6, 7):
            res = exhaustive_max_diamonds(n)
            assert res.max_diamonds <= diamond_upper_bound(n)

    def test_attained_witnesses_are_extremal(self):
        for n in (4, 7):
            res = exhaustive_max_diamonds(n)
            assert res.max_diamonds == diamond_upper_bound(n)
            assert matches_extremal_charpoly(res.witness) != NOT_EXTREMAL

    def test_range_checks(self):
        with pytest.raises(ValueError):
            exhaustive_max_diamonds(2)
        with pytest.raises(ValueError):
            exhaustive_max_diamonds(9)


class TestFiveVertexLaw:
    # the law itself (0 or 2 diamonds on every 5 vertices) is checked in
    # test_tournament.py against the count_diamonds_naive oracle
    def test_transitive_encodings_have_zero(self):
        from itertools import permutations

        zeros = set(encodings_with_delta(5, 0))
        for order in permutations(range(5)):
            t = from_arcs(5, [(order[a], order[b]) for a in range(5) for b in range(a + 1, 5)])
            assert encode(t) in zeros

    def test_encodings_containing_fixed_diamond_have_two(self):
        twos = set(encodings_with_delta(5, 2))
        for e in range(1 << 10):
            t = decode(5, e)
            if _is_diamond4(t):
                assert e in twos


class TestLocalSearch:
    def test_finds_optimum_n8(self):
        res = local_search_max_diamonds(8, restarts=6, steps=4000, seed=0)
        assert res.max_diamonds == 28
        assert res.max_diamonds == diamond_upper_bound(8)

    def test_zero_steps_returns_seed_delta(self):
        res = local_search_max_diamonds(10, restarts=1, steps=0, seed=3)
        assert res.max_diamonds == count_diamonds_naive(res.witness)

    def test_deterministic_for_fixed_seed(self):
        a = local_search_max_diamonds(9, restarts=2, steps=300, seed=7)
        b = local_search_max_diamonds(9, restarts=2, steps=300, seed=7)
        assert a == b

    def test_params_are_the_run_and_its_schedule(self):
        # the annealer takes no threads: its report names what it ran on
        res = local_search_max_diamonds(6, restarts=2, steps=30, seed=4)
        assert res.params == {"restarts": 2, "steps": 30, "t0": _T0, "cooling": _COOLING,
                              "seed": 4}
        assert "threads" not in inspect.signature(local_search_max_diamonds).parameters

    def test_n12_does_not_exceed_bound(self):
        res = local_search_max_diamonds(12, restarts=2, steps=1500, seed=0)
        assert res.max_diamonds <= 165
        print(f"n=12 local search best {res.max_diamonds}, target 165")

    def test_witness_delta_consistent(self):
        res = local_search_max_diamonds(7, restarts=3, steps=500, seed=5)
        assert count_diamonds_naive(res.witness) == res.max_diamonds


def _reference_anneal(n, restarts, steps, seed):
    """The annealer scored by the oracles: a Tournament rebuilt per accepted
    flip, diamond_delta_on_flip per proposal and encode per accepted tie, on
    the schedule T_k = 2 * 0.999^k.  Draws the same RNG sequence as
    local_search_max_diamonds."""
    results = []
    for r in range(restarts):
        rng = random.Random(f"{seed}/{r}")
        t = random_tournament(n, rng.getrandbits(63))
        cur = count_diamonds_naive(t)
        best, best_enc = cur, encode(t)
        temp = 2.0
        for _ in range(steps):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            if not (t.rows[i] >> j) & 1:
                i, j = j, i
            delta = diamond_delta_on_flip(t, i, j)
            if delta >= 0 or rng.random() < math.exp(delta / temp):
                t = flip_arc(t, i, j)
                cur += delta
                if cur > best:
                    best, best_enc = cur, encode(t)
                elif cur == best:
                    best_enc = min(best_enc, encode(t))
            temp *= 0.999
        results.append((best, best_enc))
    best, enc = max(results, key=lambda res: (res[0], -res[1]))
    return best, decode(n, enc), restarts * (steps + 1)


class TestAnnealingOracle:
    @pytest.mark.parametrize("n, restarts, steps, seed", [
        (4, 3, 200, 0),
        (4, 2, 100, 7),
        (5, 3, 300, 1),
        (5, 2, 200, 11),
        (9, 2, 400, 2),
        (9, 3, 300, 23),
        (12, 2, 400, 3),
        (12, 2, 300, 4),
        (33, 2, 150, 5),
        (33, 1, 150, 6),
    ])
    def test_matches_reference_annealer(self, n, restarts, steps, seed):
        res = local_search_max_diamonds(n, restarts=restarts, steps=steps, seed=seed)
        assert (res.max_diamonds, res.witness, res.explored) == \
            _reference_anneal(n, restarts, steps, seed)

    def test_temperature_never_reaches_zero(self):
        # the acceptance test divides by the temperature with no guard: the
        # schedule's float decays to a fixed point, 738,434 steps in, above 0
        temp = _T0
        while temp * _COOLING != temp:
            temp *= _COOLING
        assert temp > 0

    @given(st.integers(3, 24), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_delta_on_every_arc(self, n, seed):
        # every ordered pair: delta(i, j) and delta(j, i) score the one arc
        # between i and j, in its current orientation
        t = random_tournament(n, seed)
        state = _SquareState(t)
        for i in range(n):
            for j in range(n):
                if i != j:
                    arc = (i, j) if (t.rows[i] >> j) & 1 else (j, i)
                    assert state.delta(i, j) == diamond_delta_on_flip(t, *arc)

    def test_state_after_flips_n128(self):
        n = 128
        t = random_tournament(n, 2024)
        start = count_diamonds(t)
        state = _SquareState(t)
        rng = random.Random(5)
        total = 0
        orientations = set()
        for _ in range(500):
            # i -> j or j -> i: the state takes the pair in either order
            i, j = rng.sample(range(n), 2)
            orientations.add(state.s.item(i, j))
            total += state.delta(i, j)
            state.flip(i, j)
            t = flip_arc(t, i, j) if (t.rows[i] >> j) & 1 else flip_arc(t, j, i)
        assert orientations == {1, -1}
        s = np.array(seidel(t))
        assert np.array_equal(state.s, s)
        assert np.array_equal(state.q, s @ s)
        assert count_diamonds(t) == start + total


class TestBlockScan:
    @staticmethod
    def _lane_counts(n, h):
        """The diamond count of each lane of block h, read from its planes."""
        lanes = 1 << _scan_plan(n)[0]
        counts = np.zeros(lanes, dtype=np.uint16)
        for k, plane in enumerate(_block_planes(n, h)):
            packed = np.frombuffer(plane.to_bytes(lanes // 8, "little"), dtype=np.uint8)
            bits = np.unpackbits(packed, bitorder="little")
            counts += bits.astype(np.uint16) << k
        return counts

    def test_n6_single_block_matches_oracle(self):
        assert _scan_plan(6)[0] == 15
        enc = np.arange(1 << 15, dtype=np.uint32)
        assert np.array_equal(self._lane_counts(6, 0), _deltas(6, enc))

    @pytest.mark.parametrize("n, h", [(7, 0), (7, 63), (8, 0), (8, 5461), (8, 8191)])
    def test_block_matches_oracle(self, n, h):
        low = _scan_plan(n)[0]
        assert low == 15
        enc = (np.uint32(h) << np.uint32(low)) | np.arange(1 << low, dtype=np.uint32)
        assert np.array_equal(self._lane_counts(n, h), _deltas(n, enc))

    def test_oracle_matches_is_diamond(self):
        # the score-square rule against the Pfaffian rule on single bits
        expected = [_is_diamond4(decode(4, e)) for e in range(64)]
        assert _deltas(4, np.arange(64, dtype=np.uint32)).tolist() == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 3])
    def test_encodings_with_delta_matches_oracle(self, n):
        enc = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
        d = _deltas(n, enc)
        for delta in range(-1, int(d.max()) + 2):
            got = encodings_with_delta(n, delta)
            assert all(type(e) is int for e in got)
            assert got == tuple(enc[d == delta].tolist())

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_n7_witness_encoding(self, threads):
        res = exhaustive_max_diamonds(7, threads=threads)
        assert encode(res.witness) == 4692
        assert encodings_with_delta(7, 14)[0] == 4692


class TestLocalSearchLimits:
    @pytest.mark.parametrize("kwargs", [
        {"n": 2}, {"n": 513}, {"n": 8, "steps": -1}, {"n": 8, "restarts": 0},
    ])
    def test_rejected_before_the_run(self, monkeypatch, kwargs):
        def never(*args):
            raise AssertionError("search started")
        monkeypatch.setattr("diamondkit.search.random_tournament", never)
        with pytest.raises(ValueError):
            local_search_max_diamonds(**kwargs)

    @pytest.mark.parametrize("kwargs, text", [
        ({"seed": None}, "seed None is not an integer"),
        ({"seed": 1.5}, "seed 1.5 is not an integer"),
        ({"seed": "abc"}, "seed 'abc' is not an integer"),
    ])
    def test_parameter_types_are_input_errors(self, monkeypatch, kwargs, text):
        def never(*args):
            raise AssertionError("search started")
        monkeypatch.setattr("diamondkit.search.random_tournament", never)
        with pytest.raises(InputError) as exc:
            local_search_max_diamonds(8, **kwargs)
        assert str(exc.value) == text

    def test_seed_is_read_as_an_integer(self):
        # a bool or numpy seed names the same run as the int it equals
        one = local_search_max_diamonds(8, restarts=2, steps=50, seed=1)
        for seed in (True, np.int64(1)):
            res = local_search_max_diamonds(8, restarts=2, steps=50, seed=seed)
            assert res == one and type(res.params["seed"]) is int

    def test_exhaustive_threads_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_max_diamonds(5, threads=0)


class TestThreadLimit:
    """The exhaustive scan refuses threads outside [1, MAX_THREADS] before
    any block is scanned; MAX_THREADS gives the 1-thread result."""

    @pytest.mark.parametrize("threads", [0, MAX_THREADS + 1, 10 ** 6])
    def test_rejected_before_any_work(self, monkeypatch, threads):
        def no_work(*args, **kwargs):
            raise AssertionError("search work started")
        monkeypatch.setattr("diamondkit.search._block_planes", no_work)
        with pytest.raises(ValueError, match="threads"):
            exhaustive_max_diamonds(8, threads=threads)

    def test_max_threads_accepted(self):
        wide, one = exhaustive_max_diamonds(6, threads=MAX_THREADS), exhaustive_max_diamonds(6)
        assert wide._replace(params=None) == one._replace(params=None)
        assert wide.params == {"threads": MAX_THREADS}
