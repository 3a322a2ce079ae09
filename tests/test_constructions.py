import numpy as np
import pytest

from diamondkit.constructions import (
    ExtensionFailed,
    delete_vertices,
    extend_to_conference,
    paley_tournament,
    star_paley,
)
from diamondkit.spectral import (
    is_skew_conference,
    matches_extremal_charpoly,
    seidel_from_tournament,
)
from diamondkit.tournament import (
    count_diamonds_naive,
    from_arcs,
    is_diamond,
    validate,
)
from itertools import combinations


def test_paley_3_is_the_cycle():
    t = paley_tournament(3)
    assert t.rows == (0b010, 0b100, 0b001)


def test_paley_7_doubly_regular():
    t = paley_tournament(7)
    assert validate(t) is None
    assert all(t.out_degree(v) == 3 for v in range(7))


def test_paley_rejects_q_1_mod_4():
    with pytest.raises(ValueError):
        paley_tournament(5)
    with pytest.raises(ValueError):
        paley_tournament(13)


def test_paley_rejects_non_prime_power():
    with pytest.raises(ValueError):
        paley_tournament(15)


def test_star_paley_3_is_the_diamond():
    t = star_paley(3)
    assert t.n == 4
    assert count_diamonds_naive(t) == 1
    assert all(t.dom(3, v) for v in range(3))


def test_star_paley_7_conference():
    t = star_paley(7)
    assert is_skew_conference(seidel_from_tournament(t))
    # restriction to the first 7 vertices is the Paley tournament
    assert delete_vertices(t, {7}) == paley_tournament(7)


def test_star_paley_11_delta():
    t = star_paley(11)
    assert t.n == 12
    assert count_diamonds_naive(t) == 165


@pytest.mark.parametrize("q", [3, 7, 11, 19])
def test_star_paley_attains_even_bound(q):
    t = star_paley(q)
    n = q + 1
    assert is_skew_conference(seidel_from_tournament(t))
    assert count_diamonds_naive(t) == n * n * (n - 1) * (n - 2) // 96


def test_paley_vertex_symmetric_diamond_counts():
    t = paley_tournament(11)
    assert all(t.out_degree(v) == 5 for v in range(11))
    per_vertex = [
        sum(1 for q in combinations(range(11), 4) if v in q and is_diamond(t, q))
        for v in range(11)
    ]
    assert len(set(per_vertex)) == 1


class TestDeleteVertices:
    def test_drop_star_vertex(self):
        sub = delete_vertices(star_paley(7), {7})
        assert count_diamonds_naive(sub) == 14

    def test_drop_nothing_is_identity(self):
        t = star_paley(7)
        assert delete_vertices(t, set()) == t

    def test_drop_two(self):
        sub = delete_vertices(star_paley(7), {0, 7})
        assert sub.n == 6
        assert count_diamonds_naive(sub) == 6

    def test_relabels_densely(self):
        t = from_arcs(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                          (2, 3), (2, 4), (3, 4)])
        sub = delete_vertices(t, {1})
        assert sub.n == 4
        assert validate(sub) is None
        assert all(sub.dom(0, v) for v in range(1, 4))

    def test_rejects_too_many(self):
        with pytest.raises(ValueError):
            delete_vertices(star_paley(3), {0})
        with pytest.raises(ValueError):
            delete_vertices(star_paley(7), {9})


class TestExtendToConference:
    def test_paley_7(self):
        s = seidel_from_tournament(paley_tournament(7))
        ext = extend_to_conference(s)
        assert ext.n == 8
        assert is_skew_conference(ext)

    def test_three_cycle(self):
        s = seidel_from_tournament(paley_tournament(3))
        ext = extend_to_conference(s)
        assert ext.n == 4
        assert is_skew_conference(ext)
        # kernel of the cyclic orientation is spanned by the all-ones vector
        assert tuple(row[-1] for row in ext.entries[:-1]) == (1, 1, 1)

    def test_rejects_non_extremal(self):
        transitive7 = from_arcs(
            7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        s = seidel_from_tournament(transitive7)
        assert matches_extremal_charpoly(s) == "no"
        with pytest.raises(ValueError):
            extend_to_conference(s)

    def test_rejects_even_order(self):
        s = seidel_from_tournament(star_paley(7))
        with pytest.raises(ValueError):
            extend_to_conference(s)

    @pytest.mark.parametrize("q", [3, 7, 11, 19])
    def test_round_trip_from_deleted_star(self, q):
        # deleting the star vertex and re-extending recovers a conference
        # matrix of order q+1 (not necessarily the same one entrywise);
        # q=3 uses the Paley tournament directly since deletion requires
        # at least 4 surviving vertices
        base = paley_tournament(q) if q == 3 else delete_vertices(star_paley(q), {q})
        s = seidel_from_tournament(base)
        ext = extend_to_conference(s)
        assert ext.n == q + 1
        assert is_skew_conference(ext)


class TestExtendKernelColumn:
    @pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 31, 43, 47])
    def test_paley(self, q):
        s = seidel_from_tournament(paley_tournament(q))
        ext = extend_to_conference(s)
        u = [row[-1] for row in ext.entries[:-1]]
        assert set(u) <= {-1, 1} and u[0] == 1
        assert not (s.to_numpy() @ np.array(u, dtype=np.int64)).any()
        assert ext.n == q + 1 and is_skew_conference(ext)
        # the border is [[S, u], [-u^T, 0]] around the unchanged S
        assert all(row[:-1] == s.entries[i] for i, row in enumerate(ext.entries[:-1]))
        assert ext.entries[-1] == (*(-x for x in u), 0)

    @pytest.mark.parametrize("q", [11, 19])
    def test_deleted_non_star_vertex(self, q):
        # deleting an ordinary vertex of T*(q) also leaves an odd-extremal matrix
        s = seidel_from_tournament(delete_vertices(star_paley(q), {0}))
        ext = extend_to_conference(s)
        u = np.array([row[-1] for row in ext.entries[:-1]], dtype=np.int64)
        assert u[0] == 1 and not (s.to_numpy() @ u).any()
        assert is_skew_conference(ext)
