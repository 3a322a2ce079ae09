import hashlib
import random

import numpy as np
import pytest

from diamondkit.constructions import (
    _digits,
    _factor_prime_power,
    _modulus,
    _mul_mod,
    _translates,
    delete_vertices,
    extend_to_conference,
    paley_tournament,
    star_paley,
)
from diamondkit.hypergraph import baber, verify_ff4
from diamondkit.spectral import (
    EVEN_EXTREMAL,
    count_diamonds_spectral,
    matches_extremal_charpoly,
)
from diamondkit.tournament import (
    MAX_N,
    InputError,
    count_diamonds,
    format_trn,
    random_tournament,
)

from oracles import (
    count_diamonds_naive,
    from_arcs,
    is_3_design,
    is_skew_conference,
    seidel,
)


def test_paley_3_is_the_cycle():
    t = paley_tournament(3)
    assert t.rows == (0b010, 0b100, 0b001)


def test_paley_7_doubly_regular():
    t = paley_tournament(7)
    assert all(row.bit_count() == 3 for row in t.rows)


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
    assert t.rows[3] == 0b0111


def test_star_paley_7_conference():
    t = star_paley(7)
    assert is_skew_conference(t)
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
    assert is_skew_conference(t)
    assert count_diamonds_naive(t) == n * n * (n - 1) * (n - 2) // 96


def test_paley_vertex_symmetric_diamond_counts():
    t = paley_tournament(11)
    assert all(row.bit_count() == 5 for row in t.rows)
    # the Baber hypergraph's edges are the diamonds
    edges = baber(t).edges
    per_vertex = [sum(1 for e in edges if v in e) for v in range(11)]
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
        assert sub.rows[0] == 0b1110

    def test_rejects_too_many(self):
        # three vertices is the least order left: T*(3) keeps 3, not 2
        assert delete_vertices(star_paley(3), {0}).n == 3
        with pytest.raises(InputError, match=r"^cannot drop 2 of 4 vertices \(need >= 3 left\)$"):
            delete_vertices(star_paley(3), {0, 1})
        with pytest.raises(ValueError):
            delete_vertices(star_paley(7), {9})

    def test_reads_indices_through_operator_index(self):
        # numpy indices at n = 100 give the Python-int answers, where a numpy
        # shift count would coerce a 100-bit row to int64 and overflow
        t = random_tournament(100, seed=1)
        assert delete_vertices(t, np.array([70, 5])) == delete_vertices(t, [70, 5])
        assert delete_vertices(t, [np.int64(99)]) == delete_vertices(t, [99])
        with pytest.raises(InputError, match="is not an integer"):
            delete_vertices(t, [1.0])

    def test_out_of_range_names_the_vertex_and_n(self):
        # the one vertex-range check of the package; a long vertex is clipped
        t = star_paley(7)
        for v in (8, -1, np.int64(9)):
            with pytest.raises(InputError, match=f"^vertex {v} out of range for n=8$"):
                delete_vertices(t, [0, v])
        with pytest.raises(InputError) as info:
            delete_vertices(t, [10 ** 99])
        assert str(info.value) == \
            f"vertex {'1' + '0' * 39!r}... (100 characters) out of range for n=8"


class TestExtendToConference:
    def test_paley_7(self):
        t = paley_tournament(7)
        ext = extend_to_conference(t)
        assert ext.n == 8
        assert is_skew_conference(ext)

    def test_three_cycle(self):
        t = paley_tournament(3)
        ext = extend_to_conference(t)
        assert ext.n == 4
        assert is_skew_conference(ext)
        # kernel of the cyclic orientation is spanned by the all-ones vector
        assert [row[-1] for row in seidel(ext)[:-1]] == [1, 1, 1]

    def test_rejects_non_extremal(self):
        t = from_arcs(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        assert matches_extremal_charpoly(t) == "no"
        with pytest.raises(ValueError):
            extend_to_conference(t)

    def test_rejects_even_order(self):
        t = star_paley(7)
        with pytest.raises(ValueError):
            extend_to_conference(t)

    @pytest.mark.parametrize("q", [3, 7, 11, 19])
    def test_round_trip_from_deleted_star(self, q):
        # deleting the star vertex and re-extending recovers a conference
        # matrix of order q+1 (not necessarily the same one entrywise)
        t = delete_vertices(star_paley(q), {q})
        ext = extend_to_conference(t)
        assert ext.n == q + 1
        assert is_skew_conference(ext)


class TestExtendKernelColumn:
    @pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 31, 43, 47])
    def test_paley(self, q):
        t = paley_tournament(q)
        ext = extend_to_conference(t)
        e = np.array(seidel(ext))
        u = e[:-1, -1]
        assert set(u.tolist()) <= {-1, 1} and u[0] == 1
        assert not (np.array(seidel(t)) @ u).any()
        assert ext.n == q + 1 and is_skew_conference(ext)
        # the border is [[S, u], [-u^T, 0]] around the unchanged S
        assert np.array_equal(e[:-1, :-1], np.array(seidel(t)))
        assert e[-1].tolist() == [*(-u).tolist(), 0]

    @pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31, 43])
    def test_output_is_a_usable_tournament(self, q):
        # the extension is an extremal tournament: both counts, the
        # classifier and the Baber design all accept it
        ext = extend_to_conference(paley_tournament(q))
        n = q + 1
        assert count_diamonds(ext) == count_diamonds_spectral(ext) == n * n * q * (q - 1) // 96
        assert matches_extremal_charpoly(ext) == EVEN_EXTREMAL
        h = baber(ext)
        assert verify_ff4(h) is None and is_3_design(h, n // 4)

    @pytest.mark.parametrize("q", [11, 19])
    def test_deleted_non_star_vertex(self, q):
        # deleting an ordinary vertex of T*(q) also leaves an odd-extremal matrix
        t = delete_vertices(star_paley(q), {0})
        ext = extend_to_conference(t)
        u = np.array(seidel(ext))[:-1, -1]
        assert u[0] == 1 and not (np.array(seidel(t)) @ u).any()
        assert is_skew_conference(ext)


# sha256 of format_trn(paley_tournament(q)) for every prime power q = 3 (mod 4)
# below 512, frozen from the construction that built GF(q) with a primitive
# element and exp/log tables and compared j - i to the even powers
PALEY_SHA256 = {
    3: "5e7bb5e1eabee00c787c2c441ffde4a2ee0f02bcadd3ffa48c3502455e2d344a",
    7: "c4c5a75e33d70abcdda96b79760884f3106e9a6a9c68c9caeab438c27cae3ce2",
    11: "b9f76268ad69bd9a61a970ae8729f90a6781d43523b03057a93dbae82c41e5d8",
    19: "90314155c21c354257c6409c119492805c8461f2609176b9cc4dc2530b662152",
    23: "b57763debf7bbea16a81603160a6d64c10aa69c5fc681792534a5b7221fc4622",
    27: "0c7c367d179ce2a26a9a62574960053473f59dd14ae9c096029a42afbbc1fa72",
    31: "5e7095dc754074531bce056d4fca01c7795548e2c30b01799df64ff14372cd19",
    43: "701e3fc88536d21cad02e7bed5a4616bcc5e4a1b0434ebaab7cd9558977e5a7d",
    47: "7c5e49719affac9f9d8e3d1876567579607747003d1f1b9b560dba52e7c1d4fb",
    59: "8394e1cc1ce13b9aa269f7d3ee89cdebe4fe39771b87a84f6196d3d352063733",
    67: "2d6a3dc65340be576cb49f42b99d2d2807f383223f61606392c3506208412d63",
    71: "537470fef9687b0c67479a246cd78ab1041fc5c0eb61f0437833f5832d6f6e10",
    79: "69e6de4590e9d1f5b98af247b8c680c98de7a434623aecf2b0b3ebc8570c5736",
    83: "e5504ceac7fa0d3cd150880b9a8f19b17e2d3aaccdc577280a22a84f782c0e1c",
    103: "c79537d57374fda09935cc22d1fef233ecc5ff614c977a6a8d136b0662ca5135",
    107: "9e29afea6aa1da49df00198ca40ac13c3c36bf2fbabe39d00feb71c05d93d429",
    127: "861d536973404251c52b6e707604ad47945cdcfbe06dc5c2764b479ccadef918",
    131: "fa0d83811fff8bebfa292e2fcb4537f1baa48303a23934d36c3a9d1cae1ac315",
    139: "aad488b6969d7b5efe5ad4e709da7770cef5b7f6efd531ace497a231ca2df9ea",
    151: "713fb031e06589492a7cc41151ffa4015a122efe6c24ede7c3ff4c3c3873f05e",
    163: "057a9f89a5ec93302dbcbd4d517fa25377a0590419af8a09aecf90e8260c989f",
    167: "f00d34513413a3995668469e6de8d5ab4337f0147ad89339154cde18e4ce5007",
    179: "e46782cb0bb3b6f219dae30154924db3e521450aa1bfda5a7348ffba8b022183",
    191: "e9f0743f66d3e6c1238d6eebacc3202755b4891428d5dc65bf75fd49d2692d75",
    199: "cd5ba7a8ca0bcc7794fb2ad0adff898ccfd6b34d5f9388f2fce9abd8a5dacc7d",
    211: "ead5a8351b64c8881de9886a85a6f25fa98ca2fca6949050d2a3276fbb559fcf",
    223: "ef916a23cf304edb3aed0e08d4ec67d54027ce49c031e1c7b35ba266aaa8d491",
    227: "603a83f1dc60c3fc8784930374bf03f9a0fb6c2efb1c8677eded06cde10ed5f2",
    239: "8c3b2056c2efd98a73bd6e62dce19167ad3b7f891ceb839c29a71fdb1c0cad33",
    243: "656161a0a5bb77fed657590ccd79dbdc22a7f6cf5fc1fcee7acb8603fbe1cee1",
    251: "cad16a638d50984d6ef7b9b0531e33c207dfa2fe4f974c541bbd706589855387",
    263: "061b9f79c07d050c5827c28edb710557e7edff8e55db94a9da66d81736600005",
    271: "ceeccb0ea1798e02640079b3f4f189683d82bb95437d0311a0f72609267c3397",
    283: "6f4bec2aae3012118afde86566d3d704ac8ac094040f4f4c13ff56dae10ce604",
    307: "9cb7636d2096ac119abd18ccd1ad8af9ab65bb8b2fe3e6f8740703aecee84182",
    311: "9a0cc50da25484429e8ae7e332cf44001c3f0c8e4f8260b3c969a42c88081961",
    331: "013768a98eb57e6686dbe05b70d3b2ac40b58548204b67a872f35e2bc7337cf1",
    343: "6eeccac2b62d981d2421bcf21fcdede7a0c0e4da179c5755b4d6959faa423168",
    347: "1620dceb2aa88eb212d22ebefe753482a443061b2899b4c6938910b1fd79ac69",
    359: "2d79b88b2f4db5d3126f7ed233d7020b6f14e759b653fa93607a3d7c367321e2",
    367: "f56b07ccbd61079dad3d0ab935c61586a42906911d52751fa153690092978870",
    379: "6619d79da0ff7a7ab63cc7e5edf07865914fb4cebe67a06a093cf00a343ce127",
    383: "6a7ee94a5c4637930d4801c80bd22901c83d36f98339dc37855a700fb32e6892",
    419: "d4aeb45e6c782573d8e8cec2b5f3e88cd7d4c44622d58b583c90f1751eb37f17",
    431: "d1fa9602dafbc09dbff489fef286f0c2be72412e6a7bfb0195d9970b75f7b95f",
    439: "677931e16efaa197b118379bb753d080fdf2b14bccf65879e7b2bdb1ca398449",
    443: "8660c34ab3abd3193a1ea824e4ab7f2e22f03dafd46602dc1a4442bc717d02de",
    463: "f1451d40e0e3e169a1d06652acaf8b516a18885bd1e8aca6e4f9f4d1a2bfed3f",
    467: "6dc9e01e3dfd493c68b19ee34754d706ce88d3725bb0d1828ec764795cc73e1c",
    479: "5afe48676e7028f940306c3f55c211315fa0ba8a589d21926a74893162cacc93",
    487: "8a343e2b85573e3db930a5b49ecd994932a304b460b74bfaed84f3d51f856f9f",
    491: "06d049ab545853c0dc6a1b453b5fb880f22594a1beb2465104c540f347e00ef5",
    499: "739a2f19b74993e86e670667ad07a424f552d4975604bcbfe8defcea9c5af632",
    503: "e33ddb287df3c2d1c48522d9f1f138809f082131f9b007833b288d34b6c7438a",
}


class TestPaleyGolden:
    def test_every_order_is_frozen(self):
        # the prime powers below 512 from primes found here by trial division,
        # not by the code under test
        primes = [p for p in range(2, MAX_N) if all(p % d for d in range(2, p))]
        powers = {p ** k for p in primes for k in range(1, 10) if p ** k < MAX_N}
        assert sorted(PALEY_SHA256) == sorted(q for q in powers if q % 4 == 3)

    @pytest.mark.parametrize("q", sorted(PALEY_SHA256))
    def test_trn_bytes(self, q):
        text = format_trn(paley_tournament(q))
        assert hashlib.sha256(text.encode()).hexdigest() == PALEY_SHA256[q]


class TestOrderLimit:
    @pytest.mark.parametrize("build,q", [
        (paley_tournament, 1019), (paley_tournament, 65519), (paley_tournament, 10 ** 30 + 3),
        (star_paley, 513), (star_paley, 523), (star_paley, 65519),
    ])
    def test_rejected_before_any_work(self, monkeypatch, build, q):
        # _paley_rows reads q and refuses it before it factors q
        def never(*args):
            raise AssertionError("q factored")
        monkeypatch.setattr("diamondkit.constructions._factor_prime_power", never)
        with pytest.raises(ValueError, match=r"out of range \[2, 512\]$"):
            build(q)

    def test_largest_orders_accepted(self):
        assert paley_tournament(503).n == 503
        assert star_paley(503).n == 504


def _encoded(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


def _add(p, k, a, b):
    return _encoded([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def _sub(p, k, a, b):
    """a - b by base-p digit subtraction."""
    return _encoded([(x - y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def _mul(p, k, a, b):
    return _mul_mod(_digits(a, p, k), _digits(b, p, k), _modulus(p, k), p)


def _squares(p, k):
    return {_mul(p, k, x, x) for x in range(1, p ** k)}


class TestField:
    """GF(p^k) through the private helpers of constructions: _modulus(p, k)
    reaches every field, also those whose order Paley refuses."""

    def test_prime_field_gf3(self):
        assert _modulus(3, 1) == [0, 1]  # x
        assert _squares(3, 1) == {1}

    def test_gf27_tables(self):
        assert len(_squares(3, 3)) == 13
        # modulus x^3 + 2x + 1 is the first irreducible in high-degree-first order
        assert _modulus(3, 3) == [1, 2, 0, 1]
        # no roots in GF(3) => irreducible for a cubic
        for x in range(3):
            assert (x**3 + 2 * x + 1) % 3 != 0

    def test_gf4_valid_even_if_not_paley_usable(self):
        assert _modulus(2, 2) == [1, 1, 1]  # x^2 + x + 1
        # squaring is a bijection in characteristic 2
        assert _squares(2, 2) == {1, 2, 3}

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError, match="^6 is not a prime power$"):
            _factor_prime_power(6)
        with pytest.raises(InputError, match=r"^q=1 out of range \[2, 512\]$"):
            paley_tournament(1)

    def test_determinism(self):
        assert _modulus(7, 2) == _modulus(7, 2)
        assert _squares(7, 2) == _squares(7, 2)

    def test_field_axioms_spot_check(self):
        for a in range(9):
            assert _sub(3, 2, a, a) == 0
            assert _sub(3, 2, a, 0) == a
            assert _mul(3, 2, a, 1) == a
            for b in range(9):
                assert _add(3, 2, _sub(3, 2, a, b), b) == a  # (a - b) + b = a
                assert _mul(3, 2, a, b) == _mul(3, 2, b, a)
        # distributivity on a sample
        for a in (2, 5, 7):
            for b in (1, 4, 8):
                for c in (3, 6):
                    assert _mul(3, 2, a, _add(3, 2, b, c)) == \
                        _add(3, 2, _mul(3, 2, a, b), _mul(3, 2, a, c))
        # every nonzero element has an inverse, so the modulus is irreducible
        for a in range(1, 9):
            assert any(_mul(3, 2, a, b) == 1 for b in range(1, 9))

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 1), (3, 5), (5, 2), (7, 3), (23, 1)])
    def test_differences_match_digit_subtraction(self, p, k):
        # bit j of translate i is set iff the difference j - i, by base-p digit
        # subtraction, lies in the translated set
        q = p ** k
        rng = random.Random(p * 100 + k)
        for elements in (_squares(p, k), {0}, {e for e in range(q) if rng.random() < 0.5}):
            rows = _translates(sum(1 << e for e in elements), p, q)
            assert len(rows) == q
            ref = [sum(1 << j for j in range(q) if _sub(p, k, j, i) in elements)
                   for i in range(q)]
            assert list(rows) == ref

    def test_squares_split_for_q_3_mod_4(self):
        # a reducible modulus of odd p gives fewer than (q - 1)/2 distinct
        # nonzero squares, or 0 among them; 243 and 343 are the benchmark's
        for p, k in ((7, 1), (11, 1), (3, 3), (3, 5), (7, 3)):
            sq = _squares(p, k)
            assert len(sq) == (p ** k - 1) // 2 and 0 not in sq
            # q = 3 mod 4: exactly one of x, -x is a square for every nonzero x
            for x in range(1, p ** k):
                assert (x in sq) != (_sub(p, k, 0, x) in sq)

    def test_factor_prime_power(self):
        assert _factor_prime_power(27) == (3, 3)
        assert _factor_prime_power(31) == (31, 1)
        assert _factor_prime_power(49) == (7, 2)
        assert _factor_prime_power(512) == (2, 9)
        with pytest.raises(InputError):
            _factor_prime_power(12)

    @pytest.mark.parametrize("build", [paley_tournament, star_paley])
    @pytest.mark.parametrize("q", [4, 9, 13, 512])
    def test_refused_before_a_modulus_is_searched(self, monkeypatch, build, q):
        # a q that is not 3 mod 4 is refused right after it is factored
        def never(*args):
            raise AssertionError("modulus searched")
        monkeypatch.setattr("diamondkit.constructions._modulus", never)
        with pytest.raises(InputError, match=rf"^q={q} is not 3 mod 4; the square relation "
                                             "would not be a tournament$"):
            build(q)
