import random

import pytest

from diamondkit.gf import _poly_from_int, _poly_mul_mod, _poly_to_int, factor_prime_power, gf_build


def test_prime_field_gf3():
    ft = gf_build(3)
    assert ft.q == 3
    assert ft.modulus == (0, 1)  # x
    assert ft.squares() == frozenset({1})


def test_gf27_tables():
    ft = gf_build(27)
    assert ft.q == 27
    assert len(ft.squares()) == 13
    # modulus x^3 + 2x + 1 is the first irreducible in high-degree-first order
    assert ft.modulus == (1, 2, 0, 1)
    # no roots in GF(3) => irreducible for a cubic
    for x in range(3):
        assert (x**3 + 2 * x + 1) % 3 != 0


def test_gf4_valid_even_if_not_paley_usable():
    ft = gf_build(4)
    assert ft.q == 4
    # squaring is a bijection in characteristic 2
    assert ft.squares() == frozenset({1, 2, 3})


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        gf_build(6)
    with pytest.raises(ValueError, match=r"^q=1 out of range \[2, 512\]$"):
        gf_build(1)
    with pytest.raises(ValueError, match="^1 is not a prime power$"):
        factor_prime_power(1)
    # a long q is clipped to 40 digits
    with pytest.raises(ValueError) as exc:
        factor_prime_power(-int("9" * 3999))
    assert str(exc.value) == f"{'-' + '9' * 39!r}... (4000 characters) is not a prime power"


def test_determinism():
    assert gf_build(49) == gf_build(49)


def _add(ft, a, b):
    p, k = ft.p, ft.k
    return _poly_to_int([(x + y) % p for x, y in zip(_poly_from_int(a, p, k),
                                                     _poly_from_int(b, p, k))], p)


def _sub(ft, a, b):
    """a - b by base-p digit subtraction."""
    p, k = ft.p, ft.k
    return _poly_to_int([(x - y) % p for x, y in zip(_poly_from_int(a, p, k),
                                                     _poly_from_int(b, p, k))], p)


def _mul(ft, a, b):
    p, k = ft.p, ft.k
    return _poly_to_int(_poly_mul_mod(_poly_from_int(a, p, k), _poly_from_int(b, p, k),
                                      list(ft.modulus), p), p)


def test_field_axioms_spot_check():
    ft = gf_build(9)
    for a in range(9):
        assert _sub(ft, a, a) == 0
        assert _sub(ft, a, 0) == a
        assert _mul(ft, a, 1) == a
        for b in range(9):
            assert _add(ft, _sub(ft, a, b), b) == a  # (a - b) + b = a
            assert _mul(ft, a, b) == _mul(ft, b, a)
    # distributivity on a sample
    for a in (2, 5, 7):
        for b in (1, 4, 8):
            for c in (3, 6):
                assert _mul(ft, a, _add(ft, b, c)) == _add(ft, _mul(ft, a, b), _mul(ft, a, c))
    # every nonzero element has an inverse, so the modulus is irreducible
    for a in range(1, 9):
        assert any(_mul(ft, a, b) == 1 for b in range(1, 9))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 1), (3, 5), (5, 2), (7, 3), (23, 1)])
def test_differences_match_digit_subtraction(p, k):
    # bit j of translate i is set iff the difference j - i, by base-p digit
    # subtraction, lies in the translated set
    ft = gf_build(p ** k)
    assert (ft.p, ft.k) == (p, k)
    rng = random.Random(p * 100 + k)
    for elements in (ft.squares(), {0}, {e for e in range(ft.q) if rng.random() < 0.5}):
        rows = ft.translates(sum(1 << e for e in elements))
        assert len(rows) == ft.q
        ref = [sum(1 << j for j in range(ft.q) if _sub(ft, j, i) in elements)
               for i in range(ft.q)]
        assert list(rows) == ref


def test_squares_split_for_q_3_mod_4():
    for p, k in ((7, 1), (11, 1), (3, 3)):
        ft = gf_build(p ** k)
        sq = ft.squares()
        assert len(sq) == (ft.q - 1) // 2
        # q = 3 mod 4: exactly one of x, -x is a square for every nonzero x
        for x in range(1, ft.q):
            assert (x in sq) != (_sub(ft, 0, x) in sq)


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(31) == (31, 1)
    assert factor_prime_power(49) == (7, 2)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    with pytest.raises(ValueError):
        factor_prime_power(1)
