from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.cyclotomic import (CyclotomicNumber, _divide_exact, _reduce,
                                    cyclotomic_polynomial, euler_phi)


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_degrees():
    for n in range(1, 13):
        # degree phi(n), monic
        poly = cyclotomic_polynomial(n)
        assert len(poly) == euler_phi(n) + 1
        assert poly[-1] == 1


_PHI = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1),
        6: (1, -1, 1), 7: (1,) * 7, 8: (1, 0, 0, 0, 1), 9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1), 11: (1,) * 11, 12: (1, 0, -1, 0, 1)}


def test_cyclotomic_polynomial_table():
    for n, want in _PHI.items():
        poly = cyclotomic_polynomial(n)
        assert poly == want
        assert all(type(c) is int for c in poly)


def test_first_coefficient_outside_the_units():
    # Phi_105 = ... - 2x^7 ... - 2x^41 ...: the first Phi_n with a coefficient
    # other than 0 and +-1, so its division is more than sign bookkeeping
    for n in range(1, 105):
        assert set(cyclotomic_polynomial(n)) <= {-1, 0, 1}
    phi105 = cyclotomic_polynomial(105)
    assert len(phi105) == 49
    assert [k for k, c in enumerate(phi105) if c not in (-1, 0, 1)] == [7, 41]
    assert phi105[7] == phi105[41] == -2


def test_divide_exact_rejects_a_remainder():
    assert _divide_exact([-1, 0, 1], (-1, 1)) == [1, 1]
    with pytest.raises(ArithmeticError):
        _divide_exact([1, 0, 1], (-1, 1))   # x^2 + 1 = (x + 1)(x - 1) + 2


def test_zeta_satisfies_its_polynomial():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z = CyclotomicNumber.zeta(n)
        acc = CyclotomicNumber.from_rational(n, 0)
        for k, c in enumerate(cyclotomic_polynomial(n)):
            acc = acc + CyclotomicNumber.zeta(n, k) * c
        assert acc == 0


def test_zeta_power_cycles():
    z = CyclotomicNumber.zeta(5)
    power = CyclotomicNumber.from_rational(5, 1)
    for k in range(1, 11):
        power = power * z
        assert power == CyclotomicNumber.zeta(5, k)
    assert power == 1
    assert CyclotomicNumber.zeta(5, -1) == CyclotomicNumber.zeta(5, 4)


def test_primitive_root_of_unity_sums():
    # 1 + zeta + ... + zeta^(N-1) = 0 for prime N
    for n in (3, 5, 7, 11):
        total = CyclotomicNumber.from_rational(n, 1)
        for k in range(1, n):
            total = total + CyclotomicNumber.zeta(n, k)
        assert total == 0


_levels = st.integers(min_value=2, max_value=12)
_scalars = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def _elements(draw, level=None):
    n = level if level is not None else draw(_levels)
    phi = euler_phi(n)
    coeffs = draw(st.lists(_scalars, min_size=phi, max_size=phi))
    return CyclotomicNumber(n, coeffs)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(data):
    n = data.draw(_levels)
    a = data.draw(_elements(level=n))
    b = data.draw(_elements(level=n))
    c = data.draw(_elements(level=n))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reduction_is_the_remainder_mod_phi(data):
    # dense dividends of any length, trailing zeros included (a trailing zero
    # used to give the Fraction long division a negative shift)
    n = data.draw(st.integers(min_value=1, max_value=15))
    poly = (data.draw(st.lists(_scalars, max_size=3 * n))
            + [Fraction(0)] * data.draw(st.integers(min_value=0, max_value=3)))
    r = _reduce(n, list(poly))
    assert len(r) == euler_phi(n)
    # Phi_n divides poly - r, and deg r < phi(n): r is the remainder
    _divide_exact([p - q for p, q in zip_longest(poly, r, fillvalue=0)],
                  cyclotomic_polynomial(n))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(data):
    a = data.draw(_elements())
    if a == 0:
        return
    assert a * a.inverse() == 1


def _assert_canonical_inverse(a):
    inv = a.inverse()
    assert a * inv == 1
    assert all(type(v) is int for v in inv.nums) and type(inv.den) is int
    assert inv.den > 0 and gcd(inv.den, *inv.nums) == 1
    return inv


@pytest.mark.parametrize("level", [1, 2])
def test_inverse_of_a_negative_rational(level):
    # no other conjugate, and a negative norm: the sign moves to the numerator
    for value, want in ((Fraction(-3, 7), (-7, 3)), (-1, (-1, 1)), (Fraction(-1, 4), (-4, 1))):
        inv = _assert_canonical_inverse(CyclotomicNumber.from_rational(level, value))
        assert (inv.nums, inv.den) == ((want[0],), want[1])


def _prime_power_base(n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


@pytest.mark.parametrize("level", range(2, 31))
def test_inverse_of_one_minus_zeta(level):
    # N(1 - zeta_N) is p for N = p^k and 1 otherwise, where 1 - zeta_N is a unit
    a = 1 - CyclotomicNumber.zeta(level)
    inv = _assert_canonical_inverse(a)
    assert inv.den == (_prime_power_base(level) or 1)


def test_inverse_with_large_numerators_at_level_29():
    # 27 conjugates of an element with numerators near 2^80
    nums = [(-1) ** i * (2 ** 80 - 7 * i * i) for i in range(euler_phi(29))]
    a = CyclotomicNumber(29, [Fraction(x, 999_983) for x in nums])
    _assert_canonical_inverse(a)


def test_parse_display_form():
    a = CyclotomicNumber.from_rational(3, Fraction(1, 2)) \
        + CyclotomicNumber.zeta(3) * Fraction(1, 2)
    assert str(a) == "(1/2 + 1/2*z) @ Q(zeta_3)"
    # ints and strings are converted; Fractions are kept as they are
    b = CyclotomicNumber(5, [1, "1/2", Fraction(-3, 4), 0])
    assert b.coeffs == (1, Fraction(1, 2), Fraction(-3, 4), 0)
    for c in (b, -b, b + 2, b * b, b.inverse()):
        assert all(type(x) is Fraction for x in c.coeffs)


def test_level_mismatch_rejected():
    a = CyclotomicNumber.zeta(3)
    b = CyclotomicNumber.zeta(4)
    with pytest.raises(ValueError):
        a + b


def test_foreign_types_not_implemented():
    a = CyclotomicNumber.zeta(3)
    with pytest.raises(TypeError):
        a + "x"


def test_rational_detection():
    z = CyclotomicNumber.zeta(3)
    a = z + CyclotomicNumber.zeta(3, -1)  # = -1
    assert a.is_rational() and a.rational_value() == -1
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()


def test_hash_agrees_with_equality_against_rationals():
    three = CyclotomicNumber.from_rational(3, 1)
    assert three == 1
    assert len({three, 1}) == 1
    assert len({CyclotomicNumber.from_rational(5, Fraction(2, 3)), Fraction(2, 3)}) == 1
    z = CyclotomicNumber.zeta(3)
    assert hash(z + CyclotomicNumber.zeta(3, -1)) == hash(-1)   # rational by reduction
    assert {z: "z"}[CyclotomicNumber.zeta(3)] == "z"


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.from_rational(5, 0).inverse()


def test_canonical_reduction_level_two():
    # at level 2, zeta = -1 and everything is rational
    z = CyclotomicNumber.zeta(2)
    assert z == -1
    assert (z * z).rational_value() == 1
