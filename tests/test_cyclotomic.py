from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.cyclotomic import (CyclotomicNumber, _poly_divmod, _poly_mul, _poly_sub,
                                    _reduce, cyclotomic_polynomial, euler_phi)


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_degrees():
    for n in range(1, 13):
        # degree phi(n), monic
        poly = cyclotomic_polynomial(n)
        assert len(poly) == euler_phi(n) + 1
        assert poly[-1] == 1


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
    # used to give _poly_divmod a negative shift)
    n = data.draw(st.integers(min_value=1, max_value=15))
    poly = (data.draw(st.lists(_scalars, max_size=3 * n))
            + [Fraction(0)] * data.draw(st.integers(min_value=0, max_value=3)))
    phi_poly = list(cyclotomic_polynomial(n))
    q, r = _poly_divmod(poly, phi_poly)
    assert len(r) <= euler_phi(n)
    assert _poly_sub(poly, _poly_mul(q, phi_poly)) == r
    assert _reduce(n, list(poly)) == r + [0] * (euler_phi(n) - len(r))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(data):
    a = data.draw(_elements())
    if a == 0:
        return
    assert a * a.inverse() == 1


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
