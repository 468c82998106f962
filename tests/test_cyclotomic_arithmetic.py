"""Differential tests of the field arithmetic of Q(zeta_N).

Every operation of `CyclotomicNumber` is compared with a reference that keeps
one Fraction per coordinate: a dense Fraction polynomial product followed by
the one reduction mod Phi_N, coordinate-wise sums and scalings, and a text
form written out here.  Every result is also checked to be in canonical form.
Elements range over levels 1-30, numerators up to 2^80 of both signs over
denominators up to 10^6, zero and rational elements.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.cyclotomic import CyclotomicNumber, _reduce, euler_phi

_BIG = 2 ** 80


@st.composite
def _vectors(draw, level):
    """Fraction coordinates of an element: generic, rational or zero."""
    phi = euler_phi(level)
    kind = draw(st.sampled_from(("generic", "generic", "rational", "zero")))
    if kind == "zero":
        return [Fraction(0)] * phi
    den = draw(st.integers(1, 10 ** 6))
    size = draw(st.sampled_from((10, 1000, _BIG)))
    nums = draw(st.lists(st.integers(-size, size), min_size=phi, max_size=phi))
    if kind == "rational":
        nums = [nums[0]] + [0] * (phi - 1)
    return [Fraction(x, den) for x in nums]


def _ref_mul(level, a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce(level, out)


def _ref_str(level, a):
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        z = "z" if i == 1 else f"z^{i}"
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(z)
        elif c == -1:
            parts.append("-" + z)
        else:
            parts.append(f"{c}*{z}")
    body = parts[0] if parts else "0"
    for p in parts[1:]:
        body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return f"({body}) @ Q(zeta_{level})"


def _check(x, level, want):
    assert x.level == level
    assert x.coeffs == tuple(want)
    assert all(type(c) is Fraction for c in x.coeffs)
    # canonical form: integer numerators over one positive denominator, no
    # common factor, zero as (0, ..., 0)/1
    assert all(type(v) is int for v in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    if not any(want):
        assert x.nums == (0,) * len(want) and x.den == 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_field_operations_match_the_fraction_reference(data):
    level = data.draw(st.integers(1, 30))
    a, b = data.draw(_vectors(level)), data.draw(_vectors(level))
    x, y = CyclotomicNumber(level, a), CyclotomicNumber(level, b)
    _check(x, level, a)
    _check(x + y, level, [p + q for p, q in zip(a, b)])
    _check(x - y, level, [p - q for p, q in zip(a, b)])
    _check(-x, level, [-p for p in a])
    _check(x * y, level, _ref_mul(level, a, b))
    _check(y * x, level, _ref_mul(level, a, b))
    k = data.draw(st.integers(-_BIG, _BIG))
    s = Fraction(data.draw(st.integers(-_BIG, _BIG)), data.draw(st.integers(1, 10 ** 6)))
    for scalar in (k, s, 0, 1, -1):
        _check(x * scalar, level, [p * scalar for p in a])
        _check(scalar * x, level, [p * scalar for p in a])
        _check(x + scalar, level, [a[0] + scalar] + a[1:])
        _check(scalar - x, level, [scalar - a[0]] + [-p for p in a[1:]])
    assert (x == y) == (a == b)
    assert x == CyclotomicNumber(level, list(a))
    assert (x == a[0]) == all(c == 0 for c in a[1:])
    assert str(x) == _ref_str(level, a)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_the_fraction_reference(data):
    level = data.draw(st.integers(1, 30))
    a = data.draw(_vectors(level))
    if not any(a):
        return
    inv = CyclotomicNumber(level, a).inverse()
    _check(inv, inv.level, inv.coeffs)
    assert _ref_mul(level, a, list(inv.coeffs)) == [1] + [0] * (len(a) - 1)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_equal_values_hash_alike(data):
    level = data.draw(st.integers(1, 30))
    a = data.draw(_vectors(level))
    x = CyclotomicNumber(level, a)
    # the same value reached another way: x = (x * y) - (x * y - x)
    y = CyclotomicNumber(level, data.draw(_vectors(level)))
    z = x * y - (x * y - x)
    assert z == x and hash(z) == hash(x)
    assert (z.nums, z.den) == (x.nums, x.den)
    if all(c == 0 for c in a[1:]):
        assert hash(x) == hash(a[0])
        assert len({x, a[0]}) == 1
