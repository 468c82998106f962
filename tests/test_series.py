from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.cyclotomic import CyclotomicNumber, euler_phi
from genus_forge.series import TruncSeries, bernoulli, todd_coefficient
from genus_forge.text import join_terms, power, term


def q(coeffs, cutoff=8):
    return TruncSeries("q", coeffs, cutoff=cutoff)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_generating_function():
    # x/(e^x - 1) = sum B_k x^k / k!: (e^x - 1)/x is a unit; divide by x
    # by lowering every key, then invert it
    order = 12
    e = TruncSeries("x", {k: Fraction(1, factorial(k)) for k in range(order + 1)},
                    cutoff=order + 1)
    unit = TruncSeries("x", {k - 1: c for k, c in (e - 1).coeffs.items()}, cutoff=order)
    series = unit.inverse()
    for k in range(order):
        assert series.coeff(k) == bernoulli(k) / factorial(k)


_TODD = [Fraction(1), Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0,
         Fraction(1, 30240), 0, Fraction(-1, 1209600), 0, Fraction(1, 47900160), 0,
         Fraction(-691, 1307674368000)]


def test_todd_coefficients_by_hand_and_by_series_inverse():
    # x/(1 - e^-x) = 1/u with u = (1 - e^-x)/x = sum_m (-x)^m/(m+1)!, an
    # inverse that does not use `bernoulli`
    assert [todd_coefficient(m) for m in range(13)] == _TODD
    u = TruncSeries("x", {m: Fraction((-1) ** m, factorial(m + 1)) for m in range(13)},
                    cutoff=13)
    assert [u.inverse().coeff(m) for m in range(13)] == _TODD


_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=8)


@given(st.lists(_coeff, min_size=0, max_size=6), st.lists(_coeff, min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_multiplication_matches_bruteforce(a_list, b_list):
    order = 6
    a = q({i: c for i, c in enumerate(a_list)}, cutoff=order)
    b = q({i: c for i, c in enumerate(b_list)}, cutoff=order)
    prod = a * b
    for k in range(prod.cutoff):
        expected = sum((a_list[i] if i < len(a_list) else 0)
                       * (b_list[k - i] if k - i < len(b_list) else 0)
                       for i in range(k + 1))
        assert prod.coeff(k) == expected


@given(st.lists(_coeff, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(coeffs):
    if coeffs[0] == 0:
        coeffs = [Fraction(1)] + coeffs[1:]
    s = q({i: c for i, c in enumerate(coeffs)}, cutoff=8)
    inv = s.inverse()
    prod = s * inv
    for k in range(prod.cutoff):
        assert prod.coeff(k) == (1 if k == 0 else 0)


def test_coeff_defaults_and_cutoff_guard():
    s = q({0: Fraction(1), 3: Fraction(5)})
    assert s.coeff(1) == 0 and isinstance(s.coeff(1), Fraction)
    assert s.coeff(3) == 5
    assert TruncSeries.zero("q", 5).coeff(2) == Fraction(0)
    with pytest.raises(ValueError):
        s.coeff(8)


def test_zero_pruning():
    s = q({0: Fraction(1), 2: Fraction(0)})
    assert 2 not in s.coeffs
    assert not TruncSeries.zero("q", 5)


def test_addition_cutoff_is_min():
    a = q({0: Fraction(1)}, cutoff=4)
    b = q({0: Fraction(1)}, cutoff=9)
    assert (a + b).cutoff == 4


def test_multiplication_cutoff_shifts_with_min_key():
    # cutoff = min(cut_a + min_b, cut_b + min_a)
    a = q({2: Fraction(1)}, cutoff=6)     # starts at q^2
    b = q({0: Fraction(1)}, cutoff=6)
    assert (a * b).cutoff == 6
    assert (a * a).cutoff == 8


def test_negative_exponent_guard():
    with pytest.raises(ValueError):
        q({-1: Fraction(1)})


def test_inverse_needs_a_nonzero_constant_term():
    with pytest.raises(ValueError):
        q({1: Fraction(2), 2: Fraction(1)}, cutoff=6).inverse()
    with pytest.raises(ValueError):
        TruncSeries.zero("q", 6).inverse()


def test_different_variable_mismatch():
    a = TruncSeries("x", {0: Fraction(1)}, cutoff=4)
    b = TruncSeries("q", {0: Fraction(1)}, cutoff=4)
    for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(ValueError, match="series variable mismatch"):
            op(a, b)
        with pytest.raises(ValueError, match="series variable mismatch"):
            op(b, a)


def test_geometric_series():
    g = (1 - TruncSeries("q", {1: Fraction(1)}, cutoff=6)).inverse()
    assert g == q({k: Fraction(1) for k in range(6)}, cutoff=6)
    assert (g * (1 - TruncSeries("q", {1: Fraction(1)}, cutoff=6))).coeff(0) == 1


def test_equality_requires_same_cutoff():
    a = q({0: Fraction(1)}, cutoff=4)
    b = q({0: Fraction(1)}, cutoff=5)
    assert a != b
    assert a == TruncSeries(b.var, b.coeffs, cutoff=4)
    assert q({0: Fraction(7)}) == 7  # scalar comparison


@given(st.lists(_coeff, max_size=7), st.lists(_coeff, max_size=7),
       st.integers(0, 7), st.integers(0, 7), _coeff)
@settings(max_examples=80, deadline=None)
def test_arithmetic_results_are_canonical(a_list, b_list, cut_a, cut_b, scalar):
    # results built by the trusted constructor keep the public one's
    # invariants: keys below the cutoff, no zero coefficient; b - b and
    # a + (-a) cancel every key
    a = q(dict(enumerate(a_list)), cutoff=cut_a)
    b = q(dict(enumerate(b_list)), cutoff=cut_b)
    results = [a + b, a - b, b - b, a + (-a), a * b, a * scalar, a + scalar]
    if a.coeffs.get(0):
        results.append(a.inverse())
    for r in results:
        assert r == TruncSeries(r.var, r.coeffs, cutoff=r.cutoff)
        assert all(0 <= k < r.cutoff and c for k, c in r.coeffs.items())
    assert not b - b and not a + (-a)
    assert (a + b).cutoff == min(cut_a, cut_b)


# -- the row representation against the per-coefficient algorithm --------------
#
# _Reference is the dict-of-coefficients TruncSeries that the integer rows
# replaced, kept as a plain reference: every coefficient is a Fraction or a
# CyclotomicNumber, and every operation loops over them with the field's
# own arithmetic.


def _reference_render(c) -> str:
    if isinstance(c, CyclotomicNumber):
        return str(c.rational_value()) if c.is_rational() else c.paren_str()
    return str(c)


class _Reference:
    def __init__(self, var, coeffs, cutoff):
        self.var, self.cutoff = var, cutoff
        self.coeffs = {k: c for k, c in coeffs.items() if k < cutoff and c}

    def coeff(self, key):
        if key in self.coeffs:
            return self.coeffs[key]
        return next(iter(self.coeffs.values()), Fraction(0)) * 0

    def __eq__(self, other):
        if isinstance(other, _Reference):
            return (self.var, self.cutoff, self.coeffs) == \
                (other.var, other.cutoff, other.coeffs)
        if not other:
            return not self.coeffs
        return set(self.coeffs) == {0} and self.coeffs[0] == other

    def __add__(self, other):
        merged = dict(self.coeffs)
        if isinstance(other, _Reference):
            cut = min(self.cutoff, other.cutoff)
            for k, c in other.coeffs.items():
                merged[k] = merged[k] + c if k in merged else c
        else:
            cut = self.cutoff
            merged[0] = merged.get(0, Fraction(0)) + other
        return _Reference(self.var, merged, cut)

    def __neg__(self):
        return _Reference(self.var, {k: -c for k, c in self.coeffs.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _Reference):
            return _Reference(self.var, {k: c * other for k, c in self.coeffs.items()},
                              self.cutoff)
        if not self.coeffs or not other.coeffs:
            return _Reference(self.var, {}, min(self.cutoff, other.cutoff))
        cut = min(self.cutoff + min(other.coeffs), other.cutoff + min(self.coeffs))
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                if i + j < cut:
                    out[i + j] = out[i + j] + a * b if i + j in out else a * b
        return _Reference(self.var, out, cut)

    def inverse(self):
        c0 = self.coeffs[0]
        c0_inv = c0.inverse() if isinstance(c0, CyclotomicNumber) else 1 / c0
        inv = {0: c0_inv}
        for k in range(1, self.cutoff):
            s = None
            for j in range(1, k + 1):
                if j in self.coeffs and k - j in inv:
                    t = self.coeffs[j] * inv[k - j]
                    s = t if s is None else s + t
            if s is not None and s:
                inv[k] = -(c0_inv * s)
        return _Reference(self.var, inv, self.cutoff)

    def __str__(self):
        parts = [term(_reference_render(self.coeffs[k]), power(self.var, k))
                 for k in sorted(self.coeffs)]
        return f"{join_terms(parts)} + O({self.var}^{self.cutoff})"


def _same(got, want):
    """got (TruncSeries) and want (_Reference) hold the same series, read
    back coefficient by coefficient and as text."""
    assert got.cutoff == want.cutoff
    assert str(got) == str(want)
    assert sorted(got.coeffs) == sorted(want.coeffs)
    for k in range(got.cutoff):
        a, b = got.coeff(k), want.coeff(k)
        assert a == b
        if got.level == 1:
            assert type(a) is Fraction
        else:
            assert (a.level, a.nums, a.den) == (b.level, b.nums, b.den) \
                if isinstance(b, CyclotomicNumber) else a == b


_big = st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
_dens = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 40))


@st.composite
def _coefficients(draw, level, cutoff):
    """{key: coefficient} at a level: Fractions at level 1; at level N
    elements of Q(zeta_N), some of them rational Fractions; zero values,
    keys at and beyond the cutoff, leading zero rows and the empty dict."""
    start = draw(st.sampled_from((0, 0, 1, 3)))
    keys = draw(st.lists(st.integers(start, cutoff + 4), max_size=6, unique=True))
    out = {}
    for k in keys:
        if level == 1 or draw(st.integers(0, 3)) == 0:
            out[k] = Fraction(draw(_big), draw(_dens))
        else:
            den = draw(_dens)
            out[k] = CyclotomicNumber(level, [Fraction(draw(_big), den)
                                              for _ in range(euler_phi(level))])
    return out


@given(st.data(), st.sampled_from((1, *range(2, 13))), st.integers(0, 9),
       st.integers(0, 9), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_rows_match_the_per_coefficient_algorithm(data, N, cut_a, cut_b, lift_a, lift_b):
    level_a, level_b = (1 if lift_a else N), (1 if lift_b else N)
    da = data.draw(_coefficients(level_a, cut_a))
    db = data.draw(_coefficients(level_b, cut_b))
    a, ra = TruncSeries("q", da, cutoff=cut_a), _Reference("q", da, cut_a)
    b, rb = TruncSeries("q", db, cutoff=cut_b), _Reference("q", db, cut_b)
    r = Fraction(data.draw(_big), data.draw(_dens)) * data.draw(st.sampled_from((0, 1, 1)))
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(-a, -ra)
    _same(a * b, ra * rb)
    _same(b * a, rb * ra)
    _same(a * r, ra * r)
    _same(r * a, ra * r)
    _same(a + r, ra + r)
    _same(TruncSeries.combination([(r, a), (3, b), (Fraction(-1, 2), a)]),
          ra * r + rb * 3 + ra * Fraction(-1, 2))
    if N > 1:
        z = CyclotomicNumber.zeta(N, data.draw(st.integers(0, N - 1)))
        _same(a * z, ra * z)
        _same(a + z, ra + z)
    assert (a == b) == (ra == rb)
    assert (a == a + 0) and (a == r) == (ra == r)
    assert (a == TruncSeries("q", ra.coeffs, cutoff=cut_a))
    if ra.coeffs.get(0):
        _same(a.inverse(), ra.inverse())
    else:
        with pytest.raises(ValueError):
            a.inverse()
