from fractions import Fraction

import pytest

from genus_forge import modular
from genus_forge.cyclotomic import CyclotomicNumber
from genus_forge.modular import (classical_x_series, eisenstein_qexp,
                                 f_lambda_table, qn_expansion_via_product,
                                 series_to_json, verify_lemma_eisenstein)
from genus_forge.series import bernoulli


def test_constant_terms():
    # k >= 2: B_k / k!; k = 1: (1 + zeta) / (2 (1 - zeta))
    for N in (2, 3, 4, 5):
        for k in (2, 3, 4, 6):
            from math import factorial
            want = CyclotomicNumber.from_rational(N, bernoulli(k) / factorial(k))
            assert eisenstein_qexp(k, N, 3).coeff(0) == want
    z = CyclotomicNumber.zeta(3)
    one = CyclotomicNumber.from_rational(3, 1)
    assert eisenstein_qexp(1, 3, 3).coeff(0) == (one + z) * ((one - z) * 2).inverse()
    assert eisenstein_qexp(1, 2, 3).coeff(0) == 0


def test_level_two_odd_weights_vanish():
    for k in (1, 3, 5):
        series = eisenstein_qexp(k, 2, 12)
        assert all(series.coeff(j) == 0 for j in range(12))


def test_first_fourier_coefficients_level_three():
    series = eisenstein_qexp(2, 3, 6)
    expected = [Fraction(1, 12), 1, 3, 1, 7, 6]
    for j, want in enumerate(expected):
        assert series.coeff(j) == CyclotomicNumber.from_rational(3, want)


def _conjugate(c):
    """The image of c under zeta -> zeta^-1."""
    out = CyclotomicNumber.from_rational(c.level, 0)
    for i, a in enumerate(c.coeffs):
        out = out + CyclotomicNumber.zeta(c.level, -i) * a
    return out


def test_conjugation_symmetry():
    # conj(G_k) = (-1)^k G_k
    for N in (3, 4, 5):
        for k in (1, 2, 3, 4):
            series = eisenstein_qexp(k, N, 8)
            for j in range(8):
                c = series.coeff(j)
                assert _conjugate(c) == c * ((-1) ** k)


def test_absent_coefficients_are_zeros_of_the_field():
    # G_{1,3} through q^7 stores nothing at q^2, q^5 and q^6
    series = eisenstein_qexp(1, 3, 8)
    for j in (2, 5, 6):
        assert j not in series.coeffs
        zero = series.coeff(j)
        assert zero.level == 3 and zero == 0


def test_weight_one_level_five_not_rational():
    series = eisenstein_qexp(1, 5, 4)
    assert not series.coeff(0).is_rational()


def test_validation_errors():
    with pytest.raises(ValueError):
        eisenstein_qexp(0, 3, 5)
    with pytest.raises(ValueError):
        eisenstein_qexp(2, 1, 5)
    with pytest.raises(ValueError):
        eisenstein_qexp(2, 3, 0)


def test_qn_expansion_normalization_and_vanishing():
    qn = qn_expansion_via_product(2, 6, 6)
    assert len(qn) == 6
    assert qn[0] == 1
    # at level 2 every odd x-coefficient vanishes identically
    for j in range(6):
        assert qn[1].coeff(j) == 0
        assert qn[3].coeff(j) == 0
        assert qn[5].coeff(j) == 0


def test_lemma_product_equals_fourier():
    for N in (2, 3, 4):
        report = verify_lemma_eisenstein(N, 5, 8)
        assert report["ok"], report


def test_lemma_holds_at_every_level_below_the_cap():
    for N in range(2, 13):
        report = verify_lemma_eisenstein(N, 9, 12)
        assert report["ok"], report


def test_classical_limit_is_q_to_zero():
    # sending q -> 0 in the x-coefficients reproduces the closed x-series
    for N in (2, 3):
        x_order = 6
        qn = qn_expansion_via_product(N, x_order, 5)
        classical = classical_x_series(N, x_order)
        for k in range(x_order):
            assert qn[k].coeff(0) == classical.coeff(k)


def test_classical_series_at_level_two_is_half_coth():
    # z = -1: x(1 + e^{-x}) / (2(1 - e^{-x})) = (x/2) coth(x/2)
    series = classical_x_series(2, 8)
    want = [1, 0, Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240), 0]
    assert [series.coeff(k) for k in range(8)] == want


def test_f_lambda_table_pinned_rows():
    table = f_lambda_table(2, 2, 6)
    f2 = [table[(2,)].coeff(j) for j in range(6)]
    want = [Fraction(-1, 6), -4, -4, -16, -4, -24]
    assert f2 == [CyclotomicNumber.from_rational(2, v) for v in want]
    f11 = [table[(1, 1)].coeff(j) for j in range(6)]
    want11 = [Fraction(1, 12), 2, 2, 8, 2, 12]
    assert f11 == [CyclotomicNumber.from_rational(2, v) for v in want11]


def test_f_lambda_level_two_linear_dependence():
    # G_{1,2} = 0 forces f_[2] = -2 f_[1,1]
    table = f_lambda_table(2, 2, 10)
    for j in range(10):
        assert table[(2,)].coeff(j) == table[(1, 1)].coeff(j) * (-2)


def test_series_json_roundtrip():
    series = eisenstein_qexp(2, 4, 7)
    payload = series_to_json(series)
    assert payload["variable"] == "q" and payload["precision"] == 7
    assert payload["level"] == 4
    # B_2/2! = 1/12, then -sum_{d|n} (n/d)(i^-d + i^d): zero for odd n
    assert payload["coeffs"] == [[0, "(1/12) @ Q(zeta_4)"], [2, "(2) @ Q(zeta_4)"],
                                 [4, "(2) @ Q(zeta_4)"], [6, "(8) @ Q(zeta_4)"]]
    assert payload["coeffs"] == [[k, str(c)] for k, c in sorted(series.coeffs.items())]


def test_eisenstein_cache_returns_equal_objects():
    a = eisenstein_qexp(3, 3, 6)
    b = eisenstein_qexp(3, 3, 6)
    assert a is b  # lru_cache

    c = eisenstein_qexp(3, 3, 5)
    assert c is not a


def test_product_expansion_builds_its_binomials_once(monkeypatch):
    # the qn_6 golden's request: x-order K = 10 needs the K(K+1)/2 binomials
    # C(j, i), i <= j < K, once per call, not once per chunk of each quadratic
    real, calls = modular.comb, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    want = qn_expansion_via_product(6, 10, 60)
    monkeypatch.setattr(modular, "comb", counted)
    assert qn_expansion_via_product(6, 10, 60) == want
    assert 0 < len(calls) <= 55
