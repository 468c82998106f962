"""The printed forms of the value types, pinned byte for byte.

Every renderer writes a coefficient of 1 or -1 in front of a monomial as a
bare sign, writes a constant term as its coefficient alone, and writes the
empty sum as 0.  The CLI's golden files print these forms, so a change here
is a change of the program's output.
"""

from fractions import Fraction

from genus_forge.cyclotomic import CyclotomicNumber
from genus_forge.localization import Relation
from genus_forge.series import TruncSeries
from genus_forge.sparsepoly import SparsePoly


def test_cyclotomic_number():
    assert str(CyclotomicNumber(5, [1, 0, 0, 0])) == "(1) @ Q(zeta_5)"
    assert str(CyclotomicNumber(5, [-1, 0, 0, 0])) == "(-1) @ Q(zeta_5)"
    assert str(CyclotomicNumber(5, [0, 1, -1, 0])) == "(z - z^2) @ Q(zeta_5)"
    assert str(CyclotomicNumber(5, [0, -1, 0, 1])) == "(-z + z^3) @ Q(zeta_5)"
    assert (str(CyclotomicNumber(5, [Fraction(-3, 4), Fraction(-1, 2), 0, 2]))
            == "(-3/4 - 1/2*z + 2*z^3) @ Q(zeta_5)")
    assert str(CyclotomicNumber(1, [Fraction(-1, 2)])) == "(-1/2) @ Q(zeta_1)"
    assert str(CyclotomicNumber(5, [0, 0, 0, 0])) == "(0) @ Q(zeta_5)"


def test_rational_series():
    series = TruncSeries("q", {0: Fraction(1), 1: Fraction(-1),
                               2: Fraction(-1, 2), 3: 7, 4: 1}, cutoff=6)
    assert str(series) == "1 - q - 1/2*q^2 + 7*q^3 + q^4 + O(q^6)"
    assert str(TruncSeries("q", {0: -1, 2: Fraction(-1, 2)}, cutoff=3)) \
        == "-1 - 1/2*q^2 + O(q^3)"
    assert str(TruncSeries("q", {}, cutoff=3)) == "0 + O(q^3)"


def test_series_over_a_cyclotomic_field():
    # a rational coefficient prints bare, an irrational one in parentheses,
    # and neither carries the field's ' @ Q(zeta_N)' suffix
    z = CyclotomicNumber.zeta(3)
    one = CyclotomicNumber.from_rational(3, 1)
    series = TruncSeries("q", {0: z, 1: one * Fraction(1, 2), 2: -z,
                               3: one + z, 4: -one, 5: one}, cutoff=7)
    assert str(series) == "(z) + 1/2*q + (-z)*q^2 + (1 + z)*q^3 - q^4 + q^5 + O(q^7)"
    assert str(TruncSeries("q", {0: -one, 1: one * Fraction(-1, 2)}, cutoff=2)) \
        == "-1 - 1/2*q + O(q^2)"


def test_sparse_polynomial():
    poly = SparsePoly(("x", "y"), {(0, 0): 1, (1, 0): -1, (0, 1): 1,
                                   (2, 1): Fraction(-2, 3), (0, 3): -1})
    assert str(poly) == "-2/3*x^2*y - y^3 - x + y + 1"
    assert str(SparsePoly(("x", "y"), {(0, 0): -1})) == "-1"
    assert str(SparsePoly(("x", "y"), {(0, 0): Fraction(-1, 2)})) == "-1/2"
    assert str(SparsePoly(("x", "y"), {})) == "0"


def test_relation_render():
    terms = [((5,), 3), ((3, 2), -1), ((2, 2, 1), 1), ((4, 1), Fraction(-1, 2)),
             ((3, 1, 1), 0)]
    assert (Relation(2, 5, 3, terms, "pinned").render()
            == "G[1,3]*G[2,3]^2 - 1/2*G[1,3]*G[4,3] - G[2,3]*G[3,3] + 3*G[5,3] = 0")
    assert (Relation(2, 4, 3, [((2, 2), 1), ((3, 1), -1)], "pinned").render()
            == "-G[1,3]*G[3,3] + G[2,3]^2 = 0")
    assert Relation(2, 4, 3, [((2, 2), 0)], "pinned").render() == "0 = 0"
