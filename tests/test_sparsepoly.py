from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.coadjoint import RootSystem, divided_difference
from genus_forge.sparsepoly import SparsePoly

XY = ("x", "y")


def P(terms):
    return SparsePoly(XY, terms)


def x():
    return SparsePoly.variable("x", XY)


def y():
    return SparsePoly.variable("y", XY)


def test_construction_prunes_zeros():
    p = P({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == y() * 2


def test_immutable():
    p = x()
    with pytest.raises(AttributeError):
        p.terms = {}


def test_arithmetic_identities():
    p = x() ** 2 + y() * 3 - 1
    q_ = x() * y() - Fraction(1, 2)
    assert p + q_ == q_ + p
    assert p * q_ == q_ * p
    assert p * (q_ + 1) == p * q_ + p
    assert (p - p) == SparsePoly.zero(XY)
    assert -p + p == 0


def test_scalar_mixing():
    p = x() + 1
    assert 2 * p == p * 2
    assert (p * Fraction(1, 3)).terms[(1, 0)] == Fraction(1, 3)
    assert p - 1 == x()


def test_power():
    p = x() + y()
    cube = p ** 3
    assert cube.terms[(2, 1)] == 3
    assert p ** 0 == 1


def test_variable_lists_must_match():
    p = x()
    q_ = SparsePoly.variable("x", ("x", "z"))
    with pytest.raises(ValueError):
        p + q_


def test_graded_lex_string():
    p = x() ** 2 + x() * y() * 2 + y() - 5
    assert str(p) == "x^2 + 2*x*y + y - 5"
    assert str(SparsePoly.zero(XY)) == "0"


def test_leading_term_graded_lex():
    p = x() * y() + x() ** 2 + y() ** 3
    exp, coeff = p.leading_term()
    assert exp == (0, 3) and coeff == 1  # total degree wins first


def test_divmod_and_exact_div():
    d = x() - y()
    p = x() ** 2 - y() ** 2
    quot, rem = p.divmod_by(d)
    assert rem == 0 and quot == x() + y()
    assert p.exact_div(d) == x() + y()
    with pytest.raises(ValueError):
        (x() ** 2 + 1).exact_div(d)


def test_evaluate_rationals():
    p = x() ** 2 + y() * 3
    assert p.evaluate([Fraction(2), Fraction(-1)]) == 1


def test_evaluate_duck_typed():
    # evaluating at polynomials composes
    p = x() ** 2
    inner = x() + y()
    composed = p.evaluate([inner, SparsePoly.zero(XY)], one=SparsePoly.constant(XY, 1))
    assert composed == inner ** 2


def test_subs_signed_swap_and_flip():
    p = x() ** 2 + y() * 3
    swapped = p.subs_signed({0: (1, 1), 1: (0, 1)})
    assert swapped == y() ** 2 + x() * 3
    flipped = p.subs_signed({0: (0, -1), 1: (1, -1)})
    assert flipped == x() ** 2 - y() * 3


def test_with_vars_embedding():
    p = SparsePoly.variable("x", ("x",)) + 2
    lifted = p.with_vars(XY)
    assert lifted == x() + 2


def test_constant_queries():
    assert SparsePoly.zero(XY).degree() == -1


def test_division_stays_exact():
    # a quotient coefficient c / lead is a fraction, never a float
    Y = ("y",)
    quot, rem = SparsePoly(Y, {(2,): 1, (0,): 1}).divmod_by(SparsePoly(Y, {(1,): 3}))
    assert quot.terms == {(1,): Fraction(1, 3)} and rem == 1
    big = 2 ** 60 + 1
    divisor = SparsePoly(Y, {(0,): 1, (1,): -1, (2,): 1})
    quot, rem = SparsePoly(Y, {(0,): big, (1,): -big, (2,): big}).divmod_by(divisor)
    assert quot.terms == {(0,): big} and not rem


def _int_polys(nvars):
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.integers(-50, 50).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=4).map(
        lambda terms: SparsePoly(tuple(f"x{i}" for i in range(nvars)), terms))


def _as_fraction(p):
    return SparsePoly(p.vars, {e: Fraction(c) for e, c in p.terms.items()})


@st.composite
def _int_poly_pairs(draw):
    nvars = draw(st.integers(2, 4))
    return draw(_int_polys(nvars)), draw(_int_polys(nvars)), draw(st.integers(0, 3))


@given(_int_poly_pairs())
@settings(max_examples=150, deadline=None)
def test_integer_and_fraction_coefficients_agree(case):
    p, q_, k = case
    pf, qf = _as_fraction(p), _as_fraction(q_)
    pairs = [(p + q_, pf + qf), (p - q_, pf - qf), (p * q_, pf * qf),
             (-p, -pf), (p ** k, pf ** k),
             *zip(p.divmod_by(q_), pf.divmod_by(qf))]
    for a, b in pairs:
        assert a == b and str(a) == str(b)


@given(_int_poly_pairs())
@settings(max_examples=50, deadline=None)
def test_integer_inputs_keep_integer_coefficients(case):
    # integer data must never pass through Fraction on the ring operations
    p, q_, k = case
    for r in (p + q_, p - q_, p * q_, -p, p ** k, p * 3 + 1):
        assert all(type(c) is int for c in r.terms.values())


def test_ring_operations_do_not_revalidate(monkeypatch):
    # results built from checked polynomials skip the public constructor
    rs = RootSystem("A", 2)
    p = SparsePoly(rs.variables(), {(2, 1, 0): 3, (0, 1, 1): -2})
    q_ = SparsePoly(rs.variables(), {(1, 0, 0): Fraction(1, 2), (0, 0, 3): 5})

    def revalidate(*args, **kwargs):
        raise AssertionError("SparsePoly.__init__ called on a ring operation")

    monkeypatch.setattr(SparsePoly, "__init__", revalidate)
    for r in (p + q_, p - q_, p * q_, -p, divided_difference(rs, 1, p * q_)):
        assert isinstance(r, SparsePoly)


def _dict_product(p, q_):
    """p * q_ as a plain dict, every term of p against every term of q_."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q_.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_product_matches_a_dict_product(data):
    # small exponents and coefficients, so that terms often cancel; one
    # operand short and one long, multiplied in both orders
    nvars = data.draw(st.integers(1, 4))
    names = tuple(f"x{i}" for i in range(nvars))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)
    short = SparsePoly(names, data.draw(st.dictionaries(exps, coeffs, max_size=2)))
    long = SparsePoly(names, data.draw(st.dictionaries(exps, coeffs, min_size=3,
                                                       max_size=8)))
    want = _dict_product(short, long)
    for product in (short * long, long * short):
        assert product.terms == want
        assert {e: type(c) for e, c in product.terms.items()} == {
            e: type(c) for e, c in want.items()}


def test_product_drops_the_terms_that_cancel():
    # (x + y)(x - y): the two xy terms cancel; (x + 1/2)(x - 1/2) likewise
    assert ((x() + y()) * (x() - y())).terms == {(2, 0): 1, (0, 2): -1}
    assert (x() + Fraction(1, 2)) * (x() - Fraction(1, 2)) == P({(2, 0): 1,
                                                                 (0, 0): Fraction(-1, 4)})
