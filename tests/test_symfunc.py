import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.series import bernoulli
from genus_forge.sparsepoly import SparsePoly
from genus_forge.fixedpoints import (all_partitions, check_partition, partition_sort_key,
                                     partition_str, partitions_at_most)
from genus_forge.symfunc import (chi_y_power_series, elementary_sym_poly,
                                 elementary_values, f_lambda_symbolic,
                                 f_lambda_values, genus_polynomials, genus_value,
                                 monomial_sym_eval, monomial_sym_poly,
                                 monomial_to_elementary)


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition((2, 2, 1)) == (2, 2, 1)
    for bad in ([1, 2], [0], [-1], [2, 0]):
        with pytest.raises(ValueError):
            check_partition(bad)


def test_check_partition_messages():
    # a part <= 0 is reported before an increase, wherever each one is
    for bad in ((0, 3), (1, 2, 0)):
        with pytest.raises(ValueError, match="^partition parts must be positive$"):
            check_partition(bad)
    with pytest.raises(ValueError, match="^partition parts must be non-increasing$"):
        check_partition((1, 2))


def test_partitions_at_most_returns_a_fresh_list():
    first = partitions_at_most(6, 3)
    first[0] = (1,) * 6
    first.append((0,))
    assert partitions_at_most(6, 3) == [(6,), (5, 1), (4, 2), (3, 3),
                                        (4, 1, 1), (3, 2, 1), (2, 2, 2)]


def test_partition_enumeration_order():
    # graded reverse-lex: by length, then larger parts first
    assert partitions_at_most(6, 3) == [(6,), (5, 1), (4, 2), (3, 3),
                                        (4, 1, 1), (3, 2, 1), (2, 2, 2)]
    assert all_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_at_most(4, 2) == [(4,), (3, 1), (2, 2)]
    assert sorted(all_partitions(4), key=partition_sort_key) == all_partitions(4)


def test_partition_str():
    assert partition_str((2, 1)) == "[2,1]"
    assert partition_str(()) == "[]"


def test_monomial_sym_eval_bruteforce_value():
    # orbit sum of x^2 y over three values
    assert monomial_sym_eval([(2, 1), (1, 1), (2,)], (1, 2, 3)) == [48, 11, 14]
    # more parts than values is rejected, not silently zero
    with pytest.raises(ValueError):
        monomial_sym_eval([(1, 1)], (5,))
    assert monomial_sym_eval([()], (1, 2)) == [1]


def test_monomial_sym_eval_repeated_parts_no_double_count():
    # m_[1,1](a, b) = ab exactly once
    assert monomial_sym_eval([(1, 1), (2, 2)], (3, 4)) == [12, 144]


def test_monomial_and_elementary_polys_agree_with_eval():
    values = (Fraction(2), Fraction(-1), Fraction(3))
    vs = ("a", "b", "c")
    partitions = [(1,), (2,), (1, 1), (2, 1), (3, 2, 1)]
    for I, value in zip(partitions, monomial_sym_eval(partitions, values)):
        poly = monomial_sym_poly(I, vs)
        assert poly.evaluate(list(values)) == value
    for m in range(4):
        poly = elementary_sym_poly(m, vs)
        assert poly.evaluate(list(values)) == elementary_values(values)[m]


_partitions = st.lists(st.integers(1, 3), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_monomial_sym_eval_matches_reference_over_fractions(data):
    # repeated parts, the empty partition, and I shorter than the values
    I = data.draw(_partitions)
    values = data.draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                                min_size=len(I), max_size=len(I) + 3))
    variables = tuple(f"v{i}" for i in range(len(values)))
    [fast] = monomial_sym_eval([I], values)
    assert isinstance(fast, Fraction)
    assert fast == monomial_sym_poly(I, variables).evaluate(values)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_monomial_sym_eval_matches_reference_over_linear_forms(data):
    xs = ("x1", "x2", "x3")
    I = data.draw(_partitions)
    forms = []
    for _ in range(data.draw(st.integers(len(I), len(I) + 2))):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
        forms.append(SparsePoly(xs, {tuple(int(i == j) for j in range(3)): c
                                     for i, c in enumerate(coeffs)}))
    variables = tuple(f"v{i}" for i in range(len(forms)))
    reference = monomial_sym_poly(I, variables).evaluate(
        forms, one=SparsePoly.constant(xs, 1))
    assert monomial_sym_eval([I], forms) == [reference]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_monomial_sym_eval_batch_matches_one_partition_at_a_time(data):
    # one table for the batch, on root-like linear forms, against one table
    # per partition; batches mix lengths, repeat parts and repeat partitions
    xs = ("x1", "x2", "x3", "x4")
    n = data.draw(st.integers(1, 5))
    forms = []
    for _ in range(n):
        i, j = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        a, b = data.draw(st.sampled_from(((1, -1), (1, 1), (1, 0), (-1, 2))))
        forms.append(SparsePoly(xs, {tuple(int(m == i) for m in range(4)): a,
                                     tuple(int(m == j) for m in range(4)): b}))
    parts = st.lists(st.integers(1, 4), max_size=n).map(
        lambda p: tuple(sorted(p, reverse=True))).filter(lambda p: sum(p) <= 9)
    batch = data.draw(st.lists(parts, min_size=1, max_size=6))
    assert monomial_sym_eval(batch, forms) == [monomial_sym_eval([I], forms)[0]
                                               for I in batch]


def test_elementary_values_running_product():
    vals = elementary_values((1, 2, 3))
    assert vals == [1, 6, 11, 6]  # (1+x)(1+2x)(1+3x)


def _substitute(table, e_values, one):
    """sum of c * e_1^j_1 * ... * e_n^j_n over the {(j_1, ..., j_n): c} table
    of `monomial_to_elementary`, at the values e_1..e_n."""
    total = one * 0
    for exponents, c in table.items():
        term = one * c
        for e, j in zip(e_values, exponents):
            term = term * e ** j if j else term
        total = total + term
    return total


def test_monomial_to_elementary_roundtrip():
    rng = random.Random(11)
    for n in range(1, 5):
        for I in partitions_at_most(4, n):
            if len(I) > n:
                continue
            table = monomial_to_elementary(I, n)
            assert all(len(exp) == n and type(c) is int and c for exp, c in table.items())
            values = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
            e_vals = elementary_values(values)[1:]  # e_1..e_n
            assert [_substitute(table, e_vals, Fraction(1))] == monomial_sym_eval([I], values)
    # the memoized table is shared by every caller, so none can change it
    with pytest.raises(TypeError):
        monomial_to_elementary((2, 1), 2)[(1, 0)] = 0


def test_monomial_to_elementary_substitutes_back_exactly():
    # e_j -> e_j(x_1..x_n) turns the e-expansion of m_I back into m_I itself
    for n in range(1, 6):
        xs = tuple(f"x{i}" for i in range(1, n + 1))
        elem = [elementary_sym_poly(j, xs) for j in range(1, n + 1)]
        one = SparsePoly.constant(xs, 1)
        for k in range(n + 2):
            for I in partitions_at_most(k, n):
                table = monomial_to_elementary(I, n)
                assert _substitute(table, elem, one) == monomial_sym_poly(I, xs), (I, n)


def _symbolic(n):
    """a_0..a_n as the indeterminates a0..an."""
    avars = tuple(f"a{k}" for k in range(n + 1))
    return [SparsePoly.variable(v, avars) for v in avars]


def test_genus_coefficients_must_reach_a_n():
    # a genus is read from its coefficient list a_0..a_m, which must reach a_n
    a = [Fraction(1), Fraction(0), Fraction(1, 12)]
    for fn in (f_lambda_values, genus_polynomials):
        fn(a, 2)
        with pytest.raises(ValueError, match="stops at a_2, need a_3"):
            fn(a, 3)
    sym = _symbolic(3)
    assert sym[0] == SparsePoly.variable("a0", ("a0", "a1", "a2", "a3"))
    with pytest.raises(ValueError, match="stops at a_3, need a_4"):
        f_lambda_values(sym, 4)


def test_genus_polynomials_low_degrees():
    # universal: Q_1 = a0*y1, and the quadratic coefficients
    a = _symbolic(2)
    f = f_lambda_values(a, 2)
    assert f[(1, 1)] == a[0] * a[2]
    assert f[(2,)] == a[1] * a[1] - a[0] * a[2] * 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_f_lambda_values_expand_the_weight_n_part(data):
    # sum over lambda of f_lambda * e_lambda(x) is the t^n coefficient of
    # prod_i Q(x_i t), with Q(z) = a_0 + a_1 z + ... + a_n z^n
    n = data.draw(st.integers(1, 5))
    fractions = st.fractions(-4, 4, max_denominator=5)
    a = data.draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))
    x = data.draw(st.lists(fractions, min_size=n, max_size=n))

    def times(p, q):  # product of two ascending coefficient lists
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, u in enumerate(p):
            for j, v in enumerate(q):
                out[i + j] += u * v
        return out

    product, elem = [Fraction(1)], [Fraction(1)]
    for xi in x:
        product = times(product, [a[k] * xi ** k for k in range(n + 1)])
        elem = times(elem, [Fraction(1), xi])  # e_j(x) is the t^j coefficient
    total = Fraction(0)
    for lam, f in f_lambda_values(a, n).items():
        e_lam = Fraction(1)
        for part in lam:
            e_lam *= elem[part]
        total += f * e_lam
    assert total == product[n]


def test_genus_polynomials_todd_at_degree_three():
    # Todd: Q_1 = c1/2, Q_2 = (c1^2 + c2)/12, Q_3 = c1 c2/24; doubling every
    # a_k multiplies Q_1..Q_3 by 2^3, which takes the a_0^(n-k) factor
    todd = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0)]
    assert [str(q) for q in genus_polynomials(todd, 3)] == [
        "1/2*y1", "1/12*y1^2 + 1/12*y2", "1/24*y1*y2"]
    doubled = [Fraction(2), Fraction(1), Fraction(1, 6), Fraction(0)]
    assert [str(q) for q in genus_polynomials(doubled, 3)] == [
        "4*y1", "2/3*y1^2 + 2/3*y2", "1/3*y1*y2"]


def test_f_lambda_symbolic_matches_values():
    n = 3
    table = f_lambda_symbolic(n)
    a = _symbolic(n)
    values = f_lambda_values(a, n)
    assert set(table) == set(values)
    # the symbolic table uses variables a0..an; evaluating them at the
    # symbolic coefficients themselves must reproduce values
    for I, poly in table.items():
        evaluated = poly.evaluate(a, one=a[0] * 0 + 1)
        assert evaluated == values[I]


def test_genus_value_and_missing_chern():
    a = chi_y_power_series(4)
    chern = {(1, 1): 9, (2,): 3}
    chi = genus_value(a, chern, 2)
    y = SparsePoly.variable("y", ("y",))
    assert chi == y ** 2 - y + 1
    with pytest.raises(ValueError, match=r"\[1,1\]"):
        genus_value(a, {(2,): 3}, 2)


def test_chi_y_euler_and_signature_specials():
    # chi_y of projective space: at y = -1 the Euler number n+1
    a = chi_y_power_series(6)
    # CP^3 chern numbers
    chern = {(1, 1, 1): 64, (2, 1): 24, (3,): 4}
    chi = genus_value(a, chern, 3)
    assert chi.evaluate([Fraction(-1)]) == 4
    # CP^3: chi_y = -y^3 + y^2 - y + 1
    y = SparsePoly.variable("y", ("y",))
    assert chi == -y ** 3 + y ** 2 - y + 1


def test_chi_y_degree_bound():
    for coeff in chi_y_power_series(5):
        assert coeff.degree() <= 1  # a_k is linear in y


def test_chi_y_series_matches_the_bernoulli_convolution():
    # x(1 + y e^-x)/(1 - e^-x) = (x/(e^x - 1)) e^x + y x/(e^x - 1), so the
    # y^0 part of a_k is the convolution sum_{m<=k} B_m/(m! (k-m)!)
    want = [SparsePoly(("y",), {
                (0,): sum(bernoulli(m) / (factorial(m) * factorial(k - m))
                          for m in range(k + 1)),
                (1,): bernoulli(k) / factorial(k)})
            for k in range(13)]
    assert chi_y_power_series(12) == want


def test_genus_coefficients_are_read_not_changed():
    # the coefficient list is read, never changed, and a tuple works alike
    a = _symbolic(2)
    before = list(a)
    f_lambda_values(a, 2)
    genus_polynomials(a, 2)
    genus_value(a, {(1, 1): 9, (2,): 3}, 2)
    assert a == before
    assert f_lambda_values(tuple(a), 2) == f_lambda_values(a, 2)
