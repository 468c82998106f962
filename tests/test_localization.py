import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge import fixedpoints, localization, modular, series
from genus_forge.coadjoint import (OrbitSpec, RootSystem, grassmannian_orbit,
                                   orbit_fixed_points)
from genus_forge.localization import (FixedPointData, Relation,
                                      build_relation, build_relations, chern_number,
                                      chi_y_from_counts, cpn_fixed_points,
                                      cpn_hilbert_closed_form, divides_chi_y,
                                      eisenstein_product, equivariant_index_limit,
                                      general_relation_cpn, genus_qexp,
                                      genus_via_chern, hilbert_polynomial,
                                      product_fixed_points,
                                      random_product_of_projective_spaces,
                                      relation_coefficient, relation_coefficients,
                                      verify_relation)
from genus_forge.series import TruncSeries
from genus_forge.sparsepoly import SparsePoly
from genus_forge.fixedpoints import partitions_at_most
from genus_forge.symfunc import monomial_sym_poly


def test_cpn_fixed_points_shape():
    fpd = cpn_fixed_points(2, (1, 2))
    assert fpd.points == ((1, 2), (-1, 1), (-1, -2))
    assert fpd.asserted_index == 3
    assert fpd.labels == ("P0", "P1", "P2")


def test_fixed_point_validation():
    with pytest.raises(ValueError):
        cpn_fixed_points(2, (1, 1))       # repeated weight
    with pytest.raises(ValueError):
        cpn_fixed_points(2, (0, 1))       # zero weight
    # FixedPointData checks itself as it is built, not at first use
    with pytest.raises(ValueError, match="zero weight"):
        FixedPointData(2, [(1, 0), (-1, 2)])
    with pytest.raises(ValueError, match="expected 2 weights"):
        FixedPointData(2, [(1,)], ["P"])  # wrong arity
    with pytest.raises(ValueError, match="label list"):
        FixedPointData(1, [(1,), (2,)], ["P"])  # label count
    with pytest.raises(ValueError, match="no fixed points"):
        FixedPointData(1, [])


def test_fixed_point_data_is_immutable():
    fpd = cpn_fixed_points(2, (1, 3))
    for name, value in (("points", [(0, 1)]), ("labels", ["A"]), ("n", 3),
                        ("asserted_index", 2)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(fpd, name, value)
    with pytest.raises((AttributeError, TypeError)):
        fpd.points.append((1, 1))
    with pytest.raises(TypeError):
        fpd.points[0] = (0, 1)
    with pytest.raises(TypeError):
        fpd.labels[0] = "A"
    # the data still reads as it was checked
    assert fpd.points == ((1, 3), (-1, 2), (-2, -3))
    assert chern_number(fpd, (2,)) == 3


def test_cp2_chern_numbers():
    fpd = cpn_fixed_points(2, (1, 2))
    assert chern_number(fpd, (1, 1)) == 9
    assert chern_number(fpd, (2,)) == 3
    # weight-independence of genuine Chern numbers
    for ws in ((1, 3), (2, 5), (-1, 4)):
        other = cpn_fixed_points(2, ws)
        assert chern_number(other, (1, 1)) == 9
        assert chern_number(other, (2,)) == 3


def test_cp3_chern_numbers():
    fpd = cpn_fixed_points(3, (1, 2, 4))
    assert chern_number(fpd, (1, 1, 1)) == 64
    assert chern_number(fpd, (2, 1)) == 24
    assert chern_number(fpd, (3,)) == 4


def test_chern_number_integrality_guard():
    bad = FixedPointData(2, [(1, 2)], ["pt"])
    with pytest.raises(ArithmeticError, match="integrality"):
        chern_number(bad, (1, 1))


def test_chi_y_from_counts():
    fpd = cpn_fixed_points(2, (1, 2))
    y = SparsePoly.variable("y", ("y",))
    assert chi_y_from_counts(fpd) == y ** 2 - y + 1
    fpd3 = cpn_fixed_points(3, (1, 2, 4))
    assert chi_y_from_counts(fpd3) == -y ** 3 + y ** 2 - y + 1


def test_degree_vanishing_on_manifold_models():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        fpd = random_product_of_projective_spaces(rng, n)
        for k in range(n):
            for I in partitions_at_most(k, n):
                assert relation_coefficient(fpd, I) == 0


def test_asserted_index_divides_the_index_bound_on_manifold_models():
    # a manifold's index divides g, the gcd of W(P) - W(P_0) over the gcd of
    # all weights; on CP^n, g = n + 1 whatever the weights
    assert [cpn_fixed_points(n, range(1, n + 1)).index_bound() for n in (3, 4, 7)] == [4, 5, 8]
    assert cpn_fixed_points(3, (2, 4, 6)).index_bound() == 4
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 6)
        weights = rng.sample([w for w in range(-9, 10) if w], n)
        for fpd in (random_product_of_projective_spaces(rng, n), cpn_fixed_points(n, weights)):
            assert fpd.index_bound() % fpd.asserted_index == 0, fpd.points


def test_degree_vanishing_fails_on_non_manifold_data():
    # single fixed point: not a closed manifold; the sum is honestly nonzero
    data = FixedPointData(2, [(1, 2)], ["pt"])
    assert relation_coefficient(data, (1,)) == Fraction(3, 2)


def test_top_degree_weight_independence():
    for ws in ((1, 2), (1, 3), (2, 7)):
        fpd = cpn_fixed_points(2, ws)
        assert relation_coefficient(fpd, (2,)) == 3
        assert relation_coefficient(fpd, (1, 1)) == 3


_weight = st.integers(-9, 9).filter(bool)


@given(st.data(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_relation_coefficients_match_the_monomial_polynomial(data, n):
    # any nonzero weights, manifold or not: the table is plain arithmetic
    points = data.draw(st.lists(st.lists(_weight, min_size=n, max_size=n),
                                min_size=1, max_size=4))
    parts = st.lists(st.integers(1, 4), max_size=n).map(
        lambda p: tuple(sorted(p, reverse=True))).filter(lambda p: sum(p) <= 9)
    batch = data.draw(st.lists(parts, min_size=1, max_size=8))
    fpd = FixedPointData(n, points)
    vs = tuple(f"w{i}" for i in range(n))
    want = [sum((monomial_sym_poly(I, vs).evaluate([Fraction(w) for w in p])
                 / prod(p) for p in points), Fraction(0)) for I in batch]
    assert relation_coefficients(fpd, batch) == want
    assert [relation_coefficient(fpd, I) for I in batch] == want


def _brute_force_q(fpd, I):
    """q_I as the sum over P of m_I(w(P)) / prod w(P), with m_I summed over
    the distinct rearrangements of I padded with zeros."""
    exponents = set(permutations(I + (0,) * (fpd.n - len(I))))
    return sum((Fraction(sum(prod(w ** e for w, e in zip(p, exp)) for exp in exponents),
                         prod(p)) for p in fpd.points), Fraction(0))


@pytest.mark.parametrize("seed", range(8))
def test_relation_coefficients_match_a_brute_force_sum(seed):
    # one batch (with a repeated partition) in two orders on one manifold,
    # then the first order again on a second manifold of the same n, which
    # reuses the first call's memoized schedule
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    first, second = (random_product_of_projective_spaces(rng, n) for _ in range(2))
    batch = [I for k in range(n + 4) for I in partitions_at_most(k, n)]
    batch.append(rng.choice(batch))
    shuffled = rng.sample(batch, len(batch))
    for fpd, parts in ((first, batch), (first, shuffled)):
        assert relation_coefficients(fpd, parts) == [_brute_force_q(fpd, I) for I in parts]
    hits = fixedpoints._table_steps.cache_info().hits
    assert relation_coefficients(second, batch) == [_brute_force_q(second, I)
                                                    for I in batch]
    assert fixedpoints._table_steps.cache_info().hits == hits + 1


def test_relation_coefficients_reject_long_partitions():
    with pytest.raises(ValueError, match="more parts"):
        relation_coefficients(cpn_fixed_points(2, (1, 3)), [(2,), (1, 1, 1)])
    assert relation_coefficients(cpn_fixed_points(2, (1, 3)), []) == []


def test_build_relations_match_one_relation_at_a_time():
    fpd = cpn_fixed_points(3, (1, -4, 6))
    together = build_relations(fpd, 2, range(3, 9))
    assert [rel.k for rel in together] == list(range(3, 9))
    for rel in together:
        alone = build_relation(fpd, 2, rel.k)
        assert rel.to_json() == alone.to_json()
        assert rel.terms == [(I, relation_coefficient(fpd, I))
                             for I in partitions_at_most(rel.k, 3)]
    with pytest.raises(ValueError, match="below localization degree"):
        build_relations(fpd, 2, [4, 2])


def test_relation_above_top_degree_depends_on_weights():
    a = relation_coefficient(cpn_fixed_points(2, (1, 2)), (2, 2))
    b = relation_coefficient(cpn_fixed_points(2, (1, 3)), (2, 2))
    assert a == 3 and b == 7   # only the primitive relation is invariant


def test_build_relation_guards():
    fpd = cpn_fixed_points(2, (1, 2))
    with pytest.raises(ValueError, match="below localization degree"):
        build_relation(fpd, 3, 1)
    with pytest.raises(ValueError, match="does not divide"):
        build_relation(fpd, 2, 4)


def test_build_relation_applies_the_whole_level_rule():
    # without an asserted index, g = 3 on CP^2 with weights 1, 3 still
    # refutes level 2, as the relations and hilbert subcommands do
    fpd = FixedPointData(2, cpn_fixed_points(2, (1, 3)).points)
    with pytest.raises(ValueError, match="^N=2 does not divide g = 3, "):
        build_relation(fpd, 2, 3)
    assert build_relation(fpd, 3, 3).N == 3


def test_cp2_relation_displays_and_verification():
    fpd = cpn_fixed_points(2, (1, 3))
    displays = {
        4: "4*G[1,3]*G[3,3] + G[2,3]^2 + 5*G[4,3] = 0",
        5: "-G[2,3]*G[3,3] + G[5,3] = 0",
        6: "4*G[1,3]*G[5,3] + 2*G[2,3]*G[4,3] + G[3,3]^2 + 7*G[6,3] = 0",
        7: "-G[2,3]*G[5,3] - G[3,3]*G[4,3] + 2*G[7,3] = 0",
    }
    for k, display in displays.items():
        rel = build_relation(fpd, 3, k).primitive()
        assert rel.render() == display
        assert not verify_relation(rel, 12)


def test_cp1_relation():
    fpd = cpn_fixed_points(1, (5,))
    rel = build_relation(fpd, 2, 3).primitive()
    assert rel.render() == "G[3,2] = 0"
    assert not verify_relation(rel, 12)


def test_primitive_normalization():
    rel = Relation(2, 4, 3, [((4,), Fraction(-10)), ((3, 1), Fraction(-5))],
                   provenance="test")
    prim = rel.primitive()
    assert dict(prim.terms) == {(4,): 2, (3, 1): 1}


def test_perturbed_relation_fails_verification():
    fpd = cpn_fixed_points(2, (1, 3))
    rel = build_relation(fpd, 3, 4).primitive()
    broken = Relation(rel.n, rel.k, rel.N,
                      [(I, c + (1 if I == (4,) else 0)) for I, c in rel.terms],
                      provenance=rel.provenance)
    residual = verify_relation(broken, 8)
    assert residual
    assert residual != 0
    # G[4,3] has constant term B_4/4! = -1/720, the first nonzero coefficient
    assert residual.valuation() == 0
    assert str(residual.coeff(0)) == "(-1/720) @ Q(zeta_3)"
    assert str(residual).startswith("-1/720 + ")
    # G[3,3] has no constant term, so G[1,3]*G[3,3] first shows at q^1
    broken = Relation(rel.n, rel.k, rel.N,
                      [(I, c + (1 if I == (3, 1) else 0)) for I, c in rel.terms],
                      provenance=rel.provenance)
    residual = verify_relation(broken, 8)
    assert residual.valuation() == 1
    assert str(residual.coeff(1)) == "(-1/4) @ Q(zeta_3)"
    assert str(residual).startswith("-1/4*q - 9/4*q^2")


def test_eisenstein_product_degree():
    # product of G over the parts, as a q-series
    series = eisenstein_product((2, 1), 3, 6)
    single = eisenstein_product((3,), 3, 6)
    assert series.cutoff == single.cutoff == 6


def test_genus_two_routes_agree_nonvanishing():
    # level 2 on CP^2 (2 does not divide 3): nonzero genus, two routes
    fpd = cpn_fixed_points(2, (1, 2))
    a = genus_qexp(fpd, 2, 10)
    b = genus_via_chern(fpd, 2, 10)
    for k in range(10):
        assert a.coeff(k) == b.coeff(k)
    assert a.coeff(0) == Fraction(1, 4)


@pytest.mark.parametrize("fpd, N", [
    (cpn_fixed_points(5, (1, 2, 3, 4, 5)), 4),
    # CP^2 x CP^4 has index gcd(3, 5) = 1, and its level-2 genus is nonzero
    (product_fixed_points(cpn_fixed_points(2, (1, 3)),
                          cpn_fixed_points(4, (1, 2, 5, -3))), 2),
])
def test_genus_two_routes_agree_in_dimensions_five_and_six(fpd, N):
    a = genus_qexp(fpd, N, 8)
    assert a
    assert a == genus_via_chern(fpd, N, 8)


def test_genus_two_routes_agree_at_the_dimension_cap():
    # CP^7 at level 3 (3 does not divide 8): nonzero genus, n = 7 as in the cap
    fpd = cpn_fixed_points(7, (1, 2, 3, 4, 5, 6, 7))
    a = genus_qexp(fpd, 3, 6)
    assert a
    assert a == genus_via_chern(fpd, 3, 6)


def test_genus_vanishes_at_dividing_level():
    for n, N in ((1, 2), (2, 3), (3, 2), (3, 4)):
        fpd = cpn_fixed_points(n, tuple(range(1, n + 1)))
        series = genus_qexp(fpd, N, 10)
        assert all(series.coeff(k) == 0 for k in range(10))


def test_equivariant_index_limit_counts_sections():
    # CP^1 degree-k line bundle: k+1 sections
    fpd = cpn_fixed_points(1, (1,))
    for k in (1, 2, 5):
        # ind(O(k)) localizes to t^0/(1-t^-w) + t^-k/(1-t^w); limit t->1 is k+1
        value = equivariant_index_limit(fpd, [[(Fraction(0), Fraction(1))],
                                              [(Fraction(-k), Fraction(1))]])
        assert value == k + 1


def test_equivariant_index_limit_pole_detection():
    data = FixedPointData(1, [(1,)], ["pt"])
    with pytest.raises(ArithmeticError, match="pole at t=1"):
        equivariant_index_limit(data, [[(Fraction(0), Fraction(1))]])


@pytest.mark.parametrize("n", [2, 3])
def test_equivariant_index_limit_pole_of_every_order(n):
    # sum_P 1/prod_j(1 - t^-w_j(P)) is the index of the trivial bundle, 1;
    # adding (1 - t)^(n - j) at one point adds a pole of order exactly j
    fpd = cpn_fixed_points(n, tuple(range(1, n + 1)))
    numerators = [[(Fraction(0), Fraction(1))] for _ in fpd.points]
    assert equivariant_index_limit(fpd, numerators) == 1
    for j in range(1, n + 1):
        bad = [list(terms) for terms in numerators]
        bad[1] += [(Fraction(i), Fraction((-1) ** i * comb(n - j, i)))
                   for i in range(n - j + 1)]
        with pytest.raises(ArithmeticError, match="pole at t=1"):
            equivariant_index_limit(fpd, bad)


def test_hilbert_polynomials_match_closed_forms():
    for n in (1, 2, 3):
        fpd = cpn_fixed_points(n, tuple(range(1, n + 1)))
        for m in range(n + 1):
            h = hilbert_polynomial(fpd, n + 1, m)
            assert h == cpn_hilbert_closed_form(n, m)
            assert h.evaluate([Fraction(0)]) == (-1) ** m


def test_hilbert_polynomials_do_not_depend_on_the_weights():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(3):
            weights = rng.sample([w for w in range(-9, 10) if w], n)
            fpd = cpn_fixed_points(n, weights)
            for m in range(n + 1):
                assert hilbert_polynomial(fpd, n + 1, m) == cpn_hilbert_closed_form(n, m)


# Q^3, Q^5, Gr(2,4), the A2 full flags and CP^3, each with its index
_INDEXED_DATA = {
    "Q3": (orbit_fixed_points(grassmannian_orbit(2), (5, 2)), 3),
    "Q5": (orbit_fixed_points(grassmannian_orbit(3), (7, 3, 1)), 5),
    "Gr24": (orbit_fixed_points(OrbitSpec(RootSystem("A", 3), (1, 3)), (4, -2, 1, 7)), 4),
    "A2flags": (orbit_fixed_points(OrbitSpec(RootSystem("A", 2), ()), (1, 5, -3)), 2),
    "CP3": (cpn_fixed_points(3, (1, 2, 5)), 4),
}


def _hilbert_numerators(fpd, N, m, k):
    """t^(-k W(P)/N) e_m(t^-w_1, ..., t^-w_n) at each fixed point P."""
    return [[(Fraction(-k * sum(weights), N) - sum(c), 1) for c in combinations(weights, m)]
            for weights in fpd.points]


_HILBERT_DIFF_DATA = {
    **{f"product-n{n}-seed{seed}": random_product_of_projective_spaces(random.Random(seed), n)
       for seed, n in ((1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4))},
    **{name: _INDEXED_DATA[name][0] for name in ("Q3", "Q5", "Gr24", "A2flags")},
    "non-manifold": FixedPointData(2, [(1, 2), (-1, 3), (2, -5)]),
}


@pytest.mark.parametrize("name", sorted(_HILBERT_DIFF_DATA))
def test_hilbert_polynomial_matches_the_pointwise_limit(name):
    fpd = _HILBERT_DIFF_DATA[name]
    # the pointwise limit at k = -2..n+3 is the reference; where it has a
    # pole at some k, the polynomial route must refuse the whole H_m
    ks = range(-2, fpd.n + 4)
    for N in range(1, 5):
        for m in range(fpd.n + 1):
            values = {}
            for k in ks:
                try:
                    values[k] = equivariant_index_limit(fpd, _hilbert_numerators(fpd, N, m, k))
                except ArithmeticError as exc:
                    assert "pole at t=1" in str(exc)
            try:
                h = hilbert_polynomial(fpd, N, m)
            except ArithmeticError as exc:
                assert "pole at t=1" in str(exc)
                assert len(values) < len(ks)
            else:
                assert values == {k: h.evaluate([Fraction(k)]) for k in ks}


@pytest.mark.parametrize("name", sorted(_INDEXED_DATA))
def test_hilbert_polynomial_vanishes_below_the_index(name):
    # rigidity: with N the index, H_0(0) = 1 and H_0(j) = 0 for j = 1..N-1
    fpd, N = _INDEXED_DATA[name]
    h = hilbert_polynomial(fpd, N, 0)
    assert [h.evaluate([Fraction(j)]) for j in range(N)] == [1] + [0] * (N - 1)


@pytest.mark.parametrize("m", [0, 1])
def test_hilbert_polynomial_pole_detection(m):
    with pytest.raises(ArithmeticError, match="pole at t=1"):
        hilbert_polynomial(FixedPointData(1, [(1,)]), 1, m)


def test_hilbert_builds_each_unit_series_once(monkeypatch):
    # the unit factor of a point does not depend on m: one build per point,
    # each a product of Todd series with no series inverted
    localization._unit_factor.cache_clear()
    inverses = []
    inverse = TruncSeries.inverse
    monkeypatch.setattr(TruncSeries, "inverse",
                        lambda self: inverses.append(1) or inverse(self))
    fpd = cpn_fixed_points(4, (1, 3, -2, 7))
    for m in range(5):
        assert hilbert_polynomial(fpd, 5, m) == cpn_hilbert_closed_form(4, m)
    assert localization._unit_factor.cache_info().misses == len(fpd.points)
    assert inverses == []


def _unit_factor_by_inverse(weights, order):
    """s^n / prod_j (1 - e^(-w_j s)) as 1 / (prod_j w_j * unit), with
    1 - e^(-w s) = w s * sum_m (-w s)^m / (m+1)!: the construction before
    the Todd coefficients."""
    unit = TruncSeries("s", {0: Fraction(1)}, cutoff=order)
    for w in weights:
        unit = unit * TruncSeries(
            "s", {m: Fraction((-w) ** m, factorial(m + 1)) for m in range(order)},
            cutoff=order)
    return unit.inverse() * Fraction(1, prod(weights))


def _localized_term_by_exp_sum(weights, terms, order):
    """The numerator as a sum of series c * e^(a s), times the unit factor
    above."""
    num = TruncSeries.zero("s", order)
    for a, c in terms:
        num = num + TruncSeries("s", {j: Fraction(a) ** j / factorial(j)
                                      for j in range(order)}, cutoff=order) * c
    return num * _unit_factor_by_inverse(weights, order)


_exponent = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=7),
       st.integers(1, 9), st.lists(st.tuples(_exponent, _exponent), max_size=4))
@settings(max_examples=80, deadline=None)
def test_unit_factor_and_localized_term_match_the_inverse_construction(weights, order,
                                                                       terms):
    weights = tuple(weights)
    assert localization._unit_factor(weights, order) == _unit_factor_by_inverse(
        weights, order)
    assert (localization._localized_term(weights, terms, order)
            == _localized_term_by_exp_sum(weights, terms, order))


def test_hilbert_closed_form_samples():
    # CP^2: H_0(x) = (x^2 - 3x + 2)/2, H_1 = x^2 - 1
    h0 = cpn_hilbert_closed_form(2, 0)
    assert h0.evaluate([Fraction(3)]) == 1  # O(3) twisted: (3-1)(3-2)/2
    h1 = cpn_hilbert_closed_form(2, 1)
    assert h1 == SparsePoly(("x",), {(2,): 1, (0,): -1})


def test_divides_chi_y():
    y = SparsePoly.variable("y", ("y",))
    chi = y ** 2 - y + 1
    report = divides_chi_y(chi, 3)
    assert report["divisible"] and report["quotient"] == 1
    report = divides_chi_y(chi + 1, 3)
    assert not report["divisible"]


def test_general_relation_report():
    [report] = general_relation_cpn(2, 3, [4], 10)
    assert report["ok"] and report["zero_index_convention"] == "G_0 = 1"


def test_general_relation_failure_keeps_the_convention(monkeypatch):
    # a wrong G[1,3] breaks the identity; the report says so, with the
    # first exponent where the sides differ and both whole sides, and names
    # no convention but G_0 = 1
    real = modular.eisenstein_qexp
    monkeypatch.setattr(modular, "eisenstein_qexp",
                        lambda k, N, prec: real(k, N, prec) + (k == 1))
    [report] = general_relation_cpn(2, 3, [4], 10)
    assert not report["ok"] and report["zero_index_convention"] == "G_0 = 1"
    assert report["first_mismatch"] == {"exponent": 1, "lhs": "(-1 - 2*z) @ Q(zeta_3)",
                                        "rhs": "(1 + 2*z) @ Q(zeta_3)"}
    assert list(report).index("first_mismatch") < list(report).index("lhs")
    assert report["lhs"] == (
        "-1/240 + (-1 - 2*z)*q + (-3 - 6*z)*q^2 + (-10 - 18*z)*q^3"
        " + (-13 - 26*z)*q^4 + (-24 - 48*z)*q^5 + (-36 - 54*z)*q^6"
        " + (-50 - 100*z)*q^7 + (-51 - 102*z)*q^8 + (-109 - 162*z)*q^9 + O(q^10)")
    assert report["rhs"] == (
        "-1/240 + (1 + 2*z)*q + (3 + 6*z)*q^2 + (8 + 18*z)*q^3"
        " + (13 + 26*z)*q^4 + (24 + 48*z)*q^5 + (18 + 54*z)*q^6"
        " + (50 + 100*z)*q^7 + (51 + 102*z)*q^8 + (53 + 162*z)*q^9 + O(q^10)")


@pytest.mark.parametrize("n,N,ks", [(2, 3, []), (2, 3, [3, 1]), (2, 1, [2]),
                                    (2, 2, [2])])
def test_general_relation_refuses_before_building_a_series(monkeypatch, n, N, ks):
    def no_series(*args):
        raise AssertionError("series built before the arguments were checked")

    monkeypatch.setattr(modular, "eisenstein_qexp", no_series)
    monkeypatch.setattr(series, "TruncSeries", no_series)
    with pytest.raises(ValueError):
        general_relation_cpn(n, N, ks, 10)


@pytest.mark.parametrize("n,N", [(4, 5), (5, 2), (5, 3), (5, 6), (6, 7)])
def test_general_relation_beyond_the_selftest_levels(n, N):
    reports = general_relation_cpn(n, N, range(n, n + 5), 15)
    assert [report["k"] for report in reports] == list(range(n, n + 5))
    for report in reports:
        assert report["ok"], (n, N, report["k"])


def test_product_fixed_points():
    a = cpn_fixed_points(1, (1,))
    b = cpn_fixed_points(1, (2,))
    prod = product_fixed_points(a, b)
    assert prod.n == 2
    assert len(prod.points) == 4
    assert prod.asserted_index == 2  # gcd(2, 2)
    assert sorted(prod.points) == sorted([(1, 2), (1, -2), (-1, 2), (-1, -2)])


def test_random_products_are_valid():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        fpd = random_product_of_projective_spaces(rng, n)
        fpd.validate()
        assert fpd.n == n
        # factor weights are drawn in [-9, 9]; point weights are differences
        assert all(isinstance(w, int) and w and abs(w) <= 18
                   for p in fpd.points for w in p)


def test_fixed_point_json_roundtrip():
    fpd = cpn_fixed_points(2, (1, 3))
    back = FixedPointData.from_json(json.loads(json.dumps(fpd.to_json())))
    assert back.points == fpd.points
    assert back.labels == fpd.labels
    assert back.asserted_index == fpd.asserted_index


def test_relation_json_roundtrip():
    rel = build_relation(cpn_fixed_points(2, (1, 3)), 3, 5).primitive()
    assert json.loads(json.dumps(rel.to_json())) == {
        "n": 2, "k": 5, "N": 3,
        "terms": [{"partition": [5], "coefficient": "1"},
                  {"partition": [4, 1], "coefficient": "0"},
                  {"partition": [3, 2], "coefficient": "-1"}],
        "provenance": "3 fixed points, n=2, asserted index 3; "
                      "index 3 divisible by N=3; primitive"}
    assert rel.render() == "-G[2,3]*G[3,3] + G[5,3] = 0"
