import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.coadjoint import (OrbitSpec, RootSystem, WeylElement,
                                   cpn_orbit, crosscheck_qI, divided_difference,
                                   divided_difference_word, grassmannian_orbit,
                                   orbit_fixed_points, q_I_via_divided_diff,
                                   weyl_group)
from genus_forge.localization import cpn_fixed_points, relation_coefficient
from genus_forge.sparsepoly import SparsePoly
from genus_forge.symfunc import monomial_sym_eval, partitions_at_most


def _poly_degree(poly):
    return max((sum(exp) for exp in poly.terms), default=0)


def test_group_orders():
    assert len(weyl_group(RootSystem("A", 1))) == 2
    assert len(weyl_group(RootSystem("A", 2))) == 6
    assert len(weyl_group(RootSystem("A", 3))) == 24
    assert len(weyl_group(RootSystem("B", 2))) == 8
    assert len(weyl_group(RootSystem("B", 3))) == 48


def test_root_counts():
    assert len(RootSystem("A", 2).positive_roots()) == 3
    assert len(RootSystem("B", 2).positive_roots()) == 4
    assert len(RootSystem("B", 3).positive_roots()) == 9


def test_root_coefficients_are_prefix_sums():
    # the orbit's root supports rest on this: in types A and B the coefficient
    # of simple root k in a positive root is the prefix sum r_1 + ... + r_k
    for rs in [RootSystem("A", m) for m in range(1, 8)] + [
            RootSystem("B", m) for m in range(1, 7)]:
        simples = rs.simple_roots()
        for root in rs.positive_roots():
            c = [sum(root[:k]) for k in range(1, rs.rank + 1)]
            assert min(c) >= 0
            rebuilt = tuple(sum(ck * alpha[i] for ck, alpha in zip(c, simples))
                            for i in range(rs.dim))
            assert rebuilt == root


def test_root_system_validation():
    with pytest.raises(ValueError):
        RootSystem("C", 2)
    with pytest.raises(ValueError):
        RootSystem("A", 0)


def test_word_recovery_roundtrip():
    for rs in (RootSystem("B", 2), RootSystem("A", 3), RootSystem("A", 4),
               RootSystem("B", 3)):
        for el in weyl_group(rs):
            assert len(el.word) == el.length()
            acc = WeylElement.identity(rs)
            for j in el.word:
                acc = acc.compose(WeylElement.simple(rs, j))
            assert acc.images == el.images


def test_coset_representatives():
    # W^J: |W| / |W_J| distinct elements with no right descent in J, ordered
    # by length and then by images, each with the reduced word that ends in
    # its smallest right descent and, without that letter, is the word of
    # w * s_last
    for rs in [RootSystem("A", m) for m in range(1, 6)] + [
            RootSystem("B", m) for m in range(1, 5)]:
        group = weyl_group(rs)
        simples = [WeylElement.simple(rs, j) for j in range(1, rs.rank + 1)]
        word = {w.images: w.word for w in group}
        length = {w.images: w.length() for w in group}
        descents = {w.images: [j for j, s in enumerate(simples, start=1)
                               if length[w.compose(s).images] < length[w.images]]
                    for w in group}
        for w in group:
            assert len(w.word) == length[w.images]
            acc = WeylElement.identity(rs)
            for j in w.word:
                acc = acc.compose(simples[j - 1])
            assert acc.images == w.images
            if w.word:
                last = w.word[-1]
                assert last == min(descents[w.images])
                assert word[w.compose(simples[last - 1]).images] == w.word[:-1]
        for size in range(rs.rank + 1):
            for J in itertools.combinations(range(1, rs.rank + 1), size):
                reps = weyl_group(rs, J)
                W_J = [w for w in group if set(w.word) <= set(J)]
                assert len(reps) == len(group) // len(W_J)
                for w in reps:
                    assert w.word == word[w.images]
                    assert not set(descents[w.images]) & set(J)
                keys = [(length[w.images], w.images) for w in reps]
                assert keys == sorted(set(keys))


def test_orbit_builds_only_its_cosets(monkeypatch):
    # CP^6 has 7 fixed points; listing all of W(A6) built 33 897 elements
    built = []
    init = WeylElement.__init__
    monkeypatch.setattr(WeylElement, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    orbit = cpn_orbit(6)
    assert [w.label() for w in orbit.cosets] == ["e"] + [
        "*".join(f"s{j}" for j in range(k, 0, -1)) for k in range(1, 7)]
    assert len(built) <= 100


def test_divided_differences_reuse_the_simple_reflections(monkeypatch):
    # each divided difference used to build s_j afresh: 44 elements here; in
    # closed form they build none, and the orbit builds its cosets and the
    # identity it grows them from
    built = []
    init = WeylElement.__init__
    monkeypatch.setattr(WeylElement, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    orbit = cpn_orbit(4)
    partitions = [I for k in (orbit.n, orbit.n + 1) for I in partitions_at_most(k, orbit.n)]
    for report in crosscheck_qI(orbit, partitions, (5, 1, -2, 3, -4)):
        assert report["ok"]
    assert len(built) == len(orbit.cosets) + 1
    with pytest.raises(ValueError):
        divided_difference(orbit.rs, 0, SparsePoly.zero(orbit.rs.variables()))


def test_divided_difference_squares_to_zero():
    rs = RootSystem("A", 2)
    P = SparsePoly.variable("x1", rs.variables()) ** 3
    once = divided_difference(rs, 1, P)
    assert divided_difference(rs, 1, once) == SparsePoly.zero(rs.variables())


def test_divided_difference_braid_independence():
    # s1 s2 s1 == s2 s1 s2 in A2, so the composite operators must agree
    rs = RootSystem("A", 2)
    a = WeylElement.simple(rs, 1).compose(
        WeylElement.simple(rs, 2)).compose(WeylElement.simple(rs, 1))
    b = WeylElement.simple(rs, 2).compose(
        WeylElement.simple(rs, 1)).compose(WeylElement.simple(rs, 2))
    assert a == b
    x1 = SparsePoly.variable("x1", rs.variables())
    x2 = SparsePoly.variable("x2", rs.variables())
    P = x1 ** 4 + x1 ** 2 * x2 ** 2
    assert (divided_difference_word(rs, (1, 2, 1), P)
            == divided_difference_word(rs, (2, 1, 2), P))


def test_divided_difference_nonreduced_word_annihilates():
    rs = RootSystem("A", 2)
    P = SparsePoly.variable("x1", rs.variables()) ** 5
    assert (divided_difference_word(rs, (1, 1), P)
            == SparsePoly.zero(rs.variables()))


_DIVIDED_DIFFERENCE_SYSTEMS = ([RootSystem("A", m) for m in range(1, 6)]
                               + [RootSystem("B", m) for m in range(1, 5)])


@st.composite
def _integer_polys(draw, rs):
    exps = st.tuples(*[st.integers(0, 6)] * rs.dim)
    return SparsePoly(rs.variables(),
                      draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))


def _reflect_and_divide(rs, j, P):
    """(P - s_j P) / alpha_j by the reflection action and long division."""
    reflected = P.subs_signed(dict(enumerate(WeylElement.simple(rs, j).images)))
    alpha = rs.root_polynomial(rs.simple_roots()[j - 1])
    quotient, remainder = (P - reflected).divmod_by(alpha)
    assert remainder == SparsePoly.zero(rs.variables())
    return quotient


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_divided_difference_is_reflect_and_divide(data):
    rs = data.draw(st.sampled_from(_DIVIDED_DIFFERENCE_SYSTEMS))
    P = data.draw(_integer_polys(rs))
    for j in range(1, rs.rank + 1):
        assert divided_difference(rs, j, P) == _reflect_and_divide(rs, j, P)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_divided_difference_is_reflect_and_divide_over_fractions(data):
    # rational coefficients, with up to 8 terms on up to 5 coordinates
    rs = data.draw(st.sampled_from(_DIVIDED_DIFFERENCE_SYSTEMS))
    exps = st.tuples(*[st.integers(0, 5)] * rs.dim)
    coeffs = st.fractions(-3, 3, max_denominator=5)
    P = SparsePoly(rs.variables(), data.draw(st.dictionaries(exps, coeffs, max_size=8)))
    for j in range(1, rs.rank + 1):
        assert divided_difference(rs, j, P) == _reflect_and_divide(rs, j, P)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_random_divided_differences_square_to_zero(data):
    rs = data.draw(st.sampled_from(_DIVIDED_DIFFERENCE_SYSTEMS))
    P = data.draw(_integer_polys(rs))
    for j in range(1, rs.rank + 1):
        assert divided_difference_word(rs, (j, j), P) == SparsePoly.zero(rs.variables())


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_random_divided_differences_satisfy_the_braid_relations(data):
    # s1 s2 s1 = s2 s1 s2 in A2 and s1 s2 s1 s2 = s2 s1 s2 s1 in B2
    for rs, word in ((RootSystem("A", 2), (1, 2, 1)), (RootSystem("B", 2), (1, 2, 1, 2))):
        P = data.draw(_integer_polys(rs))
        other = tuple(3 - j for j in word)
        assert divided_difference_word(rs, word, P) == divided_difference_word(rs, other, P)


def test_cpn_orbit_shape():
    orbit = cpn_orbit(3)
    assert orbit.rs == RootSystem("A", 3)
    assert orbit.J == (2, 3)
    assert orbit.n == 3
    assert len(orbit.cosets) == 4
    assert orbit.longest_rep.word == (3, 2, 1)


def test_grassmannian_orbit_shape():
    g2 = grassmannian_orbit(2)
    assert g2.rs == RootSystem("B", 2)
    assert g2.n == 3 and len(g2.cosets) == 4
    assert g2.longest_rep.word == (1, 2, 1)
    g3 = grassmannian_orbit(3)
    assert g3.n == 5 and len(g3.cosets) == 6
    assert g3.longest_rep.word == (1, 2, 3, 2, 1)


def test_orbit_J_validation():
    rs = RootSystem("A", 2)
    with pytest.raises(ValueError):
        OrbitSpec(rs, [0])
    with pytest.raises(ValueError):
        OrbitSpec(rs, [3])


def test_q_degree_law():
    orbit = cpn_orbit(2)
    q1, q2, q11, q31 = q_I_via_divided_diff(orbit, [(1,), (2,), (1, 1), (3, 1)])
    # |I| < n: the divided-difference operator kills the polynomial
    assert q1 == SparsePoly.zero(orbit.rs.variables())
    # |I| = n: constants (Chern-number combinations)
    vs = orbit.rs.variables()
    assert q2 == SparsePoly.constant(vs, 3)
    assert q11 == SparsePoly.constant(vs, 3)
    # |I| > n: homogeneous of degree |I| - n
    assert _poly_degree(q31) == 2


def test_cp1_q_values():
    orbit = cpn_orbit(1)
    vs = orbit.rs.variables()
    x1 = SparsePoly.variable("x1", vs)
    x2 = SparsePoly.variable("x2", vs)
    q1, q2, q3 = q_I_via_divided_diff(orbit, [(1,), (2,), (3,)])
    assert q1 == SparsePoly.constant(vs, 2)
    assert q2 == SparsePoly.zero(vs)
    assert q3 == 2 * (x1 - x2) ** 2


def test_q_I_is_reused_per_orbit():
    orbit = grassmannian_orbit(2)
    for I in ((3,), (2, 1, 1), (4, 1)):
        [first] = q_I_via_divided_diff(orbit, [I])
        assert q_I_via_divided_diff(orbit, [list(I)])[0] is first
        assert q_I_via_divided_diff(grassmannian_orbit(2), [I]) == [first]
    with pytest.raises(ValueError, match="more parts"):
        q_I_via_divided_diff(orbit, [(1, 1, 1, 1)])


def test_grassmannian_fixed_points_pinned():
    fpd = orbit_fixed_points(grassmannian_orbit(2), (5, 2))
    assert fpd.points == ((3, 7, 5), (-3, 7, 2), (-7, 3, -2), (-7, -3, -5))


def test_cpn_orbit_matches_projective_space_model():
    for n, ws in ((1, (3,)), (2, (1, 4)), (3, (2, 3, 7))):
        orbit = cpn_orbit(n)
        xi = (0,) + tuple(-w for w in ws)
        from_orbit = orbit_fixed_points(orbit, xi)
        model = cpn_fixed_points(n, ws)
        assert (sorted(tuple(sorted(p)) for p in from_orbit.points)
                == sorted(tuple(sorted(p)) for p in model.points))


def test_crosscheck_grid():
    cases = [(cpn_orbit(1), (0, -3)), (cpn_orbit(2), (1, 5, -3)),
             (grassmannian_orbit(2), (5, 2))]
    for orbit, xi in cases:
        partitions = [I for k in range(orbit.n, orbit.n + 3)
                      for I in partitions_at_most(k, orbit.n)]
        for report in crosscheck_qI(orbit, partitions, xi):
            assert report["ok"], report


def test_wrong_composition_order_fails_crosscheck():
    # applying the divided differences leftmost-first is a genuine mutation:
    # it disagrees with localization
    orbit = cpn_orbit(2)
    xi = (1, 5, -3)
    I = (3, 1)
    values = [orbit.rs.root_polynomial(r) for r in orbit.complement_roots]
    [poly] = monomial_sym_eval([I], values)
    for j in orbit.longest_rep.word:               # forward, not reversed
        poly = divided_difference(orbit.rs, j, poly)
    algebraic = poly.evaluate([Fraction(x) for x in xi])
    localized = relation_coefficient(orbit_fixed_points(orbit, xi), I)
    assert algebraic != localized


def test_non_generic_direction_raises():
    with pytest.raises(ValueError, match="non-generic circle direction"):
        orbit_fixed_points(cpn_orbit(2), (1, 1, 5))
    with pytest.raises(ValueError, match="non-generic circle direction"):
        orbit_fixed_points(grassmannian_orbit(2), (1, 0))


def test_direction_arity_check():
    with pytest.raises(ValueError, match="coordinates"):
        orbit_fixed_points(cpn_orbit(2), (1, 2))


def test_orbit_json_roundtrip():
    for orbit in (cpn_orbit(2), grassmannian_orbit(3)):
        data = json.loads(json.dumps(orbit.to_json()))
        assert data == {"family": orbit.rs.family, "rank": orbit.rs.rank,
                        "J": list(orbit.J)}
        back = OrbitSpec(RootSystem(data["family"], data["rank"]), data["J"])
        assert back.rs == orbit.rs
        assert back.J == orbit.J
        assert back.longest_rep == orbit.longest_rep


def test_b2_weights_are_integral():
    fpd = orbit_fixed_points(grassmannian_orbit(2), (3, 1))
    for I in ((3,), (2, 1), (1, 1, 1), (4,)):
        value = relation_coefficient(fpd, I)
        assert value.denominator == 1


def test_crosscheck_builds_one_table_and_one_fixed_point_set(monkeypatch):
    from genus_forge import coadjoint
    calls = {"orbit_fixed_points": 0, "monomial_sym_eval": 0}
    for name in calls:
        original = getattr(coadjoint, name)
        monkeypatch.setattr(coadjoint, name,
                            lambda *a, _f=original, _n=name: calls.__setitem__(
                                _n, calls[_n] + 1) or _f(*a))
    orbit = grassmannian_orbit(2)
    partitions = [I for k in range(3, 6) for I in partitions_at_most(k, 3)]
    reports = crosscheck_qI(orbit, partitions, (5, 2))
    assert [r["partition"] for r in reports] == [
        "[" + ",".join(map(str, I)) + "]" for I in partitions]
    assert all(r["ok"] for r in reports)
    assert calls == {"orbit_fixed_points": 1, "monomial_sym_eval": 1}

